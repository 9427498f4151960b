"""Session tests: shared caching, batching, request validation."""

import pytest

from repro.api import Session, SimRequest, TimingCache
from repro.config import DataType
from repro.errors import BatchRequestError, ConfigError
from repro.gemm.problem import GemmProblem
from repro.systolic.dataflow import Dataflow


@pytest.fixture()
def session():
    """A session with a private cache so counters start at zero."""
    return Session(cache=TimingCache())


SMALL = GemmProblem(512, 512, 512, dtype=DataType.FP16)


class TestTimeGemm:
    def test_report_fields(self, session):
        report = session.time_gemm("sma:2", SMALL)
        assert report.platform == "sma:2"
        assert report.backend == "sma"
        assert (report.m, report.n, report.k) == (512, 512, 512)
        assert report.dtype == "fp16"
        assert report.seconds > 0
        assert report.tflops > 0
        assert not report.cached

    def test_repeat_hits_cache(self, session):
        first = session.time_gemm("sma:2", SMALL)
        second = session.time_gemm("sma:2", SMALL)
        assert not first.cached
        assert second.cached
        assert second.seconds == first.seconds
        assert session.cache_stats.hits == 1

    def test_int_and_triple_coercion(self, session):
        as_int = session.time_gemm("gpu-tc", 512)
        as_triple = session.time_gemm("gpu-tc", (512, 512, 512))
        assert as_triple.cached  # same problem, backend-default dtype
        assert as_triple.seconds == as_int.seconds

    def test_backend_default_dtypes(self, session):
        assert session.time_gemm("gpu-simd", 128).dtype == "fp32"
        assert session.time_gemm("gpu-tc", 128).dtype == "fp16"

    def test_bad_shape(self, session):
        with pytest.raises(ConfigError):
            session.time_gemm("gpu-tc", (512, 512))

    def test_non_gemm_platform(self, session):
        with pytest.raises(ConfigError):
            session.time_gemm("cpu", 512)

    def test_alpha_beta_not_collided(self, session):
        """Satellite regression: beta adds C read traffic; distinct keys."""
        plain = session.time_gemm("gpu-tc", SMALL)
        accumulating = session.time_gemm(
            "gpu-tc", GemmProblem(512, 512, 512, dtype=DataType.FP16, beta=1.0)
        )
        assert not accumulating.cached
        assert session.cache_stats.misses == 2
        assert accumulating.beta == 1.0


class TestSharedCache:
    def test_two_platforms_share_backend_cache(self, session):
        """'sma' and 'sma:3' are distinct Platform objects but identical
        frozen executor configs — the second model run is timed entirely
        from the shared cache."""
        first = session.run_model("alexnet", "sma")
        misses_after_first = session.cache_stats.misses
        second = session.run_model("alexnet", "sma:3")
        stats = session.cache_stats
        assert session.platform("sma") is not session.platform("sma:3")
        assert stats.misses == misses_after_first  # no new simulation
        assert stats.hits > 0
        assert second.total_seconds == pytest.approx(first.total_seconds)

    def test_sessions_share_explicit_cache(self):
        cache = TimingCache()
        one = Session(cache=cache)
        other = Session(cache=cache)
        assert not one.time_gemm("sma:2", SMALL).cached
        report = other.time_gemm("sma:2", SMALL)
        assert report.cached
        assert cache.stats().hits == 1

    def test_default_sessions_share_process_cache(self):
        assert Session().cache is Session().cache

    def test_executor_memoized_across_equivalent_specs(self, session):
        assert session.executor("sma") is session.executor("sma:3")
        assert session.executor("sma") is not session.executor("sma:2")
        assert session.executor(
            "sma", dataflow=Dataflow.WEIGHT_STATIONARY
        ) is not session.executor("sma")

    def test_different_sma_configs_do_not_collide(self, session):
        two = session.time_gemm("sma:2", SMALL)
        three = session.time_gemm("sma:3", SMALL)
        assert not three.cached
        assert three.seconds != two.seconds


class TestRunModel:
    def test_report_addresses(self, session):
        report = session.run_model("alexnet", "gpu-tc", tag="t0")
        assert report.model == "alexnet"
        assert report.platform == "gpu-tc"
        assert report.tag == "t0"
        assert report.total_seconds > 0
        assert report.grouped_seconds()["CNN&FC"] > 0

    def test_unknown_model(self, session):
        with pytest.raises(ConfigError):
            session.run_model("resnext", "gpu-tc")


class TestRunBatch:
    def test_ordering_and_tags(self, session):
        batch = session.run_batch(
            [
                SimRequest(platform="sma:2", gemm=SMALL, tag="bench"),
                SimRequest(platform="sma:2", model="alexnet", tag="model"),
                SimRequest(platform="sma:2", gemm=SMALL, tag="again"),
            ]
        )
        assert [r.tag for r in batch.reports] == ["bench", "model", "again"]
        assert len(batch) == 3
        assert batch.reports[2].cached

    def test_two_platform_sweep_has_shared_hits(self, session):
        """Acceptance: the same model on two platforms pools timings."""
        batch = session.run_batch(
            [
                SimRequest(platform="sma", model="alexnet", tag="a"),
                SimRequest(platform="sma:3", model="alexnet", tag="b"),
            ]
        )
        assert batch.cache_stats.hits > 0
        a, b = batch.reports
        assert a.total_seconds == pytest.approx(b.total_seconds)

    def test_rejects_non_requests(self, session):
        with pytest.raises(ConfigError):
            session.run_batch(["alexnet"])

    def test_failure_carries_index_and_tag(self, session):
        """Satellite regression: a bad request mid-batch keeps its position."""
        requests = [
            SimRequest(platform="sma:2", gemm=SMALL, tag="ok"),
            SimRequest(platform="sma:2", model="not_a_model", tag="broken"),
        ]
        with pytest.raises(BatchRequestError) as excinfo:
            session.run_batch(requests)
        error = excinfo.value
        assert error.index == 1
        assert error.tag == "broken"
        assert "not_a_model" in str(error)
        assert isinstance(error.__cause__, ConfigError)

    def test_dataflow_override_honored(self, session):
        """Satellite regression: request-level dataflow reaches the executor."""
        batch = session.run_batch(
            [
                SimRequest(platform="sma:2", gemm=SMALL),
                SimRequest(platform="sma:2", gemm=SMALL, dataflow="ws"),
            ]
        )
        default, ws = batch.reports
        assert ws.dataflow == "ws"
        assert not ws.cached  # distinct executor config, distinct cache key
        assert ws.seconds > default.seconds  # diagonal drain is slower

    def test_override_on_incapable_platform_is_config_error(self, session):
        """gpu-tc has no dataflow axis: the failure is a clean ConfigError
        (wrapped with its batch position), not a raw TypeError."""
        with pytest.raises(BatchRequestError) as excinfo:
            session.run_batch(
                [SimRequest(platform="gpu-tc", model="alexnet", dataflow="ws")]
            )
        assert isinstance(excinfo.value.__cause__, ConfigError)
        assert "gpu-tc" in str(excinfo.value)

    def test_scheduler_override_honored(self, session):
        default = session.time_gemm("sma:2", SMALL)
        lrr = session.time_gemm("sma:2", SMALL, scheduler="lrr")
        assert lrr.scheduler == "lrr"
        assert default.scheduler is None
        assert not lrr.cached  # scheduler is part of the cache key

    def test_batch_json_export(self, session):
        batch = session.run_batch(
            [SimRequest(platform="sma:2", gemm=SMALL, tag="x")]
        )
        data = batch.to_dict()
        assert data["reports"][0]["kind"] == "gemm"
        assert set(data["cache"]) >= {"hits", "misses", "hit_rate"}


class TestSimRequestValidation:
    def test_needs_exactly_one_payload(self):
        with pytest.raises(ConfigError):
            SimRequest(platform="sma:2")
        with pytest.raises(ConfigError):
            SimRequest(platform="sma:2", model="alexnet", gemm=SMALL)

    def test_kind(self):
        assert SimRequest(platform="sma:2", model="alexnet").kind == "model"
        assert SimRequest(platform="sma:2", gemm=SMALL).kind == "gemm"


class TestRunScenarioErrors:
    def test_needs_a_platform(self):
        from repro.api import ScenarioSpec, StreamSpec

        spec = ScenarioSpec(
            name="open", frames=1,
            streams=(StreamSpec(name="a", model="alexnet"),),
        )
        with pytest.raises(ConfigError):
            Session(cache=TimingCache()).run_scenario(spec)

    def test_rejects_non_spec(self):
        with pytest.raises(ConfigError):
            Session(cache=TimingCache()).run_scenario("not-a-spec")

    def test_dict_form_accepted(self):
        from repro.api import ScenarioSpec, StreamSpec

        spec = ScenarioSpec(
            name="open", frames=1,
            streams=(StreamSpec(name="a", model="alexnet"),),
        )
        report = Session(cache=TimingCache()).run_scenario(
            spec.to_dict(), "sma:2"
        )
        assert report.platform == "sma:2"
