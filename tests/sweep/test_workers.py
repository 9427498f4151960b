"""Sweep engine: sharded == sequential, cache merge, resume, errors.

The sharded tests spawn real worker processes, so grids stay tiny (64-256
square GEMMs simulate in milliseconds through the sampling pipeline).
"""

import pytest

from repro.api import Session, SimRequest, TimingCache
from repro.errors import BatchRequestError, ConfigError
from repro.sweep.grid import SweepGrid, SweepPoint, SweepSpec, expand
from repro.sweep.store import ResultStore
from repro.sweep.workers import run_sweep

GRID = expand(
    SweepSpec(platforms=("gpu-tc", "sma:2..3"), gemms=(128, 256))
)


def _fresh_session() -> Session:
    return Session(cache=TimingCache())


class TestShardedEqualsSequential:
    def test_reports_bit_identical(self):
        sequential = run_sweep(GRID, session=_fresh_session())
        sharded = run_sweep(GRID, jobs=2, session=_fresh_session())
        assert sharded.reports == sequential.reports

    def test_merged_cache_times_identically(self):
        """Satellite acceptance: timings served from a merged cache match a
        sequential run exactly."""
        sequential_session = _fresh_session()
        sequential = run_sweep(GRID, session=sequential_session)

        merged_session = _fresh_session()
        run_sweep(GRID, jobs=3, session=merged_session)
        assert len(merged_session.cache) == len(GRID)

        rerun = run_sweep(GRID, session=merged_session)
        assert rerun.reports != sequential.reports  # cached flags flip...
        assert all(report.cached for report in rerun.reports)
        assert [report.seconds for report in rerun.reports] == [
            report.seconds for report in sequential.reports
        ]
        assert merged_session.cache.stats().hits == len(GRID)

    def test_workers_report_their_cache_traffic(self):
        """Workers sharing shapes inside a shard surface window hits."""
        grid = expand(
            SweepSpec(platforms=("sma:2",), gemms=(128, 256, 512, 1024))
        )
        result = run_sweep(grid, jobs=2, session=_fresh_session())
        stats = result.cache_stats
        assert stats.misses == len(grid)
        assert stats.window_hits > 0  # anchors shared across sizes
        assert stats.total_hits > 0


class TestStoreIntegration:
    def test_sharded_store_resumes_to_zero(self, tmp_path):
        path = tmp_path / "sweep.sqlite"
        with ResultStore(path) as store:
            first = run_sweep(
                GRID, jobs=2, store=store, session=_fresh_session()
            )
            assert len(first.executed) == len(GRID)
            assert store.pending(GRID) == ()

        with ResultStore(path) as store:
            resumed = run_sweep(
                GRID, jobs=2, store=store, resume=True,
                session=_fresh_session(),
            )
            assert resumed.executed == ()
            assert len(resumed.loaded) == len(GRID)
            assert resumed.reports == first.reports

    def test_partial_store_only_runs_the_remainder(self):
        store = ResultStore(":memory:")
        half = SweepGrid(points=GRID.points[: len(GRID) // 2])
        run_sweep(half, store=store, session=_fresh_session())
        result = run_sweep(
            GRID, store=store, resume=True, session=_fresh_session()
        )
        assert len(result.loaded) == len(half)
        assert len(result.executed) == len(GRID) - len(half)
        assert store.pending(GRID) == ()
        store.close()

    def test_sequential_sweep_commits_once_per_point(self, count_commits):
        with ResultStore() as store:
            commits = count_commits(store)
            run_sweep(GRID, store=store, session=_fresh_session())
            assert len(commits) == len(GRID)
            assert store.pending(GRID) == ()

    def test_sharded_sweep_commits_once_per_shard(self, count_commits):
        with ResultStore() as store:
            commits = count_commits(store)
            run_sweep(GRID, jobs=2, store=store, session=_fresh_session())
            assert len(commits) == 2
            assert store.pending(GRID) == ()

    def test_resume_requires_store(self):
        with pytest.raises(ConfigError):
            run_sweep(GRID, resume=True, session=_fresh_session())

    def test_resume_under_new_tag_loads_and_restamps(self):
        """Tags are display labels: a retagged sweep still resumes, and
        loaded reports wear the new tag."""
        store = ResultStore(":memory:")
        grid = expand(SweepSpec(platforms=("sma:2",), gemms=(128,)))
        run_sweep(grid, store=store, session=_fresh_session())
        retagged = expand(
            SweepSpec(platforms=("sma:2",), gemms=(128,), tag="nightly")
        )
        result = run_sweep(
            retagged, store=store, resume=True, session=_fresh_session()
        )
        assert result.executed == ()
        assert result.reports[0].tag == "nightly"
        store.close()


class TestErrorHandling:
    def _broken_grid(self) -> SweepGrid:
        grid = expand(SweepSpec(platforms=("sma:2",), gemms=(128,)))
        bad = SweepPoint(
            index=1,
            request_id="model-deadbeef0000",
            fingerprint="deadbeef" * 8,
            request=SimRequest(
                platform="sma:2", model="not_a_model", tag="broken"
            ),
        )
        return SweepGrid(points=grid.points + (bad,))

    def test_sequential_failure_names_the_point(self):
        with pytest.raises(BatchRequestError) as excinfo:
            run_sweep(self._broken_grid(), session=_fresh_session())
        error = excinfo.value
        assert error.request_id == "model-deadbeef0000"
        assert error.index == 1
        assert error.tag == "broken"

    def test_sharded_failure_survives_the_process_boundary(self):
        with pytest.raises(BatchRequestError) as excinfo:
            run_sweep(
                self._broken_grid(), jobs=2, session=_fresh_session()
            )
        assert excinfo.value.request_id == "model-deadbeef0000"

    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigError):
            run_sweep(GRID, jobs=0, session=_fresh_session())

    def test_rejects_non_grid(self):
        with pytest.raises(ConfigError):
            run_sweep(["not", "a", "grid"], session=_fresh_session())


class TestSessionFacade:
    def test_session_run_sweep_delegates(self):
        session = _fresh_session()
        result = session.run_sweep(
            SweepSpec(platforms=("sma:2",), gemms=(128,))
        )
        assert len(result) == 1
        assert result.reports[0].platform == "sma:2"
        assert session.cache_stats.misses == 1

    def test_model_sweep_through_engine(self):
        session = _fresh_session()
        result = session.run_sweep(
            SweepSpec(
                platforms=("sma:2",),
                models=("alexnet",),
                framework_overhead_s=0.0,
            )
        )
        (report,) = result.reports
        assert report.model == "alexnet"
        assert report.total_seconds > 0
