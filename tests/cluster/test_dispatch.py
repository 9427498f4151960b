"""Cross-host dispatch: bit-identical goldens, failure re-dispatch, stores.

The acceptance contract of the cluster subsystem: a sweep sharded across
two servers and a serving run split across two platform instances must be
bit-identical to their single-process equivalents, and losing a server
must re-dispatch its shard rather than lose or corrupt results.
"""

import pytest

from repro.api import ScenarioSpec, Session, StreamSpec, TimingCache
from repro.cluster import (
    ClusterClient,
    ClusterServer,
    run_serving_split,
    run_sweep_remote,
    split_scenario,
)
from repro.cluster.dispatch import _REDISPATCH_ERRORS
from repro.errors import ClusterError, ConfigError
from repro.serving import ArrivalSpec
from repro.sweep import ResultStore, SweepSpec, expand, run_sweep

GRID = expand(SweepSpec(platforms=("sma:2..3",), gemms=(128, 256)))

SERVING = ScenarioSpec(
    name="fleet",
    platform=None,
    frames=3,
    policy="fifo",
    streams=(
        StreamSpec(
            name="det",
            model="alexnet",
            arrivals=ArrivalSpec(kind="poisson", rate_hz=30.0, seed=7),
        ),
        StreamSpec(
            name="trk",
            model="goturn",
            arrivals=ArrivalSpec(kind="poisson", rate_hz=30.0, seed=8),
        ),
    ),
)


@pytest.fixture()
def two_servers():
    with ClusterServer(jobs=1) as one, ClusterServer(jobs=1) as two:
        one.start()
        two.start()
        yield one, two


def _fresh_session() -> Session:
    return Session(cache=TimingCache())


class TestSweepGolden:
    def test_two_server_sweep_bit_identical_to_local(self, two_servers):
        one, two = two_servers
        local = run_sweep(GRID, session=_fresh_session())
        remote = run_sweep_remote(
            GRID, (one.address, two.address), session=_fresh_session()
        )
        assert remote.reports == local.reports
        assert remote.executed == local.executed
        assert remote.jobs == 2
        # Both servers actually took work.
        for server in two_servers:
            with ClusterClient(server.address) as client:
                assert client.status()["points"] > 0

    def test_remote_cache_merges_back_warm(self, two_servers):
        one, two = two_servers
        session = _fresh_session()
        run_sweep_remote(GRID, (one.address, two.address), session=session)
        assert len(session.cache) == len(GRID)
        # A local re-run over the merged cache is pure hits.
        rerun = run_sweep(GRID, session=session)
        assert all(report.cached for report in rerun.reports)

    def test_store_write_through_and_resume(self, two_servers, tmp_path):
        one, two = two_servers
        servers = (one.address, two.address)
        path = tmp_path / "remote.sqlite"
        with ResultStore(path) as store:
            run_sweep_remote(
                GRID, servers, store=store, session=_fresh_session()
            )
            assert len(store) == len(GRID)
            resumed = run_sweep_remote(
                GRID,
                servers,
                store=store,
                resume=True,
                session=_fresh_session(),
            )
        assert resumed.executed == ()
        assert len(resumed.loaded) == len(GRID)

    def test_write_through_commits_once_per_landed_shard(
        self, two_servers, count_commits
    ):
        one, two = two_servers
        with ResultStore() as store:
            commits = count_commits(store)
            run_sweep_remote(
                GRID,
                (one.address, two.address),
                store=store,
                session=_fresh_session(),
            )
            # Equal capacities deal one shard to each server.
            assert len(commits) == 2
            assert store.pending(GRID) == ()

    def test_remote_store_equals_local_store(self, two_servers, tmp_path):
        """The regression-gate contract: store payloads are identical."""
        one, two = two_servers
        with ResultStore(tmp_path / "local.sqlite") as local_store:
            run_sweep(GRID, store=local_store, session=_fresh_session())
            with ResultStore(tmp_path / "remote.sqlite") as remote_store:
                run_sweep_remote(
                    GRID,
                    (one.address, two.address),
                    store=remote_store,
                    session=_fresh_session(),
                )
                diff = local_store.diff(remote_store)
        assert diff.identical
        assert len(diff.unchanged) == len(GRID)


class TestFailureRedispatch:
    def test_dead_server_shard_is_redispatched(self, two_servers):
        """Probe fallback: a server dead before the capacity probe gets
        capacity 0 and no shard, so the live server runs the whole grid
        and nothing is re-dispatched."""
        one, two = two_servers
        two.close()  # dead before the probe
        local = run_sweep(GRID, session=_fresh_session())
        remote = run_sweep_remote(
            GRID, (one.address, two.address), session=_fresh_session()
        )
        assert remote.reports == local.reports
        with ClusterClient(one.address) as client:
            assert client.status()["points"] == len(GRID)

    def test_server_dead_after_probe_is_redispatched(
        self, two_servers, close_after_probe
    ):
        """A server that passes the probe and dies before its submit
        loses its shard to the survivor, not the sweep."""
        one, two = two_servers
        close_after_probe(two)
        local = run_sweep(GRID, session=_fresh_session())
        remote = run_sweep_remote(
            GRID, (one.address, two.address), session=_fresh_session()
        )
        assert remote.reports == local.reports
        with ClusterClient(one.address) as client:
            status = client.status()
        # Its own shard, then the dead server's re-dispatched one.
        assert status["submissions"] == 2
        assert status["points"] == len(GRID)

    def test_finished_shard_is_stored_when_a_late_shard_fails(
        self, two_servers, close_after_probe, monkeypatch, tmp_path
    ):
        """Write-through: server one's shard lands, server two dies on
        submit and server one refuses the re-dispatch; the sweep raises
        but the store keeps server one's rows."""
        one, two = two_servers
        close_after_probe(two)
        run_points = one.pool.run_points

        def run_then_drain(points, framework_overhead_s=None):
            result = run_points(points, framework_overhead_s)
            with ClusterClient(one.address) as client:
                client.drain()
            return result

        monkeypatch.setattr(one.pool, "run_points", run_then_drain)
        local = run_sweep(GRID, session=_fresh_session()).report_by_id()
        with ResultStore(tmp_path / "partial.sqlite") as store:
            with pytest.raises(ClusterError, match="dead or draining"):
                run_sweep_remote(
                    GRID,
                    (one.address, two.address),
                    store=store,
                    session=_fresh_session(),
                )
            stored = {
                point.request_id: store.get(point) for point in GRID
            }
        kept = {rid: report for rid, report in stored.items() if report}
        # Equal capacities deal server one every other point.
        assert len(kept) == len(GRID) // 2
        assert kept == {rid: local[rid] for rid in kept}

    def test_draining_server_shard_is_redispatched(self, two_servers):
        one, two = two_servers
        with ClusterClient(two.address) as client:
            client.drain()
        local = run_sweep(GRID, session=_fresh_session())
        remote = run_sweep_remote(
            GRID, (one.address, two.address), session=_fresh_session()
        )
        assert remote.reports == local.reports

    def test_all_servers_dead_raises(self, two_servers):
        one, two = two_servers
        one.close()
        two.close()
        with pytest.raises(ClusterError, match="dead or draining"):
            run_sweep_remote(
                GRID,
                (one.address, two.address),
                session=_fresh_session(),
            )

    def test_all_servers_dead_names_them_and_chains_the_cause(
        self, two_servers
    ):
        one, two = two_servers
        one.close()
        two.close()
        with pytest.raises(ClusterError, match="dead or draining") as info:
            run_sweep_remote(
                GRID,
                (one.address, two.address),
                session=_fresh_session(),
            )
        assert one.address in str(info.value)
        assert two.address in str(info.value)
        assert isinstance(info.value.__cause__, _REDISPATCH_ERRORS)

    def test_no_servers_is_config_error(self):
        with pytest.raises(ConfigError, match="at least one server"):
            run_sweep_remote(GRID, (), session=_fresh_session())


class TestServingSplit:
    def test_split_preserves_release_times(self):
        subs = split_scenario(SERVING, 2)
        assert [len(sub.streams) for sub in subs] == [1, 1]
        for sub in subs:
            for stream in sub.streams:
                original = SERVING.stream(stream.name)
                assert stream.arrivals.kind == "replay"
                assert stream.arrivals.times_s == original.release_times(
                    SERVING.frames
                )

    def test_single_partition_equals_plain_serving(self):
        plain = _fresh_session().run_serving(SERVING, "sma:2")
        merged = run_serving_split(
            SERVING, "sma:2", partitions=1, session=_fresh_session()
        )
        assert merged == plain

    def test_remote_split_bit_identical_to_local_split(self, two_servers):
        one, two = two_servers
        local = run_serving_split(
            SERVING, "sma:2", partitions=2, session=_fresh_session()
        )
        remote = run_serving_split(
            SERVING, "sma:2", servers=(one.address, two.address)
        )
        assert remote == local
        # Stream order and aggregate percentiles follow the original spec.
        assert [s.name for s in remote.streams] == ["det", "trk"]
        assert remote.p95_s == local.p95_s

    def test_remote_split_redispatches_dead_server(self, two_servers):
        one, two = two_servers
        two.close()
        local = run_serving_split(
            SERVING, "sma:2", partitions=2, session=_fresh_session()
        )
        remote = run_serving_split(
            SERVING, "sma:2", servers=(one.address, two.address)
        )
        assert remote == local

    def test_closed_loop_streams_cannot_split(self):
        spec = ScenarioSpec(
            name="cl",
            streams=(
                StreamSpec(
                    name="a",
                    model="alexnet",
                    arrivals=ArrivalSpec(kind="closed_loop", think_s=0.01),
                ),
            ),
        )
        with pytest.raises(ConfigError, match="closed_loop"):
            split_scenario(spec, 2)

    def test_session_facade_routes_through_cluster(self, two_servers):
        one, two = two_servers
        clustered = Session(
            cache=TimingCache(), cluster=(one.address, two.address)
        )
        local = run_sweep(GRID, session=_fresh_session())
        remote = clustered.run_sweep(GRID)
        assert remote.reports == local.reports
        split_local = run_serving_split(
            SERVING, "sma:2", partitions=2, session=_fresh_session()
        )
        split_remote = clustered.run_serving_split(SERVING, "sma:2")
        assert split_remote == split_local
