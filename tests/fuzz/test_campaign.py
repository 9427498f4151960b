"""Campaign runner: determinism, sqlite corpus resume, remote == local."""

import gc
import warnings

import pytest

from repro.api.results import report_from_dict
from repro.cluster.client import ClusterClient
from repro.cluster.server import ClusterServer
from repro.errors import ClusterError
from repro.fuzz import campaign
from repro.fuzz.campaign import (
    CaseRecord,
    CorpusStore,
    FuzzReport,
    run_campaign,
    run_indices,
)
from repro.obs.selfprof import PHASE_METRIC

CAMPAIGN_SEED = 7
BATCH = 8


def test_run_indices_is_deterministic():
    first = run_indices(CAMPAIGN_SEED, range(BATCH))
    second = run_indices(CAMPAIGN_SEED, range(BATCH))
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
    assert all(not record.failed for record in first)


def test_injected_campaign_flags_only_ladder_slots():
    records = run_indices(
        CAMPAIGN_SEED, range(16), inject="invert_priority"
    )
    failed = [record.index for record in records if record.failed]
    assert failed == [2, 11]  # the two priority_ladder slots in 0..15
    for record in records:
        if record.failed:
            assert record.oracles == ("priority_order",)
            assert record.reproducer is not None
            # Acceptance bound: the stored reproducer is minimal.
            assert record.reproducer.case.n_streams <= 2
            assert record.reproducer.case.n_frames <= 3


def test_case_record_round_trip():
    record = run_indices(CAMPAIGN_SEED, [3])[0]
    clone = CaseRecord.from_dict(record.to_dict())
    assert clone.to_dict() == record.to_dict()


class TestCorpusStore:
    def test_put_get_indices_failures(self):
        records = run_indices(CAMPAIGN_SEED, range(4))
        with CorpusStore() as store:
            for record in records:
                store.put(CAMPAIGN_SEED, [record])
            assert len(store) == 4
            assert store.indices(CAMPAIGN_SEED) == {0, 1, 2, 3}
            assert store.failures(CAMPAIGN_SEED) == []
            fetched = store.get(CAMPAIGN_SEED, 2)
            assert fetched.to_dict() == records[2].to_dict()

    def test_campaign_seeds_are_isolated(self):
        records = run_indices(CAMPAIGN_SEED, [0])
        with CorpusStore() as store:
            store.put(CAMPAIGN_SEED, [records[0]])
            assert store.indices(CAMPAIGN_SEED + 1) == set()
            assert store.get(CAMPAIGN_SEED + 1, 0) is None

    def test_resume_skips_stored_indices(self, tmp_path):
        path = tmp_path / "corpus.sqlite"
        with CorpusStore(path) as store:
            first = run_campaign(
                CAMPAIGN_SEED, BATCH, store=store, resume=True
            )
            assert first.executed == BATCH
            assert first.loaded == 0
        # Re-opening the same corpus re-runs nothing.
        with CorpusStore(path) as store:
            second = run_campaign(
                CAMPAIGN_SEED, BATCH, store=store, resume=True
            )
            assert second.executed == 0
            assert second.loaded == BATCH
        assert [r.to_dict() for r in first.records] == [
            r.to_dict() for r in second.records
        ]


class TestFuzzReport:
    def test_json_byte_identity_and_round_trip(self):
        first = run_campaign(CAMPAIGN_SEED, BATCH)
        second = run_campaign(CAMPAIGN_SEED, BATCH)
        assert first.to_json() == second.to_json()
        assert first.ok

        clone = FuzzReport.from_dict(first.to_dict())
        assert clone.to_json() == first.to_json()

    def test_report_from_dict_dispatches_fuzz_kind(self):
        report = run_campaign(CAMPAIGN_SEED, 2)
        loaded = report_from_dict(report.to_dict())
        assert isinstance(loaded, FuzzReport)
        assert loaded.to_json() == report.to_json()

    def test_families_histogram(self):
        report = run_campaign(CAMPAIGN_SEED, BATCH)
        families = report.families()
        assert sum(families.values()) == BATCH
        assert all(count == 1 for count in families.values())


@pytest.fixture(scope="module")
def server():
    with ClusterServer(jobs=1) as srv:
        srv.start()
        yield srv


class TestRemoteDispatch:
    def test_submit_fuzz_matches_local_records(self, server):
        local = run_indices(CAMPAIGN_SEED, range(4))
        with ClusterClient(server.address) as client:
            remote = client.submit_fuzz(CAMPAIGN_SEED, list(range(4)))
        assert [r.to_dict() for r in remote] == [
            r.to_dict() for r in local
        ]

    def test_run_campaign_over_servers(self, server):
        local = run_campaign(CAMPAIGN_SEED, BATCH)
        remote = run_campaign(
            CAMPAIGN_SEED, BATCH, servers=[server.address]
        )
        assert remote.to_json() == local.to_json()

    def test_remote_campaign_closes_its_connections(self, server):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            run_campaign(CAMPAIGN_SEED, BATCH, servers=[server.address])
            gc.collect()
        unclosed = [
            str(warning.message)
            for warning in caught
            if issubclass(warning.category, ResourceWarning)
            and "socket" in str(warning.message)
        ]
        assert unclosed == []

    def test_campaign_without_a_live_server_raises_cluster_error(self):
        gone = ClusterServer(jobs=1)
        gone.start()
        gone.close()
        with pytest.raises(ClusterError, match="dead or draining"):
            run_campaign(CAMPAIGN_SEED, BATCH, servers=[gone.address])

    def test_write_through_commits_once_per_shard(self, count_commits):
        with ClusterServer(jobs=1) as one, ClusterServer(jobs=1) as two:
            one.start()
            two.start()
            with CorpusStore() as store:
                commits = count_commits(store)
                run_campaign(
                    CAMPAIGN_SEED,
                    BATCH,
                    store=store,
                    servers=[one.address, two.address],
                )
                # Equal capacities deal one shard to each server.
                assert len(commits) == 2
                assert store.indices(CAMPAIGN_SEED) == set(range(BATCH))

    def test_landed_shard_is_stored_when_a_late_shard_fails(
        self, close_after_probe, monkeypatch
    ):
        """Write-through: server one's shard lands, server two dies on
        submit and server one refuses the re-dispatch; the campaign
        raises but the corpus keeps server one's records."""
        local = run_indices(CAMPAIGN_SEED, range(BATCH))
        with ClusterServer(jobs=1) as one, ClusterServer(jobs=1) as two:
            one.start()
            two.start()
            close_after_probe(two)

            def run_then_drain(*args, **kwargs):
                records = run_indices(*args, **kwargs)
                with ClusterClient(one.address) as client:
                    client.drain()
                return records

            monkeypatch.setattr(campaign, "run_indices", run_then_drain)
            with CorpusStore() as store:
                with pytest.raises(ClusterError, match="dead or draining"):
                    run_campaign(
                        CAMPAIGN_SEED,
                        BATCH,
                        store=store,
                        servers=[one.address, two.address],
                    )
                kept = {
                    index: store.get(CAMPAIGN_SEED, index).to_dict()
                    for index in store.indices(CAMPAIGN_SEED)
                }
        # Equal capacities deal server one every other index.
        assert sorted(kept) == list(range(0, BATCH, 2))
        assert kept == {index: local[index].to_dict() for index in kept}

    def test_server_dead_after_probe_is_redispatched(self, close_after_probe):
        """A server that passes the probe and dies before its submit
        loses its shard to the survivor; the records match a local run."""
        with ClusterServer(jobs=1) as one, ClusterServer(jobs=1) as two:
            one.start()
            two.start()
            close_after_probe(two)
            remote = run_campaign(
                CAMPAIGN_SEED, BATCH, servers=[one.address, two.address]
            )
            shards = one.pool.metrics.histogram(
                PHASE_METRIC, phase="rpc_fuzz"
            ).sketch.count
        assert remote.to_json() == run_campaign(CAMPAIGN_SEED, BATCH).to_json()
        # Its own shard, then the dead server's re-dispatched one.
        assert shards == 2
