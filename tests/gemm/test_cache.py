"""TimingCache: merge/export semantics, stats reset, entry picklability."""

import pickle

import pytest

from repro.api import Session
from repro.config import DataType, system_sma
from repro.gemm.cache import CacheEntries, CacheStats, TimingCache
from repro.gemm.executor import GemmExecutor
from repro.gemm.problem import GemmProblem

SMALL = GemmProblem(128, 128, 128, dtype=DataType.FP16)
OTHER = GemmProblem(256, 256, 256, dtype=DataType.FP16)


def _warm_cache(problems) -> TimingCache:
    cache = TimingCache()
    executor = GemmExecutor(system_sma(2), "sma", cache=cache)
    for problem in problems:
        executor.time_gemm(problem)
    return cache


class TestExportAndMerge:
    def test_export_snapshot_counts(self):
        cache = _warm_cache([SMALL, SMALL])
        entries = cache.export_entries()
        assert len(entries.timings) == 1
        assert entries.stats.hits == 1  # the repeated problem
        assert entries.stats.misses == 1

    def test_merge_adds_missing_entries(self):
        target = TimingCache()
        entries = _warm_cache([SMALL]).export_entries()
        added = target.merge(entries)
        assert added == len(entries)  # timings + windows, all new
        assert len(target) == 1

    def test_merge_is_idempotent(self):
        target = TimingCache()
        entries = _warm_cache([SMALL]).export_entries()
        target.merge(entries)
        assert target.merge(entries) == 0
        assert len(target) == 1

    def test_merge_accepts_cache_directly(self):
        target = _warm_cache([SMALL])
        target.merge(_warm_cache([OTHER]))
        assert len(target) == 2

    def test_first_write_wins_on_collision(self):
        """Both sides computed the same deterministic result; keeping the
        existing entry keeps the parent bit-identical to a sequential run."""
        target = _warm_cache([SMALL])
        original = target.peek_timing(next(iter(target.export_entries().timings)))
        target.merge(_warm_cache([SMALL, OTHER]))
        key = GemmExecutor(system_sma(2), "sma", cache=TimingCache()).cache_key(
            SMALL
        )
        assert target.peek_timing(key) is original

    def test_merge_accumulates_counters(self):
        target = _warm_cache([SMALL])
        target.merge(_warm_cache([OTHER, OTHER]))
        stats = target.stats()
        assert stats.misses == 2
        assert stats.hits == 1

    def test_merged_timings_equal_fresh_simulation(self):
        """Satellite acceptance: a merged cache serves the same timing a
        sequential simulation would produce."""
        merged = TimingCache()
        merged.merge(_warm_cache([SMALL]))
        via_merge = GemmExecutor(system_sma(2), "sma", cache=merged).time_gemm(
            SMALL
        )
        fresh = GemmExecutor(
            system_sma(2), "sma", cache=TimingCache()
        ).time_gemm(SMALL)
        assert via_merge.seconds == fresh.seconds
        assert via_merge.cycles == fresh.cycles
        assert merged.stats().hits == 1  # served from the merged entries


class TestStatsReset:
    def test_reset_keeps_entries(self):
        cache = _warm_cache([SMALL])
        before = cache.reset_stats()
        assert before.misses == 1
        assert len(cache) == 1
        assert cache.stats() == CacheStats()

    def test_cold_vs_warm_measurable_in_process(self):
        session = Session(cache=TimingCache())
        session.time_gemm("sma:2", SMALL)
        cold = session.cache.reset_stats()
        session.time_gemm("sma:2", SMALL)
        warm = session.cache.stats()
        assert cold.misses == 1 and cold.hits == 0
        assert warm.hits == 1 and warm.misses == 0
        assert warm.hit_rate == 1.0

    def test_stats_since_baseline(self):
        cache = _warm_cache([SMALL])
        baseline = cache.stats()
        GemmExecutor(system_sma(2), "sma", cache=cache).time_gemm(SMALL)
        delta = cache.stats().since(baseline)
        assert delta.hits == 1 and delta.misses == 0

    def test_clear_drops_entries_and_stats(self):
        cache = _warm_cache([SMALL])
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == CacheStats()


class TestPicklability:
    def test_entries_round_trip(self):
        entries = _warm_cache([SMALL, OTHER]).export_entries()
        recovered = pickle.loads(pickle.dumps(entries))
        assert isinstance(recovered, CacheEntries)
        assert recovered.timings.keys() == entries.timings.keys()
        assert recovered.stats == entries.stats
        for key, timing in entries.timings.items():
            assert recovered.timings[key].seconds == timing.seconds
