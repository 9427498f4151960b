"""The warm worker pool: one process pool + one cache, many submissions.

A :class:`WarmPool` is what makes the cluster server *long-lived* instead
of a per-submission script: the ``ProcessPoolExecutor`` is created once
and reused (no interpreter spawn per sweep), and one shared
:class:`~repro.gemm.cache.TimingCache` accumulates across submissions.
Each multi-worker submission ships the pool's current cache to the
workers as a warm start — they hit instead of recompute, and return only
the entries they added beyond the warm set — so a resubmission of
overlapping work costs lookups, not simulations.

Execution rides the same shard core and shard-outcome merge as local
sweeps (:func:`repro.sweep.workers.map_shards`), which is what keeps a
remote sweep bit-identical to a local one: both paths run the identical
deterministic code on the identical requests.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor

from repro.api.results import GemmReport, ModelReport
from repro.api.session import Session
from repro.errors import ConfigError
from repro.gemm.cache import CacheEntries, TimingCache
from repro.obs.metrics import MetricsRegistry
from repro.sweep.workers import execute_point, map_shards


class WarmPool:
    """A reusable executor plus a shared timing cache across submissions.

    ``jobs == 1`` executes in the owning process through one persistent
    :class:`~repro.api.session.Session` over the shared cache (platforms
    and executors stay memoized across submissions too); ``jobs > 1``
    shards across the warm process pool. Submissions are serialized —
    the pool is the unit of capacity, and interleaving two submissions
    through one cache would make their hit counters unattributable.
    """

    def __init__(self, jobs: int = 1, cache: TimingCache | None = None) -> None:
        if jobs < 1:
            raise ConfigError(f"pool jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache if cache is not None else TimingCache()
        self.metrics = MetricsRegistry()
        self._session = Session(cache=self.cache, metrics=self.metrics)
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self.submissions = 0
        self.points_run = 0

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def run_points(
        self, points, framework_overhead_s: float | None = None
    ) -> tuple[dict[str, "GemmReport | ModelReport"], CacheEntries]:
        """Execute ``points`` in order; returns (reports by ID, cache delta).

        The delta holds the entries and counters this submission added on
        top of the pool's pre-submission cache — exactly what a remote
        client needs to merge so its session cache ends up as warm as a
        local run's.
        """
        points = tuple(points)
        with self._lock:
            before = self.cache.export_entries()
            reports: dict[str, GemmReport | ModelReport] = {}
            if self.jobs == 1 or len(points) <= 1:
                for point in points:
                    reports[point.request_id] = execute_point(
                        self._session, point, framework_overhead_s
                    )
            else:
                for batch in map_shards(
                    self._pool(),
                    self._session,
                    points,
                    self.jobs,
                    framework_overhead_s,
                    warm=before,
                ):
                    reports.update(batch)
            after = self.cache.export_entries()
            self.submissions += 1
            self.points_run += len(points)
        return reports, after.minus(before)

    def status(self) -> dict:
        """Counters for the ``status`` verb (all plain primitives).

        ``frames`` summarizes serving outcomes across every submission
        this pool ran — offered/completed/dropped/missed/preempted.
        """
        entries = self.cache.export_entries()
        stats = entries.stats
        counter = self.metrics.counter_value
        return {
            "jobs": self.jobs,
            "submissions": self.submissions,
            "points": self.points_run,
            "cache": {
                "timings": len(entries.timings),
                "windows": len(entries.windows),
                "hits": stats.hits,
                "misses": stats.misses,
                "window_hits": stats.window_hits,
                "window_misses": stats.window_misses,
            },
            "frames": {
                "offered": counter("frames_offered_total"),
                "completed": counter("frames_completed_total"),
                "dropped": counter("frames_dropped_total"),
                "missed": counter("frames_missed_total"),
                "preempted": counter("frames_preempted_total"),
            },
        }

    def metrics_snapshot(self) -> dict:
        """The pool's mergeable metrics snapshot (the ``metrics`` verb)."""
        return self.metrics.snapshot()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["WarmPool"]
