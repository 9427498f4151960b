"""Shared GEMM-timing cache: one store serving every executor.

Historically each :class:`~repro.gemm.executor.GemmExecutor` hoarded a
private ``_cache``/``_window_cache`` dict, so identical GEMM shapes were
re-simulated by every platform object (examples, experiments, CLI, and
benchmarks each built their own executors). :class:`TimingCache` lifts both
layers into one shareable, thread-safe object keyed by the full frozen
configuration — ``(system, backend, scheduler, dataflow, problem)`` — so
any number of executors, platforms, and sessions can pool results.

Keys embed the frozen :class:`~repro.config.SystemConfig` and
:class:`~repro.gemm.problem.GemmProblem` values themselves (both hashable),
so two configurations share an entry exactly when every timing-relevant
field matches — including the ``alpha``/``beta`` epilogue scalars, which
change DRAM traffic and therefore must never collide.

A cache lives only in the process that fills it. An entry is valid only
for the simulator that produced it, so nothing is written to disk;
entries leave a process only as a :class:`CacheEntries` snapshot, to the
sweep or cluster process that asked for the work.

A third table holds the priced non-GEMM operators: one dict per
:class:`~repro.config.GpuConfig`, from operator to the
:class:`~repro.platforms.base.OpStats` of its SIMD roofline and energy,
which read only the GPU and the op. It saves repricing an operator that
a model, or another model, already lowered. It is neither counted nor
shipped: :class:`CacheStats`, ``len()``, :meth:`TimingCache.export_entries`
and :meth:`TimingCache.merge` ignore it, and :meth:`TimingCache.clear`
empties it, so a fresh or cleared cache is a cold run that prices again.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.common.codec import Codec
from repro.config import DataType, GpuConfig, SystemConfig

if TYPE_CHECKING:  # imported only for annotations; avoids import cycles
    from repro.dnn.ops import Operator
    from repro.gemm.executor import GemmTiming
    from repro.gemm.problem import GemmProblem
    from repro.gpu.sm import SmResult
    from repro.platforms.base import OpStats
    from repro.systolic.dataflow import Dataflow

#: Cache key of one fully-specified GEMM timing.
TimingKey = tuple[Hashable, ...]

#: Cache key of one sample-window SM simulation.
WindowKey = tuple[Hashable, ...]


@dataclass(frozen=True)
class CacheStats(Codec, derived=("hit_rate",)):
    """Hit/miss counters of a :class:`TimingCache` at one point in time."""

    hits: int = 0
    misses: int = 0
    window_hits: int = 0
    window_misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def total_hits(self) -> int:
        """Hits across both layers (timings and sample windows)."""
        return self.hits + self.window_hits

    def since(self, baseline: "CacheStats") -> "CacheStats":
        """Counters accumulated after ``baseline`` was snapshotted.

        Lets benchmarks measure one phase (e.g. the warm half of a
        cold-vs-warm comparison) against a shared long-lived cache.
        """
        return CacheStats(
            hits=self.hits - baseline.hits,
            misses=self.misses - baseline.misses,
            window_hits=self.window_hits - baseline.window_hits,
            window_misses=self.window_misses - baseline.window_misses,
        )

    def merged(self, other: "CacheStats") -> "CacheStats":
        """Element-wise sum, used when folding worker caches together."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            window_hits=self.window_hits + other.window_hits,
            window_misses=self.window_misses + other.window_misses,
        )


@dataclass(frozen=True)
class CacheEntries:
    """Picklable snapshot of a :class:`TimingCache`'s contents.

    Every value is a frozen dataclass of primitives (``GemmTiming``,
    ``SmResult``) and every key a tuple of hashable config values, so a
    snapshot can cross a process boundary — sweep workers and cluster
    servers export their new entries this way and the receiver folds
    them in with :meth:`TimingCache.merge`.
    """

    timings: dict[TimingKey, "GemmTiming"]
    windows: dict[WindowKey, "SmResult"]
    stats: CacheStats = CacheStats()

    def __len__(self) -> int:
        return len(self.timings) + len(self.windows)

    def minus(self, baseline: "CacheEntries") -> "CacheEntries":
        """The delta beyond ``baseline``: new entries, counters since.

        This is what crosses a boundary after warm-started work — sweep
        workers subtract the warm set they were given, and the cluster
        pool subtracts its pre-submission snapshot — so the receiver
        merges only what this side actually added.
        """
        return CacheEntries(
            timings={
                key: timing
                for key, timing in self.timings.items()
                if key not in baseline.timings
            },
            windows={
                key: window
                for key, window in self.windows.items()
                if key not in baseline.windows
            },
            stats=self.stats.since(baseline.stats),
        )


class TimingCache:
    """Process-shareable store of GEMM timings and sample-window results.

    Two layers, mirroring the executor's cost structure:

    * **timings** — whole :class:`GemmTiming` results per problem;
    * **windows** — the expensive cycle-level sample-window simulations,
      which depend only on (system, backend, scheduler, dataflow, dtype,
      iterations), not on the layer shape.

    Beside them, uncounted, the priced non-GEMM operators per GPU
    (:meth:`op_table`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._timings: dict[TimingKey, GemmTiming] = {}
        self._windows: dict[WindowKey, SmResult] = {}
        self._ops: dict[GpuConfig, dict[Operator, OpStats]] = {}
        self._hits = 0
        self._misses = 0
        self._window_hits = 0
        self._window_misses = 0

    # -- key construction --------------------------------------------------------------
    @staticmethod
    def timing_key(
        system: SystemConfig,
        backend: str,
        scheduler: str,
        dataflow: "Dataflow",
        problem: "GemmProblem",
    ) -> TimingKey:
        """Key of one timed GEMM; the frozen problem carries alpha/beta."""
        return (system, backend, scheduler, dataflow, problem)

    @staticmethod
    def window_key(
        system: SystemConfig,
        backend: str,
        scheduler: str,
        dataflow: "Dataflow",
        dtype: DataType,
        iterations: int,
    ) -> WindowKey:
        return (system, backend, scheduler, dataflow, dtype, iterations)

    # -- timings -----------------------------------------------------------------------
    def peek_timing(self, key: TimingKey) -> "GemmTiming | None":
        """Look up a timing without touching the hit/miss counters."""
        with self._lock:
            return self._timings.get(key)

    def get_timing(self, key: TimingKey) -> "GemmTiming | None":
        with self._lock:
            timing = self._timings.get(key)
            if timing is None:
                self._misses += 1
            else:
                self._hits += 1
            return timing

    def put_timing(self, key: TimingKey, timing: "GemmTiming") -> None:
        with self._lock:
            self._timings[key] = timing

    # -- sample windows ----------------------------------------------------------------
    def get_window(self, key: WindowKey) -> "SmResult | None":
        with self._lock:
            result = self._windows.get(key)
            if result is None:
                self._window_misses += 1
            else:
                self._window_hits += 1
            return result

    def put_window(self, key: WindowKey, result: "SmResult") -> None:
        with self._lock:
            self._windows[key] = result

    # -- priced operators --------------------------------------------------------------
    def op_table(self, gpu: GpuConfig) -> "dict[Operator, OpStats]":
        """The priced non-GEMM operators of ``gpu``, operator to stats.

        Every platform on an equal GPU gets the same dict. A platform
        fetches it once, so a lookup hashes only the operator. Entries are
        read and written without the lock: a dict get or set is atomic,
        and two threads that price one op store equal stats. Every
        lowering that hits an entry shares its :class:`EnergyBreakdown`,
        so nothing may mutate an :class:`OpStats`' energy once priced.
        """
        with self._lock:
            table = self._ops.get(gpu)
            if table is None:
                table = self._ops[gpu] = {}
            return table

    # -- sharing across processes ------------------------------------------------------
    def export_entries(self) -> CacheEntries:
        """A picklable snapshot of every entry plus the counters."""
        with self._lock:
            return CacheEntries(
                timings=dict(self._timings),
                windows=dict(self._windows),
                stats=CacheStats(
                    hits=self._hits,
                    misses=self._misses,
                    window_hits=self._window_hits,
                    window_misses=self._window_misses,
                ),
            )

    def merge(self, entries: "CacheEntries | TimingCache") -> int:
        """Fold another cache's entries into this one; returns entries added.

        Existing keys win — both sides computed the same deterministic
        simulation, so first-write-wins keeps results bit-identical to a
        sequential run no matter the merge order. The other side's hit/miss
        counters are accumulated so a sharded sweep reports the work its
        workers actually did.
        """
        if isinstance(entries, TimingCache):
            entries = entries.export_entries()
        with self._lock:
            added = 0
            for key, timing in entries.timings.items():
                if key not in self._timings:
                    self._timings[key] = timing
                    added += 1
            for key, window in entries.windows.items():
                if key not in self._windows:
                    self._windows[key] = window
                    added += 1
            self._hits += entries.stats.hits
            self._misses += entries.stats.misses
            self._window_hits += entries.stats.window_hits
            self._window_misses += entries.stats.window_misses
            return added

    # -- introspection -----------------------------------------------------------------
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                window_hits=self._window_hits,
                window_misses=self._window_misses,
            )

    def reset_stats(self) -> CacheStats:
        """Zero the counters, keeping every entry; returns the old stats.

        This is the warm half of a cold-vs-warm benchmark: reset after the
        cold pass and the next :meth:`stats` call counts only the warm
        lookups, with no fresh process needed.
        """
        with self._lock:
            before = CacheStats(
                hits=self._hits,
                misses=self._misses,
                window_hits=self._window_hits,
                window_misses=self._window_misses,
            )
            self._hits = self._misses = 0
            self._window_hits = self._window_misses = 0
            return before

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._timings.clear()
            self._windows.clear()
            # In place: platforms hold their GPU's table.
            for table in self._ops.values():
                table.clear()
            self._hits = self._misses = 0
            self._window_hits = self._window_misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._timings)

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"TimingCache(entries={len(self)}, hits={stats.hits},"
            f" misses={stats.misses})"
        )


#: The process-wide cache shared by every Session that does not bring its
#: own (the default). Lifting it to module scope is what lets independent
#: consumers — CLI runs, experiments, examples — pool identical GEMMs.
_PROCESS_CACHE = TimingCache()


def process_cache() -> TimingCache:
    """The default process-wide :class:`TimingCache`."""
    return _PROCESS_CACHE
