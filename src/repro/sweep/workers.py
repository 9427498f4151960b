"""The sweep engine: shard a request grid across worker processes.

``jobs=1`` executes the grid in order through one
:class:`~repro.api.session.Session` (same results, same cache, as a plain
``run_batch``). ``jobs>1`` round-robins the pending points across N
worker processes; each worker runs its shard in a private session with a
private :class:`~repro.gemm.cache.TimingCache`, ships its reports and an
exported cache snapshot back, and the parent folds every worker cache
into its own with :meth:`TimingCache.merge` on join.

Because the simulator is deterministic, a sharded run is bit-identical to
the sequential one — workers just recompute shared sample windows instead
of sharing them live. With a :class:`~repro.sweep.store.ResultStore`
attached, every finished point is persisted immediately; with
``resume=True``, points already in the store are loaded instead of
simulated, so re-running a finished sweep executes zero simulations.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from repro.api.results import GemmReport, ModelReport
from repro.api.session import Session
from repro.errors import BatchRequestError, ConfigError
from repro.gemm.cache import CacheEntries, CacheStats, TimingCache
from repro.obs.metrics import MetricsRegistry
from repro.sweep.grid import SweepGrid, SweepPoint, SweepSpec, expand
from repro.sweep.store import ResultStore


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one :func:`run_sweep` call.

    ``reports`` follows grid order. ``executed`` and ``loaded`` partition
    the grid's request IDs into points simulated this run vs points served
    from the result store; ``cache_stats`` snapshots the parent cache
    after worker caches were merged in.
    """

    grid: SweepGrid
    reports: tuple[GemmReport | ModelReport, ...]
    executed: tuple[str, ...]
    loaded: tuple[str, ...]
    cache_stats: CacheStats
    jobs: int = 1

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    def report_by_id(self) -> dict[str, GemmReport | ModelReport]:
        return {
            point.request_id: report
            for point, report in zip(self.grid.points, self.reports)
        }

    # Hand-written: encode-only, with each report keyed by its request ID.
    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "executed": list(self.executed),
            "loaded": list(self.loaded),
            "cache": self.cache_stats.to_dict(),
            "reports": [
                {"request_id": point.request_id, **report.to_dict()}
                for point, report in zip(self.grid.points, self.reports)
            ],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


@dataclass(frozen=True)
class _ShardPayload:
    """Everything one worker process needs (must stay picklable).

    ``warm`` optionally pre-loads the worker's private cache (the cluster
    pool ships its merged cache so warm workers skip recomputation); the
    worker then exports only the entries *beyond* the warm set, keeping
    the returned delta small.
    """

    points: tuple[SweepPoint, ...]
    framework_overhead_s: float | None = None
    warm: CacheEntries | None = None


@dataclass(frozen=True)
class ShardOutcome:
    """One shard's reports (by request ID) plus its new cache entries.

    ``metrics`` is the shard session's metrics snapshot
    (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`); snapshots
    merge associatively, so fold-in order across shards is irrelevant.
    """

    reports: tuple[tuple[str, GemmReport | ModelReport], ...]
    cache: CacheEntries
    metrics: dict | None = None


def _platform_kwargs(overhead: float | None) -> dict | None:
    if overhead is None:
        return None
    return {"framework_overhead_s": overhead}


def execute_point(
    session: Session, point: SweepPoint, overhead: float | None
) -> GemmReport | ModelReport:
    """Run one grid point, wrapping failures with the point's identity."""
    try:
        return session.run_request(
            point.request, platform_kwargs=_platform_kwargs(overhead)
        )
    except BatchRequestError:
        raise
    except Exception as error:
        raise BatchRequestError.wrap(
            error, point.request, point.index, request_id=point.request_id
        ) from error


def run_shard_points(
    points,
    framework_overhead_s: float | None = None,
    warm: CacheEntries | None = None,
) -> ShardOutcome:
    """The shard-execution core shared by local, pool, and remote paths.

    Runs ``points`` in order through a private session. With ``warm``
    entries the session starts pre-loaded (lookups against them count as
    hits, so warm-pool statistics are observable) and the returned cache
    holds only the entries this shard added beyond the warm set.
    """
    cache = TimingCache()
    baseline = None
    if warm is not None:
        # Entries only: the warm set's historical counters belong to the
        # process that produced them, not to this shard.
        baseline = replace(warm, stats=CacheStats())
        cache.merge(baseline)
    session = Session(cache=cache, metrics=MetricsRegistry())
    reports = tuple(
        (
            point.request_id,
            execute_point(session, point, framework_overhead_s),
        )
        for point in points
    )
    entries = cache.export_entries()
    if baseline is not None:
        entries = entries.minus(baseline)
    return ShardOutcome(
        reports=reports, cache=entries, metrics=session.metrics.snapshot()
    )


def _run_shard(payload: _ShardPayload) -> ShardOutcome:
    """Worker entry point: run one shard in a private session/cache."""
    return run_shard_points(
        payload.points, payload.framework_overhead_s, payload.warm
    )


def shard_points(
    points: tuple[SweepPoint, ...], jobs: int
) -> list[list[SweepPoint]]:
    """Round-robin points into ``jobs`` balanced shards (empty ones dropped)."""
    shards: list[list[SweepPoint]] = [[] for _ in range(jobs)]
    for position, point in enumerate(points):
        shards[position % jobs].append(point)
    return [shard for shard in shards if shard]


def load_resumable(
    grid: SweepGrid, store: ResultStore
) -> dict[str, GemmReport | ModelReport]:
    """Stored reports of ``grid``, keyed by request ID (resume support).

    Tags are display labels outside the stored identity, so loaded
    reports wear the current sweep's tag.
    """
    loaded: dict[str, GemmReport | ModelReport] = {}
    for point in grid:
        report = store.get(point)
        if report is not None:
            if report.tag != point.request.tag:
                report = replace(report, tag=point.request.tag)
            loaded[point.request_id] = report
    return loaded


def run_sweep(
    spec: SweepSpec | SweepGrid,
    *,
    jobs: int = 1,
    store: ResultStore | None = None,
    resume: bool = False,
    session: Session | None = None,
    cache: TimingCache | None = None,
) -> SweepResult:
    """Run a sweep spec/grid, optionally sharded and optionally resumable.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` runs in-process. Workers get private
        caches that are merged back into the parent session's cache.
    store:
        When given, every finished report is persisted immediately, so an
        interrupted sweep loses at most the in-flight shards.
    resume:
        Skip points whose ``(request_id, fingerprint)`` is already in
        ``store`` (which is then required) and load their reports instead.
    session:
        The parent session (defaults to a fresh one over ``cache``); the
        sequential path executes directly on it, and both paths leave its
        cache warm for whatever the caller runs next.
    """
    grid = expand(spec) if isinstance(spec, SweepSpec) else spec
    if not isinstance(grid, SweepGrid):
        raise ConfigError(
            f"run_sweep expects a SweepSpec or SweepGrid, got {spec!r}"
        )
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if resume and store is None:
        raise ConfigError("resume=True requires a result store")
    session = session if session is not None else Session(cache=cache)

    loaded = load_resumable(grid, store) if resume else {}
    todo = tuple(
        point for point in grid if point.request_id not in loaded
    )

    executed: dict[str, GemmReport | ModelReport] = {}
    if jobs == 1 or len(todo) <= 1:
        for point in todo:
            report = execute_point(
                session, point, grid.framework_overhead_s
            )
            executed[point.request_id] = report
            if store is not None:
                store.put(point, report)
    else:
        shards = shard_points(todo, jobs)
        payloads = [
            _ShardPayload(
                points=tuple(shard),
                framework_overhead_s=grid.framework_overhead_s,
            )
            for shard in shards
        ]
        by_id = grid.by_id()
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            for result in pool.map(_run_shard, payloads):
                session.cache.merge(result.cache)
                if session.metrics is not None and result.metrics is not None:
                    session.metrics.merge(result.metrics)
                for request_id, report in result.reports:
                    executed[request_id] = report
                    if store is not None:
                        store.put(by_id[request_id], report)

    reports = tuple(
        executed.get(point.request_id, loaded.get(point.request_id))
        for point in grid
    )
    return SweepResult(
        grid=grid,
        reports=reports,
        executed=tuple(
            point.request_id for point in grid if point.request_id in executed
        ),
        loaded=tuple(
            point.request_id for point in grid if point.request_id in loaded
        ),
        cache_stats=session.cache.stats(),
        jobs=jobs,
    )


__all__ = [
    "ShardOutcome",
    "SweepResult",
    "execute_point",
    "load_resumable",
    "run_shard_points",
    "run_sweep",
    "shard_points",
]
