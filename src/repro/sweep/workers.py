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
Remote sweeps share that resume and write-through skeleton
(:func:`sweep_grid`).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat

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

    Runs ``points`` in order through a private session; this is the
    worker-process entry point, so its arguments must stay picklable.
    With ``warm`` entries (the cluster pool ships its merged cache) the
    session starts pre-loaded — lookups against them count as hits, so
    warm-pool statistics are observable — and the returned cache holds
    only the entries this shard added beyond the warm set.
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


def shard_points(
    points: tuple[SweepPoint, ...], jobs: int
) -> list[list[SweepPoint]]:
    """Round-robin points into ``jobs`` balanced shards (empty ones dropped)."""
    shards: list[list[SweepPoint]] = [[] for _ in range(jobs)]
    for position, point in enumerate(points):
        shards[position % jobs].append(point)
    return [shard for shard in shards if shard]


def map_shards(
    executor,
    session: Session,
    points,
    jobs: int,
    framework_overhead_s: float | None = None,
    warm: CacheEntries | None = None,
):
    """Run ``points`` as ``jobs`` round-robin shards on a process executor.

    The one shard-outcome merge of local sweeps and the warm pool: yields
    each shard's ``(request ID, report)`` pairs, shard by shard, after
    folding that shard's new cache entries and metrics into ``session``.
    """
    for outcome in executor.map(
        run_shard_points,
        shard_points(points, jobs),
        repeat(framework_overhead_s),
        repeat(warm),
    ):
        session.cache.merge(outcome.cache)
        if session.metrics is not None and outcome.metrics is not None:
            session.metrics.merge(outcome.metrics)
        yield from outcome.reports


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


def sweep_grid(
    grid: SweepGrid,
    caller: str,
    run_pending,
    *,
    jobs: int,
    store: ResultStore | None,
    resume: bool,
    session: Session,
) -> SweepResult:
    """The resume, write-through and result skeleton of every sweep.

    ``run_pending(todo)`` yields ``(request ID, report)`` for the points
    not resumed from ``store``, in any order; each report is persisted as
    it arrives, so an interrupted sweep loses at most its in-flight work.
    Local (:func:`run_sweep`) and remote
    (:func:`repro.cluster.dispatch.run_sweep_remote`) sweeps differ only
    in ``run_pending``.
    """
    if not isinstance(grid, SweepGrid):
        raise ConfigError(
            f"{caller} expects a SweepSpec or SweepGrid, got {grid!r}"
        )
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if resume and store is None:
        raise ConfigError("resume=True requires a result store")

    loaded = load_resumable(grid, store) if resume else {}
    todo = tuple(point for point in grid if point.request_id not in loaded)
    by_id = grid.by_id()
    executed: dict[str, GemmReport | ModelReport] = {}
    for request_id, report in run_pending(todo):
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
    session = session if session is not None else Session(cache=cache)

    def run_pending(todo):
        overhead = grid.framework_overhead_s
        if jobs == 1 or len(todo) <= 1:
            for point in todo:
                yield point.request_id, execute_point(session, point, overhead)
            return
        with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
            yield from map_shards(pool, session, todo, jobs, overhead)

    return sweep_grid(
        grid,
        "run_sweep",
        run_pending,
        jobs=jobs,
        store=store,
        resume=resume,
        session=session,
    )


__all__ = [
    "ShardOutcome",
    "SweepResult",
    "execute_point",
    "load_resumable",
    "map_shards",
    "run_shard_points",
    "run_sweep",
    "shard_points",
    "sweep_grid",
]
