"""Cross-host dispatch: sweeps sharded and traces split across servers.

Two front-ends over :class:`~repro.cluster.client.ClusterClient`:

* :func:`run_sweep_remote` — shard a sweep grid across one or more
  servers proportionally to each server's reported worker-pool size
  (its ``status`` jobs count), on the local sweep's resume and
  write-through skeleton (:func:`repro.sweep.workers.sweep_grid`),
  merging every returned cache delta into the caller's session cache.
  The returned :class:`~repro.sweep.workers.SweepResult` is bit-identical
  to a local :func:`repro.sweep.run_sweep` of the same grid — stable IDs,
  canonical JSON reports, and a deterministic simulator make the
  transport invisible.

* :func:`run_serving_split` — materialize one scenario's
  :class:`~repro.serving.traces.ArrivalTrace`, split its streams
  round-robin across N platform instances (local, or one per server),
  serve each partition, and merge the per-stream
  :class:`~repro.api.results.ServingReport`\\ s into one report whose
  aggregate percentiles are recomputed over every completed frame.

Both, and remote fuzz campaigns (:mod:`repro.fuzz.campaign`), submit
through :func:`_submit_shards`, the one dead-server re-dispatch loop.
Both paths go through the content-addressed grid machinery, so remote
execution reuses the same request identities as local runs — a store
written remotely resumes a local sweep and vice versa.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from repro.api.results import ServingReport, SimRequest
from repro.api.session import Session
from repro.cluster.client import ClusterClient
from repro.errors import (
    ClusterConnectionError,
    ClusterError,
    ClusterUnavailableError,
    ConfigError,
)
from repro.schedule.streams import ScenarioSpec
from repro.serving.slo import apply_trace, trace_scenario
from repro.sweep.grid import SweepGrid, SweepSpec, expand, grid_from_requests
from repro.sweep.store import ResultStore
from repro.sweep.workers import SweepResult, sweep_grid

#: Failures that mean "this server cannot take the shard" (re-dispatch),
#: as opposed to typed config errors that must surface to the caller.
_REDISPATCH_ERRORS = (ClusterConnectionError, ClusterUnavailableError)

#: How long one shard submission may run before its server is presumed
#: dead. Callers with heavier shards pass ``timeout_s`` explicitly — a
#: too-short timeout misclassifies a busy server as a dead one.
DEFAULT_TIMEOUT_S = 600.0


def normalize_servers(servers) -> tuple[str, ...]:
    """Coerce one address or a sequence of addresses into a tuple."""
    if isinstance(servers, str):
        servers = (servers,)
    servers = tuple(servers or ())
    if not servers:
        raise ConfigError("cluster dispatch needs at least one server address")
    return servers


def server_capacities(
    servers: tuple[str, ...], timeout_s: float = DEFAULT_TIMEOUT_S
) -> dict[str, int]:
    """Probe each server's reported worker-pool size (``status``'s jobs).

    Unreachable servers get capacity 0: they take no shard, and
    re-dispatch only retries on servers that took one (a dead probe is
    usually a dead submit). When every probe fails the sweep
    should still be attempted rather than refused on a flaky status
    round, so all capacities fall back to 1 and the submit path's own
    error handling decides.
    """
    capacities: dict[str, int] = {}
    for server in servers:
        try:
            with ClusterClient(server, timeout_s=timeout_s) as client:
                status = client.status()
            capacities[server] = max(1, int(status.get("jobs", 1)))
        except _REDISPATCH_ERRORS:
            capacities[server] = 0
    if all(capacity == 0 for capacity in capacities.values()):
        return {server: 1 for server in servers}
    return capacities


def weighted_assignments(
    points, servers: tuple[str, ...], capacities: dict[str, int]
) -> list[tuple[str, tuple]]:
    """Deal points over servers proportionally to their capacities.

    Each server contributes ``capacity`` slots to a deterministic slot
    ring (address order); points are dealt round-robin over the ring, so
    a 4-job server receives ~4x the points of a 1-job server while
    preserving the sweep's stable, order-independent semantics.
    Zero-capacity servers contribute no slots. Returns ``(server,
    points)`` assignments for the servers that received work.
    """
    slots = [
        server
        for server in servers
        for _ in range(max(0, capacities.get(server, 1)))
    ]
    if not slots:
        slots = list(servers)
    shards: dict[str, list] = {}
    for position, point in enumerate(points):
        shards.setdefault(slots[position % len(slots)], []).append(point)
    return [
        (server, tuple(shards[server]))
        for server in servers
        if shards.get(server)
    ]


def _submit_shards(assignments, submit, timeout_s: float = DEFAULT_TIMEOUT_S):
    """Run ``(server, shard)`` assignments with failure re-dispatch.

    The one re-dispatch loop of sweeps, serving splits and fuzz
    campaigns. ``submit(client, shard)`` makes the shard's call on a
    fresh :class:`ClusterClient`, closed after every call. The first
    pass is concurrent; a shard whose server fails with a transport or
    unavailable error then retries, one at a time, on the servers that
    took a shard and have not failed, in the order given; with none
    left the dispatch raises :class:`~repro.errors.ClusterError`. Yields
    each shard's result in assignment order as it lands, so callers can
    write finished shards through before a late one fails.
    """
    servers = list(dict.fromkeys(server for server, _shard in assignments))
    dead: set[str] = set()
    failed: list = []

    def call(server: str, shard):
        with ClusterClient(server, timeout_s=timeout_s) as client:
            return submit(client, shard)

    with ThreadPoolExecutor(max_workers=max(len(assignments), 1)) as pool:
        futures = [
            (server, shard, pool.submit(call, server, shard))
            for server, shard in assignments
        ]
        for server, shard, future in futures:
            try:
                result = future.result()
            except _REDISPATCH_ERRORS:
                dead.add(server)
                failed.append(shard)
                continue
            yield result

    for shard in failed:
        for server in servers:
            if server in dead:
                continue
            try:
                result = call(server, shard)
            except _REDISPATCH_ERRORS:
                dead.add(server)
                continue
            yield result
            break
        else:
            raise ClusterError(
                f"shard of {len(shard)} point(s) could not be placed: all"
                f" {len(servers)} server(s) are dead or draining"
            )


def _submit_points(
    assignments, framework_overhead_s, session, timeout_s: float
):
    """Submit grid-point shards; yield ``(request ID, report)`` as they land.

    Each shard's cache delta merges into ``session`` (when given) on
    arrival.
    """
    for reports, delta in _submit_shards(
        assignments,
        lambda client, points: client.submit_points(
            points, framework_overhead_s
        ),
        timeout_s,
    ):
        if session is not None:
            session.cache.merge(delta)
        yield from reports.items()


def run_sweep_remote(
    spec: "SweepSpec | SweepGrid",
    servers,
    *,
    store: ResultStore | None = None,
    resume: bool = False,
    session: Session | None = None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> SweepResult:
    """Run a sweep sharded across cluster servers; local semantics apply.

    ``store``/``resume`` behave exactly as in
    :func:`repro.sweep.run_sweep`: resumed points are loaded instead of
    dispatched, and each shard's reports are written through as that
    shard lands, so a sweep that fails or is interrupted keeps every
    finished shard. Server cache deltas are merged into the session
    cache as they land — the caller's process ends as warm as a local
    run. ``timeout_s`` bounds one shard's round-trip; raise it for
    shards whose simulations legitimately run long, or a healthy-but-busy
    server gets misread as dead.
    """
    servers = normalize_servers(servers)
    grid = expand(spec) if isinstance(spec, SweepSpec) else spec
    session = session if session is not None else Session()

    def run_pending(todo):
        # Capacity-aware sharding: a server running a 4-worker pool reports
        # jobs=4 in its status and takes ~4x the points of a 1-worker one.
        # The probe runs even when a resumed sweep has nothing to send;
        # perfbench's sweep_rpc workload pins that RPC count.
        capacities = server_capacities(servers, timeout_s)
        assignments = weighted_assignments(todo, servers, capacities)
        return _submit_points(
            assignments, grid.framework_overhead_s, session, timeout_s
        )

    return sweep_grid(
        grid,
        "run_sweep_remote",
        run_pending,
        jobs=len(servers),
        store=store,
        resume=resume,
        session=session,
    )


# -- serving split ---------------------------------------------------------------------
def split_scenario(
    spec: ScenarioSpec, partitions: int
) -> tuple[ScenarioSpec, ...]:
    """Split one scenario's streams round-robin into replayable partitions.

    The scenario's (seeded) arrivals are materialized into one
    :class:`~repro.serving.traces.ArrivalTrace` first and every partition
    replays its recorded times verbatim, so the split preserves each
    stream's exact release schedule — partition k of N sees the same
    arrivals it would have seen in the unsplit run. Closed-loop streams
    have no pre-computable trace and are rejected.
    """
    if partitions < 1:
        raise ConfigError(f"partitions must be >= 1, got {partitions}")
    partitions = min(partitions, len(spec.streams))
    replayed = apply_trace(spec, trace_scenario(spec))
    subs = []
    for part in range(partitions):
        streams = replayed.streams[part::partitions]
        subs.append(
            replace(
                replayed,
                name=f"{spec.name}#p{part}",
                streams=streams,
            )
        )
    return tuple(subs)


def merge_serving_reports(
    parts,
    *,
    scenario: str,
    stream_order=None,
) -> ServingReport:
    """Merge per-partition serving reports back into one scenario report.

    Stream reports are concatenated (re-ordered to ``stream_order`` when
    given); the aggregate counters and p50/p95/p99 are *recomputed* over
    every completed frame because :class:`ServingReport` derives them from
    its streams — a merged tail percentile is the true fleet-wide tail,
    not an average of per-partition tails. The makespan is the slowest
    partition's; mode switches and switch overhead sum; occupancy is the
    fleet utilization (busy time across all instances over
    ``instances x merged makespan``).
    """
    parts = list(parts)
    if not parts:
        raise ConfigError("merge_serving_reports needs at least one report")
    streams = [stream for part in parts for stream in part.streams]
    if stream_order is not None:
        by_name = {stream.name: stream for stream in streams}
        missing = [name for name in stream_order if name not in by_name]
        if missing or len(stream_order) != len(streams):
            raise ConfigError(
                f"merged parts carry streams {sorted(by_name)}, expected"
                f" {list(stream_order)}"
            )
        streams = [by_name[name] for name in stream_order]
    makespan = max(part.makespan_s for part in parts)
    if len(parts) == 1:
        occupancy = dict(parts[0].occupancy)
    else:
        busy: dict[str, float] = {}
        for part in parts:
            for kind, fraction in part.occupancy.items():
                busy[kind] = busy.get(kind, 0.0) + fraction * part.makespan_s
        occupancy = {
            kind: (total / (len(parts) * makespan) if makespan > 0 else 0.0)
            for kind, total in sorted(busy.items())
        }
    platforms = list(dict.fromkeys(part.platform for part in parts))
    return ServingReport(
        scenario=scenario,
        platform="+".join(platforms),
        policy=parts[0].policy,
        frames=parts[0].frames,
        makespan_s=makespan,
        streams=tuple(streams),
        occupancy=occupancy,
        mode_switches=sum(part.mode_switches for part in parts),
        switch_overhead_s=sum(part.switch_overhead_s for part in parts),
        qos=parts[0].qos,
        tag=parts[0].tag,
    )


def run_serving_split(
    scenario: ScenarioSpec,
    platform: str | None = None,
    *,
    partitions: int | None = None,
    servers=None,
    session: Session | None = None,
    tag: str | None = None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> ServingReport:
    """Serve one scenario split across several platform instances.

    With ``servers``, each partition becomes one serving request
    dispatched to its server (dead servers re-dispatch like sweep
    shards); otherwise the partitions run sequentially in-process, each
    on a fresh schedule of the same platform — the single-process
    equivalent the remote path is golden-tested against. ``partitions``
    defaults to the server count (or 2 locally).
    """
    if servers is not None:
        servers = normalize_servers(servers)
        if partitions is None:
            partitions = len(servers)
    elif partitions is None:
        partitions = 2
    platform_spec = platform or scenario.platform
    if platform_spec is None:
        raise ConfigError(
            f"scenario {scenario.name!r} names no platform; pass one"
        )
    subs = split_scenario(scenario, partitions)

    if servers is None:
        session = session if session is not None else Session()
        parts = [
            session.run_serving(sub, platform_spec, tag=tag) for sub in subs
        ]
    else:
        requests = [
            SimRequest(
                platform=platform_spec,
                scenario=replace(sub, platform=None),
                serving=True,
                tag=tag,
            )
            for sub in subs
        ]
        grid = grid_from_requests(
            requests, framework_overhead_s=scenario.framework_overhead_s
        )
        points = tuple(grid)
        assignments = [
            (servers[index % len(servers)], (point,))
            for index, point in enumerate(points)
        ]
        overhead = grid.framework_overhead_s
        reports = dict(_submit_points(assignments, overhead, session, timeout_s))
        parts = [reports[point.request_id] for point in points]
    return merge_serving_reports(
        parts,
        scenario=scenario.name,
        stream_order=[stream.name for stream in scenario.streams],
    )


__all__ = [
    "DEFAULT_TIMEOUT_S",
    "merge_serving_reports",
    "normalize_servers",
    "run_serving_split",
    "run_sweep_remote",
    "server_capacities",
    "split_scenario",
    "weighted_assignments",
]
