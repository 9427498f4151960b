"""Latency-SLO exploration: max sustainable arrival rate per platform.

The serving question the paper's Fig 9 scenario ultimately poses is not
"how fast is one frame" but "how much open-loop traffic can this
configuration absorb before tail latency breaks the SLO". The explorer
answers it by sweeping arrival rate x platform through the
:mod:`repro.sweep` engine (so points shard across workers, persist in a
:class:`~repro.sweep.store.ResultStore`, and resume across runs) and
reducing each :class:`~repro.api.results.ServingReport` to an
:class:`SloPoint`: p50/p95/p99, goodput, drops, and whether the chosen
tail percentile met the SLO. The max sustainable rate of a platform is
the highest swept rate that still met it.

Also here: :func:`trace_scenario` / :func:`apply_trace`, which
materialize a scenario's (seeded) arrivals into an
:class:`~repro.serving.traces.ArrivalTrace` and replay one — the
round-trip that makes serving runs reproducible across processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from repro.api.results import ServingReport, SimRequest
from repro.api.session import Session
from repro.common.codec import WHEN_SET, Codec
from repro.errors import ConfigError
from repro.schedule.streams import ScenarioSpec
from repro.serving.traces import ArrivalSpec, ArrivalTrace
from repro.sweep.grid import expand_platform_spec, grid_from_requests
from repro.sweep.workers import run_sweep


def scenario_at_rate(
    spec: ScenarioSpec,
    rate_hz: float,
    *,
    kind: str = "poisson",
    seed: int = 0,
) -> ScenarioSpec:
    """The scenario re-offered open-loop at ``rate_hz`` per stream.

    Streams that already declare an arrival process are re-rated (keeping
    their kind/seed/burst shape); closed-loop streams get a fresh
    ``kind`` process. Periodic cadences are dropped — the arrival process
    *is* the release schedule now. The scenario is renamed
    ``<name>@<rate>hz`` so every swept rate keeps a distinct identity.
    """
    if rate_hz <= 0:
        raise ConfigError(f"arrival rate must be > 0, got {rate_hz}")
    streams = []
    for stream in spec.streams:
        if stream.arrivals is not None:
            arrivals = stream.arrivals.at_rate(rate_hz)
        else:
            arrivals = ArrivalSpec(kind=kind, rate_hz=rate_hz, seed=seed)
        streams.append(replace(stream, period_s=None, arrivals=arrivals))
    return replace(
        spec,
        name=f"{spec.name}@{rate_hz:g}hz",
        streams=tuple(streams),
    )


def trace_scenario(spec: ScenarioSpec) -> ArrivalTrace:
    """Materialize every stream's release times into a replayable trace."""
    return ArrivalTrace(
        streams={
            stream.name: stream.release_times(spec.frames)
            for stream in spec.streams
        },
        scenario=spec.name,
        frames=spec.frames,
    )


def apply_trace(spec: ScenarioSpec, trace: ArrivalTrace) -> ScenarioSpec:
    """The scenario with its arrivals replaced by a recorded trace.

    Streams named in the trace release at the recorded times verbatim
    (``replay`` arrivals); streams the trace does not name keep their own
    release schedule. The trace's frame count (when recorded) becomes the
    scenario's, so a replay reproduces the original run exactly.
    """
    streams = []
    for stream in spec.streams:
        times = trace.streams.get(stream.name)
        if times is None:
            streams.append(stream)
            continue
        streams.append(
            replace(
                stream,
                period_s=None,
                arrivals=ArrivalSpec(kind="replay", times_s=times),
            )
        )
    return replace(
        spec,
        streams=tuple(streams),
        frames=trace.frames if trace.frames is not None else spec.frames,
    )


@dataclass(frozen=True)
class SloPoint(Codec):
    """One (platform, arrival rate) cell of the exploration.

    ``device``/``area_mm2``/``tdp_w`` carry the device-catalog metadata
    of catalog-backed platforms (``None`` for hand-coded ones, and then
    not written, so non-catalog points keep their JSON shape) so a
    report can rank device classes by silicon or power efficiency.
    """

    platform: str
    rate_hz: float
    offered: int
    completed: int
    dropped: int
    missed: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    tail_s: float
    goodput_fps: float
    meets_slo: bool
    device: str | None = field(default=None, metadata=WHEN_SET)
    area_mm2: float | None = field(default=None, metadata=WHEN_SET)
    tdp_w: float | None = field(default=None, metadata=WHEN_SET)


@dataclass(frozen=True)
class SloReport(
    Codec,
    kind="slo",
    derived=("max_sustainable",),
    derived_when_set=("slo_per_mm2",),
):
    """The exploration's outcome: every point plus the per-platform max.

    ``max_sustainable`` maps each platform to the highest swept rate
    whose tail percentile met the SLO (``None`` when no rate did).
    """

    scenario: str
    slo_s: float
    percentile_q: float
    max_drop_fraction: float
    points: tuple[SloPoint, ...] = ()
    mode: str = "grid"

    def platform_points(self, platform: str) -> tuple[SloPoint, ...]:
        return tuple(
            sorted(
                (p for p in self.points if p.platform == platform),
                key=lambda p: p.rate_hz,
            )
        )

    @property
    def platforms(self) -> tuple[str, ...]:
        seen: list[str] = []
        for point in self.points:
            if point.platform not in seen:
                seen.append(point.platform)
        return tuple(seen)

    def max_sustainable_rate(self, platform: str) -> float | None:
        meeting = [
            point.rate_hz
            for point in self.platform_points(platform)
            if point.meets_slo
        ]
        return max(meeting) if meeting else None

    @property
    def max_sustainable(self) -> dict[str, float | None]:
        return {
            platform: self.max_sustainable_rate(platform)
            for platform in self.platforms
        }

    def rate_per_mm2(self, platform: str) -> float | None:
        """Max sustainable rate per die mm² (``None`` without catalog data)."""
        rate = self.max_sustainable_rate(platform)
        if rate is None:
            return None
        for point in self.platform_points(platform):
            if point.area_mm2 and point.area_mm2 > 0:
                return rate / point.area_mm2
        return None

    def rank_by_slo_per_mm2(self) -> tuple[tuple[str, float], ...]:
        """Catalog platforms ranked by sustainable rate per die mm².

        The fleet question the catalog exists for: which device class
        sustains this SLO cheapest per unit of silicon. Platforms with no
        device metadata or no sustainable rate are omitted.
        """
        ranked = [
            (platform, efficiency)
            for platform in self.platforms
            if (efficiency := self.rate_per_mm2(platform)) is not None
        ]
        return tuple(
            sorted(ranked, key=lambda item: (-item[1], item[0]))
        )

    @property
    def slo_per_mm2(self) -> dict[str, float]:
        """:meth:`rank_by_slo_per_mm2` as a mapping, best first."""
        return dict(self.rank_by_slo_per_mm2())

    # Unsorted, unlike Codec.to_json: key order carries the platform
    # order of max_sustainable and the slo_per_mm2 ranking.
    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _point_from_report(
    report: ServingReport,
    platform: str,
    rate_hz: float,
    slo_s: float,
    percentile_q: float,
    max_drop_fraction: float,
) -> SloPoint:
    latencies = report.completed_latencies()
    tail = report.latency_percentile(percentile_q)
    meets = (
        report.completed > 0
        and tail <= slo_s
        and report.drop_fraction <= max_drop_fraction
    )
    # Deferred import: the catalog loader pulls in the platform registry,
    # which serving must not require at module load.
    from repro.catalog.loader import device_metadata

    metadata = device_metadata(platform) or {}
    return SloPoint(
        device=metadata.get("device"),
        area_mm2=metadata.get("area_mm2"),
        tdp_w=metadata.get("tdp_w"),
        platform=platform,
        rate_hz=rate_hz,
        offered=report.offered,
        completed=report.completed,
        dropped=report.dropped,
        missed=report.missed,
        mean_s=sum(latencies) / len(latencies) if latencies else 0.0,
        p50_s=report.p50_s,
        p95_s=report.p95_s,
        p99_s=report.p99_s,
        tail_s=tail,
        goodput_fps=report.goodput_fps,
        meets_slo=meets,
    )


def _run_cells(
    scenario: ScenarioSpec,
    cells,
    *,
    slo_s: float,
    percentile_q: float,
    max_drop_fraction: float,
    kind: str,
    seed: int,
    session: Session | None,
    jobs: int,
    store,
    resume: bool,
    tag: str | None,
) -> tuple[SloPoint, ...]:
    """Evaluate (platform, rate) cells through the sweep engine.

    Both search modes funnel through here, and the requests are built
    identically — same ``scenario_at_rate`` renaming, same fingerprint
    extras — so grid points and bisect probes share store keys: results
    from one mode resume the other.
    """
    requests = []
    for platform, rate in cells:
        rated = replace(
            scenario_at_rate(scenario, rate, kind=kind, seed=seed),
            platform=None,
        )
        requests.append(
            SimRequest(
                platform=platform,
                scenario=rated,
                serving=True,
                tag=tag,
            )
        )
    grid = grid_from_requests(
        requests, framework_overhead_s=scenario.framework_overhead_s
    )
    result = run_sweep(
        grid, jobs=jobs, store=store, resume=resume, session=session
    )
    return tuple(
        _point_from_report(
            report, platform, rate, slo_s, percentile_q, max_drop_fraction
        )
        for (platform, rate), report in zip(cells, result.reports)
    )


#: The rate-search strategies :func:`explore_slo` supports.
SEARCH_MODES = ("grid", "bisect")


def explore_slo(
    scenario: ScenarioSpec,
    platforms,
    rates,
    *,
    slo_s: float,
    percentile_q: float = 95.0,
    max_drop_fraction: float = 0.0,
    kind: str = "poisson",
    seed: int = 0,
    session: Session | None = None,
    jobs: int = 1,
    store=None,
    resume: bool = False,
    tag: str | None = None,
    mode: str = "grid",
    tolerance_hz: float = 1.0,
) -> SloReport:
    """Sweep arrival rate x platform and find the max sustainable rates.

    Every (platform, rate) point serves ``scenario`` open-loop at that
    per-stream rate and is judged against ``slo_s`` at the ``percentile_q``
    tail (a point whose drop fraction exceeds ``max_drop_fraction`` fails
    regardless of latency — shedding everything is not "meeting" an SLO).
    Points run through :func:`repro.sweep.run_sweep`, so ``jobs``,
    ``store``, and ``resume`` behave exactly as in any other sweep.

    ``mode="grid"`` (default) evaluates every swept rate.
    ``mode="bisect"`` treats ``rates`` as a bracket — per platform it
    evaluates ``min(rates)`` and ``max(rates)``, then bisects on arrival
    rate until the bracket is narrower than ``tolerance_hz``, homing in
    on the max sustainable rate with O(log(span/tolerance)) serving runs
    instead of a fixed grid. Probes build the same requests grid mode
    would, so stored grid results resume a bisect search and vice versa.
    """
    # Range patterns (``sma:2..4``) expand like any sweep axis, and the
    # axes are de-duplicated up front: the grid elides duplicate requests,
    # so the (platform, rate) cell list must stay aligned with grid order.
    platforms = tuple(
        dict.fromkeys(
            expanded
            for platform in platforms
            for expanded in expand_platform_spec(platform)
        )
    )
    rates = tuple(dict.fromkeys(rates))
    if not platforms:
        raise ConfigError("SLO exploration needs at least one platform")
    if not rates:
        raise ConfigError("SLO exploration needs at least one arrival rate")
    if slo_s <= 0:
        raise ConfigError(f"SLO must be > 0 seconds, got {slo_s}")
    if mode not in SEARCH_MODES:
        raise ConfigError(
            f"unknown SLO search mode {mode!r}; one of {SEARCH_MODES}"
        )
    run_kwargs = dict(
        slo_s=slo_s,
        percentile_q=percentile_q,
        max_drop_fraction=max_drop_fraction,
        kind=kind,
        seed=seed,
        session=session,
        jobs=jobs,
        store=store,
        resume=resume,
        tag=tag,
    )

    if mode == "grid":
        cells = [
            (platform, rate) for platform in platforms for rate in rates
        ]
        points = _run_cells(scenario, cells, **run_kwargs)
    else:
        if tolerance_hz <= 0:
            raise ConfigError(
                f"bisect tolerance must be > 0 Hz, got {tolerance_hz}"
            )
        low, high = min(rates), max(rates)
        if low >= high:
            raise ConfigError(
                f"bisect needs a rate bracket (low < high), got"
                f" [{low:g}, {high:g}]"
            )
        points = []
        memo: dict[tuple[str, float], SloPoint] = {}

        def probe(platform: str, rate: float) -> SloPoint:
            key = (platform, rate)
            if key not in memo:
                (point,) = _run_cells(scenario, [key], **run_kwargs)
                memo[key] = point
                points.append(point)
            return memo[key]

        for platform in platforms:
            # The bracket invariant: ``lo`` meets the SLO, ``hi`` fails.
            if not probe(platform, low).meets_slo:
                continue  # even the bracket floor fails: nothing sustainable
            if probe(platform, high).meets_slo:
                continue  # the whole bracket is sustainable: the max is hi
            lo, hi = low, high
            while hi - lo > tolerance_hz:
                mid = (lo + hi) / 2.0
                if probe(platform, mid).meets_slo:
                    lo = mid
                else:
                    hi = mid
        points = tuple(points)
    return SloReport(
        scenario=scenario.name,
        slo_s=slo_s,
        percentile_q=percentile_q,
        max_drop_fraction=max_drop_fraction,
        points=points,
        mode=mode,
    )


__all__ = [
    "SEARCH_MODES",
    "SloPoint",
    "SloReport",
    "apply_trace",
    "explore_slo",
    "scenario_at_rate",
    "trace_scenario",
]
