"""Typed request/response objects for the Session facade.

Every Session call returns a frozen report whose fields are plain
primitives, so results are machine-consumable rather than only
renderable tables. Their JSON is their field list, encoded by
:mod:`repro.common.codec`: ``to_dict()``/``to_json()`` export
losslessly, ``from_dict()``/``from_json()`` round-trip to an equal
object, and malformed input raises :class:`~repro.errors.ConfigError`.
Each report carries a ``kind`` tag that :func:`report_from_dict`
dispatches on, plus read-only derived keys (totals, percentiles) that
are written for consumers and ignored on decode. Keys added after a
format shipped are written only when set, so every stored payload and
request fingerprint stays byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from repro.common.codec import UNWRITTEN, WHEN_SET, Codec, decode
from repro.errors import ConfigError
from repro.gemm.cache import CacheStats
from repro.gemm.executor import GemmTiming
from repro.gemm.problem import GemmProblem
from repro.common.stats import QuantileSketch, percentile
from repro.platforms.base import ModelRunResult
from repro.schedule.streams import (
    FramePlan,
    FrameRecord,
    ScenarioSpec,
    StreamSpec,
)
from repro.schedule.timeline import PreemptRecord, Timeline, TimelineSegment
from repro.systolic.dataflow import Dataflow

#: The dataflow names a request may carry (`Dataflow` enum values).
DATAFLOW_NAMES = tuple(flow.value for flow in Dataflow)


@dataclass(frozen=True)
class SimRequest(Codec, derived=("kind",)):
    """One simulation request for :meth:`repro.api.session.Session.run_batch`.

    Exactly one of ``model`` (a model spec such as ``"mask_rcnn"``),
    ``gemm`` (a :class:`GemmProblem`), or ``scenario`` (a multi-stream
    :class:`~repro.schedule.streams.ScenarioSpec`) must be set;
    ``platform`` is always a platform spec such as ``"sma:3"`` (and binds
    the scenario's platform when the scenario leaves it open). ``tag`` is
    an opaque caller label echoed into the resulting report.

    ``dataflow`` (a :class:`Dataflow` value name such as ``"ws"``/``"sbws"``)
    and ``scheduler`` (``"gto"``/``"lrr"``/``"sma_rr"``) optionally override
    the platform's defaults, which is what lets a sweep grid carry those
    axes; ``None`` keeps the platform default.

    ``catalog`` is the content fingerprint of the device-catalog spec
    behind ``platform`` — filled automatically for catalog platforms
    (``"a100"``, ``"sma@a100:3"``), ``None`` for hand-coded ones. It is
    part of the request's content address, so stored results never leak
    across catalog edits, and the cluster protocol rejects shards whose
    client and server catalogs diverge.
    """

    platform: str
    model: str | None = None
    gemm: GemmProblem | None = None
    # Written only when set (as is ``catalog``): model and gemm requests,
    # and the fingerprints derived from them, predate both keys.
    scenario: ScenarioSpec | None = field(default=None, metadata=WHEN_SET)
    tag: str | None = None
    dataflow: str | None = None
    scheduler: str | None = None
    serving: bool = field(default=False, metadata=UNWRITTEN)
    catalog: str | None = field(default=None, metadata=WHEN_SET)

    def __post_init__(self) -> None:
        workloads = [
            kind
            for kind, value in (
                ("model", self.model),
                ("gemm", self.gemm),
                ("scenario", self.scenario),
            )
            if value is not None
        ]
        if len(workloads) != 1:
            raise ConfigError(
                "SimRequest needs exactly one of model=, gemm=, or"
                f" scenario=, got {workloads or 'none'}"
            )
        if self.serving and self.scenario is None:
            raise ConfigError("serving=True requires a scenario workload")
        if isinstance(self.dataflow, Dataflow):
            object.__setattr__(self, "dataflow", self.dataflow.value)
        if self.dataflow is not None and self.dataflow not in DATAFLOW_NAMES:
            raise ConfigError(
                f"unknown dataflow {self.dataflow!r}; one of {DATAFLOW_NAMES}"
            )
        if self.catalog is None:
            # Deferred import: the catalog loader resolves through the
            # platform registry, which this module must not pull in at
            # load time.
            from repro.catalog import loader

            object.__setattr__(
                self,
                "catalog",
                loader.catalog_fingerprint(self.platform),
            )

    @property
    def kind(self) -> str:
        if self.model is not None:
            return "model"
        if self.gemm is not None:
            return "gemm"
        return "serving" if self.serving else "scenario"

    @classmethod
    def from_dict(cls, data: dict) -> "SimRequest":
        # Hand-written only because ``serving`` rides the "serving" kind.
        request = decode(cls, data)
        if data.get("kind") == "serving":
            request = replace(request, serving=True)
        return request


@dataclass(frozen=True)
class GemmReport(Codec, kind="gemm"):
    """Timing of one GEMM on one platform, flattened to primitives."""

    platform: str
    backend: str
    m: int
    n: int
    k: int
    dtype: str
    alpha: float
    beta: float
    seconds: float
    cycles: float
    tb_cycles: float
    tflops: float
    efficiency: float
    sm_efficiency: float
    cached: bool = False
    tag: str | None = None
    dataflow: str | None = None
    scheduler: str | None = None

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3

    @classmethod
    def from_timing(
        cls,
        timing: GemmTiming,
        platform: str,
        cached: bool = False,
        tag: str | None = None,
        dataflow: str | None = None,
        scheduler: str | None = None,
    ) -> "GemmReport":
        problem = timing.problem
        return cls(
            platform=platform,
            backend=timing.backend,
            m=problem.m,
            n=problem.n,
            k=problem.k,
            dtype=problem.dtype.value,
            alpha=problem.alpha,
            beta=problem.beta,
            seconds=timing.seconds,
            cycles=timing.cycles,
            tb_cycles=timing.tb_cycles,
            tflops=timing.tflops,
            efficiency=timing.efficiency,
            sm_efficiency=timing.sm_efficiency,
            cached=cached,
            tag=tag,
            dataflow=dataflow,
            scheduler=scheduler,
        )


@dataclass(frozen=True)
class OpReport:
    """One operator's stats inside a :class:`ModelReport`.

    ``energy`` is the operator's Joules per Fig 8 structure category
    (``Global``/``Shared``/``Register``/``PE``/``Const``) when the platform
    accounts energy, flattened to a plain dict so reports stay
    JSON-portable.
    """

    op_name: str
    group: str
    mode: str
    seconds: float
    flops: float
    energy: dict[str, float] | None = None


@dataclass(frozen=True)
class ModelReport(
    Codec, kind="model", derived=("total_seconds", "grouped_seconds")
):
    """Per-op timing of one model on one platform, flattened to primitives."""

    model: str
    platform: str
    ops: tuple[OpReport, ...] = ()
    tag: str | None = None

    @property
    def total_seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def total_ms(self) -> float:
        return self.total_seconds * 1e3

    def grouped_seconds(self) -> dict[str, float]:
        """Seconds per Fig 3 reporting group."""
        groups: dict[str, float] = {}
        for op in self.ops:
            groups[op.group] = groups.get(op.group, 0.0) + op.seconds
        return groups

    @classmethod
    def from_result(
        cls,
        result: ModelRunResult,
        model: str | None = None,
        platform: str | None = None,
        tag: str | None = None,
    ) -> "ModelReport":
        return cls(
            model=model if model is not None else result.model_name,
            platform=(
                platform if platform is not None else result.platform_name
            ),
            ops=tuple(
                OpReport(
                    op_name=stat.op_name,
                    group=stat.group,
                    mode=stat.mode,
                    seconds=stat.seconds,
                    flops=stat.flops,
                    energy=(
                        dict(stat.energy.joules)
                        if stat.energy is not None
                        else None
                    ),
                )
                for stat in result.op_stats
            ),
            tag=tag,
        )


#: Schedule reports carry the engine's own segment type — a slotted
#: primitives-only dataclass — so the timeline is exported without a
#: parallel copy that could drift.
ScheduleSegment = TimelineSegment


@dataclass(frozen=True)
class StreamReport:
    """One stream's outcome inside a :class:`ScheduleReport`.

    ``busy_s`` is the stream's full-speed work; ``elapsed_s`` the wall
    time its tasks actually occupied — their ratio (:attr:`stretch`) is
    the co-run contention the stream *experienced*, derived from the
    schedule rather than assumed. Frame latencies are completion minus
    release per executed frame.
    """

    name: str
    model: str
    priority: float
    frames_run: int
    frames_skipped: int
    busy_s: float
    elapsed_s: float
    mean_latency_s: float
    max_latency_s: float
    deadline_misses: int
    frames_dropped: int = 0

    @property
    def stretch(self) -> float:
        if self.busy_s <= 0:
            return 1.0
        return self.elapsed_s / self.busy_s


@dataclass(frozen=True)
class ScheduleReport(Codec, kind="schedule", derived=("avg_frame_latency_s",)):
    """The scheduled execution of one multi-stream scenario.

    Everything is flattened to primitives: the timeline segments, the
    per-stream latency/deadline outcomes, and per-resource occupancy
    (fraction of the makespan each resource had work). Round-trips
    losslessly through :meth:`to_dict`/:meth:`from_dict`.
    """

    scenario: str
    platform: str
    policy: str
    frames: int
    makespan_s: float
    streams: tuple[StreamReport, ...] = ()
    segments: tuple[TimelineSegment, ...] = ()
    occupancy: dict[str, float] = field(default_factory=dict)
    mode_switches: int = 0
    switch_overhead_s: float = 0.0
    tag: str | None = None
    #: Kernel-granularity preemption events (deschedules and in-flight
    #: aborts) — empty for every non-preemptive policy/QoS combination,
    #: and then not written, so pre-preemption payloads keep their bytes.
    preemptions: tuple[PreemptRecord, ...] = field(
        default=(), metadata=WHEN_SET
    )

    @property
    def avg_frame_latency_s(self) -> float:
        """Window-amortized latency: makespan over simulated frames."""
        return self.makespan_s / self.frames if self.frames else 0.0

    @property
    def avg_frame_latency_ms(self) -> float:
        return self.avg_frame_latency_s * 1e3

    def stream(self, name: str) -> StreamReport:
        for stream in self.streams:
            if stream.name == name:
                return stream
        raise ConfigError(
            f"schedule report has no stream {name!r}; streams:"
            f" {[stream.name for stream in self.streams]}"
        )

    @classmethod
    def from_timeline(
        cls,
        spec: ScenarioSpec,
        platform: str,
        timeline: Timeline,
        plan: FramePlan,
        tag: str | None = None,
    ) -> "ScheduleReport":
        """Assemble the report from an executed scenario timeline."""
        by_stream: dict[str, list] = {}
        for segment in timeline.segments:
            by_stream.setdefault(segment.stream, []).append(segment)
        records = plan.frame_records(timeline)
        streams = []
        for stream_spec in spec.streams:
            segments = by_stream.get(stream_spec.name, [])
            frames = [
                record
                for record in records.get(stream_spec.name, [])
                if not record.dropped
            ]
            frame_latencies = [record.latency_s for record in frames]
            streams.append(
                StreamReport(
                    name=stream_spec.name,
                    model=stream_spec.model,
                    priority=stream_spec.priority,
                    frames_run=len(frames),
                    frames_skipped=plan.skipped.get(stream_spec.name, 0),
                    busy_s=sum(segment.seconds for segment in segments),
                    elapsed_s=sum(
                        segment.end_s - segment.start_s for segment in segments
                    ),
                    mean_latency_s=(
                        sum(frame_latencies) / len(frame_latencies)
                        if frame_latencies
                        else 0.0
                    ),
                    max_latency_s=(
                        max(frame_latencies) if frame_latencies else 0.0
                    ),
                    deadline_misses=sum(
                        1 for record in frames if record.missed
                    ),
                    frames_dropped=sum(
                        1
                        for record in records.get(stream_spec.name, [])
                        if record.dropped
                    ),
                )
            )
        return cls(
            scenario=spec.name,
            platform=platform,
            policy=spec.policy,
            frames=spec.frames,
            makespan_s=timeline.makespan_s,
            streams=tuple(streams),
            segments=timeline.segments,
            occupancy=timeline.occupancy(),
            mode_switches=timeline.mode_switches,
            switch_overhead_s=timeline.switch_overhead_s,
            tag=tag,
            preemptions=timeline.preemptions,
        )


#: Serving frame outcomes reuse the schedule package's own record type —
#: a frozen primitives-only dataclass — so the per-frame data is exported
#: without a parallel copy that could drift.
ServingFrame = FrameRecord


@dataclass(frozen=True)
class ServingStreamReport:
    """One stream's open-loop outcome inside a :class:`ServingReport`.

    ``offered`` counts the frames the arrival process released (after
    frame skipping); they partition into ``completed`` and ``dropped``.
    Latency statistics are nearest-rank percentiles over the completed
    frames only, and ``goodput_fps`` is deadline-met completions per
    second of makespan — the throughput the SLO actually credits.

    Streaming runs (``Session.run_serving_stream`` without
    ``keep_records``) carry no per-frame tuple; instead ``sketches``
    holds the stream's P² latency sketch state
    (:meth:`repro.common.stats.QuantileSketch.to_dict`) and the
    percentile fields are its estimates. The key is emitted only when
    set, so materialized reports stay byte-identical.
    """

    name: str
    model: str
    priority: float
    offered: int
    completed: int
    dropped: int
    missed: int
    skipped: int
    mean_latency_s: float
    max_latency_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    goodput_fps: float
    frames: tuple[ServingFrame, ...] = ()
    sketches: dict | None = field(default=None, metadata=WHEN_SET)
    #: Frames cancelled in-flight by a preemptive QoS policy (a subset of
    #: ``dropped``); 0 for every non-preemptive policy, and then not
    #: written.
    preempted: int = field(default=0, metadata=WHEN_SET)

    @property
    def drop_fraction(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0

    @classmethod
    def from_frames(
        cls,
        spec: StreamSpec,
        frames: tuple[ServingFrame, ...],
        *,
        skipped: int,
        preempted: int,
        makespan_s: float,
    ) -> "ServingStreamReport":
        """Exact statistics of one stream from its frame-ordered records."""
        done = [frame for frame in frames if not frame.dropped]
        latencies = [frame.latency_s for frame in done]
        met = sum(1 for frame in done if not frame.missed)
        return cls(
            name=spec.name,
            model=spec.model,
            priority=spec.priority,
            offered=len(frames),
            completed=len(done),
            dropped=len(frames) - len(done),
            missed=len(done) - met,
            skipped=skipped,
            mean_latency_s=(
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            max_latency_s=max(latencies) if latencies else 0.0,
            p50_s=percentile(latencies, 50),
            p95_s=percentile(latencies, 95),
            p99_s=percentile(latencies, 99),
            goodput_fps=met / makespan_s if makespan_s > 0 else 0.0,
            frames=frames,
            preempted=preempted,
        )


@dataclass(frozen=True)
class ServingReport(
    Codec,
    kind="serving",
    derived=(
        "offered", "completed", "dropped", "missed", "goodput_fps",
        "p50_s", "p95_s", "p99_s",
    ),
    # Same stability rule as the streams' ``preempted`` key.
    derived_when_set=("preempted",),
):
    """The open-loop serving outcome of one scenario on one platform.

    Everything is flattened to primitives — per-stream percentiles and
    goodput plus the per-frame outcome records — and round-trips
    losslessly through :meth:`to_dict`/:meth:`from_dict`, so serving runs
    ride the sweep engine and result store like every other workload.
    ``qos`` echoes the scenario's admission-control spec (its dict form).
    The cross-stream aggregates are written as derived keys.
    """

    scenario: str
    platform: str
    policy: str
    frames: int
    makespan_s: float
    streams: tuple[ServingStreamReport, ...] = ()
    occupancy: dict[str, float] = field(default_factory=dict)
    mode_switches: int = 0
    switch_overhead_s: float = 0.0
    qos: dict | None = None
    tag: str | None = None
    #: Cross-stream latency sketch state for streaming runs (None for
    #: materialized runs — the aggregate percentiles then come from the
    #: per-frame records — and then not written, so materialized reports
    #: keep their pre-streaming bytes).
    sketches: dict | None = field(default=None, metadata=WHEN_SET)

    def stream(self, name: str) -> ServingStreamReport:
        for stream in self.streams:
            if stream.name == name:
                return stream
        raise ConfigError(
            f"serving report has no stream {name!r}; streams:"
            f" {[stream.name for stream in self.streams]}"
        )

    # -- aggregates (derived, not stored) ----------------------------------------------
    @property
    def offered(self) -> int:
        return sum(stream.offered for stream in self.streams)

    @property
    def completed(self) -> int:
        return sum(stream.completed for stream in self.streams)

    @property
    def dropped(self) -> int:
        return sum(stream.dropped for stream in self.streams)

    @property
    def missed(self) -> int:
        return sum(stream.missed for stream in self.streams)

    @property
    def preempted(self) -> int:
        return sum(stream.preempted for stream in self.streams)

    @property
    def drop_fraction(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0

    @property
    def goodput_fps(self) -> float:
        return sum(stream.goodput_fps for stream in self.streams)

    def completed_latencies(self) -> list[float]:
        """Every completed frame's latency, across all streams."""
        return [
            frame.latency_s
            for stream in self.streams
            for frame in stream.frames
            if not frame.dropped
        ]

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank latency percentile across every completed frame.

        Sketch-backed (streaming) reports have no per-frame records; the
        value is then the cross-stream P² estimate, defined only for the
        tracked quantiles (50/95/99).
        """
        if self.sketches is not None:
            return QuantileSketch.from_dict(self.sketches).quantile(q)
        return percentile(self.completed_latencies(), q)

    @property
    def p50_s(self) -> float:
        return self.latency_percentile(50)

    @property
    def p95_s(self) -> float:
        return self.latency_percentile(95)

    @property
    def p99_s(self) -> float:
        return self.latency_percentile(99)

    @property
    def avg_frame_latency_s(self) -> float:
        """Window-amortized latency (mirrors :class:`ScheduleReport`)."""
        return self.makespan_s / self.frames if self.frames else 0.0

    @property
    def avg_frame_latency_ms(self) -> float:
        return self.avg_frame_latency_s * 1e3

    @classmethod
    def from_timeline(
        cls,
        spec: ScenarioSpec,
        platform: str,
        timeline: Timeline,
        plan: FramePlan,
        tag: str | None = None,
    ) -> "ServingReport":
        """Assemble the report from an executed scenario timeline."""
        records = plan.frame_records(timeline)
        aborted = {
            (record.stream, record.frame)
            for record in timeline.preemptions
            if record.action == "abort"
        }
        streams = []
        for stream_spec in spec.streams:
            frames = tuple(records.get(stream_spec.name, ()))
            streams.append(
                ServingStreamReport.from_frames(
                    stream_spec,
                    frames,
                    skipped=plan.skipped.get(stream_spec.name, 0),
                    preempted=sum(
                        1
                        for frame in frames
                        if (stream_spec.name, frame.frame) in aborted
                    ),
                    makespan_s=timeline.makespan_s,
                )
            )
        return cls(
            scenario=spec.name,
            platform=platform,
            policy=spec.policy,
            frames=spec.frames,
            makespan_s=timeline.makespan_s,
            streams=tuple(streams),
            occupancy=timeline.occupancy(),
            mode_switches=timeline.mode_switches,
            switch_overhead_s=timeline.switch_overhead_s,
            qos=spec.qos.to_dict() if spec.qos is not None else None,
            tag=tag,
        )


#: The report classes :func:`report_from_dict` dispatches to, by kind.
_REPORTS = {
    "gemm": GemmReport,
    "model": ModelReport,
    "schedule": ScheduleReport,
    "serving": ServingReport,
}


def report_from_dict(
    data: dict,
) -> "GemmReport | ModelReport | ScheduleReport | ServingReport":
    """Reconstruct any report type from its ``to_dict()`` form."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "fuzz":
        # Deferred: repro.fuzz sits above the API layer.
        from repro.fuzz.campaign import FuzzReport

        return FuzzReport.from_dict(data)
    if isinstance(kind, str) and kind in _REPORTS:
        return _REPORTS[kind].from_dict(data)
    raise ConfigError(f"unknown report kind {kind!r}")


@dataclass(frozen=True)
class BatchResult:
    """Ordered reports of one :meth:`Session.run_batch` plus cache stats."""

    reports: tuple["GemmReport | ModelReport", ...]
    cache_stats: CacheStats

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    # Hand-written: encode-only, over reports of mixed kinds.
    def to_dict(self) -> dict:
        return {
            "reports": [report.to_dict() for report in self.reports],
            "cache": self.cache_stats.to_dict(),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)
