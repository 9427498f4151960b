"""Multi-stream scenarios: concurrent model streams over one timeline.

A :class:`ScenarioSpec` declares N concurrent model streams — each a
registry model spec with a priority, an optional frame period/deadline,
and a skip interval (run the model every Nth frame only, the paper's
detection frame-skipping) — plus how many frames to simulate and the
scheduling policy. A :class:`FrameSource` turns one stream's lowered
task template into frames, one at a time: per-frame task chains,
serialized within a stream, released at the frame's arrival time,
weighted by stream priority. :func:`instantiate_frames` drains every
stream's source into one flat task set for the
:class:`~repro.schedule.timeline.TimelineScheduler`; the streaming
serving driver pulls frames as it needs them.

Specs are frozen primitives with lossless JSON round-trip, so scenarios
ride :class:`~repro.api.results.SimRequest` through the sweep engine and
the result store exactly like model and GEMM workloads.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import repeat

from repro.common.codec import WHEN_SET, Codec
from repro.errors import ConfigError, SchedulingError
from repro.schedule.policies import POLICY_NAMES
from repro.schedule.timeline import DropRecord, OpTask, PreemptRecord, Timeline
from repro.serving.qos import QosSpec
from repro.serving.traces import ArrivalSpec, iter_arrivals


@dataclass(frozen=True)
class StreamSpec(Codec):
    """One concurrent model stream inside a scenario.

    ``priority`` is the stream's share weight under the ``priority``
    policy (higher = larger share of contended resources).
    ``skip_interval`` runs the model only on every Nth frame;
    ``period_s`` releases frame k at ``k * period_s`` (``None`` releases
    every frame at t=0 — back-to-back throughput mode); ``deadline_s``
    marks a frame late when its completion trails its release by more.

    ``arrivals`` switches the stream to *open-loop* release: frame k is
    released at the arrival process's k-th arrival time instead of the
    periodic cadence (the two are exclusive — a periodic release *is* the
    degenerate ``fixed`` arrival trace).
    """

    name: str
    model: str
    priority: float = 1.0
    skip_interval: int = 1
    period_s: float | None = None
    deadline_s: float | None = None
    # Written only when set, so closed-loop specs (and the sweep
    # fingerprints derived from them) keep their pre-serving bytes.
    arrivals: ArrivalSpec | None = field(default=None, metadata=WHEN_SET)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("stream needs a non-empty name")
        if not self.model:
            raise ConfigError(f"stream {self.name!r} needs a model spec")
        if self.priority <= 0:
            raise ConfigError(
                f"stream {self.name!r}: priority must be > 0, got"
                f" {self.priority}"
            )
        if self.skip_interval < 1:
            raise ConfigError(
                f"stream {self.name!r}: skip interval must be >= 1, got"
                f" {self.skip_interval}"
            )
        if self.period_s is not None and self.period_s < 0:
            raise ConfigError(f"stream {self.name!r}: period must be >= 0")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError(f"stream {self.name!r}: deadline must be > 0")
        if isinstance(self.arrivals, dict):
            object.__setattr__(
                self, "arrivals", ArrivalSpec.from_dict(self.arrivals)
            )
        if self.arrivals is not None:
            if not isinstance(self.arrivals, ArrivalSpec):
                raise ConfigError(
                    f"stream {self.name!r}: arrivals must be an ArrivalSpec,"
                    f" got {self.arrivals!r}"
                )
            if self.period_s is not None:
                raise ConfigError(
                    f"stream {self.name!r}: period_s and arrivals are"
                    " exclusive (a period is a fixed arrival trace)"
                )

    def release_times(self, frames: int) -> tuple[float, ...]:
        """Release time per frame slot (may be shorter for replay traces).

        Closed-loop streams have no static release schedule and raise.
        """
        if self.closed_loop:
            raise ConfigError(
                f"stream {self.name!r}: closed_loop arrivals have no static"
                " release schedule (releases are paced by completions)"
            )
        return tuple(self.iter_release_times(frames))

    def iter_release_times(self, frames: int) -> Iterator[float]:
        """Each frame slot's static release time, produced lazily.

        Without ``arrivals`` frame k is released at ``k * period_s`` (or
        all at t=0 without a period); open-loop streams release at the
        arrival process's times, salted by the stream name so sibling
        streams draw independent deterministic arrivals. A closed-loop
        stream's frames are all released at t=0 too: that is only their
        floor, the engine releases each one ``think_s`` after the frame
        before it resolves.
        """
        if self.arrivals is not None and not self.closed_loop:
            return iter_arrivals(self.arrivals, frames, salt=self.name)
        if self.period_s is None:
            return repeat(0.0, frames)
        period = self.period_s
        return (frame * period for frame in range(frames))

    @property
    def closed_loop(self) -> bool:
        """Whether this stream's releases are paced by its completions."""
        return (
            self.arrivals is not None and self.arrivals.kind == "closed_loop"
        )


@dataclass(frozen=True)
class ScenarioSpec(Codec):
    """N concurrent streams, a frame count, and a scheduling policy.

    ``platform`` may be left ``None`` when the scenario is swept across a
    platform axis (the sweep binds each grid point's platform);
    ``framework_overhead_s`` overrides the per-kernel-launch overhead used
    when lowering every stream's model.
    """

    name: str
    streams: tuple[StreamSpec, ...]
    platform: str | None = None
    frames: int = 1
    policy: str = "fifo"
    framework_overhead_s: float | None = None
    # Written only when set, for the same reason as StreamSpec.arrivals.
    qos: QosSpec | None = field(default=None, metadata=WHEN_SET)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario needs a non-empty name")
        streams = tuple(self.streams)
        object.__setattr__(self, "streams", streams)
        if not streams:
            raise ConfigError(f"scenario {self.name!r} needs >= 1 stream")
        names = [stream.name for stream in streams]
        if len(set(names)) != len(names):
            raise ConfigError(
                f"scenario {self.name!r} has duplicate stream names: {names}"
            )
        if self.frames < 1:
            raise ConfigError(
                f"scenario {self.name!r}: frames must be >= 1, got"
                f" {self.frames}"
            )
        if self.policy not in POLICY_NAMES:
            raise ConfigError(
                f"scenario {self.name!r}: unknown policy {self.policy!r};"
                f" one of {POLICY_NAMES}"
            )
        if isinstance(self.qos, dict):
            object.__setattr__(self, "qos", QosSpec.from_dict(self.qos))
        if self.qos is not None and not isinstance(self.qos, QosSpec):
            raise ConfigError(
                f"scenario {self.name!r}: qos must be a QosSpec, got"
                f" {self.qos!r}"
            )

    def stream(self, name: str) -> StreamSpec:
        for stream in self.streams:
            if stream.name == name:
                return stream
        raise ConfigError(f"scenario {self.name!r} has no stream {name!r}")


@dataclass(frozen=True)
class FrameRun:
    """One executed frame of one stream: its tasks and timing anchors.

    ``release_dep`` and ``think_s`` are set only for closed-loop frames:
    the frame's actual release is its pacing dependency's resolution
    time plus the think time, recovered from the executed timeline when
    records are assembled (it cannot be known statically).
    """

    stream: str
    frame: int
    release_s: float
    deadline_s: float | None
    uids: tuple[int, ...]
    release_dep: int | None = None
    think_s: float = 0.0


@dataclass(frozen=True)
class FrameRecord:
    """One frame's outcome after scheduling (completed or dropped)."""

    stream: str
    frame: int
    release_s: float
    deadline_s: float | None
    completion_s: float | None
    latency_s: float | None
    missed: bool
    dropped: bool
    drop_reason: str | None = None

    @classmethod
    def from_run(
        cls,
        run: FrameRun,
        release_s: float,
        completion_s: float | None,
        drop: DropRecord | PreemptRecord | None,
    ) -> "FrameRecord":
        """``run``'s outcome, released at ``release_s``.

        With a ``drop`` (the drop or abort record that cancelled the
        frame) the frame is dropped for its reason; otherwise it completed
        at ``completion_s`` and missed its deadline if its latency is
        strictly longer.
        """
        if drop is not None:
            return cls(
                stream=run.stream,
                frame=run.frame,
                release_s=release_s,
                deadline_s=run.deadline_s,
                completion_s=None,
                latency_s=None,
                missed=False,
                dropped=True,
                drop_reason=drop.reason,
            )
        latency = completion_s - release_s
        return cls(
            stream=run.stream,
            frame=run.frame,
            release_s=release_s,
            deadline_s=run.deadline_s,
            completion_s=completion_s,
            latency_s=latency,
            missed=run.deadline_s is not None and latency > run.deadline_s,
            dropped=False,
        )


@dataclass(frozen=True)
class FramePlan:
    """Instantiated tasks plus the per-frame bookkeeping for reporting."""

    tasks: tuple[OpTask, ...]
    runs: tuple[FrameRun, ...]
    skipped: dict[str, int]

    def frame_records(self, timeline: Timeline) -> dict[str, list[FrameRecord]]:
        """Per stream: every instantiated frame's outcome, in frame order.

        Frames cancelled by admission control come back with
        ``dropped=True`` and no completion/latency; frames whose tail was
        aborted in-flight by a preemptive QoS policy report the same way
        (their abort reason as the drop reason — any kernels that ran
        before the abort do not make the frame an on-time completion).
        """
        ends = {segment.uid: segment.end_s for segment in timeline.segments}
        drops = {record.uid: record for record in timeline.drops}
        aborts: dict[int, object] = {}
        for record in timeline.preemptions:
            if record.action == "abort":
                aborts.setdefault(record.uid, record)
        records: dict[str, list[FrameRecord]] = {}
        for run in self.runs:
            release = run.release_s
            if run.release_dep is not None:
                # Closed-loop: the frame was released when its pacing
                # dependency resolved (completed, dropped, or aborted)
                # plus think time — mirror the engine's dynamic release.
                resolved = ends.get(run.release_dep)
                if resolved is None and run.release_dep in drops:
                    resolved = drops[run.release_dep].time_s
                if resolved is None and run.release_dep in aborts:
                    resolved = aborts[run.release_dep].time_s
                if resolved is not None:
                    release = max(run.release_s, resolved + run.think_s)
            drop = next(
                (drops[uid] for uid in run.uids if uid in drops), None
            )
            if drop is None:
                drop = next(
                    (aborts[uid] for uid in run.uids if uid in aborts), None
                )
            completion = None
            if drop is None:
                completion = max(ends[uid] for uid in run.uids)
            records.setdefault(run.stream, []).append(
                FrameRecord.from_run(run, release, completion, drop)
            )
        return records


def instantiate_frames(
    spec: ScenarioSpec, templates: dict[str, list[OpTask]]
) -> FramePlan:
    """Expand per-stream task templates into the scenario's frame tasks.

    ``templates`` maps stream names to the platform-lowered single-run
    task chain of that stream's model (uids and deps are re-based here).
    The plan holds every frame of every :func:`frame_sources` source,
    drained in stream order: frame k of a stream is released at the
    stream's k-th static release time (a replay trace shorter than
    ``spec.frames`` simply yields fewer frames).
    """
    tasks: list[OpTask] = []
    runs: list[FrameRun] = []
    skipped: dict[str, int] = {}
    for source in frame_sources(spec, templates):
        for run, frame_tasks in iter(source.next_frame, None):
            runs.append(run)
            tasks.extend(frame_tasks)
        skipped[source.stream.name] = source.skipped
    return FramePlan(tasks=tuple(tasks), runs=tuple(runs), skipped=skipped)


class FrameSource:
    """One stream's frames, produced lazily one at a time.

    The one place a stream's lowered template becomes frame tasks: frame
    k's chain is re-based to fresh uids, its head depends on the previous
    executed frame's last task, and it carries the stream's priority as
    weight and the frame's static release and deadline. A closed-loop
    frame after the first is paced by that dependency: its head is
    released ``think_s`` after it resolves. Releases are drawn from
    :meth:`StreamSpec.iter_release_times` as frames are asked for, so a
    million-frame stream costs one frame of memory at a time.
    """

    def __init__(
        self, stream: StreamSpec, template: "list[OpTask]",
        frames: int, uid_base: int,
    ) -> None:
        self.stream = stream
        self.template = template
        self.uid = uid_base
        self.skipped = 0
        self._slots = enumerate(stream.iter_release_times(frames))
        self._think = stream.arrivals.think_s if stream.closed_loop else None
        self._previous_last: int | None = None

    def next_frame(self) -> "tuple[FrameRun, list[OpTask]] | None":
        """The stream's next executed frame, or ``None`` when exhausted."""
        stream = self.stream
        for frame, release in self._slots:
            if frame % stream.skip_interval != 0:
                self.skipped += 1
                continue
            previous = self._previous_last
            think = self._think if previous is not None else None
            head_deps = () if previous is None else (previous,)
            base = self.uid
            # Positional, in OpTask's field order: this runs once per task
            # of every served frame, where keywords and replace() cost.
            tasks = [
                OpTask(
                    base + position, task.name, task.seconds, task.claims,
                    task.mode, stream.name, frame,
                    (base + position - 1,) if position else head_deps,
                    release, stream.priority, task.cross_switch_s,
                    stream.deadline_s, position == 0,
                    None if position else think, task.payload,
                )
                for position, task in enumerate(self.template)
            ]
            # Read back from the tasks so the run shares their uid objects
            # (a fresh int per uid would cost 28 bytes each in big plans).
            uids = tuple([task.uid for task in tasks])
            self.uid = base + len(uids)
            self._previous_last = uids[-1]
            run = FrameRun(
                stream=stream.name,
                frame=frame,
                release_s=release,
                deadline_s=stream.deadline_s,
                uids=uids,
                release_dep=None if think is None else previous,
                think_s=0.0 if think is None else think,
            )
            return run, tasks
        return None


def frame_sources(
    spec: ScenarioSpec, templates: "dict[str, list[OpTask]]"
) -> "list[FrameSource]":
    """One lazy :class:`FrameSource` per stream, in stream order.

    Uids are allocated stream-major (every frame of stream 0, then stream
    1, ...), so draining the sources in order numbers the scenario's
    tasks 0..n-1. Each source's base is the number of tasks the streams
    before it will ever emit, computable without generating a single
    arrival: ``ceil(slots / skip) * len(template)``, where ``slots`` is
    ``spec.frames`` capped by a replay trace's length.
    """
    for stream in spec.streams:
        if stream.name not in templates:
            raise SchedulingError(
                f"no lowered tasks for stream {stream.name!r}"
            )
        if not templates[stream.name]:
            raise SchedulingError(
                f"stream {stream.name!r} lowered to an empty task list"
            )
    sources = []
    uid = 0
    for stream in spec.streams:
        template = templates[stream.name]
        slots = spec.frames
        if stream.arrivals is not None and stream.arrivals.kind == "replay":
            slots = min(slots, len(stream.arrivals.times_s))
        emitted = (slots + stream.skip_interval - 1) // stream.skip_interval
        sources.append(FrameSource(stream, template, spec.frames, uid))
        uid += emitted * len(template)
    return sources


__all__ = [
    "FramePlan",
    "FrameRecord",
    "FrameRun",
    "FrameSource",
    "ScenarioSpec",
    "StreamSpec",
    "frame_sources",
    "instantiate_frames",
]
