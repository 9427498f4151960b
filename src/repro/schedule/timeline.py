"""The event-driven timeline: weighted processor sharing over typed resources.

Execution is modelled as a fluid schedule. Every released task whose
dependencies are met is (policy permitting) *running*; at any instant each
resource's load is the weight-scaled sum of the running tasks' claims, and
a task progresses at ``1 / slowdown`` where its slowdown is the highest
relative load among the resources it claims::

    slowdown(i) = max(1, max_r sum_j(claim_j(r) * w_j) / w_i)

Two full claimants of one resource therefore time-multiplex it (each at
half speed — the paper's temporal integration), while a fractional
ancillary claim (a TensorCore GEMM's measured SIMD-side register-port
pressure) stretches a co-running SIMD kernel by exactly that fraction —
the spatial co-run contention, *derived* from the claims instead of
hard-coded.

The degenerate case — one stream, tasks chained by dependencies — runs
each task alone at slowdown 1.0 and accumulates completion times as the
plain left-to-right sum of durations, which is what keeps single-model
runs bit-for-bit identical to the historical sequential ``run_model``
loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.schedule.policies import SchedulingPolicy, make_policy
from repro.schedule.resources import ResourceClaim, ResourceKind

#: The claim kinds that place a task on the MAC substrate when held as a
#: *primary* (full) claim.
_SUBSTRATE_KINDS = (ResourceKind.SIMD, ResourceKind.ARRAY)


def _touches_substrate(task) -> bool:
    """Whether dispatching ``task`` occupies the MAC substrate.

    Only tasks with a primary (full) SIMD or ARRAY claim run on the
    temporally-switched substrate and participate in cross-stream
    mode-switch tracking. A TensorCore task's fractional SIMD claim is
    ancillary co-run pressure, and TRANSFER/HOST tasks never touch the
    MACs even though ``OpTask.mode`` defaults to ``"simd"``.
    """
    return any(
        claim.fraction >= 1.0 and claim.kind in _SUBSTRATE_KINDS
        for claim in task.claims
    )


@dataclass(slots=True)
class OpTask:
    """One schedulable unit of work with typed resource claims.

    ``seconds`` is the task's duration when it runs alone at full speed
    (contention stretches it). ``deps`` are uids of tasks that must finish
    first; ``release_s`` is the earliest start time (frame arrival).
    ``cross_switch_s`` is the extra reconfiguration cost charged if this
    task flips the MAC substrate's mode relative to a *different* stream's
    preceding task (intra-stream switches are already priced into
    ``seconds`` by the platform's lowering pass). ``deadline_s`` and
    ``frame_head`` carry the owning frame's QoS anchors: an admission
    policy sees queued frame-head tasks and may drop the whole frame
    before it starts. ``payload`` is opaque to the engine (platforms
    carry their per-op stats there).

    ``think_s`` makes the release *schedule-dependent* (closed-loop
    clients): a task with ``think_s`` set (``None`` means unpaced) is
    released ``think_s`` after its last dependency resolves (completes
    or is dropped), never before ``release_s`` — and does not count as
    arrived/queued until then. Such a task must have dependencies; with
    none there is no completion to wait on.

    Slotted but not frozen, because construction is the cost: a served
    frame builds one task per op, and a frozen class's ``__init__`` makes
    one ``object.__setattr__`` call per field. Treat a task as immutable
    all the same: the core caches what it derives from one (share plans
    keyed by ``id(claims)``, the queued-frame view, ``drop_late``'s
    expiry index), so a changed task is a new one, built with
    :func:`dataclasses.replace`.
    """

    uid: int
    name: str
    seconds: float
    claims: tuple[ResourceClaim, ...]
    mode: str = "simd"
    stream: str = "main"
    frame: int = 0
    deps: tuple[int, ...] = ()
    release_s: float = 0.0
    weight: float = 1.0
    cross_switch_s: float = 0.0
    deadline_s: float | None = None
    frame_head: bool = False
    think_s: float | None = None
    payload: object = None

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise SchedulingError(
                f"task {self.name!r} has negative duration {self.seconds}"
            )
        if self.weight <= 0:
            raise SchedulingError(
                f"task {self.name!r} has non-positive weight {self.weight}"
            )
        if not self.claims:
            raise SchedulingError(f"task {self.name!r} claims no resources")
        if self.think_s is not None:
            if self.think_s < 0:
                raise SchedulingError(
                    f"task {self.name!r} has negative think time"
                    f" {self.think_s}"
                )
            if not self.deps:
                raise SchedulingError(
                    f"task {self.name!r} has think time but no dependencies"
                    " to pace it"
                )


@dataclass(slots=True)
class TimelineSegment:
    """One task's placement on the timeline (completion-ordered).

    Slotted but not frozen, like :class:`OpTask`: one is built per
    completed task. Treat it as immutable, because timelines and reports
    share these instances.
    """

    uid: int
    name: str
    stream: str
    frame: int
    mode: str
    start_s: float
    end_s: float
    seconds: float  # full-speed duration; end - start - seconds = stretch

    @property
    def elapsed_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def stretch(self) -> float:
        """Contention stretch factor (1.0 = ran unimpeded)."""
        if self.seconds <= 0:
            return 1.0
        return self.elapsed_s / self.seconds


@dataclass(slots=True)
class DropRecord:
    """One task cancelled by admission control before it started.

    Slotted but not frozen, like :class:`OpTask`: one is built per
    dropped task. Treat it as immutable, because the timeline and the
    streaming driver's callback share these instances.
    """

    uid: int
    name: str
    stream: str
    frame: int
    time_s: float
    reason: str


@dataclass(slots=True)
class PreemptRecord:
    """One kernel-boundary preemption event.

    ``action`` is ``"deschedule"`` when a preemptive dispatch policy
    passed over a frame's next kernel in favor of a higher-priority
    frame (the kernel still runs later), or ``"abort"`` when a
    preemptive QoS policy cancelled a not-yet-started kernel outright
    (it never runs; the kernel already on the machine finishes).

    Slotted but not frozen, like :class:`OpTask`. Treat it as immutable,
    because timelines and reports share these instances.
    """

    uid: int
    name: str
    stream: str
    frame: int
    time_s: float
    reason: str
    action: str = "abort"


@dataclass(frozen=True)
class Timeline:
    """The scheduled execution: segments plus resource accounting.

    ``drops`` lists the tasks an admission policy cancelled (whole frames
    at a time); dropped tasks never appear in ``segments``.
    ``preemptions`` lists kernel-boundary preemption events (empty unless
    a preemptive policy or QoS action ran): ``"abort"`` records cancel
    tasks — like drops, they never appear in ``segments`` — while
    ``"deschedule"`` records mark yields whose tasks run later.
    """

    segments: tuple[TimelineSegment, ...]
    makespan_s: float
    busy_s: dict[ResourceKind, float] = field(default_factory=dict)
    load_integral_s: dict[ResourceKind, float] = field(default_factory=dict)
    mode_switches: int = 0
    switch_overhead_s: float = 0.0
    drops: tuple[DropRecord, ...] = ()
    preemptions: tuple[PreemptRecord, ...] = ()

    def occupancy(self) -> dict[str, float]:
        """Fraction of the makespan each resource had work (by kind name)."""
        if self.makespan_s <= 0:
            return {kind.value: 0.0 for kind in self.busy_s}
        return {
            kind.value: busy / self.makespan_s
            for kind, busy in self.busy_s.items()
        }

    def by_stream(self) -> dict[str, list[TimelineSegment]]:
        streams: dict[str, list[TimelineSegment]] = {}
        for segment in self.segments:
            streams.setdefault(segment.stream, []).append(segment)
        return streams


class TimelineScheduler:
    """Runs a task set to completion under a scheduling policy.

    ``qos`` is an optional admission policy (see
    :mod:`repro.serving.qos`): any object with ``review(now, queued)``
    returning ``(frame_head_task, reason)`` pairs to drop, and
    ``next_event(now, queued)`` returning the next time its decision
    could change. Dropped frames are cancelled whole — the head and its
    same-frame dependents never run — while cross-frame dependents (the
    stream's next frame) are released as if the frame had completed.

    ``interference`` is an optional per-device measured contention model
    (any object with ``pressure(primary_kinds) -> {kind: factor}``, see
    :class:`~repro.catalog.interference.InterferenceMatrix`). When set it
    *supersedes* per-kernel fractional claims: ancillary (fractional)
    claims are ignored and each running task instead exerts the matrix's
    directional pressure on resources outside its primary set — victims
    stretch, the source task is unaffected. Primary (full) claims keep
    their temporal-multiplexing semantics unchanged, so single-stream
    schedules are bit-identical with or without a matrix.

    ``tracer`` is an optional :class:`~repro.obs.trace.Tracer`. Tracing
    is observation-only — every site is guarded by ``is not None`` and
    only appends to the tracer's log, so a traced run's Timeline (and
    every report built from it) is bit-identical to an untraced one.

    :meth:`run` executes on :class:`~repro.schedule.vectorized.VectorCore`
    (heap-based event queues, an incremental queued-frame index, share
    plans built once per dispatched task, per-class columns kept in
    remaining-work order with integer load totals, so an event pays per
    share class, slot-indexed accrual, and an analytic solo-chain fast
    path). Its timelines and trace event
    sequences are pinned bit-identical to the per-event reference loop,
    :func:`repro.schedule.reference.run_reference`.
    """

    def __init__(
        self,
        policy: SchedulingPolicy | str = "fifo",
        max_events: int = 10_000_000,
        qos=None,
        interference=None,
        tracer=None,
    ) -> None:
        self.policy = make_policy(policy)
        self.max_events = max_events
        self.qos = qos
        self.interference = interference
        self.tracer = tracer

    def run(self, tasks) -> Timeline:
        # Deferred import: the core builds on this module's types.
        from repro.schedule.vectorized import VectorCore

        core = VectorCore(
            self.policy,
            qos=self.qos,
            interference=self.interference,
            max_events=self.max_events,
            tracer=self.tracer,
        )
        core.inject(list(tasks))
        core.run_loop()
        return core.build_timeline()


__all__ = [
    "DropRecord",
    "OpTask",
    "PreemptRecord",
    "Timeline",
    "TimelineScheduler",
    "TimelineSegment",
]
