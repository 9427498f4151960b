"""QoS admission control: drop or shed frames instead of only counting misses.

A closed-loop scenario can at worst run late; an open-loop one can fall
*behind* — arrivals keep coming whether or not the machine keeps up, and
an unbounded backlog makes every later frame miss. Admission control is
the serving-side answer: bound the damage by dropping work that can no
longer meet its deadline, capping per-stream queues, or shedding the
lowest-priority tenants under overload.

An :class:`AdmissionPolicy` is a first-class timeline policy object: the
:class:`~repro.schedule.timeline.TimelineScheduler` consults it at every
event, alongside (and orthogonal to) the ``fifo``/``priority``/
``exclusive`` dispatch policy. It sees the *queued frames* — frame-head
tasks that have arrived but not started (either waiting behind the
stream's previous frame, or held back by an ``exclusive`` dispatcher) —
and returns the frames to drop; the engine cancels the whole frame chain
and records a :class:`~repro.schedule.timeline.DropRecord` for each task.

Specs (:class:`QosSpec`) are frozen primitives with JSON round-trip, so
QoS rides :class:`~repro.schedule.streams.ScenarioSpec` through the sweep
engine and result store like every other scenario knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.codec import WHEN_SET, Codec
from repro.errors import ConfigError

#: The admission-control policy kinds a scenario may declare.
QOS_KINDS = ("drop_late", "queue_cap", "shed", "abort_late")


@dataclass(frozen=True)
class QosSpec(Codec):
    """Declarative admission control for one scenario.

    * ``drop_late`` — drop a queued frame the moment it can no longer
      start by ``release + deadline + slack_s`` (streams without a
      deadline are never dropped);
    * ``queue_cap`` — at most ``cap`` frames of one stream may wait at
      once; arrivals beyond that are dropped (newest first);
    * ``shed`` — when more than ``cap`` frames are queued machine-wide,
      shed from the lowest-priority streams first; streams with priority
      >= ``min_priority`` (when set) are never shed;
    * ``abort_late`` — ``drop_late`` for queued frames, plus preemptive
      cancellation of an *in-flight* frame's not-yet-started kernels the
      moment ``release + deadline + slack_s`` passes (the kernel already
      on the machine finishes — cancellation is kernel-granular).
    """

    kind: str
    cap: int | None = field(default=None, metadata=WHEN_SET)
    slack_s: float = field(default=0.0, metadata=WHEN_SET)
    min_priority: float | None = field(default=None, metadata=WHEN_SET)

    def __post_init__(self) -> None:
        if self.kind not in QOS_KINDS:
            raise ConfigError(
                f"unknown qos kind {self.kind!r}; one of {QOS_KINDS}"
            )
        if self.kind in ("queue_cap", "shed"):
            if self.cap is None or self.cap < 1:
                raise ConfigError(
                    f"{self.kind!r} qos needs cap >= 1, got {self.cap}"
                )
        if self.slack_s < 0:
            raise ConfigError(f"qos slack must be >= 0, got {self.slack_s}")


class AdmissionPolicy:
    """Base admission policy: admit everything (the closed-loop default)."""

    #: Preemptive policies additionally review *in-flight* frames and may
    #: abort their unstarted remainder at a kernel boundary; the engine
    #: only maintains the in-flight index when this is set.
    preemptive = False

    def __init__(self, spec: QosSpec | None = None) -> None:
        self.spec = spec

    @property
    def name(self) -> str:
        return self.spec.kind if self.spec is not None else "none"

    def review(self, now: float, queued: dict) -> list:
        """Frames to drop now, as ``(head_task, reason)`` pairs.

        ``queued`` maps stream name to that stream's arrived-but-unstarted
        frame-head tasks in arrival order. The engine passes the same dict
        and lists to every call until the queue changes: never mutate them.
        """
        return []

    def next_event(self, now: float, queued: dict) -> float | None:
        """The next time (> now) this policy's decision could change
        between releases/completions, or ``None``. The engine bounds its
        time step by it so deadline expiries are hit exactly. ``queued``
        is shared as in :meth:`review` and must not be mutated either."""
        return None

    def review_inflight(self, now: float, inflight: dict) -> list:
        """In-flight frames to abort now, as ``(head_task, reason)`` pairs.

        ``inflight`` maps stream name to that stream's started-but-
        unfinished frame-head tasks. Only consulted when ``preemptive``.
        """
        return []

    def next_inflight_event(self, now: float, inflight: dict) -> float | None:
        """The next time (> now) an in-flight abort could fire, or
        ``None``. Bounds the engine's step (and its solo-chain fast path)
        so aborts land exactly on their expiry."""
        return None


class DropLatePolicy(AdmissionPolicy):
    """Drop a queued frame once its deadline (plus slack) has slipped.

    A frame that has not *started* by ``release + deadline + slack`` can
    only finish late, so it is shed the moment that expiry passes (the
    engine schedules an event at the expiry, so drop times are exact).
    """

    def _expiry(self, head) -> float | None:
        if head.deadline_s is None:
            return None
        return head.release_s + head.deadline_s + self.spec.slack_s

    def review(self, now: float, queued: dict) -> list:
        drops = []
        for heads in queued.values():
            for head in heads:
                expiry = self._expiry(head)
                if expiry is not None and now >= expiry:
                    drops.append((head, "deadline_slip"))
        return drops

    def next_event(self, now: float, queued: dict) -> float | None:
        horizon = None
        for heads in queued.values():
            for head in heads:
                expiry = self._expiry(head)
                if expiry is not None and expiry > now:
                    horizon = expiry if horizon is None else min(horizon, expiry)
        return horizon


class QueueCapPolicy(AdmissionPolicy):
    """Cap each stream's waiting queue; drop the newest arrivals beyond it."""

    def review(self, now: float, queued: dict) -> list:
        return [
            (head, "queue_full")
            for heads in queued.values()
            for head in heads[self.spec.cap:]
        ]


class ShedPolicy(AdmissionPolicy):
    """Under machine-wide overload, shed the lowest-priority queued frames."""

    def review(self, now: float, queued: dict) -> list:
        backlog = [head for heads in queued.values() for head in heads]
        excess = len(backlog) - self.spec.cap
        if excess <= 0:
            return []
        floor = self.spec.min_priority
        # Lowest priority first; among equals shed the newest arrival.
        candidates = sorted(
            (head for head in backlog
             if floor is None or head.weight < floor),
            key=lambda head: (head.weight, -head.release_s, -head.uid),
        )
        return [(head, "load_shed") for head in candidates[:excess]]


class AbortLatePolicy(DropLatePolicy):
    """``drop_late`` plus kernel-granularity abort of in-flight frames.

    Queued frames are dropped exactly as under ``drop_late``. A frame
    that *started* but whose expiry passes mid-flight has its remaining
    (not-yet-started) kernels cancelled at the expiry instant — the
    kernel on the machine runs to completion, and the engine records the
    cancellations as :class:`~repro.schedule.timeline.PreemptRecord`
    entries with reason ``"deadline_abort"``.
    """

    preemptive = True

    def review_inflight(self, now: float, inflight: dict) -> list:
        aborts = []
        for heads in inflight.values():
            for head in heads:
                expiry = self._expiry(head)
                if expiry is not None and now >= expiry:
                    aborts.append((head, "deadline_abort"))
        return aborts

    def next_inflight_event(self, now: float, inflight: dict) -> float | None:
        horizon = None
        for heads in inflight.values():
            for head in heads:
                expiry = self._expiry(head)
                if expiry is not None and expiry > now:
                    horizon = expiry if horizon is None else min(horizon, expiry)
        return horizon


_POLICIES = {
    "drop_late": DropLatePolicy,
    "queue_cap": QueueCapPolicy,
    "shed": ShedPolicy,
    "abort_late": AbortLatePolicy,
}


def make_qos(spec: "QosSpec | dict | str | None") -> AdmissionPolicy | None:
    """Resolve an admission policy from its spec (or pass ``None`` through).

    Accepts a :class:`QosSpec`, its dict form, or a bare kind string
    (kinds without required parameters only).
    """
    if spec is None:
        return None
    if isinstance(spec, AdmissionPolicy):
        return spec
    if isinstance(spec, str):
        spec = QosSpec(kind=spec)
    elif isinstance(spec, dict):
        spec = QosSpec.from_dict(spec)
    if not isinstance(spec, QosSpec):
        raise ConfigError(f"not a qos spec: {spec!r}")
    return _POLICIES[spec.kind](spec)


__all__ = [
    "QOS_KINDS",
    "AbortLatePolicy",
    "AdmissionPolicy",
    "DropLatePolicy",
    "QosSpec",
    "QueueCapPolicy",
    "ShedPolicy",
    "make_qos",
]
