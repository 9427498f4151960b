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

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

from repro.common.codec import WHEN_SET, Codec
from repro.errors import ConfigError

#: The admission-control policy kinds a scenario may declare.
QOS_KINDS = ("drop_late", "queue_cap", "shed", "abort_late")

#: Fields of a ``DropLatePolicy`` index entry.
_EXPIRY, _POSITION = itemgetter(0), itemgetter(1)


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
        time step by it, so the expiries of heads in ``queued`` are hit
        exactly. ``queued`` is shared as in :meth:`review` and must not
        be mutated either."""
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
    only finish late, so it is dropped at the first event at or after
    that expiry. Drop times are exact only for heads already queued:
    ``next_event`` bounds the engine's step by their expiries. A head
    that arrives while it waits behind its stream's running frame adds
    no event at its arrival, so its expiry bounds no step until some
    other event passes. Six single-task frames of 1 s each, arriving
    every 0.1 s with a 0.05 s deadline, drop frames 1-5 (expiries
    0.15-0.55 s) all at 1.0 s, when frame 0 completes.

    The policy keeps an index of the last queued view it was given: its
    heads' expiries, sorted, each with the head's position in the view.
    Views are compared by identity, and the index holds its view, so
    that identity cannot be reused while the index lives. ``next_event``
    bisects for the first expiry after ``now``; ``review`` takes the
    expiries at or before ``now`` and returns their heads in view order.
    """

    def __init__(self, spec: QosSpec | None = None) -> None:
        super().__init__(spec)
        # The last view and its ``(expiry, position, head)`` entries in
        # expiry order, swapped as one tuple so that no reader pairs one
        # view with another's entries.
        self._index: tuple = (None, [])

    def _expiry(self, head) -> float | None:
        if head.deadline_s is None:
            return None
        return head.release_s + head.deadline_s + self.spec.slack_s

    def _entries(self, queued: dict) -> list:
        view, entries = self._index
        if view is not queued:
            slack = self.spec.slack_s
            # Each expiry is ``_expiry``'s sum, in its order.
            entries = [
                (head.release_s + head.deadline_s + slack, position, head)
                for position, head in enumerate(
                    chain.from_iterable(queued.values())
                )
                if head.deadline_s is not None
            ]
            # Stable: equal expiries stay in view order.
            entries.sort(key=_EXPIRY)
            self._index = (queued, entries)
        return entries

    def review(self, now: float, queued: dict) -> list:
        entries = self._entries(queued)
        late = entries[:bisect_right(entries, now, key=_EXPIRY)]
        late.sort(key=_POSITION)
        return [(head, "deadline_slip") for _, _, head in late]

    def next_event(self, now: float, queued: dict) -> float | None:
        entries = self._entries(queued)
        at = bisect_right(entries, now, key=_EXPIRY)
        return entries[at][0] if at < len(entries) else None


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
