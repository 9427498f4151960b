"""Scheduling policies: who runs, and with what share of the machine.

A policy answers two questions for the timeline engine:

* :meth:`~SchedulingPolicy.dispatch` — which ready tasks start now;
* :meth:`~SchedulingPolicy.weight` — each running task's share weight in
  the processor-sharing slowdown formula.

``fifo`` runs everything that is ready with equal shares (fair temporal
multiplexing — the default, and the degenerate single-stream case).
``priority`` also runs everything, but shares contended resources in
proportion to stream priority, so a latency-critical stream is stretched
less by co-runners. ``exclusive`` serializes the whole machine, picking
the highest-priority ready task — the strictest isolation, equivalent to
the historical one-model-at-a-time execution even for multi-stream
scenarios. ``exclusive_preempt`` keeps the same dispatch order but marks
itself preemptive: the engine deschedules a frame's not-yet-started
remainder at each kernel boundary whenever a higher-priority frame is
ready (recording the yield as a :class:`PreemptRecord`), bounding
priority inversion to the single kernel already in flight.
"""

from __future__ import annotations

from repro.errors import SchedulingError

POLICY_NAMES = ("fifo", "priority", "exclusive", "exclusive_preempt")


class SchedulingPolicy:
    """Base policy: dispatch every ready task, equal weights."""

    name = "fifo"
    #: Preemptive policies let the engine swap a frame's unstarted
    #: remainder off the machine at kernel boundaries; the engine records
    #: each switch-away so reports and oracles can account for it.
    preemptive = False

    def dispatch(self, ready: list, running: list) -> list:
        """The ready tasks to start now (engine preserves this order)."""
        return sorted(ready, key=lambda task: (task.release_s, task.uid))

    def weight(self, task) -> float:
        """The task's share weight on contended resources.

        Must be a pure function of the task: the timeline core reads it
        once per dispatched task, when it builds the task's share plan,
        and uses that value for as long as the task runs.
        """
        return 1.0


class FifoPolicy(SchedulingPolicy):
    """Run everything that is ready; equal shares (fair multiplexing)."""

    name = "fifo"


class PriorityPolicy(SchedulingPolicy):
    """Run everything that is ready; shares proportional to priority."""

    name = "priority"

    def dispatch(self, ready: list, running: list) -> list:
        return sorted(
            ready, key=lambda task: (-task.weight, task.release_s, task.uid)
        )

    def weight(self, task) -> float:
        return task.weight


class ExclusivePolicy(SchedulingPolicy):
    """One task on the machine at a time, highest priority first."""

    name = "exclusive"

    def dispatch(self, ready: list, running: list) -> list:
        if running or not ready:
            return []
        best = min(ready, key=lambda task: (-task.weight, task.release_s, task.uid))
        return [best]


class ExclusivePreemptPolicy(ExclusivePolicy):
    """Exclusive dispatch with kernel-granularity preemption.

    Dispatch order is identical to ``exclusive`` (highest-priority ready
    task wins each kernel boundary); the ``preemptive`` flag additionally
    makes the engine deschedule the interrupted frame's next kernel and
    record the yield, so a newly-arrived high-priority frame is blocked
    by at most the kernel already on the machine.
    """

    name = "exclusive_preempt"
    preemptive = True


_POLICIES = {
    "fifo": FifoPolicy,
    "priority": PriorityPolicy,
    "exclusive": ExclusivePolicy,
    "exclusive_preempt": ExclusivePreemptPolicy,
}


def make_policy(policy: "SchedulingPolicy | str") -> SchedulingPolicy:
    """Resolve a policy instance from its name (or pass one through)."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    factory = _POLICIES.get(policy)
    if factory is None:
        raise SchedulingError(
            f"unknown scheduling policy {policy!r}; one of {POLICY_NAMES}"
        )
    return factory()


__all__ = [
    "POLICY_NAMES",
    "ExclusivePolicy",
    "ExclusivePreemptPolicy",
    "FifoPolicy",
    "PriorityPolicy",
    "SchedulingPolicy",
    "make_policy",
]
