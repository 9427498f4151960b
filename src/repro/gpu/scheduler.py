"""Warp scheduling policies.

The baseline Volta scheduler is greedy-then-oldest (GTO): it keeps issuing
from the last warp until that warp stalls, then falls back to the oldest
ready warp. SS IV-C of the paper observes that GTO starves the
double-buffered warp sets of the SMA GEMM mapping, and adds an SMA-specific
round-robin scheduler that is active only in systolic mode. Both, plus a
loose round-robin reference, are implemented here.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.errors import ConfigError


class SchedulerPolicy(abc.ABC):
    """Chooses which ready warp a scheduler slot issues from."""

    @abc.abstractmethod
    def order(self, warp_ids: Sequence[int]) -> list[int]:
        """Return candidate warps in descending priority.

        The ordering depends only on ``warp_ids`` and on the
        :meth:`notify_issued` calls so far, and ``warp_ids`` is never
        mutated: the SM keeps a scheduler's order until it issues or its
        candidates change.
        """

    @abc.abstractmethod
    def notify_issued(self, warp_id: int) -> None:
        """Record that ``warp_id`` issued this cycle."""


class GreedyThenOldestScheduler(SchedulerPolicy):
    """GTO: stick with the last issued warp, else lowest warp id (oldest)."""

    def __init__(self) -> None:
        self._last_issued: int | None = None

    def order(self, warp_ids: Sequence[int]) -> list[int]:
        ordered = sorted(warp_ids)
        if self._last_issued in ordered:
            ordered.remove(self._last_issued)
            ordered.insert(0, self._last_issued)
        return ordered

    def notify_issued(self, warp_id: int) -> None:
        self._last_issued = warp_id


class LooseRoundRobinScheduler(SchedulerPolicy):
    """LRR: rotate priority one position after every issue."""

    def __init__(self) -> None:
        self._pointer = 0

    def order(self, warp_ids: Sequence[int]) -> list[int]:
        ordered = sorted(warp_ids)
        if not ordered:
            return ordered
        pivot = self._pointer % len(ordered)
        return ordered[pivot:] + ordered[:pivot]

    def notify_issued(self, warp_id: int) -> None:
        self._pointer += 1


class SmaRoundRobinScheduler(SchedulerPolicy):
    """The paper's SMA scheduler: strict round-robin *after* the issuer.

    Priority restarts just past the last warp that issued, so the
    double-buffer producer and consumer warp sets alternate instead of the
    greedy set monopolizing the issue slots.
    """

    def __init__(self) -> None:
        self._last_issued: int | None = None

    def order(self, warp_ids: Sequence[int]) -> list[int]:
        ordered = sorted(warp_ids)
        if not ordered or self._last_issued is None:
            return ordered
        pivot = 0
        for index, warp_id in enumerate(ordered):
            if warp_id > self._last_issued:
                pivot = index
                break
        else:
            pivot = 0
        return ordered[pivot:] + ordered[:pivot]

    def notify_issued(self, warp_id: int) -> None:
        self._last_issued = warp_id


_POLICIES = {
    "gto": GreedyThenOldestScheduler,
    "lrr": LooseRoundRobinScheduler,
    "sma_rr": SmaRoundRobinScheduler,
}


def make_scheduler(policy: str) -> SchedulerPolicy:
    """Instantiate a scheduler policy by name (``gto``/``lrr``/``sma_rr``)."""
    try:
        factory = _POLICIES[policy]
    except KeyError:
        raise ConfigError(
            f"unknown scheduler policy {policy!r}; expected one of {sorted(_POLICIES)}"
        ) from None
    return factory()
