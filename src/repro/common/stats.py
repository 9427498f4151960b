"""Generic named counters and streaming statistics shared across models.

Besides the :class:`CounterBag` event counters, this module holds the
bounded-memory latency statistics the streaming serving path runs on:
:class:`P2Quantile` (the Jain/Chlamtac P² algorithm — one quantile
estimate from five markers, O(1) memory and update) and
:class:`QuantileSketch`, the p50/p95/p99 + count/sum/max bundle a
million-frame trace accumulates per stream instead of a per-frame record
list.
"""

from __future__ import annotations

import math

from collections import defaultdict
from typing import Iterable, Iterator, Mapping

from repro.common.codec import checked


class CounterBag:
    """A mapping of counter name -> float with arithmetic helpers.

    Used for event counts (memory accesses, issued instructions, stall
    cycles). Supports merging bags from sub-simulations and scaling a
    steady-state sample up to a full kernel.
    """

    def __init__(self, initial: Mapping[str, float] | None = None) -> None:
        self._counts: dict[str, float] = defaultdict(float)
        if initial:
            for name, value in initial.items():
                self._counts[name] = float(value)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._counts[name] += amount

    def get(self, name: str) -> float:
        """Current value of ``name`` (0.0 when never incremented)."""
        return self._counts.get(name, 0.0)

    def merge(self, other: "CounterBag") -> None:
        """Add every counter of ``other`` into this bag in place."""
        for name, value in other.items():
            self._counts[name] += value

    def merged(self, other: "CounterBag") -> "CounterBag":
        """Return a new bag holding the element-wise sum."""
        result = CounterBag(self._counts)
        result.merge(other)
        return result

    def scaled(self, factor: float) -> "CounterBag":
        """Return a new bag with every counter multiplied by ``factor``."""
        return CounterBag({name: value * factor for name, value in self.items()})

    def items(self) -> Iterable[tuple[str, float]]:
        return self._counts.items()

    def names(self) -> Iterable[str]:
        return self._counts.keys()

    def as_dict(self) -> dict[str, float]:
        """A plain-dict copy of the counters."""
        return dict(self._counts)

    def total(self) -> float:
        """Sum over all counters."""
        return sum(self._counts.values())

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CounterBag):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counts.items()))
        return f"CounterBag({inner})"


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 for an empty input).

    Nearest rank (no interpolation) keeps tail-latency numbers
    deterministic and exactly equal to an observed sample, which is what
    lets serving reports round-trip bit-for-bit through JSON.
    """
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


class P2Quantile:
    """One streaming quantile estimate — the P² algorithm.

    Jain & Chlamtac's P² maintains five markers (min, three interior
    quantile estimates, max) and nudges them toward their desired rank
    positions with a piecewise-parabolic fit on every observation: O(1)
    memory and O(1) update, no sample retention. Until five observations
    arrive the estimate is the *exact* nearest-rank percentile of the
    buffer (matching :func:`percentile`), so tiny streams lose nothing.

    Accuracy is distribution-dependent but typically well under 1%
    relative error on unimodal data; the serving report records the
    estimates as such (``sketches``) and never claims exactness.
    """

    __slots__ = ("p", "count", "_heights", "_positions", "_desired", "_dn")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        self.count = 0
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [
            1.0,
            1.0 + 2.0 * p,
            1.0 + 4.0 * p,
            3.0 + 2.0 * p,
            5.0,
        ]
        self._dn = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]

    def update(self, value: float) -> None:
        value = float(value)
        self.count += 1
        heights = self._heights
        if self.count <= 5:
            heights.append(value)
            if self.count == 5:
                heights.sort()
            return
        positions = self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while not (heights[cell] <= value < heights[cell + 1]):
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        desired = self._desired
        for index in range(5):
            desired[index] += self._dn[index]
        for index in (1, 2, 3):
            drift = desired[index] - positions[index]
            if (
                drift >= 1.0 and positions[index + 1] - positions[index] > 1.0
            ) or (
                drift <= -1.0 and positions[index - 1] - positions[index] < -1.0
            ):
                step = 1.0 if drift > 0.0 else -1.0
                candidate = self._parabolic(index, step)
                if heights[index - 1] < candidate < heights[index + 1]:
                    heights[index] = candidate
                else:
                    heights[index] = self._linear(index, step)
                positions[index] += step

    def _parabolic(self, i: int, d: float) -> float:
        q = self._heights
        n = self._positions
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d)
            * (q[i + 1] - q[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d)
            * (q[i] - q[i - 1])
            / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q = self._heights
        n = self._positions
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    def result(self) -> float:
        """The current estimate (exact nearest-rank while count <= 5)."""
        if self.count == 0:
            return 0.0
        if self.count <= 5:
            return percentile(self._heights, self.p * 100.0)
        return self._heights[2]

    # Hand-written: a mutable estimator whose state is private markers.
    def to_dict(self) -> dict:
        """Full marker state — round-trips the estimator exactly."""
        return {
            "p": self.p,
            "count": self.count,
            "heights": list(self._heights),
            "positions": list(self._positions),
            "desired": list(self._desired),
        }

    @classmethod
    @checked
    def from_dict(cls, payload: dict) -> "P2Quantile":
        sketch = cls(payload["p"])
        sketch.count = int(payload["count"])
        sketch._heights = [float(v) for v in payload["heights"]]
        sketch._positions = [float(v) for v in payload["positions"]]
        sketch._desired = [float(v) for v in payload["desired"]]
        return sketch


#: The latency quantiles every serving report carries.
SKETCH_QUANTILES = (0.5, 0.95, 0.99)


class QuantileSketch:
    """Bounded-memory latency statistics for one stream of observations.

    Bundles count/sum/max with one :class:`P2Quantile` per entry of
    ``SKETCH_QUANTILES`` — everything a :class:`ServingStreamReport`
    needs, in O(1) memory, so million-frame streaming runs never hold a
    per-frame list. JSON round-trip (:meth:`to_dict`/:meth:`from_dict`)
    preserves every marker bit so replayed reports agree exactly.
    """

    __slots__ = ("count", "total", "max_value", "quantiles")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        self.quantiles = {p: P2Quantile(p) for p in SKETCH_QUANTILES}

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value
        for sketch in self.quantiles.values():
            sketch.update(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate for percentile ``q`` (one of 50/95/99)."""
        sketch = self.quantiles.get(q / 100.0)
        if sketch is None:
            raise ValueError(
                f"sketch tracks {[p * 100 for p in SKETCH_QUANTILES]},"
                f" not p{q:g}"
            )
        return sketch.result()

    # Hand-written: a mutable accumulator keyed by quantile labels.
    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max_value,
            "quantiles": {
                f"{p * 100:g}": sketch.to_dict()
                for p, sketch in self.quantiles.items()
            },
        }

    @classmethod
    @checked
    def from_dict(cls, payload: dict) -> "QuantileSketch":
        sketch = cls()
        sketch.count = int(payload["count"])
        sketch.total = float(payload["total"])
        sketch.max_value = float(payload["max"])
        sketch.quantiles = {
            float(key) / 100.0: P2Quantile.from_dict(value)
            for key, value in payload["quantiles"].items()
        }
        return sketch
