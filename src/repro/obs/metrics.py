"""Fleet metrics: counters, gauges, P²-sketch histograms, exact merging.

A :class:`MetricsRegistry` is a process-local bag of named samples.
Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-able dicts
that merge **associatively and commutatively** across sweep workers and
cluster servers — the property the fleet relies on, pinned by a
hypothesis test:

* counters are integer sums (float addition would break associativity
  in the last ulp, so counters refuse non-integers);
* gauges merge by ``max`` (peak semantics: "highest in-flight anywhere");
* histograms are **multisets of P² sketch states** — each process
  contributes its own sketch, merging is multiset union under a
  canonical sort, and quantile queries over a merged snapshot are
  count-weighted averages of the member sketches. P² states cannot be
  folded into one another losslessly, so the multiset *is* the merged
  state.

Labels ride inside the sample key using Prometheus exposition syntax
(``name{k="v"}``), which makes :func:`render_prometheus` a direct
transcription and keeps merged snapshots string-keyed.
"""

from __future__ import annotations

import json

from repro.common.stats import P2Quantile, QuantileSketch
from repro.errors import ConfigError

#: Top-level snapshot sections, in exposition order.
SNAPSHOT_SECTIONS = ("counters", "gauges", "histograms")


def sample_key(name: str, labels: dict | None = None) -> str:
    """``name`` or ``name{k="v",...}`` with labels canonically sorted."""
    if not name or "{" in name or '"' in name:
        raise ConfigError(f"bad metric name {name!r}")
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{value}"' for key, value in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing integer count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount != int(amount) or amount < 0:
            raise ConfigError(
                f"counters take non-negative integers, got {amount!r}"
            )
        self.value += int(amount)


class Gauge:
    """A point-in-time value; merged snapshots keep the peak."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def high_water(self, value: float) -> None:
        if value > self.value:
            self.value = float(value)


class Histogram:
    """A streaming distribution backed by one P² quantile sketch."""

    __slots__ = ("sketch",)

    def __init__(self) -> None:
        self.sketch = QuantileSketch()

    def observe(self, value: float) -> None:
        self.sketch.add(value)


class MetricsRegistry:
    """Process-local metrics plus any snapshots merged in from afar."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Foreign sketch states absorbed via :meth:`merge` — P² states
        #: don't fold, so they stay as multiset members (see module doc).
        self._foreign_sketches: dict[str, list[dict]] = {}

    # -- sample accessors (get-or-create) ----------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = sample_key(name, labels)
        sample = self._counters.get(key)
        if sample is None:
            sample = self._counters[key] = Counter()
        return sample

    def gauge(self, name: str, **labels) -> Gauge:
        key = sample_key(name, labels)
        sample = self._gauges.get(key)
        if sample is None:
            sample = self._gauges[key] = Gauge()
        return sample

    def histogram(self, name: str, **labels) -> Histogram:
        key = sample_key(name, labels)
        sample = self._histograms.get(key)
        if sample is None:
            sample = self._histograms[key] = Histogram()
        return sample

    def counter_value(self, name: str, **labels) -> int:
        sample = self._counters.get(sample_key(name, labels))
        return sample.value if sample is not None else 0

    # -- snapshots ---------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The JSON-able merged view of this registry.

        Zero-valued local samples are emitted (a counter that exists is
        a fact worth exposing); empty local histograms are not, so a
        registry that merely *queried* a histogram stays invisible.
        """
        histograms: dict[str, list[dict]] = {}
        for key, states in self._foreign_sketches.items():
            histograms[key] = list(states)
        for key, sample in self._histograms.items():
            if sample.sketch.count:
                histograms.setdefault(key, []).append(sample.sketch.to_dict())
        return {
            "counters": {
                key: sample.value
                for key, sample in sorted(self._counters.items())
            },
            "gauges": {
                key: sample.value
                for key, sample in sorted(self._gauges.items())
            },
            "histograms": {
                key: _canonical_sketches(states)
                for key, states in sorted(histograms.items())
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a remote snapshot into this registry."""
        snapshot = validate_snapshot(snapshot)
        for key, value in snapshot["counters"].items():
            self._counters.setdefault(key, Counter()).inc(value)
        for key, value in snapshot["gauges"].items():
            self._gauges.setdefault(key, Gauge()).high_water(value)
        for key, states in snapshot["histograms"].items():
            self._foreign_sketches.setdefault(key, []).extend(states)


def validate_snapshot(snapshot: dict) -> dict:
    """Normalize a snapshot dict, raising on structural nonsense."""
    if not isinstance(snapshot, dict):
        raise ConfigError(
            f"metrics snapshot must be an object, got {snapshot!r}"
        )
    clean: dict = {}
    for section in SNAPSHOT_SECTIONS:
        value = snapshot.get(section, {})
        if not isinstance(value, dict):
            raise ConfigError(
                f"metrics snapshot section {section!r} must be an object,"
                f" got {value!r}"
            )
        clean[section] = value
    return clean


def _canonical_sketches(states: list[dict]) -> list[dict]:
    """Multiset canonical form: sorted by serialized content."""
    return sorted(states, key=lambda state: json.dumps(state, sort_keys=True))


def merge_snapshots(left: dict, right: dict) -> dict:
    """The associative, commutative merge of two snapshots."""
    left = validate_snapshot(left)
    right = validate_snapshot(right)
    counters = dict(left["counters"])
    for key, value in right["counters"].items():
        counters[key] = counters.get(key, 0) + value
    gauges = dict(left["gauges"])
    for key, value in right["gauges"].items():
        gauges[key] = max(gauges.get(key, value), value)
    histograms = {
        key: list(states) for key, states in left["histograms"].items()
    }
    for key, states in right["histograms"].items():
        histograms.setdefault(key, []).extend(states)
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": {
            key: _canonical_sketches(states)
            for key, states in sorted(histograms.items())
        },
    }


def histogram_stats(states: list[dict]) -> dict:
    """Merged-histogram summary: count/total/max plus weighted quantiles.

    Quantiles of a multiset of P² sketches are count-weighted averages of
    the member sketches' quantile estimates — the standard mergeable
    approximation (each sketch summarizes a disjoint sample).
    """
    count = sum(int(state.get("count", 0)) for state in states)
    if not count:
        return {"count": 0, "total": 0.0, "max": 0.0, "quantiles": {}}
    total = sum(float(state.get("total", 0.0)) for state in states)
    max_value = max(float(state.get("max", 0.0)) for state in states)
    quantile_keys: set[str] = set()
    for state in states:
        quantile_keys.update(state.get("quantiles", {}))
    quantiles = {}
    for key in sorted(quantile_keys):
        weighted = 0.0
        for state in states:
            payload = state.get("quantiles", {}).get(key)
            if payload is None:
                continue
            estimate = P2Quantile.from_dict(payload).result()
            weighted += estimate * int(state.get("count", 0))
        quantiles[key] = weighted / count
    return {
        "count": count,
        "total": total,
        "max": max_value,
        "quantiles": quantiles,
    }


def record_serving_metrics(registry: MetricsRegistry, report) -> None:
    """Count one serving-shaped report's frame outcomes into ``registry``.

    These are the counters the cluster ``metrics`` verb exposes:
    offered/completed/dropped/missed/preempted frame totals, exact across
    merges because they are integer sums.
    """
    registry.counter("frames_offered_total").inc(report.offered)
    registry.counter("frames_completed_total").inc(report.completed)
    registry.counter("frames_dropped_total").inc(report.dropped)
    registry.counter("frames_missed_total").inc(report.missed)
    registry.counter("frames_preempted_total").inc(report.preempted)


def record_report_metrics(registry: MetricsRegistry, report) -> None:
    """Count one executed report of any kind into ``registry``."""
    kind = getattr(report, "kind", None)
    if not kind:
        kind = type(report).__name__.lower().removesuffix("report") or "report"
    registry.counter("reports_total", kind=str(kind)).inc()
    if hasattr(report, "offered"):
        record_serving_metrics(registry, report)
    elif hasattr(report, "preemptions"):
        registry.counter("frames_preempted_total").inc(
            sum(
                1
                for record in report.preemptions
                if record.action == "deschedule"
            )
        )


def render_prometheus(snapshot: dict, *, prefix: str = "repro") -> str:
    """Prometheus text exposition (v0.0.4) of one snapshot.

    Counters become ``<prefix>_<name>``; histograms become summaries with
    ``quantile`` labels, ``_count`` and ``_sum`` series.
    """
    snapshot = validate_snapshot(snapshot)
    lines: list[str] = []
    typed: set[str] = set()

    def emit_type(key: str, kind: str) -> str:
        name, _brace, labels = key.partition("{")
        family = f"{prefix}_{name}"
        if family not in typed:
            typed.add(family)
            lines.append(f"# TYPE {family} {kind}")
        return f"{family}{'{' + labels if labels else ''}"

    for key, value in snapshot["counters"].items():
        lines.append(f"{emit_type(key, 'counter')} {value}")
    for key, value in snapshot["gauges"].items():
        lines.append(f"{emit_type(key, 'gauge')} {_format(value)}")
    for key, states in snapshot["histograms"].items():
        stats = histogram_stats(states)
        name, _brace, labels = key.partition("{")
        family = f"{prefix}_{name}"
        if family not in typed:
            typed.add(family)
            lines.append(f"# TYPE {family} summary")
        base_labels = labels[:-1] if labels else ""
        for quantile_key, value in stats["quantiles"].items():
            quantile = float(quantile_key) / 100.0
            parts = [part for part in (base_labels,) if part]
            parts.append(f'quantile="{quantile:g}"')
            lines.append(f"{family}{{{','.join(parts)}}} {_format(value)}")
        suffix = f"{{{base_labels}}}" if base_labels else ""
        lines.append(f"{family}_count{suffix} {stats['count']}")
        lines.append(f"{family}_sum{suffix} {_format(stats['total'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def _format(value: float) -> str:
    return f"{value:.9g}"


__all__ = [
    "SNAPSHOT_SECTIONS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "histogram_stats",
    "merge_snapshots",
    "record_report_metrics",
    "record_serving_metrics",
    "render_prometheus",
    "sample_key",
    "validate_snapshot",
]
