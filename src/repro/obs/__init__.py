"""``repro.obs`` — deterministic tracing, fleet metrics, Perfetto export.

The observability layer for the simulator, in three pieces:

* :mod:`~repro.obs.trace` — a zero-overhead-when-off structured tracer
  the timeline engine feeds (spans for kernel execution and queueing,
  instants for switches, drops, aborts, and preemption deschedules),
  event for event as the reference loop does. Attaching a tracer never
  changes a report byte — the transparency contract is pinned by tests
  and a fuzz oracle.
* :mod:`~repro.obs.perfetto` — a Chrome-trace-event exporter rendering
  per-stream tracks, per-resource utilization counters, and QoS
  instants, openable directly in ``ui.perfetto.dev``.
* :mod:`~repro.obs.metrics` / :mod:`~repro.obs.selfprof` — a metrics
  registry (integer counters, peak gauges, P²-sketch histograms) whose
  snapshots merge associatively across sweep workers and cluster
  servers, Prometheus text exposition, and per-phase wall-time
  self-profiling. The cluster ``metrics`` verb serves these snapshots.

Everything here is observation-only: no module in this package is
imported by an engine hot path unless a tracer/registry is attached.
"""

from repro.obs.metrics import (
    SNAPSHOT_SECTIONS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_stats,
    merge_snapshots,
    record_report_metrics,
    record_serving_metrics,
    render_prometheus,
    sample_key,
    validate_snapshot,
)
from repro.obs.perfetto import (
    QUEUE_PID,
    RESOURCE_PID,
    STREAM_PID,
    export_chrome_trace,
    save_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.selfprof import PHASE_METRIC, profile_phase
from repro.obs.trace import EVENT_KINDS, TraceEvent, Tracer

__all__ = [
    "EVENT_KINDS",
    "PHASE_METRIC",
    "QUEUE_PID",
    "RESOURCE_PID",
    "SNAPSHOT_SECTIONS",
    "STREAM_PID",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceEvent",
    "Tracer",
    "export_chrome_trace",
    "histogram_stats",
    "merge_snapshots",
    "profile_phase",
    "record_report_metrics",
    "record_serving_metrics",
    "render_prometheus",
    "sample_key",
    "save_chrome_trace",
    "validate_chrome_trace",
    "validate_snapshot",
]
