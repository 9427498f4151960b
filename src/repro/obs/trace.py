"""Structured timeline tracing with a zero-overhead-when-off contract.

A :class:`Tracer` is an opt-in event log the timeline engine appends to
at its dispatch/completion/QoS decision points. Two invariants make it
safe to attach anywhere:

* **Transparency** — the tracer only *observes*: it never touches a
  simulation float, so a run with a tracer attached produces reports
  byte-identical to one without (pinned by golden tests and the
  ``trace_transparency`` fuzz oracle).
* **Engine parity** — the production core and the reference loop
  (:mod:`repro.schedule.reference`) emit the *same* event sequence for
  the same input, exactly as their timelines are bit-identical. The
  parity gate in ``tests/obs`` compares the raw sequences
  element-for-element.

The hot paths record plain tuples (one list append per event); the
structured :class:`TraceEvent` view is materialized lazily via
:attr:`Tracer.events`, so tracing-on overhead stays within the CI gate
(``benchmarks/bench_obs_overhead.py``) and tracing-off overhead is one
``is not None`` test per site.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.codec import WHEN_SET, Codec, checked
from repro.errors import ConfigError

#: Every event kind a tracer can record, in no particular order.
#: ``begin``/``end`` bound kernel-execution spans; ``switch`` marks a
#: cross-stream mode-switch surcharge; the rest are instants mirroring
#: the engine's QoS/preemption records.
EVENT_KINDS = ("begin", "end", "switch", "drop", "abort", "deschedule")


@dataclass(frozen=True)
class TraceEvent(Codec):
    """One structured trace event (the lazy view over a tuple record).

    ``release_s`` (begin only) is the instant the frame became runnable —
    the queueing span is ``[release_s, time_s]``. ``resources`` (begin
    only) are the claimed resource kinds, in claim order, for per-resource
    utilization tracks. ``reason`` rides the QoS/preemption instants and
    ``cost_s`` the switch surcharge.
    """

    kind: str
    time_s: float
    uid: int
    name: str
    stream: str
    frame: int
    mode: str = field(default="simd", metadata=WHEN_SET)
    release_s: float | None = field(default=None, metadata=WHEN_SET)
    resources: tuple[str, ...] = field(default=(), metadata=WHEN_SET)
    reason: str | None = field(default=None, metadata=WHEN_SET)
    cost_s: float | None = field(default=None, metadata=WHEN_SET)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigError(
                f"trace event kind must be one of {EVENT_KINDS}, got"
                f" {self.kind!r}"
            )
        object.__setattr__(self, "resources", tuple(self.resources))


class Tracer:
    """An append-only event log the timeline engine feeds.

    Attach one via ``TimelineScheduler(..., tracer=Tracer())`` (or the
    ``Session.run_*`` / ``serve_streaming`` pass-throughs), run, then
    read :attr:`events` or hand the tracer to
    :func:`repro.obs.perfetto.export_chrome_trace`.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        #: Raw event tuples, in emission order:
        #: ``(kind, time_s, uid, name, stream, frame, mode, release_s,
        #: resources, reason, cost_s)``. The parity gate compares these
        #: directly; everything else should prefer :attr:`events`.
        self.records: list[tuple] = []

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"Tracer(events={len(self.records)})"

    # -- engine-facing recording (hot paths: one append each) --------------------------
    def begin(self, now: float, task) -> None:
        """Kernel dispatch: ``task`` starts executing at ``now``."""
        self.records.append(
            (
                "begin", now, task.uid, task.name, task.stream, task.frame,
                task.mode, task.release_s,
                tuple(claim.kind.value for claim in task.claims), None, None,
            )
        )

    def end(self, now: float, task) -> None:
        """Kernel completion at ``now``."""
        self.records.append(
            (
                "end", now, task.uid, task.name, task.stream, task.frame,
                task.mode, None, (), None, None,
            )
        )

    def switch(self, now: float, task, cost_s: float) -> None:
        """Cross-stream mode switch charged to ``task`` at dispatch."""
        self.records.append(
            (
                "switch", now, task.uid, task.name, task.stream, task.frame,
                task.mode, None, (), None, cost_s,
            )
        )

    def instant(self, kind: str, record) -> None:
        """A QoS/preemption instant mirroring an engine record.

        ``record`` is a :class:`~repro.schedule.timeline.DropRecord` or
        :class:`~repro.schedule.timeline.PreemptRecord` — both carry
        ``uid``/``name``/``stream``/``frame``/``time_s``/``reason``.
        """
        self.records.append(
            (
                kind, record.time_s, record.uid, record.name, record.stream,
                record.frame, "simd", None, (), record.reason, None,
            )
        )

    # -- structured views --------------------------------------------------------------
    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """The structured view, materialized on demand."""
        return tuple(
            TraceEvent(
                kind=kind, time_s=time_s, uid=uid, name=name, stream=stream,
                frame=frame, mode=mode, release_s=release_s,
                resources=resources, reason=reason, cost_s=cost_s,
            )
            for (kind, time_s, uid, name, stream, frame, mode, release_s,
                 resources, reason, cost_s) in self.records
        )

    # Hand-written: the events are stored as raw tuples, not fields.
    def to_dict(self) -> dict:
        return {
            "kind": "trace",
            "events": [event.to_dict() for event in self.events],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    @checked
    def from_dict(cls, data: dict) -> "Tracer":
        if not isinstance(data, dict):
            raise ConfigError(f"trace must be an object, got {data!r}")
        kind = data.get("kind", "trace")
        if kind != "trace":
            raise ConfigError(
                f"Tracer.from_dict got kind={kind!r}, expected 'trace'"
            )
        tracer = cls()
        for entry in data.get("events", ()):
            event = TraceEvent.from_dict(entry)
            tracer.records.append(
                (
                    event.kind, event.time_s, event.uid, event.name,
                    event.stream, event.frame, event.mode, event.release_s,
                    event.resources, event.reason, event.cost_s,
                )
            )
        return tracer

    @classmethod
    def from_json(cls, text: str) -> "Tracer":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigError(f"invalid trace JSON: {error}") from None
        return cls.from_dict(data)

    def save(self, path: "str | Path") -> None:
        Path(path).write_text(self.to_json(indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path: "str | Path") -> "Tracer":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise ConfigError(
                f"cannot read trace {str(path)!r}: {error}"
            ) from None
        return cls.from_json(text)


__all__ = ["EVENT_KINDS", "TraceEvent", "Tracer"]
