"""Bounded-memory streaming serving: million-frame traces, O(1) state.

:func:`serve_streaming` drives the timeline core
(:class:`~repro.schedule.vectorized.VectorCore`) frame-by-frame instead
of materializing a scenario's full task set: each stream's arrivals come
from the lazy :func:`~repro.serving.traces.iter_arrivals` iterator via a
:class:`~repro.schedule.streams.FrameSource`, tasks are injected just in
time, and every retired frame folds into O(1) per-stream accumulators
(counts, running sum/max, P² latency sketches) before its engine state
is pruned. Peak memory is the *in-flight* frame window — queue depth,
not trace length — so a 1M-frame Poisson trace needs the same few
kilobytes of live state as a 16-frame one (admission control, or offered
load below capacity, is what keeps that window bounded; an uncontrolled
overload grows backlog in any engine).

Injection timing is chosen so the engine observes *exactly* the event
sequence of a materialized run:

* a stream's next frame is injected the moment its static release passes
  (so QoS review sees it queued, blocked or not — reference semantics), or
* the moment the previous frame's last task resolves (so the dependency
  satisfaction lands at the same instant the materialized run's would),

whichever comes first. Un-injected frames satisfy neither condition and
would contribute no event to a materialized run either. Consequently,
with ``keep_records=True`` the resulting :class:`ServingReport` equals
the materialized ``run_serving`` report *exactly*; without it, per-frame
records are replaced by P² sketch estimates for the percentile fields
(documented tolerance: estimates, not exact order statistics — and
``mean_latency_s`` may differ in final ulps because summation follows
retirement order rather than frame order).

Closed-loop streams are rejected (:meth:`Session.run_serving
<repro.api.session.Session.run_serving>` serves them): their releases
depend on completions, which makes the whole trace one dependency chain
with no static schedule to stream against.
"""

from __future__ import annotations

from repro.api.results import ServingReport, ServingStreamReport
from repro.common.stats import QuantileSketch
from repro.errors import ConfigError
from repro.schedule.policies import make_policy
from repro.schedule.streams import (
    FrameRecord,
    FrameRun,
    ScenarioSpec,
    frame_sources,
)
from repro.schedule.timeline import Timeline
from repro.schedule.vectorized import VectorCore
from repro.serving.qos import make_qos


class _FrameState:
    """One in-flight frame's resolution bookkeeping."""

    __slots__ = ("run", "unresolved", "max_end", "drop")

    def __init__(self, run: FrameRun) -> None:
        self.run = run
        self.unresolved = len(run.uids)
        self.max_end: float | None = None
        # The lowest-uid drop or abort record among the frame's tasks.
        self.drop = None


class _StreamState:
    """One stream's accumulators and frame pipeline."""

    def __init__(self, source, keep_records: bool) -> None:
        self.source = source
        self.lookahead = source.next_frame()
        self.offered = 0
        self.completed = 0
        self.dropped = 0
        self.missed = 0
        self.met = 0
        self.preempted = 0
        self.sketch = QuantileSketch()
        self.records: dict[int, FrameRecord] | None = (
            {} if keep_records else None
        )


def serve_streaming(
    scenario: ScenarioSpec,
    templates: dict,
    interference=None,
    *,
    platform: str,
    tag: str | None = None,
    keep_records: bool = False,
    max_events: int | None = None,
    stats_out: dict | None = None,
    tracer=None,
) -> ServingReport:
    """Serve ``scenario`` through the streaming engine (see module doc).

    ``templates`` maps stream names to platform-lowered task chains, as
    for :func:`~repro.schedule.streams.instantiate_frames`. When
    ``stats_out`` is given, engine counters (``peak_live`` tasks,
    ``events``) are written into it — the memory-bound benchmarks gate
    on ``peak_live`` staying at queue-depth scale. ``tracer`` — an
    optional :class:`~repro.obs.trace.Tracer` — records the engine's
    structured events without changing the report by a byte (the trace
    grows with trace length, so leave it off for million-frame runs).
    """
    for stream in scenario.streams:
        if stream.closed_loop:
            raise ConfigError(
                f"stream {stream.name!r}: closed_loop arrivals are paced by"
                " completions and cannot be streamed; serve the scenario"
                " without --streaming (Session.run_serving)"
            )
    sources = frame_sources(scenario, templates)
    if max_events is None:
        total_frames = scenario.frames * max(1, len(scenario.streams))
        max_events = max(10_000_000, 16 * total_frames)

    streams = [_StreamState(source, keep_records) for source in sources]
    by_uid_frame: dict[int, tuple[_StreamState, _FrameState]] = {}
    await_inject: dict[int, _StreamState] = {}
    global_sketch = QuantileSketch()

    core = VectorCore(
        make_policy(scenario.policy),
        qos=make_qos(scenario.qos),
        interference=interference,
        max_events=max_events,
        collect=False,
        tracer=tracer,
    )

    def inject_frame(state: _StreamState) -> None:
        run, tasks = state.lookahead
        frame_state = _FrameState(run)
        for uid in run.uids:
            by_uid_frame[uid] = (state, frame_state)
        # The frame after this one is due when this one's last task
        # resolves (or when its own release passes — the feeder's job).
        await_inject[run.uids[-1]] = state
        state.lookahead = state.source.next_frame()
        core.inject(tasks)

    def retire(state: _StreamState, frame_state: _FrameState) -> None:
        run = frame_state.run
        drop = frame_state.drop
        record = FrameRecord.from_run(
            run, run.release_s, frame_state.max_end, drop
        )
        state.offered += 1
        if record.dropped:
            state.dropped += 1
            if getattr(drop, "action", None) == "abort":
                state.preempted += 1
        else:
            state.completed += 1
            if record.missed:
                state.missed += 1
            else:
                state.met += 1
            state.sketch.add(record.latency_s)
            global_sketch.add(record.latency_s)
        if state.records is not None:
            state.records[run.frame] = record
        for uid in run.uids:
            del by_uid_frame[uid]
        await_inject.pop(run.uids[-1], None)
        core.prune(run.uids)

    def on_resolve(task, end_s, drop_record) -> None:
        state, frame_state = by_uid_frame[task.uid]
        if end_s is not None:
            if frame_state.max_end is None or end_s > frame_state.max_end:
                frame_state.max_end = end_s
        elif (
            frame_state.drop is None or drop_record.uid < frame_state.drop.uid
        ):
            frame_state.drop = drop_record
        frame_state.unresolved -= 1
        # Pull the stream's next frame in at the same instant the
        # materialized run's dependency satisfaction would fire.
        waiter = await_inject.get(task.uid)
        if waiter is not None and waiter.lookahead is not None:
            inject_frame(waiter)
        if frame_state.unresolved == 0:
            retire(state, frame_state)

    core.on_resolve = on_resolve

    def feeder(now: float) -> None:
        # Frames whose static release has passed join the engine even
        # while dependency-blocked, exactly like a materialized run's
        # queued-but-blocked heads.
        for state in streams:
            while (
                state.lookahead is not None
                and state.lookahead[0].release_s <= now
            ):
                inject_frame(state)

    for state in streams:
        if state.lookahead is not None:
            inject_frame(state)
    core.run_loop(feeder=feeder)
    if stats_out is not None:
        stats_out["peak_live"] = core.peak_live
        stats_out["events"] = core.events

    busy, load_integral = core.accounting()
    shell = Timeline(
        segments=(),
        makespan_s=core.now,
        busy_s=busy,
        load_integral_s=load_integral,
        mode_switches=core.mode_switches,
        switch_overhead_s=core.switch_overhead,
        drops=(),
    )
    makespan = shell.makespan_s

    reports = []
    for spec, state in zip(scenario.streams, streams):
        if state.records is not None:
            # Exact mode: the records in frame order go through the same
            # constructor as ServingReport.from_timeline (bit-identical).
            reports.append(
                ServingStreamReport.from_frames(
                    spec,
                    tuple(state.records[key] for key in sorted(state.records)),
                    skipped=state.source.skipped,
                    preempted=state.preempted,
                    makespan_s=makespan,
                )
            )
        else:
            sketch = state.sketch
            reports.append(
                ServingStreamReport(
                    name=spec.name,
                    model=spec.model,
                    priority=spec.priority,
                    offered=state.offered,
                    completed=state.completed,
                    dropped=state.dropped,
                    missed=state.missed,
                    skipped=state.source.skipped,
                    mean_latency_s=sketch.mean,
                    max_latency_s=sketch.max_value,
                    p50_s=sketch.quantile(50),
                    p95_s=sketch.quantile(95),
                    p99_s=sketch.quantile(99),
                    goodput_fps=state.met / makespan if makespan > 0 else 0.0,
                    frames=(),
                    sketches=sketch.to_dict(),
                    preempted=state.preempted,
                )
            )

    return ServingReport(
        scenario=scenario.name,
        platform=platform,
        policy=scenario.policy,
        frames=scenario.frames,
        makespan_s=makespan,
        streams=tuple(reports),
        occupancy=shell.occupancy(),
        mode_switches=core.mode_switches,
        switch_overhead_s=core.switch_overhead,
        qos=scenario.qos.to_dict() if scenario.qos is not None else None,
        tag=tag,
        sketches=None if keep_records else global_sketch.to_dict(),
    )


__all__ = ["serve_streaming"]
