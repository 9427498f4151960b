"""Preemption-latency budget for the ``exclusive_preempt`` policy.

The inversion fix's measurable promise: under ``exclusive_preempt`` a
high-priority frame arriving mid low-priority frame waits for the
in-flight *kernel*, never the whole frame. This benchmark schedules a
preemption-heavy multi-stream trace (sparse high-priority arrivals over
a saturating low-priority backlog — the shape that forces deschedules),
asserts the start-delay bound semantically, pins parity with the
reference loop, and emits a ``BENCH_preemption.json`` artifact so
``check_regression.py`` gates the engine's per-op cost with the
preemption machinery actually firing.

Run with::

    pytest benchmarks/bench_preemption.py -q -s
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit_bench_json

from repro.api import ScenarioSpec, Session, StreamSpec
from repro.schedule.reference import run_reference
from repro.schedule.streams import instantiate_frames
from repro.schedule.timeline import TimelineScheduler
from repro.serving import ArrivalSpec

#: Engine overhead budget per op with preemption review active — same
#: order as the non-preemptive serving benchmarks: the deschedule path
#: must not change the engine's complexity class.
PER_OP_BUDGET_S = 50e-6

#: High-priority stream: sparse periodic arrivals so each frame lands
#: mid-flight of the low-priority backlog below (cadence mirrors the
#: ``preemption_storm`` fuzz family).
FRAMES = 96

SCENARIO = ScenarioSpec(
    name="bench-preemption",
    platform="sma:2",
    frames=FRAMES,
    policy="exclusive_preempt",
    streams=(
        StreamSpec(name="hot", model="goturn", priority=3.0,
                   arrivals=ArrivalSpec(kind="fixed", rate_hz=8.0)),
        StreamSpec(name="bulk-a", model="alexnet", priority=2.0,
                   arrivals=ArrivalSpec(kind="fixed", rate_hz=120.0)),
        StreamSpec(name="bulk-b", model="deeplab:nocrf", priority=1.0,
                   arrivals=ArrivalSpec(kind="fixed", rate_hz=120.0)),
    ),
)


def _lowered_plan():
    session = Session()
    platform = session.platform(
        SCENARIO.platform, framework_overhead_s=50e-6
    )
    templates = {}
    for stream in SCENARIO.streams:
        platform.reset_schedule_state()
        templates[stream.name] = platform.lower_model(
            session.model(stream.model), stream=stream.name
        )
    return instantiate_frames(SCENARIO, templates)


def test_preemption_latency_budget():
    """Deschedule latency is kernel-bounded; per-op cost is gated.

    ``exclusive_preempt`` runs one task at a time, so a newly released
    high-priority head waits for at most the in-flight kernel (plus the
    substrate switch charge) before its first segment starts. The bound
    is computed from the lowered plan itself — the longest single kernel
    — so it tracks the models, not a hand-tuned constant.
    """
    plan = _lowered_plan()
    elapsed = {}
    timelines = {}
    for leg, schedule in (
        ("production", TimelineScheduler.run),
        ("reference", run_reference),
    ):
        scheduler = TimelineScheduler(SCENARIO.policy)
        start = time.perf_counter()
        timelines[leg] = schedule(scheduler, plan.tasks)
        elapsed[leg] = time.perf_counter() - start
    timeline = timelines["production"]

    assert timelines["reference"] == timeline, (
        "engines diverged on the preemption trace"
    )
    descheds = [
        record for record in timeline.preemptions
        if record.action == "deschedule"
    ]
    assert descheds, "trace must actually exercise the deschedule path"

    # Kernel bound: longest single task anywhere in the plan, plus the
    # worst-case cross-stream substrate switch charge.
    kernel_bound = max(task.seconds for task in plan.tasks)
    switch_bound = max(
        (task.cross_switch_s for task in plan.tasks), default=0.0
    )
    bound = kernel_bound + switch_bound + 1e-9

    first_start = {}
    for segment in timeline.segments:
        if segment.uid not in first_start:
            first_start[segment.uid] = segment.start_s
    delays = []
    for run in plan.runs:
        if run.stream != "hot":
            continue
        head = run.uids[0]
        if head in first_start:
            delays.append(first_start[head] - run.release_s)
    assert delays, "high-priority frames must have run"
    max_delay = max(delays)
    assert max_delay <= bound, (
        f"high-priority start delay {max_delay * 1e3:.3f} ms exceeds the"
        f" one-kernel bound {bound * 1e3:.3f} ms — priority inversion"
    )

    per_op = elapsed["production"] / len(plan.tasks)
    print(
        f"\n{len(plan.tasks)} tasks, {len(descheds)} deschedules;"
        f" max high-prio start delay {max_delay * 1e3:.3f} ms"
        f" (kernel bound {bound * 1e3:.3f} ms);"
        f" {per_op * 1e6:.2f} us/op (budget {PER_OP_BUDGET_S * 1e6:.0f} us)"
    )
    emit_bench_json(
        "preemption",
        ops=len(plan.tasks),
        seconds=elapsed["production"],
        extra={
            "scalar_seconds": round(elapsed["reference"], 6),
            "deschedules": len(descheds),
            "max_start_delay_s": round(max_delay, 9),
            "kernel_bound_s": round(bound, 9),
            "frames": FRAMES,
        },
    )
    assert per_op < PER_OP_BUDGET_S
