"""Serving overhead and the timeline core's speedup gate.

Open-loop serving adds two engine-side costs on top of PR 3's timeline
scheduling: QoS review at every event (queued-frame bookkeeping) and the
extra expiry events a ``drop_late`` policy schedules. The first half of
this benchmark times the engine over a saturating Poisson trace with
admission control attached and holds it to the same per-op budget as the
closed-loop scenario benchmark.

The second half is the headline gate: scheduling a long solo serving
trace with ``TimelineScheduler.run`` and with the reference loop
(:func:`repro.schedule.reference.run_reference`) **in the same run** and
asserting the production core is at least :data:`MIN_SPEEDUP` times
faster. The reference loop re-scans every frame head at every event
(admission review), so its cost grows quadratically with trace length
while the production core's condensed solo-chain stepping stays linear —
the ratio is a property of the algorithm, not of machine speed, which is
why a ratio gate is stable enough for CI where an absolute-time gate
would not be.

The multi-stream gate does the same on perfbench's ``serve_multistream``
stream shapes over 64 frames, where ~20 tasks run at once and no solo
chain forms. At every event the reference loop sums every running
task's loads, advances and checks each task on its own, and hands
``drop_late`` a fresh queued-frame dict twice, so the policy sorts
every queued head's expiry twice. The production core keeps
whole-number loads as running totals, advances each share class's
column of remaining work in one step, reads a column's least work from
its front and checks only the prefix within its largest completion
limit, and hands ``drop_late`` one dict per queue change, so an event's
review and next expiry are bisections of an index sorted once; the
ratio grows with the running set. ``benchmarks/baseline.json`` holds
its floor (``multistream_trace`` ``min.speedup``), which
``benchmarks/check_regression.py`` enforces.

Both gates also expand the lowered templates into frames with
``instantiate_frames`` once per round, and ``instantiate_s`` (the best
round's seconds) rides along in the JSON so the trend of frame
expansion, which neither ratio sees, shows in the artifact. It is not
gated: absolute seconds vary with the runner.

Run with::

    pytest benchmarks/bench_serving_trace.py --benchmark-only -s
"""

from __future__ import annotations

import os
import time

from dataclasses import replace

from benchmarks.conftest import emit_bench_json

from repro.api import ScenarioSpec, Session, StreamSpec
from repro.schedule.reference import run_reference
from repro.schedule.streams import instantiate_frames
from repro.schedule.timeline import TimelineScheduler
from repro.serving import ArrivalSpec, QosSpec, make_qos

#: Scheduling-overhead budget per op (seconds) — same as the closed-loop
#: multistream benchmark: QoS must ride along for free at this scale.
PER_OP_BUDGET_S = 50e-6

#: The production core must beat the reference loop by at least this
#: factor on the long-trace scenario below (measured 112-156x at 3072
#: frames; the ratio grows with trace length). It equals
#: ``serving_trace`` ``min.speedup`` in ``baseline.json``.
MIN_SPEEDUP = 100.0

#: Trace length for the speedup gate. Overridable for local smoke runs
#: (the reference leg is the expensive one — it is the point of the gate).
TRACE_FRAMES = int(os.environ.get("REPRO_BENCH_TRACE_FRAMES", "3072"))

#: Offered well above what the platform sustains, so the queue actually
#: builds and the drop path is exercised, not just the happy path.
SCENARIO = ScenarioSpec(
    name="bench-serving-trace",
    platform="sma:2",
    frames=16,
    policy="priority",
    qos=QosSpec(kind="drop_late"),
    streams=(
        StreamSpec(name="det", model="deeplab:nocrf", priority=3.0,
                   deadline_s=0.100,
                   arrivals=ArrivalSpec(kind="poisson", rate_hz=60.0, seed=1)),
        StreamSpec(name="tra", model="goturn", priority=2.0,
                   deadline_s=0.100,
                   arrivals=ArrivalSpec(kind="mmpp", rate_hz=40.0, seed=2)),
        StreamSpec(name="loc", model="orb_slam", priority=1.0,
                   deadline_s=0.100,
                   arrivals=ArrivalSpec(kind="poisson", rate_hz=60.0, seed=3)),
    ),
)

#: Trace length of the multi-stream gate.
MULTISTREAM_FRAMES = 64

#: Alternating rounds of the multi-stream gate; each leg reports its
#: best, which steadies a ratio of two ~1 s timings on a shared runner.
MULTISTREAM_ROUNDS = 5

#: perfbench's ``serve_multistream`` streams (on ``sma:3``) with fixed
#: seeds: the priority-shared, ``drop_late`` case the share plans serve.
MULTISTREAM_SCENARIO = replace(
    SCENARIO,
    name="bench-multistream-speedup",
    platform="sma:3",
    frames=MULTISTREAM_FRAMES,
)

#: The speedup scenario: one saturating stream, so completions form long
#: solo dependency chains the production core condenses, while the
#: reference loop still pays its per-event head scan across all
#: ``TRACE_FRAMES`` frames.
TRACE_SCENARIO = ScenarioSpec(
    name="bench-engine-speedup",
    platform="sma:2",
    frames=TRACE_FRAMES,
    policy="fifo",
    qos=QosSpec(kind="drop_late"),
    streams=(
        StreamSpec(name="tra", model="alexnet", priority=1.0,
                   deadline_s=0.050,
                   arrivals=ArrivalSpec(kind="poisson", rate_hz=120.0, seed=2)),
    ),
)


def _templates(scenario):
    session = Session()
    platform = session.platform(
        scenario.platform, framework_overhead_s=50e-6
    )
    templates = {}
    for stream in scenario.streams:
        platform.reset_schedule_state()
        templates[stream.name] = platform.lower_model(
            session.model(stream.model), stream=stream.name
        )
    return templates


def _lowered_plan(scenario=SCENARIO):
    return instantiate_frames(scenario, _templates(scenario))


def _same_run(scenario, rounds=1):
    """Schedule ``scenario`` with the production core and with the
    reference loop in this process, the legs alternating for ``rounds``
    rounds; assert the timelines are equal and return the task count
    and each leg's best seconds. Each round first expands the lowered
    templates into frames; ``instantiate`` is that step's best time."""
    templates = _templates(scenario)
    elapsed = {}
    timelines = {}
    for _ in range(rounds):
        start = time.perf_counter()
        plan = instantiate_frames(scenario, templates)
        seconds = time.perf_counter() - start
        elapsed["instantiate"] = min(
            seconds, elapsed.get("instantiate", seconds)
        )
        for leg, schedule in (
            ("production", TimelineScheduler.run),
            ("reference", run_reference),
        ):
            scheduler = TimelineScheduler(
                scenario.policy, qos=make_qos(scenario.qos)
            )
            start = time.perf_counter()
            timelines[leg] = schedule(scheduler, plan.tasks)
            seconds = time.perf_counter() - start
            elapsed[leg] = min(seconds, elapsed.get(leg, seconds))

    assert timelines["production"] == timelines["reference"], (
        f"engines diverged on {scenario.name!r}"
    )
    speedup = elapsed["reference"] / elapsed["production"]
    print(
        f"\n{len(plan.tasks)} tasks x2 engines:"
        f" production {elapsed['production']:.3f}s,"
        f" reference {elapsed['reference']:.3f}s -> {speedup:.2f}x"
    )
    return len(plan.tasks), elapsed


def test_serving_overhead_per_op(benchmark):
    plan = _lowered_plan()
    scheduler = TimelineScheduler(
        SCENARIO.policy, qos=make_qos(SCENARIO.qos)
    )

    timeline = benchmark.pedantic(
        lambda: scheduler.run(plan.tasks), rounds=5, iterations=1
    )
    assert timeline.makespan_s > 0
    assert timeline.drops, "saturating trace must exercise the drop path"
    per_op = benchmark.stats.stats.mean / len(plan.tasks)
    print(
        f"\n{len(plan.tasks)} tasks scheduled, {len(timeline.drops)}"
        f" dropped; {per_op * 1e6:.2f} us/op"
        f" (budget {PER_OP_BUDGET_S * 1e6:.0f} us)"
    )
    assert per_op < PER_OP_BUDGET_S


def test_serving_overhead_without_harness():
    """Plain-timer fallback so the budget also gates `pytest benchmarks`
    runs without --benchmark-only."""
    plan = _lowered_plan()
    scheduler = TimelineScheduler(
        SCENARIO.policy, qos=make_qos(SCENARIO.qos)
    )
    timeline = scheduler.run(plan.tasks)  # warm
    assert timeline.drops
    start = time.perf_counter()
    rounds = 3
    for _ in range(rounds):
        scheduler.run(plan.tasks)
    per_op = (time.perf_counter() - start) / rounds / len(plan.tasks)
    assert per_op < PER_OP_BUDGET_S


def test_engine_speedup_same_run():
    """Production core vs reference loop, same trace, same process: the
    production core must be >= 100x faster.

    Also pins output parity — the ratio would be meaningless if the fast
    core computed a different schedule.
    """
    tasks, elapsed = _same_run(TRACE_SCENARIO)
    speedup = elapsed["reference"] / elapsed["production"]
    per_op = elapsed["production"] / tasks
    emit_bench_json(
        "serving_trace",
        ops=tasks,
        seconds=elapsed["production"],
        extra={
            "scalar_seconds": round(elapsed["reference"], 6),
            "speedup": round(speedup, 2),
            "frames": TRACE_FRAMES,
            "instantiate_s": round(elapsed["instantiate"], 6),
        },
    )
    if TRACE_FRAMES >= 3072:
        assert speedup >= MIN_SPEEDUP, (
            f"production core only {speedup:.1f}x faster"
            f" (gate {MIN_SPEEDUP:.0f}x)"
        )
    assert per_op < PER_OP_BUDGET_S


def test_multistream_speedup_same_run():
    """Production core vs reference loop on the multi-stream trace, same
    process, equal timelines; the speedup floor is
    ``multistream_trace`` ``min.speedup`` in ``baseline.json``."""
    tasks, elapsed = _same_run(MULTISTREAM_SCENARIO, MULTISTREAM_ROUNDS)
    emit_bench_json(
        "multistream_trace",
        ops=tasks,
        seconds=elapsed["production"],
        extra={
            "scalar_seconds": round(elapsed["reference"], 6),
            "speedup": round(elapsed["reference"] / elapsed["production"], 2),
            "frames": MULTISTREAM_FRAMES,
            "rounds": MULTISTREAM_ROUNDS,
            "instantiate_s": round(elapsed["instantiate"], 6),
        },
    )
