"""Timeline engine unit tests: sharing math, ordering, determinism."""

import copy

import pytest

from repro.errors import SchedulingError
from repro.schedule.policies import make_policy
from repro.schedule.reference import run_reference
from repro.schedule.resources import ResourceClaim, ResourceKind
from repro.schedule.streams import ScenarioSpec, StreamSpec, instantiate_frames
from repro.schedule.timeline import (
    DropRecord,
    OpTask,
    PreemptRecord,
    TimelineScheduler,
    TimelineSegment,
)
from repro.serving.qos import QosSpec, make_qos
from repro.serving.streaming import serve_streaming
from repro.serving.traces import ArrivalSpec

SIMD = (ResourceClaim(ResourceKind.SIMD),)
ARRAY_AND_SIMD = (
    ResourceClaim(ResourceKind.ARRAY),
    ResourceClaim(ResourceKind.SIMD),
)


def chain(durations, claims=SIMD, stream="main", **kwargs):
    return [
        OpTask(
            uid=index,
            name=f"op{index}",
            seconds=duration,
            claims=claims,
            stream=stream,
            deps=(index - 1,) if index else (),
            **kwargs,
        )
        for index, duration in enumerate(durations)
    ]


class TestSingleStream:
    def test_chain_makespan_is_exact_sum(self):
        durations = [0.1, 0.23456, 1e-6, 3.14]
        timeline = TimelineScheduler().run(chain(durations))
        total = 0.0
        for duration in durations:
            total += duration
        assert timeline.makespan_s == total  # bit-for-bit, not approx

    def test_segments_in_chain_order(self):
        timeline = TimelineScheduler().run(chain([1.0, 2.0, 3.0]))
        assert [segment.name for segment in timeline.segments] == [
            "op0", "op1", "op2",
        ]
        assert [segment.stretch for segment in timeline.segments] == [
            1.0, 1.0, 1.0,
        ]

    def test_empty_schedule(self):
        timeline = TimelineScheduler().run([])
        assert timeline.makespan_s == 0.0
        assert timeline.segments == ()

    def test_zero_length_task(self):
        timeline = TimelineScheduler().run(chain([0.0, 1.0]))
        assert timeline.makespan_s == 1.0


class TestProcessorSharing:
    def test_two_full_claimants_time_multiplex(self):
        tasks = [
            OpTask(uid=0, name="a", seconds=1.0, claims=SIMD, stream="s0"),
            OpTask(uid=1, name="b", seconds=1.0, claims=SIMD, stream="s1"),
        ]
        timeline = TimelineScheduler().run(tasks)
        # Work conserving: both finish at the sum of the work.
        assert timeline.makespan_s == pytest.approx(2.0)
        for segment in timeline.segments:
            assert segment.stretch == pytest.approx(2.0)

    def test_unequal_lengths_release_capacity(self):
        tasks = [
            OpTask(uid=0, name="short", seconds=1.0, claims=SIMD, stream="s0"),
            OpTask(uid=1, name="long", seconds=3.0, claims=SIMD, stream="s1"),
        ]
        timeline = TimelineScheduler().run(tasks)
        ends = {segment.name: segment.end_s for segment in timeline.segments}
        assert ends["short"] == pytest.approx(2.0)  # 1.0 work at half speed
        assert ends["long"] == pytest.approx(4.0)   # remainder at full speed

    def test_ancillary_fraction_stretches_full_claimant(self):
        # A TC GEMM with a 0.7 SIMD-side claim co-runs with a SIMD kernel:
        # the SIMD kernel sees load 1.7 and both stretch by 1.7 (the
        # derived co-run contention).
        tc = OpTask(
            uid=0,
            name="tc_gemm",
            seconds=1.0,
            claims=(
                ResourceClaim(ResourceKind.TC),
                ResourceClaim(ResourceKind.SIMD, 0.7),
            ),
            mode="tc",
            stream="tc",
        )
        simd = OpTask(
            uid=1, name="kernel", seconds=1.0, claims=SIMD, stream="simd"
        )
        timeline = TimelineScheduler().run([tc, simd])
        by_name = {segment.name: segment for segment in timeline.segments}
        assert by_name["kernel"].end_s == pytest.approx(1.7)
        assert by_name["tc_gemm"].end_s == pytest.approx(1.7)

    def test_disjoint_resources_run_concurrently(self):
        tasks = [
            OpTask(uid=0, name="host", seconds=2.0, stream="a",
                   claims=(ResourceClaim(ResourceKind.HOST),), mode="host"),
            OpTask(uid=1, name="simd", seconds=2.0, stream="b", claims=SIMD),
        ]
        timeline = TimelineScheduler().run(tasks)
        assert timeline.makespan_s == pytest.approx(2.0)

    def test_systolic_aliases_the_simd_substrate(self):
        # Temporal integration: a systolic task owns ARRAY and SIMD, so a
        # SIMD co-runner multiplexes with it instead of running beside it.
        tasks = [
            OpTask(uid=0, name="systolic", seconds=1.0, stream="a",
                   claims=ARRAY_AND_SIMD, mode="systolic"),
            OpTask(uid=1, name="simd", seconds=1.0, stream="b", claims=SIMD),
        ]
        timeline = TimelineScheduler().run(tasks)
        assert timeline.makespan_s == pytest.approx(2.0)

    def test_occupancy_accounting(self):
        tasks = [
            OpTask(uid=0, name="host", seconds=1.0, stream="a",
                   claims=(ResourceClaim(ResourceKind.HOST),), mode="host"),
            OpTask(uid=1, name="simd", seconds=4.0, stream="b", claims=SIMD),
        ]
        timeline = TimelineScheduler().run(tasks)
        occupancy = timeline.occupancy()
        assert occupancy["simd"] == pytest.approx(1.0)
        assert occupancy["host"] == pytest.approx(0.25)


class TestReleasesAndDeps:
    def test_release_delays_start(self):
        task = OpTask(
            uid=0, name="late", seconds=1.0, claims=SIMD, release_s=5.0
        )
        timeline = TimelineScheduler().run([task])
        assert timeline.segments[0].start_s == pytest.approx(5.0)
        assert timeline.makespan_s == pytest.approx(6.0)

    def test_dependency_across_streams(self):
        tasks = [
            OpTask(uid=0, name="a", seconds=1.0, claims=SIMD, stream="s0"),
            OpTask(uid=1, name="b", seconds=1.0, claims=SIMD, stream="s1",
                   deps=(0,)),
        ]
        timeline = TimelineScheduler().run(tasks)
        assert timeline.makespan_s == pytest.approx(2.0)
        assert timeline.segments[1].start_s == pytest.approx(1.0)

    def test_unknown_dep_rejected(self):
        task = OpTask(uid=0, name="a", seconds=1.0, claims=SIMD, deps=(99,))
        with pytest.raises(SchedulingError):
            TimelineScheduler().run([task])

    def test_duplicate_uids_rejected(self):
        tasks = [
            OpTask(uid=0, name="a", seconds=1.0, claims=SIMD),
            OpTask(uid=0, name="b", seconds=1.0, claims=SIMD),
        ]
        with pytest.raises(SchedulingError):
            TimelineScheduler().run(tasks)


class TestWeightedSharing:
    def test_priority_shares_are_proportional(self):
        tasks = [
            OpTask(uid=0, name="high", seconds=1.0, claims=SIMD,
                   stream="hi", weight=3.0),
            OpTask(uid=1, name="low", seconds=1.0, claims=SIMD,
                   stream="lo", weight=1.0),
        ]
        timeline = TimelineScheduler("priority").run(tasks)
        by_name = {segment.name: segment for segment in timeline.segments}
        # load = 4; high runs at 3/4 speed -> done at 4/3.
        assert by_name["high"].end_s == pytest.approx(4.0 / 3.0)
        assert by_name["low"].end_s == pytest.approx(2.0)

    def test_fifo_ignores_weights(self):
        tasks = [
            OpTask(uid=0, name="high", seconds=1.0, claims=SIMD,
                   stream="hi", weight=3.0),
            OpTask(uid=1, name="low", seconds=1.0, claims=SIMD,
                   stream="lo", weight=1.0),
        ]
        timeline = TimelineScheduler("fifo").run(tasks)
        for segment in timeline.segments:
            assert segment.end_s == pytest.approx(2.0)

    def test_exclusive_serializes_by_priority(self):
        tasks = [
            OpTask(uid=0, name="low", seconds=1.0, claims=SIMD,
                   stream="lo", weight=1.0),
            OpTask(uid=1, name="high", seconds=1.0, claims=SIMD,
                   stream="hi", weight=2.0),
        ]
        timeline = TimelineScheduler("exclusive").run(tasks)
        assert [segment.name for segment in timeline.segments] == [
            "high", "low",
        ]
        for segment in timeline.segments:
            assert segment.stretch == pytest.approx(1.0)

    def test_unknown_policy(self):
        with pytest.raises(SchedulingError):
            make_policy("banana")


class TestModeSwitches:
    def test_cross_stream_switch_charged(self):
        tasks = [
            OpTask(uid=0, name="sys", seconds=1.0, stream="a",
                   claims=ARRAY_AND_SIMD, mode="systolic",
                   cross_switch_s=0.25),
            OpTask(uid=1, name="simd", seconds=1.0, stream="b",
                   claims=SIMD, mode="simd", deps=(0,),
                   cross_switch_s=0.25),
        ]
        timeline = TimelineScheduler().run(tasks)
        assert timeline.mode_switches == 1
        assert timeline.switch_overhead_s == pytest.approx(0.25)
        assert timeline.makespan_s == pytest.approx(2.25)

    def test_same_stream_switch_not_charged(self):
        # Intra-stream switches are priced during lowering, not here.
        tasks = [
            OpTask(uid=0, name="sys", seconds=1.0, stream="a",
                   claims=ARRAY_AND_SIMD, mode="systolic",
                   cross_switch_s=0.25),
            OpTask(uid=1, name="simd", seconds=1.0, stream="a",
                   claims=SIMD, mode="simd", deps=(0,),
                   cross_switch_s=0.25),
        ]
        timeline = TimelineScheduler().run(tasks)
        assert timeline.mode_switches == 0
        assert timeline.makespan_s == pytest.approx(2.0)

    def test_same_mode_cross_stream_not_charged(self):
        tasks = [
            OpTask(uid=0, name="a", seconds=1.0, stream="a",
                   claims=SIMD, mode="simd", cross_switch_s=0.25),
            OpTask(uid=1, name="b", seconds=1.0, stream="b",
                   claims=SIMD, mode="simd", deps=(0,),
                   cross_switch_s=0.25),
        ]
        timeline = TimelineScheduler().run(tasks)
        assert timeline.mode_switches == 0


class TestValidation:
    def test_negative_duration_rejected(self):
        with pytest.raises(SchedulingError):
            OpTask(uid=0, name="bad", seconds=-1.0, claims=SIMD)

    def test_empty_claims_rejected(self):
        with pytest.raises(SchedulingError):
            OpTask(uid=0, name="bad", seconds=1.0, claims=())

    def test_bad_claim_fraction(self):
        with pytest.raises(SchedulingError):
            ResourceClaim(ResourceKind.SIMD, 0.0)
        with pytest.raises(SchedulingError):
            ResourceClaim(ResourceKind.SIMD, 1.5)

    def test_determinism(self):
        tasks = [
            OpTask(uid=index, name=f"t{index}", seconds=0.1 * (index + 1),
                   claims=SIMD, stream=f"s{index % 3}")
            for index in range(12)
        ]
        first = TimelineScheduler().run(tasks)
        second = TimelineScheduler().run(tasks)
        assert first.makespan_s == second.makespan_s
        assert first.segments == second.segments


# -- the engines never change what they are given --------------------------------------

#: Three lowered chains with distinct share classes: the systolic array
#: with the SIMD substrate, a TensorCore GEMM with fractional SIMD
#: pressure then a copy, and a SIMD-only kernel.
TEMPLATES = {
    "det": [
        OpTask(uid=0, name="conv", seconds=0.004, claims=ARRAY_AND_SIMD,
               mode="systolic", cross_switch_s=1e-4),
        OpTask(uid=1, name="nms", seconds=0.0015, claims=SIMD, deps=(0,)),
    ],
    "tra": [
        OpTask(uid=0, name="gemm", seconds=0.003,
               claims=(ResourceClaim(ResourceKind.TC),
                       ResourceClaim(ResourceKind.SIMD, 0.25))),
        OpTask(uid=1, name="copy", seconds=0.0004,
               claims=(ResourceClaim(ResourceKind.TRANSFER),), deps=(0,)),
    ],
    "loc": [
        OpTask(uid=0, name="track", seconds=0.002, claims=SIMD),
        OpTask(uid=1, name="pose", seconds=0.001, claims=SIMD, deps=(0,)),
    ],
}


def scenario(policy, qos, arrivals):
    """Three overloaded streams of eight frames over :data:`TEMPLATES`,
    each drawing its arrivals from ``arrivals(seed)``."""
    return ScenarioSpec(
        name=f"inputs-{policy}",
        frames=8,
        policy=policy,
        qos=qos,
        streams=tuple(
            StreamSpec(name=name, model="synthetic", priority=priority,
                       deadline_s=0.006, arrivals=arrivals(seed))
            for seed, (name, priority) in enumerate(
                (("det", 3.0), ("tra", 2.0), ("loc", 1.0)), start=1
            )
        ),
    )


def poisson(seed):
    return ArrivalSpec(kind="poisson", rate_hz=600.0, seed=seed)


def closed_loop(seed):
    return ArrivalSpec(kind="closed_loop", think_s=0.001 * seed)


PLANS = {
    "priority-drop_late": scenario(
        "priority", QosSpec(kind="drop_late"), poisson
    ),
    "closed_loop": scenario("priority", None, closed_loop),
    "exclusive_preempt-abort_late": scenario(
        "exclusive_preempt", QosSpec(kind="abort_late"), poisson
    ),
}


def assert_unchanged(tasks, copies):
    """Each task equals its copy taken beforehand and still holds the
    same claims object: share plans are keyed by ``id(claims)``."""
    assert list(tasks) == copies
    for task, before in zip(tasks, copies):
        assert task.claims is before.claims


class TestInputsStayUnchanged:
    """The four records are slotted, not frozen, so nothing in the type
    stops an engine from rewriting a task it was given. Closed-loop
    pacing must replace a task (``dataclasses.replace``), never assign
    to it."""

    @pytest.mark.parametrize("name", PLANS)
    def test_engines_leave_tasks_unchanged(self, name):
        spec = PLANS[name]
        plan = instantiate_frames(spec, TEMPLATES)
        copies = [copy.copy(task) for task in plan.tasks]
        timelines = [
            engine(
                TimelineScheduler(spec.policy, qos=make_qos(spec.qos)),
                plan.tasks,
            )
            for engine in (TimelineScheduler.run, run_reference)
        ]
        assert timelines[0] == timelines[1]
        assert_unchanged(plan.tasks, copies)
        # Each plan reaches what it is here for: drops, or paced heads
        # whose releases the engines rewrite, and in the preemptive plan
        # aborts and deschedules as well.
        timeline = timelines[0]
        assert timeline.drops or any(task.think_s for task in plan.tasks)
        if spec.policy == "exclusive_preempt":
            actions = {record.action for record in timeline.preemptions}
            assert actions == {"abort", "deschedule"}

    @pytest.mark.parametrize(
        "name", [name for name in PLANS if name != "closed_loop"]
    )
    def test_streaming_leaves_templates_unchanged(self, name):
        spec = PLANS[name]
        copies = {
            stream: [copy.copy(task) for task in chain]
            for stream, chain in TEMPLATES.items()
        }
        report = serve_streaming(
            spec, TEMPLATES, platform="synthetic", keep_records=True
        )
        assert report.offered == 3 * spec.frames
        for stream, chain in TEMPLATES.items():
            assert_unchanged(chain, copies[stream])

    @pytest.mark.parametrize(
        "record",
        [
            TEMPLATES["det"][0],
            TimelineSegment(0, "op", "s", 0, "simd", 0.0, 1.0, 1.0),
            DropRecord(0, "op", "s", 0, 0.5, "deadline"),
            PreemptRecord(0, "op", "s", 0, 0.5, "deadline"),
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_records_reject_undeclared_attributes(self, record):
        with pytest.raises(AttributeError):
            record.colour = "red"
