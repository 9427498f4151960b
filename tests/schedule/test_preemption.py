"""Kernel-granularity preemption: golden regressions and invariants.

The ``exclusive_preempt`` policy bounds priority inversion to the one
kernel already on the machine and records every yield; the
``abort_late`` QoS action cancels an in-flight frame's not-yet-started
kernels at its deadline expiry. Every golden here is pinned bit-exact
on BOTH the production core and the reference loop, and the
plain-``exclusive`` twins pin the byte stability contract: a
non-preemptive run must never grow preemption records or shift a
segment.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz.oracles import (
    assert_frame_atomicity,
    assert_preemption_bound,
)
from repro.schedule.reference import run_reference
from repro.schedule.resources import ResourceClaim, ResourceKind
from repro.schedule.streams import (
    ScenarioSpec,
    StreamSpec,
    instantiate_frames,
)
from repro.schedule.timeline import OpTask, TimelineScheduler
from repro.serving.qos import QosSpec, make_qos
from repro.serving.traces import ArrivalSpec

SIMD = (ResourceClaim(ResourceKind.SIMD),)
ARRAY_AND_SIMD = (
    ResourceClaim(ResourceKind.ARRAY),
    ResourceClaim(ResourceKind.SIMD),
)
TRANSFER = (ResourceClaim(ResourceKind.TRANSFER),)

#: The two timeline cores by parametrize id: the scalar reference loop
#: (the executable spec) and the vectorized production core.
ENGINES = {"scalar": run_reference, "vectorized": TimelineScheduler.run}


def run(policy, tasks, engine, qos=None):
    scheduler = TimelineScheduler(policy, qos=make_qos(qos))
    return ENGINES[engine](scheduler, tasks)


def segments(timeline):
    return [(s.name, s.start_s, s.end_s) for s in timeline.segments]


def preempts(timeline):
    return [
        (p.uid, p.action, p.reason, p.time_s) for p in timeline.preemptions
    ]


def inversion_tasks():
    """The priority-inversion scenario from the issue: a low-priority
    three-kernel frame is already on the machine when a high-priority
    two-kernel frame arrives mid-kernel."""
    low = [
        OpTask(uid=0, name="low/op0", seconds=1.0, claims=SIMD,
               stream="low", weight=1.0, frame_head=True),
        OpTask(uid=1, name="low/op1", seconds=1.0, claims=SIMD,
               stream="low", weight=1.0, deps=(0,)),
        OpTask(uid=2, name="low/op2", seconds=1.0, claims=SIMD,
               stream="low", weight=1.0, deps=(1,)),
    ]
    high = [
        OpTask(uid=3, name="high/op0", seconds=0.5, claims=SIMD,
               stream="high", release_s=0.25, weight=2.0, frame_head=True),
        OpTask(uid=4, name="high/op1", seconds=0.5, claims=SIMD,
               stream="high", release_s=0.25, weight=2.0, deps=(3,)),
    ]
    return low + high


#: The only legal schedule once inversion is bounded to one kernel: the
#: in-flight low kernel finishes, then the whole high-priority frame
#: runs, then the descheduled low remainder resumes.
INVERSION_SEGMENTS = [
    ("low/op0", 0.0, 1.0),
    ("high/op0", 1.0, 1.5),
    ("high/op1", 1.5, 2.0),
    ("low/op1", 2.0, 3.0),
    ("low/op2", 3.0, 4.0),
]


class TestInversionRegression:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_high_priority_starts_at_next_kernel_boundary(self, engine):
        timeline = run("exclusive_preempt", inversion_tasks(), engine)
        assert segments(timeline) == INVERSION_SEGMENTS
        # Exactly one yield: low/op1 was the frame's next kernel and was
        # passed over at the boundary in favor of high/op0.
        assert preempts(timeline) == [(1, "deschedule", "priority", 1.0)]
        assert timeline.drops == ()
        assert timeline.makespan_s == 4.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_plain_exclusive_is_untouched(self, engine):
        """Byte-stability contract: the non-preemptive policy produces
        the same segments with NO preemption records."""
        timeline = run("exclusive", inversion_tasks(), engine)
        assert segments(timeline) == INVERSION_SEGMENTS
        assert timeline.preemptions == ()

    def test_engines_agree_bit_for_bit(self):
        scalar = run("exclusive_preempt", inversion_tasks(), "scalar")
        vector = run("exclusive_preempt", inversion_tasks(), "vectorized")
        assert scalar == vector


def deadline_tasks():
    """A three-kernel frame that cannot meet its 1.5 s deadline: the
    second kernel is in flight when the expiry passes."""
    return [
        OpTask(uid=0, name="a/op0", seconds=1.0, claims=SIMD, stream="a",
               frame_head=True, deadline_s=1.5),
        OpTask(uid=1, name="a/op1", seconds=1.0, claims=SIMD, stream="a",
               deps=(0,)),
        OpTask(uid=2, name="a/op2", seconds=1.0, claims=SIMD, stream="a",
               deps=(1,)),
    ]


class TestAbortLate:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_unstarted_remainder_cancelled_at_expiry(self, engine):
        timeline = run(
            "fifo", deadline_tasks(), engine, qos=QosSpec(kind="abort_late")
        )
        # The in-flight kernel (a/op1) runs to completion; only the
        # never-started a/op2 is cancelled, exactly at the expiry.
        assert segments(timeline) == [
            ("a/op0", 0.0, 1.0),
            ("a/op1", 1.0, 2.0),
        ]
        assert preempts(timeline) == [(2, "abort", "deadline_abort", 1.5)]
        assert timeline.drops == ()
        assert timeline.makespan_s == 2.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_drop_late_leaves_inflight_frames_alone(self, engine):
        """The non-preemptive sibling never touches a started frame."""
        timeline = run(
            "fifo", deadline_tasks(), engine, qos=QosSpec(kind="drop_late")
        )
        assert segments(timeline) == [
            ("a/op0", 0.0, 1.0),
            ("a/op1", 1.0, 2.0),
            ("a/op2", 2.0, 3.0),
        ]
        assert timeline.preemptions == ()
        assert timeline.drops == ()


class TestSubstrateTracking:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_transfer_does_not_move_the_substrate(self, engine):
        """A TRANSFER task never occupies the MAC substrate, so it must
        not be charged a mode switch nor reassign the substrate's
        owner — the systolic task after the DMA resumes switch-free."""
        tasks = [
            OpTask(uid=0, name="a/sys", seconds=1.0, claims=ARRAY_AND_SIMD,
                   mode="systolic", stream="a", frame_head=True,
                   cross_switch_s=0.25),
            OpTask(uid=1, name="b/dma", seconds=0.5, claims=TRANSFER,
                   stream="b", release_s=1.0, frame_head=True,
                   cross_switch_s=0.25),
            OpTask(uid=2, name="a/sys2", seconds=1.0, claims=ARRAY_AND_SIMD,
                   mode="systolic", stream="a", frame=1, release_s=1.5,
                   frame_head=True, cross_switch_s=0.25),
        ]
        timeline = run("fifo", tasks, engine)
        assert segments(timeline) == [
            ("a/sys", 0.0, 1.0),
            ("b/dma", 1.0, 1.5),
            ("a/sys2", 1.5, 2.5),
        ]
        assert timeline.mode_switches == 0
        assert timeline.switch_overhead_s == 0.0
        assert timeline.makespan_s == 2.5


class TestCompletionEpsilon:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_second_task_with_switch_surcharge(self, engine):
        """The completion epsilon scales to the total charged work —
        switch surcharge included — so a zero-second kernel whose only
        cost is the reconfiguration completes exactly once, on time."""
        tasks = [
            OpTask(uid=0, name="a/sys", seconds=1.0, claims=ARRAY_AND_SIMD,
                   mode="systolic", stream="a", frame_head=True),
            OpTask(uid=1, name="b/zero", seconds=0.0, claims=SIMD,
                   stream="b", release_s=1.0, frame_head=True,
                   cross_switch_s=0.3),
            OpTask(uid=2, name="b/tail", seconds=0.7, claims=SIMD,
                   stream="b", deps=(1,)),
        ]
        timeline = run("fifo", tasks, engine)
        assert segments(timeline) == [
            ("a/sys", 0.0, 1.0),
            ("b/zero", 1.0, 1.3),
            ("b/tail", 1.3, 2.0),
        ]
        assert timeline.mode_switches == 1
        assert timeline.switch_overhead_s == 0.3
        assert timeline.makespan_s == 2.0


class TestClosedLoopQueueCap:
    """``queue_cap`` must see *effective* (rewritten) releases: a
    closed-loop frame has not arrived until its pacing dependency
    resolves, so it can never be counted — let alone shed — while the
    machine grinds through a backlogged open-loop competitor."""

    def plan(self):
        spec = ScenarioSpec(
            name="paced-vs-backlog",
            frames=4,
            policy="fifo",
            qos=QosSpec(kind="queue_cap", cap=1),
            streams=(
                StreamSpec(
                    name="open",
                    model="m",
                    arrivals=ArrivalSpec(kind="fixed", period_s=0.05),
                ),
                StreamSpec(
                    name="closed",
                    model="m",
                    arrivals=ArrivalSpec(kind="closed_loop", think_s=0.0),
                ),
            ),
        )
        template = [OpTask(uid=0, name="op0", seconds=0.4, claims=SIMD)]
        return spec, instantiate_frames(
            spec, {"open": template, "closed": template}
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_closed_loop_frames_survive_open_loop_backlog(self, engine):
        spec, plan = self.plan()
        timeline = run(spec.policy, plan.tasks, engine, qos=spec.qos)
        by_stream = plan.frame_records(timeline)
        # Every closed-loop frame completes: at most one is ever waiting,
        # so a cap of 1 has nothing to shed from that stream.
        assert [r.dropped for r in by_stream["closed"]] == [False] * 4
        # The open-loop backlog exceeds the cap while frame 0 runs; the
        # newest arrivals beyond it (frames 2 and 3) are shed on arrival.
        assert [
            (r.frame, r.drop_reason)
            for r in by_stream["open"] if r.dropped
        ] == [(2, "queue_full"), (3, "queue_full")]
        assert timeline.preemptions == ()

    def test_engines_agree_bit_for_bit(self):
        _, plan = self.plan()
        runs = {}
        for engine in ENGINES:
            _, fresh = self.plan()
            runs[engine] = run(
                "fifo", fresh.tasks, engine,
                qos=QosSpec(kind="queue_cap", cap=1),
            )
        assert runs["scalar"] == runs["vectorized"]


# -- property-based: inversion is bounded to one kernel -------------------------------

_SECONDS = st.floats(
    min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False
)
_RELEASE = st.floats(
    min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False
)

CLAIM_CHOICES = (
    SIMD,
    ARRAY_AND_SIMD,
    (ResourceClaim(ResourceKind.TC), ResourceClaim(ResourceKind.SIMD, 0.4)),
    TRANSFER,
)


@st.composite
def task_sets(draw):
    """Frame-chained multi-stream task sets (the shape platforms emit)."""
    tasks = []
    uid = 0
    for stream_index in range(draw(st.integers(min_value=1, max_value=3))):
        stream = f"s{stream_index}"
        weight = draw(
            st.floats(min_value=0.5, max_value=4.0, allow_nan=False)
        )
        deadline = draw(
            st.one_of(
                st.none(),
                st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
            )
        )
        previous_last = None
        for frame in range(draw(st.integers(min_value=1, max_value=3))):
            release = draw(_RELEASE)
            chain = draw(st.integers(min_value=1, max_value=3))
            for position in range(chain):
                if position == 0:
                    deps = () if previous_last is None else (previous_last,)
                else:
                    deps = (uid - 1,)
                tasks.append(
                    OpTask(
                        uid=uid,
                        name=f"{stream}/f{frame}/op{position}",
                        seconds=draw(_SECONDS),
                        claims=draw(st.sampled_from(CLAIM_CHOICES)),
                        stream=stream,
                        frame=frame,
                        deps=deps,
                        release_s=release,
                        weight=weight,
                        deadline_s=deadline,
                        frame_head=position == 0,
                    )
                )
                uid += 1
            previous_last = uid - 1
    return tasks


QOS_CHOICES = (
    None,
    QosSpec(kind="abort_late"),
    QosSpec(kind="abort_late", slack_s=0.5),
    QosSpec(kind="queue_cap", cap=1),
)


@given(tasks=task_sets(), qos=st.sampled_from(QOS_CHOICES))
@settings(max_examples=50, deadline=None)
def test_inversion_never_exceeds_one_kernel(tasks, qos):
    """Once a task is ready, only the in-flight kernel may delay it: no
    strictly-lighter kernel starts inside its ready->start window."""
    timeline = TimelineScheduler(
        "exclusive_preempt", qos=make_qos(qos)
    ).run(tasks)
    assert_preemption_bound(tasks, timeline, "exclusive_preempt")
    assert_frame_atomicity(tasks, timeline)


@given(tasks=task_sets(), qos=st.sampled_from(QOS_CHOICES))
@settings(max_examples=25, deadline=None)
def test_preemptive_engines_stay_bit_identical(tasks, qos):
    scalar = run("exclusive_preempt", tasks, "scalar", qos=qos)
    vector = run("exclusive_preempt", tasks, "vectorized", qos=qos)
    assert scalar == vector


@pytest.mark.parametrize("engine", ENGINES)
def test_queue_cap_reviews_an_arrival_inside_a_solo_chain(engine):
    """Frames 1 and 2 arrive, waiting on frame 0, as its first kernel
    ends: the review drops frame 2 then, not a kernel later."""
    tasks = [
        OpTask(
            uid=uid,
            name=f"s/f{frame}/op{uid}",
            seconds=1.0 if frame == 0 else 0.0,
            claims=SIMD,
            stream="s",
            frame=frame,
            deps=() if uid == 0 else (uid - 1,),
            release_s=0.0 if frame == 0 else 1.0,
            frame_head=uid in (0, 3, 4),
        )
        for uid, frame in enumerate((0, 0, 0, 1, 2))
    ]
    timeline = run("fifo", tasks, engine, qos=QosSpec(kind="queue_cap", cap=1))
    assert [(drop.name, drop.time_s) for drop in timeline.drops] == [
        ("s/f2/op4", 1.0)
    ]
