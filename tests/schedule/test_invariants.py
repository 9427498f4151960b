"""Property-based invariants of the timeline engine (hypothesis).

The invariant assertions themselves live in :mod:`repro.fuzz.oracles` —
the same oracle pack the fuzz campaign runner evaluates — so a property
hypothesis checks here is bit-for-bit the property ``repro fuzz run``
checks at fleet scale. This suite's job is the *generation* side:
hypothesis-driven task sets exploring shapes the seeded generators
don't, plus the bit-identical-seed report contract.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.results import ScheduleReport, ServingReport
from repro.fuzz.oracles import (
    assert_capacity,
    assert_conservation,
    assert_frame_atomicity,
    assert_monotone_events,
    assert_priority_order,
    assert_reports_agree,
    assert_serving_consistency,
)
from repro.schedule.policies import POLICY_NAMES
from repro.schedule.resources import ResourceClaim, ResourceKind
from repro.schedule.streams import ScenarioSpec, StreamSpec, instantiate_frames
from repro.schedule.timeline import OpTask, TimelineScheduler
from repro.serving.qos import QosSpec, make_qos
from repro.serving.traces import ArrivalSpec

#: Claim shapes drawn per task: full SIMD, the SMA MAC aliasing pair, a
#: TC kernel with fractional SIMD pressure, and a transfer.
CLAIM_CHOICES = (
    (ResourceClaim(ResourceKind.SIMD),),
    (ResourceClaim(ResourceKind.ARRAY), ResourceClaim(ResourceKind.SIMD)),
    (ResourceClaim(ResourceKind.TC), ResourceClaim(ResourceKind.SIMD, 0.4)),
    (ResourceClaim(ResourceKind.TRANSFER),),
)

_SECONDS = st.floats(
    min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False
)
_RELEASE = st.floats(
    min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False
)
_WEIGHT = st.floats(min_value=0.5, max_value=4.0, allow_nan=False)


@st.composite
def task_sets(
    draw,
    claim_choices=CLAIM_CHOICES,
    seconds=_SECONDS,
    releases=_RELEASE,
    weights=_WEIGHT,
):
    """Frame-chained multi-stream task sets (the shape platforms emit),
    each task's claims drawn from ``claim_choices``, its duration from
    ``seconds``, its frame's release from ``releases`` and its stream's
    weight from ``weights``."""
    tasks = []
    uid = 0
    stream_count = draw(st.integers(min_value=1, max_value=3))
    for stream_index in range(stream_count):
        stream = f"s{stream_index}"
        weight = draw(weights)
        deadline = draw(
            st.one_of(
                st.none(),
                st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
            )
        )
        previous_last = None
        for frame in range(draw(st.integers(min_value=1, max_value=3))):
            release = draw(releases)
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
                        seconds=draw(seconds),
                        claims=draw(st.sampled_from(claim_choices)),
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
    QosSpec(kind="drop_late"),
    QosSpec(kind="queue_cap", cap=1),
    QosSpec(kind="shed", cap=2),
)


@given(tasks=task_sets(), policy=st.sampled_from(POLICY_NAMES),
       qos=st.sampled_from(QOS_CHOICES))
@settings(max_examples=60, deadline=None)
def test_no_resource_oversubscribed(tasks, policy, qos):
    """Per resource: executed claim-seconds never exceed the makespan."""
    timeline = TimelineScheduler(policy, qos=make_qos(qos)).run(tasks)
    assert_capacity(tasks, timeline)


@given(tasks=task_sets())
@settings(max_examples=40, deadline=None)
def test_per_stream_busy_time_conserved_across_policies(tasks):
    """Without drops, every policy executes exactly the lowered work."""
    expected: dict = {}
    for task in tasks:
        expected[task.stream] = expected.get(task.stream, 0.0) + task.seconds
    for policy in POLICY_NAMES:
        timeline = TimelineScheduler(policy).run(tasks)
        assert_conservation(tasks, timeline)
        busy: dict = {}
        for segment in timeline.segments:
            busy[segment.stream] = (
                busy.get(segment.stream, 0.0) + segment.seconds
            )
        for stream, seconds in expected.items():
            assert busy.get(stream, 0.0) == seconds  # bit-for-bit


@given(tasks=task_sets(), policy=st.sampled_from(POLICY_NAMES),
       qos=st.sampled_from(QOS_CHOICES))
@settings(max_examples=60, deadline=None)
def test_event_times_monotone(tasks, policy, qos):
    timeline = TimelineScheduler(policy, qos=make_qos(qos)).run(tasks)
    assert_monotone_events(tasks, timeline)


@given(tasks=task_sets(), policy=st.sampled_from(POLICY_NAMES),
       qos=st.sampled_from(QOS_CHOICES))
@settings(max_examples=40, deadline=None)
def test_every_task_completes_or_drops_exactly_once(tasks, policy, qos):
    timeline = TimelineScheduler(policy, qos=make_qos(qos)).run(tasks)
    assert_conservation(tasks, timeline)
    assert_frame_atomicity(tasks, timeline)


@given(tasks=task_sets(), qos=st.sampled_from(QOS_CHOICES))
@settings(max_examples=40, deadline=None)
def test_exclusive_dispatch_never_inverts_priority(tasks, qos):
    """The exclusive gate always picks a heaviest ready waiter."""
    timeline = TimelineScheduler("exclusive", qos=make_qos(qos)).run(tasks)
    assert_priority_order(tasks, timeline, "exclusive")


@given(tasks=task_sets(), policy=st.sampled_from(POLICY_NAMES),
       qos=st.sampled_from(QOS_CHOICES))
@settings(max_examples=30, deadline=None)
def test_engine_is_deterministic(tasks, policy, qos):
    first = TimelineScheduler(policy, qos=make_qos(qos)).run(tasks)
    second = TimelineScheduler(policy, qos=make_qos(qos)).run(tasks)
    assert first.segments == second.segments
    assert first.drops == second.drops
    assert first.makespan_s == second.makespan_s
    assert first.busy_s == second.busy_s


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       rate=st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
       policy=st.sampled_from(POLICY_NAMES),
       qos=st.sampled_from(QOS_CHOICES))
@settings(max_examples=25, deadline=None)
def test_identical_seeds_give_bit_identical_reports(seed, rate, policy, qos):
    """Same arrival seed => byte-identical Schedule/Serving reports."""
    spec = ScenarioSpec(
        name="seeded",
        frames=4,
        policy=policy,
        qos=qos,
        streams=(
            StreamSpec(
                name="a",
                model="m",
                priority=2.0,
                deadline_s=0.8,
                arrivals=ArrivalSpec(kind="poisson", rate_hz=rate, seed=seed),
            ),
            StreamSpec(
                name="b",
                model="m",
                arrivals=ArrivalSpec(kind="mmpp", rate_hz=rate, seed=seed),
            ),
        ),
    )
    template = [
        OpTask(
            uid=index,
            name=f"op{index}",
            seconds=0.2,
            claims=CLAIM_CHOICES[index % len(CLAIM_CHOICES)],
            deps=(index - 1,) if index else (),
        )
        for index in range(3)
    ]

    def reports():
        plan = instantiate_frames(spec, {"a": template, "b": template})
        timeline = TimelineScheduler(
            spec.policy, qos=make_qos(spec.qos)
        ).run(plan.tasks)
        return (
            ScheduleReport.from_timeline(spec, "synthetic", timeline, plan),
            ServingReport.from_timeline(spec, "synthetic", timeline, plan),
        )

    schedule_a, serving_a = reports()
    schedule_b, serving_b = reports()
    assert schedule_a.to_json() == schedule_b.to_json()
    assert serving_a.to_json() == serving_b.to_json()
    assert_serving_consistency(serving_a)
    assert_reports_agree(schedule_a, serving_a)
