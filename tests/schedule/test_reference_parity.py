"""Property: the production core reproduces the reference loop exactly.

:meth:`TimelineScheduler.run` and
:func:`repro.schedule.reference.run_reference` must agree on every
hypothesis-drawn task set, under every policy and QoS regime, with and
without an interference matrix. ``Timeline ==`` ignores the key order of
``busy_s`` and ``load_integral_s``, so their key lists are compared too:
reports write those dicts in that order.

Tasks that finish in the same event complete in running order, however
many of them share a class. The tie cases below pin that by name, and
the grid arm draws durations and releases where ties are common. The
heavy-class arm keeps at least 24 tasks of one share class running, so
its column of remaining work is long, unsorted by dispatch, and entered
part-way through.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.interference import InterferenceMatrix
from repro.schedule.policies import POLICY_NAMES
from repro.schedule.reference import run_reference
from repro.schedule.resources import ResourceClaim, ResourceKind
from repro.schedule.timeline import OpTask, TimelineScheduler
from repro.serving.qos import make_qos
from tests.schedule.test_invariants import (
    CLAIM_CHOICES,
    QOS_CHOICES,
    task_sets,
)

#: The invariant suite's claim shapes plus two claims on one kind, so a
#: task adds to one load twice (and, with a matrix, one of them is the
#: fractional claim the matrix supersedes), and a tuple equal to the
#: first shape but not the same object, as lowering makes them.
PARITY_CLAIMS = CLAIM_CHOICES + (
    (
        ResourceClaim(ResourceKind.SIMD, 0.5),
        ResourceClaim(ResourceKind.SIMD),
    ),
    (ResourceClaim(ResourceKind.SIMD),),
)

#: Pressure from every kind the claim shapes hold as a primary claim,
#: onto kinds they claim and onto HOST, which none of them claims.
MATRIX = InterferenceMatrix(
    entries=(
        ("tc", "simd", 0.48),
        ("simd", "tc", 0.05),
        ("array", "transfer", 0.3),
        ("transfer", "simd", 0.09),
        ("transfer", "host", 0.06),
    )
)


#: A small grid of durations, releases and whole-number weights, so
#: tasks often finish, and frames often arrive, in one event.
TIE_GRID = {
    "seconds": st.sampled_from((0.0, 0.25, 0.5, 1.0)),
    "releases": st.sampled_from((0.0, 0.5, 1.0)),
    "weights": st.sampled_from((1.0, 2.0, 3.0)),
}


def _assert_parity(tasks, policies=POLICY_NAMES, qos_choices=QOS_CHOICES):
    for interference in (None, MATRIX):
        for policy in policies:
            for qos in qos_choices:
                scheduler = TimelineScheduler(
                    policy, qos=make_qos(qos), interference=interference
                )
                production = scheduler.run(tasks)
                reference = run_reference(scheduler, tasks)
                context = (policy, qos, interference is not None)
                assert production == reference, context
                assert list(production.busy_s) == list(
                    reference.busy_s
                ), context
                assert list(production.load_integral_s) == list(
                    reference.load_integral_s
                ), context


@given(tasks=task_sets(claim_choices=PARITY_CLAIMS))
@settings(max_examples=60, deadline=None)
def test_core_matches_reference(tasks):
    _assert_parity(tasks)


@given(tasks=task_sets(claim_choices=PARITY_CLAIMS, **TIE_GRID))
@settings(max_examples=60, deadline=None)
def test_core_matches_reference_on_ties(tasks):
    _assert_parity(tasks)


#: The heavy-class arm's durations and late releases: few values, so
#: durations tie while their charged work, and so their completion
#: limits, differ between values; late tasks enter the class part-way.
HEAVY_SECONDS = st.sampled_from((0.25, 0.5, 1.0, 1.5, 3.0))
HEAVY_RELEASES = st.sampled_from((0.0, 0.4, 1.1, 2.0))
HEAVY_CLAIMS = (
    (ResourceClaim(ResourceKind.SIMD),),
    (ResourceClaim(ResourceKind.ARRAY), ResourceClaim(ResourceKind.SIMD)),
)


@st.composite
def heavy_class(draw):
    """Tasks 1-24 claim SIMD and start at 0 s: under ``fifo`` and
    ``priority`` (equal weights) they are one share class. Task 0, first
    in running order, and 0-16 later tasks, some depending on an earlier
    one, draw SIMD or ARRAY+SIMD claims."""
    count = 25 + draw(st.integers(min_value=0, max_value=16))
    tasks = []
    for uid in range(count):
        late = uid > 24
        deps = ()
        if late and draw(st.booleans()):
            deps = (draw(st.integers(min_value=0, max_value=uid - 1)),)
        tasks.append(
            OpTask(
                uid=uid,
                name=f"t{uid}",
                seconds=draw(HEAVY_SECONDS),
                claims=(
                    HEAVY_CLAIMS[0]
                    if 0 < uid <= 24
                    else draw(st.sampled_from(HEAVY_CLAIMS))
                ),
                stream=f"s{uid % 3}",
                deps=deps,
                release_s=draw(HEAVY_RELEASES) if late else 0.0,
                weight=2.0,
            )
        )
    return tasks


@given(tasks=heavy_class())
@settings(max_examples=40, deadline=None)
def test_core_matches_reference_on_a_heavy_class(tasks):
    _assert_parity(tasks, policies=("fifo", "priority"), qos_choices=(None,))


def _simd_task(uid, name, seconds, stream, deps=(), release_s=0.0):
    return OpTask(
        uid=uid,
        name=name,
        seconds=seconds,
        claims=(ResourceClaim(ResourceKind.SIMD),),
        stream=stream,
        deps=deps,
        release_s=release_s,
    )


def _segment_names(policy, tasks):
    scheduler = TimelineScheduler(policy)
    production = scheduler.run(tasks)
    assert production == run_reference(scheduler, tasks)
    return [segment.name for segment in production.segments], production


@pytest.mark.parametrize("policy", ["fifo", "priority"])
def test_one_class_finishing_together_completes_in_running_order(policy):
    """``a`` and ``b`` share SIMD and finish in one event: both complete
    there, in running order, so ``b2`` (the lower uid) is released and
    dispatched ahead of ``a2`` and, sharing again, finishes first."""
    tasks = [
        _simd_task(0, "a", 1.0, "s0"),
        _simd_task(1, "b", 1.0, "s1"),
        _simd_task(3, "a2", 0.5, "s0", deps=(0,)),
        _simd_task(2, "b2", 0.5, "s1", deps=(1,)),
    ]
    names, timeline = _segment_names(policy, tasks)
    assert names == ["a", "b", "b2", "a2"]
    assert [segment.end_s for segment in timeline.segments] == [
        2.0, 2.0, 3.0, 3.0,
    ]


@pytest.mark.parametrize("policy", ["fifo", "priority"])
def test_larger_limit_finishes_a_longer_remainder_in_the_same_event(policy):
    """``long`` has 1e-7 s more work left than ``short`` when ``short``
    finishes: more than ``short``'s completion limit, within its own
    (1e-12 of its 1e6 s), so it completes in that event, first."""
    tasks = [
        _simd_task(0, "long", 1e6, "s0"),
        _simd_task(1, "short", 1.0, "s1", release_s=1e6 - 1.0 - 1e-7),
    ]
    names, timeline = _segment_names(policy, tasks)
    assert names == ["long", "short"]
    assert timeline.segments[0].end_s == timeline.segments[1].end_s
