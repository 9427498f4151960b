"""Property: the production core reproduces the reference loop exactly.

:meth:`TimelineScheduler.run` and
:func:`repro.schedule.reference.run_reference` must agree on every
hypothesis-drawn task set, under every policy and QoS regime, with and
without an interference matrix. ``Timeline ==`` ignores the key order of
``busy_s`` and ``load_integral_s``, so their key lists are compared too:
reports write those dicts in that order.
"""

from hypothesis import given, settings

from repro.catalog.interference import InterferenceMatrix
from repro.schedule.policies import POLICY_NAMES
from repro.schedule.reference import run_reference
from repro.schedule.resources import ResourceClaim, ResourceKind
from repro.schedule.timeline import TimelineScheduler
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


@given(tasks=task_sets(claim_choices=PARITY_CLAIMS))
@settings(max_examples=60, deadline=None)
def test_core_matches_reference(tasks):
    for interference in (None, MATRIX):
        for policy in POLICY_NAMES:
            for qos in QOS_CHOICES:
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
