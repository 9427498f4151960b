"""The tentpole gates: engine trace parity and trace transparency.

Parity: the scalar reference loop and the vectorized production core
must emit *identical* raw event sequences (``Tracer.records``, compared
element-for-element) for the same input — the observability analogue of
their bit-identical timelines. Transparency: attaching a tracer must not
perturb the simulation; a traced run's timeline equals the untraced
run's exactly.
"""

import pytest

from repro.schedule.policies import make_policy
from repro.schedule.reference import run_reference
from repro.schedule.resources import ResourceClaim, ResourceKind
from repro.schedule.timeline import OpTask, TimelineScheduler
from repro.obs import EVENT_KINDS, Tracer
from repro.serving.qos import QosSpec, make_qos

SIMD = (ResourceClaim(ResourceKind.SIMD),)
ARRAY = (ResourceClaim(ResourceKind.ARRAY),)
#: The two timeline cores by parametrize id: the scalar reference loop
#: (the executable spec) and the vectorized production core.
ENGINES = {"scalar": run_reference, "vectorized": TimelineScheduler.run}


def run(tasks, policy="fifo", qos=None, engine="scalar", tracer=None):
    scheduler = TimelineScheduler(
        make_policy(policy), qos=make_qos(qos), tracer=tracer
    )
    return ENGINES[engine](scheduler, list(tasks))


def traced_records(tasks, policy="fifo", qos=None, engine="scalar"):
    tracer = Tracer()
    run(tasks, policy=policy, qos=qos, engine=engine, tracer=tracer)
    return tracer.records


def mode_switch_tasks():
    """Two streams alternating MAC modes: exercises begin/end/switch."""
    tasks = []
    uid = 0
    for frame in range(4):
        release = frame * 0.002
        for stream, mode, claims in (
            ("det", "systolic", ARRAY),
            ("tra", "simd", SIMD),
        ):
            head = uid
            for step, op in enumerate(("conv", "act", "fc")):
                tasks.append(
                    OpTask(
                        uid=uid,
                        name=f"{stream}/{op}",
                        seconds=0.001,
                        claims=claims,
                        mode=mode,
                        stream=stream,
                        frame=frame,
                        deps=(uid - 1,) if step else (),
                        release_s=release,
                        cross_switch_s=0.0005,
                        frame_head=step == 0,
                    )
                )
                uid += 1
            del head
    return tasks


def inversion_tasks():
    """Low-priority frame in flight when a high-priority frame lands —
    ``exclusive_preempt`` yields at the kernel boundary (deschedule)."""
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


def droppy_tasks():
    """Two hopeless deadlines: a frame queued behind its predecessor past
    its expiry (drop), and an in-flight chain whose expiry passes with a
    kernel still unstarted (abort under ``abort_late``)."""
    return [
        # Stream b frame 0 blows frame 1's window: frame 1 arrives at
        # 0.1 with expiry 0.4 but queues until 1.0 — shed at 0.4.
        OpTask(uid=0, name="b/f0", seconds=1.0, claims=SIMD, stream="b",
               frame=0, frame_head=True),
        OpTask(uid=1, name="b/f1", seconds=0.5, claims=SIMD, stream="b",
               frame=1, deps=(0,), release_s=0.1, deadline_s=0.3,
               frame_head=True),
        # Stream c starts at once; expiry 0.4 lands mid-flight with op2
        # unstarted — abort_late cancels exactly that kernel.
        OpTask(uid=2, name="c/op0", seconds=0.3, claims=SIMD, stream="c",
               frame=0, frame_head=True, deadline_s=0.4),
        OpTask(uid=3, name="c/op1", seconds=0.3, claims=SIMD, stream="c",
               frame=0, deps=(2,), deadline_s=0.4),
        OpTask(uid=4, name="c/op2", seconds=0.3, claims=SIMD, stream="c",
               frame=0, deps=(3,), deadline_s=0.4),
    ]


def solo_chain_tasks():
    """One dependency chain, one stream: the vectorized fast path."""
    return [
        OpTask(uid=uid, name=f"solo/op{uid}", seconds=0.001, claims=SIMD,
               stream="solo", deps=(uid - 1,) if uid else (),
               mode="systolic" if uid % 2 else "simd",
               cross_switch_s=0.0002, frame_head=uid == 0)
        for uid in range(16)
    ]


SCENARIOS = (
    ("mode_switch", mode_switch_tasks, "fifo", None),
    ("inversion", inversion_tasks, "exclusive_preempt", None),
    ("qos_drop", droppy_tasks, "fifo", QosSpec(kind="drop_late")),
    ("qos_abort", droppy_tasks, "fifo", QosSpec(kind="abort_late")),
    ("solo_chain", solo_chain_tasks, "fifo", None),
)


class TestEngineParity:
    @pytest.mark.parametrize(
        "name, build, policy, qos", SCENARIOS, ids=[s[0] for s in SCENARIOS]
    )
    def test_identical_event_sequences(self, name, build, policy, qos):
        scalar = traced_records(build(), policy=policy, qos=qos,
                                engine="scalar")
        vector = traced_records(build(), policy=policy, qos=qos,
                                engine="vectorized")
        assert scalar == vector
        assert scalar, f"{name} recorded no events"

    def test_preemption_scenario_emits_deschedule(self):
        records = traced_records(
            inversion_tasks(), policy="exclusive_preempt", engine="scalar"
        )
        kinds = [record[0] for record in records]
        assert "deschedule" in kinds

    def test_qos_scenarios_emit_drop_and_abort(self):
        dropped = traced_records(
            droppy_tasks(), qos=QosSpec(kind="drop_late"), engine="scalar"
        )
        aborted = traced_records(
            droppy_tasks(), qos=QosSpec(kind="abort_late"), engine="scalar"
        )
        assert "drop" in [record[0] for record in dropped]
        assert "abort" in [record[0] for record in aborted]

    def test_every_kind_is_legal(self):
        for _name, build, policy, qos in SCENARIOS:
            for record in traced_records(build(), policy=policy, qos=qos):
                assert record[0] in EVENT_KINDS


class TestTransparency:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "name, build, policy, qos", SCENARIOS, ids=[s[0] for s in SCENARIOS]
    )
    def test_timeline_identical_with_and_without_tracer(
        self, engine, name, build, policy, qos
    ):
        bare = run(build(), policy=policy, qos=qos, engine=engine)
        traced = run(build(), policy=policy, qos=qos, engine=engine,
                     tracer=Tracer())
        assert bare == traced

    def test_tracer_observes_every_completion(self):
        tasks = mode_switch_tasks()
        tracer = Tracer()
        timeline = run(tasks, tracer=tracer)
        ends = [record for record in tracer.records if record[0] == "end"]
        assert len(ends) == len(timeline.segments) == len(tasks)
