"""Self-contained fuzz cases: a scenario plus the task chains it runs.

A :class:`FuzzCase` packages everything needed to execute one adversarial
scenario through the timeline engine — the
:class:`~repro.schedule.streams.ScenarioSpec` (streams, arrivals, policy,
QoS), a *synthetic* per-stream task template
(:class:`TaskShape` chains, standing in for platform-lowered models so no
model registry or platform binding is needed), an optional measured
:class:`~repro.catalog.interference.InterferenceMatrix`, and an optional
planted fault (``inject``). Cases round-trip losslessly through JSON,
which is what makes a shrunk reproducer replayable on any machine: the
file *is* the failing input, not a pointer to one.

``inject`` names a deliberate engine-level fault from
:data:`INJECTIONS` — today ``"invert_priority"``, which replaces the
dispatch order of an ``exclusive`` policy with lowest-priority-first.
Injections exist to prove the oracle/shrink/replay pipeline end to end
(a campaign with a planted inversion must detect it, shrink it, and
re-fail on replay); they ride the case JSON so a reproducer keeps
failing wherever it is replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.api.results import ScheduleReport, ServingReport
from repro.catalog.interference import InterferenceMatrix
from repro.common.codec import WHEN_SET, Codec
from repro.errors import ConfigError
from repro.schedule.policies import SchedulingPolicy, make_policy
from repro.schedule.reference import run_reference
from repro.schedule.resources import ResourceClaim, ResourceKind
from repro.schedule.streams import FramePlan, ScenarioSpec, instantiate_frames
from repro.schedule.timeline import OpTask, Timeline, TimelineScheduler
from repro.serving.qos import make_qos

#: The platform label fuzz reports carry (cases are platform-free).
FUZZ_PLATFORM = "fuzz:synthetic"


@dataclass(frozen=True)
class TaskShape(Codec):
    """One op of a synthetic stream template.

    ``claims`` are ``(resource kind, fraction)`` pairs — the primitive
    form of :class:`~repro.schedule.resources.ResourceClaim` so shapes
    stay JSON-portable. ``seconds`` may be 0.0 (zero-length ops are a
    fuzzed edge case, not an error).
    """

    name: str
    seconds: float
    claims: tuple[tuple[str, float], ...]
    mode: str = field(default="simd", metadata=WHEN_SET)
    cross_switch_s: float = field(default=0.0, metadata=WHEN_SET)

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ConfigError(
                f"task shape {self.name!r} has negative duration"
                f" {self.seconds}"
            )
        if not self.claims:
            raise ConfigError(f"task shape {self.name!r} claims no resources")
        canonical = []
        for entry in self.claims:
            try:
                kind, fraction = entry
            except (TypeError, ValueError):
                raise ConfigError(
                    f"task shape claim must be (kind, fraction), got"
                    f" {entry!r}"
                ) from None
            canonical.append((ResourceKind(str(kind)).value, float(fraction)))
        object.__setattr__(self, "claims", tuple(canonical))

    def to_op(self, uid: int) -> OpTask:
        """The template :class:`OpTask` (rebased by ``instantiate_frames``)."""
        return OpTask(
            uid=uid,
            name=self.name,
            seconds=self.seconds,
            claims=tuple(
                ResourceClaim(ResourceKind(kind), fraction=fraction)
                for kind, fraction in self.claims
            ),
            mode=self.mode,
            cross_switch_s=self.cross_switch_s,
        )


@dataclass(frozen=True)
class FuzzCase(Codec, kind="fuzz_case"):
    """One generated adversarial scenario, replayable from JSON alone."""

    case_id: str
    family: str
    seed: int
    scenario: ScenarioSpec
    templates: dict[str, tuple[TaskShape, ...]]
    interference: InterferenceMatrix | None = field(
        default=None, metadata=WHEN_SET
    )
    inject: str | None = field(default=None, metadata=WHEN_SET)

    def __post_init__(self) -> None:
        templates = {
            name: tuple(
                shape
                if isinstance(shape, TaskShape)
                else TaskShape.from_dict(shape)
                for shape in chain
            )
            for name, chain in self.templates.items()
        }
        object.__setattr__(self, "templates", templates)
        for stream in self.scenario.streams:
            if stream.name not in templates:
                raise ConfigError(
                    f"case {self.case_id!r}: stream {stream.name!r} has no"
                    " task template"
                )
            if not templates[stream.name]:
                raise ConfigError(
                    f"case {self.case_id!r}: stream {stream.name!r} has an"
                    " empty task template"
                )
        if self.inject is not None and self.inject not in INJECTIONS:
            raise ConfigError(
                f"case {self.case_id!r}: unknown injection {self.inject!r};"
                f" one of {tuple(INJECTIONS)}"
            )

    @property
    def n_streams(self) -> int:
        return len(self.scenario.streams)

    @property
    def n_frames(self) -> int:
        return self.scenario.frames

    def save(self, path: "str | Path") -> None:
        Path(path).write_text(self.to_json(indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path: "str | Path") -> "FuzzCase":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise ConfigError(
                f"cannot read fuzz case {str(path)!r}: {error}"
            ) from None
        return cls.from_json(text)


# -- fault injection -------------------------------------------------------------------
class _InvertPriorityPolicy(SchedulingPolicy):
    """Planted bug: exclusive dispatch picks the *lowest*-priority task.

    With two ready tasks of different weights this violates the
    priority-order oracle at the first dispatch instant — the minimal
    deliberate fault for proving the detect/shrink/replay pipeline.
    """

    def __init__(self, inner: SchedulingPolicy) -> None:
        self.inner = inner
        self.name = inner.name

    def dispatch(self, ready: list, running: list) -> list:
        if running or not ready:
            return []
        worst = min(
            ready, key=lambda task: (task.weight, task.release_s, task.uid)
        )
        return [worst]

    def weight(self, task) -> float:
        return self.inner.weight(task)


#: Named engine-level faults a case may plant (see module docstring).
INJECTIONS = {
    "invert_priority": _InvertPriorityPolicy,
}


@dataclass(frozen=True)
class CaseResult:
    """One executed case: the instantiated plan, timeline, and reports."""

    case: FuzzCase
    plan: FramePlan
    timeline: Timeline
    schedule: ScheduleReport
    serving: ServingReport

    @property
    def tasks(self) -> tuple[OpTask, ...]:
        return self.plan.tasks


def run_case(
    case: FuzzCase, reference: bool = False, tracer=None
) -> CaseResult:
    """Execute one case through the timeline engine and assemble reports.

    ``reference=True`` schedules on the reference loop
    (:func:`~repro.schedule.reference.run_reference`) instead of the
    production core; the differential oracle does that and treats any
    report difference as a violation — the two are pinned bit-identical.
    ``tracer`` attaches an observation-only
    :class:`~repro.obs.trace.Tracer` — the trace-transparency oracle
    asserts it changes nothing.

    Raises :class:`~repro.errors.SchedulingError` if the engine itself
    fails — the caller (see :func:`repro.fuzz.oracles.evaluate_case`)
    records that as a ``crash`` oracle violation rather than letting the
    campaign die.
    """
    spec = case.scenario
    templates = {
        name: [shape.to_op(uid) for uid, shape in enumerate(chain)]
        for name, chain in case.templates.items()
    }
    plan = instantiate_frames(spec, templates)
    policy = make_policy(spec.policy)
    if case.inject is not None:
        policy = INJECTIONS[case.inject](policy)
    scheduler = TimelineScheduler(
        policy,
        qos=make_qos(spec.qos),
        interference=(
            case.interference
            if case.interference is not None and case.interference
            else None
        ),
        tracer=tracer,
    )
    if reference:
        timeline = run_reference(scheduler, plan.tasks)
    else:
        timeline = scheduler.run(plan.tasks)
    return CaseResult(
        case=case,
        plan=plan,
        timeline=timeline,
        schedule=ScheduleReport.from_timeline(
            spec, FUZZ_PLATFORM, timeline, plan
        ),
        serving=ServingReport.from_timeline(
            spec, FUZZ_PLATFORM, timeline, plan
        ),
    )


__all__ = [
    "FUZZ_PLATFORM",
    "INJECTIONS",
    "CaseResult",
    "FuzzCase",
    "TaskShape",
    "run_case",
]
