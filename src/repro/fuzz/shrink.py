"""Greedy delta-debugging: minimize a failing case, keep it failing.

The shrinker repeatedly proposes structurally smaller variants of a
failing :class:`~repro.fuzz.cases.FuzzCase` and keeps a variant whenever
it still violates (one of) the *same* oracles — classic ddmin specialized
to the scenario structure. Reduction passes, in order of how much they
remove:

1. drop whole streams (one at a time, keeping >= 1);
2. cut the frame budget (try the smallest counts first);
3. replace arrival processes with "everything releases at t=0";
4. drop the QoS spec, per-stream deadlines, and frame skipping;
5. truncate task templates to their first op, drop ancillary claims,
   zero mode-switch costs, and drop the interference matrix.

Passes run to a fixpoint (no pass finds a smaller failing variant), so
the result is 1-minimal with respect to these operations. Candidates
that fail to *construct* (a spec validation rejects the smaller form)
are simply skipped.

Oracle-set semantics: a candidate is accepted when its failing-oracle
set intersects the target set (by default, the oracles the original
case failed). Intersection — not equality — because removing structure
legitimately removes *secondary* symptoms while preserving the bug being
chased.

The shrunk case ships as a :class:`Reproducer`: a self-contained JSON
document (kind ``fuzz_reproducer``) embedding the full case plus the
expected violations, replayable anywhere via ``repro fuzz replay``.

Cost note: intermediate candidates are judged with the cheap oracle pack
(``deep=False``) unless the chased oracle itself needs re-runs
(determinism / trace replay / merge); the final verdict recorded in the
reproducer always uses the full pack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.common.codec import WHEN_SET, Codec
from repro.errors import ConfigError
from repro.fuzz.cases import FuzzCase
from repro.fuzz.oracles import CaseOutcome, Violation, evaluate_case

#: Oracles whose detection requires the extra engine runs of the deep
#: pack; chasing one of these disables the cheap-mode shortcut.
_DEEP_ORACLES = frozenset(
    {"determinism", "trace_roundtrip", "trace_transparency", "merge"}
)


@dataclass(frozen=True)
class Reproducer(Codec, kind="fuzz_reproducer"):
    """A minimized failing case plus the violations it must reproduce.

    Decoding ignores unknown keys, so older files that still carry an
    ``engine`` key (from when the timeline core was selectable) load.
    """

    case: FuzzCase
    oracles: tuple[str, ...]
    violations: tuple[Violation, ...]
    campaign_seed: int | None = field(default=None, metadata=WHEN_SET)
    index: int | None = field(default=None, metadata=WHEN_SET)

    def save(self, path: "str | Path") -> None:
        Path(path).write_text(self.to_json(indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path: "str | Path") -> "Reproducer":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise ConfigError(
                f"cannot read reproducer {str(path)!r}: {error}"
            ) from None
        return cls.from_json(text)


def _still_fails(
    case: FuzzCase, target: frozenset, deep: bool, differential: bool
) -> bool:
    """Whether ``case`` constructs, runs, and hits a chased oracle."""
    try:
        outcome = evaluate_case(case, deep=deep, differential=differential)
    except ConfigError:
        return False
    return bool(target & set(outcome.failing_oracles))


def _with_scenario(case: FuzzCase, scenario) -> FuzzCase:
    return replace(case, scenario=scenario)


def _stream_drop_candidates(case: FuzzCase):
    spec = case.scenario
    if len(spec.streams) < 2:
        return
    for victim in spec.streams:
        kept = tuple(
            stream for stream in spec.streams if stream.name != victim.name
        )
        templates = {
            name: chain
            for name, chain in case.templates.items()
            if name != victim.name
        }
        yield replace(
            case, scenario=replace(spec, streams=kept), templates=templates
        )


def _frame_cut_candidates(case: FuzzCase):
    frames = case.scenario.frames
    tried = sorted(
        {1, 2, 3, frames // 2, frames - 1} - {0, frames}
    )
    for count in tried:
        if 1 <= count < frames:
            yield replace(
                case, scenario=replace(case.scenario, frames=count)
            )


def _per_stream_candidates(case: FuzzCase):
    spec = case.scenario
    for index, stream in enumerate(spec.streams):
        edits = []
        if stream.arrivals is not None or stream.period_s is not None:
            edits.append(replace(stream, arrivals=None, period_s=None))
        if stream.deadline_s is not None:
            edits.append(replace(stream, deadline_s=None))
        if stream.skip_interval != 1:
            edits.append(replace(stream, skip_interval=1))
        for edited in edits:
            streams = (
                spec.streams[:index] + (edited,) + spec.streams[index + 1:]
            )
            yield _with_scenario(case, replace(spec, streams=streams))


def _scenario_knob_candidates(case: FuzzCase):
    if case.scenario.qos is not None:
        yield _with_scenario(case, replace(case.scenario, qos=None))
    if case.interference is not None:
        yield replace(case, interference=None)


def _template_candidates(case: FuzzCase):
    for name, chain in case.templates.items():
        simplified = []
        if len(chain) > 1:
            simplified.append(chain[:1])
        slimmed = tuple(
            replace(
                shape,
                claims=(
                    tuple(
                        claim for claim in shape.claims if claim[1] >= 1.0
                    )
                    or shape.claims
                ),
                cross_switch_s=0.0,
            )
            for shape in chain
        )
        if slimmed != chain:
            simplified.append(slimmed)
        for variant in simplified:
            yield replace(case, templates={**case.templates, name: variant})


_PASSES = (
    _stream_drop_candidates,
    _frame_cut_candidates,
    _per_stream_candidates,
    _scenario_knob_candidates,
    _template_candidates,
)


def shrink_case(
    case: FuzzCase,
    target_oracles=None,
    *,
    max_rounds: int = 16,
    campaign_seed: int | None = None,
    index: int | None = None,
) -> Reproducer:
    """Minimize ``case`` while it keeps violating the chased oracles.

    ``target_oracles`` defaults to whatever the case fails right now; a
    case that passes the full pack cannot be shrunk and raises
    :class:`~repro.errors.ConfigError`. Returns the reproducer for the
    1-minimal variant, with the final violations re-verified by the full
    (deep, differential) oracle pack.
    """
    baseline = evaluate_case(case, deep=True, differential=True)
    if target_oracles is None:
        target_oracles = baseline.failing_oracles
    target = frozenset(target_oracles)
    if not target or not (target & set(baseline.failing_oracles)):
        raise ConfigError(
            f"case {case.case_id!r} does not violate"
            f" {sorted(target) or 'any oracle'}: nothing to shrink"
        )
    deep = bool(target & _DEEP_ORACLES)
    differential = "engine_divergence" in target
    current = case
    for _ in range(max_rounds):
        improved = False
        for candidates_of in _PASSES:
            # Re-propose from the current smallest form until this pass
            # is exhausted: dropping stream A can make stream B droppable.
            progressing = True
            while progressing:
                progressing = False
                for candidate in candidates_of(current):
                    if _still_fails(candidate, target, deep, differential):
                        current = candidate
                        improved = True
                        progressing = True
                        break
        if not improved:
            break
    final = evaluate_case(current, deep=True, differential=differential)
    kept = tuple(
        violation
        for violation in final.violations
        if violation.oracle in target
    )
    return Reproducer(
        case=current,
        oracles=tuple(
            sorted({violation.oracle for violation in kept})
        ),
        violations=kept,
        campaign_seed=campaign_seed,
        index=index,
    )


def replay_reproducer(source: "Reproducer | FuzzCase") -> CaseOutcome:
    """Re-run a reproducer (or bare case) through the full oracle pack.

    Replay always includes the differential oracle: a reproducer
    recording an ``engine_divergence`` must re-fail on replay, and the
    extra reference-engine run is one-off noise for everything else.
    """
    case = source.case if isinstance(source, Reproducer) else source
    return evaluate_case(case, deep=True, differential=True)


__all__ = ["Reproducer", "replay_reproducer", "shrink_case"]
