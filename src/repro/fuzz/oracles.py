"""Invariant oracles: properties every scheduled scenario must satisfy.

Each ``check_*`` function examines an executed timeline (or the reports
derived from one) and returns a list of human-readable violation
messages — empty means the invariant holds. The pack generalizes the
assertions that grew up inside the hypothesis suite
(``tests/schedule/test_invariants.py``); that suite now calls the
``assert_*`` wrappers here, so the property tests and the fuzzer check
the *same* predicates and cannot drift.

The oracles, and what each one guards:

* **capacity** — no resource delivers more than one resource-second per
  second: per resource, summed ``fraction x seconds`` over executed
  tasks is bounded by the makespan. Skipped when an interference matrix
  is active (the engine then derives slowdown from measured directional
  pressure, not fractional claims, so the claim-sum bound is not the
  governing model).
* **conservation** — work is neither lost nor duplicated: every
  non-cancelled task appears in exactly one segment whose duration
  equals the task's full-speed seconds, and no dropped or in-flight
  aborted task appears at all.
* **monotone_events** — time only moves forward: completion-ordered
  segments have nondecreasing ends, nothing starts before its static
  release or ends before it starts, nothing finishes faster than
  full speed, drops and preemption events never predate their frame's
  release, and the makespan covers the last event.
* **frame_atomicity** — frames have exactly one of three outcomes:
  every task completed, every task was dropped, or (preemptive QoS
  only) a prefix of the chain completed and the rest was aborted
  in-flight — never a mix of drops and aborts, never a task left
  unresolved.
* **priority_order** — under ``exclusive`` and ``exclusive_preempt``,
  dispatch never inverts priority: whenever a task starts while a
  strictly higher-priority task is released, dependency-satisfied, and
  still waiting, that is a violation. (This is an *order-of-dispatch*
  property; blocking by the kernel already in flight is what
  **preemption_bound** constrains.)
* **preemption_bound** — under ``exclusive_preempt``, priority
  inversion is bounded to the one kernel already on the machine: no
  strictly-lower-weight kernel *starts* strictly inside the window
  between a task becoming ready and that task starting.
* **serving_consistency** — a :class:`ServingReport`'s per-stream
  statistics agree with its own per-frame records: counts partition,
  and mean/max/percentile latencies recompute to the stored values.
  (Aggregate ``goodput_fps`` is excluded by design: merged fleet
  reports keep per-partition goodput, which is documented behavior.)
* **reports_agree** — the schedule-view and serving-view reports of one
  timeline tell the same story (makespan, per-stream completion, drop,
  and miss counts).

:func:`evaluate_case` runs a :class:`~repro.fuzz.cases.FuzzCase`
through the engine and the full pack, adding case-level oracles that
need a re-run: **determinism** (same case twice → byte-identical report
JSON), **report_roundtrip** (``to_json``/``from_dict`` is lossless),
**trace_roundtrip** (materializing the arrival trace and replaying it
reproduces the run bit-for-bit), **merge** (splitting the replayed
scenario into partitions and merging the per-partition serving reports
is self-consistent), **trace_transparency** (attaching a
:class:`~repro.obs.trace.Tracer` changes no report byte — observation
must not perturb the simulation), and **crash** (the engine raised
instead of scheduling). With ``differential=True`` it additionally
re-runs the case on the reference engine
(:func:`~repro.schedule.reference.run_reference`) and flags
**engine_divergence** when the reports are not byte-identical — the
production core is pinned to the reference's arithmetic, so any
difference is a bug in one of them — and extends **trace_transparency**
to demand both emit the identical trace event sequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from repro.common.codec import Codec
from repro.common.stats import percentile
from repro.errors import SchedulingError
from repro.fuzz.cases import CaseResult, FuzzCase, run_case
from repro.schedule.timeline import OpTask, Timeline

#: Tolerances. Exact-derivation checks (recomputing a value the same way
#: the reporting code did) compare to _EXACT; inequality checks on
#: accumulated event times allow relative float dust, mirroring the
#: engine's own epsilon regime.
_EXACT = 1e-12
_REL = 1e-9

#: Every oracle name that can appear in a violation (sorted).
ORACLE_NAMES = (
    "capacity",
    "conservation",
    "crash",
    "determinism",
    "engine_divergence",
    "frame_atomicity",
    "merge",
    "monotone_events",
    "preemption_bound",
    "priority_order",
    "report_roundtrip",
    "reports_agree",
    "serving_consistency",
    "trace_roundtrip",
    "trace_transparency",
)


@dataclass(frozen=True)
class Violation(Codec):
    """One oracle failure: which invariant broke and how."""

    oracle: str
    message: str


# -- timeline-level oracles ------------------------------------------------------------
def _aborted_uids(timeline: Timeline) -> set[int]:
    """Tasks cancelled in-flight by a preemptive QoS policy."""
    return {
        record.uid
        for record in timeline.preemptions
        if record.action == "abort"
    }


def check_capacity(
    tasks, timeline: Timeline, interference=None
) -> list[str]:
    """Per resource, executed work is bounded by the makespan."""
    if interference is not None and interference:
        # Pressure-model runs don't obey the fractional-claim bound; the
        # conservation and monotonicity oracles still apply to them.
        return []
    dropped = {record.uid for record in timeline.drops} | _aborted_uids(
        timeline
    )
    demand: dict[str, float] = {}
    for task in tasks:
        if task.uid in dropped:
            continue
        for claim in task.claims:
            key = claim.kind.value
            demand[key] = demand.get(key, 0.0) + claim.fraction * task.seconds
    bound = timeline.makespan_s * (1.0 + _REL) + _EXACT
    return [
        f"resource {key!r} delivered {total:.9g} resource-seconds in a"
        f" {timeline.makespan_s:.9g}s makespan"
        for key, total in sorted(demand.items())
        if total > bound
    ]


def check_conservation(tasks, timeline: Timeline) -> list[str]:
    """Every executed task ran exactly once, at its full-speed duration."""
    problems: list[str] = []
    # In-flight aborts cancel a task outright, exactly like an admission
    # drop for conservation purposes: no segment may exist for it.
    dropped = {record.uid for record in timeline.drops} | _aborted_uids(
        timeline
    )
    segments: dict[int, list] = {}
    for segment in timeline.segments:
        segments.setdefault(segment.uid, []).append(segment)
    for task in tasks:
        runs = segments.get(task.uid, [])
        if task.uid in dropped:
            if runs:
                problems.append(
                    f"dropped task {task.uid} ({task.stream}/f{task.frame})"
                    f" still has {len(runs)} segment(s)"
                )
            continue
        if len(runs) != 1:
            problems.append(
                f"task {task.uid} ({task.stream}/f{task.frame}) has"
                f" {len(runs)} segments, expected exactly 1"
            )
            continue
        if abs(runs[0].seconds - task.seconds) > _EXACT:
            problems.append(
                f"task {task.uid} ran {runs[0].seconds:.9g}s of work,"
                f" expected {task.seconds:.9g}s"
            )
    known = {task.uid for task in tasks}
    for uid in sorted(set(segments) - known):
        problems.append(f"segment for unknown task uid {uid}")
    # busy_s is per-resource wall time with nonzero load: bounded by the
    # makespan, and never below the clipped load integral.
    bound = timeline.makespan_s * (1.0 + _REL) + _EXACT
    for kind, busy in sorted(timeline.busy_s.items(), key=lambda kv: kv[0].value):
        if busy < -_EXACT or busy > bound:
            problems.append(
                f"resource {kind.value!r} busy {busy:.9g}s outside"
                f" [0, makespan {timeline.makespan_s:.9g}s]"
            )
        integral = timeline.load_integral_s.get(kind, 0.0)
        if integral > busy * (1.0 + _REL) + _EXACT:
            problems.append(
                f"resource {kind.value!r} load integral {integral:.9g}s"
                f" exceeds busy time {busy:.9g}s"
            )
    return problems


def check_monotone_events(tasks, timeline: Timeline) -> list[str]:
    """Event times only move forward, at no more than full speed."""
    problems: list[str] = []
    by_uid = {task.uid: task for task in tasks}
    previous_end = 0.0
    last_event = 0.0
    for segment in timeline.segments:
        if segment.end_s < previous_end - _EXACT:
            problems.append(
                f"segment uid {segment.uid} ends at {segment.end_s:.9g},"
                f" before prior completion {previous_end:.9g}"
            )
        previous_end = max(previous_end, segment.end_s)
        last_event = max(last_event, segment.end_s)
        if segment.start_s > segment.end_s + _EXACT:
            problems.append(
                f"segment uid {segment.uid} starts after it ends"
                f" ({segment.start_s:.9g} > {segment.end_s:.9g})"
            )
        task = by_uid.get(segment.uid)
        if task is None:
            continue
        # Static release is a lower bound: closed-loop pacing only ever
        # pushes a release later.
        if segment.start_s < task.release_s - _EXACT:
            problems.append(
                f"task {segment.uid} started at {segment.start_s:.9g},"
                f" before its release {task.release_s:.9g}"
            )
        elapsed = segment.end_s - segment.start_s
        floor = task.seconds * (1.0 - _REL) - _EXACT
        if elapsed < floor:
            problems.append(
                f"task {segment.uid} finished {task.seconds:.9g}s of work"
                f" in {elapsed:.9g}s (faster than full speed)"
            )
    for record in timeline.drops:
        last_event = max(last_event, record.time_s)
        task = by_uid.get(record.uid)
        if task is not None and record.time_s < task.release_s - _EXACT:
            problems.append(
                f"task {record.uid} dropped at {record.time_s:.9g}, before"
                f" its release {task.release_s:.9g}"
            )
    for record in timeline.preemptions:
        last_event = max(last_event, record.time_s)
        task = by_uid.get(record.uid)
        if task is not None and record.time_s < task.release_s - _EXACT:
            problems.append(
                f"task {record.uid} preempted ({record.action}) at"
                f" {record.time_s:.9g}, before its release"
                f" {task.release_s:.9g}"
            )
    if timeline.makespan_s < last_event - _EXACT:
        problems.append(
            f"makespan {timeline.makespan_s:.9g} precedes the last event"
            f" at {last_event:.9g}"
        )
    return problems


def check_frame_atomicity(tasks, timeline: Timeline) -> list[str]:
    """Tasks partition into completed/dropped/aborted; frames resolve
    whole: all-completed, all-dropped, or a completed chain prefix with
    the remainder aborted in-flight."""
    problems: list[str] = []
    completed = {segment.uid for segment in timeline.segments}
    dropped = {record.uid for record in timeline.drops}
    aborted = _aborted_uids(timeline)
    for uid in sorted(completed & dropped):
        problems.append(f"task {uid} both completed and dropped")
    for uid in sorted(completed & aborted):
        problems.append(f"task {uid} both completed and aborted")
    for uid in sorted(dropped & aborted):
        problems.append(f"task {uid} both dropped and aborted")
    every = {task.uid for task in tasks}
    for uid in sorted(every - completed - dropped - aborted):
        problems.append(f"task {uid} neither completed, dropped, nor aborted")
    frames: dict[tuple[str, int], list[OpTask]] = {}
    for task in tasks:
        frames.setdefault((task.stream, task.frame), []).append(task)
    for (stream, frame), members in sorted(frames.items()):
        hit = [task.uid for task in members if task.uid in dropped]
        cut = [task.uid for task in members if task.uid in aborted]
        if hit and cut:
            problems.append(
                f"frame {stream}/f{frame} mixes admission drops and"
                f" in-flight aborts"
            )
            continue
        if hit and len(hit) != len(members):
            problems.append(
                f"frame {stream}/f{frame} dropped {len(hit)} of"
                f" {len(members)} tasks — drops must take whole frames"
            )
        if cut:
            # The abort cancels the frame's *unstarted* remainder: the
            # chain runs in uid order, so the completed part must be a
            # strict uid-prefix of the aborted part.
            boundary = min(cut)
            stragglers = [
                task.uid
                for task in members
                if task.uid in completed and task.uid > boundary
            ]
            if stragglers:
                problems.append(
                    f"frame {stream}/f{frame} completed tasks {stragglers}"
                    f" after aborted task {boundary} — aborts must cancel"
                    f" the chain's whole remainder"
                )
    return problems


def _resolve_times(timeline: Timeline) -> dict[int, float]:
    """When each task stopped mattering: completion, drop, or abort time.

    Deschedule records are *not* resolutions — a descheduled task still
    runs later and resolves through its segment.
    """
    resolved = {
        segment.uid: segment.end_s for segment in timeline.segments
    }
    for record in timeline.drops:
        resolved.setdefault(record.uid, record.time_s)
    for record in timeline.preemptions:
        if record.action == "abort":
            resolved.setdefault(record.uid, record.time_s)
    return resolved


def _ready_time(task: OpTask, resolved: dict[int, float]) -> float | None:
    """When ``task`` became dispatchable, mirroring the engine's rules.

    ``None`` when a dependency never resolved (the task can never run).
    Closed-loop frame heads re-release ``think_s`` after their pacing
    dependency resolves — the same ``max`` the engine applies.
    """
    ready = task.release_s
    for dep in task.deps:
        when = resolved.get(dep)
        if when is None:
            return None
        if task.think_s is not None:
            when = when + task.think_s
        ready = max(ready, when)
    return ready


def check_priority_order(tasks, timeline: Timeline, policy: str) -> list[str]:
    """Under ``exclusive``/``exclusive_preempt``, no dispatch passes over
    a waiting higher priority task (see the module docstring for what
    this deliberately does *not* claim about blocking)."""
    if policy not in ("exclusive", "exclusive_preempt"):
        return []
    problems: list[str] = []
    by_uid = {task.uid: task for task in tasks}
    starts = {segment.uid: segment.start_s for segment in timeline.segments}
    drop_times = {record.uid: record.time_s for record in timeline.drops}
    for record in timeline.preemptions:
        # An aborted task was waiting until its abort, exactly like a
        # dropped one.
        if record.action == "abort":
            drop_times.setdefault(record.uid, record.time_s)
    resolved = _resolve_times(timeline)
    for segment in timeline.segments:
        chosen = by_uid.get(segment.uid)
        if chosen is None:
            continue
        now = segment.start_s
        for task in tasks:
            if task.uid == segment.uid or task.weight <= chosen.weight:
                continue
            started = starts.get(task.uid)
            if started is not None:
                waiting = started > now + _EXACT
            else:
                dropped_at = drop_times.get(task.uid)
                waiting = dropped_at is not None and dropped_at > now + _EXACT
            if not waiting:
                continue
            ready = _ready_time(task, resolved)
            # Exact comparison on purpose: the engine's event queue keys
            # on exact floats, so a task released any amount after ``now``
            # (even denormal dust) really is not dispatchable yet.
            if ready is not None and ready <= now:
                problems.append(
                    f"at t={now:.9g} task {segment.uid}"
                    f" (w={chosen.weight:g}) was dispatched while task"
                    f" {task.uid} (w={task.weight:g}) was ready and waiting"
                )
    return problems


def check_preemption_bound(
    tasks, timeline: Timeline, policy: str
) -> list[str]:
    """Under ``exclusive_preempt``, inversion is bounded to one kernel.

    Once a task is ready (released, dependencies resolved), the only
    thing allowed to delay it is the kernel already on the machine: no
    strictly-lower-weight kernel may *start* strictly inside the open
    window between the task's ready time and its own start.
    """
    if policy != "exclusive_preempt":
        return []
    problems: list[str] = []
    by_uid = {task.uid: task for task in tasks}
    resolved = _resolve_times(timeline)
    starts = [
        (segment.start_s, segment.uid) for segment in timeline.segments
    ]
    for segment in timeline.segments:
        waiter = by_uid.get(segment.uid)
        if waiter is None:
            continue
        ready = _ready_time(waiter, resolved)
        if ready is None or segment.start_s <= ready + _EXACT:
            continue
        for start, uid in starts:
            if uid == segment.uid:
                continue
            other = by_uid.get(uid)
            if other is None or other.weight >= waiter.weight:
                continue
            if ready + _EXACT < start < segment.start_s - _EXACT:
                problems.append(
                    f"task {uid} (w={other.weight:g}) started at"
                    f" {start:.9g} while task {segment.uid}"
                    f" (w={waiter.weight:g}) had been ready since"
                    f" {ready:.9g} and only started at"
                    f" {segment.start_s:.9g} — inversion beyond the"
                    f" in-flight kernel"
                )
    return problems


# -- report-level oracles --------------------------------------------------------------
def check_serving_consistency(report) -> list[str]:
    """A serving report's statistics agree with its own frame records."""
    problems: list[str] = []
    for stream in report.streams:
        frames = stream.frames
        done = [frame for frame in frames if not frame.dropped]
        latencies = [frame.latency_s for frame in done]
        expected = {
            "offered": len(frames),
            "completed": len(done),
            "dropped": len(frames) - len(done),
            "missed": sum(1 for frame in done if frame.missed),
        }
        for name, want in expected.items():
            got = getattr(stream, name)
            if got != want:
                problems.append(
                    f"stream {stream.name!r}: {name}={got} but frame"
                    f" records say {want}"
                )
        recomputed = {
            "mean_latency_s": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "max_latency_s": max(latencies) if latencies else 0.0,
            "p50_s": percentile(latencies, 50),
            "p95_s": percentile(latencies, 95),
            "p99_s": percentile(latencies, 99),
        }
        for name, want in recomputed.items():
            got = getattr(stream, name)
            if abs(got - want) > _EXACT:
                problems.append(
                    f"stream {stream.name!r}: {name}={got:.9g} but frame"
                    f" records recompute to {want:.9g}"
                )
    return problems


def check_reports_agree(schedule, serving) -> list[str]:
    """Schedule-view and serving-view of one timeline tell one story."""
    problems: list[str] = []
    if schedule.makespan_s != serving.makespan_s:
        problems.append(
            f"makespan disagrees: schedule {schedule.makespan_s:.9g} vs"
            f" serving {serving.makespan_s:.9g}"
        )
    serving_streams = {stream.name: stream for stream in serving.streams}
    for stream in schedule.streams:
        other = serving_streams.get(stream.name)
        if other is None:
            problems.append(
                f"stream {stream.name!r} missing from the serving report"
            )
            continue
        for schedule_name, serving_name in (
            ("frames_run", "completed"),
            ("frames_dropped", "dropped"),
            ("deadline_misses", "missed"),
        ):
            mine = getattr(stream, schedule_name)
            theirs = getattr(other, serving_name)
            if mine != theirs:
                problems.append(
                    f"stream {stream.name!r}: schedule {schedule_name}="
                    f"{mine} vs serving {serving_name}={theirs}"
                )
    return problems


# -- assertion wrappers (the hypothesis suite's entry points) --------------------------
def _require(problems: list[str], oracle: str) -> None:
    if problems:
        raise AssertionError(
            f"{oracle} oracle violated:\n" + "\n".join(problems)
        )


def assert_capacity(tasks, timeline, interference=None) -> None:
    _require(check_capacity(tasks, timeline, interference), "capacity")


def assert_conservation(tasks, timeline) -> None:
    _require(check_conservation(tasks, timeline), "conservation")


def assert_monotone_events(tasks, timeline) -> None:
    _require(check_monotone_events(tasks, timeline), "monotone_events")


def assert_frame_atomicity(tasks, timeline) -> None:
    _require(check_frame_atomicity(tasks, timeline), "frame_atomicity")


def assert_priority_order(tasks, timeline, policy) -> None:
    _require(check_priority_order(tasks, timeline, policy), "priority_order")


def assert_preemption_bound(tasks, timeline, policy) -> None:
    _require(
        check_preemption_bound(tasks, timeline, policy), "preemption_bound"
    )


def assert_serving_consistency(report) -> None:
    _require(check_serving_consistency(report), "serving_consistency")


def assert_reports_agree(schedule, serving) -> None:
    _require(check_reports_agree(schedule, serving), "reports_agree")


# -- whole-case evaluation -------------------------------------------------------------
@dataclass(frozen=True)
class CaseOutcome:
    """One case's verdict: the case and every oracle violation found."""

    case: FuzzCase
    violations: tuple[Violation, ...]
    result: CaseResult | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def failing_oracles(self) -> tuple[str, ...]:
        return tuple(
            sorted({violation.oracle for violation in self.violations})
        )


def _roundtrip_violations(result: CaseResult) -> list[Violation]:
    # Deferred import: results.report_from_dict is the public dispatcher
    # and this module is imported by it transitively via the fuzz package.
    from repro.api.results import report_from_dict

    problems: list[Violation] = []
    for label, report in (
        ("schedule", result.schedule),
        ("serving", result.serving),
    ):
        try:
            back = report_from_dict(json.loads(report.to_json()))
        except Exception as error:  # noqa: BLE001 - any failure is the finding
            problems.append(
                Violation(
                    "report_roundtrip",
                    f"{label} report failed to round-trip: {error}",
                )
            )
            continue
        if back != report:
            problems.append(
                Violation(
                    "report_roundtrip",
                    f"{label} report changed across to_json/from_dict",
                )
            )
    return problems


def _determinism_violations(
    case: FuzzCase, result: CaseResult
) -> list[Violation]:
    rerun = run_case(case)
    problems = []
    for label, first, second in (
        ("schedule", result.schedule, rerun.schedule),
        ("serving", result.serving, rerun.serving),
    ):
        if first.to_json() != second.to_json():
            problems.append(
                Violation(
                    "determinism",
                    f"{label} report differs between two runs of case"
                    f" {case.case_id!r}",
                )
            )
    return problems


def _engine_divergence_violations(
    case: FuzzCase, result: CaseResult
) -> list[Violation]:
    """Differential oracle: the reference engine must tell the same story."""
    try:
        rerun = run_case(case, reference=True)
    except Exception as error:  # noqa: BLE001 - any failure is the finding
        return [
            Violation(
                "engine_divergence",
                "the reference engine raised where the production engine"
                f" scheduled case {case.case_id!r}: {error}",
            )
        ]
    problems = []
    for label, first, second in (
        ("schedule", result.schedule, rerun.schedule),
        ("serving", result.serving, rerun.serving),
    ):
        if first.to_json() != second.to_json():
            problems.append(
                Violation(
                    "engine_divergence",
                    f"{label} report differs between the production and"
                    f" reference engines for case {case.case_id!r}",
                )
            )
    return problems


def _trace_roundtrip_violations(
    case: FuzzCase, result: CaseResult
) -> list[Violation]:
    # Deferred import: slo pulls serving machinery the oracle pack must
    # not require at import time.
    from repro.serving.slo import apply_trace, trace_scenario

    spec = case.scenario
    if any(stream.closed_loop for stream in spec.streams):
        return []
    try:
        replayed = apply_trace(spec, trace_scenario(spec))
        rerun = run_case(replace(case, scenario=replayed))
    except Exception as error:  # noqa: BLE001 - any failure is the finding
        return [
            Violation(
                "trace_roundtrip",
                f"replaying the materialized trace failed: {error}",
            )
        ]
    if rerun.serving.to_json() != result.serving.to_json():
        return [
            Violation(
                "trace_roundtrip",
                "replaying the materialized arrival trace did not reproduce"
                f" the serving report of case {case.case_id!r}",
            )
        ]
    return []


def _trace_transparency_violations(
    case: FuzzCase, result: CaseResult, differential: bool = False
) -> list[Violation]:
    """Observation must not perturb: a tracer changes no report byte.

    Under ``differential`` the recorded event sequence is additionally
    compared against the reference engine's — the trace-parity contract
    the production core is pinned to.
    """
    # Deferred import: the oracle pack must not require repro.obs at
    # import time.
    from repro.obs.trace import Tracer

    tracer = Tracer()
    try:
        rerun = run_case(case, tracer=tracer)
    except Exception as error:  # noqa: BLE001 - any failure is the finding
        return [
            Violation(
                "trace_transparency",
                f"the engine raised with a tracer attached: {error}",
            )
        ]
    problems = []
    for label, first, second in (
        ("schedule", result.schedule, rerun.schedule),
        ("serving", result.serving, rerun.serving),
    ):
        if first.to_json() != second.to_json():
            problems.append(
                Violation(
                    "trace_transparency",
                    f"{label} report changed when a tracer was attached to"
                    f" case {case.case_id!r}",
                )
            )
    if differential:
        reference_tracer = Tracer()
        try:
            run_case(case, reference=True, tracer=reference_tracer)
        except Exception as error:  # noqa: BLE001 - any failure is the finding
            problems.append(
                Violation(
                    "trace_transparency",
                    "the reference engine raised with a tracer attached:"
                    f" {error}",
                )
            )
            return problems
        if tracer.records != reference_tracer.records:
            problems.append(
                Violation(
                    "trace_transparency",
                    "the production and reference engines emitted different"
                    f" trace event sequences for case {case.case_id!r}",
                )
            )
    return problems


def _merge_violations(case: FuzzCase, partitions: int = 2) -> list[Violation]:
    # Deferred import: pulling the cluster package here would make the
    # oracle pack depend on socket machinery it never uses.
    from repro.cluster.dispatch import merge_serving_reports
    from repro.serving.slo import apply_trace, trace_scenario

    spec = case.scenario
    if len(spec.streams) < partitions or any(
        stream.closed_loop for stream in spec.streams
    ):
        return []
    try:
        replayed = apply_trace(spec, trace_scenario(spec))
        parts = []
        for index in range(partitions):
            sub = replace(
                replayed, streams=replayed.streams[index::partitions]
            )
            parts.append(run_case(replace(case, scenario=sub)).serving)
        order = [stream.name for stream in spec.streams]
        merged = merge_serving_reports(
            parts, scenario=spec.name, stream_order=order
        )
    except Exception as error:  # noqa: BLE001 - any failure is the finding
        return [
            Violation("merge", f"partition/merge machinery failed: {error}")
        ]
    problems: list[Violation] = []
    if [stream.name for stream in merged.streams] != order:
        problems.append(
            Violation(
                "merge",
                "merged report lost or reordered streams:"
                f" {[stream.name for stream in merged.streams]} != {order}",
            )
        )
    want = {
        name: sum(getattr(stream, name) for part in parts for stream in part.streams)
        for name in ("offered", "completed", "dropped")
    }
    for name, total in want.items():
        if getattr(merged, name) != total:
            problems.append(
                Violation(
                    "merge",
                    f"merged {name}={getattr(merged, name)} != sum of"
                    f" partitions {total}",
                )
            )
    if merged.makespan_s != max(part.makespan_s for part in parts):
        problems.append(
            Violation(
                "merge",
                f"merged makespan {merged.makespan_s:.9g} != max partition"
                f" makespan",
            )
        )
    problems.extend(
        Violation("merge", f"merged report: {message}")
        for message in check_serving_consistency(merged)
    )
    return problems


def evaluate_case(
    case: FuzzCase, *, deep: bool = True, differential: bool = False
) -> CaseOutcome:
    """Run ``case`` and every applicable oracle against the outcome.

    ``deep=False`` skips the oracles that need extra engine runs
    (determinism, trace replay, partition merge) — the cheap mode the
    shrinker uses between candidate steps; the final verdict on a shrunk
    reproducer always uses the full pack. ``differential=True`` adds the
    ``engine_divergence`` oracle (one extra run on the reference engine),
    independent of ``deep`` so the shrinker can chase a divergence
    without paying for the rest of the deep pack.

    :class:`~repro.errors.SchedulingError` from the engine is itself a
    ``crash`` violation; :class:`~repro.errors.ConfigError` propagates —
    an invalid case is a generator bug, not an engine finding.
    """
    try:
        result = run_case(case)
    except SchedulingError as error:
        return CaseOutcome(
            case=case,
            violations=(Violation("crash", f"engine raised: {error}"),),
        )
    violations: list[Violation] = []
    tasks = result.tasks
    timeline = result.timeline
    violations.extend(
        Violation("capacity", message)
        for message in check_capacity(tasks, timeline, case.interference)
    )
    violations.extend(
        Violation("conservation", message)
        for message in check_conservation(tasks, timeline)
    )
    violations.extend(
        Violation("monotone_events", message)
        for message in check_monotone_events(tasks, timeline)
    )
    violations.extend(
        Violation("frame_atomicity", message)
        for message in check_frame_atomicity(tasks, timeline)
    )
    violations.extend(
        Violation("priority_order", message)
        for message in check_priority_order(
            tasks, timeline, case.scenario.policy
        )
    )
    violations.extend(
        Violation("preemption_bound", message)
        for message in check_preemption_bound(
            tasks, timeline, case.scenario.policy
        )
    )
    violations.extend(
        Violation("serving_consistency", message)
        for message in check_serving_consistency(result.serving)
    )
    violations.extend(
        Violation("reports_agree", message)
        for message in check_reports_agree(result.schedule, result.serving)
    )
    violations.extend(_roundtrip_violations(result))
    if differential:
        violations.extend(_engine_divergence_violations(case, result))
    if deep:
        violations.extend(_determinism_violations(case, result))
        violations.extend(_trace_roundtrip_violations(case, result))
        violations.extend(_merge_violations(case))
        violations.extend(
            _trace_transparency_violations(
                case, result, differential=differential
            )
        )
    return CaseOutcome(
        case=case,
        violations=tuple(violations),
        result=result,
    )


__all__ = [
    "ORACLE_NAMES",
    "CaseOutcome",
    "Violation",
    "assert_capacity",
    "assert_conservation",
    "assert_frame_atomicity",
    "assert_monotone_events",
    "assert_preemption_bound",
    "assert_priority_order",
    "assert_reports_agree",
    "assert_serving_consistency",
    "check_capacity",
    "check_conservation",
    "check_frame_atomicity",
    "check_monotone_events",
    "check_preemption_bound",
    "check_priority_order",
    "check_reports_agree",
    "check_serving_consistency",
    "evaluate_case",
]
