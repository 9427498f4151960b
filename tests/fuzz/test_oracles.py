"""The invariant-oracle pack: clean cases pass, planted faults are caught."""

import dataclasses

import pytest

from repro.catalog.interference import InterferenceMatrix
from repro.fuzz.cases import run_case
from repro.fuzz.generators import generate_case
from repro.fuzz.oracles import (
    ORACLE_NAMES,
    Violation,
    assert_reports_agree,
    check_capacity,
    check_conservation,
    check_frame_atomicity,
    check_monotone_events,
    check_preemption_bound,
    check_priority_order,
    check_reports_agree,
    check_serving_consistency,
    evaluate_case,
)
from repro.schedule.resources import ResourceClaim, ResourceKind
from repro.schedule.timeline import (
    DropRecord,
    OpTask,
    PreemptRecord,
    Timeline,
    TimelineSegment,
)

CAMPAIGN_SEED = 7


def test_oracle_names_are_stable():
    assert ORACLE_NAMES == (
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


def test_clean_case_passes_all_oracles():
    case = generate_case(CAMPAIGN_SEED, 0)
    outcome = evaluate_case(case, deep=True)
    assert outcome.ok
    assert outcome.failing_oracles == ()
    assert outcome.result is not None


def test_injected_inversion_fails_exactly_priority_order():
    # Index 2 is the priority_ladder slot; the inversion injection only
    # fires on exclusive-policy cases.
    case = generate_case(CAMPAIGN_SEED, 2)
    bad = dataclasses.replace(case, inject="invert_priority")
    outcome = evaluate_case(bad, deep=False)
    assert not outcome.ok
    assert outcome.failing_oracles == ("priority_order",)


class TestPlantedTimelineFaults:
    """Tamper with a real timeline and prove each oracle notices."""

    def result(self):
        return run_case(generate_case(CAMPAIGN_SEED, 0))

    def test_conservation_catches_shortened_segment(self):
        result = self.result()
        timeline = result.timeline
        segment = timeline.segments[0]
        cut = dataclasses.replace(
            segment,
            end_s=segment.end_s - 0.5 * segment.seconds,
            seconds=0.5 * segment.seconds,
        )
        tampered = dataclasses.replace(
            timeline, segments=(cut,) + tuple(timeline.segments[1:])
        )
        assert check_conservation(result.tasks, tampered)

    def test_monotone_events_catches_reversed_segment(self):
        result = self.result()
        timeline = result.timeline
        segment = timeline.segments[0]
        reversed_segment = dataclasses.replace(
            segment, start_s=segment.end_s + 1.0
        )
        tampered = dataclasses.replace(
            timeline,
            segments=(reversed_segment,) + tuple(timeline.segments[1:]),
        )
        assert check_monotone_events(result.tasks, tampered)

    def test_frame_atomicity_catches_vanished_task(self):
        result = self.result()
        timeline = result.timeline
        lost = timeline.segments[0].uid
        tampered = dataclasses.replace(
            timeline,
            segments=tuple(
                s for s in timeline.segments if s.uid != lost
            ),
        )
        assert check_frame_atomicity(result.tasks, tampered)


def test_violation_round_trip():
    violation = Violation(oracle="capacity", message="over by 0.25")
    clone = Violation.from_dict(violation.to_dict())
    assert clone == violation


# -- hand-built schedules: one planted fault per violation branch ----------------------
_FULL_SIMD = (ResourceClaim(ResourceKind.SIMD),)


def _task(uid, seconds=1.0, **fields):
    return OpTask(
        uid=uid, name=f"t{uid}", seconds=seconds, claims=_FULL_SIMD, **fields
    )


def _ran(task, start, end=None):
    """``task``'s segment from ``start``, at full speed unless ``end``."""
    return TimelineSegment(
        uid=task.uid,
        name=task.name,
        stream=task.stream,
        frame=task.frame,
        mode=task.mode,
        start_s=start,
        end_s=start + task.seconds if end is None else end,
        seconds=task.seconds,
    )


def _dropped(task, time_s):
    return DropRecord(
        uid=task.uid,
        name=task.name,
        stream=task.stream,
        frame=task.frame,
        time_s=time_s,
        reason="shed",
    )


def _preempted(task, time_s, action="abort"):
    return PreemptRecord(
        uid=task.uid,
        name=task.name,
        stream=task.stream,
        frame=task.frame,
        time_s=time_s,
        reason="preempted",
        action=action,
    )


def _timeline(segments, makespan_s, **fields):
    return Timeline(segments=tuple(segments), makespan_s=makespan_s, **fields)


def _chain():
    """Two tasks of one frame, the second waiting on the first."""
    first = _task(0)
    second = _task(1, deps=(0,))
    return first, second


def _clean_chain_timeline(first, second, **fields):
    fields.setdefault("busy_s", {ResourceKind.SIMD: 2.0})
    fields.setdefault("load_integral_s", {ResourceKind.SIMD: 2.0})
    return _timeline([_ran(first, 0.0), _ran(second, 1.0)], 2.0, **fields)


class TestHandBuiltTimelines:
    """Each timeline oracle flags exactly the fault planted in a schedule
    that is otherwise clean, with a message naming the task."""

    def test_clean_chain_passes_every_timeline_oracle(self):
        tasks = _chain()
        timeline = _clean_chain_timeline(*tasks)
        assert check_capacity(tasks, timeline) == []
        assert check_conservation(tasks, timeline) == []
        assert check_monotone_events(tasks, timeline) == []
        assert check_frame_atomicity(tasks, timeline) == []
        assert check_priority_order(tasks, timeline, "exclusive") == []
        assert (
            check_preemption_bound(tasks, timeline, "exclusive_preempt") == []
        )

    def test_capacity_catches_two_full_claims_in_one_second(self):
        tasks = (_task(0), _task(1))
        timeline = _timeline([_ran(tasks[0], 0.0), _ran(tasks[1], 0.0)], 1.0)
        assert check_capacity(tasks, timeline) == [
            "resource 'simd' delivered 2 resource-seconds in a 1s makespan"
        ]

    def test_capacity_is_not_the_model_under_an_interference_matrix(self):
        tasks = (_task(0), _task(1))
        timeline = _timeline([_ran(tasks[0], 0.0), _ran(tasks[1], 0.0)], 1.0)
        matrix = InterferenceMatrix(entries=(("tc", "simd", 0.5),))
        assert check_capacity(tasks, timeline, matrix) == []

    def test_capacity_leaves_dropped_work_out(self):
        tasks = (_task(0), _task(1))
        timeline = _timeline(
            [_ran(tasks[0], 0.0)], 1.0, drops=(_dropped(tasks[1], 0.0),)
        )
        assert check_capacity(tasks, timeline) == []

    def test_conservation_catches_a_dropped_task_that_ran(self):
        first, second = _chain()
        timeline = _clean_chain_timeline(
            first, second, drops=(_dropped(second, 1.0),)
        )
        assert check_conservation((first, second), timeline) == [
            "dropped task 1 (main/f0) still has 1 segment(s)"
        ]

    def test_conservation_catches_a_task_run_twice(self):
        first, second = _chain()
        timeline = _timeline(
            [_ran(first, 0.0), _ran(first, 1.0), _ran(second, 2.0)], 3.0
        )
        assert check_conservation((first, second), timeline) == [
            "task 0 (main/f0) has 2 segments, expected exactly 1"
        ]

    def test_conservation_catches_a_segment_of_an_unknown_task(self):
        first, second = _chain()
        stranger = _task(9)
        timeline = _timeline(
            [_ran(first, 0.0), _ran(second, 1.0), _ran(stranger, 2.0)], 3.0
        )
        assert check_conservation((first, second), timeline) == [
            "segment for unknown task uid 9"
        ]

    def test_conservation_catches_busy_time_beyond_the_makespan(self):
        first, second = _chain()
        timeline = _clean_chain_timeline(
            first,
            second,
            busy_s={ResourceKind.SIMD: 3.0},
            load_integral_s={ResourceKind.SIMD: 2.0},
        )
        assert check_conservation((first, second), timeline) == [
            "resource 'simd' busy 3s outside [0, makespan 2s]"
        ]

    def test_conservation_catches_load_integral_above_busy_time(self):
        first, second = _chain()
        timeline = _clean_chain_timeline(
            first,
            second,
            busy_s={ResourceKind.SIMD: 1.5},
            load_integral_s={ResourceKind.SIMD: 2.0},
        )
        assert check_conservation((first, second), timeline) == [
            "resource 'simd' load integral 2s exceeds busy time 1.5s"
        ]

    def test_monotone_events_catches_out_of_order_completions(self):
        first, second = _chain()
        timeline = _timeline([_ran(second, 1.0), _ran(first, 0.0)], 2.0)
        assert check_monotone_events((first, second), timeline) == [
            "segment uid 0 ends at 1, before prior completion 2"
        ]

    def test_monotone_events_catches_a_start_before_release(self):
        early = _task(0, release_s=0.5)
        timeline = _timeline([_ran(early, 0.0)], 1.0)
        assert check_monotone_events((early,), timeline) == [
            "task 0 started at 0, before its release 0.5"
        ]

    def test_monotone_events_catches_work_faster_than_full_speed(self):
        task = _task(0)
        timeline = _timeline([_ran(task, 0.0, end=0.5)], 0.5)
        assert check_monotone_events((task,), timeline) == [
            "task 0 finished 1s of work in 0.5s (faster than full speed)"
        ]

    def test_monotone_events_catches_a_drop_before_release(self):
        task = _task(0, release_s=3.0)
        timeline = _timeline([], 3.0, drops=(_dropped(task, 1.0),))
        assert check_monotone_events((task,), timeline) == [
            "task 0 dropped at 1, before its release 3"
        ]

    def test_monotone_events_catches_a_preemption_before_release(self):
        task = _task(0, release_s=3.0)
        timeline = _timeline([], 3.0, preemptions=(_preempted(task, 1.0),))
        assert check_monotone_events((task,), timeline) == [
            "task 0 preempted (abort) at 1, before its release 3"
        ]

    def test_monotone_events_catches_a_makespan_short_of_the_last_event(self):
        first, second = _chain()
        timeline = _timeline([_ran(first, 0.0), _ran(second, 1.0)], 1.5)
        assert check_monotone_events((first, second), timeline) == [
            "makespan 1.5 precedes the last event at 2"
        ]

    def test_frame_atomicity_catches_a_task_completed_and_dropped(self):
        first, second = _chain()
        timeline = _clean_chain_timeline(
            first, second, drops=(_dropped(second, 1.0),)
        )
        problems = check_frame_atomicity((first, second), timeline)
        assert problems[0] == "task 1 both completed and dropped"

    def test_frame_atomicity_catches_a_task_dropped_and_aborted(self):
        task = _task(0)
        timeline = _timeline(
            [],
            0.0,
            drops=(_dropped(task, 0.0),),
            preemptions=(_preempted(task, 0.0),),
        )
        problems = check_frame_atomicity((task,), timeline)
        assert problems[0] == "task 0 both dropped and aborted"

    def test_frame_atomicity_catches_a_partial_frame_drop(self):
        first, second = _chain()
        timeline = _timeline(
            [_ran(first, 0.0)], 1.0, drops=(_dropped(second, 1.0),)
        )
        assert check_frame_atomicity((first, second), timeline) == [
            "frame main/f0 dropped 1 of 2 tasks — drops must take whole frames"
        ]

    def test_frame_atomicity_catches_drops_mixed_with_aborts(self):
        first, second = _chain()
        timeline = _timeline(
            [],
            0.0,
            drops=(_dropped(first, 0.0),),
            preemptions=(_preempted(second, 0.0),),
        )
        assert check_frame_atomicity((first, second), timeline) == [
            "frame main/f0 mixes admission drops and in-flight aborts"
        ]

    def test_frame_atomicity_catches_a_completion_after_an_abort(self):
        head, middle, tail = _task(0), _task(1, deps=(0,)), _task(2, deps=(1,))
        timeline = _timeline(
            [_ran(head, 0.0), _ran(tail, 1.0)],
            2.0,
            preemptions=(_preempted(middle, 1.0),),
        )
        assert check_frame_atomicity((head, middle, tail), timeline) == [
            "frame main/f0 completed tasks [2] after aborted task 1 — aborts"
            " must cancel the chain's whole remainder"
        ]

    def test_frame_atomicity_accepts_a_completed_prefix_then_an_abort(self):
        first, second = _chain()
        timeline = _timeline(
            [_ran(first, 0.0)],
            1.0,
            preemptions=(_preempted(second, 1.0),),
        )
        assert check_frame_atomicity((first, second), timeline) == []

    def test_priority_order_catches_a_passed_over_ready_task(self):
        low = _task(0, stream="low", weight=1.0)
        high = _task(1, stream="high", weight=2.0)
        timeline = _timeline([_ran(low, 0.0), _ran(high, 1.0)], 2.0)
        assert check_priority_order((low, high), timeline, "exclusive") == [
            "at t=0 task 0 (w=1) was dispatched while task 1 (w=2) was ready"
            " and waiting"
        ]

    def test_priority_order_binds_only_exclusive_policies(self):
        low = _task(0, stream="low", weight=1.0)
        high = _task(1, stream="high", weight=2.0)
        timeline = _timeline([_ran(low, 0.0), _ran(high, 1.0)], 2.0)
        assert check_priority_order((low, high), timeline, "priority") == []

    def test_priority_order_counts_a_waiter_that_was_later_dropped(self):
        low = _task(0, stream="low", weight=1.0)
        high = _task(1, stream="high", weight=2.0)
        timeline = _timeline(
            [_ran(low, 0.0)], 1.0, drops=(_dropped(high, 1.0),)
        )
        problems = check_priority_order((low, high), timeline, "exclusive")
        assert len(problems) == 1
        assert "task 1 (w=2) was ready and waiting" in problems[0]

    def test_priority_order_waits_for_dependencies(self):
        low = _task(0, weight=1.0)
        high = _task(1, weight=2.0, deps=(0,))
        timeline = _timeline([_ran(low, 0.0), _ran(high, 1.0)], 2.0)
        assert check_priority_order((low, high), timeline, "exclusive") == []

    def _inverted(self):
        high = _task(0, stream="high", weight=2.0, release_s=0.5)
        first = _task(1, stream="low", weight=1.0)
        second = _task(2, stream="low", weight=1.0)
        timeline = _timeline(
            [_ran(first, 0.0), _ran(second, 1.0), _ran(high, 2.0)], 3.0
        )
        return (high, first, second), timeline

    def test_preemption_bound_catches_inversion_past_the_running_kernel(self):
        tasks, timeline = self._inverted()
        assert check_preemption_bound(tasks, timeline, "exclusive_preempt") == [
            "task 2 (w=1) started at 1 while task 0 (w=2) had been ready"
            " since 0.5 and only started at 2 — inversion beyond the"
            " in-flight kernel"
        ]

    def test_preemption_bound_allows_the_kernel_already_running(self):
        high = _task(0, stream="high", weight=2.0, release_s=0.5)
        first = _task(1, stream="low", weight=1.0)
        second = _task(2, stream="low", weight=1.0)
        timeline = _timeline(
            [_ran(first, 0.0), _ran(high, 1.0), _ran(second, 2.0)], 3.0
        )
        tasks = (high, first, second)
        assert check_preemption_bound(tasks, timeline, "exclusive_preempt") == []

    def test_preemption_bound_binds_only_exclusive_preempt(self):
        tasks, timeline = self._inverted()
        assert check_preemption_bound(tasks, timeline, "exclusive") == []


class TestPlantedReportFaults:
    """Tamper with real reports and prove the report oracles notice."""

    def result(self):
        return run_case(generate_case(CAMPAIGN_SEED, 1))

    def test_serving_consistency_catches_a_miscounted_stream(self):
        serving = self.result().serving
        stream = serving.streams[0]
        bad = dataclasses.replace(stream, completed=stream.completed + 1)
        tampered = dataclasses.replace(
            serving, streams=(bad,) + tuple(serving.streams[1:])
        )
        assert check_serving_consistency(serving) == []
        assert check_serving_consistency(tampered) == [
            f"stream 'crowd': completed={stream.completed + 1} but frame"
            f" records say {stream.completed}"
        ]

    def test_serving_consistency_catches_a_stale_percentile(self):
        serving = self.result().serving
        stream = serving.streams[1]
        bad = dataclasses.replace(stream, p95_s=stream.p95_s + 1.0)
        tampered = dataclasses.replace(
            serving, streams=(serving.streams[0], bad)
        )
        problems = check_serving_consistency(tampered)
        assert len(problems) == 1
        assert problems[0].startswith("stream 'steady0': p95_s=")

    def test_reports_agree_catches_makespan_drift(self):
        result = self.result()
        drifted = dataclasses.replace(
            result.serving, makespan_s=result.serving.makespan_s + 1.0
        )
        assert check_reports_agree(result.schedule, result.serving) == []
        problems = check_reports_agree(result.schedule, drifted)
        assert len(problems) == 1
        assert problems[0].startswith("makespan disagrees")

    def test_reports_agree_catches_a_missing_stream(self):
        result = self.result()
        shorter = dataclasses.replace(
            result.serving, streams=tuple(result.serving.streams[:1])
        )
        assert check_reports_agree(result.schedule, shorter) == [
            "stream 'steady0' missing from the serving report"
        ]

    def test_reports_agree_catches_a_drop_count_mismatch(self):
        result = self.result()
        schedule = result.schedule
        stream = schedule.streams[0]
        bad = dataclasses.replace(
            stream, frames_dropped=stream.frames_dropped + 1
        )
        tampered = dataclasses.replace(
            schedule, streams=(bad,) + tuple(schedule.streams[1:])
        )
        dropped = result.serving.streams[0].dropped
        assert check_reports_agree(tampered, result.serving) == [
            f"stream 'crowd': schedule frames_dropped={dropped + 1} vs"
            f" serving dropped={dropped}"
        ]

    def test_assert_wrapper_names_the_oracle(self):
        result = self.result()
        drifted = dataclasses.replace(
            result.serving, makespan_s=result.serving.makespan_s + 1.0
        )
        with pytest.raises(AssertionError, match="reports_agree oracle violated"):
            assert_reports_agree(result.schedule, drifted)
