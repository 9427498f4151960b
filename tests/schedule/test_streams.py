"""Scenario spec validation, frame instantiation, and JSON round-trips."""

import pytest

from repro.errors import ConfigError, SchedulingError
from repro.schedule.resources import ResourceClaim, ResourceKind
from repro.schedule.streams import (
    ScenarioSpec,
    StreamSpec,
    instantiate_frames,
)
from repro.schedule.timeline import OpTask, TimelineScheduler

SIMD = (ResourceClaim(ResourceKind.SIMD),)


def template(count, stream="t"):
    return [
        OpTask(
            uid=index,
            name=f"{stream}/op{index}",
            seconds=0.010,
            claims=SIMD,
            stream=stream,
            deps=(index - 1,) if index else (),
        )
        for index in range(count)
    ]


def spec(**kwargs):
    defaults = dict(
        name="test",
        streams=(
            StreamSpec(name="a", model="alexnet"),
            StreamSpec(name="b", model="goturn"),
        ),
        frames=2,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestSpecValidation:
    def test_needs_stream(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(name="empty", streams=())

    def test_duplicate_stream_names(self):
        with pytest.raises(ConfigError):
            spec(streams=(
                StreamSpec(name="a", model="alexnet"),
                StreamSpec(name="a", model="goturn"),
            ))

    def test_bad_policy(self):
        with pytest.raises(ConfigError):
            spec(policy="banana")

    def test_bad_frames(self):
        with pytest.raises(ConfigError):
            spec(frames=0)

    def test_stream_validation(self):
        with pytest.raises(ConfigError):
            StreamSpec(name="a", model="m", priority=0)
        with pytest.raises(ConfigError):
            StreamSpec(name="a", model="m", skip_interval=0)
        with pytest.raises(ConfigError):
            StreamSpec(name="a", model="m", deadline_s=0.0)
        with pytest.raises(ConfigError):
            StreamSpec(name="", model="m")

    def test_stream_lookup(self):
        scenario = spec()
        assert scenario.stream("a").model == "alexnet"
        with pytest.raises(ConfigError):
            scenario.stream("zzz")


class TestJsonRoundTrip:
    def test_scenario_round_trip(self):
        scenario = spec(
            platform="sma:3",
            policy="priority",
            framework_overhead_s=1e-5,
            streams=(
                StreamSpec(name="a", model="alexnet", priority=2.5,
                           skip_interval=3, period_s=0.033,
                           deadline_s=0.050),
                StreamSpec(name="b", model="goturn"),
            ),
        )
        assert ScenarioSpec.from_json(scenario.to_json()) == scenario

    def test_round_trip_preserves_defaults(self):
        scenario = spec()
        assert ScenarioSpec.from_dict(scenario.to_dict()) == scenario


class TestInstantiation:
    def test_frame_replication_and_chaining(self):
        plan = instantiate_frames(
            spec(frames=3), {"a": template(2, "a"), "b": template(1, "b")}
        )
        assert len(plan.tasks) == 3 * 2 + 3 * 1
        # Stream a's frames chain: first task of frame k depends on the
        # last task of frame k-1.
        a_tasks = [task for task in plan.tasks if task.stream == "a"]
        assert a_tasks[0].deps == ()
        assert a_tasks[2].deps == (a_tasks[1].uid,)
        assert [run.frame for run in plan.runs if run.stream == "a"] == [
            0, 1, 2,
        ]

    def test_skip_interval(self):
        scenario = spec(streams=(
            StreamSpec(name="a", model="alexnet", skip_interval=2),
            StreamSpec(name="b", model="goturn"),
        ), frames=4)
        plan = instantiate_frames(
            scenario, {"a": template(1, "a"), "b": template(1, "b")}
        )
        a_frames = [run.frame for run in plan.runs if run.stream == "a"]
        assert a_frames == [0, 2]
        assert plan.skipped["a"] == 2
        assert plan.skipped["b"] == 0

    def test_periodic_release(self):
        scenario = spec(streams=(
            StreamSpec(name="a", model="alexnet", period_s=0.5),
        ), frames=3)
        plan = instantiate_frames(scenario, {"a": template(1, "a")})
        assert [run.release_s for run in plan.runs] == [0.0, 0.5, 1.0]
        for run in plan.runs:
            task = plan.tasks[run.uids[0]]
            assert task.release_s == run.release_s

    def test_priority_becomes_weight(self):
        scenario = spec(streams=(
            StreamSpec(name="a", model="alexnet", priority=4.0),
        ), frames=1)
        plan = instantiate_frames(scenario, {"a": template(2, "a")})
        assert all(task.weight == 4.0 for task in plan.tasks)

    def test_missing_template_rejected(self):
        with pytest.raises(SchedulingError):
            instantiate_frames(spec(), {"a": template(1, "a")})

    def test_empty_template_rejected(self):
        with pytest.raises(SchedulingError):
            instantiate_frames(
                spec(), {"a": template(1, "a"), "b": []}
            )


class TestFrameLatencies:
    def test_deadline_miss_detection(self):
        # One stream, 6 ms of work per frame, released every 5 ms with a
        # 7 ms deadline: the queue grows 1 ms per frame, so frame 2 is
        # the first to miss.
        scenario = ScenarioSpec(
            name="late",
            frames=3,
            streams=(
                StreamSpec(name="a", model="alexnet", period_s=0.005,
                           deadline_s=0.007),
            ),
        )
        work = [
            OpTask(uid=0, name="a/op0", seconds=0.006, claims=SIMD,
                   stream="a")
        ]
        plan = instantiate_frames(scenario, {"a": work})
        timeline = TimelineScheduler().run(plan.tasks)
        records = plan.frame_records(timeline)["a"]
        assert [record.missed for record in records] == [False, False, True]
        # Frame 2 releases at 10 ms, starts at 12 ms, ends at 18 ms.
        assert records[2].latency_s == pytest.approx(0.008)


class TestDeadlineEdgeCases:
    """Untested deadline-logic corners (zero-length frames, exact-deadline
    releases, skip x admission drops, empty scenarios)."""

    def _single_stream(self, seconds, *, frames=3, period=0.005,
                       deadline=0.005, qos=None, skip=1):
        scenario = ScenarioSpec(
            name="edge",
            frames=frames,
            qos=qos,
            streams=(
                StreamSpec(name="a", model="alexnet", period_s=period,
                           deadline_s=deadline, skip_interval=skip),
            ),
        )
        work = [
            OpTask(uid=0, name="a/op0", seconds=seconds, claims=SIMD,
                   stream="a")
        ]
        return scenario, instantiate_frames(scenario, {"a": work})

    def test_zero_length_frames_complete_instantly_and_never_miss(self):
        scenario, plan = self._single_stream(0.0)
        timeline = TimelineScheduler().run(plan.tasks)
        records = plan.frame_records(timeline)["a"]
        assert [record.latency_s for record in records] == [0.0, 0.0, 0.0]
        assert not any(record.missed for record in records)
        # Completions land exactly on the releases.
        assert [record.completion_s for record in records] == [
            0.0, 0.005, 0.010,
        ]

    def test_latency_exactly_at_deadline_is_not_a_miss(self):
        # Work exactly equals the deadline: latency == deadline_s must
        # count as on-time (the miss predicate is strict >). Powers of
        # two keep every sum exactly representable, so the equality is
        # genuinely exercised rather than dodged by FP noise.
        scenario, plan = self._single_stream(0.5, period=0.5, deadline=0.5)
        timeline = TimelineScheduler().run(plan.tasks)
        for record in plan.frame_records(timeline)["a"]:
            assert record.latency_s == 0.5
            assert not record.missed

    def test_latency_barely_over_deadline_misses(self):
        scenario, plan = self._single_stream(0.0051, period=0.0051,
                                             deadline=0.005)
        timeline = TimelineScheduler().run(plan.tasks)
        assert all(
            record.missed for record in plan.frame_records(timeline)["a"]
        )

    def test_skip_interval_interacts_with_admission_drops(self):
        from repro.serving.qos import QosSpec, make_qos

        # Every other frame skipped; the surviving frames are overloaded
        # (10 ms work offered every 2x2.5 ms) so drop_late sheds some.
        scenario, plan = self._single_stream(
            0.010, frames=8, period=0.0025, deadline=0.004,
            qos=QosSpec(kind="drop_late"), skip=2,
        )
        timeline = TimelineScheduler(
            scenario.policy, qos=make_qos(scenario.qos)
        ).run(plan.tasks)
        records = plan.frame_records(timeline)["a"]
        # Skipped frames never become records (not offered, not dropped).
        assert [record.frame for record in records] == [0, 2, 4, 6]
        assert plan.skipped["a"] == 4
        dropped = [record for record in records if record.dropped]
        completed = [record for record in records if not record.dropped]
        assert dropped and completed
        assert len(dropped) + len(completed) == 4
        # Only completed frames carry a completion and a latency.
        assert all(record.latency_s is None for record in dropped)
        assert all(record.latency_s is not None for record in completed)

    def test_empty_scenario_is_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(name="empty", streams=())
        with pytest.raises(ConfigError):
            ScenarioSpec(name="empty", streams=(), frames=0)

    def test_zero_frames_rejected(self):
        with pytest.raises(ConfigError):
            spec(frames=0)

    def test_all_streams_replayed_empty_yields_empty_timeline(self):
        from repro.serving.traces import ArrivalSpec

        scenario = ScenarioSpec(
            name="empty-replay",
            frames=4,
            streams=(
                StreamSpec(
                    name="a", model="alexnet",
                    arrivals=ArrivalSpec(kind="replay", times_s=()),
                ),
            ),
        )
        plan = instantiate_frames(scenario, {"a": template(2, "a")})
        assert plan.tasks == ()
        assert plan.runs == ()
        timeline = TimelineScheduler().run(plan.tasks)
        assert timeline.makespan_s == 0.0
        assert plan.frame_records(timeline) == {}
