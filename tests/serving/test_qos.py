"""Admission control on the timeline engine (synthetic task sets)."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.api.results import ServingReport
from repro.schedule.resources import ResourceClaim, ResourceKind
from repro.schedule.streams import ScenarioSpec, StreamSpec, instantiate_frames
from repro.schedule.timeline import OpTask, TimelineScheduler
from repro.serving.qos import (
    DropLatePolicy,
    QosSpec,
    QueueCapPolicy,
    ShedPolicy,
    make_qos,
)
from repro.serving.traces import ArrivalSpec

SIMD = (ResourceClaim(ResourceKind.SIMD),)


def template(count, seconds=0.5):
    return [
        OpTask(
            uid=index,
            name=f"op{index}",
            seconds=seconds,
            claims=SIMD,
            deps=(index - 1,) if index else (),
        )
        for index in range(count)
    ]


def overloaded_spec(qos, *, deadline=1.2, frames=8, rate=2.0, policy="fifo"):
    """1 s of work per frame, offered every 0.5 s: the backlog grows."""
    return ScenarioSpec(
        name="overload",
        frames=frames,
        policy=policy,
        qos=qos,
        streams=(
            StreamSpec(
                name="a",
                model="m",
                deadline_s=deadline,
                arrivals=ArrivalSpec(kind="fixed", rate_hz=rate),
            ),
        ),
    )


def run(spec, chain=2, seconds=0.5):
    plan = instantiate_frames(spec, {
        stream.name: template(chain, seconds) for stream in spec.streams
    })
    timeline = TimelineScheduler(spec.policy, qos=make_qos(spec.qos)).run(
        plan.tasks
    )
    return plan, timeline


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            QosSpec(kind="banana")

    def test_caps_required(self):
        with pytest.raises(ConfigError):
            QosSpec(kind="queue_cap")
        with pytest.raises(ConfigError):
            QosSpec(kind="shed", cap=0)

    def test_negative_slack(self):
        with pytest.raises(ConfigError):
            QosSpec(kind="drop_late", slack_s=-1.0)

    def test_round_trip(self):
        for spec in (
            QosSpec(kind="drop_late", slack_s=0.01),
            QosSpec(kind="queue_cap", cap=3),
            QosSpec(kind="shed", cap=5, min_priority=2.0),
        ):
            assert QosSpec.from_dict(spec.to_dict()) == spec

    def test_make_qos_resolution(self):
        assert make_qos(None) is None
        assert isinstance(make_qos("drop_late"), DropLatePolicy)
        assert isinstance(make_qos(QosSpec(kind="queue_cap", cap=1)),
                          QueueCapPolicy)
        assert isinstance(make_qos({"kind": "shed", "cap": 2}), ShedPolicy)


class TestDropLate:
    def test_drops_frames_that_cannot_start_by_expiry(self):
        plan, timeline = run(overloaded_spec(QosSpec(kind="drop_late")))
        assert timeline.drops
        # Drop times land exactly on release + deadline (expiry events).
        for record in timeline.drops:
            release = plan.runs[record.frame].release_s
            assert record.time_s == pytest.approx(release + 1.2)
        # Whole frames are cancelled: both chain tasks of a dropped frame.
        dropped_frames = {record.frame for record in timeline.drops}
        for frame in dropped_frames:
            uids = plan.runs[frame].uids
            assert all(
                any(record.uid == uid for record in timeline.drops)
                for uid in uids
            )
        # Dropped tasks never produce segments.
        segment_uids = {segment.uid for segment in timeline.segments}
        assert segment_uids.isdisjoint(
            record.uid for record in timeline.drops
        )
        assert len(timeline.segments) + len(timeline.drops) == len(plan.tasks)

    def test_drops_bound_the_backlog(self):
        no_qos_plan, no_qos = run(overloaded_spec(None))
        _plan, with_qos = run(overloaded_spec(QosSpec(kind="drop_late")))
        assert not no_qos.drops
        assert with_qos.drops
        assert with_qos.makespan_s < no_qos.makespan_s

    def test_slack_delays_the_drop(self):
        tight = overloaded_spec(QosSpec(kind="drop_late"))
        slack = overloaded_spec(QosSpec(kind="drop_late", slack_s=10.0))
        _plan, tight_timeline = run(tight)
        _plan, slack_timeline = run(slack)
        assert len(slack_timeline.drops) < len(tight_timeline.drops)

    def test_streams_without_deadline_never_drop(self):
        spec = ScenarioSpec(
            name="no-deadline",
            frames=6,
            qos=QosSpec(kind="drop_late"),
            streams=(
                StreamSpec(
                    name="a",
                    model="m",
                    arrivals=ArrivalSpec(kind="fixed", rate_hz=2.0),
                ),
            ),
        )
        _plan, timeline = run(spec)
        assert not timeline.drops


def _head(uid, stream, release, deadline):
    return OpTask(
        uid=uid,
        name=f"{stream}{uid}",
        seconds=0.5,
        claims=SIMD,
        stream=stream,
        release_s=release,
        deadline_s=deadline,
        frame_head=True,
    )


def oracle_expiry(head, slack):
    if head.deadline_s is None:
        return None
    return head.release_s + head.deadline_s + slack


def oracle_review(now, queued, slack):
    """Every queued head, in view order, whose expiry is at or before
    ``now``: the linear scan the expiry index replaced."""
    drops = []
    for heads in queued.values():
        for head in heads:
            expiry = oracle_expiry(head, slack)
            if expiry is not None and now >= expiry:
                drops.append((head, "deadline_slip"))
    return drops


def oracle_next_event(now, queued, slack):
    """The least expiry after ``now`` over every queued head, or None."""
    horizon = None
    for heads in queued.values():
        for head in heads:
            expiry = oracle_expiry(head, slack)
            if expiry is not None and expiry > now:
                horizon = expiry if horizon is None else min(horizon, expiry)
    return horizon


#: Few releases and deadlines, so expiries tie and, within a stream and
#: across streams, often run against view order.
_RELEASES = st.sampled_from((0.0, 0.1, 0.25, 0.5))
_DEADLINES = st.sampled_from((None, 0.05, 0.15, 0.4, 0.9))


@st.composite
def queued_views(draw):
    """A queued-frame view: 1-3 streams in drawn order, each with 0-5
    heads in arrival order."""
    streams = draw(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)
    )
    uid = 0
    queued = {}
    for stream in streams:
        releases = sorted(draw(st.lists(_RELEASES, max_size=5)))
        queued[stream] = [
            _head(uid + at, stream, release, draw(_DEADLINES))
            for at, release in enumerate(releases)
        ]
        uid += len(releases)
    return queued


def _times(queued, slack):
    """Probe times: every expiry exactly and 0.01 s either side."""
    times = {0.0, 2.0}
    for heads in queued.values():
        for head in heads:
            expiry = oracle_expiry(head, slack)
            if expiry is not None:
                times.update((expiry, expiry - 0.01, expiry + 0.01))
    return sorted(times)


class TestDropLateIndex:
    """``DropLatePolicy`` against the linear scans its index replaced."""

    @given(
        first=queued_views(),
        second=queued_views(),
        slack=st.sampled_from((0.0, 0.05, 0.3)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_linear_scans(self, first, second, slack):
        policy = make_qos(QosSpec(kind="drop_late", slack_s=slack))
        # One view asked about at many times (the index is reused), the
        # same view again, then a new view.
        for queued in (first, first, second):
            for now in _times(queued, slack):
                assert policy.review(now, queued) == oracle_review(
                    now, queued, slack
                )
                assert policy.next_event(now, queued) == oracle_next_event(
                    now, queued, slack
                )

    def test_drops_in_view_order_not_expiry_order(self):
        """``a``'s heads expire after ``b``'s and against their arrival
        order; drops still come stream by stream, then by arrival."""
        queued = {
            "a": [_head(0, "a", 0.0, 0.9), _head(1, "a", 0.1, 0.1)],
            "b": [_head(2, "b", 0.0, 0.05), _head(3, "b", 0.25, None)],
        }
        policy = make_qos("drop_late")
        drops = policy.review(1.0, queued)
        assert [head.uid for head, _ in drops] == [0, 1, 2]
        assert drops == oracle_review(1.0, queued, 0.0)
        assert policy.next_event(1.0, queued) is None

    def test_now_at_an_expiry_drops_it_and_looks_past_it(self):
        queued = {
            "a": [_head(0, "a", 0.0, 0.25), _head(1, "a", 0.25, 0.25)],
            "b": [_head(2, "b", 0.0, 0.25)],
        }
        policy = make_qos(QosSpec(kind="drop_late", slack_s=0.25))
        # Heads 0 and 2 share the expiry 0.5 s; head 1's is 0.75 s.
        assert policy.next_event(0.0, queued) == 0.5
        assert policy.review(0.5, queued) == [
            (queued["a"][0], "deadline_slip"),
            (queued["b"][0], "deadline_slip"),
        ]
        assert policy.next_event(0.5, queued) == 0.75

    def test_a_new_view_replaces_the_index(self):
        policy = make_qos("drop_late")
        old = {"a": [_head(0, "a", 0.0, 0.1)]}
        assert policy.next_event(0.0, old) == 0.1
        assert policy.next_event(0.0, old) == 0.1
        # Equal contents in a new dict, then a different queue.
        assert policy.next_event(0.0, dict(old)) == 0.1
        new = {"a": [_head(1, "a", 0.5, 0.1)], "b": []}
        assert policy.next_event(0.0, new) == 0.6
        assert policy.review(0.3, new) == []
        assert policy.review(0.3, old) == [(old["a"][0], "deadline_slip")]


class TestQueueCap:
    def test_caps_waiting_frames_per_stream(self):
        spec = ScenarioSpec(
            name="cap",
            frames=8,
            qos=QosSpec(kind="queue_cap", cap=1),
            streams=(
                StreamSpec(
                    name="a",
                    model="m",
                    arrivals=ArrivalSpec(kind="fixed", rate_hz=4.0),
                ),
            ),
        )
        plan, timeline = run(spec)
        assert timeline.drops
        assert all(record.reason == "queue_full" for record in timeline.drops)
        # With every arrival beyond one waiting frame dropped, completed
        # frames are back-to-back: the backlog never exceeds cap.
        completed = {segment.frame for segment in timeline.segments}
        dropped = {record.frame for record in timeline.drops}
        assert completed.isdisjoint(dropped)
        assert completed | dropped == {run.frame for run in plan.runs}


class TestShed:
    def test_sheds_lowest_priority_first(self):
        spec = ScenarioSpec(
            name="shed",
            frames=6,
            policy="priority",
            qos=QosSpec(kind="shed", cap=2),
            streams=(
                StreamSpec(
                    name="hi", model="m", priority=4.0,
                    arrivals=ArrivalSpec(kind="fixed", rate_hz=4.0),
                ),
                StreamSpec(
                    name="lo", model="m", priority=1.0,
                    arrivals=ArrivalSpec(kind="fixed", rate_hz=4.0),
                ),
            ),
        )
        plan, timeline = run(spec)
        assert timeline.drops
        assert all(record.reason == "load_shed" for record in timeline.drops)
        # Low priority sheds first (and more); high priority is only shed
        # once the low-priority queue is exhausted and overload persists.
        assert timeline.drops[0].stream == "lo"
        by_stream = {"hi": 0, "lo": 0}
        for record in timeline.drops:
            by_stream[record.stream] += 1
        assert by_stream["lo"] > by_stream["hi"]

    def test_min_priority_protects_streams(self):
        spec = ScenarioSpec(
            name="shed-protected",
            frames=6,
            policy="priority",
            qos=QosSpec(kind="shed", cap=1, min_priority=0.5),
            streams=(
                StreamSpec(
                    name="hi", model="m", priority=4.0,
                    arrivals=ArrivalSpec(kind="fixed", rate_hz=4.0),
                ),
                StreamSpec(
                    name="lo", model="m", priority=1.0,
                    arrivals=ArrivalSpec(kind="fixed", rate_hz=4.0),
                ),
            ),
        )
        _plan, timeline = run(spec)
        # Every stream is at or above the floor: nothing sheddable.
        assert not timeline.drops


class TestServingReportAccounting:
    def test_drop_counts_flow_into_report(self):
        spec = overloaded_spec(QosSpec(kind="drop_late"))
        plan, timeline = run(spec)
        report = ServingReport.from_timeline(spec, "test", timeline, plan)
        stream = report.stream("a")
        assert stream.offered == len(plan.runs)
        assert stream.dropped == len(
            {record.frame for record in timeline.drops}
        )
        assert stream.completed == stream.offered - stream.dropped
        assert report.dropped == stream.dropped
        assert 0.0 < report.drop_fraction < 1.0
        dropped_frames = [
            frame for frame in stream.frames if frame.dropped
        ]
        assert all(frame.drop_reason == "deadline_slip"
                   for frame in dropped_frames)
        assert all(frame.completion_s is None for frame in dropped_frames)

    def test_report_round_trips_with_drops(self):
        spec = overloaded_spec(QosSpec(kind="queue_cap", cap=1))
        plan, timeline = run(spec)
        report = ServingReport.from_timeline(spec, "test", timeline, plan)
        assert ServingReport.from_json(report.to_json()) == report
        assert report.qos == {"kind": "queue_cap", "cap": 1}
