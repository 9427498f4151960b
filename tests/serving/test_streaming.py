"""Streaming serving engine: exact parity and bounded-memory contracts.

:meth:`Session.run_serving_stream` consumes arrivals lazily and retires
frames into P² sketches. Its contract has two halves:

* with ``keep_records=True`` the report must equal
  :meth:`Session.run_serving`'s **byte for byte** — streaming is a
  different driver over the same engine, not a different model;
* without it, counts/makespan stay exact, per-frame records vanish, and
  percentiles come from sketches — with live engine state bounded by
  queue depth, not trace length.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.api import ScenarioSpec, Session, StreamSpec
from repro.errors import ConfigError
from repro.serving import ArrivalSpec

MODELS = ["deeplab:nocrf", "goturn", "orb_slam"]
QOS = [
    None,
    {"kind": "drop_late"},
    {"kind": "queue_cap", "cap": 2},
    {"kind": "shed", "cap": 3, "min_priority": 2},
    {"kind": "abort_late"},
]


def _random_scenario(trial: int) -> ScenarioSpec:
    rng = random.Random(1000 + trial)
    streams = []
    for i in range(rng.randint(1, 3)):
        kind = rng.choice(["poisson", "fixed", "mmpp", "none"])
        if kind == "poisson":
            arr = ArrivalSpec(
                kind="poisson",
                rate_hz=rng.choice([30.0, 120.0]),
                seed=trial * 10 + i,
            )
        elif kind == "mmpp":
            arr = ArrivalSpec(
                kind="mmpp",
                rate_hz=60.0,
                burst_fraction=0.3,
                dwell=4,
                seed=trial * 10 + i,
            )
        else:
            arr = None
        streams.append(
            StreamSpec(
                name=f"s{i}",
                model=rng.choice(MODELS),
                priority=rng.randint(1, 3),
                skip_interval=rng.choice([1, 1, 2]),
                period_s=None if arr is not None else 1 / 60.0,
                deadline_s=rng.choice([None, 0.05, 0.2]),
                arrivals=arr,
            )
        )
    platform = rng.choice(["gpu-tc", "sma", "sma@a100"])
    frames = rng.randint(1, 12)
    policy = rng.choice(["fifo", "priority", "exclusive", "exclusive_preempt"])
    overhead = rng.choice([0.0, 50e-6])
    qos = rng.choice(QOS)
    # Drawn after everything else so it shifts no other draw. A replay
    # shorter than the scenario emits fewer frames, which moves the uid
    # base of every stream after it.
    if rng.random() < 0.5:
        index = rng.randrange(len(streams))
        times = sorted(
            rng.uniform(0.0, 0.1) for _ in range(rng.randrange(frames))
        )
        streams[index] = replace(
            streams[index],
            period_s=None,
            arrivals=ArrivalSpec(kind="replay", times_s=tuple(times)),
        )
    return ScenarioSpec(
        name=f"stream-{trial}",
        streams=tuple(streams),
        platform=platform,
        frames=frames,
        policy=policy,
        framework_overhead_s=overhead,
        qos=qos,
    )


class TestStreamingParity:
    @pytest.mark.parametrize("trial", range(12))
    def test_keep_records_equals_materialized(self, trial):
        session = Session()
        scenario = _random_scenario(trial)
        materialized = session.run_serving(scenario).to_dict()
        streamed = session.run_serving_stream(
            scenario, keep_records=True
        ).to_dict()
        assert json.dumps(materialized, sort_keys=True) == json.dumps(
            streamed, sort_keys=True
        ), f"streaming diverged on scenario {scenario.name!r}"

    @pytest.mark.parametrize("trial", range(12))
    def test_sketch_mode_counts_exact(self, trial):
        session = Session()
        scenario = _random_scenario(trial)
        materialized = session.run_serving(scenario)
        streamed = session.run_serving_stream(scenario)
        assert streamed.makespan_s == materialized.makespan_s
        for want, got in zip(materialized.streams, streamed.streams):
            assert got.name == want.name
            for field in ("offered", "completed", "dropped", "missed", "skipped"):
                assert getattr(got, field) == getattr(want, field), (
                    f"{field} diverged on stream {got.name!r}"
                )
            assert got.frames == (), "sketch mode must not keep records"
            if got.completed:
                assert got.sketches is not None


class TestBoundedMemory:
    def test_live_state_tracks_queue_not_trace(self):
        """Peak in-flight tasks must be far below the materialized total."""
        scenario = ScenarioSpec(
            name="stream-window",
            platform="sma",
            frames=256,
            policy="fifo",
            qos={"kind": "drop_late"},
            streams=(
                StreamSpec(
                    name="cam",
                    model="goturn",
                    priority=1.0,
                    deadline_s=0.050,
                    arrivals=ArrivalSpec(
                        kind="poisson", rate_hz=120.0, seed=3
                    ),
                ),
            ),
        )
        stats: dict = {}
        report = Session().run_serving_stream(scenario, stats_out=stats)
        # A materialized run holds all 256 frames' tasks at once; the
        # streaming window holds a handful of frames. The bound is a
        # loose multiple of the observed queue depth, far under the
        # trace-scale task count.
        assert stats["peak_live"] < 500, (
            f"peak_live={stats['peak_live']} is trace-scale, not queue-scale"
        )
        assert report.streams[0].offered == 256


class TestStreamingRejections:
    def test_closed_loop_rejected(self):
        scenario = ScenarioSpec(
            name="closed",
            platform="sma",
            frames=4,
            streams=(
                StreamSpec(
                    name="loop",
                    model="goturn",
                    priority=1.0,
                    arrivals=ArrivalSpec(kind="closed_loop", think_s=0.001),
                ),
            ),
        )
        with pytest.raises(ConfigError):
            Session().run_serving_stream(scenario)
