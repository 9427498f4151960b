"""Golden parity: the production timeline core must match the reference.

:meth:`TimelineScheduler.run` (the vectorized core) and
:func:`repro.schedule.reference.run_reference` (the per-event scalar
loop, the executable spec) are pinned to identical arithmetic in
identical order, so every serving report must be *byte-identical*
between them — not merely close. These tests sweep randomized scenarios
across platforms, policies, QoS regimes, and arrival processes and
compare the full ``to_dict()`` JSON of both runs.
"""

import json
import random

import pytest

from repro.api import ScenarioSpec, Session, StreamSpec
from repro.schedule.reference import run_reference
from repro.schedule.timeline import TimelineScheduler
from repro.serving import ArrivalSpec

MODELS = ["deeplab:nocrf", "goturn", "orb_slam"]
POLICIES = ["fifo", "priority", "exclusive"]
QOS = [
    None,
    {"kind": "drop_late"},
    {"kind": "queue_cap", "cap": 2},
    {"kind": "shed", "cap": 3, "min_priority": 2},
]
PLATFORMS = ["gpu-tc", "sma", "sma@a100"]


def _random_scenario(trial: int) -> ScenarioSpec:
    """A deterministic scenario for ``trial`` covering the config space.

    Mixed arrival kinds (poisson / mmpp / fixed-period / closed-loop),
    1-3 streams of different models and priorities, every policy, every
    QoS regime, and optional framework overhead — the same generator
    family the differential fuzz oracle exercises, pinned here as a
    fast, always-on golden gate.
    """
    rng = random.Random(trial)
    streams = []
    for i in range(rng.randint(1, 3)):
        kind = rng.choice(["poisson", "fixed", "mmpp", "closed_loop"])
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
        elif kind == "closed_loop":
            arr = ArrivalSpec(
                kind="closed_loop", think_s=rng.choice([0.0, 0.004])
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
    return ScenarioSpec(
        name=f"parity-{trial}",
        streams=tuple(streams),
        platform=rng.choice(PLATFORMS),
        frames=rng.randint(1, 12),
        policy=rng.choice(POLICIES),
        framework_overhead_s=rng.choice([0.0, 50e-6]),
        qos=rng.choice(QOS),
    )


class TestEngineParity:
    @pytest.mark.parametrize("trial", range(24))
    def test_serving_report_byte_identical(self, trial, monkeypatch):
        session = Session()
        scenario = _random_scenario(trial)
        production = session.run_serving(scenario).to_dict()
        monkeypatch.setattr(TimelineScheduler, "run", run_reference)
        reference = session.run_serving(scenario).to_dict()
        assert json.dumps(production, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        ), f"engines diverged on scenario {scenario.name!r}"

    def test_schedule_report_byte_identical(self, monkeypatch):
        session = Session()
        scenario = _random_scenario(7)
        production = session.run_scenario(scenario)
        monkeypatch.setattr(TimelineScheduler, "run", run_reference)
        reference = session.run_scenario(scenario)
        assert production.to_dict() == reference.to_dict()
