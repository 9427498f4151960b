"""The instances whose encoded form ``tests/api/goldens/`` pins.

Each entry of :data:`CASES` builds one instance of a class with a
``to_dict`` method; its golden file holds ``dumps(instance.to_dict())``.
Every builder is cheap and deterministic (literal values, or synthetic
task chains through the timeline engine, never a cold SM simulation), so
the goldens pin the JSON format rather than the hardware models.

Regenerate the files with ``PYTHONPATH=src python tests/api/golden_cases.py``
only when a format change is intended: the files are the contract that
``request_fingerprint`` values and sorted store payloads do not drift.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from repro.api.results import (
    BatchResult,
    GemmReport,
    ModelReport,
    OpReport,
    SimRequest,
)
from repro.catalog.specs import V100
from repro.common.stats import P2Quantile, QuantileSketch
from repro.config import DataType
from repro.fuzz.campaign import CaseRecord, FuzzReport
from repro.fuzz.cases import FuzzCase, TaskShape, run_case
from repro.fuzz.oracles import Violation
from repro.fuzz.shrink import Reproducer
from repro.gemm.cache import CacheStats
from repro.gemm.problem import GemmProblem
from repro.obs.trace import Tracer
from repro.schedule.streams import ScenarioSpec, StreamSpec
from repro.serving.qos import QosSpec
from repro.serving.slo import SloPoint, SloReport, trace_scenario
from repro.serving.streaming import serve_streaming
from repro.serving.traces import ArrivalSpec
from repro.sweep.grid import grid_from_requests
from repro.sweep.workers import SweepResult

GOLDENS = Path(__file__).parent / "goldens"


def dumps(payload: dict) -> str:
    """The golden file text of one encoded payload."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- specs -----------------------------------------------------------------------------
ARRIVALS = {
    "poisson": ArrivalSpec(kind="poisson", rate_hz=30.0, seed=7),
    "mmpp": ArrivalSpec(kind="mmpp", rate_hz=20.0, seed=3),
    "fixed": ArrivalSpec(kind="fixed", rate_hz=1.0 / 3.0),
    "fixed_period": ArrivalSpec(kind="fixed", period_s=0.1),
    "replay": ArrivalSpec(kind="replay", times_s=(0.0, 0.1, 1.0 / 3.0)),
    "closed_loop": ArrivalSpec(kind="closed_loop", think_s=0.002),
}

QOS = {
    "drop_late": QosSpec(kind="drop_late", slack_s=0.001),
    "queue_cap": QosSpec(kind="queue_cap", cap=2),
    "shed": QosSpec(kind="shed", cap=3, min_priority=2.0),
    "abort_late": QosSpec(kind="abort_late"),
}

#: Every arrival kind on one scenario, plus a closed-loop periodic stream.
ARRIVAL_SCENARIO = ScenarioSpec(
    name="every-arrival",
    platform="sma:3",
    frames=4,
    policy="priority",
    framework_overhead_s=2e-6,
    streams=tuple(
        StreamSpec(
            name=name,
            model="alexnet",
            priority=1.0 + index / 3.0,
            deadline_s=0.05,
            arrivals=arrivals,
        )
        for index, (name, arrivals) in enumerate(ARRIVALS.items())
    )
    + (
        StreamSpec(
            name="periodic",
            model="goturn",
            skip_interval=2,
            period_s=1.0 / 30.0,
        ),
    ),
)

#: A spec as a person writes it: integer priority and frame period, keys
#: left at their defaults omitted. It must decode without coercion.
HANDWRITTEN_SCENARIO = """{
  "name": "hand-written",
  "frames": 3,
  "policy": "priority",
  "qos": {"kind": "queue_cap", "cap": 1},
  "streams": [
    {"name": "det", "model": "deeplab:nocrf", "priority": 3, "deadline_s": 1},
    {"name": "loc", "model": "orb_slam", "period_s": 0,
     "arrivals": null}
  ]
}
"""


def _qos_scenario(kind: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"qos-{kind}",
        frames=2,
        policy="fifo",
        qos=QOS[kind],
        streams=(StreamSpec(name="cam", model="alexnet", deadline_s=0.1),),
    )


# -- synthetic runs --------------------------------------------------------------------
_SHAPES = {
    "hi": (
        TaskShape(name="conv", seconds=0.004, claims=(("array", 1.0),),
                  mode="systolic", cross_switch_s=1e-4),
        TaskShape(name="nms", seconds=0.0015, claims=(("simd", 1.0),)),
    ),
    "lo": (
        TaskShape(name="gemm", seconds=0.003,
                  claims=(("tc", 1.0), ("simd", 0.25))),
        TaskShape(name="copy", seconds=1.0 / 3000.0,
                  claims=(("transfer", 1.0),)),
    ),
}


def _case(policy: str, qos: QosSpec | None = None, frames: int = 6) -> FuzzCase:
    return FuzzCase(
        case_id=f"golden-{policy}",
        family="golden",
        seed=11,
        scenario=ScenarioSpec(
            name=f"golden-{policy}",
            frames=frames,
            policy=policy,
            qos=qos,
            streams=(
                StreamSpec(name="hi", model="synthetic", priority=3.0,
                           deadline_s=0.009,
                           arrivals=ArrivalSpec(kind="poisson",
                                                rate_hz=400.0, seed=5)),
                StreamSpec(name="lo", model="synthetic", priority=1.0,
                           deadline_s=0.006,
                           arrivals=ArrivalSpec(kind="poisson",
                                                rate_hz=300.0, seed=6)),
            ),
        ),
        templates=_SHAPES,
        interference=V100.interference,
    )


def _streaming_report():
    case = _case("priority", QosSpec(kind="drop_late"), frames=12)
    templates = {
        name: [shape.to_op(uid) for uid, shape in enumerate(chain)]
        for name, chain in case.templates.items()
    }
    return serve_streaming(
        case.scenario, templates, case.interference,
        platform="fuzz:synthetic", tag="stream",
    )


def _tracer() -> Tracer:
    tracer = Tracer()
    run_case(_case("exclusive_preempt", QosSpec(kind="drop_late")),
             tracer=tracer)
    return tracer


def _sketch() -> QuantileSketch:
    sketch = QuantileSketch()
    for step in range(9):
        sketch.add((step * 7 % 5) / 3.0 + step / 10.0)
    return sketch


# -- reports ---------------------------------------------------------------------------
GEMM_REPORT = GemmReport(
    platform="sma:3", backend="sma", m=512, n=256, k=1024, dtype="fp16",
    alpha=1.0, beta=0.5, seconds=1.0 / 7000.0, cycles=229500.0,
    tb_cycles=1024.0, tflops=1.79, efficiency=0.41, sm_efficiency=0.1 + 0.2,
    cached=True, tag="unit", dataflow="ws", scheduler="gto",
)

MODEL_REPORT = ModelReport(
    model="deeplab",
    platform="gpu-tc",
    ops=(
        OpReport("conv1", "CNN&FC", "gemm-tc", 1e-3 / 3.0, 2e9,
                 energy={"Global": 0.5, "PE": 1.0 / 3.0}),
        OpReport("argmax", "ArgMax", "simd", 5e-4, 1e6),
    ),
    tag="unit",
)

CACHE_STATS = CacheStats(hits=5, misses=2, window_hits=11, window_misses=3)

SLO_POINTS = (
    SloPoint(platform="sma:3", rate_hz=30.0, offered=12, completed=11,
             dropped=1, missed=2, mean_s=0.01, p50_s=0.009, p95_s=0.02,
             p99_s=0.025, tail_s=0.02, goodput_fps=1.0 / 3.0,
             meets_slo=True),
    SloPoint(platform="a100", rate_hz=30.0, offered=12, completed=12,
             dropped=0, missed=0, mean_s=0.004, p50_s=0.004, p95_s=0.005,
             p99_s=0.006, tail_s=0.005, goodput_fps=12.5, meets_slo=True,
             device="a100", area_mm2=826.0, tdp_w=400.0),
)


def _sweep_result() -> SweepResult:
    grid = grid_from_requests(
        [SimRequest(platform="sma:3",
                    gemm=GemmProblem(512, 256, 1024, beta=0.5), tag="unit")]
    )
    return SweepResult(
        grid=grid,
        reports=(GEMM_REPORT,),
        executed=(grid.points[0].request_id,),
        loaded=(),
        cache_stats=CACHE_STATS,
        jobs=2,
    )


def _reproducer() -> Reproducer:
    case = replace(_case("exclusive"), inject="invert_priority")
    return Reproducer(
        case=case,
        oracles=("priority_order",),
        violations=(
            Violation(oracle="priority_order",
                      message="lo dispatched before hi at t=0.0"),
        ),
        campaign_seed=7,
        index=3,
    )


def _fuzz_report() -> FuzzReport:
    reproducer = _reproducer()
    ok_case = _case("fifo")
    return FuzzReport(
        campaign_seed=7,
        batch=2,
        start=2,
        executed=1,
        loaded=1,
        records=(
            CaseRecord(index=2, case_id=ok_case.case_id, family="golden",
                       status="ok", case=ok_case),
            CaseRecord(index=3, case_id=reproducer.case.case_id,
                       family="golden", status="violation",
                       oracles=reproducer.oracles, case=reproducer.case,
                       reproducer=reproducer),
        ),
    )


def _p2() -> P2Quantile:
    estimate = P2Quantile(0.95)
    for step in range(8):
        estimate.update(step / 3.0)
    return estimate


#: Golden name -> builder. The class is the text before the first ``-``.
CASES = {
    "SimRequest-model": lambda: SimRequest(
        platform="sma:3", model="alexnet", tag="t", dataflow="ws",
        scheduler="gto",
    ),
    "SimRequest-gemm": lambda: SimRequest(
        platform="gpu-tc",
        gemm=GemmProblem(512, 1024, 256, DataType.FP32, alpha=0.5, beta=1.0),
    ),
    "SimRequest-scenario": lambda: SimRequest(
        platform="sma:3", scenario=_qos_scenario("drop_late"), tag="scn",
    ),
    "SimRequest-serving": lambda: SimRequest(
        platform="sma:2", scenario=ARRIVAL_SCENARIO, serving=True,
    ),
    "SimRequest-catalog": lambda: SimRequest(
        platform="sma@a100:3", model="goturn",
    ),
    "GemmReport": lambda: GEMM_REPORT,
    "ModelReport": lambda: MODEL_REPORT,
    "ScheduleReport": lambda: run_case(_case("fifo")).schedule,
    "ScheduleReport-preemptions": lambda: run_case(
        _case("exclusive_preempt", QosSpec(kind="abort_late"))
    ).schedule,
    "ServingReport": lambda: run_case(
        _case("priority", QosSpec(kind="drop_late"))
    ).serving,
    "ServingReport-streaming": _streaming_report,
    "ServingReport-aborts": lambda: run_case(
        _case("fifo", QosSpec(kind="abort_late"))
    ).serving,
    "ScenarioSpec-arrivals": lambda: ARRIVAL_SCENARIO,
    "ScenarioSpec-drop_late": lambda: _qos_scenario("drop_late"),
    "ScenarioSpec-queue_cap": lambda: _qos_scenario("queue_cap"),
    "ScenarioSpec-shed": lambda: _qos_scenario("shed"),
    "ScenarioSpec-abort_late": lambda: _qos_scenario("abort_late"),
    "StreamSpec": lambda: ARRIVAL_SCENARIO.streams[1],
    "QosSpec": lambda: QOS["shed"],
    "ArrivalSpec": lambda: ARRIVALS["mmpp"],
    "ArrivalTrace": lambda: trace_scenario(
        replace(ARRIVAL_SCENARIO,
                streams=ARRIVAL_SCENARIO.streams[:3])
    ),
    "CacheStats": lambda: CACHE_STATS,
    "BatchResult": lambda: BatchResult(
        reports=(GEMM_REPORT, MODEL_REPORT), cache_stats=CACHE_STATS
    ),
    "SweepResult": _sweep_result,
    "SloPoint": lambda: SLO_POINTS[1],
    "SloReport": lambda: SloReport(
        scenario="pair", slo_s=0.02, percentile_q=95.0,
        max_drop_fraction=0.1, points=SLO_POINTS, mode="bisect",
    ),
    "TaskShape": lambda: _SHAPES["hi"][0],
    "FuzzCase": lambda: _case("exclusive_preempt", QOS["shed"]),
    "Violation": lambda: _reproducer().violations[0],
    "Reproducer": _reproducer,
    "CaseRecord": lambda: _fuzz_report().records[1],
    "FuzzReport": _fuzz_report,
    "TraceEvent": lambda: _tracer().events[0],
    "Tracer": _tracer,
    "InterferenceMatrix": lambda: V100.interference,
    "DeviceSpec": lambda: V100,
    "P2Quantile": _p2,
    "QuantileSketch": _sketch,
}

#: Goldens written by hand rather than built: name -> decoding class.
HANDWRITTEN = {"ScenarioSpec-handwritten": ScenarioSpec}


def write_goldens() -> None:
    GOLDENS.mkdir(exist_ok=True)
    for name, build in CASES.items():
        (GOLDENS / f"{name}.json").write_text(dumps(build().to_dict()))
    for name, cls in HANDWRITTEN.items():
        spec = cls.from_dict(json.loads(HANDWRITTEN_SCENARIO))
        (GOLDENS / f"{name}.json").write_text(dumps(spec.to_dict()))


if __name__ == "__main__":
    write_goldens()
