"""Pinned SM sample windows: the full ``SmResult`` of a set of window keys.

Each golden in ``goldens/<case>.json`` holds the ``repr`` of the cycles and
of every counter and stall counter of one thread block's window, in the
order the simulator first touched them. No exported CSV carries the stall
counters, so these files are their only guard. The cases span the SIMD and
TensorCore kernels and the 2- and 3-unit SMA mappings under both dataflows,
FP16 and FP32, 2 and 4 K-iterations, all three warp schedulers and the
synchronous ``sync_per_lsma`` ablation.

Regenerate with ``PYTHONPATH=src python tests/gpu/test_sm_goldens.py`` only
when a change to the simulated timing is intended.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import DataType, system_gpu_simd, system_sma
from repro.gemm.problem import GemmProblem
from repro.gemm.tiling import plan_gemm
from repro.gemm.traces import (
    SIMD_K_SLICE,
    TC_K_SLICE,
    build_simd_gemm_kernel,
    build_tc_gemm_kernel,
)
from repro.gpu.sm import SmResult, StreamingMultiprocessor
from repro.sma.mapping import SmaGemmMapper
from repro.systolic.dataflow import Dataflow

GOLDENS = Path(__file__).parent / "goldens"
SB = Dataflow.SEMI_BROADCAST_WS
WS = Dataflow.WEIGHT_STATIONARY
FP16, FP32 = DataType.FP16, DataType.FP32

#: case -> (backend, SMA units, dtype, iterations, scheduler, dataflow,
#: sync_per_lsma); the scheduler is the executor's default unless named.
CASES = {
    "simd-fp32-x2": ("simd", 0, FP32, 2, "gto", None, False),
    "simd-fp32-x4": ("simd", 0, FP32, 4, "gto", None, False),
    "simd-fp16-x2": ("simd", 0, FP16, 2, "gto", None, False),
    "tc-fp16-x2": ("tc", 0, FP16, 2, "gto", None, False),
    "tc-fp16-x4": ("tc", 0, FP16, 4, "gto", None, False),
    "tc-fp32-x2": ("tc", 0, FP32, 2, "gto", None, False),
    "tc-fp16-x2-lrr": ("tc", 0, FP16, 2, "lrr", None, False),
    "sma2-sb-fp16-x2": ("sma", 2, FP16, 2, "sma_rr", SB, False),
    "sma2-sb-fp16-x4": ("sma", 2, FP16, 4, "sma_rr", SB, False),
    "sma2-sb-fp32-x4": ("sma", 2, FP32, 4, "sma_rr", SB, False),
    "sma2-ws-fp16-x2": ("sma", 2, FP16, 2, "sma_rr", WS, False),
    "sma2-sb-fp16-x2-sync": ("sma", 2, FP16, 2, "sma_rr", SB, True),
    "sma3-sb-fp16-x2": ("sma", 3, FP16, 2, "sma_rr", SB, False),
    "sma3-sb-fp16-x4": ("sma", 3, FP16, 4, "sma_rr", SB, False),
    "sma3-sb-fp32-x2": ("sma", 3, FP32, 2, "sma_rr", SB, False),
    "sma3-ws-fp16-x4": ("sma", 3, FP16, 4, "sma_rr", WS, False),
    "sma3-ws-fp32-x2": ("sma", 3, FP32, 2, "sma_rr", WS, False),
    "sma3-sb-fp16-x4-gto": ("sma", 3, FP16, 4, "gto", SB, False),
}


def _simulate(case: str) -> SmResult:
    backend, units, dtype, iterations, scheduler, dataflow, sync = CASES[case]
    problem = GemmProblem(128, 128, 128, dtype)
    if backend == "sma":
        system = system_sma(units, dtype)
        mapper = SmaGemmMapper(
            system.gpu, system.sma, dataflow=dataflow, scheduler=scheduler,
            sync_per_lsma=sync,
        )
        kernel = mapper.build_kernel(
            plan_gemm(problem, k_slice=system.sma.array_rows), iterations
        )
    elif backend == "tc":
        system = system_gpu_simd()
        kernel = build_tc_gemm_kernel(
            plan_gemm(problem, k_slice=TC_K_SLICE), iterations, scheduler
        )
    else:
        system = system_gpu_simd()
        kernel = build_simd_gemm_kernel(
            plan_gemm(problem, k_slice=SIMD_K_SLICE), iterations, scheduler
        )
    return StreamingMultiprocessor(system.gpu).run(kernel)


def _record(result: SmResult) -> dict:
    return {
        "kernel": result.name,
        "cycles": repr(result.cycles),
        "counters": {name: repr(value) for name, value in result.counters.items()},
        "stalls": {name: repr(value) for name, value in result.stalls.items()},
    }


def test_every_case_is_pinned():
    assert sorted(path.stem for path in GOLDENS.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_window_matches_golden(case):
    golden = json.loads((GOLDENS / f"{case}.json").read_text())
    record = _record(_simulate(case))
    assert record == golden
    for bag in ("counters", "stalls"):
        assert list(record[bag]) == list(golden[bag]), f"{bag} order"


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for name in CASES:
        text = json.dumps(_record(_simulate(name)), indent=1)
        (GOLDENS / f"{name}.json").write_text(text + "\n")
