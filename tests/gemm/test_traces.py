"""SIMD / TC kernel trace-generation tests."""

import pytest

from repro.config import DataType, system_sma
from repro.errors import MappingError
from repro.gemm.problem import GemmProblem
from repro.gemm.tiling import plan_gemm
from repro.gemm.traces import (
    SIMD_K_SLICE,
    SIMD_WARPS,
    TC_K_SLICE,
    TC_WARPS,
    build_simd_gemm_kernel,
    build_tc_gemm_kernel,
)
from repro.isa.instructions import Opcode
from repro.isa.program import ProgramBuilder
from repro.sma.mapping import SmaGemmMapper
from repro.systolic.dataflow import Dataflow


def _simd_plan():
    return plan_gemm(GemmProblem(512, 512, 512, dtype=DataType.FP32),
                     k_slice=SIMD_K_SLICE)


def _tc_plan():
    return plan_gemm(GemmProblem(512, 512, 512, dtype=DataType.FP16),
                     k_slice=TC_K_SLICE)


class TestSimdTrace:
    def test_ffma_count_covers_tile(self):
        spec = build_simd_gemm_kernel(_simd_plan(), iterations=2)
        ffma = sum(p.count(Opcode.FFMA) for p in spec.programs)
        # 128x128x8 MACs per iteration / 32 lanes.
        assert ffma == 2 * 128 * 128 * 8 // 32

    def test_warp_count(self):
        spec = build_simd_gemm_kernel(_simd_plan(), iterations=1)
        assert len(spec.programs) == SIMD_WARPS

    def test_barrier_per_iteration(self):
        spec = build_simd_gemm_kernel(_simd_plan(), iterations=3)
        bars = spec.programs[0].count(Opcode.BAR)
        assert bars == 3 + 1  # prologue + per-iteration

    def test_wrong_k_slice_rejected(self):
        with pytest.raises(MappingError):
            build_simd_gemm_kernel(_tc_plan(), iterations=1)

    def test_stage_stores_after_compute(self):
        """Software pipelining: LDG early, STS late in the iteration."""
        program = build_simd_gemm_kernel(_simd_plan(), iterations=1).programs[0]
        opcodes = [inst.opcode for inst in program]
        first_bar = opcodes.index(Opcode.BAR)
        body = opcodes[first_bar + 1:]
        last_ldg = max(i for i, op in enumerate(body) if op is Opcode.LDG)
        first_body_ffma = body.index(Opcode.FFMA)
        last_sts = max(i for i, op in enumerate(body) if op is Opcode.STS)
        last_ffma = max(i for i, op in enumerate(body) if op is Opcode.FFMA)
        assert last_ldg < first_body_ffma
        assert last_sts > last_ffma


class TestTcTrace:
    def test_hmma_count_covers_tile(self):
        spec = build_tc_gemm_kernel(_tc_plan(), iterations=2)
        hmma = sum(p.count(Opcode.HMMA) for p in spec.programs)
        # 128x128x16 MACs per iteration / 256 MACs per HMMA.
        assert hmma == 2 * 128 * 128 * 16 // 256

    def test_warp_count(self):
        spec = build_tc_gemm_kernel(_tc_plan(), iterations=1)
        assert len(spec.programs) == TC_WARPS

    def test_fragment_loads_per_iteration(self):
        spec = build_tc_gemm_kernel(_tc_plan(), iterations=1)
        lds = spec.programs[0].count(Opcode.LDS)
        assert lds == 4  # 2 A + 2 B fragments

    def test_accumulator_chains_interleaved(self):
        """Dependent HMMA steps must not be adjacent (compiler ILP)."""
        program = build_tc_gemm_kernel(_tc_plan(), iterations=1).programs[0]
        hmma_accs = [
            inst.dst[0] for inst in program if inst.opcode is Opcode.HMMA
        ]
        adjacent_same = sum(
            1 for a, b in zip(hmma_accs, hmma_accs[1:]) if a == b
        )
        assert adjacent_same == 0

    def test_iterations_validated(self):
        with pytest.raises(MappingError):
            build_tc_gemm_kernel(_tc_plan(), iterations=0)


def _sma_build(dataflow, sync_per_lsma=False):
    system = system_sma(3)
    mapper = SmaGemmMapper(
        system.gpu, system.sma, dataflow=dataflow, sync_per_lsma=sync_per_lsma
    )
    plan = plan_gemm(GemmProblem(128, 128, 128), k_slice=system.sma.array_rows)
    return lambda iterations: mapper.build_kernel(plan, iterations)


#: Every production kernel build, by iterations.
_BUILDS = {
    "simd": lambda iterations: build_simd_gemm_kernel(_simd_plan(), iterations),
    "tc": lambda iterations: build_tc_gemm_kernel(_tc_plan(), iterations),
    "sma-sb": _sma_build(Dataflow.SEMI_BROADCAST_WS),
    "sma-ws": _sma_build(Dataflow.WEIGHT_STATIONARY),
    "sma-sync": _sma_build(Dataflow.SEMI_BROADCAST_WS, sync_per_lsma=True),
}


class _Forgetful(dict):
    """An instruction table that keeps nothing, so every emit builds."""

    def __setitem__(self, key, value):
        pass


def _objects(kernel):
    return {id(inst) for program in kernel.programs for inst in program}


def _length(kernel):
    return sum(len(program) for program in kernel.programs)


class TestSharedInstructionTable:
    """The warps of one build share each distinct register-only instruction."""

    @pytest.mark.parametrize("iterations", [1, 2, 3, 4])
    @pytest.mark.parametrize("kernel", list(_BUILDS))
    def test_shared_build_equals_a_build_of_fresh_objects(
        self, monkeypatch, kernel, iterations
    ):
        shared = _BUILDS[kernel](iterations)
        init = ProgramBuilder.__init__
        with monkeypatch.context() as patch:
            patch.setattr(
                ProgramBuilder,
                "__init__",
                lambda builder, name, instructions=None: init(
                    builder, name, _Forgetful()
                ),
            )
            fresh = _BUILDS[kernel](iterations)
        assert len(_objects(fresh)) == _length(fresh)
        assert [p.name for p in shared.programs] == [p.name for p in fresh.programs]
        for ours, theirs in zip(shared.programs, fresh.programs):
            assert list(map(repr, ours)) == list(map(repr, theirs))

    @pytest.mark.parametrize("kernel", list(_BUILDS))
    def test_sharing_is_real_and_ends_with_the_build(self, kernel):
        first, second = _BUILDS[kernel](2), _BUILDS[kernel](2)
        assert len(_objects(first)) < _length(first)
        assert _objects(first).isdisjoint(_objects(second))
