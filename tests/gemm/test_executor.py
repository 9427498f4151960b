"""GEMM executor timing tests — the paper's headline kernel numbers."""

import pytest

from repro.config import DataType, system_gpu_simd, system_sma
from repro.errors import MappingError, SimulationError
from repro.gemm.cache import TimingCache
from repro.gemm.executor import GemmExecutor
from repro.gemm.problem import GemmProblem


@pytest.fixture(scope="module")
def big_fp16():
    return GemmProblem(4096, 4096, 4096, dtype=DataType.FP16)


class TestBackendSelection:
    def test_unknown_backend(self):
        with pytest.raises(MappingError):
            GemmExecutor(system_gpu_simd(), "dsp")

    def test_sma_requires_units(self):
        with pytest.raises(MappingError):
            GemmExecutor(system_gpu_simd(), "sma")

    def test_k_slices(self, simd_executor, tc_executor, sma2_executor):
        assert simd_executor.k_slice() == 8
        assert tc_executor.k_slice() == 16
        assert sma2_executor.k_slice() == 8

    def test_default_dtypes(self, simd_executor, tc_executor, sma2_executor):
        assert simd_executor.default_dtype() is DataType.FP32
        assert tc_executor.default_dtype() is DataType.FP16
        assert sma2_executor.default_dtype() is DataType.FP16


class TestHeadlineEfficiencies:
    def test_sma2_steady_state_efficiency(self, sma2_executor, big_fp16):
        """Paper Fig 7: 90.71% for 2-SMA."""
        timing = sma2_executor.time_gemm(big_fp16)
        assert 0.85 <= timing.sm_efficiency <= 0.95

    def test_tc_steady_state_efficiency(self, tc_executor, big_fp16):
        """Paper Fig 7: 68.46% for 4-TC."""
        timing = tc_executor.time_gemm(big_fp16)
        assert 0.60 <= timing.sm_efficiency <= 0.72

    def test_sma_beats_tc_iso_flop(self, tc_executor, sma2_executor, big_fp16):
        t_tc = tc_executor.time_gemm(big_fp16)
        t_sma = sma2_executor.time_gemm(big_fp16)
        speedup = t_tc.seconds / t_sma.seconds
        assert 1.2 <= speedup <= 1.5  # paper: up to 1.47x

    def test_3sma_fastest(self, tc_executor, sma3_executor, big_fp16):
        t_tc = tc_executor.time_gemm(big_fp16)
        t_sma3 = sma3_executor.time_gemm(big_fp16)
        assert 1.5 <= t_tc.seconds / t_sma3.seconds <= 1.85  # paper 1.63x

    def test_simd_slowest(self, simd_executor, tc_executor):
        p32 = GemmProblem(4096, 4096, 4096, dtype=DataType.FP32)
        p16 = GemmProblem(4096, 4096, 4096, dtype=DataType.FP16)
        t_simd = simd_executor.time_gemm(p32)
        t_tc = tc_executor.time_gemm(p16)
        assert t_simd.seconds > 2.5 * t_tc.seconds


class TestScaling:
    def test_cycles_scale_with_k(self, sma2_executor):
        short = sma2_executor.time_gemm(GemmProblem(1024, 1024, 512, dtype=DataType.FP16))
        long = sma2_executor.time_gemm(GemmProblem(1024, 1024, 2048, dtype=DataType.FP16))
        assert long.tb_cycles > 3 * short.tb_cycles

    def test_small_k_exact_simulation(self, sma2_executor):
        # K = 16 -> 2 iterations <= window: simulated exactly.
        timing = sma2_executor.time_gemm(GemmProblem(128, 128, 16, dtype=DataType.FP16))
        assert timing.tb_cycles > 0

    def test_cache_hit_on_repeat(self, sma2_executor, big_fp16):
        first = sma2_executor.time_gemm(big_fp16)
        second = sma2_executor.time_gemm(big_fp16)
        assert first is second

    def test_mac_extrapolation_consistent(self, sma2_executor):
        """Extrapolated MAC counters must match the tile arithmetic."""
        problem = GemmProblem(1024, 1024, 1024, dtype=DataType.FP16)
        timing = sma2_executor.time_gemm(problem)
        plan = sma2_executor.plan(problem)
        padded_macs = (
            plan.num_thread_blocks * plan.tile_m * plan.tile_n
            * plan.k_iterations * plan.k_slice
        )
        measured = timing.counters.get("sma_macs")
        assert measured == pytest.approx(padded_macs, rel=0.01)

    def test_tflops_positive(self, sma2_executor, big_fp16):
        assert sma2_executor.time_gemm(big_fp16).tflops > 0


class TestPeakGuard:
    def test_beating_the_peak_is_a_simulation_error(self):
        """An efficiency above 1 is a model bug, raised rather than clamped."""

        class TinyPeak(GemmExecutor):
            def peak_flops_per_cycle_per_sm(self) -> float:
                return 1e-3

        executor = TinyPeak(system_sma(2), "sma", cache=TimingCache())
        problem = GemmProblem(256, 256, 256, dtype=DataType.FP16)
        with pytest.raises(
            SimulationError, match=r": efficiency \S+, SM efficiency \S+$"
        ) as excinfo:
            executor.time_gemm(problem)
        assert "sma backend" in str(excinfo.value)
        assert str(problem) in str(excinfo.value)
        assert len(executor.cache) == 0
