"""Analytic TC GEMM timing tests (the Fig 1 estimate)."""

import pytest

from repro.errors import SimulationError
from repro.tensorcore.timing import (
    estimate_tc_gemm_efficiency,
    wmma_schedule,
)


class TestEfficiencyEstimate:
    def test_plateau_below_rf_bound(self):
        estimate = estimate_tc_gemm_efficiency(8192, 8192, 8192)
        assert 0.60 <= estimate.efficiency <= 0.72

    def test_small_sizes_dominated_by_overheads(self):
        small = estimate_tc_gemm_efficiency(128, 128, 128)
        large = estimate_tc_gemm_efficiency(8192, 8192, 8192)
        assert small.efficiency < 0.2 * large.efficiency

    def test_monotone_ramp_on_powers_of_two(self):
        effs = [
            estimate_tc_gemm_efficiency(n, n, n).efficiency
            for n in (128, 256, 512, 1024, 2048, 4096)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(effs, effs[1:]))

    def test_rf_bound_value(self):
        estimate = estimate_tc_gemm_efficiency(1024, 1024, 1024)
        # 8 banks x 0.95 collector efficiency / 8 reads per HMMA, times
        # the pipeline-calibrated steady-state factor.
        assert estimate.rf_bound == pytest.approx(0.95 * 0.72, abs=0.01)

    def test_tile_quantization_penalty(self):
        # 80 x 1 full tiles fill one wave exactly; one extra row forces a
        # second, nearly empty wave.
        aligned = estimate_tc_gemm_efficiency(80 * 128, 128, 1024)
        ragged = estimate_tc_gemm_efficiency(80 * 128 + 1, 128, 1024)
        assert ragged.quantization < 0.6 * aligned.quantization

    def test_invalid_dims(self):
        with pytest.raises(SimulationError):
            estimate_tc_gemm_efficiency(0, 128, 128)

    def test_macs(self):
        assert estimate_tc_gemm_efficiency(2, 3, 4).macs == 24


class TestWmmaSchedule:
    def test_default_warp_tile(self):
        schedule = wmma_schedule()
        assert schedule["wmmas"] == 16
        assert schedule["hmma_steps"] == 256

    def test_fragment_loads(self):
        schedule = wmma_schedule(64, 64, 16)
        assert schedule["a_fragment_loads"] == 16
        assert schedule["b_fragment_loads"] == 16

    def test_register_appetite(self):
        """The RF traffic that caps TC efficiency (paper SS II-A): each of
        a 16x16x16 WMMA's 16 HMMA steps reads 8 warp-wide operands and
        writes 4."""
        schedule = wmma_schedule(16, 16, 16)
        assert schedule["wmmas"] == 1
        assert schedule["hmma_reg_reads"] == 16 * 8
        assert schedule["hmma_reg_writes"] == 16 * 4

    def test_alignment_enforced(self):
        with pytest.raises(SimulationError):
            wmma_schedule(60, 64, 16)
