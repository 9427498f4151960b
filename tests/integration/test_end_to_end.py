"""Cross-module integration tests: full stacks wired together."""

import numpy as np
import pytest

from repro.config import DataType, SmaConfig, volta_gpu
from repro.dnn.zoo import build_alexnet
from repro.gemm.problem import GemmProblem
from repro.gemm.tiling import plan_gemm
from repro.platforms import GpuSmaPlatform, GpuTcPlatform


class TestTiledSystolicGemm:
    """The whole Fig 6 mapping covers the problem: tile it, multiply every
    zero-padded (thread block, K-slice, unit sub-tile) triple, and the
    clipped partial products add up to the dense product."""

    def test_full_tiled_gemm_matches_reference(self):
        rng = np.random.default_rng(42)
        m, n, k = 96, 80, 24
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        plan = plan_gemm(GemmProblem(m, n, k), tile_m=32, tile_n=32, k_slice=8)
        unit_width = 8

        c = np.zeros((m, n))
        for tile in plan.thread_blocks():
            c_sub = np.zeros((tile.rows, tile.cols))
            for k0 in range(0, k, plan.k_slice):
                k_extent = min(plan.k_slice, k - k0)
                a_tile = np.zeros((tile.rows, plan.k_slice))
                a_tile[:, :k_extent] = a[
                    tile.row : tile.row + tile.rows, k0 : k0 + k_extent
                ]
                for n0 in range(0, tile.cols, unit_width):
                    width = min(unit_width, tile.cols - n0)
                    b_sub = np.zeros((plan.k_slice, unit_width))
                    b_sub[:k_extent, :width] = b[
                        k0 : k0 + k_extent,
                        tile.col + n0 : tile.col + n0 + width,
                    ]
                    c_sub[:, n0 : n0 + width] += (a_tile @ b_sub)[:, :width]
            c[tile.row : tile.row + tile.rows,
              tile.col : tile.col + tile.cols] = c_sub

        np.testing.assert_allclose(c, a @ b, rtol=1e-9)


class TestPlatformAgreementOnWorkload:
    def test_alexnet_speedup_band(self):
        """Full-stack AlexNet: SMA beats TC by the Fig 8 kernel ratio."""
        tc = GpuTcPlatform(framework_overhead_s=0.0)
        sma = GpuSmaPlatform(3, framework_overhead_s=0.0)
        graph = build_alexnet()
        t_tc = sum(
            s.seconds for s in tc.run_model(graph).op_stats
            if s.mode.startswith("gemm")
        )
        t_sma = sum(
            s.seconds for s in sma.run_model(graph).op_stats
            if s.mode.startswith("gemm")
        )
        assert 1.4 <= t_tc / t_sma <= 1.9

    def test_energy_follows_time_ordering(self):
        tc = GpuTcPlatform(framework_overhead_s=0.0)
        sma = GpuSmaPlatform(3, framework_overhead_s=0.0)
        graph = build_alexnet()
        e_tc = tc.run_model(graph).total_energy().total
        e_sma = sma.run_model(graph).total_energy().total
        assert e_sma < e_tc


class TestConfigPlumbing:
    def test_custom_sma_width_flows_through(self):
        """A 4-unit SMA config must change the mapping quantization."""
        from repro.sma.mapping import SmaGemmMapper

        plan = plan_gemm(GemmProblem(512, 512, 512, dtype=DataType.FP32), k_slice=8)
        three = SmaGemmMapper(volta_gpu(), SmaConfig(units_per_sm=3)).kernel_shape(plan)
        four = SmaGemmMapper(volta_gpu(), SmaConfig(units_per_sm=4)).kernel_shape(plan)
        assert four.rounds == 4 and three.rounds == 6
        assert four.round_utilization == pytest.approx(1.0)
