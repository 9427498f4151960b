"""Cycle-level systolic array functional and timing tests."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.systolic.dataflow import Dataflow
from tests.systolic.reference_array import SystolicArray


def _random(m, k, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, k)), rng.standard_normal((k, n))


class TestSemiBroadcast:
    def test_matches_numpy(self):
        a, b = _random(13, 8, 8)
        array = SystolicArray(8, 8, Dataflow.SEMI_BROADCAST_WS)
        result = array.run_gemm(a, b)
        np.testing.assert_allclose(result.c, a @ b)

    def test_rectangular_array(self):
        a, b = _random(20, 8, 16)
        array = SystolicArray(16, 8, Dataflow.SEMI_BROADCAST_WS)
        result = array.run_gemm(a, b)
        np.testing.assert_allclose(result.c, a @ b)

    def test_streaming_cycles(self):
        a, b = _random(128, 8, 8)
        array = SystolicArray(8, 8, Dataflow.SEMI_BROADCAST_WS)
        result = array.run_gemm(a, b)
        # M + K - 1 streaming plus K weight-load cycles.
        assert result.streaming_cycles == 128 + 8 - 1
        assert result.cycles == result.streaming_cycles + 8

    def test_overlapped_weight_load(self):
        a, b = _random(64, 8, 8)
        array = SystolicArray(8, 8, Dataflow.SEMI_BROADCAST_WS)
        overlapped = array.run_gemm(a, b, overlap_weight_load=True)
        exposed = array.run_gemm(a, b)
        assert overlapped.cycles == exposed.cycles - 8

    def test_shape_validation(self):
        array = SystolicArray(8, 8, Dataflow.SEMI_BROADCAST_WS)
        a, b = _random(16, 4, 8)
        with pytest.raises(SimulationError):
            array.run_gemm(a, b)

    def test_mac_and_access_counts(self):
        a, b = _random(32, 8, 8)
        array = SystolicArray(8, 8, Dataflow.SEMI_BROADCAST_WS)
        result = array.run_gemm(a, b)
        assert result.macs == 32 * 8 * 8
        assert result.a_reads == 32 * 8
        assert result.c_writes == 32 * 8


class TestWeightStationary:
    def test_matches_numpy(self):
        a, b = _random(17, 8, 8, seed=3)
        array = SystolicArray(8, 8, Dataflow.WEIGHT_STATIONARY)
        result = array.run_gemm(a, b)
        np.testing.assert_allclose(result.c, a @ b)

    def test_tpu_shape_128_tile(self):
        a, b = _random(16, 16, 16, seed=4)
        array = SystolicArray(16, 16, Dataflow.WEIGHT_STATIONARY)
        result = array.run_gemm(a, b)
        np.testing.assert_allclose(result.c, a @ b)

    def test_longer_drain_than_semi_broadcast(self):
        """The WS diagonal drain adds N-1 cycles over semi-broadcast."""
        a, b = _random(64, 8, 8)
        ws = SystolicArray(8, 8, Dataflow.WEIGHT_STATIONARY).run_gemm(a, b)
        sb = SystolicArray(8, 8, Dataflow.SEMI_BROADCAST_WS).run_gemm(a, b)
        assert ws.streaming_cycles == sb.streaming_cycles + 8 - 1


class TestOutputStationary:
    def test_matches_numpy(self):
        a, b = _random(8, 24, 8, seed=5)
        array = SystolicArray(8, 8, Dataflow.OUTPUT_STATIONARY)
        result = array.run_gemm(a, b)
        np.testing.assert_allclose(result.c, a @ b)

    def test_drain_phase_counted(self):
        a, b = _random(8, 16, 8)
        array = SystolicArray(8, 8, Dataflow.OUTPUT_STATIONARY)
        result = array.run_gemm(a, b)
        assert result.drain_cycles > 0


class TestValidation:
    def test_incompatible_operands(self):
        array = SystolicArray(8, 8, Dataflow.SEMI_BROADCAST_WS)
        with pytest.raises(SimulationError):
            array.run_gemm(np.zeros((4, 3)), np.zeros((5, 4)))

    def test_bad_dims(self):
        with pytest.raises(SimulationError):
            SystolicArray(0, 8, Dataflow.SEMI_BROADCAST_WS)

    def test_num_pes(self):
        assert SystolicArray(8, 16, Dataflow.SEMI_BROADCAST_WS).num_pes == 128
