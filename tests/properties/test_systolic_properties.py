"""Property-based tests: systolic arrays compute exact GEMMs, in the
streaming cycles the timing path charges for them."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.systolic.dataflow import Dataflow, analyze_dataflow_cost
from tests.systolic.reference_array import SystolicArray

_ELEMENTS = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def _operands(m, k, n):
    return st.tuples(
        arrays(np.float64, (m, k), elements=_ELEMENTS),
        arrays(np.float64, (k, n), elements=_ELEMENTS),
    )


@st.composite
def gemm_operands(draw, max_m=48, k=8, n=8):
    m = draw(st.integers(min_value=1, max_value=max_m))
    return draw(_operands(m, k, n))


class TestFunctionalEquivalence:
    @given(gemm_operands())
    @settings(max_examples=40, deadline=None)
    def test_semi_broadcast_equals_numpy(self, operands):
        a, b = operands
        array = SystolicArray(8, 8, Dataflow.SEMI_BROADCAST_WS)
        np.testing.assert_allclose(
            array.run_gemm(a, b).c, a @ b, rtol=1e-9, atol=1e-9
        )

    @given(gemm_operands())
    @settings(max_examples=40, deadline=None)
    def test_weight_stationary_equals_numpy(self, operands):
        a, b = operands
        array = SystolicArray(8, 8, Dataflow.WEIGHT_STATIONARY)
        np.testing.assert_allclose(
            array.run_gemm(a, b).c, a @ b, rtol=1e-9, atol=1e-9
        )

    @given(gemm_operands())
    @settings(max_examples=25, deadline=None)
    def test_dataflows_agree(self, operands):
        """Fig 4: both dataflows are the same computation."""
        a, b = operands
        sb = SystolicArray(8, 8, Dataflow.SEMI_BROADCAST_WS).run_gemm(a, b)
        ws = SystolicArray(8, 8, Dataflow.WEIGHT_STATIONARY).run_gemm(a, b)
        np.testing.assert_allclose(sb.c, ws.c, rtol=1e-9, atol=1e-9)


class TestTimingInvariants:
    @given(st.integers(min_value=1, max_value=512))
    @settings(max_examples=30, deadline=None)
    def test_cycle_formula(self, m):
        a = np.ones((m, 8))
        b = np.ones((8, 8))
        result = SystolicArray(8, 8, Dataflow.SEMI_BROADCAST_WS).run_gemm(a, b)
        assert result.streaming_cycles == m + 7
        assert result.macs == m * 64

    @given(st.integers(min_value=1, max_value=256))
    @settings(max_examples=30, deadline=None)
    def test_ws_never_faster_than_semi_broadcast(self, m):
        a = np.ones((m, 8))
        b = np.ones((8, 8))
        sb = SystolicArray(8, 8, Dataflow.SEMI_BROADCAST_WS).run_gemm(a, b)
        ws = SystolicArray(8, 8, Dataflow.WEIGHT_STATIONARY).run_gemm(a, b)
        assert ws.cycles >= sb.cycles

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_utilization_bounded(self, m):
        a = np.ones((m, 8))
        b = np.ones((8, 8))
        result = SystolicArray(8, 8, Dataflow.SEMI_BROADCAST_WS).run_gemm(a, b)
        assert result.macs <= result.cycles * 64


class TestCostModelMatchesArray:
    """The SMA controller charges ``analyze_dataflow_cost``; the
    cycle-stepped array is its oracle. Like ArrayFlex's and ReDas's closed
    forms, the ideal latency is fill, stream and drain: M + K - 1 cycles
    for semi-broadcast, M + K + N - 2 for weight- and output-stationary."""

    @given(
        dataflow=st.sampled_from(tuple(Dataflow)),
        rows=st.integers(min_value=4, max_value=16),
        cols=st.integers(min_value=4, max_value=24),
        stream=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_ideal_streaming_cycles_equal_the_arrays(
        self, dataflow, rows, cols, stream
    ):
        # Semi-broadcast arrays are N x K and weight-stationary ones K x N,
        # with M rows of A streamed; output-stationary ones are M x N, with
        # a K-deep reduction streamed.
        if dataflow is Dataflow.SEMI_BROADCAST_WS:
            m, n, k = stream, rows, cols
        elif dataflow is Dataflow.WEIGHT_STATIONARY:
            m, k, n = stream, rows, cols
        else:
            m, n, k = rows, cols, stream
        a = np.arange(m * k, dtype=np.float64).reshape(m, k) % 7 + 1
        b = np.arange(k * n, dtype=np.float64).reshape(k, n) % 5 + 1
        result = SystolicArray(rows, cols, dataflow).run_gemm(a, b)
        # Every C element leaves the array within those cycles.
        np.testing.assert_array_equal(result.c, a @ b)
        cost = analyze_dataflow_cost(dataflow, m, k, n)
        assert cost.ideal_streaming_cycles == result.streaming_cycles
