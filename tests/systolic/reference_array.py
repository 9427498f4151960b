"""Cycle-by-cycle simulation of a systolic array: the oracle of the cost model.

Every dataflow is simulated at register-transfer granularity (what value sits
in which PE at which cycle) using vectorised numpy state. The result matrix
equals ``A @ B`` in float64, and the streaming cycle count is the fill,
stream and drain time that ``repro.systolic.dataflow.analyze_dataflow_cost``
charges in closed form.

Nothing on a production path runs it. Its callers are the properties in
``tests/properties/test_systolic_properties.py``, which hold the production
cost model to it for every dataflow, and its own tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.systolic.dataflow import Dataflow


@dataclass(frozen=True)
class GemmRunResult:
    """Functional + timing outcome of one tile GEMM on the array."""

    c: np.ndarray
    cycles: int
    weight_load_cycles: int
    streaming_cycles: int
    drain_cycles: int
    macs: int
    a_reads: int
    c_writes: int


class SystolicArray:
    """An R x C grid of MAC units running one of the supported dataflows.

    For ``SEMI_BROADCAST_WS`` the array is interpreted as N x K (outputs by
    reduction depth); for ``WEIGHT_STATIONARY`` as K x N; for
    ``OUTPUT_STATIONARY`` as M x N. ``run_gemm`` accepts operand tiles whose
    shapes match the interpretation and streams them through cycle by cycle.
    """

    def __init__(self, rows: int, cols: int, dataflow: Dataflow) -> None:
        if rows <= 0 or cols <= 0:
            raise SimulationError("array dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.dataflow = dataflow

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    # -- public API ---------------------------------------------------------------
    def run_gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        overlap_weight_load: bool = False,
    ) -> GemmRunResult:
        """Compute ``C = A @ B`` for one tile resident in the array.

        ``a`` is (M, K) and ``b`` is (K, N); K and N must match the array's
        interpretation for the configured dataflow. Returns the C matrix and
        the cycle budget. ``overlap_weight_load`` models double-buffered
        weights (load hidden behind the previous tile's streaming).
        """
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise SimulationError(
                f"incompatible GEMM operands {a.shape} x {b.shape}"
            )
        if self.dataflow is Dataflow.SEMI_BROADCAST_WS:
            return self._run_semi_broadcast(a, b, overlap_weight_load)
        if self.dataflow is Dataflow.WEIGHT_STATIONARY:
            return self._run_weight_stationary(a, b, overlap_weight_load)
        if self.dataflow is Dataflow.OUTPUT_STATIONARY:
            return self._run_output_stationary(a, b)
        raise SimulationError(f"unsupported dataflow {self.dataflow}")

    # -- semi-broadcast weight stationary (paper Fig 4 right) ----------------------
    def _run_semi_broadcast(
        self, a: np.ndarray, b: np.ndarray, overlap: bool
    ) -> GemmRunResult:
        m_extent, k_extent = a.shape
        _, n_extent = b.shape
        if n_extent != self.rows or k_extent != self.cols:
            raise SimulationError(
                f"semi-broadcast array is N x K = {self.rows} x {self.cols}; "
                f"got operands K={k_extent}, N={n_extent}"
            )
        weights = b.T.copy()                       # (N, K): PE[j][k] = B[k][j]
        psum = np.zeros((n_extent, k_extent))
        c = np.zeros((m_extent, n_extent))
        streaming = m_extent + k_extent - 1
        for cycle in range(streaming):
            a_in = np.zeros(k_extent)
            for k in range(k_extent):
                m = cycle - k
                if 0 <= m < m_extent:
                    a_in[k] = a[m, k]
            shifted = np.empty_like(psum)
            shifted[:, 0] = a_in[0] * weights[:, 0]
            shifted[:, 1:] = psum[:, :-1] + a_in[1:] * weights[:, 1:]
            psum = shifted
            m_out = cycle - (k_extent - 1)
            if 0 <= m_out < m_extent:
                c[m_out, :] = psum[:, k_extent - 1]
        load = 0 if overlap else k_extent
        cycles = load + streaming
        return GemmRunResult(
            c=c,
            cycles=cycles,
            weight_load_cycles=load,
            streaming_cycles=streaming,
            drain_cycles=0,
            macs=m_extent * k_extent * n_extent,
            a_reads=m_extent * k_extent,
            c_writes=m_extent * n_extent,
        )

    # -- TPU weight stationary (paper Fig 4 left) ----------------------------------
    def _run_weight_stationary(
        self, a: np.ndarray, b: np.ndarray, overlap: bool
    ) -> GemmRunResult:
        m_extent, k_extent = a.shape
        _, n_extent = b.shape
        if k_extent != self.rows or n_extent != self.cols:
            raise SimulationError(
                f"weight-stationary array is K x N = {self.rows} x {self.cols}; "
                f"got operands K={k_extent}, N={n_extent}"
            )
        weights = b.copy()                        # (K, N): PE[k][n] = B[k][n]
        a_reg = np.zeros((k_extent, n_extent))    # A values flowing east
        psum = np.zeros((k_extent, n_extent))     # partial sums flowing south
        c = np.zeros((m_extent, n_extent))
        streaming = m_extent + k_extent + n_extent - 2
        for cycle in range(streaming):
            feed = np.zeros(k_extent)
            for k in range(k_extent):
                m = cycle - k
                if 0 <= m < m_extent:
                    feed[k] = a[m, k]
            a_new = np.empty_like(a_reg)
            a_new[:, 0] = feed
            a_new[:, 1:] = a_reg[:, :-1]
            shifted = np.empty_like(psum)
            shifted[0, :] = a_new[0, :] * weights[0, :]
            shifted[1:, :] = psum[:-1, :] + a_new[1:, :] * weights[1:, :]
            a_reg = a_new
            psum = shifted
            for n in range(n_extent):
                m_out = cycle - (k_extent - 1) - n
                if 0 <= m_out < m_extent:
                    c[m_out, n] = psum[k_extent - 1, n]
        load = 0 if overlap else k_extent
        cycles = load + streaming
        return GemmRunResult(
            c=c,
            cycles=cycles,
            weight_load_cycles=load,
            streaming_cycles=streaming,
            drain_cycles=0,
            macs=m_extent * k_extent * n_extent,
            a_reads=m_extent * k_extent,
            c_writes=m_extent * n_extent,
        )

    # -- output stationary (ablation) ----------------------------------------------
    def _run_output_stationary(
        self, a: np.ndarray, b: np.ndarray
    ) -> GemmRunResult:
        m_extent, k_extent = a.shape
        _, n_extent = b.shape
        if m_extent != self.rows or n_extent != self.cols:
            raise SimulationError(
                f"output-stationary array is M x N = {self.rows} x {self.cols}; "
                f"got operands M={m_extent}, N={n_extent}"
            )
        a_reg = np.zeros((m_extent, n_extent))   # A flowing east
        b_reg = np.zeros((m_extent, n_extent))   # B flowing south
        acc = np.zeros((m_extent, n_extent))
        streaming = k_extent + m_extent + n_extent - 2
        for cycle in range(streaming):
            a_feed = np.zeros(m_extent)
            for m in range(m_extent):
                k = cycle - m
                if 0 <= k < k_extent:
                    a_feed[m] = a[m, k]
            b_feed = np.zeros(n_extent)
            for n in range(n_extent):
                k = cycle - n
                if 0 <= k < k_extent:
                    b_feed[n] = b[k, n]
            a_new = np.empty_like(a_reg)
            a_new[:, 0] = a_feed
            a_new[:, 1:] = a_reg[:, :-1]
            b_new = np.empty_like(b_reg)
            b_new[0, :] = b_feed
            b_new[1:, :] = b_reg[:-1, :]
            acc += a_new * b_new
            a_reg = a_new
            b_reg = b_new
        drain = (m_extent * n_extent + n_extent - 1) // n_extent
        cycles = streaming + drain
        return GemmRunResult(
            c=acc.copy(),
            cycles=cycles,
            weight_load_cycles=0,
            streaming_cycles=streaming,
            drain_cycles=drain,
            macs=m_extent * k_extent * n_extent,
            a_reads=m_extent * k_extent,
            c_writes=m_extent * n_extent,
        )
