"""Functional tiled GEMM on the systolic arrays (bit-exact execution).

This is the *functional* counterpart of the timing executor: it runs a
whole GEMM through the Fig 6 tiling — thread-block tiles, K-slices, and
per-unit B sub-tiles — executing every sub-tile with the LSMA semantics on
the cycle-level array simulator. Useful for validating mappings and for
downstream users who want the numerical behaviour of the dataflow (e.g.
FP16 accumulation studies) rather than cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SmaConfig
from repro.errors import MappingError
from repro.gemm.problem import GemmProblem
from repro.gemm.tiling import TilingPlan, plan_gemm
from repro.sma.lsma import execute_lsma
from repro.systolic.dataflow import Dataflow


@dataclass(frozen=True)
class TiledGemmResult:
    """Output of a functional tiled run."""

    c: np.ndarray
    lsma_count: int
    thread_blocks: int
    k_iterations: int


def tiled_systolic_gemm(
    a: np.ndarray,
    b: np.ndarray,
    sma: SmaConfig | None = None,
    plan: TilingPlan | None = None,
    dataflow: Dataflow = Dataflow.SEMI_BROADCAST_WS,
    alpha: float = 1.0,
    beta: float = 0.0,
    c_in: np.ndarray | None = None,
) -> TiledGemmResult:
    """Compute ``alpha * A @ B + beta * C`` entirely via LSMA operations.

    Every (thread block, K-slice, sub-tile) triple of the Fig 6 mapping
    becomes one LSMA executed on the array simulator; padding introduced
    by edge tiles is zero-filled and clipped, so the result equals the
    dense reference for arbitrary shapes.
    """
    import numpy as np

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise MappingError(f"incompatible GEMM operands {a.shape} x {b.shape}")
    m, k = a.shape
    _, n = b.shape
    sma = sma or SmaConfig()
    if plan is None:
        plan = plan_gemm(GemmProblem(m, n, k), k_slice=sma.array_rows)
    if plan.k_slice != sma.array_rows:
        raise MappingError(
            f"plan K-slice {plan.k_slice} != array depth {sma.array_rows}"
        )
    if beta != 0.0 and c_in is None:
        raise MappingError("beta != 0 requires an input C")
    unit_width = sma.effective_cols

    c = np.zeros((m, n))
    lsma_count = 0
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
                c_sub[:, n0 : n0 + width] += execute_lsma(
                    a_tile, b_sub, dataflow=dataflow
                )[:, :width]
                lsma_count += 1
        c[tile.row : tile.row + tile.rows,
          tile.col : tile.col + tile.cols] = c_sub

    c = alpha * c
    if beta != 0.0:
        c = c + beta * np.asarray(c_in, dtype=np.float64)
    return TiledGemmResult(
        c=c,
        lsma_count=lsma_count,
        thread_blocks=plan.num_thread_blocks,
        k_iterations=plan.k_iterations,
    )
