"""Functional TensorCore: 4x4x4 MMA steps and 16x16x16 WMMA fragments.

Timing facts exposed here are consumed by the trace generators:

* one HMMA step = a 4x4x4 MMA on one TC = 64 MACs/cycle for 4 cycles;
* one warp-level WMMA (16x16x16) = 16 HMMA steps;
* each HMMA reads 8 warp-wide register operands (A pair, B pair, 4
  accumulators) and writes 4 — the register-bandwidth appetite that caps TC
  efficiency (paper SS II-A and Fig 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.tensorcore.dot_product import dot4

#: MMA shape of one TC step.
MMA_M, MMA_N, MMA_K = 4, 4, 4
#: Warp-level WMMA fragment shape.
WMMA_M, WMMA_N, WMMA_K = 16, 16, 16
#: HMMA steps per warp-level WMMA.
HMMA_PER_WMMA = (WMMA_M // MMA_M) * (WMMA_N // MMA_N) * (WMMA_K // MMA_K) // 4
#: Register operands read / written per HMMA instruction.
HMMA_REG_READS = 8
HMMA_REG_WRITES = 4


@dataclass(frozen=True)
class WmmaOp:
    """One warp-synchronous 16x16x16 fragment multiply-accumulate."""

    hmma_steps: int = 16
    macs: int = WMMA_M * WMMA_N * WMMA_K

    @property
    def register_reads(self) -> int:
        return self.hmma_steps * HMMA_REG_READS

    @property
    def register_writes(self) -> int:
        return self.hmma_steps * HMMA_REG_WRITES


class TensorCore:
    """Functional model of one TC: computes D = A @ B + C per 4x4x4 step."""

    def __init__(self, fp16_inputs: bool = True) -> None:
        self.fp16_inputs = fp16_inputs
        self.mma_count = 0

    def mma_step(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray
    ) -> np.ndarray:
        """One 4x4x4 step via 16 parallel dot-product units."""
        import numpy as np

        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        c = np.asarray(c, dtype=np.float32)
        if a.shape != (MMA_M, MMA_K) or b.shape != (MMA_K, MMA_N):
            raise SimulationError(
                f"mma_step expects ({MMA_M},{MMA_K})x({MMA_K},{MMA_N}); "
                f"got {a.shape} x {b.shape}"
            )
        if c.shape != (MMA_M, MMA_N):
            raise SimulationError(f"accumulator must be 4x4, got {c.shape}")
        d = np.empty((MMA_M, MMA_N), dtype=np.float32)
        for i in range(MMA_M):
            for j in range(MMA_N):
                d[i, j] = dot4(a[i, :], b[:, j], c[i, j], self.fp16_inputs)
        self.mma_count += 1
        return d

    def wmma(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """A 16x16x16 warp fragment op decomposed into 4x4x4 steps."""
        import numpy as np

        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        c = np.asarray(c, dtype=np.float32).copy()
        if a.shape != (WMMA_M, WMMA_K) or b.shape != (WMMA_K, WMMA_N):
            raise SimulationError(
                f"wmma expects 16x16 fragments, got {a.shape} x {b.shape}"
            )
        for i0 in range(0, WMMA_M, MMA_M):
            for j0 in range(0, WMMA_N, MMA_N):
                acc = c[i0 : i0 + MMA_M, j0 : j0 + MMA_N]
                for k0 in range(0, WMMA_K, MMA_K):
                    acc = self.mma_step(
                        a[i0 : i0 + MMA_M, k0 : k0 + MMA_K],
                        b[k0 : k0 + MMA_K, j0 : j0 + MMA_N],
                        acc,
                    )
                c[i0 : i0 + MMA_M, j0 : j0 + MMA_N] = acc
        return c
