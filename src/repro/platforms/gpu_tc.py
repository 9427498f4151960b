"""GPU + TensorCore platform: GEMM ops on the 4 TCs, the rest on SIMD.

Spatial integration's co-run cost is *derived* here: a TC GEMM kernel's
thread blocks keep the SIMD-side register-file ports and issue slots busy
(tile loads, address math, accumulator traffic), so a lowered TC task
carries a fractional SIMD claim measured from the kernel's simulated
port-busy counters. A concurrently-scheduled SIMD kernel is stretched by
exactly that fraction — no hard-coded contention constant.
"""

from __future__ import annotations

from repro.config import SystemConfig, system_gpu_4tc
from repro.dnn.ops import Operator
from repro.gemm.cache import TimingCache
from repro.gemm.problem import GemmProblem
from repro.platforms.base import (
    DEFAULT_FRAMEWORK_OVERHEAD_S,
    GpuPlatformBase,
    OpStats,
)
from repro.schedule.resources import ResourceClaim, ResourceKind


class GpuTcPlatform(GpuPlatformBase):
    """The Volta baseline with spatially integrated TCs (paper '4-TC')."""

    backend = "tc"

    def __init__(
        self,
        system: SystemConfig | None = None,
        framework_overhead_s: float = DEFAULT_FRAMEWORK_OVERHEAD_S,
        cache: TimingCache | None = None,
        scheduler: str | None = None,
        interference=None,
    ) -> None:
        super().__init__(
            system or system_gpu_4tc(), "gpu-4tc", framework_overhead_s,
            interference=interference, cache=cache, scheduler=scheduler,
        )

    def corun_simd_fraction(self, op: Operator) -> float:
        """SIMD-side pressure of this op's TC kernel, from measurement.

        The paper's co-run observation is that the TC GEMM alone nearly
        saturates the register-file ports; the simulated kernel exposes
        that directly as the busiest RF port's busy-cycle fraction. The
        timing is served from the shared cache, so this costs one lookup.
        """
        dims = op.gemm_dims()
        if dims is None:
            return 0.0
        m, n, k = dims
        timing = self.executor.time_gemm(
            GemmProblem(m, n, k, dtype=self._gemm_dtype)
        )
        cycles = timing.counters.get("cycles")
        if cycles <= 0:
            return 0.0
        port_busy = max(
            timing.counters.get("busy_rf_read"),
            timing.counters.get("busy_rf_write"),
        )
        return min(1.0, port_busy / cycles)

    def task_claims(self, op: Operator, stats: OpStats) -> tuple[ResourceClaim, ...]:
        if stats.mode != "gemm-tc":
            return super().task_claims(op, stats)
        if self.interference is not None:
            # Catalog devices carry a measured interference matrix; the
            # scheduler derives the SIMD-side pressure from it, so the
            # per-kernel fractional claim would double-count.
            return (ResourceClaim(ResourceKind.TC),)
        claims = [ResourceClaim(ResourceKind.TC)]
        fraction = self.corun_simd_fraction(op)
        if fraction > 0.0:
            claims.append(ResourceClaim(ResourceKind.SIMD, fraction))
        return tuple(claims)
