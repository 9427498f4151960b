"""SIMD-only GPU platform: every operator on the CUDA cores (FP32)."""

from __future__ import annotations

from repro.config import DataType, SystemConfig, system_gpu_simd
from repro.dnn.ops import Operator
from repro.gemm.cache import TimingCache
from repro.gemm.executor import GemmExecutor
from repro.gemm.problem import GemmProblem
from repro.platforms.base import (
    DEFAULT_FRAMEWORK_OVERHEAD_S,
    GpuPlatformBase,
    OpStats,
    reporting_group,
)


class GpuSimdPlatform(GpuPlatformBase):
    """The baseline GPU with TensorCores unused (paper Fig 8 'SIMD')."""

    def __init__(
        self,
        system: SystemConfig | None = None,
        framework_overhead_s: float = DEFAULT_FRAMEWORK_OVERHEAD_S,
        cache: TimingCache | None = None,
        scheduler: str | None = None,
        interference=None,
    ) -> None:
        system = system or system_gpu_simd()
        super().__init__(
            system, "gpu-simd", framework_overhead_s, interference=interference,
            cache=cache,
        )
        self.executor = GemmExecutor(
            system, "simd", scheduler=scheduler, cache=self.cache
        )

    def run_op(self, op: Operator) -> OpStats:
        dims = op.gemm_dims()
        if dims is None:
            return self.run_irregular(op)
        m, n, k = dims
        problem = GemmProblem(m, n, k, dtype=DataType.FP32)
        timing = self.executor.time_gemm(problem)
        return OpStats(
            op_name=op.name,
            group=reporting_group(op),
            mode="gemm-simd",
            seconds=timing.seconds,
            flops=float(problem.flops),
            energy=self.gemm_energy(timing),
        )
