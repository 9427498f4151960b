"""SIMD-only GPU platform: every operator on the CUDA cores (FP32)."""

from __future__ import annotations

from repro.config import SystemConfig, system_gpu_simd
from repro.gemm.cache import TimingCache
from repro.platforms.base import DEFAULT_FRAMEWORK_OVERHEAD_S, GpuPlatformBase


class GpuSimdPlatform(GpuPlatformBase):
    """The baseline GPU with TensorCores unused (paper Fig 8 'SIMD')."""

    backend = "simd"

    def __init__(
        self,
        system: SystemConfig | None = None,
        framework_overhead_s: float = DEFAULT_FRAMEWORK_OVERHEAD_S,
        cache: TimingCache | None = None,
        scheduler: str | None = None,
        interference=None,
    ) -> None:
        super().__init__(
            system or system_gpu_simd(), "gpu-simd", framework_overhead_s,
            interference=interference, cache=cache, scheduler=scheduler,
        )
