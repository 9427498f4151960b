"""GEMM problems, Fig-6 tiling, conv->GEMM shapes, kernel traces, executor."""

from repro.gemm.cache import CacheStats, TimingCache, process_cache
from repro.gemm.problem import GemmProblem
from repro.gemm.reference import conv_output_shape, conv_to_gemm
from repro.gemm.tiling import ThreadBlockTile, TilingPlan, plan_gemm

__all__ = [
    "CacheStats",
    "GemmProblem",
    "TimingCache",
    "ThreadBlockTile",
    "TilingPlan",
    "conv_output_shape",
    "conv_to_gemm",
    "plan_gemm",
    "process_cache",
]
