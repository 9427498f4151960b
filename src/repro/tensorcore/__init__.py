"""TensorCore timing: the register-file-bound closed-form GEMM estimate."""

from repro.tensorcore.timing import (
    TcGemmEstimate,
    estimate_tc_gemm_efficiency,
    wmma_schedule,
)

__all__ = [
    "TcGemmEstimate",
    "estimate_tc_gemm_efficiency",
    "wmma_schedule",
]
