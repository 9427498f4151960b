"""The 4-element dot-product unit at the heart of a TensorCore.

Volta TCs compute GEMM "in the dot-product fashion" (paper SS II-A): each of
the 16 output elements of a 4x4x4 MMA comes from a 4-wide dot product plus
an accumulator add. FP16 multiplies feed an FP32 accumulate, which we model
by rounding the products to FP16 before the FP32 sum.
"""

from __future__ import annotations


def dot4(
    a: np.ndarray, b: np.ndarray, c: float, fp16_inputs: bool = True
) -> float:
    """One dot-product-unit operation: ``c + sum_i a[i] * b[i]``.

    ``a`` and ``b`` are 4-vectors. With ``fp16_inputs`` the operands are
    first rounded to half precision (the TC datapath), while the adder tree
    and accumulator stay FP32.
    """
    import numpy as np

    a = np.asarray(a, dtype=np.float32).reshape(4)
    b = np.asarray(b, dtype=np.float32).reshape(4)
    if fp16_inputs:
        a = a.astype(np.float16).astype(np.float32)
        b = b.astype(np.float16).astype(np.float32)
    products = a * b
    return float(np.float32(c) + products.sum(dtype=np.float32))
