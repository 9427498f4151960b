"""Convolution -> GEMM shape algebra.

The convolution layers of every CNN in the evaluation are lowered to GEMM
"through the img2col" (paper SS V-A); the timing models need only the
resulting (M, N, K), which this module derives from the layer geometry.
"""

from __future__ import annotations

from repro.errors import MappingError


def conv_output_shape(
    height: int,
    width: int,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> tuple[int, int]:
    """Spatial output extent of a convolution."""
    if height <= 0 or width <= 0 or kernel <= 0 or stride <= 0:
        raise MappingError("conv geometry must be positive")
    effective = dilation * (kernel - 1) + 1
    out_h = (height + 2 * padding - effective) // stride + 1
    out_w = (width + 2 * padding - effective) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise MappingError(
            f"convolution produces empty output for input {height}x{width},"
            f" kernel {kernel}, stride {stride}, padding {padding}"
        )
    return out_h, out_w


def conv_to_gemm(
    in_channels: int,
    out_channels: int,
    height: int,
    width: int,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
    batch: int = 1,
) -> tuple[int, int, int]:
    """im2col GEMM dims (M, N, K) of a convolution layer.

    M = batch * out_h * out_w (one row per output pixel),
    N = out_channels, K = in_channels * kernel^2.
    """
    out_h, out_w = conv_output_shape(height, width, kernel, stride, padding, dilation)
    m = batch * out_h * out_w
    n = out_channels
    k = in_channels * kernel * kernel
    return m, n, k

