"""Functional references: numpy GEMM, im2col, and conv->GEMM shape algebra.

The convolution layers of every CNN in the evaluation are lowered to GEMM
"through the img2col" (paper SS V-A); this module holds both the shape
arithmetic used by the timing models and a real im2col for functional
validation on small tensors.
"""

from __future__ import annotations

from repro.errors import MappingError


def reference_gemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
) -> np.ndarray:
    """C = alpha * A @ B + beta * C in float64."""
    import numpy as np

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise MappingError(f"incompatible GEMM operands {a.shape} x {b.shape}")
    result = alpha * (a @ b)
    if beta != 0.0:
        if c is None:
            raise MappingError("beta != 0 requires an input C")
        result = result + beta * np.asarray(c, dtype=np.float64)
    return result


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


def im2col(
    image: np.ndarray,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Unfold a (C, H, W) image into the im2col matrix (outH*outW, C*k*k)."""
    import numpy as np

    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise MappingError(f"im2col expects (C, H, W), got shape {image.shape}")
    channels, height, width = image.shape
    out_h, out_w = conv_output_shape(height, width, kernel, stride, padding)
    padded = np.pad(
        image, ((0, 0), (padding, padding), (padding, padding)), mode="constant"
    )
    columns = np.empty((out_h * out_w, channels * kernel * kernel))
    row = 0
    for oy in range(out_h):
        for ox in range(out_w):
            y0 = oy * stride
            x0 = ox * stride
            patch = padded[:, y0 : y0 + kernel, x0 : x0 + kernel]
            columns[row, :] = patch.reshape(-1)
            row += 1
    return columns


def conv2d_reference(
    image: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Direct convolution via im2col GEMM: (C_out, outH, outW)."""
    import numpy as np

    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 4:
        raise MappingError("weights must be (C_out, C_in, k, k)")
    c_out, c_in, kernel, kernel2 = weights.shape
    if kernel != kernel2:
        raise MappingError("only square kernels supported")
    if image.shape[0] != c_in:
        raise MappingError(
            f"channel mismatch: image {image.shape[0]} vs weights {c_in}"
        )
    columns = im2col(image, kernel, stride, padding)
    out_h, out_w = conv_output_shape(image.shape[1], image.shape[2], kernel, stride, padding)
    flat = columns @ weights.reshape(c_out, -1).T
    return flat.T.reshape(c_out, out_h, out_w)
