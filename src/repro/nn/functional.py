"""Numpy reference kernels.

These kernels provide a framework-free functional execution path used by the
circuit unit tests, which cross-check the analog crossbar / time-domain
dot-product models (:mod:`repro.circuits`) against these exact
implementations.  The ``matmul`` hooks on :func:`conv2d` and
:func:`fully_connected` let accuracy studies inject the behavioural crossbar
model in place of the ideal dot product.

All kernels operate on single images (no batch dimension) laid out as
``(channels, height, width)``, matching :class:`repro.nn.layers.TensorShape`,
except where noted.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def relu(x: np.ndarray) -> np.ndarray:
    """Element-wise rectified linear unit."""
    return np.maximum(x, 0.0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)


def pad_spatial(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two trailing spatial dimensions of a (C, H, W) tensor."""
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad)), mode="constant")


def im2col(x: np.ndarray, kernel: int, stride: int, pad: int) -> Tuple[np.ndarray, int, int]:
    """Unfold a (C, H, W) tensor into convolution patches.

    Returns
    -------
    cols:
        Array of shape ``(out_h * out_w, C * kernel * kernel)`` — one row per
        output position, matching how inputs are presented to a crossbar.
    out_h, out_w:
        Spatial output dimensions.
    """
    cols, out_h, out_w = im2col_batch(x[None], kernel, stride, pad)
    return cols[0], out_h, out_w


def im2col_batch(
    x: np.ndarray, kernel: int, stride: int, pad: int
) -> Tuple[np.ndarray, int, int]:
    """Batched :func:`im2col`: unfold ``(N, C, H, W)`` into patches per image.

    Returns ``(cols, out_h, out_w)`` with ``cols`` of shape
    ``(N, out_h * out_w, C * kernel * kernel)`` — image ``n``'s slice equals
    ``im2col(x[n], ...)`` exactly (the single-image kernel delegates here),
    so the batched engine path sees the same codes as ``N`` single-image
    calls while gathering all patches in one strided copy.

    This is the first step of the numpy reference tier behind
    ``repro.kernels.dispatch.im2col_pack`` (the packed engine's gather,
    which also converts and sums the codes), and the tiled backend's
    im2col.

    The copy is gathered in ``(C*k*k, position)`` order — for unit stride
    the innermost axis is then a contiguous image row, so it runs at memcpy
    speed — and returned as the ``(position, C*k*k)`` transpose, which is
    F-contiguous per image.
    """
    n, channels, height, width = x.shape
    padded = (
        np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
        if pad
        else x
    )
    out_h = (height + 2 * pad - kernel) // stride + 1
    out_w = (width + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel/stride/pad combination produces empty output")
    windows = sliding_window_view(padded, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (N, C, out_h, out_w, k, k)
    cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(
        n, channels * kernel * kernel, out_h * out_w
    )
    return cols.transpose(0, 2, 1), out_h, out_w


def _im2col_loop(x: np.ndarray, kernel: int, stride: int, pad: int) -> Tuple[np.ndarray, int, int]:
    """Naive per-output-position loop reference for :func:`im2col`.

    Kept (not exported) so the vectorization micro-benchmark can assert the
    strided path matches this reference bit-for-bit; see
    ``tests/test_functional.py``.
    """
    channels, height, width = x.shape
    padded = pad_spatial(x, pad)
    out_h = (height + 2 * pad - kernel) // stride + 1
    out_w = (width + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel/stride/pad combination produces empty output")

    cols = np.empty((out_h * out_w, channels * kernel * kernel), dtype=padded.dtype)
    row = 0
    for i in range(out_h):
        for j in range(out_w):
            patch = padded[:, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
            cols[row] = patch.reshape(-1)
            row += 1
    return cols, out_h, out_w


def conv2d(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
    matmul: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """2-D convolution via im2col.

    Parameters
    ----------
    x:
        Input tensor of shape ``(C, H, W)``.
    weights:
        Weight tensor of shape ``(D, C // groups, Z, G)``.
    bias:
        Optional bias of shape ``(D,)``.
    stride, pad:
        Convolution stride and symmetric zero padding.
    groups:
        Grouped convolution: input channels are split into ``groups``
        contiguous blocks and output block ``g`` only sees input block ``g``
        (matching :class:`repro.nn.layers.Conv2D` semantics).
    matmul:
        Optional replacement for the matrix multiplication.  The accuracy
        study passes the behavioural crossbar model here so that the same
        functional path exercises the hardware model.
    """
    out_channels, group_channels, kernel_h, kernel_w = weights.shape
    if kernel_h != kernel_w:
        raise ValueError("conv2d reference kernel assumes square filters")
    if groups <= 0:
        raise ValueError("groups must be positive")
    in_channels = x.shape[0]
    if in_channels % groups != 0 or out_channels % groups != 0:
        raise ValueError(
            f"groups={groups} must divide input channels ({in_channels}) and "
            f"output channels ({out_channels})"
        )
    if group_channels != in_channels // groups:
        raise ValueError(
            f"expected weights for {in_channels // groups} channels per group, "
            f"got {group_channels}"
        )

    multiply = matmul if matmul is not None else np.matmul
    group_out = out_channels // groups
    outputs = []
    for g in range(groups):
        x_g = x[g * group_channels : (g + 1) * group_channels]
        w_g = weights[g * group_out : (g + 1) * group_out]
        cols, out_h, out_w = im2col(x_g, kernel_h, stride, pad)
        weight_matrix = w_g.reshape(group_out, -1).T  # (C/groups*Z*G, D/groups)
        outputs.append(multiply(cols, weight_matrix))  # (out_h*out_w, D/groups)
    out = np.concatenate(outputs, axis=1)  # (out_h*out_w, D)
    if bias is not None:
        out = out + bias
    return out.T.reshape(out_channels, out_h, out_w)


def fully_connected(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    matmul: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Dense layer: ``y = x @ W^T + b`` with ``W`` of shape (out, in)."""
    flat = x.reshape(-1)
    if flat.shape[0] != weights.shape[1]:
        raise ValueError(
            f"expected {weights.shape[1]} input features, got {flat.shape[0]}"
        )
    multiply = matmul if matmul is not None else np.matmul
    out = multiply(flat[None, :], weights.T)[0]
    if bias is not None:
        out = out + bias
    return out


def max_pool2d(x: np.ndarray, kernel: int, stride: int = 0, pad: int = 0) -> np.ndarray:
    """Max pooling of a (C, H, W) tensor.

    Padded positions are filled with ``-inf`` so an all-negative window is
    not corrupted by the padding value.
    """
    return _pool2d(x, kernel, stride, np.max, pad, fill=-np.inf)


def avg_pool2d(x: np.ndarray, kernel: int, stride: int = 0, pad: int = 0) -> np.ndarray:
    """Average pooling of a (C, H, W) tensor.

    Padded positions contribute zeros and the divisor is the full window
    size (count-include-pad semantics).
    """
    return _pool2d(x, kernel, stride, np.mean, pad, fill=0.0)


def _pool2d_padded(
    x: np.ndarray, kernel: int, stride: int, pad: int, fill: float
) -> Tuple[np.ndarray, int, int, int]:
    """Shared validation + padding of the pooling implementations.

    Returns the (possibly padded) input, the output dimensions and the
    normalised stride (``stride == 0`` means "same as kernel").
    """
    stride = stride if stride > 0 else kernel
    if pad < 0:
        raise ValueError("pad must be non-negative")
    if pad * 2 > kernel:
        raise ValueError(
            f"pad ({pad}) may be at most half the kernel ({kernel}); larger "
            "padding creates windows made entirely of padding"
        )
    channels, height, width = x.shape
    if pad > 0:
        # float cast: integer inputs cannot hold the -inf fill of max pooling
        x = np.pad(
            np.asarray(x, dtype=float),
            ((0, 0), (pad, pad), (pad, pad)),
            mode="constant",
            constant_values=fill,
        )
    out_h = (height + 2 * pad - kernel) // stride + 1
    out_w = (width + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("pooling window does not fit the input")
    return x, out_h, out_w, stride


def _pool2d(
    x: np.ndarray, kernel: int, stride: int, reducer, pad: int = 0, fill: float = 0.0
) -> np.ndarray:
    x, out_h, out_w, stride = _pool2d_padded(x, kernel, stride, pad, fill)
    channels = x.shape[0]
    # (C, out_h, out_w, k*k) strided view of every pooling window; the
    # reduction runs over the window axis in the same element order as the
    # per-position loop reference, so results match it bit-for-bit.
    windows = sliding_window_view(x, (kernel, kernel), axis=(1, 2))
    windows = windows[:, ::stride, ::stride].reshape(channels, out_h, out_w, -1)
    return np.asarray(reducer(windows, axis=-1), dtype=float)


def _pool2d_loop(
    x: np.ndarray, kernel: int, stride: int, reducer, pad: int = 0, fill: float = 0.0
) -> np.ndarray:
    """Naive per-output-position loop reference for :func:`_pool2d`.

    Kept (not exported) for the vectorization micro-benchmark; see
    ``tests/test_functional.py``.
    """
    x, out_h, out_w, stride = _pool2d_padded(x, kernel, stride, pad, fill)
    channels = x.shape[0]
    out = np.empty((channels, out_h, out_w), dtype=float)
    for i in range(out_h):
        for j in range(out_w):
            window = x[:, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
            out[:, i, j] = reducer(window.reshape(channels, -1), axis=1)
    return out


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Global average pooling of a (C, H, W) tensor to a (C,) vector."""
    return x.reshape(x.shape[0], -1).mean(axis=1)


def batch_norm(
    x: np.ndarray, scale: np.ndarray, shift: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Inference-time batch normalisation with pre-folded statistics.

    ``scale`` and ``shift`` are per-channel and already include the running
    mean/variance, i.e. ``y = scale * x + shift``.
    """
    return x * scale[:, None, None] + shift[:, None, None]
