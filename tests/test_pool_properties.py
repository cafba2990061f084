"""Property-based tests of the strided-pass max pool (``F.max_pool2d``).

Max pooling runs as ``kernel**2`` strided ``np.maximum`` passes over the
input in its own memory order, clipped per window offset to the in-bounds
rows and columns.  Hypothesis searches kernels, strides, paddings, image
sizes, batch/channel shapes and memory layouts (C order, channels-last,
negative strides) over inputs with negative values for any case where the
result differs from the per-position loop reference, or is not a
C-contiguous float64 array.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.nn import functional as F  # noqa: E402

LAYOUTS = ("c", "channels_last", "flipped")


def _layout(x: np.ndarray, layout: str) -> np.ndarray:
    """``x`` (…, C, H, W) re-laid out in memory, same logical values."""
    if layout == "channels_last":
        axes = tuple(range(x.ndim))
        moved = axes[:-3] + axes[-2:] + axes[-3:-2]  # (…, H, W, C)
        back = np.argsort(moved)
        return np.ascontiguousarray(x.transpose(moved)).transpose(back)
    if layout == "flipped":
        return np.ascontiguousarray(x[..., ::-1, ::-1])[..., ::-1, ::-1]
    return x


@st.composite
def pools(draw):
    kernel = draw(st.integers(1, 4))
    stride = draw(st.integers(0, 3))  # 0: same as the kernel
    pad = draw(st.integers(0, kernel // 2))
    lo = max(1, kernel - 2 * pad)
    height = draw(st.integers(lo, lo + 7))
    width = draw(st.integers(lo, lo + 7))
    lead = draw(st.sampled_from(((), (1,), (3,)))) + (draw(st.integers(1, 4)),)
    layout = draw(st.sampled_from(LAYOUTS))
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).normal(size=lead + (height, width))
    return _layout(x, layout), kernel, stride, pad


def _reference(x, kernel, stride, pad):
    """The loop reference, one (C, H, W) image at a time."""
    images = x.reshape((-1,) + x.shape[-3:])
    out = [F._pool2d_loop(img, kernel, stride, np.max, pad, -np.inf) for img in images]
    return np.stack(out).reshape(x.shape[:-2] + out[0].shape[-2:])


@settings(max_examples=300, deadline=None)
@given(pools())
def test_max_pool_matches_loop_reference_bit_for_bit(case):
    x, kernel, stride, pad = case
    got = F.max_pool2d(x, kernel, stride, pad)
    ref = _reference(x, kernel, stride, pad)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    # and the window-view reduction (the average pool's path) agrees
    if x.ndim == 3:
        assert got.tobytes() == F._pool2d(x, kernel, stride, np.max, pad, -np.inf).tobytes()


@settings(max_examples=50, deadline=None)
@given(pools())
def test_max_pool_reads_the_input_without_writing_it(case):
    x, kernel, stride, pad = case
    before = x.copy(order="K")
    F.max_pool2d(x, kernel, stride, pad)
    assert x.tobytes() == before.tobytes()
