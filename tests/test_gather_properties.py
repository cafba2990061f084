"""Property-based differential tests of the code gather (``im2col_pack``).

The compiled tier reads the code tensor at arbitrary strides through
ctypes — the one place an indexing bug would corrupt memory silently
instead of raising.  Hypothesis searches window geometries, groupings,
batch sizes (empty included), strided input views and both output dtypes
for any input on which the C tier's bytes, strides or dims differ from the
numpy reference tier — including the per-row-tile delay sums, whose
pairwise summation order must match numpy's exactly.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.kernels.dispatch import available, im2col_pack  # noqa: E402

pytestmark = pytest.mark.skipif(
    "c" not in available(), reason="compiled tier not buildable here"
)

#: input layouts: how the (N, C, H, W) codes sit in memory
VIEWS = ("nchw", "channels_last", "flipped", "sliced", "broadcast")


def _view(base: np.ndarray, layout: str) -> np.ndarray:
    """An ``(N, C, H, W)`` view of ``base`` codes in the requested layout."""
    n, c, h, w = base.shape
    if layout == "channels_last":
        return np.ascontiguousarray(base.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if layout == "flipped":  # negative strides on both spatial axes
        return np.ascontiguousarray(base[:, :, ::-1, ::-1])[:, :, ::-1, ::-1]
    if layout == "sliced":  # every other column of a wider buffer
        wide = np.zeros((n, c, h, 2 * w), dtype=base.dtype)
        wide[..., ::2] = base
        return wide[..., ::2]
    if layout == "broadcast":  # zero stride on the batch axis
        return np.broadcast_to(base[:1], base.shape)
    return base


@st.composite
def gathers(draw):
    kernel = draw(st.sampled_from((1, 3, 5, 7, 11)))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, kernel // 2 + 1))
    groups = draw(st.sampled_from((1, 2, 3)))
    channels = groups * draw(st.integers(1, 3))
    # at least one output position along each spatial axis
    lo = max(1, kernel - 2 * pad)
    height = draw(st.integers(lo, lo + 8))
    width = draw(st.integers(lo, lo + 8))
    n = draw(st.integers(0, 4))
    layout = draw(st.sampled_from(VIEWS))
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    scale = draw(st.sampled_from((1.0, 5e-11, 0.1)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 256, size=(n, channels, height, width))
    return _view(base, layout), kernel, stride, pad, groups, scale, dtype


@settings(max_examples=300, deadline=None)
@given(gathers())
def test_compiled_gather_matches_numpy_bit_for_bit(case):
    codes, kernel, stride, pad, groups, scale, dtype = case
    args = dict(groups=groups, scale=scale, dtype=dtype)
    ref = im2col_pack(codes, kernel, stride, pad, **args, kernel="numpy")
    got = im2col_pack(codes, kernel, stride, pad, **args, kernel="c")
    assert got[3:] == ref[3:]
    for a, b in zip(got[:2], ref[:2]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert a.tobytes() == b.tobytes()
    # the operand is exactly the DTC-scaled codes, the sums exactly integral
    operand, code_sums = got[:2]
    assert code_sums.dtype == np.int64
    rows = operand.shape[1] // groups
    unscaled = operand.astype(np.float64) / np.float64(np.dtype(dtype).type(scale))
    np.testing.assert_array_equal(
        np.rint(unscaled).reshape(-1, groups, rows).sum(axis=2).T, code_sums
    )


#: rows per group around numpy's pairwise-sum thresholds: the sequential
#: tail (< 8), one 8-accumulator block, the 128-element block edge, the
#: first recursive split, and spans past a 256-row tile (partial last tile)
ROW_COUNTS = st.one_of(
    st.integers(1, 8),
    st.integers(127, 129),
    st.integers(255, 257),
    st.integers(258, 600),
)


@st.composite
def summed_gathers(draw):
    """Gathers whose per-group row count lands on a pairwise threshold."""
    kernel = draw(st.sampled_from((1, 3)))
    group_rows = draw(ROW_COUNTS)
    group_ch = max(1, group_rows // (kernel * kernel))
    groups = draw(st.sampled_from((1, 2, 3)))
    pad = draw(st.integers(0, kernel // 2))
    stride = draw(st.integers(1, 2))
    lo = max(1, kernel - 2 * pad)
    height = draw(st.integers(lo, lo + 2))
    width = draw(st.integers(lo, lo + 2))
    n = draw(st.integers(1, 4))
    layout = draw(st.sampled_from(VIEWS))
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    scale = draw(st.sampled_from((1.0, 5e-11, 0.1)))
    tile_rows = draw(st.sampled_from((1, 7, 8, 128, 256)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 256, size=(n, groups * group_ch, height, width))
    codes = _view(base, layout)
    return codes, kernel, stride, pad, groups, scale, dtype, tile_rows


@settings(max_examples=200, deadline=None)
@given(summed_gathers())
def test_compiled_delay_sums_match_numpy_pairwise_order(case):
    """The gather's per-row-tile delay sums equal numpy's ``d.sum(axis=2)``
    bit for bit, in float64 and float32, on every pairwise-sum regime."""
    codes, kernel, stride, pad, groups, scale, dtype, tile_rows = case
    args = dict(groups=groups, scale=scale, dtype=dtype, tile_rows=tile_rows)
    ref = im2col_pack(codes, kernel, stride, pad, **args, kernel="numpy")
    got = im2col_pack(codes, kernel, stride, pad, **args, kernel="c")
    assert got[3:] == ref[3:]
    for a, b in zip(got[:3], ref[:3]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert a.tobytes() == b.tobytes()
    operand, _, delay_sums = got[:3]
    group_rows = operand.shape[1] // groups
    assert delay_sums.dtype == np.dtype(dtype)
    assert delay_sums.shape == (-(-group_rows // tile_rows), groups, operand.shape[0])
    # each sum is the historical per-chunk sum over one row tile
    delays = operand.reshape(-1, groups, group_rows).transpose(1, 0, 2)
    for rt in range(delay_sums.shape[0]):
        span = delays[:, :, rt * tile_rows : (rt + 1) * tile_rows]
        assert delay_sums[rt].tobytes() == span.sum(axis=2).tobytes()


@settings(max_examples=50, deadline=None)
@given(gathers())
def test_empty_geometry_raises_on_both_tiers(case):
    codes, kernel, stride, pad, groups, scale, dtype = case
    small = codes[:, :, :1, :1]
    too_big = kernel + 2 * pad + 1  # no window fits the 1x1 image
    for tier in ("numpy", "c"):
        with pytest.raises(ValueError, match="empty output"):
            im2col_pack(small, too_big, stride, 0, groups=groups, kernel=tier)
