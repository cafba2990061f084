"""Property-based differential tests of the fused read-out (``readout_fused``).

The compiled tier walks the charge stack, the delay sums and the
recombination output at caller-supplied element strides through ctypes.
Hypothesis searches stack shapes (empty position axes included), strided
and broadcast views, in-place and copying calls, the early-TDC saturation,
the slice-cascade recombination and the V_DD charge scale for any input on
which the C tier's float64 bytes differ from the numpy reference tier.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.kernels.dispatch import ReadoutScalars, available, readout_fused  # noqa: E402

pytestmark = pytest.mark.skipif(
    "c" not in available(), reason="compiled tier not buildable here"
)

SCALARS = ReadoutScalars(
    offset_coeff=1.2 * 4e-6,
    capacitance_f=2.4e-12,
    v_threshold=0.6,
    phase2_scale=1.9e-7,
    full_scale_s=5.1e-7,
    lsb_s=2e-9,
    dot_max=4080.0,
)


def _strided(rng, shape, layout):
    """A float64 array of ``shape`` laid out as ``layout`` in memory."""
    if layout == "reversed":  # every axis order flipped in memory
        return np.ascontiguousarray(rng.random(shape[::-1])).transpose()
    if layout == "sliced":  # every other element of the last axis
        wide = rng.random(shape[:-1] + (2 * shape[-1],))
        return wide[..., ::2]
    return rng.random(shape)


@st.composite
def readouts(draw):
    tiles, slices, groups = (draw(st.integers(1, 3)) for _ in range(3))
    pos, cols = draw(st.integers(0, 17)), draw(st.integers(1, 9))
    layout = draw(st.sampled_from(("c", "reversed", "sliced")))
    sums_layout = draw(st.sampled_from(("c", "reversed", "sliced")))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # raw delays @ G products: scaled by V_DD they straddle the reference
    # offset and the phase-II threshold, so both clips fire
    charges = _strided(rng, (tiles, slices, groups, pos, cols), layout) * 2e-12
    sums = _strided(rng, (tiles, groups, pos), sums_layout) * 4e-7
    return dict(
        charges=charges,
        delay_sums=sums[:, None, :, :, None],
        saturation=draw(st.sampled_from((None, 0.1, 0.25, 2.0))),
        recombine=draw(st.booleans()),
        rec_layout=draw(st.sampled_from(("c", "reversed", "sliced"))),
        charge_scale=draw(st.sampled_from((None, 1.2, 0.8, 1.0))),
        in_place=draw(st.booleans()),
    )


def _call(case, tier):
    charges = case["charges"].copy(order="K")
    tiles, slices, groups, pos, cols = charges.shape
    shifts = rec = None
    if case["recombine"]:
        shifts = np.asarray([2.0 ** (4 * s) for s in reversed(range(slices))])
        rng = np.random.default_rng(0)  # garbage the kernel must overwrite
        rec = _strided(rng, (groups, pos, cols), case["rec_layout"])
    est = readout_fused(
        charges,
        case["delay_sums"],
        SCALARS,
        out=charges if case["in_place"] else None,
        saturation=case["saturation"],
        shifts=shifts,
        recombine_out=rec,
        charge_scale=case["charge_scale"],
        kernel=tier,
    )
    return est, rec, charges


@settings(max_examples=300, deadline=None)
@given(readouts())
def test_compiled_readout_matches_numpy_bit_for_bit(case):
    ref_est, ref_rec, ref_in = _call(case, "numpy")
    got_est, got_rec, got_in = _call(case, "c")
    assert got_est.shape == ref_est.shape and got_est.dtype == ref_est.dtype
    assert got_est.tobytes(order="C") == ref_est.tobytes(order="C")
    if case["recombine"]:
        assert got_rec.tobytes(order="C") == ref_rec.tobytes(order="C")
    # in place on request, the caller's charges untouched otherwise
    assert got_in.tobytes(order="C") == ref_in.tobytes(order="C")
    if case["in_place"]:
        assert got_est is got_in
    else:
        assert got_in.tobytes(order="C") == case["charges"].tobytes(order="C")


@settings(max_examples=50, deadline=None)
@given(readouts())
def test_charge_scale_is_the_historical_vdd_pass(case):
    """``charge_scale=v`` equals ``charges *= v`` followed by the unscaled
    chain, on both tiers (the engine's former separate V_DD pass)."""
    case = dict(case, in_place=True)
    v = 1.2
    for tier in ("numpy", "c"):
        scaled, rec, _ = _call(dict(case, charge_scale=v), tier)
        pre = dict(case, charge_scale=None, charges=case["charges"] * v)
        ref, ref_rec, _ = _call(pre, tier)
        assert scaled.tobytes(order="C") == ref.tobytes(order="C")
        if case["recombine"]:
            assert rec.tobytes(order="C") == ref_rec.tobytes(order="C")
