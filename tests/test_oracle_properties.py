"""Property-based differential tests: the packed engine against the tiled oracle.

:class:`repro.engine.packed.PackedMatmul` packs every tile of every group
into one tensor per bit-cell slice; :class:`repro.engine.tiles.TiledMatmul`
programs one crossbar object per tile.  Hypothesis searches weight and
cell precisions (the 3-bit cell split included), group counts, partial row
and column tiles and small crossbar geometries for any layer on which the
two disagree: beyond 1e-9 relative in analog mode, by any bit in ideal
mode, or on the crossbar count.  A noiseless packed layer takes the exact
integer read-out, so a second property holds the packed time-domain chain
itself to the same bar against that exact read-out.

The analog bar is relative to the layer's read-out full scale — the
largest value one output column can take before the digital offset
removal, ``(2**input_bits - 1) * 2**weight_bits * rows`` — because the
time-domain chains' float round-off scales with the chain's full scale,
not with the signal: for all-zero input codes the oracle reads exactly 0
while the packed chain leaves about 1e-13, so a bar relative to the
(zero) result can never hold.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.context import ArchSpec, SimContext  # noqa: E402
from repro.engine import FaultModel, PackedMatmul  # noqa: E402
from repro.engine.tiles import TiledMatmul  # noqa: E402

#: (weight_bits, cell_bits): 1, 2, 3 and 4 bit-cell slices per weight,
#: including the uneven 3-bit cell split (8-bit weights over three slices)
PRECISIONS = ((4, 4), (8, 8), (8, 4), (6, 3), (8, 3), (8, 2), (16, 4))


@st.composite
def layers(draw):
    weight_bits, cell_bits = draw(st.sampled_from(PRECISIONS))
    cols_per_weight = -(-weight_bits // cell_bits)
    arch = ArchSpec(
        rows=draw(st.integers(4, 24)),
        cols=cols_per_weight * draw(st.integers(1, 6)),
        weight_bits=weight_bits,
        cell_bits=cell_bits,
        input_bits=draw(st.sampled_from((4, 8))),
    )
    groups = draw(st.integers(1, 3))
    # up to three row tiles and four column tiles, partial ones included
    rows = draw(st.integers(1, 3 * arch.rows))
    cols = draw(st.integers(1, 4 * arch.weights_per_col_tile))
    positions = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    qmax = 2 ** (weight_bits - 1) - 1
    q = rng.integers(-qmax, qmax + 1, size=(groups, rows, cols))
    codes = rng.integers(0, 2**arch.input_bits, size=(positions, groups * rows))
    return arch, q, codes


def _per_group(codes: np.ndarray, q: np.ndarray, matmul) -> np.ndarray:
    """``matmul(group codes, group weights)`` per group, concatenated
    along the output columns (the packed layout of a grouped layer)."""
    rows = q.shape[1]
    return np.concatenate(
        [matmul(codes[:, g * rows : (g + 1) * rows], q[g]) for g in range(q.shape[0])],
        axis=1,
    )


@settings(max_examples=150, deadline=None)
@given(layers(), st.sampled_from(("analog", "ideal")))
def test_packed_matches_the_tiled_oracle(case, mode):
    arch, q, codes = case
    ctx = SimContext(arch=arch)
    packed = PackedMatmul(q, ctx, mode)
    got = packed.matmul(*packed.gather(codes))
    ref = _per_group(codes, q, lambda c, w: TiledMatmul(w, ctx, mode).matmul(c))
    assert got.shape == ref.shape == (codes.shape[0], q.shape[0] * q.shape[2])
    assert packed.crossbars == q.shape[0] * TiledMatmul(q[0], ctx, mode).crossbars
    if mode == "ideal":
        np.testing.assert_array_equal(got, ref)
        # and both are the exact signed integer product
        np.testing.assert_array_equal(ref, _per_group(codes, q, np.matmul))
    else:
        full_scale = (2**arch.input_bits - 1) * 2**arch.weight_bits * q.shape[1]
        assert np.abs(got - ref).max() <= 1e-9 * full_scale


#: routes a layer through the time-domain chain without changing a value:
#: the chain's own clips keep every estimate at or below ``dot_max``
CHAIN = FaultModel(readout_saturation=1.0)


@settings(max_examples=150, deadline=None)
@given(layers())
def test_packed_chain_matches_the_exact_readout(case):
    arch, q, codes = case
    exact = PackedMatmul(q, SimContext(arch=arch), "analog")
    chain = PackedMatmul(q, SimContext(arch=arch, faults=CHAIN), "analog")
    assert (exact.readout, chain.readout) == ("exact", "chain")
    ref = exact.matmul(*exact.gather(codes))
    np.testing.assert_array_equal(ref, _per_group(codes, q, np.matmul))
    got = chain.matmul(*chain.gather(codes))
    full_scale = (2**arch.input_bits - 1) * 2**arch.weight_bits * q.shape[1]
    assert np.abs(got - ref).max() <= 1e-9 * full_scale
