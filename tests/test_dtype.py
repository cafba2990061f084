"""Precision tests: float32 chain parity against the float64 chain across
cell splits, the exact read-out's independence of ``compute_dtype`` and its
GEMM-dtype case split (float32 row tiles, one float64 GEMM, int64), the
narrow unsigned level payload and its layout, chunk-invariance and the
end-to-end accuracy-at-the-quantisation-floor bars."""

import numpy as np
import pytest

from repro.circuits.noise import HardwareNoiseConfig
from repro.context import COMPUTE_DTYPES, ArchSpec, SimContext
from repro.engine import (
    FaultModel,
    NetworkExecutor,
    PackedMatmul,
    relative_error,
)
from repro.engine.packed import _exact_dtype, pack_weights, slice_conductances
from repro.engine.tiles import TiledMatmul

RNG = np.random.default_rng(17)


def _packed_run(packed: PackedMatmul, codes: np.ndarray) -> np.ndarray:
    """A code matrix through the layer's own gather, then its matmul."""
    return packed.matmul(*packed.gather(codes))


def _codes_and_weights(arch: ArchSpec, rows: int, cols: int, positions: int = 5):
    qmax = 2 ** (arch.weight_bits - 1) - 1
    q = RNG.integers(-qmax, qmax + 1, size=(rows, cols))
    codes = RNG.integers(0, 2 ** arch.input_bits, size=(positions, rows))
    return q, codes


# ---------------------------------------------------------------------------
# context plumbing
# ---------------------------------------------------------------------------

def test_context_validates_compute_dtype_and_chunk_bytes():
    assert COMPUTE_DTYPES == ("float64", "float32")
    ctx = SimContext(compute_dtype="float32", chunk_bytes=4096)
    assert ctx.np_compute_dtype == np.float32
    with pytest.raises(ValueError):
        SimContext(compute_dtype="float16")
    with pytest.raises(ValueError):
        SimContext(chunk_bytes=0)
    with pytest.raises(ValueError):
        SimContext(chunk_bytes=-1)


def test_tiled_oracle_is_the_float64_reference_regardless_of_request():
    """The tiled oracle deliberately ignores ``compute_dtype``."""
    arch = ArchSpec(rows=16, cols=16)
    q, codes = _codes_and_weights(arch, 20, 9)
    f64 = TiledMatmul(q, SimContext(arch=arch), "analog").matmul(codes)
    f32 = TiledMatmul(q, SimContext(arch=arch, compute_dtype="float32"), "analog").matmul(codes)
    assert f64.dtype == f32.dtype == np.float64
    assert np.array_equal(f64, f32)


# ---------------------------------------------------------------------------
# matmul-level parity: float32 vs the float64 reference
# ---------------------------------------------------------------------------

#: forces the time-domain chain without perturbing a single value: the
#: chain's own clips keep every estimate at or below ``dot_max``
CHAIN = FaultModel(readout_saturation=1.0)


@pytest.mark.parametrize(
    "weight_bits,cell_bits",
    [(4, 4), (8, 4), (16, 4)],  # cols_per_weight = 1, 2, 4
)
def test_chain_float32_tracks_float64_within_1e4(weight_bits, cell_bits):
    """Single-layer float32 chain read-out stays within 1e-4 of float64.

    (Observed ~1e-5 at up to 2048 rows; the pinned bar leaves headroom.)
    The result dtype stays float64 either way: only the gemm and the
    time-domain chain run in single precision, digital recombination of
    the slice cascade does not.
    """
    arch = ArchSpec(rows=16, cols=16, weight_bits=weight_bits, cell_bits=cell_bits)
    q, codes = _codes_and_weights(arch, 40, 21)
    ref = _packed_run(PackedMatmul(q, SimContext(arch=arch, faults=CHAIN)), codes)
    packed32 = PackedMatmul(
        q, SimContext(arch=arch, compute_dtype="float32", faults=CHAIN)
    )
    assert packed32.readout == "chain"
    out = _packed_run(packed32, codes)
    assert out.dtype == np.float64
    assert relative_error(out, ref) <= 1e-4


def test_chain_float32_grouped_tracks_float64():
    arch = ArchSpec(rows=16, cols=16)
    qmax = 2 ** (arch.weight_bits - 1) - 1
    q = RNG.integers(-qmax, qmax + 1, size=(3, 20, 7))  # 3 groups
    codes = RNG.integers(0, 2 ** arch.input_bits, size=(4, 3 * 20))
    ref = _packed_run(PackedMatmul(q, SimContext(arch=arch, faults=CHAIN)), codes)
    out = _packed_run(
        PackedMatmul(q, SimContext(arch=arch, compute_dtype="float32", faults=CHAIN)),
        codes,
    )
    assert relative_error(out, ref) <= 1e-4


# ---------------------------------------------------------------------------
# the exact read-out: compute_dtype has no say, the GEMM dtype follows the
# exactness bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["analog", "ideal"])
def test_exact_readout_ignores_compute_dtype(mode):
    arch = ArchSpec(rows=16, cols=16)
    q, codes = _codes_and_weights(arch, 40, 21)
    ref = _packed_run(PackedMatmul(q, SimContext(arch=arch), mode), codes)
    out = _packed_run(
        PackedMatmul(q, SimContext(arch=arch, compute_dtype="float32"), mode), codes
    )
    assert out.tobytes() == ref.tobytes()
    np.testing.assert_array_equal(out, codes @ q)


@pytest.mark.parametrize(
    "arch,rows,expected",
    [
        # 255 * 255 * 256 < 2**24: one float32 GEMM per 256-row tile, any depth
        (ArchSpec(), 4608, np.float32),
        # 16-bit weights overflow float32 per tile, fit float64 per layer
        (ArchSpec(rows=16, cols=16, weight_bits=16), 40, np.float64),
        # 24-bit codes and weights overflow float64 past 32 rows
        (ArchSpec(rows=16, cols=16, weight_bits=24, input_bits=24), 40, np.int64),
    ],
)
def test_exact_gemm_dtype_follows_the_exactness_bound(arch, rows, expected):
    assert _exact_dtype(arch, rows) == np.dtype(expected)
    q, codes = _codes_and_weights(arch, rows, 7, positions=3)
    packed = PackedMatmul(q, SimContext(arch=arch), "ideal")
    assert packed.operand_dtype == np.dtype(expected)
    # float32 runs per row tile, wider dtypes in one GEMM over every row
    tiles = packed.row_tiles if expected is np.float32 else 1
    assert len(packed._gemm_spans) == tiles
    exact = (codes @ q).astype(np.float64)
    np.testing.assert_array_equal(_packed_run(packed, codes), exact)


def test_context_rejects_unsupported_dtypes():
    with pytest.raises(ValueError, match="compute dtype"):
        SimContext(compute_dtype="float16")


# ---------------------------------------------------------------------------
# the payload: narrowest unsigned levels, in the im2col stack's memory order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "weight_bits,dtype", [(4, np.uint8), (8, np.uint8), (12, np.uint16), (16, np.uint16)]
)
def test_pack_weights_stores_narrowest_unsigned_levels(weight_bits, dtype):
    arch = ArchSpec(rows=16, cols=16, weight_bits=weight_bits)
    q, _ = _codes_and_weights(arch, 20, 9)
    encoded = pack_weights(q[None], arch)
    assert encoded.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(encoded[0], q + 2 ** (weight_bits - 1))


def test_pack_preserves_fortran_layout():
    """The levels keep q's F-order, and the chain's conductances inherit it.

    Layout matters downstream: BLAS picks summation paths by operand
    memory order, so the chain's bytes depend on it.
    """
    arch = ArchSpec(rows=16, cols=16)
    qmax = 2 ** (arch.weight_bits - 1) - 1
    q = np.asfortranarray(RNG.integers(-qmax, qmax + 1, size=(40, 21)))[None]
    encoded = pack_weights(q, arch)
    assert encoded.flags.f_contiguous and not encoded.flags.c_contiguous
    assert encoded.dtype == np.uint8
    np.testing.assert_array_equal(encoded, q + 2 ** (arch.weight_bits - 1))
    for dtype in COMPUTE_DTYPES:
        for g in slice_conductances(encoded, arch, np.dtype(dtype)):
            assert g.flags.f_contiguous and not g.flags.c_contiguous
            assert g.dtype == np.dtype(dtype)


# ---------------------------------------------------------------------------
# chunk-fused read-out
# ---------------------------------------------------------------------------

def test_chunked_chain_matches_unchunked_within_1e12():
    """Bounded-chunk chain read-out agrees with the single-pass path.

    Not pinned bit-identical — BLAS may pick different summation orders
    for the blocked gemm — but the float-rounding bar is 1e-12 (observed
    0.0 on cnn_1 at 64 KB chunks)."""
    arch = ArchSpec(rows=32, cols=32)
    q, codes = _codes_and_weights(arch, 70, 40, positions=50)
    ref = _packed_run(PackedMatmul(q, SimContext(arch=arch, faults=CHAIN)), codes)
    chunked = _packed_run(
        PackedMatmul(q, SimContext(arch=arch, chunk_bytes=4096, faults=CHAIN)), codes
    )
    assert relative_error(chunked, ref) <= 1e-12



def test_chunking_does_not_change_noisy_results():
    """Noise draws (DTC jitter included) are independent of the chunking:
    the full delay tensor is drawn before the chunk walk."""
    arch = ArchSpec(rows=32, cols=32)
    q, codes = _codes_and_weights(arch, 70, 40, positions=50)
    noise = HardwareNoiseConfig.scaled(1.0, seed=3)
    whole = _packed_run(
        PackedMatmul(q, SimContext(arch=arch, noise=noise), "analog", salt=4), codes
    )
    chunked = _packed_run(
        PackedMatmul(
            q, SimContext(arch=arch, noise=noise, chunk_bytes=4096), "analog", salt=4
        ),
        codes,
    )
    assert relative_error(chunked, whole) <= 1e-12


def test_chunked_network_run_matches_unchunked():
    from repro.nn.models import build_model

    network = build_model("tiny_cnn")
    for faults in (None, CHAIN):
        ref = NetworkExecutor(network, SimContext(faults=faults)).run(validate=False)
        chunked = NetworkExecutor(
            network, SimContext(chunk_bytes=8192, faults=faults)
        ).run(validate=False)
        assert relative_error(chunked.output, ref.output) <= 1e-12


# ---------------------------------------------------------------------------
# end-to-end: float32 must not leave the 8-bit quantisation floor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", ["tiny_cnn", "cnn_1"])
def test_float32_accuracy_stays_at_the_quantisation_floor(model):
    """End-to-end float32 error vs the float reference stays comparable to
    float64's (within 1.5x).  Per-layer requantisation amplifies *any*
    arithmetic perturbation toward the 8-bit floor, so the honest
    end-to-end bar is the floor itself, not the 1e-4 single-layer parity
    (measured ratios float32/float64: tiny_cnn 0.63, cnn_1 1.18)."""
    from repro.nn.models import build_model

    network = build_model(model)
    rel64 = NetworkExecutor(network, SimContext(faults=CHAIN)).run().rel_error
    rel32 = (
        NetworkExecutor(network, SimContext(compute_dtype="float32", faults=CHAIN))
        .run()
        .rel_error
    )
    assert rel32 <= 1.5 * rel64
