"""Float32 compute-path tests: packed dtype parity against the float64
reference across modes and cell splits, the ideal-mode exactness fallback
(requested float32 silently reverts to float64 per layer when the
worst-case product sum would overflow the 24-bit mantissa), layout
preservation of the ideal pack, chunk-fused read-out equivalence and the
end-to-end accuracy-at-the-quantisation-floor bars."""

import numpy as np
import pytest

from repro.circuits.noise import HardwareNoiseConfig
from repro.context import COMPUTE_DTYPES, ArchSpec, SimContext
from repro.engine import (
    EngineError,
    NetworkExecutor,
    PackedMatmul,
    TiledMatmul,
    relative_error,
)
from repro.engine.packed import _EXACT_FLOAT_BOUNDS, _worst_product_sum, pack_weights

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


def test_tiled_backend_is_the_float64_reference_regardless_of_request():
    """The legacy backend deliberately ignores ``compute_dtype``."""
    arch = ArchSpec(rows=16, cols=16)
    q, codes = _codes_and_weights(arch, 20, 9)
    f64 = TiledMatmul(q, SimContext(arch=arch), "analog")
    f32 = TiledMatmul(q, SimContext(arch=arch, compute_dtype="float32"), "analog")
    assert f64.compute_dtype == np.float64
    assert f32.compute_dtype == np.float64
    assert np.array_equal(f64.matmul(codes), f32.matmul(codes))


# ---------------------------------------------------------------------------
# matmul-level parity: float32 vs the float64 reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "weight_bits,cell_bits",
    [(4, 4), (8, 4), (16, 4)],  # cols_per_weight = 1, 2, 4
)
@pytest.mark.parametrize("mode", ["analog", "ideal"])
def test_packed_float32_tracks_float64_within_1e4(weight_bits, cell_bits, mode):
    """Single-layer float32 read-out stays within 1e-4 of float64.

    (Observed ~1e-5 at up to 2048 rows; the pinned bar leaves headroom.)
    The result dtype stays float64 either way: only the gemm and the
    time-domain chain run in single precision, digital recombination of
    the slice cascade does not.
    """
    arch = ArchSpec(rows=16, cols=16, weight_bits=weight_bits, cell_bits=cell_bits)
    q, codes = _codes_and_weights(arch, 40, 21)
    ref = _packed_run(PackedMatmul(q, SimContext(arch=arch), mode), codes)
    packed32 = PackedMatmul(q, SimContext(arch=arch, compute_dtype="float32"), mode)
    out = _packed_run(packed32, codes)
    assert out.dtype == np.float64
    assert relative_error(out, ref) <= 1e-4


def test_packed_float32_grouped_tracks_float64():
    arch = ArchSpec(rows=16, cols=16)
    qmax = 2 ** (arch.weight_bits - 1) - 1
    q = RNG.integers(-qmax, qmax + 1, size=(3, 20, 7))  # 3 groups
    codes = RNG.integers(0, 2 ** arch.input_bits, size=(4, 3 * 20))
    ref = _packed_run(PackedMatmul(q, SimContext(arch=arch), "analog"), codes)
    out = _packed_run(
        PackedMatmul(q, SimContext(arch=arch, compute_dtype="float32"), "analog"), codes
    )
    assert relative_error(out, ref) <= 1e-4


# ---------------------------------------------------------------------------
# ideal-mode exactness: honoured request vs per-layer fallback
# ---------------------------------------------------------------------------

def test_ideal_float32_is_exact_below_the_mantissa_bound():
    """A small-rows ideal layer honours float32 and still matches bit-exact."""
    arch = ArchSpec()
    q, codes = _codes_and_weights(arch, 40, 21, positions=3)
    assert _worst_product_sum(arch, 40) < _EXACT_FLOAT_BOUNDS[np.dtype(np.float32)]
    small = PackedMatmul(q, SimContext(compute_dtype="float32"), "ideal")
    assert small.compute_dtype == np.float32
    ref = PackedMatmul(q, SimContext(), "ideal")
    assert ref.compute_dtype == np.float64
    assert np.array_equal(_packed_run(small, codes), _packed_run(ref, codes))


def test_ideal_float32_falls_back_to_float64_above_the_bound():
    """A deep-rows ideal layer ignores the float32 request, staying exact."""
    arch = ArchSpec()
    # 8-bit codes x 8-bit weights: worst product sum is 65280 per row, so
    # anything past ~257 rows overflows float32's 24-bit mantissa
    q, codes = _codes_and_weights(arch, 400, 21, positions=3)
    assert _worst_product_sum(arch, 400) >= _EXACT_FLOAT_BOUNDS[np.dtype(np.float32)]
    big = PackedMatmul(q, SimContext(compute_dtype="float32"), "ideal")
    assert big.compute_dtype == np.float64
    ref = PackedMatmul(q, SimContext(), "ideal")
    assert np.array_equal(_packed_run(big, codes), _packed_run(ref, codes))


def test_network_fallback_is_per_layer():
    """In one ideal float32 network, only the deep-rows layers fall back."""
    from repro.nn.models import build_model

    network = build_model("cnn_1")
    ctx = SimContext(compute_dtype="float32")
    executor = NetworkExecutor(network, ctx, mode="ideal")
    dtypes = {
        name: layer._packed.compute_dtype
        for name, layer in executor._compute.items()
    }
    assert set(dtypes.values()) == {np.dtype(np.float32), np.dtype(np.float64)}
    for name, layer in executor._compute.items():
        bound = _EXACT_FLOAT_BOUNDS[np.dtype(np.float32)]
        expected = (
            np.float64
            if _worst_product_sum(ctx.arch, layer._packed.rows_needed) >= bound
            else np.float32
        )
        assert dtypes[name] == np.dtype(expected), name


def test_pack_weights_rejects_unsupported_dtypes():
    arch = ArchSpec(rows=16, cols=16)
    q, _ = _codes_and_weights(arch, 20, 9)
    with pytest.raises(EngineError):
        pack_weights(q, arch, "ideal", "float16")


# ---------------------------------------------------------------------------
# layout pinning: the ideal pack must keep the im2col stack's memory order
# ---------------------------------------------------------------------------

def test_ideal_pack_preserves_fortran_layout():
    """The ideal branch keeps q's F-order (it used to force C-contiguity).

    Layout matters downstream: BLAS picks summation paths by operand
    memory order, so discarding the layout silently changed performance.
    """
    arch = ArchSpec(rows=16, cols=16)
    qmax = 2 ** (arch.weight_bits - 1) - 1
    q = np.asfortranarray(RNG.integers(-qmax, qmax + 1, size=(40, 21)))
    for dtype in COMPUTE_DTYPES:
        encoded, conductances = pack_weights(q, arch, "ideal", dtype)
        assert conductances == []
        assert encoded.flags.f_contiguous and not encoded.flags.c_contiguous
        assert encoded.dtype == np.dtype(dtype)  # 40 rows: float32 honoured
        assert np.array_equal(encoded, q + 2 ** (arch.weight_bits - 1))


# ---------------------------------------------------------------------------
# chunk-fused read-out
# ---------------------------------------------------------------------------

def test_chunked_readout_matches_unchunked_within_1e12():
    """Bounded-chunk analog read-out agrees with the single-pass path.

    Not pinned bit-identical — BLAS may pick different summation orders
    for the blocked gemm — but the float-rounding bar is 1e-12 (observed
    0.0 on cnn_1 at 64 KB chunks)."""
    arch = ArchSpec(rows=32, cols=32)
    q, codes = _codes_and_weights(arch, 70, 40, positions=50)
    ref = _packed_run(PackedMatmul(q, SimContext(arch=arch), "analog"), codes)
    chunked = _packed_run(
        PackedMatmul(q, SimContext(arch=arch, chunk_bytes=4096), "analog"), codes
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
    ref = NetworkExecutor(network, SimContext(), mode="analog").run(validate=False)
    chunked = NetworkExecutor(
        network, SimContext(chunk_bytes=8192), mode="analog"
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
    rel64 = NetworkExecutor(network, SimContext(), mode="analog").run().rel_error
    rel32 = (
        NetworkExecutor(network, SimContext(compute_dtype="float32"), mode="analog")
        .run()
        .rel_error
    )
    assert rel32 <= 1.5 * rel64
