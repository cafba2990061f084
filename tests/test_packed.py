"""Packed-backend tests: equivalence of the packed vectorized execution
path against the legacy tiled path (noiseless, across cell splits, grouped
convolutions, partial edge tiles and batches), the batch-dimension
semantics, validation gating and the >=10x cnn_1 speedup bar."""

import time

import numpy as np
import pytest

from repro.circuits.noise import HardwareNoiseConfig
from repro.context import ArchSpec, SimContext
from repro.engine import (
    EngineError,
    NetworkExecutor,
    PackedMatmul,
    TiledMatmul,
    relative_error,
    run_network,
)
from repro.nn import functional as F
from repro.nn.layers import TensorShape
from repro.nn.models import build_model
from repro.nn.network import NetworkBuilder
from repro.nn.quantization import quantize_unsigned, quantize_unsigned_batch

RNG = np.random.default_rng(31)


def _grouped_conv_net() -> "NetworkBuilder":
    """A small net with a grouped conv (2 groups) and partial edge tiles."""
    builder = NetworkBuilder("grouped", TensorShape(4, 10, 10))
    builder.conv(8, 3, padding=1, name="conv1").relu()
    builder.conv(12, 3, padding=1, groups=2, name="conv2").relu()
    builder.pool(2, name="pool")
    builder.fc(7, name="fc")
    return builder.build()


# ---------------------------------------------------------------------------
# matmul-level equivalence: packed vs tiled
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "weight_bits,cell_bits",
    [(4, 4), (8, 4), (16, 4)],  # cols_per_weight = 1, 2, 4
)
@pytest.mark.parametrize("mode", ["analog", "ideal"])
def test_packed_matches_tiled_across_cell_splits(weight_bits, cell_bits, mode):
    """All slice counts agree with the legacy path on partial edge tiles."""
    arch = ArchSpec(rows=16, cols=16, weight_bits=weight_bits, cell_bits=cell_bits)
    ctx = SimContext(arch=arch)
    qmax = 2 ** (weight_bits - 1) - 1
    # 40 rows -> 2.5 row tiles, 21 cols -> partial column tile too
    q = RNG.integers(-qmax, qmax + 1, size=(40, 21))
    codes = RNG.integers(0, 2 ** arch.input_bits, size=(5, 40))
    tiled = TiledMatmul(q, ctx, mode)
    packed = PackedMatmul(q, ctx, mode)
    assert packed.crossbars == tiled.crossbars
    a, b = tiled.matmul(codes), packed.matmul(*packed.gather(codes))
    assert relative_error(b, a) <= 1e-9
    # and both recover the exact integer product noiselessly
    assert relative_error(b, codes @ q) <= 1e-9


def test_packed_grouped_matches_per_group_tiled():
    """A (groups, rows, cols) stack equals per-group tiled matmuls, concatenated."""
    ctx = SimContext(arch=ArchSpec(rows=16, cols=16))
    groups, rows, cols = 3, 30, 8
    q = RNG.integers(-127, 128, size=(groups, rows, cols))
    codes = RNG.integers(0, 256, size=(4, groups * rows))
    packed = PackedMatmul(q, ctx, "analog")
    reference = np.concatenate(
        [
            TiledMatmul(q[g], ctx, "analog").matmul(
                codes[:, g * rows : (g + 1) * rows]
            )
            for g in range(groups)
        ],
        axis=1,
    )
    assert packed.crossbars == groups * TiledMatmul(q[0], ctx, "analog").crossbars
    assert relative_error(packed.matmul(*packed.gather(codes)), reference) <= 1e-9


def test_packed_rejects_bad_weights_and_codes():
    ctx = SimContext()
    with pytest.raises(EngineError):
        PackedMatmul(np.full((4, 4), 128), ctx)  # > qmax for 8-bit
    with pytest.raises(EngineError):
        PackedMatmul(np.zeros((2, 2, 2, 2), dtype=int), ctx)  # 4-D
    packed = PackedMatmul(np.zeros((4, 4), dtype=int), ctx)
    with pytest.raises(EngineError):
        packed.gather(np.full((2, 4), 256))  # > 8-bit input code
    with pytest.raises(EngineError):
        packed.gather(np.zeros((2, 5), dtype=int))  # wrong row count


def test_packed_stores_true_size_not_padded_tiles():
    """Partial tiles live at their true height x width in the packed tensors."""
    arch = ArchSpec()  # 256x256, 2 slices per 8-bit weight
    packed = PackedMatmul(RNG.integers(-10, 10, size=(30, 5)), SimContext(arch=arch))
    # two float64 slice tensors of the true 30x5 shape — not 256x256 padding
    assert packed.packed_bytes == 2 * 30 * 5 * 8


# ---------------------------------------------------------------------------
# executor-level equivalence and batch semantics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["analog", "ideal"])
def test_cnn1_packed_run_matches_tiled_run_noiseless(mode):
    """The acceptance bar: cnn_1 agrees across backends to <= 1e-9."""
    network = build_model("cnn_1")
    ctx = SimContext()
    x = NetworkExecutor(network, ctx).random_input()
    packed = NetworkExecutor(network, ctx, mode, backend="packed").run(x)
    tiled = NetworkExecutor(network, ctx, mode, backend="tiled").run(x)
    assert relative_error(packed.output, tiled.output) <= 1e-9
    assert packed.backend == "packed" and tiled.backend == "tiled"


def test_grouped_conv_network_matches_across_backends():
    network = _grouped_conv_net()
    ctx = SimContext(seed=2)
    x = NetworkExecutor(network, ctx).random_input()
    packed = NetworkExecutor(network, ctx, backend="packed").run(x)
    tiled = NetworkExecutor(network, ctx, backend="tiled").run(x)
    assert relative_error(packed.output, tiled.output) <= 1e-9
    assert packed.rel_error < 5e-2  # still at the quantisation floor


@pytest.mark.parametrize("backend", ["packed", "tiled"])
def test_batched_run_equals_stacked_single_runs(backend):
    """Per-image quantisation makes a batch N independent runs.

    The integer codes are identical, so the ideal (exact integer) mode is
    bit-for-bit equal; the analog mode agrees to float tolerance (BLAS may
    re-block the larger batched matmul, reordering float accumulation).
    """
    network = _grouped_conv_net()
    ctx = SimContext()
    exact = NetworkExecutor(network, ctx, mode="ideal", backend=backend)
    batch = exact.random_batch(3)
    batched = exact.run(batch)
    assert batched.output.shape[0] == 3
    singles = np.stack([exact.run(batch[i]).output for i in range(3)])
    np.testing.assert_array_equal(batched.output, singles)
    # the reference is batched too and the traces aggregate over the batch
    assert batched.reference.shape == batched.output.shape
    assert all(np.isfinite(trace.rel_error) for trace in batched.traces)

    analog = NetworkExecutor(network, ctx, mode="analog", backend=backend)
    batched = analog.run(batch, validate=False)
    singles = np.stack(
        [analog.run(batch[i], validate=False).output for i in range(3)]
    )
    np.testing.assert_allclose(batched.output, singles, rtol=1e-10, atol=1e-12)


def test_batch_of_one_matches_single_image_run():
    network = build_model("tiny_cnn")
    ctx = SimContext()
    executor = NetworkExecutor(network, ctx)
    x = executor.random_input()
    single = executor.run(x)
    batched = executor.run(x[None])
    assert single.output.shape == batched.output.shape[1:]
    np.testing.assert_array_equal(single.output, batched.output[0])


def test_run_rejects_wrong_rank_inputs():
    executor = NetworkExecutor(build_model("tiny_mlp"), SimContext())
    with pytest.raises(EngineError):
        executor.run(np.zeros((2, 2, 1, 8, 8)))
    with pytest.raises(EngineError):
        executor.random_batch(0)


def test_validate_false_skips_reference_but_keeps_output():
    network = build_model("tiny_cnn")
    ctx = SimContext()
    executor = NetworkExecutor(network, ctx)
    x = executor.random_input()
    checked = executor.run(x)
    unchecked = executor.run(x, validate=False)
    np.testing.assert_array_equal(checked.output, unchecked.output)
    assert unchecked.reference is None
    assert np.isnan(unchecked.rel_error)
    assert len(unchecked.traces) == len(checked.traces)
    assert all(np.isnan(trace.rel_error) for trace in unchecked.traces)


def test_packed_noise_is_reproducible_and_bounded():
    """Noise draws differ from the tiled backend (documented), but packed
    runs are exactly reproducible from the noise seed and stay bounded."""
    network = build_model("tiny_cnn")

    def noisy_run():
        ctx = SimContext(noise=HardwareNoiseConfig(seed=11))
        return run_network(network, ctx, backend="packed")

    a, b = noisy_run(), noisy_run()
    np.testing.assert_array_equal(a.output, b.output)
    noiseless = run_network(network, SimContext(), backend="packed")
    assert a.rel_error > noiseless.rel_error
    assert a.rel_error < 1.0


def test_packed_executor_crossbars_match_mapping():
    """Including the awkward cell_bits=3 split (85 weights per 256-col tile)."""
    network = build_model("cnn_1")
    for arch in (ArchSpec(), ArchSpec(cell_bits=3, weight_bits=8)):
        executor = NetworkExecutor(network, SimContext(arch=arch), backend="packed")
        assert executor.crossbars == executor.mapping.total_crossbars


# ---------------------------------------------------------------------------
# batched kernel helpers
# ---------------------------------------------------------------------------

def test_im2col_batch_matches_per_image_im2col():
    for n, channels, size, kernel, stride, pad in [
        (3, 4, 11, 3, 1, 1),
        (2, 2, 9, 4, 2, 0),
        (1, 5, 8, 3, 2, 1),
    ]:
        x = RNG.normal(size=(n, channels, size, size))
        cols, oh, ow = F.im2col_batch(x, kernel, stride, pad)
        for i in range(n):
            ref, oh2, ow2 = F.im2col(x[i], kernel, stride, pad)
            assert (oh, ow) == (oh2, ow2)
            np.testing.assert_array_equal(cols[i], ref)


def test_quantize_unsigned_batch_matches_per_image():
    x = RNG.uniform(0.0, 3.0, size=(4, 2, 5, 5))
    x[2] = 0.0  # all-zero image takes the scale-1.0 path
    values, scales = quantize_unsigned_batch(x, 8)
    for i in range(4):
        single = quantize_unsigned(x[i], 8)
        np.testing.assert_array_equal(values[i], single.values)
        assert scales[i] == single.scale
    with pytest.raises(ValueError):
        quantize_unsigned_batch(-x, 8)
    with pytest.raises(ValueError):
        quantize_unsigned_batch(x[0, 0, 0], 8)  # no batch axis


# ---------------------------------------------------------------------------
# the performance bar
# ---------------------------------------------------------------------------

def _best_of(func, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_packed_cnn1_analog_run_is_at_least_10x_faster_than_tiled():
    """Acceptance bar: the cnn_1 analog engine run is >= 10x faster on the
    packed backend than on the legacy tiled backend.  Both executors are
    programmed once (weights are written to the arrays a single time in a
    serving scenario) and timed on the same 4-image batch with validation
    off, so the comparison isolates the execution backends themselves."""
    network = build_model("cnn_1")
    ctx = SimContext()
    packed = NetworkExecutor(network, ctx, mode="analog", backend="packed")
    tiled = NetworkExecutor(network, ctx, mode="analog", backend="tiled")
    x = packed.random_batch(4)
    packed.run(x, validate=False)  # warm-up
    packed_s = _best_of(lambda: packed.run(x, validate=False), repeats=5)
    tiled_s = _best_of(lambda: tiled.run(x, validate=False), repeats=3)
    assert tiled_s / packed_s >= 10.0, f"only {tiled_s / packed_s:.1f}x"
