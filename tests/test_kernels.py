"""Kernel-dispatch tests: the cross-implementation equivalence matrix.

Every available tier must reproduce the numpy reference bit-for-bit in
float64 (the reference *is* the historical read-out arithmetic, extracted
verbatim), stay within float rounding in float32, and the threaded chunk
walk must be byte-identical at any worker count.  Dispatch policy —
selection order, ``REPRO_KERNEL``, unknown-tier errors, graceful
degradation — is exercised through the same public entry points the
engine uses.
"""

import os

import numpy as np
import pytest

from repro.circuits.noise import stable_seed
from repro.circuits.timing import TimeDomainChainSpec
from repro.context import SimContext
from repro.engine import NetworkExecutor
from repro.kernels import c_impl, dispatch, numpy_impl
from repro.kernels.dispatch import (
    KERNEL_TIERS,
    KernelError,
    ReadoutScalars,
    available,
    im2col_pack,
    readout_fused,
    resolve,
    slice_recombine,
)
from repro.nn import functional as F
from repro.nn.layers import TensorShape
from repro.nn.models import build_model
from repro.nn.network import NetworkBuilder
from repro.nn.quantization import quantize_unsigned_batch

TIERS = available()
COMPILED = [name for name in TIERS if name != "numpy"]

SCALARS = ReadoutScalars(
    offset_coeff=1.2 * 4e-6,
    capacitance_f=2.4e-12,
    v_threshold=0.6,
    phase2_scale=1.9e-7,
    full_scale_s=5.1e-7,
    lsb_s=2e-9,
    dot_max=4080.0,
)


def _chain_inputs(dtype, t=3, s=2, g=2, p=37, c=11, seed=("kernels", "chain")):
    rng = np.random.default_rng(stable_seed(*seed))
    charges = (rng.random((t, s, g, p, c)) * 2e-12).astype(dtype)
    delay_sums = (rng.random((t, 1, g, p, 1)) * 4e-7).astype(dtype)
    return charges, delay_sums


def _shifts(s=2):
    return np.asarray([2.0 ** (4 * i) for i in reversed(range(s))])


# -- float64: every tier must be bit-for-bit the numpy reference --------------


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("saturation", [None, 0.25])
@pytest.mark.parametrize("recombine", [False, True])
def test_tier_matches_numpy_bitwise_f64(tier, saturation, recombine):
    charges, delay_sums = _chain_inputs(np.float64)
    shifts = _shifts() if recombine else None
    rec_ref = np.empty(charges.shape[2:]) if recombine else None
    rec_got = np.empty(charges.shape[2:]) if recombine else None
    ref = readout_fused(
        charges,
        delay_sums,
        SCALARS,
        saturation=saturation,
        shifts=shifts,
        recombine_out=rec_ref,
        kernel="numpy",
    )
    got = readout_fused(
        charges,
        delay_sums,
        SCALARS,
        saturation=saturation,
        shifts=shifts,
        recombine_out=rec_got,
        kernel=tier,
    )
    np.testing.assert_array_equal(got, ref)
    if recombine:
        np.testing.assert_array_equal(rec_got, rec_ref)
    # the inputs were left untouched
    assert charges.flags.writeable and delay_sums.flags.writeable


@pytest.mark.parametrize("tier", COMPILED)
def test_tier_matches_numpy_on_partial_tile_views(tier):
    """Tail chunks are non-contiguous views: charges[:, :, :, :n]."""
    charges, delay_sums = _chain_inputs(np.float64, p=29)
    view_c = charges[:, :, :, :13]
    view_d = delay_sums[:, :, :, :13]
    assert not view_c.flags.c_contiguous
    ref = readout_fused(view_c, view_d, SCALARS, kernel="numpy")
    got = readout_fused(view_c, view_d, SCALARS, kernel=tier)
    np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("tier", COMPILED)
def test_tier_matches_numpy_in_place_strided(tier):
    """The chunked walk runs in place on a strided recombine slice."""
    charges, delay_sums = _chain_inputs(np.float64, g=1, p=24)
    shifts = _shifts()
    full_ref = np.empty((1, 29, 11))
    full_got = np.empty((1, 29, 11))
    work_ref = charges.copy()
    work_got = charges.copy()
    readout_fused(
        work_ref,
        delay_sums,
        SCALARS,
        out=work_ref,
        shifts=shifts,
        recombine_out=full_ref[:, 5:],
        kernel="numpy",
    )
    readout_fused(
        work_got,
        delay_sums,
        SCALARS,
        out=work_got,
        shifts=shifts,
        recombine_out=full_got[:, 5:],
        kernel=tier,
    )
    np.testing.assert_array_equal(work_got, work_ref)
    np.testing.assert_array_equal(full_got[:, 5:], full_ref[:, 5:])


@pytest.mark.parametrize("tier", TIERS)
def test_tier_handles_empty_blocks(tier):
    charges, delay_sums = _chain_inputs(np.float64, p=0)
    got = readout_fused(charges, delay_sums, SCALARS, kernel=tier)
    assert got.shape == charges.shape and got.size == 0


@pytest.mark.parametrize("tier", COMPILED)
def test_slice_recombine_matches_numpy(tier):
    rng = np.random.default_rng(stable_seed("kernels", "recombine"))
    estimates = rng.random((3, 2, 2, 19, 7))
    shifts = _shifts()
    ref = np.empty((2, 19, 7))
    got = np.empty((2, 19, 7))
    slice_recombine(shifts, estimates, ref, kernel="numpy")
    slice_recombine(shifts, estimates, got, kernel=tier)
    np.testing.assert_array_equal(got, ref)


# -- float32: within float rounding of the numpy float32 chain ----------------


@pytest.mark.parametrize("tier", COMPILED)
@pytest.mark.parametrize("saturation", [None, 0.25])
def test_tier_matches_numpy_f32(tier, saturation):
    charges, delay_sums = _chain_inputs(np.float32)
    ref = readout_fused(
        charges, delay_sums, SCALARS, saturation=saturation, kernel="numpy"
    )
    got = readout_fused(
        charges, delay_sums, SCALARS, saturation=saturation, kernel=tier
    )
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-4)


# -- the code gather: bytes and strides --------------------------------------


def _codes(shape, seed, channels_last=False):
    rng = np.random.default_rng(stable_seed("kernels", "gather", *seed))
    if not channels_last:
        return rng.integers(0, 256, size=shape)
    n, c, h, w = shape
    return rng.integers(0, 256, size=(n, h, w, c)).transpose(0, 3, 1, 2)


def _assert_same_gather(got, ref):
    for a, b in zip(got[:2], ref[:2]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
        assert a.tobytes() == b.tobytes()
    assert got[2:] == ref[2:]


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize(
    "shape,kernel,stride,pad",
    [
        ((2, 3, 8, 8), 3, 1, 1),
        ((1, 1, 7, 5), 3, 2, 0),
        ((1, 4, 6, 6), 1, 1, 0),
        ((2, 2, 5, 5), 5, 1, 2),
    ],
)
def test_im2col_matches_numpy(tier, shape, kernel, stride, pad):
    for channels_last in (False, True):
        codes = _codes(shape, (kernel, stride), channels_last)
        for dtype in (np.float64, np.float32):
            args = dict(scale=5e-11, dtype=dtype)
            ref = im2col_pack(codes, kernel, stride, pad, **args, kernel="numpy")
            got = im2col_pack(codes, kernel, stride, pad, **args, kernel=tier)
            _assert_same_gather(got, ref)
            # the operand is the historical im2col matrix, DTC-scaled
            cols, out_h, out_w = F.im2col_batch(codes, kernel, stride, pad)
            assert got[2:] == (out_h, out_w)
            flat = cols.reshape(-1, cols.shape[2])
            np.testing.assert_array_equal(
                got[0], flat.astype(dtype) * np.dtype(dtype).type(5e-11)
            )
            np.testing.assert_array_equal(got[1], flat.sum(axis=1)[None])


@pytest.mark.parametrize("tier", TIERS)
def test_im2col_empty_output_raises_on_every_tier(tier):
    codes = np.zeros((1, 1, 2, 2), dtype=np.int64)
    with pytest.raises(ValueError, match="empty output"):
        im2col_pack(codes, 5, stride=1, pad=0, kernel=tier)


@pytest.mark.skipif("c" not in TIERS, reason="compiled tier not buildable here")
def test_engine_conv_reaches_the_compiled_gather(monkeypatch):
    """A resnet-style conv stack on ``kernel="c"`` never falls back to numpy.

    Guards the bug class where the compiled gather silently rejected the
    engine's int64 codes (it accepted only float64) and every conv layer
    took the numpy path while the float64 tier tests stayed green.
    """
    lib = c_impl.load()
    calls = []
    real = lib.im2col_gather_f64

    def spy(*args):
        calls.append(args)
        return real(*args)

    def no_fallback(*args, **kwargs):
        raise AssertionError("numpy gather fallback on the c tier")

    monkeypatch.setattr(lib, "im2col_gather_f64", spy)
    monkeypatch.setattr(numpy_impl, "im2col_pack", no_fallback)
    network = build_model("resnet_smoke")
    executor = NetworkExecutor(network, SimContext(kernel="c"))
    executor.run(executor.random_batch(2), validate=False)
    assert len(calls) == len(network.compute_instances)


# -- the gather in the engine: byte-identical to the historical chain ---------


def _historical_matmul(packed, codes):
    """The pre-gather ``PackedMatmul.matmul(codes)``: int64 codes, grouped
    transpose copy, astype + ``*= t_del``, int64 row sums, transpose back."""
    codes = np.asarray(codes, dtype=np.int64)
    positions = codes.shape[0]
    grouped = codes.reshape(positions, packed.n_groups, packed.rows_needed)
    grouped = np.ascontiguousarray(grouped.transpose(1, 0, 2))
    if packed.mode == "ideal":
        if packed._ideal_exact:
            products = (grouped.astype(packed._encoded.dtype) @ packed._encoded).astype(
                np.float64, copy=False
            )
        else:
            products = (
                grouped @ packed._encoded.astype(np.int64, order="K")
            ).astype(np.float64)
    else:
        spec, noise, dtype = packed.spec, packed._read_noise, packed.compute_dtype
        if noise is not None and noise.dtc_sigma > 0:
            delays = spec.dtc.convert(grouped, noise).astype(dtype, copy=False)
        else:
            delays = grouped.astype(dtype)
            delays *= dtype.type(spec.dtc.t_del_s)
        products = packed._analog_products(delays, positions)
    correction = packed.offset * grouped.sum(axis=2, dtype=np.int64)
    np.subtract(products, correction[:, :, None], out=products)
    return np.ascontiguousarray(products.transpose(1, 0, 2)).reshape(
        positions, packed.out_cols
    )


def _historical_forward(self, acts, input_bits):
    """The pre-gather ``_MappedComputeLayer.forward``: quantise →
    ``F.im2col_batch`` → reshape copy → :func:`_historical_matmul`."""
    values, in_scales = quantize_unsigned_batch(acts, input_bits)
    n = values.shape[0]
    if self.kind == "fc":
        out = _historical_matmul(self._packed, values.reshape(n, -1))
        np.multiply(out, self.w_scales[None, :] * in_scales[:, None], out=out)
        if self.bias is not None:
            np.add(out, self.bias, out=out)
        return out
    cols, out_h, out_w = F.im2col_batch(values, self.kernel, self.stride, self.pad)
    positions = cols.shape[1]
    out = _historical_matmul(self._packed, cols.reshape(n * positions, -1))
    out = out.reshape(n, positions, self.out_channels)
    np.multiply(out, self.w_scales[None, None, :] * in_scales[:, None, None], out=out)
    if self.bias is not None:
        np.add(out, self.bias, out=out)
    return out.transpose(0, 2, 1).reshape(n, self.out_channels, out_h, out_w)


def _grouped_net():
    """A grouped conv (2 groups) between an ungrouped conv and an FC."""
    builder = NetworkBuilder("grouped_gather", TensorShape(4, 9, 9))
    builder.conv(8, 3, padding=1, name="conv1").relu()
    builder.conv(12, 3, padding=1, groups=2, name="conv2").relu()
    builder.fc(5, name="fc")
    return builder.build()


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize(
    "mode,dtype,noisy",
    [
        ("analog", "float64", False),
        ("analog", "float64", True),
        ("analog", "float32", False),
        ("analog", "float32", True),
        ("ideal", "float64", False),
        ("ideal", "float32", False),
    ],
)
@pytest.mark.parametrize("model", ["grouped", "resnet_smoke"])
def test_engine_gather_is_byte_identical_to_the_historical_chain(
    monkeypatch, tier, mode, dtype, noisy, model
):
    from repro.circuits.noise import HardwareNoiseConfig
    from repro.engine.executor import _MappedComputeLayer

    network = _grouped_net() if model == "grouped" else build_model(model)
    noise = HardwareNoiseConfig.scaled(1.0, seed=11) if noisy else None
    ctx = SimContext(noise=noise, compute_dtype=dtype, kernel=tier, seed=3)
    state = NetworkExecutor(network, ctx, mode).state
    shape = network.input_shape
    x = np.random.default_rng(stable_seed("kernels", "oracle")).uniform(
        0.0, 1.0, size=(2, shape.channels, shape.height, shape.width)
    )
    got = NetworkExecutor(network, ctx, mode, state=state).run(x, validate=False)
    with monkeypatch.context() as patch:
        patch.setattr(_MappedComputeLayer, "forward", _historical_forward)
        ref = NetworkExecutor(network, ctx, mode, state=state).run(x, validate=False)
    assert got.output.strides == ref.output.strides
    assert got.output.tobytes() == ref.output.tobytes()


# -- the spec facade ----------------------------------------------------------


def test_chain_spec_read_out_goes_through_dispatch():
    spec = TimeDomainChainSpec.from_context(SimContext())
    charges, delay_sums = _chain_inputs(np.float64, g=1)
    ref = readout_fused(charges, delay_sums, spec.scalars(), kernel="numpy")
    np.testing.assert_array_equal(spec.read_out(charges, delay_sums), ref)


# -- dispatch policy ----------------------------------------------------------


def test_numpy_tier_is_always_available():
    assert "numpy" in TIERS
    assert TIERS == tuple(t for t in KERNEL_TIERS if t in TIERS)  # order kept


def test_resolve_auto_picks_first_available(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert resolve("auto")[0] == TIERS[0]
    assert resolve(None)[0] == TIERS[0]


def test_unknown_tier_raises_kernel_error():
    with pytest.raises(KernelError, match="unknown kernel tier"):
        resolve("fortran")
    with pytest.raises(KernelError):
        readout_fused(*_chain_inputs(np.float64), SCALARS, kernel="fortran")


def test_env_override_wins_for_auto(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    assert resolve("auto")[0] == "numpy"
    assert resolve(None)[0] == "numpy"
    # an explicit request still beats the environment
    assert resolve(TIERS[0])[0] == TIERS[0]


def test_env_unknown_tier_raises(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "fortran")
    with pytest.raises(KernelError):
        resolve(None)


def test_unavailable_tier_degrades_with_one_warning(monkeypatch):
    """The compiled tier failing to build falls back to numpy, warning once."""

    def no_compiler():
        raise c_impl.KernelBuildError("no C compiler found")

    monkeypatch.setattr(c_impl, "load", no_compiler)
    dispatch.reset()
    try:
        with pytest.warns(RuntimeWarning, match="falling back"):
            name, _ = resolve("c")
        assert name == "numpy"
        assert "c" in dispatch.unavailable_reasons()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second request: no re-warn
            assert resolve("c")[0] == name
    finally:
        dispatch.reset()


def test_context_validates_kernel_and_threads():
    assert SimContext(kernel="numpy").kernel == "numpy"
    with pytest.raises(ValueError):
        SimContext(kernel="fortran")
    with pytest.raises(ValueError):
        SimContext(threads=0)
    # tier and threads are metadata, not semantics: equal contexts, equal keys
    assert SimContext(kernel="numpy") == SimContext(kernel="auto", threads=4)


# -- end-to-end: the engine is tier-invariant ---------------------------------


def _run(model, ctx):
    executor = NetworkExecutor(model, ctx, mode="analog")
    result = executor.run(executor.random_batch(2))
    return executor.state.key, result


@pytest.mark.parametrize("tier", COMPILED)
@pytest.mark.parametrize("noisy", [False, True])
def test_engine_outputs_are_tier_invariant(tier, noisy):
    from repro.circuits.noise import HardwareNoiseConfig

    model = build_model("tiny_cnn")
    noise = HardwareNoiseConfig.scaled(1.0, seed=7) if noisy else None
    key_ref, ref = _run(model, SimContext(noise=noise, kernel="numpy"))
    key_got, got = _run(model, SimContext(noise=noise, kernel=tier))
    assert key_got == key_ref  # the tier is not a content-key dimension
    np.testing.assert_array_equal(got.output, ref.output)
    assert got.rel_error == ref.rel_error


@pytest.mark.parametrize("tier", COMPILED)
def test_engine_float32_outputs_are_tier_invariant(tier):
    model = build_model("tiny_cnn")
    _, ref = _run(model, SimContext(compute_dtype="float32", kernel="numpy"))
    _, got = _run(model, SimContext(compute_dtype="float32", kernel=tier))
    np.testing.assert_array_equal(got.output, ref.output)


# -- threaded chunk walk: byte-identical at any worker count ------------------


@pytest.mark.parametrize("tier", TIERS)
def test_threaded_chunk_walk_is_byte_identical(tier):
    model = build_model("tiny_cnn")
    outputs = {}
    for workers in (1, 2, 4):
        ctx = SimContext(chunk_bytes=4096, threads=workers, kernel=tier)
        _, result = _run(model, ctx)
        outputs[workers] = result.output
    np.testing.assert_array_equal(outputs[2], outputs[1])
    np.testing.assert_array_equal(outputs[4], outputs[1])
    # and the chunked threaded walk equals the unchunked serial pass
    _, whole = _run(model, SimContext(kernel=tier))
    np.testing.assert_array_equal(outputs[1], whole.output)


def test_threads_without_chunking_is_a_no_op():
    model = build_model("tiny_cnn")
    _, serial = _run(model, SimContext())
    _, threaded = _run(model, SimContext(threads=4))
    np.testing.assert_array_equal(threaded.output, serial.output)


# -- the environment this matrix actually covered -----------------------------


def test_compiled_tier_present_unless_explicitly_waived():
    """CI builds the compiled tier; a numpy-only box documents why."""
    if os.environ.get("REPRO_EXPECT_KERNEL") == "c":
        assert "c" in TIERS, dispatch.unavailable_reasons()
