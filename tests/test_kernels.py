"""Kernel-dispatch tests: the cross-implementation equivalence matrix.

Every available tier must reproduce the numpy reference bit-for-bit in
float64 (the reference *is* the historical read-out arithmetic, extracted
verbatim), stay within float rounding in float32, and the chunk walk
must not change the exact read-out by a byte.  Dispatch policy —
selection order, ``REPRO_KERNEL``, unknown-tier errors, graceful
degradation — is exercised through the same public entry points the
engine uses.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.circuits.noise import HardwareNoiseConfig, stable_seed
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


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize(
    "shape,reversed_layout",
    [((3, 3, 1, 1, 1), False), ((2, 2, 1, 1, 2), True), ((3, 2, 2, 3, 2), True)],
)
def test_recombination_matches_numpy_outside_the_engine_layout(
    tier, shape, reversed_layout
):
    """Regression: numpy's einsum sums along t or s in an inner loop, with
    its own association order, for a one-element output or a stack whose
    (t, s) axes are not outermost in memory; the compiled recombination
    (t-major, s-inner) must hand those cases to numpy instead of differing
    in the last bit."""
    rng = np.random.default_rng(stable_seed("kernels", "einsum-order", *shape))
    tiles, slices, groups, pos, cols = shape
    for _ in range(50):
        charges = rng.random(shape[::-1] if reversed_layout else shape) * 2e-12
        if reversed_layout:
            charges = charges.transpose()
        delay_sums = rng.random((tiles, 1, groups, pos, 1)) * 4e-7
        ref, got = np.empty(shape[2:]), np.empty(shape[2:])
        args = dict(shifts=_shifts(slices), saturation=None)
        readout_fused(charges, delay_sums, SCALARS, recombine_out=ref, **args, kernel="numpy")
        readout_fused(charges, delay_sums, SCALARS, recombine_out=got, **args, kernel=tier)
        assert got.tobytes() == ref.tobytes()


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
    for a, b in zip(got[:3], ref[:3]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
        assert a.tobytes() == b.tobytes()
    assert got[3:] == ref[3:]


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
            args = dict(scale=5e-11, dtype=dtype, tile_rows=4)
            ref = im2col_pack(codes, kernel, stride, pad, **args, kernel="numpy")
            got = im2col_pack(codes, kernel, stride, pad, **args, kernel=tier)
            _assert_same_gather(got, ref)
            # the operand is the historical im2col matrix, DTC-scaled
            cols, out_h, out_w = F.im2col_batch(codes, kernel, stride, pad)
            assert got[3:] == (out_h, out_w)
            flat = cols.reshape(-1, cols.shape[2])
            np.testing.assert_array_equal(
                got[0], flat.astype(dtype) * np.dtype(dtype).type(5e-11)
            )
            np.testing.assert_array_equal(got[1], flat.sum(axis=1)[None])
            # the delay sums are the historical per-row-tile d.sum(axis=2)
            delays = got[0][None]
            np.testing.assert_array_equal(
                got[2],
                [delays[:, :, r0 : r0 + 4].sum(axis=2) for r0 in range(0, delays.shape[2], 4)],
            )


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

    def spy(real):
        def gather(*args):
            calls.append(args)
            return real(*args)

        return gather

    def no_fallback(*args, **kwargs):
        raise AssertionError("numpy gather fallback on the c tier")

    # the exact read-out gathers float32 codes, the chain float64 pulses
    for name in ("im2col_gather_f64", "im2col_gather_f32"):
        monkeypatch.setattr(lib, name, spy(getattr(lib, name)))
    monkeypatch.setattr(numpy_impl, "im2col_pack", no_fallback)
    network = build_model("resnet_smoke")
    for noise in (None, HardwareNoiseConfig.scaled(1.0, seed=2)):
        calls.clear()
        executor = NetworkExecutor(network, SimContext(noise=noise, kernel="c"))
        executor.run(executor.random_batch(2), validate=False)
        assert len(calls) == len(network.compute_instances)


class _Spied(np.ndarray):
    """An array view that fails on any add-reduction or multiply over it."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if (ufunc is np.add and method == "reduce") or ufunc is np.multiply:
            raise AssertionError(f"{ufunc.__name__}.{method} over a spied array")
        plain = tuple(a.view(np.ndarray) if isinstance(a, _Spied) else a for a in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, _Spied) else o for o in kwargs["out"]
            )
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.skipif("c" not in TIERS, reason="compiled tier not buildable here")
def test_unjittered_chain_reads_gather_sums_and_scales_in_the_readout(monkeypatch):
    """On ``kernel="c"`` an unjittered chain (programming variation only)
    receives the gather's delay sums and the V_DD charge scale: no ``sum``
    over the delays and no separate ``*= v_dd`` pass over the charge buffer
    runs.

    Guards the bug class where the engine quietly re-derives the delay sums
    per chunk, or scales the charge tensor in an extra pass, while every
    output stays bit-identical.
    """
    from repro.engine import executor as executor_mod
    from repro.engine import packed as packed_mod

    gathered, readouts = [], []
    real_gather, real_readout = executor_mod.im2col_pack, packed_mod.readout_fused

    def gather(*args, **kwargs):
        operand, code_sums, delay_sums, out_h, out_w = real_gather(*args, **kwargs)
        gathered.append(delay_sums)
        return operand.view(_Spied), code_sums, delay_sums, out_h, out_w

    def readout(charges, delay_sums, scalars, **kwargs):
        readouts.append((delay_sums, kwargs["charge_scale"]))
        return real_readout(charges, delay_sums, scalars, **kwargs)

    real_buffer = packed_mod.PackedMatmul._chunk_buffer

    def spied_buffer(self, chunk):
        return real_buffer(self, chunk).view(_Spied)

    monkeypatch.setattr(executor_mod, "im2col_pack", gather)
    monkeypatch.setattr(packed_mod, "readout_fused", readout)
    monkeypatch.setattr(packed_mod.PackedMatmul, "_chunk_buffer", spied_buffer)
    network = build_model("resnet_smoke")
    variation = replace(HardwareNoiseConfig.ideal(), reram_conductance_sigma=0.01)
    ctx = SimContext(noise=variation, kernel="c", chunk_bytes=1 << 16)
    executor = NetworkExecutor(network, ctx)
    executor.run(executor.random_batch(2), validate=False)

    v_dd = TimeDomainChainSpec.from_context(ctx).v_dd
    assert len(gathered) == len(network.compute_instances)
    assert len(readouts) > len(gathered)  # chunked: several reads per layer
    for delay_sums, charge_scale in readouts:
        assert charge_scale == v_dd
        assert any(np.shares_memory(delay_sums, sums) for sums in gathered)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("model", ["resnet_smoke", "cnn_1"])
@pytest.mark.skipif("c" not in TIERS, reason="compiled tier not buildable here")
def test_whole_network_c_and_numpy_tiers_are_bitwise_equal_f64(model, noisy):
    """Noiseless runs take the exact read-out; the noisy context keeps the
    compiled time-domain chain under whole-network coverage."""
    network = build_model(model)
    noise = HardwareNoiseConfig.scaled(1.0, seed=9) if noisy else None
    outputs = []
    for tier in ("numpy", "c"):
        executor = NetworkExecutor(network, SimContext(noise=noise, kernel=tier, seed=5))
        outputs.append(executor.run(executor.random_batch(2), validate=False).output)
    assert outputs[0].dtype == outputs[1].dtype == np.float64
    assert outputs[0].tobytes() == outputs[1].tobytes()


def test_gather_rejects_non_positive_tile_rows():
    codes = np.zeros((1, 1, 2, 2), dtype=np.int64)
    for tier in TIERS:
        with pytest.raises(ValueError, match="tile_rows"):
            im2col_pack(codes, 1, tile_rows=0, kernel=tier)


# -- the gather in the engine: byte-identical to the historical chain ---------


def _historical_matmul(packed, codes):
    """The pre-gather ``PackedMatmul.matmul(codes)``: int64 codes, grouped
    transpose copy, astype + ``*= t_del``, int64 row sums, transpose back."""
    codes = np.asarray(codes, dtype=np.int64)
    positions = codes.shape[0]
    grouped = codes.reshape(positions, packed.n_groups, packed.rows_needed)
    grouped = np.ascontiguousarray(grouped.transpose(1, 0, 2))
    if packed.readout == "exact":
        # exact integer sums: any exact evaluation order gives these bytes
        products = (grouped @ packed._weights.astype(np.int64, order="K")).astype(
            np.float64
        )
    else:
        spec, noise, dtype = packed.spec, packed._read_noise, packed.compute_dtype
        if noise is not None and noise.dtc_sigma > 0:
            delays = spec.dtc.convert(grouped, noise).astype(dtype, copy=False)
        else:
            delays = grouped.astype(dtype)
            delays *= dtype.type(spec.dtc.t_del_s)
        delay_sums = np.stack(
            [delays[:, :, r0 : r0 + h].sum(axis=2) for r0, h in packed._row_spans]
        )
        products = packed._analog_products(delays, delay_sums)
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


def test_context_validates_kernel():
    assert SimContext(kernel="numpy").kernel == "numpy"
    with pytest.raises(ValueError):
        SimContext(kernel="fortran")
    # the tier is metadata, not semantics: equal contexts, equal keys
    assert SimContext(kernel="numpy") == SimContext(kernel="auto")


# -- end-to-end: the engine is tier-invariant ---------------------------------


def _run(model, ctx):
    executor = NetworkExecutor(model, ctx, mode="analog")
    result = executor.run(executor.random_batch(2))
    return executor.state.key, result


@pytest.mark.parametrize("tier", COMPILED)
@pytest.mark.parametrize("noisy", [False, True])
def test_engine_outputs_are_tier_invariant(tier, noisy):
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


# -- chunk walk: the exact read-out is chunk-invariant to the byte ----------


@pytest.mark.parametrize("tier", TIERS)
def test_chunk_walk_is_byte_identical(tier):
    model = build_model("tiny_cnn")
    _, whole = _run(model, SimContext(kernel=tier))
    for chunk_bytes in (1, 4096, 1 << 16):  # 1: one position per chunk
        _, chunked = _run(model, SimContext(chunk_bytes=chunk_bytes, kernel=tier))
        np.testing.assert_array_equal(chunked.output, whole.output)


# -- the environment this matrix actually covered -----------------------------


def test_compiled_tier_present_unless_explicitly_waived():
    """CI builds the compiled tier; a numpy-only box documents why."""
    if os.environ.get("REPRO_EXPECT_KERNEL") == "c":
        assert "c" in TIERS, dispatch.unavailable_reasons()
