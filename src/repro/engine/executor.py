"""Whole-network functional simulation through mapped crossbars.

:class:`NetworkExecutor` is the end-to-end path the analytics packages
cannot provide on their own: it takes a resolved
:class:`repro.nn.network.Network`, tiles every conv/FC layer onto physical
crossbars exactly as :func:`repro.mapping.crossbar_mapping.map_network`
counts them, and pushes real activations through the
:mod:`repro.circuits.timing` time-domain chains:

1. per-layer weight programming — symmetric ``weight_bits`` quantisation,
   offset encoding and the bit-cell slice split (packed per-slice tensors
   by default, legacy per-tile crossbar objects with ``backend="tiled"``),
2. per-image unsigned quantisation of the input activations, then one
   dispatched gather (:func:`repro.kernels.dispatch.im2col_pack`) that
   converts once and forwards: it reads each code once — at any strides,
   so a channels-last producer output needs no copy — and writes the
   im2col windows straight as DTC pulse widths in the compute dtype, plus
   each group's exact code sums (TIMELY's only-once input read, O²IR;
   FC layers are its 1×1 case),
3. time-domain dot products batched over input columns *and* over the
   images of a batch, every row tile and bit-cell slice reading that one
   operand, with optional :mod:`repro.circuits.noise` injection,
4. partial-sum recombination across row tiles, digital offset removal,
   dequantisation and bias addition,
5. auxiliary layers (ReLU, pooling, batch-norm, flatten, GAP, residual
   add, channel concat) applied with the same :mod:`repro.nn.functional`
   kernels as the float reference.

Execution walks the network's deterministic topological order, so
branching DAGs (ResNet, SqueezeNet) run end to end; intermediate
activations are freed once their last consumer has run (liveness-based
freeing — what keeps deep residual nets inside laptop memory), and the
observed peak is reported per run.

Inputs may be a single ``(C, H, W)`` image or a first-class ``(N, C, H, W)``
batch; activations are quantised per image (so a batched run produces
exactly the codes of ``N`` single-image runs) while every matmul amortises
over the whole batch.

A run is validated against the pure-numpy reference
(:func:`repro.engine.reference.reference_forward`) with identical
parameters; the per-layer relative errors quantify what quantisation and
the analog chains cost in accuracy — the paper's core claim is that with
noise disabled this error stays at the quantisation floor.  Throughput
runs can skip the float double-compute with ``run(validate=False)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.context import ENGINE_BACKENDS, SimContext
from repro.engine.errors import EngineError
from repro.engine.packed import PackedMatmul, pack_weights
from repro.engine.params import NetworkParams
from repro.engine.state import LayerState, ProgrammedState
from repro.engine.reference import (
    apply_aux_batched,
    check_activation_shape,
    conv_padding,
    reference_forward,
    reference_forward_batch,
    validate_supported,
)
from repro.engine.tiles import MODES, TiledMatmul
from repro.kernels.dispatch import im2col_pack
from repro.nn import functional as F
from repro.nn.layers import Conv2D, FullyConnected
from repro.nn.network import NETWORK_INPUT, LayerInstance, Network
from repro.nn.quantization import (
    quantize_symmetric_per_channel,
    quantize_unsigned_batch,
)


def _live_buffer_bytes(arrays) -> int:
    """Total bytes of the distinct buffers backing ``arrays``.

    Views (e.g. a flatten output, which is a reshape of its producer) share
    their base's buffer: counting ``nbytes`` per array would double-count
    them, and "freeing" a producer whose view is still live releases
    nothing.  Deduplicating by base buffer charges each allocation once,
    for as long as anything referencing it stays live.
    """
    seen = {}
    for arr in arrays:
        base = arr
        while isinstance(base.base, np.ndarray):
            base = base.base
        seen[id(base)] = base.nbytes
    return sum(seen.values())


def relative_error(estimate: np.ndarray, reference: np.ndarray) -> float:
    """L2-norm relative error of an estimate against its reference."""
    ref_norm = float(np.linalg.norm(reference))
    if ref_norm == 0.0:
        return float(np.linalg.norm(estimate))
    return float(np.linalg.norm(estimate - reference)) / ref_norm


@dataclass(frozen=True)
class LayerTrace:
    """Per-layer record of one engine run.

    ``rel_error`` is NaN when the run skipped validation.  ``stuck_cells``
    and ``remapped_rows`` count the layer's surviving stuck cells and the
    rows remapped onto spares (see :mod:`repro.faults`); both are zero when
    no fault model is active.
    """

    name: str
    kind: str
    crossbars: int
    rel_error: float
    stuck_cells: int = 0
    remapped_rows: int = 0


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one engine run, with its float-reference comparison.

    ``output`` (and ``reference``, when validation ran) carry a leading
    batch axis exactly when the input did; ``reference`` is ``None`` for
    ``validate=False`` runs.  ``peak_activation_bytes`` is the maximum
    total size of simultaneously live activations during the engine pass
    (the quantity liveness-based freeing bounds; it excludes the float
    reference activations a validated run additionally holds).
    ``peak_wired_bytes`` is the maximum weight-payload bytes wired for
    execution at once: for a resident executor that is every layer's
    programmed tensors for the whole run, for a streamed one
    (``NetworkExecutor(..., stream=True)``) it is the single largest
    layer — the deterministic quantity the streaming memory bound rests
    on, independent of allocator/OS noise.
    """

    model: str
    mode: str
    backend: str
    output: np.ndarray
    reference: Optional[np.ndarray] = None
    traces: List[LayerTrace] = field(default_factory=list)
    peak_activation_bytes: int = 0
    peak_wired_bytes: int = 0
    #: network-wide fault totals (sums of the per-layer trace counts);
    #: zero when the context carries no fault model
    stuck_cells: int = 0
    remapped_rows: int = 0

    @property
    def rel_error(self) -> float:
        """L2 relative error of the final output against the reference.

        NaN when the run skipped validation (no reference was computed).
        """
        if self.reference is None:
            return float("nan")
        return relative_error(self.output, self.reference)

    def trace_by_name(self) -> Dict[str, LayerTrace]:
        return {trace.name: trace for trace in self.traces}


def program_layer(
    inst: LayerInstance,
    params: NetworkParams,
    arch,
    mode: str,
    backend: str,
    compute_dtype: str = "float64",
) -> LayerState:
    """Program one conv/FC layer: the expensive, noise-free phase.

    Quantises the layer's weights per output channel, lays them out as the
    backend's im2col matmul matrices and — for the packed backend — runs the
    offset-encode/bit-slice packing of :func:`repro.engine.packed.pack_weights`.
    The result is a plain-array :class:`~repro.engine.state.LayerState` that
    saves, memory-maps and ships across processes; wiring it back into an
    executable layer (:class:`_MappedComputeLayer`) is cheap.
    """
    layer = inst.layer
    p = params[inst.name]
    # Per-output-channel scales: every output channel owns its crossbar
    # column(s), and the TDC read-out is dequantised digitally, so each
    # channel can use the full integer range.
    quant = quantize_symmetric_per_channel(p.weights, arch.weight_bits)
    if isinstance(layer, Conv2D):
        kind = "conv"
        stride, pad, kernel = layer.stride, conv_padding(layer), layer.kernel_h
        n_groups, out_channels = layer.groups, layer.out_channels
        group_out = layer.out_channels // layer.groups
        matrices = [
            quant.values[g * group_out : (g + 1) * group_out].reshape(group_out, -1).T
            for g in range(layer.groups)
        ]  # each (C/g*Z*G, D/g)
    elif isinstance(layer, FullyConnected):
        kind = "fc"
        stride = pad = kernel = 0
        n_groups, out_channels = 1, layer.out_features
        matrices = [quant.values.T]
    else:  # pragma: no cover - guarded by validate_supported
        raise EngineError(f"layer {inst.name!r} is not a compute layer")

    # all groups stacked on one leading axis: (groups, rows, group_cols)
    q = np.stack(matrices).astype(np.int64, copy=False)
    state = LayerState(
        name=inst.name,
        index=inst.index,
        kind=kind,
        out_channels=out_channels,
        n_groups=n_groups,
        w_scales=quant.scales,
        bias=p.bias,
        stride=stride,
        pad=pad,
        kernel=kernel,
    )
    if backend == "packed":
        state.encoded, state.conductances = pack_weights(q, arch, mode, compute_dtype)
    else:
        # the legacy tiled backend re-programs its per-crossbar objects from
        # the quantised weights on wiring (deterministic, so bit-identical)
        state.q = q
    return state


def program(
    network: Network,
    ctx: Optional[SimContext] = None,
    mode: str = "analog",
    params: Optional[NetworkParams] = None,
    backend: Optional[str] = None,
) -> ProgrammedState:
    """Program a network's weights onto crossbars: the one-time phase.

    Quantises, lays out and (for the packed backend) bit-slices every
    conv/FC layer into a :class:`~repro.engine.state.ProgrammedState` —
    the artifact the paper's economics revolve around: built once, then
    executed many times via :meth:`NetworkExecutor.from_state`, saved to
    disk, or shared across processes.  The state is noise-free (base
    conductances); programming variation, which varies per Monte-Carlo
    trial, is applied at wiring time from the trial's noise streams.
    """
    if mode not in MODES:
        raise EngineError(f"unknown engine mode {mode!r}; choose from: {MODES}")
    ctx = ctx or SimContext()
    backend = backend if backend is not None else ctx.backend
    if backend not in ENGINE_BACKENDS:
        raise EngineError(
            f"unknown engine backend {backend!r}; choose from: {ENGINE_BACKENDS}"
        )
    validate_supported(network)
    params = params or NetworkParams(network, ctx.seed)
    layers = [
        program_layer(inst, params, ctx.arch, mode, backend, ctx.compute_dtype)
        for inst in network.compute_instances
    ]
    return ProgrammedState(
        model=network.name,
        mode=mode,
        backend=backend,
        seed=ctx.seed,
        arch=ctx.arch,
        layers=layers,
        compute_dtype=ctx.compute_dtype,
    )


def _check_state(
    state: ProgrammedState,
    network: Network,
    ctx: SimContext,
    mode: str,
    backend: str,
) -> None:
    """Reject a programmed state that does not match the execution request.

    A mismatched state would silently execute the wrong chip: different
    weights (model/seed), different conductance grid (arch), or tensors
    laid out for the other backend.  Each is a hard error.
    """
    mismatches = []
    if state.model != network.name:
        mismatches.append(f"model {state.model!r} != {network.name!r}")
    if state.mode != mode:
        mismatches.append(f"mode {state.mode!r} != {mode!r}")
    if state.backend != backend:
        mismatches.append(f"backend {state.backend!r} != {backend!r}")
    if state.seed != ctx.seed:
        mismatches.append(f"seed {state.seed} != {ctx.seed}")
    if state.compute_dtype != ctx.compute_dtype:
        mismatches.append(
            f"compute_dtype {state.compute_dtype!r} != {ctx.compute_dtype!r}"
        )
    if state.arch != ctx.arch:
        mismatches.append(f"arch {state.arch} != {ctx.arch}")
    if not mismatches:
        expected = [inst.name for inst in network.compute_instances]
        got = [ls.name for ls in state.layers]
        if got != expected:
            mismatches.append(f"layers {got} != {expected}")
    if mismatches:
        raise EngineError(
            "programmed state does not match this execution request: "
            + "; ".join(mismatches)
        )


def _layer_crossbars(state: LayerState, arch) -> int:
    """Crossbars a layer state occupies, from payload geometry alone.

    Lets a streaming executor report tile counts without wiring any layer
    (reading a memory-mapped payload's ``.shape`` touches no data pages).
    Matches both backends' own counting: ``groups x row_tiles x col_tiles``.
    """
    payload = state.encoded
    if payload is None:
        payload = state.conductances[0] if state.conductances else state.q
    n_groups, rows_needed, group_cols = payload.shape
    row_tiles = math.ceil(rows_needed / arch.rows)
    col_tiles = math.ceil(group_cols / arch.weights_per_col_tile)
    return n_groups * row_tiles * col_tiles


class _MappedComputeLayer:
    """One conv/FC layer wired for execution from its programmed state."""

    def __init__(
        self,
        state: LayerState,
        ctx: SimContext,
        mode: str,
        backend: str,
    ):
        self.backend = backend
        self.name = state.name
        self.kind = state.kind
        self.w_scales = state.w_scales  # (out_channels,)
        self.bias = state.bias
        self.stride = state.stride
        self.pad = state.pad
        self.kernel = state.kernel
        self.n_groups = state.n_groups
        self.out_channels = state.out_channels
        #: hot-loop tier request for the code gather (performance
        #: metadata off the context; never part of the layer state)
        self._kernel_tier = ctx.kernel
        # noise scopes derive from the layer index, so noisy draws are
        # independent of how many executors were constructed before this one
        if backend == "packed":
            self._packed = PackedMatmul.from_packed(
                state.encoded, state.conductances, ctx, mode, salt=state.index
            )
            self._groups: List[TiledMatmul] = []
        else:
            self._packed = None
            self._groups = [
                TiledMatmul(state.q[g], ctx, mode, salt=(state.index, g))
                for g in range(state.n_groups)
            ]

    @property
    def crossbars(self) -> int:
        if self._packed is not None:
            return self._packed.crossbars
        return sum(group.crossbars for group in self._groups)

    @property
    def fault_report(self):
        """Merged :class:`repro.faults.FaultReport` of this layer (or ``None``)."""
        if self._packed is not None:
            return self._packed.fault_report
        reports = [g.fault_report for g in self._groups if g.fault_report is not None]
        if not reports:
            return None
        from repro.faults import FaultReport

        merged = FaultReport()
        for report in reports:
            merged.merge(report)
        return merged

    @property
    def programmed_bytes(self) -> int:
        if self._packed is not None:
            return self._packed.programmed_bytes
        return sum(group.programmed_bytes for group in self._groups)

    def _tiled_matmul(self, codes: np.ndarray) -> np.ndarray:
        """Run ``(positions, total_rows)`` codes through the per-group tiles."""
        if self.n_groups == 1:
            return self._groups[0].matmul(codes)
        group_rows = codes.shape[1] // self.n_groups
        return np.concatenate(
            [
                self._groups[g].matmul(codes[:, g * group_rows : (g + 1) * group_rows])
                for g in range(self.n_groups)
            ],
            axis=1,
        )

    def forward(self, acts: np.ndarray, input_bits: int) -> np.ndarray:
        """Quantise a batch, run it through the tiles, dequantise the result.

        ``acts`` is ``(N, C, H, W)`` for conv layers or ``(N, features)``
        for FC layers (a 1×1 window over an ``(N, features, 1, 1)`` view);
        each image gets its own quantisation scale while the matmuls run
        once over the whole batch.
        """
        try:
            values, in_scales = quantize_unsigned_batch(acts, input_bits)
        except ValueError as exc:  # negative activations
            raise EngineError(
                f"layer {self.name!r} received negative inputs; the "
                "time-domain engine encodes activations as unsigned "
                "(post-ReLU) codes"
            ) from exc
        n = values.shape[0]
        if self.kind == "fc":
            values = values.reshape(n, -1, 1, 1)
            kernel = stride = 1
        else:
            kernel, stride = self.kernel, self.stride
        if self._packed is not None:
            # the only-once input read: one dispatched gather reads the
            # codes (channels-last from the previous layer, any strides),
            # converts each window element once into the layer's crossbar
            # operand and sums the codes per group — the channel-major
            # patch layout keeps each group's rows contiguous
            packed = self._packed
            operand, code_sums, out_h, out_w = im2col_pack(
                values,
                kernel,
                stride,
                self.pad,
                groups=self.n_groups,
                scale=packed.operand_scale,
                dtype=packed.operand_dtype,
                kernel=self._kernel_tier,
            )
            out = packed.matmul(operand, code_sums)
        else:
            cols, out_h, out_w = F.im2col_batch(values, kernel, stride, self.pad)
            out = self._tiled_matmul(cols.reshape(-1, cols.shape[2]))
        positions = out_h * out_w
        out = out.reshape(n, positions, self.out_channels)
        np.multiply(out, self.w_scales[None, None, :] * in_scales[:, None, None], out=out)
        if self.bias is not None:
            np.add(out, self.bias, out=out)
        if self.kind == "fc":
            return out.reshape(n, self.out_channels)
        return out.transpose(0, 2, 1).reshape(n, self.out_channels, out_h, out_w)


class NetworkExecutor:
    """Execute a network through its crossbar mapping, tracking accuracy.

    Parameters
    ----------
    network:
        A resolved network graph — linear chains and branching DAGs
        (ResNet residual joins, SqueezeNet fire concatenations) alike.
    ctx:
        The :class:`repro.context.SimContext` supplying architecture, noise
        and the seed for deterministic parameter generation.
    mode:
        ``"analog"`` (full time-domain chains) or ``"ideal"`` (exact tile
        read-out; isolates quantisation error from analog error).
    params:
        Optional pre-built parameters; defaults to
        ``NetworkParams(network, ctx.seed)``.
    backend:
        ``"packed"`` (vectorized per-slice tensors) or ``"tiled"`` (legacy
        per-crossbar objects); defaults to the context's ``backend`` field.
    state:
        Optional pre-programmed :class:`~repro.engine.state.ProgrammedState`
        (e.g. from a :class:`~repro.engine.state.ProgrammedStateCache`); the
        expensive programming phase is then skipped and the executor is
        wired straight from the stored tensors — bit-for-bit identical
        outputs, noise included.  Without it, the constructor programs the
        network itself (the historical one-shot behaviour, now a thin
        compose of :func:`program` and the wiring step).
    stream:
        With ``True``, no layer is wired at construction: each run wires
        one compute layer at a time — for a disk-backed state on **fresh
        per-layer file handles** (:meth:`ProgrammedState.stream_layer`) —
        executes it and drops every reference before the next layer, so
        peak weight memory is the largest single layer instead of the sum
        over all layers (``ExecutionResult.peak_wired_bytes`` records the
        observed bound).  Outputs are bit-identical to the resident path
        at the same context: noise draws derive from ``(seed, layer
        salt)``, never from wiring order.  Combine with a
        ``ProgrammedState.load(..., mmap=True)`` state for the full
        larger-than-RAM effect.
    """

    def __init__(
        self,
        network: Network,
        ctx: Optional[SimContext] = None,
        mode: str = "analog",
        params: Optional[NetworkParams] = None,
        backend: Optional[str] = None,
        state: Optional[ProgrammedState] = None,
        stream: bool = False,
    ):
        if mode not in MODES:
            raise EngineError(f"unknown engine mode {mode!r}; choose from: {MODES}")
        self.network = network
        self.ctx = ctx or SimContext()
        self.mode = mode
        self.backend = backend if backend is not None else self.ctx.backend
        if self.backend not in ENGINE_BACKENDS:
            raise EngineError(
                f"unknown engine backend {self.backend!r}; "
                f"choose from: {ENGINE_BACKENDS}"
            )
        validate_supported(network)
        self.params = params or NetworkParams(network, self.ctx.seed)
        self.mapping = self.ctx.map_network(network)
        if state is None:
            state = program(
                network, self.ctx, mode, params=self.params, backend=self.backend
            )
        else:
            _check_state(state, network, self.ctx, mode, self.backend)
        self.state = state
        self.stream = stream
        #: layer name -> position in ``state.layers`` (compute layers only)
        self._positions: Dict[str, int] = {
            ls.name: i for i, ls in enumerate(state.layers)
        }
        self._compute: Dict[str, _MappedComputeLayer] = {}
        if not stream:
            self._compute = {
                ls.name: _MappedComputeLayer(ls, self.ctx, mode, self.backend)
                for ls in state.layers
            }

    def _wire_layer(self, name: str) -> _MappedComputeLayer:
        """The executable layer for ``name`` — resident, or freshly streamed."""
        if not self.stream:
            return self._compute[name]
        streamed = self.state.stream_layer(self._positions[name])
        return _MappedComputeLayer(streamed, self.ctx, self.mode, self.backend)

    @classmethod
    def from_state(
        cls,
        state: ProgrammedState,
        network: Optional[Network] = None,
        ctx: Optional[SimContext] = None,
        params: Optional[NetworkParams] = None,
        stream: bool = False,
    ) -> "NetworkExecutor":
        """Wire an executor from a programmed state, skipping programming.

        ``network`` defaults to rebuilding the state's model from the zoo;
        ``ctx`` defaults to a noise-free context matching the state (pass
        one with a noise model to apply per-trial programming variation on
        top of the stored base conductances — the Monte-Carlo path).  The
        context's architecture, seed, backend and compute dtype must match
        the state's.  ``stream=True`` wires nothing up front and executes
        layer-by-layer against the state's backing files (see the
        constructor's ``stream`` parameter).
        """
        if network is None:
            from repro.nn.models import build_model

            network = build_model(state.model)
        if ctx is None:
            ctx = SimContext(
                arch=state.arch,
                seed=state.seed,
                backend=state.backend,
                compute_dtype=state.compute_dtype,
            )
        return cls(
            network,
            ctx,
            state.mode,
            params=params,
            backend=state.backend,
            state=state,
            stream=stream,
        )

    @property
    def crossbars(self) -> int:
        """Programmed physical crossbars (pairs counted once, as the mapper does)."""
        if self.stream:
            return sum(
                _layer_crossbars(ls, self.ctx.arch) for ls in self.state.layers
            )
        return sum(layer.crossbars for layer in self._compute.values())

    @property
    def programmed_bytes(self) -> int:
        """Resident bytes of the programmed weight state across all layers.

        Packed: the per-slice conductance tensors; tiled: the integer levels
        plus conductances of every physical crossbar.  The bench adds this to
        the traced forward-pass peak for its memory figure.  A streaming
        executor wires nothing up front, so this reports the backing
        state's payload bytes (for a memory-mapped state those live on
        disk, not in RAM — ``ExecutionResult.peak_wired_bytes`` is the
        resident bound there).
        """
        if self.stream:
            return self.state.nbytes
        return sum(layer.programmed_bytes for layer in self._compute.values())

    def random_input(self, salt: int = 1) -> np.ndarray:
        """A deterministic non-negative input image for this context's seed."""
        shape = self.network.input_shape
        return self.ctx.rng(salt).uniform(
            0.0, 1.0, size=(shape.channels, shape.height, shape.width)
        )

    def random_batch(self, n: int, salt: int = 1) -> np.ndarray:
        """``n`` deterministic input images; ``random_batch(1)[0]`` equals
        :meth:`random_input` for the same salt."""
        if n <= 0:
            raise EngineError("batch size must be positive")
        shape = self.network.input_shape
        return self.ctx.rng(salt).uniform(
            0.0, 1.0, size=(n, shape.channels, shape.height, shape.width)
        )

    def run_reference(self, x: np.ndarray) -> np.ndarray:
        """The float reference output for ``x`` with this executor's weights."""
        return reference_forward(self.network, self.params, x)[0]

    def run(
        self,
        x: Optional[np.ndarray] = None,
        validate: bool = True,
        free_activations: bool = True,
    ) -> ExecutionResult:
        """Execute ``x`` (default: :meth:`random_input`) through the crossbars.

        The network graph is walked in deterministic topological order; for
        a linear chain that is exactly the declaration order, so sequential
        models take the same numeric path as the flat executor always did.
        An activation is freed as soon as its last consumer has run
        (``free_activations=False`` keeps everything resident — the bench
        uses it to pin the liveness memory win); the observed peak is
        reported as ``peak_activation_bytes``.

        ``x`` may be a single ``(C, H, W)`` image or an ``(N, C, H, W)``
        batch; the output mirrors the input's batchedness.  With
        ``validate=False`` the float reference forward pass is skipped
        entirely (the per-layer traces then carry NaN relative errors) —
        use it for throughput runs where the double-compute would dominate.
        """
        act = np.asarray(x, dtype=float) if x is not None else self.random_input()
        single = act.ndim == 3
        if single:
            batch = act[None]
        elif act.ndim == 4:
            batch = act
        else:
            raise EngineError(
                "engine inputs must be (channels, height, width) images or "
                f"(batch, channels, height, width) batches, got shape {act.shape}"
            )
        if np.any(batch < 0):
            raise EngineError("engine inputs must be non-negative (unsigned input codes)")

        ref_acts: Optional[Dict[str, np.ndarray]] = None
        if validate:
            # one batched float pass — not N separate Python-loop forwards
            ref_acts = reference_forward_batch(self.network, self.params, batch)[1]

        order = self.network.topological_order()
        output_name = self.network.output.name
        # remaining-consumer counts per producer, straight from the graph's
        # liveness map; duplicate edges (a node consuming one producer
        # twice) count twice
        pending: Dict[str, int] = {
            name: len(dests) for name, dests in self.network.consumers().items()
        }
        live: Dict[str, np.ndarray] = {NETWORK_INPUT: batch}
        peak_bytes = _live_buffer_bytes(live.values())
        peak_wired = 0 if self.stream else self.programmed_bytes
        total_stuck = total_remapped = 0
        traces: List[LayerTrace] = []
        for inst in order:
            operands = [live[src] for src in inst.inputs]
            layer_stuck = layer_remapped = 0
            if inst.name in self._positions:
                mapped = self._wire_layer(inst.name)
                out = mapped.forward(operands[0], self.ctx.arch.input_bits)
                crossbars = mapped.crossbars
                report = mapped.fault_report
                if report is not None:
                    layer_stuck = report.stuck_cells
                    layer_remapped = report.remapped_rows
                    total_stuck += layer_stuck
                    total_remapped += layer_remapped
                if self.stream:
                    peak_wired = max(peak_wired, mapped.programmed_bytes)
                    # drop the streamed layer (and its file handles) before
                    # the next layer wires — this is the streaming bound
                    del mapped
            else:
                out = apply_aux_batched(inst, operands, self.params)
                crossbars = 0
            # every batch slice shares out.shape[1:], so checking one image
            # checks them all with the reference path's own shape logic
            check_activation_shape(inst, out[0])
            traces.append(
                LayerTrace(
                    name=inst.name,
                    kind=inst.kind,
                    crossbars=crossbars,
                    rel_error=(
                        relative_error(out, ref_acts[inst.name])
                        if ref_acts is not None
                        else float("nan")
                    ),
                    stuck_cells=layer_stuck,
                    remapped_rows=layer_remapped,
                )
            )
            live[inst.name] = out
            peak_bytes = max(peak_bytes, _live_buffer_bytes(live.values()))
            if free_activations:
                for src in set(inst.inputs):
                    pending[src] -= inst.inputs.count(src)
                    if pending[src] == 0 and src != output_name:
                        del live[src]
                if inst.name != output_name and pending[inst.name] == 0:
                    # a node nothing consumes (and which is not the output)
                    del live[inst.name]
        output = live[output_name]
        reference = None
        if ref_acts is not None:
            reference = ref_acts[output_name][0] if single else ref_acts[output_name]
        return ExecutionResult(
            model=self.network.name,
            mode=self.mode,
            backend=self.backend,
            output=output[0] if single else output,
            reference=reference,
            traces=traces,
            peak_activation_bytes=peak_bytes,
            peak_wired_bytes=peak_wired,
            stuck_cells=total_stuck,
            remapped_rows=total_remapped,
        )


def run_network(
    network: Network,
    ctx: Optional[SimContext] = None,
    x: Optional[np.ndarray] = None,
    mode: str = "analog",
    backend: Optional[str] = None,
    validate: bool = True,
) -> ExecutionResult:
    """One-shot convenience wrapper around :class:`NetworkExecutor`."""
    return NetworkExecutor(network, ctx, mode, backend=backend).run(x, validate=validate)
