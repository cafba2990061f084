"""Packed vectorized tile execution: one matmul per layer-slice.

:class:`PackedMatmul` is the performance backend behind
:class:`repro.engine.executor.NetworkExecutor` (``backend="packed"``, the
default).  It computes exactly what :class:`repro.engine.tiles.TiledMatmul`
computes — the integer matmul of input codes against offset-encoded,
bit-sliced weights, read out through the two-phase time-domain chains — but
stores and executes the layer as a whole instead of as a grid of crossbar
objects:

* the weights of **all tiles of all groups** are packed into one contiguous
  conductance tensor per bit-cell slice, shaped ``(groups, rows_needed,
  group_cols)`` — partial tiles live at their true ``height x width`` rather
  than zero-padded ``arch.rows x arch.cols`` arrays, which for a model like
  vgg_d shrinks programmed state from thousands of padded 256x256 int64 +
  float64 crossbars to ``n_slices`` float64 tensors the size of the weights,
* inputs are converted once, then forwarded: the executor's single
  dispatched gather (:func:`repro.kernels.dispatch.im2col_pack`) reads each
  quantised code once and writes the layer's crossbar operand — DTC pulse
  widths, position-major — plus the exact per-group code sums.  This is
  TIMELY's only-once input read (O²IR, Section III-A): one DTC conversion
  per input, whose time pulse the X-subBufs forward to every crossbar that
  needs it.  Here every row tile, bit-cell slice and group reads that one
  operand through views, and nothing re-expands or re-converts it,
* one batched ``delays @ G`` matmul per row-tile slice replaces the Python
  loop over ``row_tiles x col_tiles x slices`` tile objects (the column-tile
  axis vanishes entirely: a packed slice holds every output column), and
  grouped convolutions ride the same call as a stacked leading matmul axis,
* the time-domain chain — phase-I charge, G_min offset subtraction, clip,
  phase-II threshold crossing, LSB rescale — is elementwise with per-chain
  scalars that are identical across a layer's tiles
  (:class:`repro.circuits.timing.TimeDomainChainSpec`), so it runs as one
  vectorized :meth:`~repro.circuits.timing.TimeDomainChainSpec.read_out`
  pass over a charge tensor stacked across every tile, slice, batch
  position and output column at once.  The sub-ranging MSB/LSB pair of
  Section IV-C is simply the 2-slice case of this recombination.

Noiseless, the packed path matches the tiled path to float tolerance (both
recover the exact integer matmul through the same chain algebra).  With
noise enabled the two backends sample the *same* error models but draw in
different shapes/orders — the tiled path draws per 256x256 crossbar and per
tile read-out, the packed path draws once per slice tensor and once per
layer of delays — so results are statistically equivalent but not
bit-identical across backends.  Within one backend, runs are exactly
reproducible from the noise seed: every draw comes from a
:class:`repro.circuits.noise.NoiseStream` derived from ``(seed, layer
salt)``, so results are independent of how many other executors were
constructed first.
"""

from __future__ import annotations

import math
import queue
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.circuits.timing import TimeDomainChainSpec
from repro.context import ArchSpec, SimContext
from repro.engine.errors import EngineError
from repro.engine.tiles import MODES
from repro.kernels.dispatch import im2col_pack, readout_fused

#: float64 integer matmuls are exact below this product-sum magnitude
_EXACT_FLOAT_BOUND = float(2 ** 53)

#: per-dtype exactness bounds (mantissa width + 1) for the ideal-mode
#: integer matmul; a requested dtype whose bound the layer's worst-case
#: product sum exceeds falls back to the next wider dtype per layer
_EXACT_FLOAT_BOUNDS = {
    np.dtype(np.float64): _EXACT_FLOAT_BOUND,
    np.dtype(np.float32): float(2 ** 24),
}


def _worst_product_sum(arch: ArchSpec, rows_needed: int) -> float:
    """Upper bound of one ideal-mode output element before offset removal."""
    return (
        float(2 ** arch.input_bits - 1) * float(2 ** arch.weight_bits) * rows_needed
    )


def _flat_memory_view(a: np.ndarray) -> Optional[np.ndarray]:
    """A 1-D view of ``a`` in its own memory order, or ``None`` if strided."""
    if a.flags["C_CONTIGUOUS"]:
        return a.reshape(-1)
    if a.flags["F_CONTIGUOUS"]:
        return a.T.reshape(-1)
    return None


def _like(result: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Reshape a flat ufunc result back to ``template``'s shape and layout."""
    if result.shape == template.shape:  # strided fallback: nothing to undo
        return result
    if template.flags["C_CONTIGUOUS"]:
        return result.reshape(template.shape)
    return result.reshape(template.shape[::-1]).T


def pack_weights(
    q: np.ndarray,
    arch: ArchSpec,
    mode: str,
    compute_dtype: Union[str, np.dtype] = "float64",
) -> Tuple[Optional[np.ndarray], List[np.ndarray]]:
    """The expensive, noise-free half of packed programming.

    Offset-encodes the ``(groups, rows, group_cols)`` signed quantised
    weights and, in ``"analog"`` mode, bit-slices them into the per-slice
    *base* conductance tensors (no programming variation — that is applied
    per executor, so one packed payload serves every noise realisation).
    Returns ``(encoded, conductances)``: exactly one is populated —
    ``encoded`` for ``"ideal"`` mode, the conductance list for ``"analog"``.

    ``compute_dtype`` (:data:`repro.context.COMPUTE_DTYPES`) selects the
    storage/arithmetic precision of the packed tensors.  ``"float32"``
    halves the payload and switches the hot matmuls to single-precision
    BLAS; in ``"ideal"`` mode the request is honoured only when the
    layer's worst-case product sum stays below the dtype's exactness
    bound (:data:`_EXACT_FLOAT_BOUNDS`) — otherwise the layer silently
    falls back to float64 storage so exact integer read-out is never
    broken.  The chosen dtype is observable on the returned tensors (and
    as :attr:`PackedMatmul.compute_dtype` after wiring).

    This is the payload :class:`repro.engine.state.ProgrammedState` snapshots
    and :meth:`PackedMatmul.from_packed` rewires without recomputation.

    The elementwise passes run on a **flat memory-order view** of the
    stack.  ``q`` arrives Fortran-ordered (a stack of ``.T`` im2col
    matrices), and ufunc loops over such 3-D stacks degrade badly — tens
    of seconds per vgg_d FC layer, ~20x the sequential-walk cost — because
    the dimension with the huge stride defeats the iterator's loop
    coalescing.  A 1-D view walks the same bytes sequentially, and
    reshaping the results back **in the same order** reproduces the exact
    bytes *and* the exact layout of the direct computation — layout
    matters downstream, because BLAS picks summation paths by operand
    memory order.  Both branches preserve that layout: the ideal-mode
    encoded matrix keeps ``q``'s order via an order-preserving ``astype``
    (it used to be forced C-contiguous, silently discarding the F-order
    this docstring promises).
    """
    dtype = np.dtype(compute_dtype)
    if dtype not in _EXACT_FLOAT_BOUNDS:
        raise EngineError(
            f"unsupported packed compute dtype {dtype}; "
            f"choose from: {', '.join(str(d) for d in _EXACT_FLOAT_BOUNDS)}"
        )
    flat = _flat_memory_view(q)
    if flat is None:  # non-contiguous input: direct (strided) fallback
        flat = q
    offset = 2 ** (arch.weight_bits - 1)
    encoded_flat = flat + offset  # unsigned levels, memory order
    encoded = _like(encoded_flat, q)  # (G, R, C)
    if mode == "ideal":
        # The ideal read-out is linear, so the slice cascade recombines
        # back into the encoded matrix and one matmul suffices.  Per-layer
        # exactness fallback: a float32 request only sticks when the
        # worst-case product sum fits the 24-bit mantissa.
        if _worst_product_sum(arch, q.shape[1]) >= _EXACT_FLOAT_BOUNDS[dtype]:
            dtype = np.dtype(np.float64)
        # order='K' keeps q's memory layout (the F-ordered im2col stack)
        return encoded.astype(dtype, order="K"), []
    cell = arch.cell_spec()
    mask = 2 ** arch.cell_bits - 1
    conductances: List[np.ndarray] = []
    for s in range(arch.cols_per_weight):
        levels = (encoded_flat >> (arch.cell_bits * s)) & mask
        # same map as ReRAMCellSpec.weight_to_conductance, without the
        # range scan (the mask guarantees valid levels) and with in-place
        # scaling so deep models don't pay an extra weights-sized
        # temporary per slice
        slice_conductances = levels.astype(dtype)
        del levels
        slice_conductances *= dtype.type(cell.g_step_s)
        slice_conductances += dtype.type(cell.g_min_s)
        conductances.append(_like(slice_conductances, q))
    return None, conductances


class PackedMatmul:
    """Integer matmul of one layer (all groups) through packed slice tensors.

    Parameters
    ----------
    q_weights:
        Signed integer weights, either ``(rows_needed, out_cols)`` in im2col
        layout (one weight-sharing group) or ``(groups, rows_needed,
        group_cols)`` for grouped convolutions; quantised to
        ``ctx.arch.weight_bits`` bits.
    ctx:
        The simulation context supplying geometry, cell/converter specs and
        the (optional) noise model.
    mode:
        ``"analog"`` (vectorized time-domain chains) or ``"ideal"`` (exact
        integer read-out).
    salt:
        Identifies this layer's noise scope (the executor passes the layer
        index).  Programming and read-out noise streams derive from
        ``(ctx.noise.seed, salt)``, so noisy results are independent of
        construction order.
    """

    def __init__(
        self,
        q_weights: np.ndarray,
        ctx: SimContext,
        mode: str = "analog",
        salt: Union[int, tuple] = 0,
    ):
        if mode not in MODES:
            raise EngineError(f"unknown engine mode {mode!r}; choose from: {MODES}")
        arch = ctx.arch
        q = np.asarray(q_weights, dtype=np.int64)
        if q.ndim == 2:
            q = q[None]
        elif q.ndim != 3:
            raise EngineError(
                "q_weights must be a 2-D (rows, out_cols) matrix or a 3-D "
                "(groups, rows, group_cols) stack"
            )
        qmax = 2 ** (arch.weight_bits - 1) - 1
        if np.any(q < -qmax) or np.any(q > qmax):
            raise EngineError(
                f"quantised weights must lie in [{-qmax}, {qmax}] for "
                f"{arch.weight_bits}-bit symmetric quantisation"
            )
        encoded, conductances = pack_weights(q, arch, mode, ctx.compute_dtype)
        self._wire(encoded, conductances, ctx, mode, salt)

    @classmethod
    def from_packed(
        cls,
        encoded: Optional[np.ndarray],
        conductances: List[np.ndarray],
        ctx: SimContext,
        mode: str = "analog",
        salt: Union[int, tuple] = 0,
    ) -> "PackedMatmul":
        """Wire a matmul from a pre-packed payload, skipping programming.

        ``(encoded, conductances)`` is a :func:`pack_weights` result (e.g.
        loaded from a :class:`repro.engine.state.ProgrammedState`, possibly
        memory-mapped).  With noise enabled, per-trial programming variation
        is applied here on copies of the base tensors — the same seed-stable
        draws the one-shot constructor makes, so outputs are bit-identical;
        the payload itself is never mutated, so a cached state can be shared
        by any number of executors.
        """
        if mode not in MODES:
            raise EngineError(f"unknown engine mode {mode!r}; choose from: {MODES}")
        if mode == "ideal":
            if encoded is None:
                raise EngineError("ideal-mode packed state is missing its encoded matrix")
        elif len(conductances) != ctx.arch.cols_per_weight:
            raise EngineError(
                f"analog packed state holds {len(conductances)} slice tensors; "
                f"this architecture needs {ctx.arch.cols_per_weight}"
            )
        matmul = cls.__new__(cls)
        matmul._wire(encoded, conductances, ctx, mode, salt)
        return matmul

    def _wire(
        self,
        encoded: Optional[np.ndarray],
        conductances: List[np.ndarray],
        ctx: SimContext,
        mode: str,
        salt: Union[int, tuple],
    ) -> None:
        """Cheap construction from a packed payload (geometry + noise scopes)."""
        arch = ctx.arch
        shape = encoded.shape if encoded is not None else conductances[0].shape
        self.ctx = ctx
        self.mode = mode
        self.n_groups, self.rows_needed, self.group_cols = shape
        self.out_cols = self.n_groups * self.group_cols
        #: offset making the encoded levels unsigned; removed digitally
        self.offset = 2 ** (arch.weight_bits - 1)

        self.row_tiles = math.ceil(self.rows_needed / arch.rows)
        weights_per_tile = arch.weights_per_col_tile
        if weights_per_tile == 0:
            raise EngineError(
                f"a {arch.cols}-column tile cannot hold a single "
                f"{arch.weight_bits}-bit weight ({arch.cols_per_weight} "
                f"bit-cell columns per weight)"
            )
        self.col_tiles = math.ceil(self.group_cols / weights_per_tile)
        self.n_slices = arch.cols_per_weight
        #: arithmetic precision of this layer's packed tensors — decided at
        #: packing time (pack_weights may have fallen back to float64 for
        #: exactness), so it is read off the payload, not the context
        payload = encoded if encoded is not None else conductances[0]
        self.compute_dtype = np.dtype(payload.dtype)
        #: power-of-two digital recombination weights of the slice cascade.
        #: Always float64: the recombination and offset correction work on
        #: ``~offset * sum(codes)``-magnitude operands whose difference is
        #: orders of magnitude smaller, so float32 here would turn the
        #: digital (exact) half of the pipeline into the accuracy
        #: bottleneck — only the analog gemm + read-out chain drop to
        #: float32, the digital recombination stays double.
        self.shifts = np.array(
            [float(2 ** (arch.cell_bits * s)) for s in range(self.n_slices)]
        )
        #: (start, height) of every row tile in the packed row axis
        self._row_spans: List[Tuple[int, int]] = [
            (rt * arch.rows, min(arch.rows, self.rows_needed - rt * arch.rows))
            for rt in range(self.row_tiles)
        ]
        #: chain scalars shared by every tile of the layer (full tile height)
        self.spec = TimeDomainChainSpec.from_context(ctx)
        #: hot-loop tier request and chunk-walk worker count — performance
        #: metadata off the context (compare=False there, absent from every
        #: content key); results do not depend on either
        self._kernel: Optional[str] = ctx.kernel
        self._threads = int(ctx.threads)
        #: noise scopes derived from (seed, salt) — construction-order free
        salt_parts = salt if isinstance(salt, tuple) else (salt,)
        program_noise = None
        self._read_noise = None
        if ctx.noise is not None:
            program_noise = ctx.noise.stream("packed", *salt_parts, "program")
            self._read_noise = ctx.noise.stream("packed", *salt_parts, "read")

        #: how the gather converts this layer's codes (convert once, then
        #: forward): DTC pulse widths in the compute dtype, except that
        #: ideal mode wants the raw codes in the encoded dtype and a
        #: jittered DTC draws on the raw codes (as float64) itself
        self._jittered = (
            mode == "analog"
            and self._read_noise is not None
            and self._read_noise.dtc_sigma > 0
        )
        self.operand_dtype = np.dtype(np.float64) if self._jittered else self.compute_dtype
        self.operand_scale = 1.0 if self._jittered or mode == "ideal" else self.spec.dtc.t_del_s

        self._encoded = encoded
        if program_noise is not None:
            # per-executor programming variation over the shared base tensors;
            # draws are consumed slice-by-slice exactly as the one-shot
            # constructor consumed them, so results stay bit-identical
            self._conductances = [
                program_noise.apply_conductance_variation(c) for c in conductances
            ]
        else:
            self._conductances = list(conductances)

        # hard faults (stuck cells / drift / saturation): wiring-time, like
        # variation, so the shared payload — possibly a read-only mmap of a
        # cached ProgrammedState — is never mutated and stays fault-free
        faults = ctx.faults
        self.fault_report = None
        self._saturation = None
        if mode == "analog" and faults is not None and faults.active:
            if faults.cell_active:
                from repro.faults import FaultReport, apply_tile_faults

                varied = (
                    program_noise is not None
                    and program_noise.reram_conductance_sigma > 0
                )
                if not varied:
                    # the variation path above already produced fresh
                    # writable tensors; otherwise fault on private copies
                    self._conductances = [
                        c.copy(order="K") for c in self._conductances
                    ]
                cell = arch.cell_spec()
                report = FaultReport()
                for g in range(self.n_groups):
                    for rt, (r0, height) in enumerate(self._row_spans):
                        views = [
                            c[g, r0 : r0 + height, :] for c in self._conductances
                        ]
                        report.merge(
                            apply_tile_faults(
                                views,
                                cell,
                                faults,
                                arch.spare_rows,
                                ("packed", *salt_parts, "fault", g, rt),
                            )
                        )
                self.fault_report = report
            if faults.readout_saturation is not None:
                self._saturation = float(faults.readout_saturation)
        # exactness bound for the float integer matmul of the ideal path,
        # checked at the *stored* precision (pack_weights already widened
        # a float32 request that could not stay exact)
        bound = _EXACT_FLOAT_BOUNDS.get(self.compute_dtype, _EXACT_FLOAT_BOUND)
        self._ideal_exact = _worst_product_sum(arch, self.rows_needed) < bound

    @property
    def crossbars(self) -> int:
        """Physical crossbars occupied (matches ``LayerMapping`` counting)."""
        return self.n_groups * self.row_tiles * self.col_tiles

    @property
    def packed_bytes(self) -> int:
        """Bytes held by the packed weight state (conductances or levels)."""
        if self._encoded is not None:
            return self._encoded.nbytes
        return sum(g.nbytes for g in self._conductances)

    @property
    def programmed_bytes(self) -> int:
        """Backend-uniform alias of :attr:`packed_bytes` (cf. ``TiledMatmul``)."""
        return self.packed_bytes

    def gather(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The :meth:`matmul` operands of a ``(positions, rows)`` code matrix.

        ``codes`` holds unsigned input codes with the groups' blocks
        concatenated along the row axis (the
        :meth:`~repro.engine.tiles.TiledMatmul.matmul` contract); their
        shape and range are checked.  They go through the executor's own
        gather as a 1×1 window, so code-matrix callers exercise exactly
        the engine's conversion.
        """
        codes = np.asarray(codes, dtype=np.int64)
        expected_rows = self.n_groups * self.rows_needed
        if codes.ndim != 2 or codes.shape[1] != expected_rows:
            raise EngineError(
                f"expected codes of shape (positions, {expected_rows}), "
                f"got {codes.shape}"
            )
        levels = 2 ** self.ctx.arch.input_bits
        if np.any(codes < 0) or np.any(codes >= levels):
            raise EngineError(
                f"input codes must lie in [0, {levels - 1}] for "
                f"{self.ctx.arch.input_bits}-bit inputs"
            )
        operand, code_sums, _, _ = im2col_pack(
            codes[:, :, None, None],
            1,
            groups=self.n_groups,
            scale=self.operand_scale,
            dtype=self.operand_dtype,
            kernel=self._kernel,
        )
        return operand, code_sums

    def matmul(self, operand: np.ndarray, code_sums: np.ndarray) -> np.ndarray:
        """Drive the packed slices with converted inputs and recombine.

        ``operand`` is the ``(positions, n_groups * rows_needed)``
        position-major crossbar input that
        :func:`repro.kernels.dispatch.im2col_pack` produced with this
        layer's :attr:`operand_scale` / :attr:`operand_dtype` — in the
        noiseless analog case the DTC pulse widths themselves.  TIMELY's
        O²IR converts each input once and forwards the time pulse through
        the X-subBufs to every crossbar that needs it; here the single
        converted operand is read, unchanged and uncopied, by every row
        tile and bit-cell slice of every group (a ``(G, positions, R)``
        view).  ``code_sums`` is the gather's ``(n_groups, positions)``
        exact integer code sum per group, the operand of the digital
        offset removal.  Returns the signed dot products as
        ``(positions, out_cols)``.
        """
        positions = operand.shape[0]
        # (G, positions, R): one leading matmul axis per weight-sharing group
        grouped = operand.reshape(
            positions, self.n_groups, self.rows_needed
        ).transpose(1, 0, 2)

        if self.mode == "ideal":
            if self._ideal_exact:
                # float32 payloads are exact here by construction (the
                # pack-time bound check), so the upcast back to float64
                # for the digital correction is lossless
                products = (grouped @ self._encoded).astype(np.float64, copy=False)
            else:  # fall back to (slow) integer matmul beyond the float bound
                products = (
                    grouped.astype(np.int64) @ self._encoded.astype(np.int64, order="K")
                ).astype(np.float64)
        else:
            delays = grouped  # the DTC pulse widths themselves
            if self._jittered:
                # the gather delivered integer-valued codes; the jittered
                # DTC draws on them in the historical (G, P, R) shape/order
                delays = self.spec.dtc.convert(grouped, self._read_noise)
                delays = delays.astype(self.compute_dtype, copy=False)
            products = self._analog_products(delays, positions)

        # Digital offset removal: every programmed weight carries ``+offset``,
        # so each group's columns over-count by ``offset * sum(group codes)``.
        # The subtraction writes straight into the (positions, G, cols)
        # output, concatenating the groups' columns (group-major channel
        # order) in the same pass.
        target = (
            products
            if self.n_groups == 1
            else np.empty((positions, self.n_groups, self.group_cols)).transpose(1, 0, 2)
        )
        np.subtract(products, (self.offset * code_sums)[:, :, None], out=target)
        return target.transpose(1, 0, 2).reshape(positions, self.out_cols)

    def _position_chunk(self, positions: int) -> int:
        """Positions per charge chunk under ``ctx.chunk_bytes`` (all if unset)."""
        budget = self.ctx.chunk_bytes
        if budget is None:
            return positions
        per_position = (
            self.row_tiles
            * self.n_slices
            * self.n_groups
            * self.group_cols
            * self.compute_dtype.itemsize
        )
        return max(1, min(positions, budget // max(1, per_position)))

    def _chunk_buffers(self, chunk: int) -> Tuple[np.ndarray, np.ndarray]:
        """One reusable (charges, delay_sums) buffer pair for the chunk walk."""
        dtype = self.compute_dtype
        charges = np.empty(
            (self.row_tiles, self.n_slices, self.n_groups, chunk, self.group_cols),
            dtype=dtype,
        )
        delay_sums = np.empty((self.row_tiles, 1, self.n_groups, chunk, 1), dtype=dtype)
        return charges, delay_sums

    def _run_chunk(
        self,
        delays: np.ndarray,
        out: np.ndarray,
        p0: int,
        n: int,
        buffers: Tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Charge, read out and recombine positions ``[p0, p0 + n)``.

        Fills the chunk's slice of ``out`` and touches nothing else, so
        chunks are independent: the serial walk and the thread pool call
        this identically (on identically-shaped buffers — the chunk split
        never depends on the worker count), which is what makes threaded
        results byte-identical to serial ones.
        """
        spec = self.spec
        charges, delay_sums = buffers
        block = charges[:, :, :, :n]
        sums = delay_sums[:, :, :, :n]
        for rt, (r0, height) in enumerate(self._row_spans):
            d = delays[:, p0 : p0 + n, r0 : r0 + height]
            sums[rt, 0, :, :, 0] = d.sum(axis=2)
            for s, conductances in enumerate(self._conductances):
                np.matmul(d, conductances[:, r0 : r0 + height, :], out=block[rt, s])
        block *= self.compute_dtype.type(spec.v_dd)
        # the whole per-chunk chain — reference-column subtract, clips,
        # phase-I/II conversion, optional early-TDC saturation and the
        # slice-cascade recombination (sum over row tiles t, power-of-two
        # weights over s) — in one dispatched kernel call, fully in place
        # on the chunk buffer, accumulated straight into the output slice
        readout_fused(
            block,
            sums,
            spec.scalars(),
            out=block,
            saturation=self._saturation,
            shifts=self.shifts,
            recombine_out=out[:, p0 : p0 + n],
            kernel=self._kernel,
        )

    def _run_chunk_pooled(
        self,
        delays: np.ndarray,
        out: np.ndarray,
        p0: int,
        n: int,
        buffer_pool: "queue.Queue[Tuple[np.ndarray, np.ndarray]]",
    ) -> None:
        """Thread-pool task: borrow a buffer pair, run one chunk, return it."""
        buffers = buffer_pool.get()
        try:
            self._run_chunk(delays, out, p0, n, buffers)
        finally:
            buffer_pool.put(buffers)

    def _analog_products(self, delays: np.ndarray, positions: int) -> np.ndarray:
        """Time-domain estimate of the grouped integer products.

        ``delays`` holds the ``(groups, positions, rows)`` DTC pulse widths
        in the compute dtype.  One ``delays @ G`` matmul per (row tile,
        slice) fills a charge tensor of shape ``(row_tiles, n_slices,
        groups, chunk, group_cols)``; the
        elementwise chain and the digital recombination — the sum over row
        tiles and the power-of-two slice cascade — then run as one fused
        :func:`repro.kernels.dispatch.readout_fused` pass per chunk, fully
        in place on the chunk buffer (zero chain temporaries), accumulated
        straight into the ``(groups, positions, group_cols)`` output.

        With ``ctx.chunk_bytes`` unset the chunk is the whole batch (the
        historical single-pass behaviour, bit-identical to prior
        releases).  When set, the position axis is walked in bounded
        chunks reusing one charge buffer, so a layer's peak transient
        memory is one chunk instead of ``row_tiles x n_slices`` copies of
        the entire im2col output.  The full delay tensor (and any DTC
        jitter draw on it) is computed *before* the chunk walk, so noisy
        results are independent of the chunking.

        With ``ctx.threads > 1`` (and more than one chunk) the chunks run
        concurrently on a bounded :class:`ThreadPoolExecutor` over a pool
        of per-worker buffer pairs — the BLAS matmul and the compiled
        read-out kernel both release the GIL, so the walk scales with
        cores.  The chunk split depends only on ``chunk_bytes`` and every
        chunk writes a disjoint output slice, so the result is
        byte-identical at any worker count.
        """
        chunk = self._position_chunk(positions)
        # float64 accumulator regardless of compute dtype: the slice/tile
        # recombination and the offset correction downstream cancel
        # large-magnitude operands (see the ``shifts`` note in ``_wire``)
        out = np.empty((self.n_groups, positions, self.group_cols))
        spans = [
            (p0, min(chunk, positions - p0)) for p0 in range(0, positions, chunk)
        ]
        workers = min(self._threads, len(spans))
        if workers > 1:
            buffer_pool: "queue.Queue[Tuple[np.ndarray, np.ndarray]]" = queue.Queue()
            for _ in range(workers):
                buffer_pool.put(self._chunk_buffers(chunk))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(self._run_chunk_pooled, delays, out, p0, n, buffer_pool)
                    for p0, n in spans
                ]
                for future in futures:
                    future.result()
        else:
            buffers = self._chunk_buffers(chunk)
            for p0, n in spans:
                self._run_chunk(delays, out, p0, n, buffers)
        return out
