"""Packed vectorized tile execution: one matmul per layer-slice.

:class:`PackedMatmul` is the engine path behind
:class:`repro.engine.executor.NetworkExecutor`.  It computes exactly what
the per-crossbar test oracle :class:`repro.engine.tiles.TiledMatmul`
computes — the integer matmul of input codes against offset-encoded,
bit-sliced weights, read out through the two-phase time-domain chains — but
stores and executes the layer as a whole instead of as a grid of crossbar
objects:

* the weights of **all tiles of all groups** are packed into one contiguous
  tensor of offset-encoded cell levels, shaped ``(groups, rows_needed,
  group_cols)`` in the narrowest unsigned dtype (``uint8`` for 8-bit
  weights) — partial tiles live at their true ``height x width`` rather
  than zero-padded ``arch.rows x arch.cols`` arrays, and the per-slice
  conductances are a fixed affine map of the levels, derived only when a
  layer runs the time-domain chain,
* inputs are converted once, then forwarded: the executor's single
  dispatched gather (:func:`repro.kernels.dispatch.im2col_pack`) reads each
  quantised code once and writes the layer's crossbar operand,
  position-major, plus the exact per-group code sums and — for the chain —
  its per-row-tile pulse-width sums (the delay sums every crossbar's
  reference column subtracts).  This is TIMELY's only-once input read
  (O²IR, Section III-A): one DTC conversion per input, whose time pulse the
  X-subBufs forward to every crossbar that needs it.  Here every row tile,
  bit-cell slice and group reads that one operand through views, and
  nothing re-expands, re-converts or re-sums it.

A layer is read out one of two ways (:attr:`PackedMatmul.readout`):

* ``"exact"`` — ideal mode, and every analog layer with nothing non-ideal
  to model (no programming variation, no DTC jitter, no stuck or drifting
  cells, no read-out saturation).  Noiseless, the time-domain chain only
  recovers the integer dot product (``T_i = d_i·T_del``, ``G = level·g_step
  + g_min``, the reference column cancels ``g_min·ΣT`` and both clamps stay
  inactive below ``dot_max``), so the layer computes that product directly:
  raw codes against the encoded levels as integer-valued float GEMMs.  When
  every row-tile product fits float32's 24-bit mantissa (8-bit codes and
  weights on 256-row tiles do: ``255·255·256 < 2**24``) each row tile runs
  one float32 GEMM, accumulated in float64; otherwise one float64 GEMM
  (exact below ``2**53``), or int64 beyond that.  The result is exact, so it
  does not depend on BLAS vendor, thread count, chunking or kernel tier.
* ``"chain"`` — the time-domain chain, for layers that do have a
  non-ideality to model.  One batched ``delays @ G`` matmul per row-tile
  slice replaces the Python loop over ``row_tiles x col_tiles x slices``
  tile objects (the column-tile axis vanishes entirely: a packed slice
  holds every output column), and grouped convolutions ride the same call
  as a stacked leading matmul axis.  The chain itself — phase-I charge
  (the V_DD scaling of the raw products), G_min offset subtraction, clip,
  phase-II threshold crossing, LSB rescale — is elementwise with per-chain
  scalars that are identical across a layer's tiles
  (:class:`repro.circuits.timing.TimeDomainChainSpec`), so it runs as one
  fused :func:`repro.kernels.dispatch.readout_fused` pass over the raw
  products stacked across every tile, slice, batch position and output
  column at once, together with the slice/tile recombination.  The
  sub-ranging MSB/LSB pair of Section IV-C is simply the 2-slice case of
  this recombination.

Noisy runs are exactly reproducible from the noise seed: every draw comes
from a :class:`repro.circuits.noise.NoiseStream` derived from ``(seed,
layer salt)``, so results are independent of how many other executors were
constructed first.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.circuits.timing import TimeDomainChainSpec
from repro.context import ArchSpec, SimContext
from repro.engine.errors import EngineError
from repro.kernels.dispatch import im2col_pack, readout_fused

#: engine read-out modes: the time-domain chains or the exact integer product
MODES = ("analog", "ideal")


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


def pack_weights(q: np.ndarray, arch: ArchSpec) -> np.ndarray:
    """The expensive, noise-free half of packed programming.

    Offset-encodes the ``(groups, rows, group_cols)`` signed quantised
    weights into unsigned cell levels, ``q + 2**(weight_bits - 1)``, in the
    narrowest unsigned dtype that holds ``weight_bits`` bits (``uint8`` up
    to 8 bits, ``uint16`` up to 16).  One payload serves both modes and
    every noise realisation: the exact read-out multiplies the levels
    directly, and the time-domain chain derives its per-slice base
    conductances from them at wiring time (:func:`slice_conductances`).
    This is the payload :class:`repro.engine.state.ProgrammedState`
    snapshots and :meth:`PackedMatmul.from_packed` rewires.

    The cast and offset run on a **flat memory-order view** of the stack.
    ``q`` arrives Fortran-ordered (a stack of ``.T`` im2col matrices), and
    ufunc loops over such 3-D stacks degrade badly — tens of seconds per
    vgg_d FC layer — because the dimension with the huge stride defeats the
    iterator's loop coalescing.  A 1-D view walks the same bytes
    sequentially, and reshaping the result back **in the same order** keeps
    ``q``'s layout, which the derived conductances inherit (BLAS picks
    summation paths by operand memory order, so the chain's bytes depend on
    it).  The cast wraps negative weights modulo ``2**bits`` and the offset
    addition wraps them back, so no int64 temporary is made.
    """
    dtype = np.min_scalar_type(2 ** arch.weight_bits - 1)
    flat = _flat_memory_view(q)
    if flat is None:  # non-contiguous input: direct (strided) fallback
        flat = q
    encoded = flat.astype(dtype, order="K")
    encoded += dtype.type(2 ** (arch.weight_bits - 1))
    return _like(encoded, q)


def slice_conductances(
    encoded: np.ndarray, arch: ArchSpec, dtype: np.dtype
) -> List[np.ndarray]:
    """The per-slice base conductances of an encoded level tensor.

    Slice ``s`` holds the cell levels ``(encoded >> cell_bits·s) & mask``
    mapped to ``level·g_step + g_min`` — the map of
    :meth:`repro.circuits.reram.ReRAMCellSpec.weight_to_conductance`,
    without its range scan (the mask guarantees valid levels) and scaled in
    place so deep models pay no extra weights-sized temporary per slice.
    Fresh writable tensors in ``encoded``'s layout, in ``dtype``.
    """
    flat = _flat_memory_view(encoded)
    if flat is None:
        flat = encoded
    cell = arch.cell_spec()
    mask = 2 ** arch.cell_bits - 1
    conductances: List[np.ndarray] = []
    for s in range(arch.cols_per_weight):
        levels = (flat >> (arch.cell_bits * s)) & mask
        slice_g = levels.astype(dtype)
        del levels
        slice_g *= dtype.type(cell.g_step_s)
        slice_g += dtype.type(cell.g_min_s)
        conductances.append(_like(slice_g, encoded))
    return conductances


def _exact_dtype(arch: ArchSpec, rows_needed: int) -> np.dtype:
    """The narrowest GEMM dtype in which the layer's integer sums are exact.

    float32 when one row tile's worst-case product sum fits the 24-bit
    mantissa (the tiles are then accumulated in float64), float64 when the
    whole layer's fits 53 bits, int64 beyond that.
    """
    worst = (2 ** arch.input_bits - 1) * (2 ** arch.weight_bits - 1)
    if worst * arch.tile_height(rows_needed) < 2 ** 24:
        return np.dtype(np.float32)
    if worst * rows_needed < 2 ** 53:
        return np.dtype(np.float64)
    return np.dtype(np.int64)


class PackedMatmul:
    """Integer matmul of one layer (all groups) through packed cell levels.

    Parameters
    ----------
    q_weights:
        Signed integer weights, either ``(rows_needed, out_cols)`` in im2col
        layout (one weight-sharing group) or ``(groups, rows_needed,
        group_cols)`` for grouped convolutions; quantised to
        ``ctx.arch.weight_bits`` bits.
    ctx:
        The simulation context supplying geometry, cell/converter specs and
        the (optional) noise and fault models.
    mode:
        ``"analog"`` (time-domain chains wherever there is a non-ideality
        to model) or ``"ideal"`` (always the exact integer read-out).
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
        self._wire(pack_weights(q, arch), ctx, mode, salt)

    @classmethod
    def from_packed(
        cls,
        encoded: np.ndarray,
        ctx: SimContext,
        mode: str = "analog",
        salt: Union[int, tuple] = 0,
    ) -> "PackedMatmul":
        """Wire a matmul from a pre-packed payload, skipping programming.

        ``encoded`` is a :func:`pack_weights` result (e.g. loaded from a
        :class:`repro.engine.state.ProgrammedState`, possibly
        memory-mapped).  A chain layer derives its conductances from it and
        applies per-trial programming variation and faults on those fresh
        tensors — the same seed-stable draws the one-shot constructor makes,
        so outputs are bit-identical; the payload itself is never mutated,
        so a cached state can be shared by any number of executors.
        """
        if mode not in MODES:
            raise EngineError(f"unknown engine mode {mode!r}; choose from: {MODES}")
        if encoded is None or encoded.ndim != 3:
            raise EngineError(
                "packed state needs its (groups, rows, group_cols) encoded levels"
            )
        matmul = cls.__new__(cls)
        matmul._wire(encoded, ctx, mode, salt)
        return matmul

    def _wire(
        self,
        encoded: np.ndarray,
        ctx: SimContext,
        mode: str,
        salt: Union[int, tuple],
    ) -> None:
        """Cheap construction from a packed payload (geometry, noise, faults)."""
        arch = ctx.arch
        self.ctx = ctx
        self.mode = mode
        self.n_groups, self.rows_needed, self.group_cols = encoded.shape
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
        #: (start, height) of every row tile in the packed row axis
        self._row_spans: List[Tuple[int, int]] = [
            (rt * arch.rows, min(arch.rows, self.rows_needed - rt * arch.rows))
            for rt in range(self.row_tiles)
        ]
        #: arithmetic precision of the time-domain chain (the exact
        #: read-out picks its own GEMM dtype, see ``_exact_dtype``)
        self.compute_dtype = ctx.np_compute_dtype
        #: hot-loop tier request — performance metadata off the context
        #: (compare=False there, absent from every content key)
        self._kernel: Optional[str] = ctx.kernel

        noise = ctx.noise if mode == "analog" else None
        faults = ctx.faults if mode == "analog" else None
        varied = noise is not None and noise.reram_conductance_sigma > 0
        self._jittered = noise is not None and noise.dtc_sigma > 0
        faulted = faults is not None and faults.active
        #: how this layer is read out: the exact integer product, or the
        #: time-domain chain when there is a non-ideality to model
        self.readout = "chain" if varied or self._jittered or faulted else "exact"
        self.fault_report = None
        self._saturation: Optional[float] = None
        if self.readout == "exact":
            self._weights = encoded.astype(
                _exact_dtype(arch, self.rows_needed), order="K"
            )
            #: raw codes in the GEMM dtype, no delay sums
            self.operand_dtype = self._weights.dtype
            self.operand_scale = 1.0
            self.sum_tile_rows: Optional[int] = None
            #: float32 GEMMs run per row tile; wider ones in one pass
            self._gemm_spans = (
                self._row_spans
                if self.operand_dtype == np.float32
                else [(0, self.rows_needed)]
            )
            return

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
        #: chain scalars shared by every tile of the layer (full tile height)
        self.spec = TimeDomainChainSpec.from_context(ctx)
        #: noise scopes derived from (seed, salt) — construction-order free
        salt_parts = salt if isinstance(salt, tuple) else (salt,)
        self._read_noise = None
        if noise is not None:
            self._read_noise = noise.stream("packed", *salt_parts, "read")
        #: how the gather converts this layer's codes: DTC pulse widths in
        #: the compute dtype, except that a jittered DTC draws on the raw
        #: codes (as float64) itself and sums its own pulses
        self.operand_dtype = np.dtype(np.float64) if self._jittered else self.compute_dtype
        self.operand_scale = 1.0 if self._jittered else self.spec.dtc.t_del_s
        self.sum_tile_rows = None if self._jittered else arch.rows

        # fresh per-layer tensors, so variation and faults never touch the
        # shared payload — possibly a read-only mmap of a cached state
        self._conductances = slice_conductances(encoded, arch, self.compute_dtype)
        if varied:
            # draws are consumed slice by slice, as they always were
            program_noise = noise.stream("packed", *salt_parts, "program")
            self._conductances = [
                program_noise.apply_conductance_variation(c) for c in self._conductances
            ]
        if faults is not None and faults.cell_active:
            from repro.faults import FaultReport, apply_tile_faults

            cell = arch.cell_spec()
            report = FaultReport()
            for g in range(self.n_groups):
                for rt, (r0, height) in enumerate(self._row_spans):
                    views = [c[g, r0 : r0 + height, :] for c in self._conductances]
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
        if faults is not None and faults.readout_saturation is not None:
            self._saturation = float(faults.readout_saturation)

    @property
    def crossbars(self) -> int:
        """Physical crossbars occupied (matches ``LayerMapping`` counting)."""
        return self.n_groups * self.row_tiles * self.col_tiles

    @property
    def packed_bytes(self) -> int:
        """Bytes of the wired weight tensors the read-out multiplies: the
        exact GEMM's level copy, or the chain's per-slice conductances."""
        if self.readout == "exact":
            return self._weights.nbytes
        return sum(g.nbytes for g in self._conductances)

    def gather(
        self, codes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
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
        operand, code_sums, delay_sums, _, _ = im2col_pack(
            codes[:, :, None, None],
            1,
            groups=self.n_groups,
            scale=self.operand_scale,
            dtype=self.operand_dtype,
            tile_rows=self.sum_tile_rows,
            kernel=self._kernel,
        )
        return operand, code_sums, delay_sums

    def matmul(
        self,
        operand: np.ndarray,
        code_sums: np.ndarray,
        delay_sums: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Drive the packed layer with converted inputs and recombine.

        ``operand`` is the ``(positions, n_groups * rows_needed)``
        position-major crossbar input that
        :func:`repro.kernels.dispatch.im2col_pack` produced with this
        layer's :attr:`operand_scale` / :attr:`operand_dtype` — the raw
        codes for the exact read-out, the DTC pulse widths for the
        unjittered chain.  TIMELY's O²IR converts each input once and
        forwards the time pulse through the X-subBufs to every crossbar
        that needs it; here the single converted operand is read,
        unchanged and uncopied, by every row tile and bit-cell slice of
        every group (a ``(G, positions, R)`` view).  ``code_sums`` is the
        gather's ``(n_groups, positions)`` exact integer code sum per
        group, the operand of the digital offset removal.  ``delay_sums``
        is the gather's ``(row_tiles, n_groups, positions)`` per-crossbar
        pulse-width sums over :attr:`sum_tile_rows`-high row tiles —
        required by the unjittered chain, ignored otherwise.  Returns the
        signed dot products as ``(positions, out_cols)``.
        """
        positions = operand.shape[0]
        # (G, positions, R): one leading matmul axis per weight-sharing group
        grouped = operand.reshape(
            positions, self.n_groups, self.rows_needed
        ).transpose(1, 0, 2)

        if self.readout == "exact":
            products = self._exact_products(grouped)
        else:
            delays = grouped  # the DTC pulse widths themselves
            if self._jittered:
                # the gather delivered integer-valued codes; the jittered
                # DTC draws on them in the historical (G, P, R) shape/order,
                # and the jittered pulses are summed per row tile once for
                # the whole layer (each sum is per position, so chunking
                # cannot change it)
                delays = self.spec.dtc.convert(grouped, self._read_noise)
                delays = delays.astype(self.compute_dtype, copy=False)
                delay_sums = np.stack(
                    [delays[:, :, r0 : r0 + h].sum(axis=2) for r0, h in self._row_spans]
                )
            elif delay_sums is None:
                raise EngineError(
                    "the time-domain read-out needs the gather's delay "
                    "sums: pass im2col_pack(..., tile_rows=sum_tile_rows)[2]"
                )
            products = self._analog_products(delays, delay_sums)

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

    def _position_spans(self, positions: int, per_position: int) -> List[Tuple[int, int]]:
        """``(start, length)`` position chunks whose working set, at
        ``per_position`` bytes each, stays within ``ctx.chunk_bytes`` (one
        chunk of every position when unset)."""
        budget = self.ctx.chunk_bytes
        chunk = positions
        if budget is not None:
            chunk = max(1, min(positions, budget // max(1, per_position)))
        return [(p0, min(chunk, positions - p0)) for p0 in range(0, positions, chunk)]

    def _exact_products(self, grouped: np.ndarray) -> np.ndarray:
        """The exact ``(groups, positions, group_cols)`` integer products of
        raw codes against the encoded levels, in float64.

        One GEMM per entry of ``_gemm_spans`` — every row tile for float32,
        where each tile's sums stay below ``2**24``, else the whole row
        axis — into a reusable buffer, summed into the float64 output.
        Every partial sum is an integer the GEMM dtype holds exactly, so
        the result is independent of BLAS blocking, summation order and
        the position chunking.
        """
        positions = grouped.shape[1]
        weights = self._weights
        out = np.zeros((self.n_groups, positions, self.group_cols))
        spans = self._position_spans(
            positions, self.n_groups * self.group_cols * weights.itemsize
        )
        part = np.empty((self.n_groups, spans[0][1], self.group_cols), weights.dtype)
        for p0, n in spans:
            for r0, height in self._gemm_spans:
                np.matmul(
                    grouped[:, p0 : p0 + n, r0 : r0 + height],
                    weights[:, r0 : r0 + height, :],
                    out=part[:, :n],
                )
                out[:, p0 : p0 + n] += part[:, :n]
        return out

    def _chunk_buffer(self, chunk: int) -> np.ndarray:
        """One reusable charge buffer for the chain's chunk walk."""
        return np.empty(
            (self.row_tiles, self.n_slices, self.n_groups, chunk, self.group_cols),
            dtype=self.compute_dtype,
        )

    def _run_chunk(
        self,
        delays: np.ndarray,
        delay_sums: np.ndarray,
        out: np.ndarray,
        p0: int,
        n: int,
        charges: np.ndarray,
    ) -> None:
        """Charge, read out and recombine positions ``[p0, p0 + n)``."""
        spec = self.spec
        block = charges[:, :, :, :n]
        for rt, (r0, height) in enumerate(self._row_spans):
            d = delays[:, p0 : p0 + n, r0 : r0 + height]
            for s, conductances in enumerate(self._conductances):
                np.matmul(d, conductances[:, r0 : r0 + height, :], out=block[rt, s])
        # the whole per-chunk chain — V_DD phase-I charge scaling,
        # reference-column subtract against the precomputed delay sums,
        # clips, phase-I/II conversion, optional early-TDC saturation and
        # the slice-cascade recombination (sum over row tiles t,
        # power-of-two weights over s) — in one dispatched kernel call,
        # fully in place on the raw ``delays @ G`` products of the chunk
        # buffer, accumulated straight into the output slice
        readout_fused(
            block,
            delay_sums[:, None, :, p0 : p0 + n, None],
            spec.scalars(),
            out=block,
            saturation=self._saturation,
            shifts=self.shifts,
            recombine_out=out[:, p0 : p0 + n],
            charge_scale=spec.v_dd,
            kernel=self._kernel,
        )

    def _analog_products(
        self, delays: np.ndarray, delay_sums: np.ndarray
    ) -> np.ndarray:
        """Time-domain estimate of the grouped integer products.

        ``delays`` holds the ``(groups, positions, rows)`` DTC pulse widths
        in the compute dtype and ``delay_sums`` their ``(row_tiles, groups,
        positions)`` sums over each row tile — precomputed (by the gather,
        or once per layer from jittered pulses), so the chunk walk never
        re-reads the operand to form them.  One ``delays @ G`` matmul per
        (row tile, slice) fills a buffer of raw products of shape
        ``(row_tiles, n_slices, groups, chunk, group_cols)``; everything
        after the GEMMs — the V_DD scaling into phase-I charges, the
        elementwise chain and the digital recombination (the sum over row
        tiles and the power-of-two slice cascade) — then runs as one fused
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
        """
        positions = delays.shape[1]
        spans = self._position_spans(
            positions,
            self.row_tiles
            * self.n_slices
            * self.n_groups
            * self.group_cols
            * self.compute_dtype.itemsize,
        )
        # float64 accumulator regardless of compute dtype: the slice/tile
        # recombination and the offset correction downstream cancel
        # large-magnitude operands (see the ``shifts`` note in ``_wire``)
        out = np.empty((self.n_groups, positions, self.group_cols))
        charges = self._chunk_buffer(spans[0][1])
        for p0, n in spans:
            self._run_chunk(delays, delay_sums, out, p0, n, charges)
        return out
