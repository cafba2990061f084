"""Tile-level crossbar execution: the noiseless per-crossbar test oracle.

:class:`TiledMatmul` is the functional counterpart of
:class:`repro.mapping.crossbar_mapping.LayerMapping`: where the mapping
*counts* the ``rows x cols`` tiles a weight matrix occupies, this class
actually *programs* one crossbar object per tile and pushes input codes
through, reproducing the paper's execution scheme tile by tile:

* signed quantised weights are offset-encoded (``u = q + 2**(bits-1)``) so
  the unsigned conductance levels of the cells can represent them; the
  offset is removed digitally after read-out (the standard PIM offset
  column, applied here as a per-position correction),
* each weight occupies ``ceil(weight_bits / cell_bits)`` adjacent bit-cell
  columns: one column for ``weight_bits <= cell_bits``, the MSB/LSB pair of
  :class:`repro.circuits.timing.SubRangingDotProduct` (Section IV-C) for
  two, and a generalised base-``2**cell_bits`` slice cascade for more (the
  16-bit ISAAC-comparison precision on 4-bit cells uses four slices); the
  slice partial products recombine digitally with power-of-two shifts,
* the weight matrix is tiled into ``rows x cols`` blocks exactly as
  :func:`repro.mapping.crossbar_mapping.map_layer` counts them; every tile
  is one physical crossbar (pair),
* input codes are processed *batched over input columns*: all output
  positions of a layer go through a tile as one ``(positions, rows)``
  matrix, and the tile partial sums are recombined across row tiles.

The engine itself runs :class:`repro.engine.packed.PackedMatmul`, which
computes the same products — as exact integer GEMMs when there is nothing
non-ideal to model, else through the same chain on per-slice tensors — and
is an order of magnitude faster.  This module is the independent oracle the differential
tests and the bench compare it against, so it stays deliberately plain: it
runs noiseless and fault-free only (a context carrying either is rejected
with :class:`~repro.engine.errors.EngineError`) and always computes in
float64.  :func:`tiled_forward` runs a whole network through it.

Two read-out modes are supported: ``"analog"`` runs the full two-phase
time-domain chain, ``"ideal"`` reads the same programmed tiles through the
exact integer dot product.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.circuits.timing import SubRangingDotProduct, TimeDomainDotProduct
from repro.context import SimContext
from repro.engine.errors import EngineError
from repro.engine.packed import MODES
from repro.engine.params import NetworkParams
from repro.engine.reference import apply_aux_batched, conv_padding, validate_supported
from repro.nn import functional as F
from repro.nn.layers import Conv2D
from repro.nn.network import NETWORK_INPUT, Network
from repro.nn.quantization import quantize_symmetric_per_channel, quantize_unsigned_batch


class _SingleCellTile:
    """One crossbar tile for weights that fit a single bit-cell column.

    The crossbar is sized at the weight block's true height — a partial row
    tile occupies only the rows it holds weights for — so the matmul can
    slice the input codes at that height instead of zero-padding every
    ``(positions, arch.rows)`` block per call.  The time-domain chain
    rescales with the row count, so the read-out stays exact.
    """

    def __init__(self, weights: np.ndarray, ctx: SimContext):
        self.crossbar = ctx.arch.make_crossbar(rows=np.asarray(weights).shape[0])
        self.crossbar.program(weights)
        self.chain = TimeDomainDotProduct(
            self.crossbar, dtc=ctx.arch.dtc(), v_dd=ctx.arch.v_dd
        )

    def compute(self, codes: np.ndarray) -> np.ndarray:
        return self.chain.compute(codes)

    def ideal(self, codes: np.ndarray) -> np.ndarray:
        return self.crossbar.ideal_dot_product(codes)

    @property
    def programmed_bytes(self) -> int:
        return self.crossbar.programmed_bytes


class _SlicedTile:
    """A weight block split into ``n`` base-``2**cell_bits`` cell slices.

    The generalisation of the MSB/LSB sub-ranging pair to any number of
    bit-cell columns per weight: slice ``s`` holds bits
    ``[s*cell_bits, (s+1)*cell_bits)`` of the offset-encoded weights, each
    slice is read out through its own time-domain chain, and the partial
    products recombine digitally as ``sum_s partial_s * 2**(s*cell_bits)``.
    """

    def __init__(self, weights: np.ndarray, ctx: SimContext, n_slices: int):
        cell_bits = ctx.arch.cell_bits
        mask = 2 ** cell_bits - 1
        self.shifts = [2 ** (cell_bits * s) for s in range(n_slices)]
        self.slices = [
            _SingleCellTile((weights >> (cell_bits * s)) & mask, ctx)
            for s in range(n_slices)
        ]

    def compute(self, codes: np.ndarray) -> np.ndarray:
        return sum(
            tile.compute(codes) * shift
            for tile, shift in zip(self.slices, self.shifts)
        )

    def ideal(self, codes: np.ndarray) -> np.ndarray:
        return sum(
            tile.ideal(codes) * shift
            for tile, shift in zip(self.slices, self.shifts)
        )

    @property
    def programmed_bytes(self) -> int:
        return sum(tile.programmed_bytes for tile in self.slices)


class TiledMatmul:
    """Integer matmul of one weight-sharing group through physical tiles.

    Parameters
    ----------
    q_weights:
        Signed integer weight matrix of shape ``(rows_needed, out_cols)`` in
        im2col layout (one row per input-vector element, one column per
        output channel), quantised to ``ctx.arch.weight_bits`` bits.
    ctx:
        The simulation context supplying geometry and cell/converter specs.
        It must carry neither a noise nor a fault model: the oracle is
        noiseless by design.
    mode:
        ``"analog"`` (time-domain chains) or ``"ideal"`` (exact read-out).
    """

    def __init__(self, q_weights: np.ndarray, ctx: SimContext, mode: str = "analog"):
        if mode not in MODES:
            raise EngineError(f"unknown engine mode {mode!r}; choose from: {MODES}")
        if ctx.noise is not None or ctx.faults is not None:
            raise EngineError(
                "the tiled oracle runs noiseless and fault-free only; "
                "drop the context's noise and fault models"
            )
        arch = ctx.arch
        q = np.asarray(q_weights, dtype=np.int64)
        if q.ndim != 2:
            raise EngineError("q_weights must be a 2-D (rows, out_cols) matrix")
        qmax = 2 ** (arch.weight_bits - 1) - 1
        if np.any(q < -qmax) or np.any(q > qmax):
            raise EngineError(
                f"quantised weights must lie in [{-qmax}, {qmax}] for "
                f"{arch.weight_bits}-bit symmetric quantisation"
            )

        self.ctx = ctx
        self.mode = mode
        self.rows_needed, self.out_cols = q.shape
        #: offset making the encoded levels unsigned; removed digitally
        self.offset = 2 ** (arch.weight_bits - 1)
        encoded = q + self.offset

        self.row_tiles = math.ceil(self.rows_needed / arch.rows)
        weights_per_tile = arch.weights_per_col_tile
        if weights_per_tile == 0:
            raise EngineError(
                f"a {arch.cols}-column tile cannot hold a single "
                f"{arch.weight_bits}-bit weight ({arch.cols_per_weight} "
                f"bit-cell columns per weight)"
            )
        self.col_tiles = math.ceil(self.out_cols / weights_per_tile)
        self._col_widths = [
            min(weights_per_tile, self.out_cols - ct * weights_per_tile)
            for ct in range(self.col_tiles)
        ]
        self._tiles: List[List[Union[_SingleCellTile, _SlicedTile, SubRangingDotProduct]]] = []
        for rt in range(self.row_tiles):
            r0 = rt * arch.rows
            height = min(arch.rows, self.rows_needed - r0)
            row: List[Union[_SingleCellTile, _SlicedTile, SubRangingDotProduct]] = []
            for ct, width in enumerate(self._col_widths):
                c0 = ct * weights_per_tile
                block = encoded[r0 : r0 + height, c0 : c0 + width]
                if arch.cols_per_weight == 1:
                    row.append(_SingleCellTile(block, ctx))
                elif arch.cols_per_weight == 2:
                    row.append(SubRangingDotProduct.from_context(ctx, block))
                else:
                    row.append(_SlicedTile(block, ctx, arch.cols_per_weight))
            self._tiles.append(row)

    @property
    def crossbars(self) -> int:
        """Physical crossbars occupied (matches ``LayerMapping`` counting)."""
        return self.row_tiles * self.col_tiles

    @property
    def programmed_bytes(self) -> int:
        """Bytes held by the programmed crossbar state (levels + conductances)."""
        return sum(tile.programmed_bytes for row in self._tiles for tile in row)

    def matmul(self, codes: np.ndarray) -> np.ndarray:
        """Push input codes through the tiles and recombine partial sums.

        ``codes`` is a ``(positions, rows_needed)`` matrix of unsigned input
        codes (one row per output position — the batched-over-input-columns
        path).  Returns the signed integer dot products ``codes @ q_weights``
        as estimated by the selected read-out mode, shape
        ``(positions, out_cols)``, in float64.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2 or codes.shape[1] != self.rows_needed:
            raise EngineError(
                f"expected codes of shape (positions, {self.rows_needed}), "
                f"got {codes.shape}"
            )
        levels = 2 ** self.ctx.arch.input_bits
        if np.any(codes < 0) or np.any(codes >= levels):
            raise EngineError(
                f"input codes must lie in [0, {levels - 1}] for "
                f"{self.ctx.arch.input_bits}-bit inputs"
            )
        arch = self.ctx.arch
        positions = codes.shape[0]
        acc = np.zeros((positions, self.out_cols), dtype=float)
        for rt, row in enumerate(self._tiles):
            r0 = rt * arch.rows
            height = min(arch.rows, self.rows_needed - r0)
            # Tiles are sized at their true height, so a view of the codes
            # suffices — no zero-padded (positions, arch.rows) copy per tile.
            block = codes[:, r0 : r0 + height]
            for ct, tile in enumerate(row):
                c0 = ct * arch.weights_per_col_tile
                width = self._col_widths[ct]
                partial = tile.ideal(block) if self.mode == "ideal" else tile.compute(block)
                acc[:, c0 : c0 + width] += np.asarray(partial, dtype=float)[:, :width]
        # Digital offset removal: every programmed weight carries ``+offset``,
        # so each output column over-counts by ``offset * sum(codes)``.
        correction = self.offset * codes.sum(axis=1, dtype=np.int64)
        return acc - correction[:, None]


#: one programmed conv/FC layer of the oracle: its per-output-channel
#: dequantisation scales and one :class:`TiledMatmul` per group
TiledLayer = Tuple[np.ndarray, List[TiledMatmul]]


def program_tiled(
    network: Network,
    ctx: SimContext,
    mode: str = "analog",
    params: Optional[NetworkParams] = None,
) -> Dict[str, TiledLayer]:
    """Program every conv/FC layer of ``network`` onto oracle tiles.

    Uses the engine's quantisation — per-output-channel symmetric
    ``weight_bits`` codes laid out as per-group im2col matrices — so the
    oracle and :func:`repro.engine.executor.program` see the same integers.
    """
    validate_supported(network)
    params = params or NetworkParams(network, ctx.seed)
    layers: Dict[str, TiledLayer] = {}
    for inst in network.compute_instances:
        quant = quantize_symmetric_per_channel(params[inst.name].weights, ctx.arch.weight_bits)
        groups = inst.layer.groups if isinstance(inst.layer, Conv2D) else 1
        group_out = quant.values.shape[0] // groups
        # (groups, rows, group_cols), C-ordered like the packed state's stack
        q = np.stack(
            [
                quant.values[g * group_out : (g + 1) * group_out].reshape(group_out, -1).T
                for g in range(groups)
            ]
        )
        layers[inst.name] = (quant.scales, [TiledMatmul(q[g], ctx, mode) for g in range(groups)])
    return layers


def tiled_forward(
    network: Network,
    ctx: SimContext,
    x: np.ndarray,
    mode: str = "analog",
    params: Optional[NetworkParams] = None,
    programmed: Optional[Dict[str, TiledLayer]] = None,
) -> np.ndarray:
    """Run ``x`` through ``network`` on the tiled oracle; returns the output.

    The oracle counterpart of :meth:`repro.engine.executor.NetworkExecutor.run`:
    per-image unsigned input quantisation, :func:`repro.nn.functional.im2col_batch`,
    one :class:`TiledMatmul` per group, dequantisation and bias; auxiliary
    layers go through :func:`repro.engine.reference.apply_aux_batched`, the
    kernels the engine uses.  ``x`` is one ``(C, H, W)`` image or an
    ``(N, C, H, W)`` batch and the output mirrors it.  ``programmed`` (from
    :func:`program_tiled`) skips programming, which otherwise runs here.
    """
    params = params or NetworkParams(network, ctx.seed)
    if programmed is None:
        programmed = program_tiled(network, ctx, mode, params)
    batch = np.asarray(x, dtype=float)
    single = batch.ndim == 3
    live: Dict[str, np.ndarray] = {NETWORK_INPUT: batch[None] if single else batch}
    for inst in network.topological_order():
        operands = [live[src] for src in inst.inputs]
        if inst.name not in programmed:
            live[inst.name] = apply_aux_batched(inst, operands, params)
            continue
        w_scales, groups = programmed[inst.name]
        values, in_scales = quantize_unsigned_batch(operands[0], ctx.arch.input_bits)
        n = values.shape[0]
        layer = inst.layer
        if isinstance(layer, Conv2D):
            kernel, stride, pad = layer.kernel_h, layer.stride, conv_padding(layer)
        else:  # FC: a 1x1 window over an (N, features, 1, 1) view
            values, kernel, stride, pad = values.reshape(n, -1, 1, 1), 1, 1, 0
        cols, out_h, out_w = F.im2col_batch(values, kernel, stride, pad)
        codes = cols.reshape(-1, cols.shape[2])
        group_rows = codes.shape[1] // len(groups)
        out = np.concatenate(
            [
                tiles.matmul(codes[:, g * group_rows : (g + 1) * group_rows])
                for g, tiles in enumerate(groups)
            ],
            axis=1,
        )
        out = out.reshape(n, out_h * out_w, -1) * (
            w_scales[None, None, :] * in_scales[:, None, None]
        )
        bias = params[inst.name].bias
        if bias is not None:
            out = out + bias
        if isinstance(layer, Conv2D):
            live[inst.name] = out.transpose(0, 2, 1).reshape(n, -1, out_h, out_w)
        else:
            live[inst.name] = out.reshape(n, -1)
    output = live[network.output.name]
    return output[0] if single else output
