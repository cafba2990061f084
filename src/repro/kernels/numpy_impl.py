"""Pure-numpy kernel tier: the bit-for-bit reference implementation.

This module is the read-out / gather code that used to live inline in
:meth:`repro.circuits.timing.TimeDomainChainSpec.read_out`,
:meth:`repro.engine.packed.PackedMatmul._analog_products` and the
executor's im2col → reshape → astype chain, extracted verbatim.  The
compiled ``c`` tier is tested bit-for-bit against these functions in
float64 — when in doubt, this file defines what "correct" means.

Always available (numpy is the repo's only hard dependency), always last
in the dispatch order, and the fallback target whenever a compiled tier
is missing or a call's shapes fall outside the compiled fast path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np
from numpy.typing import DTypeLike

from repro.nn import functional as F

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.dispatch import ReadoutScalars


def readout_fused(
    charges: np.ndarray,
    delay_sums: np.ndarray,
    scalars: "ReadoutScalars",
    out: Optional[np.ndarray] = None,
    saturation: Optional[float] = None,
    shifts: Optional[np.ndarray] = None,
    recombine_out: Optional[np.ndarray] = None,
    charge_scale: Optional[float] = None,
) -> np.ndarray:
    """The two-phase read-out chain, optionally fused with recombination.

    The chain body is the historical ``TimeDomainChainSpec.read_out``
    sequence, op for op (``scalars`` carries the same constants the spec
    used to read off ``self``); ``charge_scale`` is the engine's former
    in-place ``block *= v_dd`` phase-I charge step ahead of it,
    ``saturation`` the optional early-TDC clip (a fraction of
    ``scalars.dot_max``) and ``shifts`` / ``recombine_out`` the optional
    slice-cascade einsum — all exactly as ``PackedMatmul._analog_products``
    applied them around the chain.
    """
    if charge_scale is not None:
        charges = np.multiply(charges, charges.dtype.type(charge_scale), out=out)
        out = charges
    offset = scalars.offset_coeff * delay_sums
    net = np.subtract(charges, offset, out=out)
    np.clip(net, 0.0, None, out=net)
    net /= scalars.capacitance_f  # phase-I capacitor voltage
    np.subtract(scalars.v_threshold, net, out=net)
    np.clip(net, 0.0, None, out=net)
    net *= scalars.phase2_scale  # phase-II time
    np.subtract(scalars.full_scale_s, net, out=net)
    net /= scalars.lsb_s
    if saturation is not None:
        # early TDC clipping: per-slice estimates above the saturation
        # point resolve to the saturation code itself
        np.minimum(net, net.dtype.type(saturation * scalars.dot_max), out=net)
    if shifts is not None:
        # recombine: sum over row tiles (t), slice cascade weights over s
        np.einsum("s,tsgpc->gpc", shifts, net, out=recombine_out)
    return net


def im2col_pack(
    codes: np.ndarray,
    kernel: int,
    stride: int = 1,
    pad: int = 0,
    *,
    groups: int = 1,
    scale: float = 1.0,
    dtype: DTypeLike = np.float64,
    tile_rows: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], int, int]:
    """Codes to crossbar operand: the historical engine composition.

    ``F.im2col_batch`` on the codes, the ``(positions, rows)`` reshape
    copy, the cast to ``dtype``, the in-place DTC scale, the int64
    per-group row sum and — with ``tile_rows`` — the per-row-tile
    ``d.sum(axis=2)`` delay sums of each group, op for op as
    ``NetworkExecutor`` and ``PackedMatmul`` used to chain them.  Returns
    ``(operand, code_sums, delay_sums, out_h, out_w)``: ``operand`` is
    ``(N*positions, rows)`` C-contiguous, ``code_sums`` ``(groups,
    N*positions)`` int64 and ``delay_sums`` ``(row_tiles, groups,
    N*positions)`` in ``dtype`` (``None`` without ``tile_rows``).
    """
    cols, out_h, out_w = F.im2col_batch(codes, kernel, stride=stride, pad=pad)
    n, positions, rows = cols.shape
    flat = cols.reshape(n * positions, rows)
    # C order: the layout the historical ascontiguousarray handed the
    # charge matmul (a one-image reshape is an F-ordered view)
    operand = flat.astype(dtype, order="C")
    operand *= operand.dtype.type(scale)
    grouped = flat.reshape(n * positions, groups, rows // groups)
    sums = grouped.sum(axis=2, dtype=np.int64).T.copy()
    delay_sums = None
    if tile_rows is not None:
        delays = operand.reshape(grouped.shape).transpose(1, 0, 2)
        starts = range(0, delays.shape[2], tile_rows)
        delay_sums = np.empty((len(starts),) + delays.shape[:2], dtype=operand.dtype)
        for rt, r0 in enumerate(starts):
            delay_sums[rt] = delays[:, :, r0 : r0 + tile_rows].sum(axis=2)
    return operand, sums, delay_sums, out_h, out_w
