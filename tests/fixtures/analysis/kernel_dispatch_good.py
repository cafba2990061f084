"""Known-good fixture: kernels reached only through the dispatcher."""

from repro.kernels import dispatch
from repro.kernels import im2col_pack, readout_fused
from repro.kernels.dispatch import ReadoutScalars, slice_recombine


def run(charges, delay_sums, scalars: ReadoutScalars):
    out = readout_fused(charges, delay_sums, scalars)
    operand, _, _, _ = im2col_pack(charges[0, 0], 3, stride=1, pad=1)
    assert dispatch.slice_recombine is slice_recombine
    return out, operand
