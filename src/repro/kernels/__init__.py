"""Runtime-dispatched hot-loop kernels (read-out chain, code gather).

Public surface: :mod:`repro.kernels.dispatch` — every consumer goes
through its entry points (``readout_fused``, ``slice_recombine``,
``im2col_pack``) and tier resolution (``resolve`` / ``available``).  The
implementation modules (``numpy_impl``, ``c_impl``) are
internal; the ``kernel-dispatch`` rule in ``repro.analysis`` flags any
direct import of them from outside this package.
"""

from repro.kernels.dispatch import (  # noqa: F401
    ENV_VAR,
    KERNEL_CHOICES,
    KERNEL_TIERS,
    KernelError,
    ReadoutScalars,
    available,
    default_kernel,
    im2col_pack,
    readout_fused,
    resolve,
    slice_recombine,
    unavailable_reasons,
)
