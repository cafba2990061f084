"""Runtime kernel dispatch: one entry point per hot loop, tiered backends.

The engine's two hot loops — the fused time-domain read-out chain and the
code-to-operand gather (im2col, DTC conversion and code row-sums in one
pass) — are reachable only through this module.  An ordered registry of
implementation tiers backs each entry point:

``c``
    Hand-written C (``readout.c``) compiled on first use with the system C
    compiler and loaded through :mod:`ctypes` (which releases the GIL for
    the duration of every call — the property the threaded chunk walk in
    ``engine/packed.py`` relies on).  Bit-for-bit identical to the numpy
    tier; built lazily into a content-hash-keyed cache, or ahead of time
    via ``python -m repro.kernels.build`` / the optional ``setup.py``
    extension.
``numpy``
    The historical pure-numpy code, extracted verbatim into
    :mod:`repro.kernels.numpy_impl`.  Always available; the bit-for-bit
    reference the compiled tier is tested against.

Selection: the first available tier in ``KERNEL_TIERS`` order, overridden
by (highest precedence first) an explicit ``kernel=`` argument, the
``SimContext.kernel`` field / ``--kernel`` CLI flag (which pass that
argument), or the ``REPRO_KERNEL`` environment variable.  A requested tier
that is unavailable (no compiler) degrades to the next tier with a
one-time warning — kernels never make an environment fail.

The kernel tier is performance metadata, not simulation semantics: float64
results are bit-identical across tiers, so the tier name deliberately
stays out of every content key (``SimContext.kernel`` is ``compare=False``;
see ``engine/state.py``).

Implementation modules (``numpy_impl``, ``c_impl``) must never be imported
directly by engine code — the ``kernel-dispatch`` rule in
``repro.analysis`` enforces that only this module reaches them, which is
what keeps the fallback contract honest.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from types import ModuleType
from typing import Dict, Optional, Set, Tuple

import numpy as np
from numpy.typing import DTypeLike

from repro.kernels import numpy_impl

#: preference order of the implementation tiers
KERNEL_TIERS: Tuple[str, ...] = ("c", "numpy")
#: valid values for SimContext.kernel / --kernel / REPRO_KERNEL
KERNEL_CHOICES: Tuple[str, ...] = ("auto",) + KERNEL_TIERS
#: environment variable overriding the default tier
ENV_VAR = "REPRO_KERNEL"


class KernelError(ValueError):
    """An unknown kernel tier was requested."""


@dataclass(frozen=True)
class ReadoutScalars:
    """The scalar constants of one time-domain read-out chain.

    A frozen, hashable bundle of exactly the quantities
    ``TimeDomainChainSpec.read_out`` used to read off ``self`` — factored
    out so implementations in any language receive one flat argument pack.
    ``offset_coeff`` is the precomputed ``v_dd * g_min_s`` product and
    ``phase2_scale`` the precomputed ``capacitance_f / phase2_current_a``
    ratio; both are single IEEE-754 doubles, so precomputation cannot
    change any result bit.
    """

    offset_coeff: float
    capacitance_f: float
    v_threshold: float
    phase2_scale: float
    full_scale_s: float
    lsb_s: float
    dot_max: float


_lock = threading.Lock()
_modules: Dict[str, Optional[ModuleType]] = {"numpy": numpy_impl}
_unavailable: Dict[str, str] = {}
_warned: Set[str] = set()


def _probe(name: str) -> Optional[ModuleType]:
    """Import (and for ``c``, build) a tier; cache the module or the failure."""
    if name in _modules:
        return _modules[name]
    if name in _unavailable:
        return None
    with _lock:
        if name in _modules:
            return _modules[name]
        if name in _unavailable:
            return None
        try:
            if name != "c":  # pragma: no cover - registry and tiers kept in sync
                raise KernelError(f"unknown kernel tier {name!r}")
            from repro.kernels import c_impl as module

            module.load()  # compiles on first ever use, then cached
        except KernelError:
            raise
        except Exception as exc:  # a missing compiler must never fail
            _unavailable[name] = f"{type(exc).__name__}: {exc}"
            return None
        _modules[name] = module
        return module


def available() -> Tuple[str, ...]:
    """The tiers usable right now, in preference order (probes all)."""
    return tuple(name for name in KERNEL_TIERS if _probe(name) is not None)


def unavailable_reasons() -> Dict[str, str]:
    """Why each unusable tier failed to load (after :func:`available`)."""
    return dict(_unavailable)


def reset() -> None:
    """Forget probe results and warnings (tests re-point REPRO_KERNEL)."""
    with _lock:
        _modules.clear()
        _modules["numpy"] = numpy_impl
        _unavailable.clear()
        _warned.clear()


def resolve(kernel: Optional[str] = None) -> Tuple[str, ModuleType]:
    """The ``(tier name, implementation module)`` serving a request.

    ``kernel`` is an explicit tier request (``SimContext.kernel`` /
    ``--kernel``); ``None`` or ``"auto"`` defers to ``REPRO_KERNEL`` and
    then to the registry order.  Unknown names raise :class:`KernelError`;
    known-but-unavailable tiers fall through to the next tier with a
    one-time warning, so a numpy-only environment always works.
    """
    if kernel is None or kernel == "auto":
        kernel = os.environ.get(ENV_VAR) or "auto"
    if kernel not in KERNEL_CHOICES:
        raise KernelError(
            f"unknown kernel tier {kernel!r}; choose from: {', '.join(KERNEL_CHOICES)}"
        )
    start = 0 if kernel == "auto" else KERNEL_TIERS.index(kernel)
    for name in KERNEL_TIERS[start:]:
        module = _probe(name)
        if module is not None:
            if kernel not in ("auto", name) and kernel not in _warned:
                _warned.add(kernel)
                warnings.warn(
                    f"kernel tier {kernel!r} is unavailable "
                    f"({_unavailable.get(kernel, 'unknown reason')}); "
                    f"falling back to {name!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return name, module
    raise AssertionError("the numpy tier can never be unavailable")


def default_kernel() -> str:
    """The tier name a ``kernel=None`` call resolves to right now."""
    return resolve(None)[0]


def readout_fused(
    charges: np.ndarray,
    delay_sums: np.ndarray,
    scalars: ReadoutScalars,
    out: Optional[np.ndarray] = None,
    saturation: Optional[float] = None,
    shifts: Optional[np.ndarray] = None,
    recombine_out: Optional[np.ndarray] = None,
    kernel: Optional[str] = None,
) -> np.ndarray:
    """Fused phase-I/II read-out of raw column charges (plus recombination).

    The elementwise chain — G_min reference-column subtraction, zero clip,
    phase-I capacitor voltage, phase-II threshold-crossing time, LSB
    rescale — applied to ``charges`` against broadcastable ``delay_sums``,
    in place when ``out`` aliases ``charges``.  ``saturation`` adds the
    optional early-TDC clip (a fraction of ``scalars.dot_max``).  When
    ``shifts`` (and ``recombine_out``) are given, ``charges`` must be the
    packed ``(tiles, slices, groups, positions, cols)`` stack and the
    power-of-two slice cascade is recombined into ``recombine_out`` in the
    same pass.  Returns the chain result (the estimates, not the
    recombination).
    """
    return resolve(kernel)[1].readout_fused(
        charges,
        delay_sums,
        scalars,
        out=out,
        saturation=saturation,
        shifts=shifts,
        recombine_out=recombine_out,
    )


def slice_recombine(
    shifts: np.ndarray,
    estimates: np.ndarray,
    out: np.ndarray,
    kernel: Optional[str] = None,
) -> np.ndarray:
    """Digital slice/tile recombination (``einsum "s,tsgpc->gpc"``)."""
    return resolve(kernel)[1].slice_recombine(shifts, estimates, out)


def im2col_pack(
    codes: np.ndarray,
    kernel_size: int,
    stride: int = 1,
    pad: int = 0,
    *,
    groups: int = 1,
    scale: float = 1.0,
    dtype: DTypeLike = np.float64,
    kernel: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Quantised codes to crossbar operand in one read (TIMELY's O²IR).

    Reads the ``(N, C, H, W)`` integer code tensor once, at any strides,
    and returns ``(operand, code_sums, out_h, out_w)``:

    * ``operand`` — ``(N*out_h*out_w, C*k*k)`` C-contiguous, position-major
      im2col rows (channel-major ``(c, ki, kj)`` order, zero-padded
      borders), each code converted once to ``code * scale`` in ``dtype``
      (the DTC pulse width when ``scale`` is the unit delay);
    * ``code_sums`` — ``(groups, N*out_h*out_w)`` exact int64 sums of each
      weight-sharing group's block of codes per position (the digital
      offset correction's operand).

    An FC layer is the 1×1 window of an ``(N, features, 1, 1)`` tensor.
    """
    return resolve(kernel)[1].im2col_pack(
        codes, kernel_size, stride, pad, groups=groups, scale=scale, dtype=dtype
    )
