"""The compiled kernel tier: ``readout.c`` built and bound through ctypes.

Build model
-----------
The C source ships inside the package.  ``load()`` finds a binary in this
order:

1. a prebuilt ``repro.kernels._native`` extension next to this file (what
   the optional ``setup.py`` ``build_ext`` produces on ``pip install .``),
2. a cached shared object under ``REPRO_KERNEL_CACHE`` (default
   ``$XDG_CACHE_HOME/repro-kernels``), keyed by the SHA-256 of the source
   plus the compile flags, so editing ``readout.c`` can never run a stale
   binary,
3. a fresh compile of ``readout.c`` with the system C compiler
   (``REPRO_KERNEL_CC``, else ``cc``/``gcc``/``clang``) into that cache.

Any failure raises :class:`KernelBuildError`, which the dispatcher treats
as "tier unavailable" — a machine without a compiler silently keeps the
numpy tier.

``-ffp-contract=off`` is mandatory: it forbids fusing multiply+add into
FMA, which would otherwise round differently from numpy and break the
bit-for-bit contract the float64 equivalence tests enforce.

Call model
----------
Every wrapper below guards the compiled fast path: canonical dtypes
(float32/float64 data, int64 codes), sane shapes, element-addressable
strides.  Calls
outside the fast path delegate to :mod:`repro.kernels.numpy_impl`, so this
module accepts exactly the same inputs as the reference and never changes
a result — only its speed.  ctypes releases the GIL for the duration of
each foreign call, which is what lets the threaded chunk walk in
``engine/packed.py`` run chunks truly concurrently.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np
from numpy.typing import DTypeLike

from repro.kernels import numpy_impl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.dispatch import ReadoutScalars

#: must match repro_kernels_abi_version() in readout.c
ABI_VERSION = 3
#: flags the bit-for-bit contract depends on (see module docstring)
CFLAGS: Tuple[str, ...] = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_i64 = ctypes.c_int64
_i32 = ctypes.c_int32
_f64 = ctypes.c_double
_void_p = ctypes.c_void_p


class KernelBuildError(RuntimeError):
    """The compiled tier could not be built or loaded."""


_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None


def _source_path() -> Path:
    return Path(__file__).with_name("readout.c")


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-kernels"


def _compiler() -> str:
    env = os.environ.get("REPRO_KERNEL_CC")
    candidates = [env] if env else ["cc", "gcc", "clang"]
    for name in candidates:
        if name and shutil.which(name):
            return name
    raise KernelBuildError(
        "no C compiler found (set REPRO_KERNEL_CC or install cc/gcc/clang)"
    )


def _find_prebuilt() -> Optional[Path]:
    """A ``_native`` extension built by the optional setup.py build_ext."""
    for path in sorted(Path(__file__).parent.glob("_native*")):
        if path.suffix in (".so", ".pyd", ".dylib"):
            return path
    return None


def build(verbose: bool = False) -> Path:
    """Compile ``readout.c`` into the cache (idempotent); return the path."""
    source = _source_path()
    text = source.read_bytes()
    compiler = _compiler()
    key = hashlib.sha256(
        b"|".join([text, " ".join(CFLAGS).encode(), compiler.encode(), sys.platform.encode()])
    ).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / f"readout-{key}.so"
    if target.exists():
        return target
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
    os.close(fd)
    cmd = [compiler, *CFLAGS, "-o", tmp, str(source)]
    if verbose:
        print("+", " ".join(cmd))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise KernelBuildError(
                f"C kernel compile failed ({' '.join(cmd)}):\n{proc.stderr.strip()}"
            )
        os.replace(tmp, target)  # atomic: concurrent builders converge
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _bind(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    lib.repro_kernels_abi_version.restype = _i64
    lib.repro_kernels_abi_version.argtypes = []
    version = lib.repro_kernels_abi_version()
    if version != ABI_VERSION:
        raise KernelBuildError(
            f"{path} exports kernel ABI v{version}, this build needs v{ABI_VERSION}"
        )
    fused = [
        _void_p, _void_p,  # charges, delay_sums
        _i64, _i64, _i64, _i64, _i64,  # T, S, G, P, C
        _i64, _i64, _i64, _i64, _i64,  # charge strides
        _i64, _i64, _i64,  # delay_sum strides
        _f64, _f64, _f64, _f64, _f64, _f64,  # chain scalars
        _f64, _i32,  # saturation, has_saturation
        _void_p, _void_p,  # shifts, rec_out
        _i64, _i64, _i64,  # rec_out strides
    ]
    recombine = [
        _void_p, _void_p,  # estimates, shifts
        _i64, _i64, _i64, _i64, _i64,  # T, S, G, P, C
        _i64, _i64, _i64, _i64, _i64,  # estimate strides
        _void_p, _i64, _i64, _i64,  # rec_out + strides
    ]
    gather = [
        _void_p, _i64, _i64, _i64, _i64,  # codes, N, CH, H, W
        _i64, _i64, _i64, _i64,  # code strides
        _i64, _i64, _i64, _i64, _i64,  # kernel, stride, pad, out_h, out_w
        _i64, _f64,  # groups, scale
        _void_p, _void_p,  # operand, sums
    ]
    for name, argtypes in (
        ("readout_fused_f64", fused),
        ("readout_fused_f32", fused),
        ("slice_recombine_f64", recombine),
        ("slice_recombine_f32", recombine),
        ("im2col_gather_f64", gather),
        ("im2col_gather_f32", gather),
    ):
        fn = getattr(lib, name)
        fn.restype = None
        fn.argtypes = argtypes
    return lib


def load() -> ctypes.CDLL:
    """The bound library, building it on first use.  May raise."""
    global _lib
    if _lib is not None:
        return _lib
    with _lock:
        if _lib is not None:
            return _lib
        prebuilt = _find_prebuilt()
        if prebuilt is not None:
            try:
                _lib = _bind(prebuilt)
                return _lib
            except (OSError, KernelBuildError):
                pass  # stale/foreign extension: fall through to a fresh build
        _lib = _bind(build())
        return _lib


_SUPPORTED = (np.dtype(np.float64), np.dtype(np.float32))


def _element_strides(a: np.ndarray) -> List[int]:
    return [s // a.itemsize for s in a.strides]


def _fast_path_ok(
    charges: np.ndarray,
    delay_sums: np.ndarray,
    out: Optional[np.ndarray],
    shifts: Optional[np.ndarray],
    recombine_out: Optional[np.ndarray],
) -> bool:
    """Whether this call fits the compiled packed-stack layout."""
    if not isinstance(charges, np.ndarray) or charges.ndim != 5:
        return False
    if charges.dtype not in _SUPPORTED:
        return False
    if not isinstance(delay_sums, np.ndarray) or delay_sums.dtype != charges.dtype:
        return False
    tiles, slices, groups, pos, cols = charges.shape
    if delay_sums.shape != (tiles, 1, groups, pos, 1):
        return False
    if any(s % charges.itemsize for s in charges.strides):
        return False
    if any(s % delay_sums.itemsize for s in delay_sums.strides):
        return False
    if out is not None and out is not charges:
        if (
            not isinstance(out, np.ndarray)
            or out.shape != charges.shape
            or out.dtype != charges.dtype
            or any(s % out.itemsize for s in out.strides)
        ):
            return False
    if shifts is not None:
        if recombine_out is None or recombine_out.dtype != np.float64:
            return False
        if recombine_out.shape != (groups, pos, cols):
            return False
        if any(s % recombine_out.itemsize for s in recombine_out.strides):
            return False
        if np.asarray(shifts).shape != (slices,):
            return False
    return True


def readout_fused(
    charges: np.ndarray,
    delay_sums: np.ndarray,
    scalars: "ReadoutScalars",
    out: Optional[np.ndarray] = None,
    saturation: Optional[float] = None,
    shifts: Optional[np.ndarray] = None,
    recombine_out: Optional[np.ndarray] = None,
) -> np.ndarray:
    if not _fast_path_ok(charges, delay_sums, out, shifts, recombine_out):
        return numpy_impl.readout_fused(
            charges,
            delay_sums,
            scalars,
            out=out,
            saturation=saturation,
            shifts=shifts,
            recombine_out=recombine_out,
        )
    lib = load()
    if out is None:
        work = charges.copy()
    elif out is charges:
        work = charges
    else:
        np.copyto(out, charges)
        work = out
    tiles, slices, groups, pos, cols = work.shape
    ch = _element_strides(work)
    ds = _element_strides(delay_sums)
    if shifts is not None:
        shift_weights = np.ascontiguousarray(np.asarray(shifts, dtype=np.float64))
        rec = recombine_out
        rec_strides = _element_strides(rec)
        shifts_ptr = shift_weights.ctypes.data
        rec_ptr = rec.ctypes.data
    else:
        shifts_ptr = None
        rec_ptr = None
        rec_strides = [0, 0, 0]
    fn = lib.readout_fused_f64 if work.dtype == np.float64 else lib.readout_fused_f32
    fn(
        work.ctypes.data,
        delay_sums.ctypes.data,
        tiles, slices, groups, pos, cols,
        ch[0], ch[1], ch[2], ch[3], ch[4],
        ds[0], ds[2], ds[3],
        scalars.offset_coeff,
        scalars.capacitance_f,
        scalars.v_threshold,
        scalars.phase2_scale,
        scalars.full_scale_s,
        scalars.lsb_s,
        0.0 if saturation is None else saturation * scalars.dot_max,
        0 if saturation is None else 1,
        shifts_ptr,
        rec_ptr,
        rec_strides[0], rec_strides[1], rec_strides[2],
    )
    return work


def slice_recombine(
    shifts: np.ndarray, estimates: np.ndarray, out: np.ndarray
) -> np.ndarray:
    if (
        not isinstance(estimates, np.ndarray)
        or estimates.ndim != 5
        or estimates.dtype not in _SUPPORTED
        or out.dtype != np.float64
        or out.shape != estimates.shape[2:]
        or np.asarray(shifts).shape != (estimates.shape[1],)
        or any(s % estimates.itemsize for s in estimates.strides)
        or any(s % out.itemsize for s in out.strides)
    ):
        return numpy_impl.slice_recombine(shifts, estimates, out)
    lib = load()
    shift_weights = np.ascontiguousarray(np.asarray(shifts, dtype=np.float64))
    tiles, slices, groups, pos, cols = estimates.shape
    es = _element_strides(estimates)
    rec_strides = _element_strides(out)
    fn = (
        lib.slice_recombine_f64
        if estimates.dtype == np.float64
        else lib.slice_recombine_f32
    )
    fn(
        estimates.ctypes.data,
        shift_weights.ctypes.data,
        tiles, slices, groups, pos, cols,
        es[0], es[1], es[2], es[3], es[4],
        out.ctypes.data,
        rec_strides[0], rec_strides[1], rec_strides[2],
    )
    return out


def im2col_pack(
    codes: np.ndarray,
    kernel: int,
    stride: int = 1,
    pad: int = 0,
    *,
    groups: int = 1,
    scale: float = 1.0,
    dtype: DTypeLike = np.float64,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    out_dtype = np.dtype(dtype)
    if (
        not isinstance(codes, np.ndarray)
        or codes.ndim != 4
        or codes.dtype != np.int64
        or not codes.flags.aligned
        or out_dtype not in _SUPPORTED
        or kernel <= 0
        or stride <= 0
        or pad < 0
        or groups <= 0
        or codes.shape[1] % groups
        or any(s % codes.itemsize for s in codes.strides)
    ):
        return numpy_impl.im2col_pack(
            codes, kernel, stride, pad, groups=groups, scale=scale, dtype=dtype
        )
    n, channels, height, width = codes.shape
    out_h = (height + 2 * pad - kernel) // stride + 1
    out_w = (width + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel/stride/pad combination produces empty output")
    lib = load()
    positions = n * out_h * out_w
    operand = np.empty((positions, channels * kernel * kernel), dtype=out_dtype)
    sums = np.empty((groups, positions), dtype=np.int64)
    st = _element_strides(codes)
    fn = lib.im2col_gather_f64 if out_dtype == np.float64 else lib.im2col_gather_f32
    fn(
        codes.ctypes.data, n, channels, height, width,
        st[0], st[1], st[2], st[3],
        kernel, stride, pad, out_h, out_w,
        groups, float(scale),
        operand.ctypes.data, sums.ctypes.data,
    )
    return operand, sums, out_h, out_w
