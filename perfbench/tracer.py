"""Per-layer spans recorded from outside the program.

A :class:`Tracer` wraps public functions of the engine's layers at the
names their callers look them up by (``engine/executor.py`` binds
``im2col_pack`` in its own namespace, so that is where the wrapper goes),
records one span per call and restores every original on exit.  The
program itself is not edited: tracing is the benchmark's own code.

Spans are kept in memory and tagged with the benchmark's current *unit*
(one set-up or one timed call).  :meth:`Tracer.summary` folds them into
per-layer figures:

* ``busy_s`` — wall time inside the layer's spans,
* ``self_s`` — ``busy_s`` minus the part covered by nested traced spans,
* ``calls`` and the layer's work counts (``macs``, ``elements``, ``bytes``).

Every figure is the cost of one set-up plus one timed call: the median over
the traced set-ups of a layer's set-up share plus the median over the
traced calls of its call share.  Counts are deterministic, so they must be
identical across the units of a phase; a mismatch is reported as a problem
instead of being averaged.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: stats that count work rather than time; they must repeat exactly
COUNT_STATS = ("calls", "macs", "elements", "bytes")

Counter = Callable[[tuple, dict, object], Dict[str, int]]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _matmul_counts(args, kwargs, result) -> Dict[str, int]:
    matmul, codes = args[0], _arg(args, kwargs, 1, "codes")
    # one multiply-accumulate per (position, weight row, output column)
    return {"macs": int(codes.shape[0]) * matmul.rows_needed * matmul.out_cols}


def _readout_counts(args, kwargs, result) -> Dict[str, int]:
    return {"elements": int(_arg(args, kwargs, 0, "charges").size)}


def _im2col_counts(args, kwargs, result) -> Dict[str, int]:
    return {"bytes": int(result[0].nbytes)}


def _variation_counts(args, kwargs, result) -> Dict[str, int]:
    return {"elements": int(_arg(args, kwargs, 1, "conductances").size)}


def _save_counts(args, kwargs, result) -> Dict[str, int]:
    return {"bytes": int(args[0].nbytes)}


def _load_counts(args, kwargs, result) -> Dict[str, int]:
    return {"bytes": int(result.nbytes)}


@dataclass(frozen=True)
class Site:
    """One lookup site: ``attr`` of ``module`` (``"Class.method"`` for a
    method) is replaced by a wrapper recording spans named ``layer``."""

    layer: str
    module: str
    attr: str
    counts: Optional[Counter] = None

    def owner(self) -> Tuple[object, str]:
        owner = importlib.import_module(self.module)
        *path, name = self.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name


#: every wrapped lookup site; several sites may feed one layer name
SITES: Tuple[Site, ...] = (
    Site("engine.packed.matmul", "repro.engine.packed", "PackedMatmul.matmul", _matmul_counts),
    Site("engine.packed.wire", "repro.engine.packed", "PackedMatmul.from_packed"),
    Site("kernels.readout_fused", "repro.engine.packed", "readout_fused", _readout_counts),
    Site("kernels.readout_fused", "repro.circuits.timing", "readout_fused", _readout_counts),
    Site("kernels.im2col_pack", "repro.engine.executor", "im2col_pack", _im2col_counts),
    Site("engine.executor.run", "repro.engine.executor", "NetworkExecutor.run"),
    Site("engine.executor.program_layer", "repro.engine.executor", "program_layer"),
    Site(
        "engine.reference.reference_forward_batch",
        "repro.engine.executor",
        "reference_forward_batch",
    ),
    Site("engine.reference.apply_aux_batched", "repro.engine.executor", "apply_aux_batched"),
    Site(
        "nn.quantization.quantize_unsigned_batch",
        "repro.engine.executor",
        "quantize_unsigned_batch",
    ),
    Site("engine.params.NetworkParams", "repro.engine.params", "NetworkParams.__init__"),
    # SimContext.map_network imports the mapper at call time, so the
    # module attribute is the name it looks up
    Site("mapping.map_network", "repro.mapping.crossbar_mapping", "map_network"),
    Site(
        "circuits.noise.apply_conductance_variation",
        "repro.circuits.noise",
        "NoiseStream.apply_conductance_variation",
        _variation_counts,
    ),
    Site("engine.state.save", "repro.engine.state", "ProgrammedState.save", _save_counts),
    Site("engine.state.load", "repro.engine.state", "ProgrammedState.load", _load_counts),
    Site("sweep.pool.run_trial", "repro.sweep.pool", "run_trial"),
)


class Tracer:
    """Installs span-recording wrappers on ``sites``; a context manager.

    ``unit`` tags every span recorded until it is changed; the benchmark
    sets it to ``("setup", i)`` or ``("call", i)`` around each unit of work.
    """

    def __init__(self, sites: Tuple[Site, ...] = SITES):
        self.sites = sites
        self.unit: Optional[Tuple[str, int]] = None
        #: (layer, unit, busy_ns, self_ns, counts) per finished span
        self.spans: List[Tuple[str, object, int, int, Optional[Dict[str, int]]]] = []
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for site in self.sites:
                owner, name = site.owner()
                original = vars(owner)[name]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(site, original.__func__))
                else:
                    wrapped = self._wrap(site, original)
                setattr(owner, name, wrapped)
                self._patched.append((owner, name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, site: Site, fn: Callable) -> Callable:
        layer, counter = site.layer, site.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0]  # nanoseconds covered by nested spans
            stack.append(frame)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                busy = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += busy
                # a call that raised has no result to count
                counts = counter(args, kwargs, result) if counter and result is not None else None
                self.spans.append((layer, self.unit, busy, busy - frame[0], counts))

        return wrapper

    # -- reduction -------------------------------------------------------------
    def summary(
        self, unit_wall_s: Dict[Tuple[str, int], float]
    ) -> Tuple[Dict[str, Dict[str, float]], float, List[str]]:
        """Per-layer figures, unattributed seconds and count problems.

        ``unit_wall_s`` maps every traced unit to its wall time; a unit in
        which a layer recorded nothing counts as zero for that layer.
        Returns ``(layers, unattributed_s, problems)`` where ``layers[name]``
        holds ``busy_s``, ``self_s`` and the count stats the layer records.
        """
        phases: Dict[str, List[Tuple[str, int]]] = {}
        for unit in unit_wall_s:
            phases.setdefault(unit[0], []).append(unit)
        per_unit: Dict[Tuple[str, object], Dict[str, float]] = {}
        self_by_unit: Dict[object, float] = {}
        for layer, unit, busy, own, counts in self.spans:
            entry = per_unit.setdefault((layer, unit), {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += busy * 1e-9
            entry["self_s"] += own * 1e-9
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
            self_by_unit[unit] = self_by_unit.get(unit, 0.0) + own * 1e-9

        layers: Dict[str, Dict[str, float]] = {}
        problems: List[str] = []
        for layer in dict.fromkeys(site.layer for site in self.sites):
            stats = sorted(
                {stat for (name, _), entry in per_unit.items() if name == layer for stat in entry}
                | {"calls", "busy_s", "self_s"}
            )
            figures = {stat: 0.0 for stat in stats}
            for phase, units in phases.items():
                for stat in stats:
                    values = [per_unit.get((layer, u), {}).get(stat, 0) for u in units]
                    if stat in COUNT_STATS and len(set(values)) > 1:
                        problems.append(
                            f"{layer}.{stat} differs across {phase} units: {sorted(set(values))}"
                        )
                    figures[stat] += statistics.median(values)
            layers[layer] = figures

        unattributed = 0.0
        for phase, units in phases.items():
            unattributed += statistics.median(
                unit_wall_s[u] - self_by_unit.get(u, 0.0) for u in units
            )
        return layers, unattributed, problems
