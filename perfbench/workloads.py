"""The benchmark's workloads, driven through the library's public API.

Each workload is one closed loop in one process: the next call is issued
only after the previous one returned, as a researcher driving the
simulator does.  Inputs come from the workload seed through the
benchmark's own generator (the sweep passes the seed as ``SweepGrid.seed``).
Caches start empty: no ``ProgrammedStateCache`` directory is used and every
``run_sweep`` call gets a fresh store.  Why each workload was chosen is
recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.context import SimContext
from repro.engine import NetworkExecutor, NetworkParams, ProgrammedState, program
from repro.nn.models import build_model
from repro.sweep import SweepGrid, SweepStore, run_sweep

from tracer import Tracer

#: forward workloads program the chip with this fixed weight seed; the
#: workload seed only draws the input images
WEIGHT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    kind: str  # "forward" or "sweep"
    #: correctness bound on the workload's rel_error
    rel_error_bound: float
    #: images per forward call; 0 passes one unbatched (C, H, W) image
    batch: int = 0
    validate: bool = False
    #: distinct inputs the forward loop cycles through
    input_pool: int = 1
    setup_reps: int = 5
    noise_scales: Tuple[float, ...] = ()
    trials: int = 0
    workers: int = 1


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            "resnet18_b4", "resnet_18", "forward", rel_error_bound=0.05,
            batch=4, validate=False, input_pool=2, setup_reps=5,
        ),
        Workload(
            "cnn1_single", "cnn_1", "forward", rel_error_bound=0.05,
            batch=0, validate=True, input_pool=256, setup_reps=21,
        ),
        Workload(
            "mlp_l_sweep", "mlp_l", "sweep", rel_error_bound=0.15,
            setup_reps=5, noise_scales=(0.5, 1.0, 2.0), trials=8, workers=2,
        ),
    )
}


@dataclass
class Run:
    """What one measured (or traced) loop observed."""

    call_s: List[float] = field(default_factory=list)
    #: perf_counter at the start of each call in ``call_s``
    call_at: List[float] = field(default_factory=list)
    images: int = 0
    trials: int = 0
    attempted: int = 0
    failed: int = 0
    #: SweepOutcome of every sweep call
    outcomes: list = field(default_factory=list)


class Checks:
    """Named pass/fail output checks; the first failure of each is kept."""

    def __init__(self) -> None:
        self.results: Dict[str, Optional[str]] = {}

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        if name not in self.results or self.results[name] is None:
            self.results[name] = None if ok else (detail or "failed")

    @property
    def passed(self) -> bool:
        return all(problem is None for problem in self.results.values())


def typical_ms(run: Run) -> float:
    """The median call time of each second of the run, averaged over its
    seconds.

    On a shared cloud VM the CPU can switch between a fast and a slow speed
    every few seconds, so the plain median of a run's calls flips between
    the two speeds with whichever held more than half the run.  Averaging
    per-second medians follows the share of time spent at each speed
    instead.  A call longer than a second is alone in its second, so for
    resnet18_b4 and mlp_l_sweep this is the mean call time.
    """
    seconds: Dict[int, List[float]] = {}
    for at, took in zip(run.call_at, run.call_s):
        seconds.setdefault(int(at - run.call_at[0]), []).append(took)
    return 1000.0 * statistics.fmean(statistics.median(v) for v in seconds.values())


def tail_ms(calls_ms: List[float], typical: float) -> float:
    """The highest percentile, at most the 99th, with ten calls above it.

    That is the 99th percentile from 1000 calls on (cnn1_single); a run
    with fewer calls cannot support a tail that far out, and one with
    fewer than 20 calls (resnet18_b4 and mlp_l_sweep here) reports
    ``typical``.
    """
    n = len(calls_ms)
    q = min(99, 100 * (n - 10) // n) if n > 10 else 0
    if q <= 50:
        return typical
    return statistics.quantiles(calls_ms, n=100, method="inclusive")[q - 1]


def call_summary(call_s: List[float]) -> dict:
    """Sample count and deciles of the call times, for the results file."""
    calls_ms = sorted(s * 1000.0 for s in call_s)
    summary = {"n": len(calls_ms)}
    if len(calls_ms) > 1:
        summary.update(min=calls_ms[0], max=calls_ms[-1])
        deciles = statistics.quantiles(calls_ms, n=10, method="inclusive")
        summary.update({f"p{10 * (i + 1)}": q for i, q in enumerate(deciles)})
    return summary


def peak_rss_mb(with_children: bool) -> float:
    """ru_maxrss of this process, plus its largest waited-for child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def timed_call(run: Run, checks: Checks, attempts: int, fn, unit, tracer, units):
    """Time one closed-loop call of ``fn``; its result, or None if it raised.

    ``attempts`` is what the call counts in ``run.attempted`` (and in
    ``run.failed`` when it raises); ``unit`` tags its spans and its wall time
    in ``units`` when it is traced.
    """
    if tracer is not None:
        tracer.unit = unit
    run.attempted += attempts
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a failed call counts; the loop goes on
        run.failed += attempts
        checks.record("calls_succeed", False, f"{type(exc).__name__}: {exc}")
        return None
    elapsed = time.perf_counter() - start
    if units is not None:
        units[unit] = elapsed
    run.call_s.append(elapsed)
    run.call_at.append(start)
    return result


# -- forward workloads --------------------------------------------------------
def forward_setup(wl: Workload) -> NetworkExecutor:
    """Build, params, program, map and wire one resident analog executor."""
    network = build_model(wl.model)
    ctx = SimContext(seed=WEIGHT_SEED)
    params = NetworkParams(network, ctx.seed)
    state = program(network, ctx, "analog", params=params)
    # from_state maps the network (executor.mapping) and wires every layer
    return NetworkExecutor.from_state(state, network=network, ctx=ctx, params=params)


def forward_inputs(wl: Workload, executor: NetworkExecutor, seed: int) -> List[np.ndarray]:
    shape = executor.network.input_shape
    image = (shape.channels, shape.height, shape.width)
    size = (wl.batch,) + image if wl.batch else image
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.0, 1.0, size=size) for _ in range(wl.input_pool)]


class ForwardLoop:
    """Closed loop of ``executor.run`` calls with per-call output checks."""

    def __init__(self, wl: Workload, executor: NetworkExecutor, seed: int, checks: Checks):
        self.wl = wl
        self.executor = executor
        self.inputs = forward_inputs(wl, executor, seed)
        self.checks = checks
        self.crossbars = executor.mapping.total_crossbars
        self.outputs: Dict[int, np.ndarray] = {}
        self.errors: Dict[int, float] = {}
        self.calls = 0

    def call(self, run: Run, tracer: Optional[Tracer] = None, units: Optional[dict] = None) -> None:
        index = self.calls % len(self.inputs)
        x = self.inputs[index]
        result = timed_call(
            run, self.checks, 1, lambda: self.executor.run(x, validate=self.wl.validate),
            ("call", self.calls), tracer, units,
        )
        self.calls += 1
        if result is None:
            return
        run.images += self.wl.batch or 1
        run.trials += 1
        self.check(index, result)

    def check(self, index: int, result) -> None:
        total = sum(trace.crossbars for trace in result.traces)
        self.checks.record(
            "crossbars_match_mapper",
            total == self.crossbars,
            f"LayerTrace crossbars {total} != mapper total {self.crossbars}",
        )
        if index in self.outputs:
            self.checks.record(
                "outputs_repeat_exactly",
                np.array_equal(result.output, self.outputs[index]),
                f"input {index} gave a different output on a repeat call",
            )
        else:
            self.outputs[index] = result.output
            if self.wl.validate:
                self.errors[index] = result.rel_error

    def finish(self) -> float:
        """The rel_error: the mean over every input for a validating loop,
        else one validated call on the first input (both untimed here)."""
        indices = range(len(self.inputs)) if self.wl.validate else [0]
        for index in indices:
            if index not in self.errors:
                result = self.executor.run(self.inputs[index], validate=True)
                self.check(index, result)
                self.errors[index] = result.rel_error
        return statistics.fmean(self.errors[i] for i in indices)


# -- sweep workload -----------------------------------------------------------
def sweep_grid(wl: Workload, seed: int) -> SweepGrid:
    return SweepGrid(models=(wl.model,), noise_scales=wl.noise_scales, trials=wl.trials, seed=seed)


def sweep_setup(wl: Workload, seed: int, workdir: Path, rep: int) -> NetworkExecutor:
    """Prepare one noise-1.0 trial's chip the way the sweep does it.

    Build, params and program in the parent, the snapshot round trip the
    pool makes (parent saves, worker loads), then wiring with the trial's
    programming variation.
    """
    spec = next(s for s in sweep_grid(wl, seed).specs() if s.noise_scale == 1.0)
    network = build_model(spec.model)
    ctx = spec.context()
    params = NetworkParams(network, spec.seed)
    state = program(network, ctx, spec.mode, params=params)
    loaded = ProgrammedState.load(state.save(workdir / f"setup-{rep}"))
    return NetworkExecutor(network, ctx, spec.mode, params=params, state=loaded)


class SweepLoop:
    """Closed loop of ``run_sweep`` calls, each on a fresh store."""

    def __init__(self, wl: Workload, seed: int, workdir: Path, checks: Checks):
        self.wl = wl
        self.workers = wl.workers
        self.grid = sweep_grid(wl, seed)
        self.workdir = workdir
        self.checks = checks
        self.first_rows: Optional[list] = None
        self.calls = 0

    def call(self, run: Run, tracer: Optional[Tracer] = None, units: Optional[dict] = None) -> None:
        trials = len(self.grid)
        store = SweepStore(self.workdir / f"sweep-{self.calls}.jsonl")
        outcome = timed_call(
            run, self.checks, trials, lambda: run_sweep(self.grid, store, workers=self.workers),
            ("call", self.calls), tracer, units,
        )
        self.calls += 1
        if outcome is None:
            return
        run.trials += outcome.computed
        run.images += outcome.executed  # each engine run validates one image
        run.failed += outcome.failed
        run.outcomes.append(outcome)
        stored = list(store.load().values())
        store.path.unlink()
        self.checks.record(
            "sweep_stores_every_row",
            len(stored) == trials and outcome.computed == trials,
            f"store holds {len(stored)} rows for a {trials}-trial grid",
        )
        errors = [row["error"] for row in stored if "error" in row]
        self.checks.record("sweep_has_no_error_rows", not errors, f"error rows: {errors[:3]}")
        rows = [
            (row["key"], row["noise_scale"], row["rel_error"], row["crossbars"], row["layers"])
            for row in outcome.rows
        ]
        if self.first_rows is None:
            self.first_rows = rows
        else:
            self.checks.record(
                "sweep_rows_repeat_exactly",
                rows == self.first_rows,
                "a repeated sweep of the same grid stored different rows",
            )

    def finish(self) -> float:
        """The rel_error: over the first call's rows at noise scale 1.0, the
        mean of each row's per-layer errors against the float reference.

        The row's output-level error is measured on the logits of one
        image, so it spreads by 40% from seed to seed; the per-layer mean
        averages over every hidden activation and spreads by about 7%.
        """
        at_one = [
            statistics.fmean(layers.values())
            for _, scale, _, _, layers in self.first_rows or []
            if scale == 1.0
        ]
        return statistics.fmean(at_one) if at_one else float("nan")


# -- one run ------------------------------------------------------------------
def _timed_setups(setup, reps, tracer: Optional[Tracer], units: Optional[dict]):
    """Time ``setup.run(rep)`` for each of ``reps``, each followed by an
    untimed ``setup.clean(rep)``; return (seconds per rep, last executor)."""
    times, result = [], None
    for rep in reps:
        result = None
        gc.collect()
        if tracer is not None:
            tracer.unit = ("setup", rep)
        start = time.perf_counter()
        result = setup.run(rep)
        elapsed = time.perf_counter() - start
        setup.clean(rep)
        if units is not None:
            units[("setup", rep)] = elapsed
        times.append(elapsed)
    return times, result


@dataclass(frozen=True)
class Setup:
    wl: Workload
    seed: int
    workdir: Path

    def run(self, rep: int) -> NetworkExecutor:
        if self.wl.kind == "forward":
            return forward_setup(self.wl)
        return sweep_setup(self.wl, self.seed, self.workdir, rep)

    def clean(self, rep: int) -> None:
        shutil.rmtree(self.workdir / f"setup-{rep}", ignore_errors=True)


def _loop(call, seconds: float) -> None:
    start = time.perf_counter()
    while True:
        call()
        if time.perf_counter() - start >= seconds:
            return


def measure(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One run of ``wl``: end-to-end metrics, or per-layer ones with ``trace``.

    Returns a dict with ``metrics`` (name -> (value, unit)), ``attempted``,
    ``failed``, ``checks`` and ``details`` for the results file.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    details: dict = {}
    setup = Setup(wl, seed, workdir)
    workload_start = time.perf_counter()
    setup_s, executor = _timed_setups(setup, range(wl.setup_reps), None, None)
    details["setup_s"] = setup_s
    details["start_to_first_call_s"] = time.perf_counter() - workload_start

    measured = Run()
    if wl.kind == "forward":
        loop = ForwardLoop(wl, executor, seed, checks)
    else:
        loop = SweepLoop(wl, seed, workdir, checks)
        total = sum(t.crossbars for t in executor.run(validate=True).traces)
        checks.record(
            "crossbars_match_mapper",
            total == executor.mapping.total_crossbars,
            f"LayerTrace crossbars {total} != mapper total {executor.mapping.total_crossbars}",
        )
    del executor

    if not trace:
        _loop(lambda: loop.call(measured), seconds)
        metrics = end_to_end(wl, measured, setup_s)
    else:
        metrics = traced(wl, loop, setup, seconds, checks, details, measured)

    rel_error = loop.finish()
    checks.record(
        "rel_error_within_bound",
        bool(rel_error <= wl.rel_error_bound),
        f"rel_error {rel_error} exceeds the workload bound {wl.rel_error_bound}",
    )
    if not trace:
        metrics["rel_error"] = (rel_error, "ratio")
    details["rel_error"] = rel_error
    details["call_ms"] = call_summary(measured.call_s)
    return {
        "metrics": metrics,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "checks": checks,
        "details": details,
    }


def end_to_end(wl: Workload, run: Run, setup_s: List[float]) -> Dict[str, Tuple[float, str]]:
    if not run.call_s:
        raise RuntimeError("every timed call failed; see the calls_succeed check")
    typical = typical_ms(run)
    busy = sum(run.call_s)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "images_per_s": (run.images / busy, "1/s"),
        "call_ms_p50": (typical, "ms"),
        "call_ms_p99": (tail_ms([s * 1000.0 for s in run.call_s], typical), "ms"),
        "trials_per_s": (run.trials / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb(with_children=wl.kind == "sweep"), "MB"),
    }


#: per-layer metrics reported by a traced run: (layer, stat, unit)
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("engine.packed.matmul", "calls", "count"),
    ("engine.packed.matmul", "busy_s", "s"),
    ("engine.packed.matmul", "macs", "count"),
    ("engine.packed.matmul", "gmac_per_s", "GMAC/s"),
    ("kernels.readout_fused", "busy_s", "s"),
    ("kernels.readout_fused", "elements", "count"),
    ("kernels.im2col_pack", "busy_s", "s"),
    ("kernels.im2col_pack", "bytes", "B"),
    ("engine.executor.run", "busy_s", "s"),
    ("engine.executor.run", "self_s", "s"),
    ("engine.reference.reference_forward_batch", "busy_s", "s"),
    ("engine.reference.apply_aux_batched", "busy_s", "s"),
    ("nn.quantization.quantize_unsigned_batch", "busy_s", "s"),
    ("engine.params.NetworkParams", "busy_s", "s"),
    ("engine.executor.program_layer", "calls", "count"),
    ("engine.executor.program_layer", "busy_s", "s"),
    ("mapping.map_network", "busy_s", "s"),
    ("circuits.noise.apply_conductance_variation", "calls", "count"),
    ("circuits.noise.apply_conductance_variation", "busy_s", "s"),
    ("circuits.noise.apply_conductance_variation", "elements", "count"),
    ("engine.packed.wire", "busy_s", "s"),
    ("engine.state.save", "busy_s", "s"),
    ("engine.state.save", "bytes", "B"),
    ("engine.state.load", "busy_s", "s"),
    ("engine.state.load", "bytes", "B"),
    ("sweep.pool.run_trial", "busy_s", "s"),
)


def traced(wl, loop, setup, seconds, checks, details, measured) -> Dict[str, Tuple[float, str]]:
    """Set-ups and calls in untraced/traced pairs; the per-layer metrics.

    Pairing each traced set-up and call with an untraced twin run just
    before it keeps host drift out of the tracing overhead.  The traced
    sweep runs inline (``workers=1``): spans from pool workers never reach
    this process.  Its untraced twins run inline too, and one more untraced
    call at the measured worker count supplies the sweep's own counters.
    """
    if wl.kind == "sweep":
        loop.workers = 1
    tracer = Tracer()
    units: Dict[Tuple[str, int], float] = {}
    setup_pairs = []
    for rep in range(wl.setup_reps):
        plain, _ = _timed_setups(setup, [rep], None, None)
        with tracer:
            traced_s, _ = _timed_setups(setup, [rep], tracer, units)
        setup_pairs.append((plain[0], traced_s[0]))

    call_pairs = []

    def pair() -> None:
        done = len(measured.call_s)
        loop.call(measured)
        with tracer:
            loop.call(measured, tracer, units)
        if len(measured.call_s) == done + 2:
            call_pairs.append(tuple(measured.call_s[done:]))

    _loop(pair, seconds)
    layers, unattributed, problems = tracer.summary(units)
    for problem in problems:
        checks.record("counts_repeat_exactly", False, problem)
    checks.record("counts_repeat_exactly", True)
    checks.record(
        "self_time_within_busy_time",
        all(own <= busy for _, _, busy, own, _ in tracer.spans),
        "a span's self time exceeds its duration",
    )

    metrics: Dict[str, Tuple[float, str]] = {}
    for layer, stat, unit in LAYER_METRICS:
        figures = layers[layer]
        if stat == "gmac_per_s":
            busy = figures["busy_s"]
            value = figures.get("macs", 0) / busy / 1e9 if busy else 0.0
        else:
            value = figures.get(stat, 0)
        metrics[f"{layer}.{stat}"] = (value, unit)

    pooled = []
    if wl.kind == "sweep":
        loop.workers = wl.workers
        done = len(measured.outcomes)
        loop.call(measured)
        pooled = measured.outcomes[done:]
    computed = sum(o.computed for o in pooled)
    metrics["sweep.program_s"] = (sum(o.program_s for o in pooled), "s")
    metrics["sweep.pool_startup_s"] = (sum(o.pool_startup_s for o in pooled), "s")
    metrics["sweep.failed_ratio"] = (
        sum(o.failed for o in pooled) / computed if computed else 0.0, "ratio")
    metrics["sweep.executed_ratio"] = (
        sum(o.executed for o in pooled) / computed if computed else 0.0, "ratio")

    overhead = sum(
        statistics.median(traced - plain for plain, traced in pairs)
        for pairs in (setup_pairs, call_pairs)
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.unattributed_s"] = (unattributed, "s")
    details["trace"] = {
        "layers": layers,
        "spans": len(tracer.spans),
        "setup_pairs_s": setup_pairs,
        "call_pairs_s": call_pairs,
        "sweep_workers": (
            {"traced": 1, "untraced_twin": 1, "sweep_counters_from": wl.workers}
            if wl.kind == "sweep"
            else None
        ),
    }
    return metrics
