"""Tests of the benchmark itself.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import SITES, Site, Tracer  # noqa: E402

from repro.circuits.noise import HardwareNoiseConfig  # noqa: E402
from repro.context import SimContext  # noqa: E402
from repro.engine import NetworkExecutor, ProgrammedState, program  # noqa: E402
from repro.nn.models import build_model  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _bound_attributes(sites):
    """The raw attribute each site's owner holds right now."""
    out = {}
    for site in sites:
        owner, name = site.owner()
        out[(site.module, site.attr)] = vars(owner)[name]
    return out


def _noisy_run(tmp_path: Path):
    """Program, save, load, wire with noise and run tiny_cnn validated."""
    network = build_model("tiny_cnn")
    ctx = SimContext(noise=HardwareNoiseConfig.scaled(1.0, seed=3), seed=2)
    state = ProgrammedState.load(program(network, ctx).save(tmp_path / "state"))
    executor = NetworkExecutor(network, ctx, state=state)
    x = np.random.default_rng(5).uniform(0.0, 1.0, size=(2,) + (1, 12, 12))
    return executor.run(x, validate=True)


def test_tracing_leaves_outputs_byte_identical_and_restores_attributes(tmp_path):
    before = _bound_attributes(SITES)
    plain = _noisy_run(tmp_path / "plain")
    with Tracer() as tracer:
        during = _bound_attributes(SITES)
        traced = _noisy_run(tmp_path / "traced")
    assert all(during[key] is not before[key] for key in before)
    assert plain.output.tobytes() == traced.output.tobytes()
    assert plain.reference.tobytes() == traced.reference.tobytes()
    after = _bound_attributes(SITES)
    assert all(after[key] is before[key] for key in before)
    recorded = {layer for layer, *_ in tracer.spans}
    for layer in (
        "engine.packed.matmul",
        "engine.packed.wire",
        "kernels.im2col_pack",
        "circuits.noise.apply_conductance_variation",
        "engine.state.save",
        "engine.state.load",
    ):
        assert layer in recorded


def test_attributes_are_restored_when_the_traced_code_raises():
    before = _bound_attributes(SITES)
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    after = _bound_attributes(SITES)
    assert all(after[key] is before[key] for key in before)


def outer():
    time.sleep(0.002)
    return inner() + 1


def inner():
    time.sleep(0.003)
    return 1


def test_self_time_never_exceeds_busy_time(tmp_path):
    module = __name__
    sites = (Site("outer", module, "outer"), Site("inner", module, "inner"))
    with Tracer(sites) as tracer:
        for call in range(3):
            tracer.unit = ("call", call)
            outer()
    assert len(tracer.spans) == 6
    assert all(0 <= own <= busy for _, _, busy, own, _ in tracer.spans)
    layers, _, problems = tracer.summary({("call", i): 0.01 for i in range(3)})
    assert not problems
    assert layers["outer"]["calls"] == layers["inner"]["calls"] == 1
    assert layers["inner"]["self_s"] == layers["inner"]["busy_s"]
    assert layers["outer"]["self_s"] < layers["outer"]["busy_s"]

    # and on the engine's own nested spans
    with Tracer() as engine:
        _noisy_run(tmp_path)
    assert engine.spans
    assert all(0 <= own <= busy for _, _, busy, own, _ in engine.spans)


def test_a_count_that_differs_between_calls_is_reported():
    sites = (Site("inner", __name__, "inner"),)
    with Tracer(sites) as tracer:
        tracer.unit = ("call", 0)
        inner()
        tracer.unit = ("call", 1)
        inner()
        inner()
    _, _, problems = tracer.summary({("call", 0): 0.01, ("call", 1): 0.01})
    assert problems and "inner.calls" in problems[0]


TINY = {
    "resnet18_b4": dict(model="tiny_cnn", setup_reps=2),
    "cnn1_single": dict(model="tiny_cnn", setup_reps=2, input_pool=4),
    "mlp_l_sweep": dict(model="tiny_mlp", setup_reps=2, trials=2),
}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_of_each_workload(name, trace, tmp_path):
    wl = replace(workloads.WORKLOADS[name], **TINY[name])
    start = time.perf_counter()
    outcome = workloads.measure(wl, seed=3, seconds=0.2, trace=trace, workdir=tmp_path)
    assert time.perf_counter() - start < 30
    checks = outcome["checks"]
    assert checks.passed, checks.results
    assert outcome["attempted"] >= 1 and outcome["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    expected = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    got = {metric: unit for metric, (_, unit) in outcome["metrics"].items()}
    assert got == expected
    if not trace:
        assert all(value > 0 for value, _ in outcome["metrics"].values())
