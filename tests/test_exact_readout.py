"""The exact read-out: a conv/FC layer with nothing non-ideal to model is
computed as exact integer GEMMs over its stored cell levels.

Pinned here: which contexts keep a layer on the exact read-out and which
send it through the time-domain chain, and the noiseless contract that
follows — noiseless, fault-free analog output is byte-equal to ideal-mode
output on every model shape (plain, residual, deep FC, grouped), at either
compute dtype, on every kernel tier, chunked or not.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.circuits.noise import HardwareNoiseConfig
from repro.context import COMPUTE_DTYPES, SimContext
from repro.engine import FaultModel, NetworkExecutor, PackedMatmul, program
from repro.kernels.dispatch import available
from repro.nn.layers import TensorShape
from repro.nn.models import build_model
from repro.nn.network import NetworkBuilder

RNG = np.random.default_rng(23)

#: noise configs that perturb only what the packed chain models
VARIATION = replace(HardwareNoiseConfig.ideal(), reram_conductance_sigma=0.01)
JITTER = replace(HardwareNoiseConfig.ideal(), dtc_sigma=0.01)
#: sigmas of blocks the packed engine does not model: no draw is consumed
UNMODELLED = replace(
    HardwareNoiseConfig.scaled(1.0), dtc_sigma=0.0, reram_conductance_sigma=0.0
)


@pytest.mark.parametrize(
    "noise,faults,readout",
    [
        (None, None, "exact"),
        (HardwareNoiseConfig.ideal(), None, "exact"),
        (UNMODELLED, None, "exact"),
        (None, FaultModel(), "exact"),  # a fault model with nothing enabled
        (VARIATION, None, "chain"),
        (JITTER, None, "chain"),
        (None, FaultModel(stuck_on_fraction=0.01), "chain"),
        (None, FaultModel(drift_nu=0.1, drift_time_s=10.0), "chain"),
        (None, FaultModel(readout_saturation=0.5), "chain"),
    ],
)
def test_only_a_non_ideality_to_model_runs_the_chain(noise, faults, readout):
    q = RNG.integers(-127, 128, size=(40, 9))
    ctx = SimContext(noise=noise, faults=faults)
    assert PackedMatmul(q, ctx, "analog").readout == readout
    assert PackedMatmul(q, ctx, "ideal").readout == "exact"


def _grouped_net():
    """A grouped conv (2 groups) with partial edge tiles between an
    ungrouped conv and an FC."""
    builder = NetworkBuilder("grouped_exact", TensorShape(4, 10, 10))
    builder.conv(8, 3, padding=1, name="conv1").relu()
    builder.conv(12, 3, padding=1, groups=2, name="conv2").relu()
    builder.pool(2, name="pool")
    builder.fc(7, name="fc")
    return builder.build()


@pytest.mark.parametrize("tier", available())
@pytest.mark.parametrize("dtype", COMPUTE_DTYPES)
@pytest.mark.parametrize("model", ["cnn_1", "resnet_smoke", "mlp_l", "grouped"])
def test_noiseless_analog_output_is_byte_equal_to_ideal(model, dtype, tier):
    network = _grouped_net() if model == "grouped" else build_model(model)
    outputs = {}
    for mode in ("analog", "ideal"):
        state = program(network, SimContext(compute_dtype=dtype, seed=2), mode)
        for chunk_bytes in (None, 1 << 14):
            ctx = SimContext(compute_dtype=dtype, chunk_bytes=chunk_bytes, kernel=tier, seed=2)
            executor = NetworkExecutor(network, ctx, mode, state=state)
            result = executor.run(executor.random_batch(2), validate=False)
            readouts = {t.readout for t in result.traces if t.crossbars}
            assert readouts == {"exact"}
            outputs[mode, chunk_bytes] = result.output
    reference = outputs["ideal", None].tobytes()
    assert all(out.tobytes() == reference for out in outputs.values())
