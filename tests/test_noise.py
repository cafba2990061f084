"""Stateless noise seeding: every draw derives from (seed, salt), so equal
seeds give identical draws, distinct salts decorrelate, streams replay, the
config pickles across process boundaries, and the Section-V error budget is
pinned at the paper's design point."""

import math
import pickle

import numpy as np
import pytest

from repro.circuits import noise
from repro.circuits.noise import (
    HardwareNoiseConfig,
    NoiseBudget,
    NoiseStream,
    SharedUnitDraws,
    shared_unit_draws,
    stable_seed,
)
from repro.context import SimContext


# ---------------------------------------------------------------------------
# stateless config draws
# ---------------------------------------------------------------------------

def test_same_seed_gives_identical_draws():
    a = HardwareNoiseConfig(seed=123)
    b = HardwareNoiseConfig(seed=123)
    for _ in range(3):
        np.testing.assert_array_equal(a.sample(0.1, (4, 4)), b.sample(0.1, (4, 4)))


def test_unsalted_draws_are_sequential_but_replayable():
    """Circuit blocks handed the bare config (legacy path) must see
    decorrelated successive draws — a 12-hop cascade may not repeat one
    jitter vector 12 times — while equal-seed configs still replay the same
    sequence."""
    a = HardwareNoiseConfig(seed=3)
    b = HardwareNoiseConfig(seed=3)
    first, second = a.sample(0.1, (8,)), a.sample(0.1, (8,))
    assert not np.array_equal(first, second)
    np.testing.assert_array_equal(b.sample(0.1, (8,)), first)
    np.testing.assert_array_equal(b.sample(0.1, (8,)), second)


def test_cascade_hops_accumulate_independent_errors():
    """Regression for the stateless redesign: each X-subBuf hop must draw
    fresh jitter (sqrt(n) accumulation), not re-apply one identical draw."""
    from repro.circuits.analog_buffers import XSubBuf

    buf = XSubBuf()
    noise = HardwareNoiseConfig(x_subbuf_sigma=0.5, seed=2)
    delays = np.full(64, 100.0 * buf.unit_delay_s)
    one_hop = np.asarray(buf.latch(delays, noise)) - delays
    two_hop_step = np.asarray(buf.latch(delays, noise)) - delays
    assert not np.array_equal(one_hop, two_hop_step)


def test_config_draws_are_pure_functions_of_seed_and_salt():
    """No hidden generator state: interleaving other draws cannot perturb a
    call, which is what makes results construction-order independent."""
    cfg = HardwareNoiseConfig(seed=7)
    first = cfg.sample(0.1, (8,), salt="site-a")
    for _ in range(5):
        cfg.sample(0.1, (16,), salt="site-b")  # unrelated consumption
    np.testing.assert_array_equal(cfg.sample(0.1, (8,), salt="site-a"), first)


def test_distinct_salts_decorrelate():
    cfg = HardwareNoiseConfig(seed=1)
    assert not np.array_equal(
        cfg.sample(0.1, (16,), salt="a"), cfg.sample(0.1, (16,), salt="b")
    )
    assert not np.array_equal(
        cfg.sample(0.1, (16,), salt=(1, 2)), cfg.sample(0.1, (16,), salt=(2, 1))
    )


def test_different_seeds_differ():
    a = HardwareNoiseConfig(seed=1)
    b = HardwareNoiseConfig(seed=2)
    assert not np.array_equal(a.sample(0.1, (16,)), b.sample(0.1, (16,)))


def test_reseed_updates_the_recorded_seed_and_the_draws():
    cfg = HardwareNoiseConfig(seed=1)
    before = cfg.sample(0.1, (8,))
    cfg.reseed(2)
    assert cfg.seed == 2
    assert not np.array_equal(cfg.sample(0.1, (8,)), before)
    cfg.reseed(1)
    np.testing.assert_array_equal(cfg.sample(0.1, (8,)), before)


def test_none_seed_normalises_to_default():
    assert HardwareNoiseConfig(seed=None).seed == 0
    np.testing.assert_array_equal(
        HardwareNoiseConfig(seed=None).sample(0.1, (4,)),
        HardwareNoiseConfig(seed=0).sample(0.1, (4,)),
    )


def test_zero_sigma_is_deterministically_zero():
    cfg = HardwareNoiseConfig(seed=5)
    np.testing.assert_array_equal(cfg.sample(0.0, (1000,)), np.zeros(1000))
    stream = cfg.stream("x")
    # zero-sigma draws consume no stream entropy
    first = cfg.stream("x").sample(0.1, (4,))
    np.testing.assert_array_equal(stream.sample(0.0, (1000,)), np.zeros(1000))
    np.testing.assert_array_equal(stream.sample(0.1, (4,)), first)


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def test_equal_salt_streams_replay_identical_sequences():
    cfg = HardwareNoiseConfig(seed=9)
    a = cfg.stream("tile", 0, 1)
    b = cfg.stream("tile", 0, 1)
    for _ in range(4):
        np.testing.assert_array_equal(a.sample(0.05, (8,)), b.sample(0.05, (8,)))


def test_stream_draws_are_sequential_and_salted():
    cfg = HardwareNoiseConfig(seed=9)
    stream = cfg.stream("tile", 0, 0)
    assert not np.array_equal(stream.sample(0.05, (8,)), stream.sample(0.05, (8,)))
    assert not np.array_equal(
        cfg.stream("tile", 0, 0).sample(0.05, (8,)),
        cfg.stream("tile", 0, 1).sample(0.05, (8,)),
    )


def test_stream_exposes_config_sigmas():
    cfg = HardwareNoiseConfig(seed=3, dtc_sigma=0.25)
    stream = cfg.stream("s")
    assert stream.dtc_sigma == 0.25
    assert stream.reram_conductance_sigma == cfg.reram_conductance_sigma
    sub = stream.stream("deeper")
    assert isinstance(sub, NoiseStream)
    assert sub.salt == ("s", "deeper")


def test_monte_carlo_trials_are_independently_reproducible():
    """The MC pattern the sweep uses: per-trial seeds derived from the base
    seed make every trial reproducible in isolation."""

    def trial_draws(trial):
        cfg = HardwareNoiseConfig(seed=stable_seed(0, "trial", trial))
        return cfg.stream("layer", 0).sample(0.02, (32,))

    for trial in range(4):
        np.testing.assert_array_equal(trial_draws(trial), trial_draws(trial))
    assert not np.array_equal(trial_draws(0), trial_draws(1))


# ---------------------------------------------------------------------------
# programming variation: fused pass and shared unit draws
# ---------------------------------------------------------------------------

def _historical_variation(rng, sigma, conductances):
    """The pre-fusion formula, kept as the oracle of the fused pass."""
    variation = rng.normal(0.0, sigma, size=conductances.shape)
    noisy = (conductances * (1.0 + variation)).astype(conductances.dtype, copy=False)
    return np.clip(noisy, 0.0, None, out=noisy)


def _conductances(dtype=np.float64, order="C", shape=(3, 37, 29)):
    values = np.random.default_rng((7, 11)).uniform(0.0, 1e-4, size=shape)
    values.flat[::11] = 0.0  # zero cells: a negative factor makes -0.0
    return np.asarray(values, dtype=dtype, order=order)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("order", ["C", "F"])
def test_fused_variation_matches_the_historical_formula(dtype, order):
    # sigma 0.5: about 2% of the factors 1 + sigma * z are negative and clip
    cfg = HardwareNoiseConfig.scaled(50.0, seed=9)
    sigma = cfg.reram_conductance_sigma
    c = _conductances(dtype, order)
    for fused, oracle in (
        (
            cfg.stream("layer", 3).apply_conductance_variation(c),
            _historical_variation(cfg.derived_rng("layer", 3), sigma, c),
        ),
        (
            HardwareNoiseConfig.scaled(50.0, seed=9).apply_conductance_variation(c),
            _historical_variation(cfg.derived_rng("unsalted"), sigma, c),
        ),
    ):
        assert fused.dtype == oracle.dtype == dtype
        assert fused.strides == oracle.strides
        assert fused.tobytes() == oracle.tobytes()
        assert np.count_nonzero(fused == 0) > np.count_nonzero(c == 0)  # clipping fired


def test_variation_never_writes_the_input():
    c = _conductances()
    before = c.copy()
    HardwareNoiseConfig.scaled(1.0).stream("x").apply_conductance_variation(c)
    assert c.tobytes() == before.tobytes()


def test_a_shared_draw_hit_equals_a_fresh_draw_and_keeps_the_stream_in_step():
    """Two noise scales of one trial draw the same unit normals; the second
    scale's draw is served from the memo and leaves its stream exactly where
    drawing would have."""
    c = _conductances()
    low, high = HardwareNoiseConfig.scaled(0.5, seed=4), HardwareNoiseConfig.scaled(2.0, seed=4)
    undisturbed = high.stream("layer")
    expected = undisturbed.apply_conductance_variation(c)
    expected_next = undisturbed.sample(0.1, (5,))
    with shared_unit_draws() as draws:
        draws.begin(0)
        low.stream("layer").apply_conductance_variation(c)  # miss: fills the memo
        assert len(draws) == 1
        stream = high.stream("layer")
        got = stream.apply_conductance_variation(c)
        assert len(draws) == 1  # a hit stores nothing new
        got_next = stream.sample(0.1, (5,))
    assert got.tobytes() == expected.tobytes()
    assert got_next.tobytes() == expected_next.tobytes()


def test_cached_unit_draws_are_read_only():
    memo = SharedUnitDraws()
    unit = memo.draw(np.random.default_rng((1, 2)), (4, 3))
    assert not unit.flags.writeable
    with pytest.raises(ValueError):
        unit[0, 0] = 1.0
    # a second generator in the same state is served the same array
    again = memo.draw(np.random.default_rng((1, 2)), (4, 3))
    assert again is unit


def test_the_memo_holds_one_trial_and_is_empty_outside_its_scope():
    c = _conductances()
    assert noise._SHARED_DRAWS.get() is None
    with shared_unit_draws() as draws:
        assert noise._SHARED_DRAWS.get() is draws
        draws.begin(0)
        HardwareNoiseConfig.scaled(1.0).stream("a").apply_conductance_variation(c)
        draws.begin(0)  # same trial: kept
        assert len(draws) == 1
        draws.begin(1)  # the trial changed: dropped
        assert len(draws) == 0
        HardwareNoiseConfig.scaled(1.0).stream("b").apply_conductance_variation(c)
    assert len(draws) == 0
    assert noise._SHARED_DRAWS.get() is None


def test_plain_executor_wiring_never_consults_the_memo(monkeypatch):
    from repro.engine import NetworkExecutor
    from repro.nn.models import build_model

    def refuse(self, rng, shape):
        raise AssertionError("the memo was consulted outside a sweep trial loop")

    monkeypatch.setattr(SharedUnitDraws, "draw", refuse)
    ctx = SimContext(noise=HardwareNoiseConfig.scaled(1.0)).for_trial(1)
    executor = NetworkExecutor(build_model("tiny_cnn"), ctx)
    executor.run(executor.random_input(), validate=True)


# ---------------------------------------------------------------------------
# stable_seed
# ---------------------------------------------------------------------------

def test_stable_seed_is_deterministic_and_salt_sensitive():
    assert stable_seed(0, "noise", 3) == stable_seed(0, "noise", 3)
    assert stable_seed(0, "noise", 3) != stable_seed(0, "noise", 4)
    assert stable_seed(0, "noise", 3) != stable_seed(1, "noise", 3)
    assert stable_seed(-1, "x") == stable_seed(-1, "x")  # negative ints allowed


def test_stable_seed_rejects_unhashable_salt_kinds():
    with pytest.raises(TypeError):
        stable_seed(0, 1.5)


# ---------------------------------------------------------------------------
# pickling (the sweep pool ships configs across processes)
# ---------------------------------------------------------------------------

def test_noise_config_pickle_roundtrip_preserves_draws():
    cfg = HardwareNoiseConfig.scaled(0.5, seed=11)
    clone = pickle.loads(pickle.dumps(cfg))
    assert clone == cfg
    np.testing.assert_array_equal(
        clone.sample(0.1, (8,), salt="s"), cfg.sample(0.1, (8,), salt="s")
    )
    np.testing.assert_array_equal(
        clone.stream("t").sample(0.1, (8,)), cfg.stream("t").sample(0.1, (8,))
    )


def test_sim_context_pickle_roundtrip():
    ctx = SimContext(noise=HardwareNoiseConfig.scaled(1.0, seed=4), seed=2)
    clone = pickle.loads(pickle.dumps(ctx))
    assert clone == ctx
    assert clone.noise is not None
    np.testing.assert_array_equal(
        clone.noise.sample(0.1, (4,)), ctx.noise.sample(0.1, (4,))
    )


def test_noise_stream_pickle_roundtrip_preserves_state():
    stream = HardwareNoiseConfig(seed=8).stream("tile", 2)
    stream.sample(0.1, (4,))  # advance the state
    clone = pickle.loads(pickle.dumps(stream))
    np.testing.assert_array_equal(clone.sample(0.1, (4,)), stream.sample(0.1, (4,)))


# ---------------------------------------------------------------------------
# scaled() / ideal()
# ---------------------------------------------------------------------------

def test_scaled_preserves_sigma_ratios():
    base = HardwareNoiseConfig()
    half = HardwareNoiseConfig.scaled(0.5, seed=3)
    assert half.x_subbuf_sigma == pytest.approx(base.x_subbuf_sigma * 0.5)
    assert half.dtc_sigma == pytest.approx(base.dtc_sigma * 0.5)
    assert half.reram_conductance_sigma == pytest.approx(
        base.reram_conductance_sigma * 0.5
    )
    assert half.seed == 3


def test_scaled_zero_equals_ideal():
    zero = HardwareNoiseConfig.scaled(0.0)
    ideal = HardwareNoiseConfig.ideal()
    for name in (
        "x_subbuf_sigma",
        "p_subbuf_sigma",
        "i_adder_sigma",
        "comparator_sigma",
        "dtc_sigma",
        "tdc_sigma",
        "reram_conductance_sigma",
    ):
        assert getattr(zero, name) == 0.0
        assert getattr(ideal, name) == 0.0


def test_scaled_rejects_negative_scale():
    with pytest.raises(ValueError):
        HardwareNoiseConfig.scaled(-0.1)


# ---------------------------------------------------------------------------
# NoiseBudget: Section-V design point
# ---------------------------------------------------------------------------

def test_noise_budget_pins_the_paper_design_point():
    """Section V: a 40 ps margin per 50 ps unit delay over a 2^8 dynamic
    range, 12 cascaded X-subBufs — sqrt(12) * eps must stay inside 40 ps per
    unit, both sides scaled by 2^8."""
    budget = NoiseBudget()
    assert budget.total_margin_ps == pytest.approx(40.0 * 2 ** 8)
    assert budget.accumulated_error_ps == pytest.approx(
        math.sqrt(12) * 5.0 * 2 ** 8
    )
    assert budget.within_margin()


def test_noise_budget_margin_boundary():
    """The largest admissible per-buffer error is margin / sqrt(12)."""
    eps_max = 40.0 / math.sqrt(12)
    assert NoiseBudget(epsilon_ps=eps_max).within_margin()
    assert not NoiseBudget(epsilon_ps=eps_max * 1.01).within_margin()
