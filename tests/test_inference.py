"""Summaries, coverage scoring, fit determinism, on-line prefixes, trace files."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dir_sampler import (ConfigError, ModelConstants, QuantitySummary,
                         SamplerConfig, ValidationError, ability_coverage, fit, fit_online,
                         parameter_coverage, simulate_dataset, summarize)
from dir_sampler import inference
from dir_sampler.inference import ChainOutput, read_traces_csv, write_traces_csv, _run_chain
from dir_sampler.model import propriety_failures
from dir_sampler.simgen import SimConfig, SimTruth, paper_default_config

from conftest import build_dataset, mixed_two_test_day, proper_individual, traced_peak


def small_sim(seed=0, n=2, days=4):
    cfg = SimConfig(
        n_individuals=n, days=days, tests_per_day=2, items_per_test=4,
        growth=np.full(n, 0.004), day_effect_precision=np.full(n, 1.5),
        test_effect_precision=np.full(n, 3.0), drift_precision=1 / 0.05**2,
        sigma=0.7333, rho=0.118, delta_tmax=14.0,
        lapse_table=np.full((n, days), 4.0), seed=seed)
    data, truth = simulate_dataset(cfg)
    return data, truth, cfg.constants()


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------

def test_summarize_constant_draws():
    q = summarize(np.full((50, 3), 2.5))
    assert np.all(q == 2.5)


def test_summarize_linear_interpolation_convention():
    draws = np.arange(1.0, 101.0)[:, None]
    q = summarize(draws)
    assert q[1, 0] == pytest.approx(50.5)
    assert q[0, 0] == pytest.approx(3.475)  # type-7: 1 + 0.025 * 99
    assert q[2, 0] == pytest.approx(97.525)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_summarize_quantiles_ordered(values):
    q = summarize(np.asarray(values)[:, None])
    assert q[0, 0] <= q[1, 0] <= q[2, 0]


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize(np.empty((0, 3)))


def test_pooled_summaries_allocate_a_fraction_of_the_chains_draws():
    """Pooling two chains of a two-chain cohort fit (200 draws x 2,001
    series each) joins and partitions a block of series at a time: it
    allocates at most a quarter of the chains' draw bytes, where joining
    every quantity's draws and letting np.quantile copy each join takes 1.7
    times those bytes.  The quantiles are np.quantile's over the joined
    draws, and each quantity's list of chains is emptied once pooled."""
    rng = np.random.default_rng(1)
    n, n_draws = 200, 200
    chains = [{"theta": rng.normal(size=(n_draws, 7 * n)), "drift_sd": rng.random(n_draws),
               **{name: rng.random((n_draws, n))
                  for name in ("growth", "day_effect_sd", "test_effect_sd")}}
              for _ in range(2)]
    draws = {name: [chain[name] for chain in chains] for name in chains[0]}
    summarize(np.ones((2, 2)))  # np.quantile imports numpy.ma on its first call
    pooled, peak = traced_peak(inference._summaries, draws)
    assert peak <= sum(arr.nbytes for chain in chains for arr in chain.values()) / 4
    assert all(listed == [] for listed in draws.values())
    for name, s in pooled.items():
        want = np.quantile(np.concatenate([chain[name] for chain in chains]),
                           (0.025, 0.5, 0.975), axis=0)
        assert np.array_equal(np.stack([s.q025, s.median, s.q975]), want), name


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def synthetic_truth(days, theta):
    n = len(days)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.asarray(days) + 1, out=starts[1:])
    return SimTruth(theta=theta, growth=np.zeros(n),
                    day_effect_precision=np.ones(n), test_effect_precision=np.ones(n),
                    drift_precision=1.0, day_effect=np.empty(0),
                    test_effect=np.empty(0), item_deviation=np.empty(0),
                    theta_start=starts)


def test_coverage_everything_inside_huge_intervals():
    days = np.array([3, 2])
    total = int(np.sum(days + 1))
    summary = QuantitySummary(q025=np.full(total, -1e9), median=np.zeros(total),
                              q975=np.full(total, 1e9))
    cov = ability_coverage(summary, np.zeros(total), days)
    assert cov.overall == 1.0
    assert np.all(cov.per_individual == 1.0)


def test_coverage_nothing_inside():
    days = np.array([2, 2])
    total = int(np.sum(days + 1))
    summary = QuantitySummary(q025=np.full(total, 1.0), median=np.full(total, 2.0),
                              q975=np.full(total, 3.0))
    cov = ability_coverage(summary, np.zeros(total), days)
    assert cov.overall == 0.0


def test_coverage_aggregates_per_individual_rates():
    # ten individuals, 100 scored days each, with the reference per-individual
    # hit counts: the overall rate must come out at 98.3%
    hits = [100, 100, 99, 99, 100, 100, 94, 100, 100, 91]
    days = np.full(10, 100)
    total = int(np.sum(days + 1))
    truth = np.zeros(total)
    lo = np.full(total, -1.0)
    hi = np.full(total, 1.0)
    start = 0
    for k in hits:
        # day 0 is unscored; make the last (100 - k) scored days miss
        lo[start + 1 + k:start + 101] = 5.0
        hi[start + 1 + k:start + 101] = 6.0
        start += 101
    summary = QuantitySummary(q025=lo, median=0.5 * (lo + hi), q975=hi)
    cov = ability_coverage(summary, truth, days)
    assert np.allclose(cov.per_individual, np.asarray(hits) / 100.0)
    assert cov.overall == pytest.approx(0.983)


def test_coverage_rejects_misaligned_inputs():
    days = np.array([2, 2])
    summary = QuantitySummary(q025=np.zeros(5), median=np.zeros(5), q975=np.zeros(5))
    with pytest.raises(ValueError):
        ability_coverage(summary, np.zeros(6), days)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_bad_config_rejected():
    with pytest.raises(ConfigError):
        SamplerConfig(n_iterations=100, burn_in=150, thin=1)


def test_fit_refuses_invalid_dataset(tiny_constants):
    data = build_dataset([proper_individual()])  # single individual
    with pytest.raises(ValidationError) as err:
        fit(data, tiny_constants, SamplerConfig(n_iterations=10, burn_in=5, thin=1))
    assert "n ≥ 2" in str(err.value)


def test_fit_deterministic_given_seed():
    data, _, constants = small_sim(seed=3)
    config = SamplerConfig(n_iterations=80, burn_in=40, thin=4, seed=11)
    a = fit(data, constants, config)
    b = fit(data, constants, config)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.growth, b.growth)
    assert np.array_equal(a.drift_sd, b.drift_sd)
    assert a.n_draws == (80 - 40) // 4


def test_fit_summaries_are_ordered():
    data, truth, constants = small_sim(seed=4)
    out = fit(data, constants, SamplerConfig(n_iterations=60, burn_in=20, thin=2, seed=1))
    for s in out.summaries.values():
        assert np.all(s.q025 <= s.median) and np.all(s.median <= s.q975)
    assert 0.0 <= parameter_coverage(out.summaries, truth) <= 1.0


# ---------------------------------------------------------------------------
# on-line estimation
# ---------------------------------------------------------------------------

def online_config(seed=5):
    return SamplerConfig(n_iterations=300, burn_in=100, thin=4, seed=seed,
                         mode="online", fixed_drift_sd=0.0612)


def test_online_requires_drift_sd():
    data, _, constants = small_sim(seed=6)
    with pytest.raises(ConfigError):
        fit_online(data, constants,
                   SamplerConfig(n_iterations=100, burn_in=50, thin=1, seed=0))


def test_online_prefix_estimates_do_not_use_later_days():
    data, _, constants = small_sim(seed=7, days=6)
    full, _ = fit_online(data, constants, online_config())
    # five days: the shortest prefix of this dataset that passes the gate
    short, _ = fit_online(data.individual_prefix(5), constants, online_config())
    for i in range(data.n_individuals):
        assert np.array_equal(full[i].median[:5], short[i].median)
        assert np.array_equal(full[i].q025[:5], short[i].q025)
        assert np.array_equal(full[i].q975[:5], short[i].q975)


def test_online_flags_pre_propriety_days():
    data, _, constants = small_sim(seed=8, days=4)
    trajectories, _ = fit_online(data, constants, online_config())
    for traj in trajectories:
        assert traj.flagged[0]  # a single-day prefix cannot satisfy the gate
        assert len(traj.median) == 4
        assert np.all(traj.q025 <= traj.median) and np.all(traj.median <= traj.q975)


def test_online_freezes_only_the_individuals_whose_prefix_fails_the_gate(monkeypatch):
    """In the day-3 chain, the individual whose first three days fail the
    gate keeps its effect precisions at exactly 1 while the other's move."""
    late = [[[1, 0]], [[0, 1]], mixed_two_test_day(), mixed_two_test_day()]
    data = build_dataset([proper_individual(4), late])
    constants = ModelConstants(sigma=0.7333, rho=0.118, delta_tmax=14.0,
                               group_prior={"g": (0.0, 1.0)})
    chains, run_chain = [], inference._run_chain

    def recording_run_chain(*args):
        chains.append(run_chain(*args))
        return chains[-1]

    monkeypatch.setattr(inference, "_run_chain", recording_run_chain)
    config = SamplerConfig(n_iterations=30, burn_in=0, thin=1, seed=3, mode="online",
                           fixed_drift_sd=0.05)  # every sweep is a kept draw
    trajectories, _ = fit_online(data, constants, config)

    day3 = chains[2]
    for sd in (day3.test_effect_sd, day3.day_effect_sd):
        assert np.all(sd[:, 1] == 1.0)
        assert np.all(sd[:, 0] != 1.0)
    gate = [[bool(propriety_failures(data.individual_prefix(t))[i])
             for t in range(1, 5)] for i in range(2)]
    assert gate == [[True, False, False, False], [True, True, True, False]]
    assert [traj.flagged.tolist() for traj in trajectories] == gate


@pytest.mark.parametrize("seed", [103, 104, 105])
def test_online_medians_stay_near_the_truth_from_day_six(seed):
    """On the paper design cut to 20 days, every on-line median from day 6
    on lies within 3.5 logits of the true ability.  Before day 6 a short
    prefix's posterior has a real heavy tail towards the growth asymptote."""
    sim = replace(paper_default_config(seed), days=20)
    data, truth = simulate_dataset(sim)
    config = SamplerConfig(n_iterations=40, burn_in=20, thin=1, seed=seed, mode="online",
                           fixed_drift_sd=0.0218)
    trajectories, _ = fit_online(data, sim.constants(), config)
    for i, traj in enumerate(trajectories):
        days = np.arange(6, len(traj.median) + 1)
        error = traj.median[days - 1] - truth.theta[truth.theta_start[i] + days]
        assert np.all(np.abs(error) < 3.5), (i, np.abs(error).max())


def test_online_mode_fixes_drift_precision():
    data, _, constants = small_sim(seed=9)
    out = _run_chain(data, constants, online_config())
    assert np.allclose(out.drift_sd, 0.0612, rtol=1e-14)


# ---------------------------------------------------------------------------
# trace CSV round trip
# ---------------------------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    data, _, constants = small_sim(seed=10)
    out = fit(data, constants, SamplerConfig(n_iterations=40, burn_in=20, thin=2, seed=2))
    path = tmp_path / "traces.csv"
    write_traces_csv(out, path)
    draws, days = read_traces_csv(path)
    assert np.array_equal(days, data.days)
    for name, arr in out.draw_arrays().items():
        assert np.array_equal(np.atleast_2d(draws[name].T).T, np.atleast_2d(arr.T).T), name


def test_read_traces_csv_memory_is_bounded_by_its_arrays(tmp_path):
    """A two-chain-cohort-sized trace file (200 individuals x 6 days: 2,001
    series x 200 draws) reads back within 3x the bytes of the returned draws."""
    rng = np.random.default_rng(0)
    n, n_draws = 200, 200
    draws = {"theta": rng.normal(size=(n_draws, 7 * n)), "drift_sd": rng.random(n_draws),
             **{name: rng.random((n_draws, n))
                for name in ("growth", "day_effect_sd", "test_effect_sd")}}
    path = tmp_path / "traces.csv"
    write_traces_csv(ChainOutput(**draws, summaries={}, days=np.full(n, 6),
                                 n_iterations=400, burn_in=200, thin=1, wall_time=0.0,
                                 ks_accept_rate=1.0, guard_redraws=0), path)
    (back, _), peak = traced_peak(read_traces_csv, path)
    for name, arr in draws.items():
        assert np.array_equal(back[name], arr), name
    assert peak <= 3 * sum(arr.nbytes for arr in back.values())
