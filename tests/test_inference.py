"""Summaries, coverage scoring, fit determinism, on-line prefixes, raw scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dir_sampler import (ConfigError, Dataset, ModelConstants, QuantitySummary,
                         SamplerConfig, ValidationError, ability_coverage, fit, fit_online,
                         parameter_coverage, raw_score_estimate, simulate_dataset,
                         summarize)
from dir_sampler.inference import read_traces_csv, write_traces_csv, _run_chain
from dir_sampler.simgen import SimConfig, SimTruth

from conftest import build_dataset, proper_individual


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
    q = summarize(draws, quantiles=(0.5,))
    assert q[0, 0] == pytest.approx(50.5)
    q25 = summarize(draws, quantiles=(0.25,))
    assert q25[0, 0] == pytest.approx(25.75)  # type-7: 1 + 0.25 * 99


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_summarize_quantiles_ordered(values):
    q = summarize(np.asarray(values)[:, None])
    assert q[0, 0] <= q[1, 0] <= q[2, 0]


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize(np.empty((0, 3)))


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
    assert a.n_draws == config.n_draws == 10


def test_fit_summaries_are_ordered():
    data, truth, constants = small_sim(seed=4)
    out = fit(data, constants, SamplerConfig(n_iterations=60, burn_in=20, thin=2, seed=1))
    for s in out.summaries.values():
        assert np.all(s.q025 <= s.median) and np.all(s.median <= s.q975)
    assert 0.0 <= parameter_coverage(out.summaries, truth) <= 1.0


# ---------------------------------------------------------------------------
# on-line estimation
# ---------------------------------------------------------------------------

def truncate(data, keep_days):
    """The first ``keep_days`` days of every individual."""
    keep = np.minimum(data.days, keep_days)
    day_in = (np.arange(data.n_days) - np.repeat(data.day_start[:-1], data.days)
              < np.repeat(keep, data.days))
    test_in = np.repeat(day_in, data.tests_per_day)
    item_in = np.repeat(test_in, data.items_per_test)
    return Dataset(days=keep, tests_per_day=data.tests_per_day[day_in],
                   items_per_test=data.items_per_test[test_in],
                   response=data.response[item_in], difficulty=data.difficulty[test_in],
                   lapse=data.lapse[day_in], group=data.group)


def online_config(seed=5):
    return SamplerConfig(n_iterations=300, burn_in=100, thin=4, seed=seed,
                         mode="online", fixed_drift_sd=0.0612)


def test_online_requires_drift_sd():
    data, _, constants = small_sim(seed=6)
    with pytest.raises(ConfigError):
        fit_online(data, constants,
                   SamplerConfig(n_iterations=100, burn_in=50, thin=1, seed=0))


def test_online_prefix_estimates_do_not_use_later_days():
    data, _, constants = small_sim(seed=7, days=4)
    full = fit_online(data, constants, online_config())
    short = fit_online(truncate(data, 2), constants, online_config())
    for i in range(data.n_individuals):
        assert np.array_equal(full[i].median[:2], short[i].median)
        assert np.array_equal(full[i].q025[:2], short[i].q025)
        assert np.array_equal(full[i].q975[:2], short[i].q975)


def test_online_flags_pre_propriety_days():
    data, _, constants = small_sim(seed=8, days=4)
    trajectories = fit_online(data, constants, online_config())
    for traj in trajectories:
        assert traj.flagged[0]  # a single-day prefix cannot satisfy the gate
        assert len(traj.median) == 4
        assert np.all(traj.q025 <= traj.median) and np.all(traj.median <= traj.q975)


def test_online_mode_fixes_drift_precision():
    data, _, constants = small_sim(seed=9)
    out, state = _run_chain(data, constants, online_config())
    assert state.drift_precision == pytest.approx(0.0612 ** -2)
    assert np.allclose(out.drift_sd, 0.0612, rtol=1e-14)


# ---------------------------------------------------------------------------
# raw-score estimate
# ---------------------------------------------------------------------------

def test_raw_score_symmetric_half_correct():
    est = raw_score_estimate([0.0], [10], 5)
    assert not est.saturated
    assert est.ability == pytest.approx(0.0, abs=1e-9)


def test_raw_score_saturation_clamps():
    est = raw_score_estimate([-1.0, 1.0], [10, 10], 20)
    assert est.saturated and est.ability == 7.0
    est = raw_score_estimate([-1.0, 1.0], [10, 10], 0)
    assert est.saturated and est.ability == -7.0


def test_raw_score_matches_grid_scan_oracle():
    difficulties = [-1.0, 1.0]
    counts = [10, 10]
    target = 14

    def expected(theta):
        return sum(k / (1.0 + np.exp(-(theta - a))) for a, k in zip(difficulties, counts))

    grid = np.linspace(-8.0, 8.0, 2_000_001)
    vals = 10.0 / (1.0 + np.exp(-(grid + 1.0))) + 10.0 / (1.0 + np.exp(-(grid - 1.0)))
    root = grid[np.argmin(np.abs(vals - target))]
    est = raw_score_estimate(difficulties, counts, target)
    assert not est.saturated
    assert est.ability == pytest.approx(root, abs=1e-5)
    assert expected(est.ability) == pytest.approx(target, abs=1e-8)


def test_raw_score_rejects_empty_day():
    with pytest.raises(ValueError):
        raw_score_estimate([], [], 0)


# ---------------------------------------------------------------------------
# trace CSV round trip
# ---------------------------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    data, _, constants = small_sim(seed=10)
    out = fit(data, constants, SamplerConfig(n_iterations=40, burn_in=20, thin=2, seed=2))
    path = tmp_path / "traces.csv"
    write_traces_csv(out, path)
    draws, starts, days = read_traces_csv(path)
    assert np.array_equal(days, data.days)
    for name, arr in out.draw_arrays().items():
        assert np.array_equal(np.atleast_2d(draws[name].T).T, np.atleast_2d(arr.T).T), name
