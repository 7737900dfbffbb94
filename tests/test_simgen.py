"""Forward generator: reference design values, determinism, degenerate limits."""

import numpy as np
import pytest

from dir_sampler.distributions import make_rng
from dir_sampler.errors import ConfigError
from dir_sampler.model import validate_dataset
from dir_sampler.simgen import (SimConfig, constrained_test_effects, paper_default_config,
                                paper_lapse_schedule, read_truth_csv, simulate_dataset,
                                write_truth_csv)

from conftest import mc_se_mean


def test_reference_design_values():
    cfg = paper_default_config()
    assert (cfg.n_individuals, cfg.days, cfg.tests_per_day, cfg.items_per_test) == \
        (10, 50, 4, 10)
    assert cfg.growth[0] == 0.0055 and cfg.growth[9] == 0.0015
    assert cfg.test_effect_precision[8] == 9.0909
    assert cfg.day_effect_precision[5] == 1.0
    assert cfg.drift_precision == pytest.approx(1.0 / 0.0218**2)
    assert (cfg.sigma, cfg.rho, cfg.delta_tmax) == (0.7333, 0.1180, 14.0)


def test_lapse_schedule_splits_at_midpoint():
    lapse = paper_lapse_schedule(50)
    assert lapse[0] == 11.0          # day 1: 10 + t
    assert lapse[24] == 35.0         # day 25 is still on the first branch
    assert lapse[25] == 16.0         # day 26: t - 10
    assert lapse[49] == 40.0
    assert np.all(lapse > 0.0)


def test_simulation_is_deterministic():
    d1, t1 = simulate_dataset(paper_default_config(seed=9))
    d2, t2 = simulate_dataset(paper_default_config(seed=9))
    assert np.array_equal(d1.response, d2.response)
    assert np.array_equal(d1.difficulty, d2.difficulty)
    assert np.array_equal(t1.theta, t2.theta)
    d3, _ = simulate_dataset(paper_default_config(seed=10))
    assert not np.array_equal(d1.response, d3.response)


def test_reference_simulation_passes_gate_and_balanced_success():
    data, truth = simulate_dataset(paper_default_config(seed=0))
    assert validate_dataset(data).passed
    rate = data.response.mean()
    assert 0.35 < rate < 0.65


def test_degenerate_dynamics_yield_constant_paths():
    n = 4
    cfg = SimConfig(
        n_individuals=n, days=6, tests_per_day=2, items_per_test=8,
        growth=np.zeros(n), day_effect_precision=np.full(n, 1e12),
        test_effect_precision=np.full(n, 1e12), drift_precision=1e12,
        sigma=0.7333, rho=0.118, delta_tmax=14.0,
        lapse_table=np.full((n, 6), 5.0), seed=3)
    data, truth = simulate_dataset(cfg)
    for i in range(n):
        path = truth.theta[truth.theta_start[i]:truth.theta_start[i + 1]]
        assert np.ptp(path) < 1e-3
    assert np.max(np.abs(truth.day_effect)) < 1e-4
    assert np.max(np.abs(truth.test_effect)) < 1e-4
    # difficulties track ability within the +-0.1 offset band
    diff_gap = np.abs(data.difficulty - truth.theta[truth.theta_start[0] + 1])
    assert np.max(diff_gap[:data.test_start[6]]) < 0.1 + 2e-3


def test_truth_is_index_aligned_with_dataset():
    data, truth = simulate_dataset(paper_default_config(seed=1))
    assert len(truth.theta) == int(np.sum(data.days + 1))
    assert len(truth.day_effect) == data.n_days
    assert len(truth.test_effect) == data.n_tests
    assert len(truth.item_deviation) == data.n_items


def test_constrained_effects_sum_to_zero_with_conditioned_variance():
    tau = 2.5
    s = 4
    rows = constrained_test_effects(make_rng(7), tau, s, 200_000)
    assert np.max(np.abs(rows.sum(axis=1))) < 1e-12
    # conditioned law: cov = (I - J/S)/tau, so each coordinate has variance
    # (S-1)/(S tau) -- not 1/tau
    target = (s - 1) / (s * tau)
    var = rows[:, 0] ** 2
    assert abs(var.mean() - target) < 4.0 * mc_se_mean(var)
    # and pairwise covariance -1/(S tau)
    prod = rows[:, 0] * rows[:, 1]
    assert abs(prod.mean() + 1.0 / (s * tau)) < 4.0 * mc_se_mean(prod)


def test_short_design_requires_explicit_lapses():
    with pytest.raises(ConfigError):
        SimConfig(n_individuals=1, days=5, tests_per_day=2, items_per_test=2,
                  growth=[0.0], day_effect_precision=[1.0],
                  test_effect_precision=[1.0], drift_precision=1.0,
                  sigma=0.7, rho=0.1, delta_tmax=14.0, seed=0)


def test_truth_csv_round_trip(tmp_path):
    _, truth = simulate_dataset(paper_default_config(seed=5))
    write_truth_csv(truth, tmp_path)
    back = read_truth_csv(tmp_path / "truth.csv")
    assert np.array_equal(back.theta, truth.theta)
    assert np.array_equal(back.growth, truth.growth)
    assert np.array_equal(back.day_effect_precision, truth.day_effect_precision)
    assert np.array_equal(back.test_effect_precision, truth.test_effect_precision)
    assert back.drift_precision == truth.drift_precision
    assert np.array_equal(back.theta_start, truth.theta_start)
