"""Each full conditional against its closed form, with conditioning frozen.

The replication trick: conditionals are independent across individuals (or
days, or items), so a dataset of many identical replicas turns one update
call into many iid draws from the same conditional.  Oracle moments are
derived in-test from the conjugate formulas.
"""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dir_sampler.distributions import ks_quantile, make_rng, sample_ks
from dir_sampler.errors import NumericError
from dir_sampler.gibbs import (SweepWorkspace, gibbs_sweep, update_abilities,
                               update_day_effect_precision, update_day_effects,
                               update_drift_precision, update_growth, update_ks_scales,
                               update_latent_utilities, update_test_effect_precision,
                               update_test_effects, _growth_moments)
from dir_sampler.model import ModelConstants, initial_state
from dir_sampler.simgen import SimConfig, paper_default_config, simulate_dataset

from conftest import (FixedNormals, build_dataset, dense_posterior,
                      dense_test_effect_conditional, mc_se_mean, mc_se_var, proper_individual,
                      sim_constants, traced_peak)

# sigma chosen so that ks_scale = 0.4 gives unit observation variance
SIGMA_UNIT = 0.6
NU_UNIT = 0.4

HALF_NORMAL_MEAN = np.sqrt(2.0 / np.pi)
HALF_NORMAL_VAR = 1.0 - 2.0 / np.pi


def constants_for(data, sigma=SIGMA_UNIT, rho=0.118):
    groups = {g: (0.0, 1.0) for g in set(data.group)}
    return ModelConstants(sigma=sigma, rho=rho, delta_tmax=14.0, group_prior=groups)


def frozen_setup(responses, sigma=SIGMA_UNIT, lapses=None):
    data = build_dataset(responses, lapses=lapses)
    constants = constants_for(data, sigma=sigma)
    work = SweepWorkspace(data, constants)
    state = initial_state(data)
    state.ks_scale[:] = NU_UNIT
    work.refresh_obs_precision(state)
    return data, work, state


# ---------------------------------------------------------------------------
# latent utilities
# ---------------------------------------------------------------------------

def test_latent_utility_signs_follow_responses():
    rng = np.random.default_rng(0)
    responses = [[[rng.integers(0, 2, size=6).tolist() for _ in range(3)]
                  for _ in range(2)] for _ in range(3)]
    data, work, state = frozen_setup(responses)
    state.theta[:] = rng.normal(size=len(state.theta))
    update_latent_utilities(make_rng(1), state, work)
    correct = data.response == 1
    assert np.all(state.latent_utility[correct] > 0.0)
    assert np.all(state.latent_utility[~correct] <= 0.0)


def test_latent_utility_half_normal_oracle():
    n_items = 10**5
    data, work, state = frozen_setup([[[np.ones(n_items, dtype=int).tolist()]]])
    update_latent_utilities(make_rng(2), state, work)
    y = state.latent_utility
    assert abs(y.mean() - HALF_NORMAL_MEAN) < 4.0 * mc_se_mean(y)
    assert abs(y.var(ddof=1) - HALF_NORMAL_VAR) < 4.0 * mc_se_var(y)


def test_latent_utilities_take_one_uniform_per_item_in_item_order():
    """With every standardised truncation point <= 4 the update is a single
    inversion pass: with s = 2y - 1, item i's utility is s times the
    quantile of N(s m, 1/psi), restricted to (0, inf), at the i-th uniform."""
    rng = np.random.default_rng(5)
    responses = [[[rng.integers(0, 2, size=5).tolist() for _ in range(3)]
                  for _ in range(4)] for _ in range(3)]
    data, work, state = frozen_setup(responses)
    state.theta[:] = rng.uniform(-2.0, 2.0, len(state.theta))
    state.day_effect[:] = rng.uniform(-0.3, 0.3, data.n_days)
    state.test_effect[:] = rng.uniform(-0.3, 0.3, data.n_tests)
    state.ks_scale[:] = rng.uniform(0.2, 1.0, data.n_items)
    work.refresh_obs_precision(state)
    sign = 2.0 * data.response - 1.0
    item_test = work.item_test
    item_day = work.test_day[item_test]
    loc = sign * (state.theta[work.day_theta[item_day]] - data.difficulty[item_test]
                  + state.day_effect[item_day] + state.test_effect[item_test])
    sd = np.sqrt(SIGMA_UNIT ** 2 + 4.0 * state.ks_scale ** 2)
    alpha = -loc / sd
    assert alpha.max() <= 4.0 and np.any(sign > 0) and np.any(sign < 0)

    sampled, replay = make_rng(6), make_rng(6)
    update_latent_utilities(sampled, state, work)
    u = replay.random(data.n_items)
    assert sampled.bit_generator.state == replay.bit_generator.state
    expected = sign * (loc + sd * stats.norm.isf((1.0 - u) * stats.norm.sf(alpha)))
    np.testing.assert_allclose(state.latent_utility, expected, rtol=1e-9, atol=1e-12)


def test_augmentation_updates_allocate_few_item_arrays():
    """One latent-utility and one mixture-scale update on the paper design
    (20,000 items) peak at 4.5 item-sized float arrays of traced memory,
    against 13.5 when each built its own temporaries: they write into the
    workspace's buffers, and ``sample_ks``'s draws and per-call buffers are
    most of what is left."""
    data, _ = simulate_dataset(paper_default_config(seed=1))
    assert data.n_items >= 20_000
    work = SweepWorkspace(data, sim_constants(paper_default_config()))
    state = initial_state(data)
    rng = make_rng(1)
    for _ in range(3):
        gibbs_sweep(rng, state, work)

    def both():
        update_latent_utilities(rng, state, work)
        update_ks_scales(rng, state, work)
    _, peak = traced_peak(both)
    item_array = data.n_items * np.dtype(float).itemsize
    assert peak <= 8 * item_array


# ---------------------------------------------------------------------------
# abilities (one banded draw of every path)
# ---------------------------------------------------------------------------

def test_ability_update_matches_dense_oracle():
    data, truth = simulate_dataset(SimConfig(
        n_individuals=2, days=4, tests_per_day=2, items_per_test=3,
        growth=(0.004, 0.002), day_effect_precision=(1.5, 2.0),
        test_effect_precision=(3.0, 4.0), drift_precision=100.0,
        sigma=0.7, rho=0.118, delta_tmax=14.0,
        lapse_table=np.full((2, 4), 3.0), seed=5))
    constants = constants_for(data, sigma=0.7)
    work = SweepWorkspace(data, constants)
    state = initial_state(data)
    state.growth[:] = truth.growth
    state.drift_precision = truth.drift_precision
    state.day_effect[:] = truth.day_effect
    state.test_effect[:] = truth.test_effect
    state.ks_scale[:] = np.random.default_rng(4).uniform(0.2, 1.0, data.n_items)
    work.refresh_obs_precision(state)
    state.latent_utility[:] = np.random.default_rng(3).normal(size=data.n_items)

    update_abilities(FixedNormals(np.zeros(len(state.theta))), state, work)
    mean, _ = dense_posterior(data, state, constants)
    np.testing.assert_allclose(state.theta, mean, rtol=1e-9)


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------

def growth_replicas(n, theta_const=0.3, lapses=(3.0, 5.0)):
    responses = [[[[1]], [[0]]] for _ in range(n)]
    data, work, state = frozen_setup(responses, lapses=[list(lapses)] * n)
    state.theta[:] = theta_const
    state.drift_precision = 2.5
    return data, work, state


def test_growth_half_normal_when_path_is_flat():
    n = 20_000
    data, work, state = growth_replicas(n)
    rho = work.constants.rho
    u = 1.0 - rho * 0.3
    den = u * u * (3.0 ** 2 / 3.0 + 5.0 ** 2 / 5.0)
    v = 1.0 / (state.drift_precision * den)
    update_growth(make_rng(4), state, work)
    c = state.growth
    assert np.all(c > 0.0)
    assert abs(c.mean() - np.sqrt(v) * HALF_NORMAL_MEAN) < 4.0 * mc_se_mean(c)
    assert abs(c.var(ddof=1) - v * HALF_NORMAL_VAR) < 4.0 * mc_se_var(c)


def test_growth_conditional_mean_recovers_exact_rate():
    data, work, state = frozen_setup([[[[1]], [[0]], [[1]]]],
                                     lapses=[[2.0, 9.0, 17.0]])
    rho = work.constants.rho
    c_star = 0.0123
    sl = slice(work.theta_start[0], work.theta_start[1])
    theta = state.theta[sl]
    theta[0] = -0.4
    for t in range(1, len(theta)):
        lapse_trunc = min(data.lapse[t - 1], 14.0)
        theta[t] = theta[t - 1] + c_star * (1.0 - rho * theta[t - 1]) * lapse_trunc
    num, den = _growth_moments(state, work)
    assert num[0] / den[0] == pytest.approx(c_star, abs=1e-12)


def test_growth_zero_denominator_is_numeric_error():
    data, work, state = frozen_setup([[[[1]], [[0]]]])
    state.theta[:] = 1.0 / work.constants.rho  # every 1 - rho*theta term vanishes
    with pytest.raises(NumericError):
        update_growth(make_rng(0), state, work)


# ---------------------------------------------------------------------------
# test effects
# ---------------------------------------------------------------------------

def test_single_test_day_gets_zero_effect():
    data, work, state = frozen_setup([[[[1, 0]], [[1, 0], [0, 1]]]])
    state.test_effect[:] = 9.9
    update_test_effects(make_rng(5), state, work)
    assert state.test_effect[0] == 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_test_effects_sum_to_zero(seed):
    rng = np.random.default_rng(seed)
    responses = [[[rng.integers(0, 2, size=int(rng.integers(1, 4))).tolist()
                   for _ in range(int(rng.integers(1, 5)))]
                  for _ in range(int(rng.integers(1, 4)))] for _ in range(2)]
    data, work, state = frozen_setup(responses)
    state.theta[:] = rng.normal(size=len(state.theta))
    state.latent_utility[:] = rng.normal(size=data.n_items)
    state.day_effect[:] = rng.normal(size=data.n_days)
    update_test_effects(make_rng(seed), state, work)
    sums = np.add.reduceat(state.test_effect, data.test_start[:-1])
    assert np.all(np.abs(sums) <= 1e-12)


def test_test_effect_scalar_conjugate_oracle():
    n_days = 10**5
    y1, y2 = 0.8, -0.3
    responses = [[[[1], [0]] for _ in range(n_days)]]
    data, work, state = frozen_setup(responses)
    state.latent_utility[0::2] = y1
    state.latent_utility[1::2] = y2
    update_test_effects(make_rng(6), state, work)
    eta1 = state.test_effect[0::2]
    eta2 = state.test_effect[1::2]
    assert np.array_equal(eta2, -eta1)
    # scalar conjugate oracle: precision P1 + P2 + 2 tau = 4, mean (b1-b2)/4
    mean = (y1 - y2) / 4.0
    var = 1.0 / 4.0
    assert abs(eta1.mean() - mean) < 4.0 * mc_se_mean(eta1)
    assert abs(eta1.var(ddof=1) - var) < 4.0 * mc_se_var(eta1)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_test_effect_draw_matches_dense_constrained_conditional(seed):
    """The draw is affine in its normals: zero normals give its mean, each
    unit vector one column of a square root of its covariance.  Both match
    the dense conditional of the free effects on ragged days (1-5 tests,
    at least one single-test day) with random psi, residuals and tau."""
    rng = np.random.default_rng(seed)
    responses = [[[rng.integers(0, 2, size=int(rng.integers(1, 4))).tolist()
                   for _ in range(int(rng.integers(1, 6)))]
                  for _ in range(int(rng.integers(1, 4)))]
                 for _ in range(int(rng.integers(1, 4)))]
    responses[0][0] = responses[0][0][:1]
    data, work, state = frozen_setup(responses)
    state.ks_scale[:] = rng.uniform(0.1, 2.0, size=data.n_items)
    work.refresh_obs_precision(state)
    state.theta[:] = rng.normal(size=len(state.theta))
    state.latent_utility[:] = rng.normal(size=data.n_items)
    state.day_effect[:] = rng.normal(size=data.n_days)
    state.test_effect_precision[:] = rng.uniform(0.2, 10.0, size=data.n_individuals)
    mean, cov = dense_test_effect_conditional(data, state, work.constants)

    def draw(normals):
        update_test_effects(normals, state, work)
        return state.test_effect.copy()

    base = draw(FixedNormals(np.zeros(data.n_tests)))
    root = np.column_stack([draw(FixedNormals(e)) - base for e in np.eye(data.n_tests)])
    np.testing.assert_allclose(base, mean, rtol=0, atol=1e-9 * np.abs(mean).max())
    np.testing.assert_allclose(root @ root.T, cov, rtol=0, atol=1e-9 * np.abs(cov).max())

    eta = draw(make_rng(seed))
    assert np.all(eta[data.test_start[:-1][data.tests_per_day == 1]] == 0.0)
    assert np.all(np.abs(np.add.reduceat(eta, data.test_start[:-1])) <= 1e-12)


# ---------------------------------------------------------------------------
# test-effect precision
# ---------------------------------------------------------------------------

def test_test_effect_precision_shape_gate():
    """T=2 with single-test days: shape (sum S - (T+1))/2 = -1/2, which the
    gate rejects before any chain starts.  Called directly, the update finds
    every test effect 0 (a single-test day's closes its sum), so its rate
    stays 0 after the redraw."""
    data, work, state = frozen_setup([[[[1]], [[0]]]])
    with pytest.raises(NumericError, match="gamma rate degenerate after block redraw"):
        update_test_effect_precision(make_rng(0), state, work)


def tau_replicas(n, eta=0.5):
    responses = [[[[1], [0]], [[0], [1]]] for _ in range(n)]
    data, work, state = frozen_setup(responses)
    state.test_effect[:] = np.tile([eta, -eta], 2 * n)
    return data, work, state


def test_test_effect_precision_zero_rate_redraw_is_counted():
    data, work, state = frozen_setup([proper_individual(3), proper_individual(3)])
    state.test_effect[:] = np.tile([0.5, -0.5], data.n_tests // 2)
    state.test_effect[work.test_individual == 0] = 0.0  # zero rate for individual 0
    assert work.guard_redraws == 0
    update_test_effect_precision(make_rng(6), state, work)
    assert work.guard_redraws == 1
    assert np.all(state.test_effect_precision > 0.0)
    assert np.any(state.test_effect[work.test_individual == 0] != 0.0)  # block redrawn


def test_test_effect_precision_moment_oracle():
    n = 20_000
    eta = 0.5
    data, work, state = tau_replicas(n, eta)
    shape = -0.5 + (4 - 2) / 2.0          # prior exponent + sum (S_t - 1)/2
    rate = 2 * (eta**2 + eta**2) / 2.0    # sum over days of sum_s eta^2 / 2
    update_test_effect_precision(make_rng(7), state, work)
    tau = state.test_effect_precision
    assert abs(tau.mean() - shape / rate) < 4.0 * mc_se_mean(tau)
    assert abs(tau.var(ddof=1) - shape / rate**2) < 4.0 * mc_se_var(tau)


def test_test_effect_precision_scaling():
    n = 20_000
    _, work1, state1 = tau_replicas(n, eta=0.5)
    _, work2, state2 = tau_replicas(n, eta=1.0)
    update_test_effect_precision(make_rng(8), state1, work1)
    update_test_effect_precision(make_rng(8), state2, work2)
    m1, m2 = state1.test_effect_precision.mean(), state2.test_effect_precision.mean()
    se = 4.0 * (mc_se_mean(state1.test_effect_precision)
                + 4.0 * mc_se_mean(state2.test_effect_precision))
    assert abs(m1 - 4.0 * m2) < se


# ---------------------------------------------------------------------------
# day effects
# ---------------------------------------------------------------------------

def test_day_effects_shrink_to_zero_under_huge_precision():
    data, work, state = frozen_setup([proper_individual(4), proper_individual(4)])
    state.latent_utility[:] = np.random.default_rng(1).normal(size=data.n_items)
    state.day_effect_precision[:] = 1e12
    update_day_effects(make_rng(9), state, work)
    assert np.max(np.abs(state.day_effect)) < 1e-3
    assert np.percentile(np.abs(state.day_effect), 90) < 5e-5


def test_day_effect_conjugate_oracle():
    n_days = 10**5
    r = 1.1
    responses = [[[[1]] for _ in range(n_days)]]
    data, work, state = frozen_setup(responses)
    state.latent_utility[:] = r
    update_day_effects(make_rng(10), state, work)
    eff = state.day_effect
    assert abs(eff.mean() - r / 2.0) < 4.0 * mc_se_mean(eff)
    assert abs(eff.var(ddof=1) - 0.5) < 4.0 * mc_se_var(eff)


def test_day_effect_mean_invariant_to_common_shift():
    responses = [proper_individual(3), proper_individual(3)]
    data, work, state = frozen_setup(responses)
    rng = np.random.default_rng(2)
    state.latent_utility[:] = rng.normal(size=data.n_items)
    state.theta[:] = rng.normal(size=len(state.theta))
    update_day_effects(make_rng(11), state, work)
    base = state.day_effect.copy()

    shifted = initial_state(data)
    shifted.ks_scale[:] = state.ks_scale
    shifted.latent_utility[:] = state.latent_utility + 2.5
    shifted.theta[:] = state.theta + 2.5
    update_day_effects(make_rng(11), shifted, work)
    assert np.allclose(shifted.day_effect, base, atol=1e-12)


# ---------------------------------------------------------------------------
# day-effect precision
# ---------------------------------------------------------------------------

def test_day_effect_precision_zero_rate_triggers_redraw_guard():
    data, work, state = frozen_setup([proper_individual(3), proper_individual(3)])
    state.day_effect[:] = 0.0
    update_day_effect_precision(make_rng(12), state, work)
    assert np.all(state.day_effect_precision > 0.0)
    assert np.any(state.day_effect != 0.0)  # guard redrew the block


def test_day_effect_precision_accepts_two_days():
    data, work, state = frozen_setup([proper_individual(2), proper_individual(2)])
    state.day_effect[:] = 0.4
    update_day_effect_precision(make_rng(13), state, work)
    assert np.all(state.day_effect_precision > 0.0)


def test_day_effect_precision_moment_oracle():
    n = 20_000
    responses = [[[[1]], [[0]]] for _ in range(n)]
    data, work, state = frozen_setup(responses)
    state.day_effect[:] = 0.3
    shape = -0.5 + 2 / 2.0
    rate = 2 * 0.3**2 / 2.0
    update_day_effect_precision(make_rng(14), state, work)
    delta = state.day_effect_precision
    assert abs(delta.mean() - shape / rate) < 4.0 * mc_se_mean(delta)
    assert abs(delta.var(ddof=1) - shape / rate**2) < 4.0 * mc_se_var(delta)


# ---------------------------------------------------------------------------
# drift precision
# ---------------------------------------------------------------------------

def test_drift_precision_moment_oracle():
    data, work, state = frozen_setup([proper_individual(2), proper_individual(2)])
    rng_state = np.random.default_rng(4)
    state.theta[:] = rng_state.normal(size=len(state.theta))
    theta_prev = state.theta[work.day_theta_prev]
    resid = (state.theta[work.day_theta] - theta_prev
             - state.growth[work.day_individual]
             * (1.0 - work.constants.rho * theta_prev) * work.lapse_trunc)
    shape = -0.5 + 4 / 2.0
    rate = float(np.sum(resid**2 * work.inv_lapse)) / 2.0
    rng = make_rng(15)
    draws = np.empty(10**5)
    for j in range(len(draws)):
        update_drift_precision(rng, state, work)
        draws[j] = state.drift_precision
    assert abs(draws.mean() - shape / rate) < 4.0 * mc_se_mean(draws)
    assert abs(draws.var(ddof=1) - shape / rate**2) < 4.0 * mc_se_var(draws)


def test_drift_precision_zero_residual_triggers_redraw_guard():
    data, work, state = frozen_setup([proper_individual(2), proper_individual(2)])
    state.theta[:] = 0.7  # flat paths, zero growth: all residuals vanish
    before = state.theta.copy()
    update_drift_precision(make_rng(16), state, work)
    assert state.drift_precision > 0.0
    assert not np.array_equal(state.theta, before)  # guard redrew the paths


def test_sweep_that_holds_drift_precision_leaves_it_unchanged():
    data, work, state = frozen_setup([proper_individual(2), proper_individual(2)])
    state.drift_precision = 0.0612 ** -2
    gibbs_sweep(make_rng(17), state, work, hold_drift=True)
    assert state.drift_precision == 0.0612 ** -2
    assert "drift precision" not in work.update_s


# ---------------------------------------------------------------------------
# mixture scales
# ---------------------------------------------------------------------------

def test_ks_scale_smaller_proposals_always_accepted_at_zero_residual():
    n_items = 5000
    data, work, state = frozen_setup([[[np.ones(n_items, dtype=int).tolist()]]])
    state.latent_utility[:] = 0.0  # residual exactly zero
    seed = 18
    update_ks_scales(make_rng(seed), state, work)
    replay = make_rng(seed)
    proposals = sample_ks(replay, n_items)
    smaller = proposals < NU_UNIT  # current scale: LR > 1 for any smaller proposal
    assert np.any(smaller)
    assert np.all(state.ks_scale[smaller] == proposals[smaller])


def test_ks_scale_changes_refresh_observation_precision():
    data, work, state = frozen_setup([proper_individual(2), proper_individual(2)])
    update_ks_scales(make_rng(19), state, work)
    expected = 1.0 / (4.0 * state.ks_scale**2 + work.constants.sigma**2)
    assert np.allclose(work.psi, expected, rtol=1e-15)


def test_ks_scale_counts_proposals_and_acceptances():
    data, work, state = frozen_setup([proper_individual(2), proper_individual(2)])
    accepted = 0
    for seed in range(3):
        before = state.ks_scale.copy()
        update_ks_scales(make_rng(seed), state, work)
        accepted += np.count_nonzero(state.ks_scale != before)
    assert work.ks_proposals == 3 * data.n_items
    assert work.ks_accepted == accepted > 0


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

def small_sim(seed=21):
    data, _ = simulate_dataset(SimConfig(
        n_individuals=3, days=5, tests_per_day=3, items_per_test=4,
        growth=(0.004, 0.001, 0.006), day_effect_precision=(1.5, 1.0, 2.0),
        test_effect_precision=(3.0, 4.0, 2.5), drift_precision=1 / 0.05**2,
        sigma=0.7333, rho=0.118, delta_tmax=14.0,
        lapse_table=np.full((3, 5), 4.0), seed=seed))
    constants = constants_for(data, sigma=0.7333)
    return data, constants


def test_sweep_deterministic_across_runs():
    data, constants = small_sim()
    states = []
    for _ in range(2):
        work = SweepWorkspace(data, constants)
        state = initial_state(data)
        rng = make_rng(99)
        for _ in range(100):
            gibbs_sweep(rng, state, work)
        states.append(state)
    a, b = states
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.growth, b.growth)
    assert a.drift_precision == b.drift_precision
    assert np.array_equal(a.ks_scale, b.ks_scale)
    assert np.array_equal(a.test_effect, b.test_effect)


def state_invariant_violations(state, work: SweepWorkspace) -> list:
    """Sum-zero test effects, response-consistent utility signs, positive
    precisions/scales, nonneg growth."""
    data = work.data
    problems = []
    day_sums = np.add.reduceat(state.test_effect, data.test_start[:-1])
    if np.any(np.abs(day_sums) > 1e-12):
        problems.append("test effects do not sum to zero within a day")
    if np.any(state.test_effect[data.test_start[:-1][data.tests_per_day == 1]] != 0.0):
        problems.append("single-test day has nonzero test effect")
    correct = data.response == 1
    if np.any(state.latent_utility[correct] <= 0.0):
        problems.append("correct response with nonpositive latent utility")
    if np.any(state.latent_utility[~correct] > 0.0):
        problems.append("incorrect response with positive latent utility")
    if np.any(state.growth < 0.0):
        problems.append("negative growth rate")
    for name in ("day_effect_precision", "test_effect_precision"):
        if np.any(getattr(state, name) <= 0.0):
            problems.append(f"nonpositive {name}")
    if not state.drift_precision > 0.0:
        problems.append("nonpositive drift_precision")
    if np.any(state.ks_scale <= 0.0):
        problems.append("nonpositive mixture scale")
    if not np.all(np.isfinite(state.theta)):
        problems.append("non-finite ability")
    return problems


def test_sweep_preserves_invariants():
    data, constants = small_sim(seed=31)
    work = SweepWorkspace(data, constants)
    state = initial_state(data)
    rng = make_rng(55)
    for _ in range(15):
        gibbs_sweep(rng, state, work)
        assert state_invariant_violations(state, work) == []


def test_sweep_error_names_failing_update():
    data, constants = small_sim(seed=41)
    work = SweepWorkspace(data, constants)
    state = initial_state(data)
    state.theta[:] = np.nan  # corrupts the first update's means
    with pytest.raises(NumericError, match="latent utilities"):
        gibbs_sweep(make_rng(1), state, work)


def sweep_cost(scale: int) -> tuple:
    """Python lines executed and tracemalloc peak of one sweep, with
    5000 * scale items, after five warm-up sweeps."""
    data, _ = simulate_dataset(SimConfig(
        n_individuals=5, days=10, tests_per_day=4, items_per_test=25 * scale,
        growth=np.full(5, 0.003), day_effect_precision=np.full(5, 1.5),
        test_effect_precision=np.full(5, 3.0), drift_precision=1 / 0.05**2,
        sigma=0.7333, rho=0.118, delta_tmax=14.0,
        lapse_table=np.full((5, 10), 4.0), seed=scale))
    work = SweepWorkspace(data, constants_for(data, sigma=0.7333))
    state = initial_state(data)
    rng = make_rng(scale)
    for _ in range(5):
        gibbs_sweep(rng, state, work)
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count

    sys.settrace(count)
    try:
        gibbs_sweep(rng, state, work)
    finally:
        sys.settrace(None)
    tracemalloc.start()
    try:
        gibbs_sweep(rng, state, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return lines, peak


def test_sweep_cost_scales_linearly_with_item_count():
    # deterministic stand-ins for wall time: a per-item Python loop shows as
    # executed lines that grow with the item count, a quadratic temporary as
    # a memory peak that grows faster than it
    cost = {scale: sweep_cost(scale) for scale in (1, 2, 4)}
    lines = [n for n, _ in cost.values()]
    assert max(lines) - min(lines) <= 20
    for scale in (2, 4):
        assert cost[scale][1] <= 1.25 * scale * cost[1][1]


# ---------------------------------------------------------------------------
# the latent block jointly: Geweke's "getting it right" test
# ---------------------------------------------------------------------------

# 2 individuals x 3 days x 3 tests x 3 items; the 30-day lapse exceeds
# delta_tmax.  Growth and every precision are held at known values: their
# objective priors are improper, so only the latent block has a joint law
# to draw from, and their oracle tests above remain their check.
GEWEKE_SHAPE = (2, 3, 3, 3)
GEWEKE_LAPSES = [1.0, 30.0, 7.0]
GEWEKE_GROWTH = np.array([0.02, 0.05])
GEWEKE_DIFFICULTY = np.linspace(-0.5, 1.0, 18).reshape(2, 3, 3)
GEWEKE_CONSTANTS = ModelConstants(sigma=0.7333, rho=0.118, delta_tmax=14.0,
                                  group_prior={"g": (0.5, 0.25)})
GEWEKE_DRIFT, GEWEKE_DAY, GEWEKE_TEST = 40.0, 8.0, 8.0  # precisions


def geweke_prior(rng, n):
    """``n`` i.i.d. draws of the abilities, day effects, test effects and
    mixture scales from the model, as (n, coordinates) arrays."""
    n_ind, n_days, n_tests, n_items = GEWEKE_SHAPE
    c = GEWEKE_CONSTANTS
    mean, var = c.group_prior["g"]
    theta = np.empty((n, n_ind, n_days + 1))
    theta[:, :, 0] = rng.normal(mean, np.sqrt(var), (n, n_ind))
    for t, lapse in enumerate(GEWEKE_LAPSES):
        prev = theta[:, :, t]
        theta[:, :, t + 1] = (prev + GEWEKE_GROWTH * (1.0 - c.rho * prev)
                              * min(lapse, c.delta_tmax)
                              + rng.normal(0.0, np.sqrt(lapse / GEWEKE_DRIFT), (n, n_ind)))
    day = rng.normal(0.0, GEWEKE_DAY ** -0.5, (n, n_ind * n_days))
    x = rng.normal(0.0, GEWEKE_TEST ** -0.5, (n, n_ind * n_days, n_tests))
    test = (x - x.mean(axis=2, keepdims=True)).reshape(n, -1)  # iid given a zero sum
    # by inversion, so the table sampler in the chain meets an independent law
    nu = ks_quantile(rng.random(n * n_ind * n_days * n_tests * n_items)).reshape(n, -1)
    return theta.reshape(n, -1), day, test, nu


def geweke_statistics(theta, day, test, nu):
    """First and second moments of every ability and day effect, the first
    test effect of each day and the mean log mixture scale: 42 columns."""
    s = np.column_stack([theta, day, test[:, ::GEWEKE_SHAPE[2]], np.log(nu).mean(axis=1)])
    return np.column_stack([s, s * s])


def geweke_chain(rng, m):
    """``m`` iterations of the successive-conditional simulator: draw the
    latent utilities from the model given the state, set the responses to
    their signs in place, then run the latent-block updates in sweep order.
    Starts from a prior draw; returns ``geweke_statistics`` per iteration."""
    n_ind, n_days, n_tests, n_items = GEWEKE_SHAPE
    data = build_dataset([[[[0] * n_items] * n_tests] * n_days] * n_ind,
                         difficulties=GEWEKE_DIFFICULTY.tolist(),
                         lapses=[GEWEKE_LAPSES] * n_ind)
    item_test = np.arange(data.n_items) // n_items
    item_day = item_test // n_tests
    item_theta = item_day + item_day // n_days + 1
    state = initial_state(data)
    state.growth[:] = GEWEKE_GROWTH
    state.drift_precision = GEWEKE_DRIFT
    state.day_effect_precision[:] = GEWEKE_DAY
    state.test_effect_precision[:] = GEWEKE_TEST
    blocks = (state.theta, state.day_effect, state.test_effect, state.ks_scale)
    for block, draw in zip(blocks, geweke_prior(rng, 1)):
        block[:] = draw[0]
    work = SweepWorkspace(data, GEWEKE_CONSTANTS)
    work.refresh_obs_precision(state)
    draws = [np.empty((m, len(block))) for block in blocks]
    for k in range(m):
        mean = (state.theta[item_theta] - GEWEKE_DIFFICULTY.ravel()[item_test]
                + state.day_effect[item_day] + state.test_effect[item_test])
        sd = np.sqrt(GEWEKE_CONSTANTS.sigma ** 2 + 4.0 * state.ks_scale ** 2)
        data.response[:] = mean + sd * rng.standard_normal(data.n_items) > 0.0
        for update in (update_latent_utilities, update_abilities, update_test_effects,
                       update_day_effects, update_ks_scales):
            update(rng, state, work)
        for out, block in zip(draws, blocks):
            out[k] = block
    return geweke_statistics(*draws)


def test_latent_block_leaves_the_joint_law_invariant():
    """Geweke (2004, JASA 99:799): the simulator's stationary law is the
    joint prior of parameters and data, so its moments must match i.i.d.
    prior draws; the chain's standard errors are batch means over 50
    batches of 300."""
    m, batches = 15_000, 50
    chain = geweke_chain(make_rng(0), m)
    prior = geweke_statistics(*geweke_prior(make_rng(1), m))
    batch_means = chain.reshape(batches, -1, chain.shape[1]).mean(axis=1)
    se = np.hypot(batch_means.std(axis=0, ddof=1) / np.sqrt(batches),
                  prior.std(axis=0, ddof=1) / np.sqrt(m))
    z = (chain.mean(axis=0) - prior.mean(axis=0)) / se
    assert np.abs(z).max() <= 4.5, np.round(z, 1).tolist()
