"""Ability-path update vs an independent dense-Gaussian oracle.

The oracle (``conftest.dense_posterior``) assembles the joint precision
matrix of the paths theta directly from the prior, transition, and
observation terms and solves it densely.  The update draws
theta = U^-1 (y + eps), so a generator stand-in that returns zeros makes it
write the exact posterior mean, and one that returns the k-th unit vector
adds the k-th column of U^-1, whose outer products sum to the covariance.
The last day of a prefix dataset gives the filtered marginals; Monte Carlo
checks the joint law.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dir_sampler.distributions import make_rng
from dir_sampler.errors import NumericError
from dir_sampler.gibbs import SweepWorkspace, update_abilities
from dir_sampler.model import ModelConstants, initial_state

from conftest import FixedNormals, build_dataset, dense_posterior

SIGMA = 0.6


def path_problem(z_by_day, psi_by_day, lapse, growth, drift_precision,
                 init_mean, init_var, rho, copies=1):
    """``copies`` identical individuals whose day-t items carry pseudo-data
    z_by_day[t] with observation precisions psi_by_day[t] (difficulties and
    effects are zero, so each latent utility is z)."""
    data = build_dataset([[[[0] * len(z)] for z in z_by_day]] * copies,
                         lapses=[list(lapse)] * copies)
    constants = ModelConstants(sigma=SIGMA, rho=rho, delta_tmax=14.0,
                               group_prior={"g": (init_mean, init_var)})
    state = initial_state(data)
    z = np.tile(np.concatenate(z_by_day), copies)
    psi = np.tile(np.concatenate(psi_by_day), copies)
    state.latent_utility[:] = z
    state.ks_scale[:] = np.sqrt((1.0 / psi - SIGMA ** 2) / 4.0)
    state.growth[:] = growth
    state.drift_precision = drift_precision
    return data, constants, state


def random_problem(seed, max_individuals=3, max_days=4):
    """Ragged data (days, tests and items vary) with random conditioning
    values and two groups with different initial-ability priors."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_individuals + 1))
    shape = [[[int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3)))]
              for _ in range(int(rng.integers(1, max_days + 1)))] for _ in range(n)]
    data = build_dataset(
        [[[[0] * items for items in day] for day in ind] for ind in shape],
        difficulties=[[rng.normal(size=len(day)).tolist() for day in ind] for ind in shape],
        lapses=[rng.uniform(0.5, 20.0, len(ind)).tolist() for ind in shape],
        groups=[str(g) for g in rng.integers(0, 2, n)])
    constants = ModelConstants(
        sigma=0.7333, rho=float(rng.uniform(0.05, 0.3)), delta_tmax=14.0,
        group_prior={g: (float(rng.normal()), float(rng.uniform(0.5, 2.0)))
                     for g in ("0", "1")})
    state = initial_state(data)
    state.latent_utility[:] = rng.normal(0.0, 3.0, data.n_items)
    state.day_effect[:] = rng.normal(0.0, 0.5, data.n_days)
    state.test_effect[:] = rng.normal(0.0, 0.5, data.n_tests)
    state.ks_scale[:] = rng.uniform(0.2, 1.0, data.n_items)
    state.growth[:] = rng.uniform(0.0, 0.05, n)
    state.drift_precision = float(rng.uniform(0.5, 50.0))
    return data, constants, state


def workspace(data, constants, state):
    work = SweepWorkspace(data, constants)
    work.refresh_obs_precision(state)
    return work


def update_moments(data, constants, state):
    """Mean and covariance of the path draw, read off the update with zero
    noise and with each unit vector as the noise."""
    work = workspace(data, constants, state)
    n_theta = len(state.theta)
    update_abilities(FixedNormals(np.zeros(n_theta)), state, work)
    mean = state.theta.copy()
    inv_chol = np.empty((n_theta, n_theta))
    for k, unit in enumerate(np.eye(n_theta)):
        update_abilities(FixedNormals(unit), state, work)
        inv_chol[:, k] = state.theta - mean
    return mean, inv_chol @ inv_chol.T


def prefix_moments(data, constants, state, n_days):
    """Mean and variance of the last day of the individual's first
    ``n_days`` days, fitted on that prefix alone (the filtered marginal)."""
    sub = data.individual_prefix(n_days)
    n_tests, n_items = sub.n_tests, sub.n_items
    sub_state = initial_state(sub)
    sub_state.latent_utility[:] = state.latent_utility[:n_items]
    sub_state.ks_scale[:] = state.ks_scale[:n_items]
    sub_state.day_effect[:] = state.day_effect[:n_days]
    sub_state.test_effect[:] = state.test_effect[:n_tests]
    sub_state.growth[:] = state.growth[0]
    sub_state.drift_precision = state.drift_precision
    mean, cov = update_moments(sub, constants, sub_state)
    return mean[-1], cov[-1, -1]


# ---------------------------------------------------------------------------
# exact law
# ---------------------------------------------------------------------------

@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_update_mean_and_covariance_match_dense_posterior(seed):
    """At the drawn rho and at rho = 1e-100, where 1/rho dwarfs the paths."""
    data, constants, state = random_problem(seed)
    for rho in (constants.rho, 1e-100):
        at_rho = replace(constants, rho=rho)
        mean_want, cov_want = dense_posterior(data, state, at_rho)
        mean, cov = update_moments(data, at_rho, state)
        np.testing.assert_allclose(mean, mean_want, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(cov, cov_want, rtol=1e-9,
                                   atol=1e-12 * np.max(np.abs(cov_want)))


def test_update_consumes_one_normal_per_ability():
    data, constants, state = random_problem(11)
    work = workspace(data, constants, state)
    rng, twin = make_rng(9), make_rng(9)
    update_abilities(rng, state, work)
    twin.standard_normal(len(state.theta))
    assert rng.bit_generator.state == twin.bit_generator.state


# ---------------------------------------------------------------------------
# filtered marginals (last day of a prefix)
# ---------------------------------------------------------------------------

def test_flat_prior_single_observation():
    rho = 0.118
    psi = 0.9
    z = 1.3
    data, constants, state = path_problem([[z]], [[psi]], [2.0], growth=0.0,
                                          drift_precision=1.0, init_mean=0.0,
                                          init_var=1e6, rho=rho)
    mean, var = prefix_moments(data, constants, state, 1)
    assert mean == pytest.approx(z, abs=1e-3)
    assert var == pytest.approx(1.0 / psi, rel=1e-3)


def test_hand_conjugate_instance():
    # mu_G=0, V_G=1, rho=0.118, c=0, phi=1, lapse=1, one item psi=1, z=2
    rho = 0.118
    data, constants, state = path_problem([[2.0]], [[1.0]], [1.0], growth=0.0,
                                          drift_precision=1.0, init_mean=0.0,
                                          init_var=1.0, rho=rho)
    mean, var = prefix_moments(data, constants, state, 1)
    # two-line conjugate-normal oracle: prior theta_1 ~ N(0, 2), obs z=2, psi=1
    prior_mean, prior_var = 0.0, 2.0
    post_var = 1.0 / (1.0 + 1.0 / prior_var)
    post_mean = post_var * (prior_mean / prior_var + 2.0)
    assert var == pytest.approx(post_var, abs=1e-12)
    assert mean == pytest.approx(post_mean, abs=1e-12)


def test_constant_pseudodata_monotone_approach():
    rho = 0.118
    t_total = 12
    z_target = 3.0
    data, constants, state = path_problem([[z_target]] * t_total, [[1.0]] * t_total,
                                          [1.0] * t_total, growth=0.0,
                                          drift_precision=1.0, init_mean=-4.0,
                                          init_var=1.0, rho=rho)
    means = [prefix_moments(data, constants, state, t)[0] for t in range(1, t_total + 1)]
    gaps = np.abs(np.array(means) - z_target)
    assert np.all(np.diff(gaps) < 0.0)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_filter_marginals_match_dense_prefix_posteriors(seed):
    data, constants, state = random_problem(seed, max_individuals=1, max_days=5)
    for upto in range(1, int(data.days[0]) + 1):
        mean, cov = dense_posterior(data, state, constants, upto=upto)
        got_mean, got_var = prefix_moments(data, constants, state, upto)
        assert got_mean == pytest.approx(mean[upto], rel=1e-9, abs=1e-9)
        assert got_var == pytest.approx(cov[upto, upto], rel=1e-9)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_zero_system_noise_follows_system_equation():
    rho = 0.118
    t_total = 4
    growth = 0.01
    lapse = [3.0, 17.0, 2.0, 9.0]
    data, constants, state = path_problem([[0.5, -0.2]] * t_total, [[1.0, 0.8]] * t_total,
                                          lapse, growth=growth, drift_precision=1e12,
                                          init_mean=0.0, init_var=1.0, rho=rho)
    update_abilities(make_rng(0), state, workspace(data, constants, state))
    theta = state.theta
    for t in range(1, t_total + 1):
        predicted = theta[t - 1] + growth * (1.0 - rho * theta[t - 1]) * min(lapse[t - 1], 14.0)
        assert theta[t] == pytest.approx(predicted, abs=1e-4)


def test_backward_sampling_deterministic():
    data, constants, state = random_problem(42)
    work = workspace(data, constants, state)
    update_abilities(make_rng(42), state, work)
    a = state.theta.copy()
    update_abilities(make_rng(42), state, work)
    assert np.array_equal(a, state.theta)


def test_small_rho_leaves_the_abilities_their_digits():
    """The paths are drawn in theta, not shifted by the asymptote 1/rho, so
    a rho far below machine epsilon moves the zero-noise draw (the posterior
    mean) no more than rho itself does."""
    for seed in range(20):
        data, constants, state = random_problem(seed)
        means = []
        for rho in (1e-12, 1e-17, 1e-100):
            work = workspace(data, replace(constants, rho=rho), state)
            update_abilities(FixedNormals(np.zeros(len(state.theta))), state, work)
            means.append(state.theta.copy())
        np.testing.assert_allclose(means[1:], [means[0], means[0]], rtol=0, atol=1e-6,
                                   err_msg=f"seed {seed}")


def test_numeric_error_carries_day_context():
    data, constants, state = path_problem([[1.0]], [[1.0]], [1.0], growth=0.0,
                                          drift_precision=np.inf, init_mean=0.0,
                                          init_var=1.0, rho=0.118)
    # 1 / init_var overflows in the day-0 precision and pseudo-data; set on
    # the workspace, as ModelConstants rejects such a prior
    work = workspace(data, constants, state)
    work.init_var[:] = 1e-320
    with pytest.warns(RuntimeWarning, match="overflow encountered in divide"):
        with pytest.raises(NumericError, match="individual 0: .* not finite at day 0"):
            update_abilities(make_rng(0), state, work)


def test_indefinite_precision_names_individual_and_day():
    data, constants, state = path_problem([[1.0], [0.5], [0.2]], [[1.0]] * 3, [1.0] * 3,
                                          growth=0.0, drift_precision=1.0, init_mean=0.0,
                                          init_var=1.0, rho=0.118, copies=2)
    work = workspace(data, constants, state)
    work.psi[4] = -50.0  # individual 1, day 2
    with pytest.raises(NumericError, match="individual 1: .* not positive definite at day 2"):
        update_abilities(make_rng(0), state, work)


def test_joint_law_matches_dense_posterior_small():
    # 20k identical individuals: one update draws 20k iid paths
    n_paths = 20_000
    args = ([[0.4, -1.0], [2.0, 1.2], [0.1, 0.3]], [[1.0, 0.7], [0.9, 1.1], [0.5, 1.3]],
            [4.0, 11.0, 2.0])
    kwargs = dict(growth=0.004, drift_precision=4.0, init_mean=0.0, init_var=1.0, rho=0.118)
    data, constants, state = path_problem(*args, **kwargs, copies=n_paths)
    update_abilities(make_rng(5), state, workspace(data, constants, state))
    paths = state.theta.reshape(n_paths, 4)
    one, constants, one_state = path_problem(*args, **kwargs)
    mean, cov = dense_posterior(one, one_state, constants)
    for t in range(4):
        se = np.sqrt(cov[t, t] / n_paths)
        assert abs(paths[:, t].mean() - mean[t]) < 4.0 * se
    emp_cov = np.cov(paths.T)
    for a in range(4):
        for b in range(4):
            se = np.sqrt((cov[a, a] * cov[b, b] + cov[a, b] ** 2) / n_paths)
            assert abs(emp_cov[a, b] - cov[a, b]) < 5.0 * se
