"""Shared builders and Monte-Carlo helpers for the test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from dir_sampler.model import Dataset, ModelConstants
from dir_sampler.simgen import SIM_GROUP


@pytest.fixture
def tiny_constants():
    return ModelConstants(sigma=0.7333, rho=0.1180, delta_tmax=14.0,
                          group_prior={"g": (0.0, 1.0)})


def sim_constants(cfg) -> ModelConstants:
    """The constants that the simulation config ``cfg`` draws its data under."""
    return ModelConstants(sigma=cfg.sigma, rho=cfg.rho, delta_tmax=cfg.delta_tmax,
                          group_prior={SIM_GROUP: (cfg.init_mean, cfg.init_var)})


def build_dataset(responses, difficulties=None, lapses=None, groups=None) -> Dataset:
    """Dataset from nested responses[i][t][s][l], difficulties[i][t][s] and
    lapses[i][t], with difficulty 0 and lapse 1 defaults."""
    days = [day for ind in responses for day in ind]
    tests = [test for day in days for test in day]
    if difficulties is None:
        difficulties = [[[0.0] * len(day) for day in ind] for ind in responses]
    if lapses is None:
        lapses = [[1.0] * len(ind) for ind in responses]
    if groups is None:
        groups = ["g"] * len(responses)
    return Dataset(days=[len(ind) for ind in responses],
                   tests_per_day=[len(day) for day in days],
                   items_per_test=[len(test) for test in tests],
                   response=[r for test in tests for r in test],
                   difficulty=[a for ind in difficulties for day in ind for a in day],
                   lapse=[x for ind in lapses for x in ind], group=groups)


class FixedNormals:
    """Generator stand-in whose ``standard_normal`` returns a fixed vector."""

    def __init__(self, eps):
        self.eps = np.asarray(eps, dtype=float)

    def standard_normal(self, size):
        assert size == len(self.eps)
        return self.eps.copy()


def dense_posterior(data: Dataset, state, constants: ModelConstants, upto=None):
    """Exact N(mean, cov) of every ability path theta.

    Assembles the joint precision matrix densely, day by day and item by
    item, from the prior, transition and observation terms, and inverts it.
    Day t's transition is theta_t = g_t theta_{t-1} + a_t plus noise of
    precision w_t, with a_t = c min(lapse, horizon) and g_t = 1 - rho a_t;
    its linear term is w_t a_t at day t and -g_t w_t a_t at day t-1.
    With ``upto`` (one-individual data), only days 0..upto and their data.
    """
    psi = 1.0 / (4.0 * state.ks_scale ** 2 + constants.sigma ** 2)
    days = data.days if upto is None else [upto]
    dim = int(np.sum(np.asarray(days) + 1))
    prec = np.zeros((dim, dim))
    lin = np.zeros(dim)
    k = 0  # flat index of the individual's day 0
    for i, t_total in enumerate(days):
        init_mean, init_var = constants.prior_for(data.group[i])
        prec[k, k] = 1.0 / init_var
        lin[k] = init_mean / init_var
        for t in range(k + 1, k + t_total + 1):
            d = data.day_start[i] + t - k - 1
            a = state.growth[i] * min(data.lapse[d], constants.delta_tmax)
            g = 1.0 - constants.rho * a
            w = state.drift_precision / data.lapse[d]
            prec[t, t] += w
            prec[t - 1, t - 1] += g * g * w
            prec[t - 1, t] -= g * w
            prec[t, t - 1] -= g * w
            lin[t] += w * a
            lin[t - 1] -= g * w * a
            for s in range(data.test_start[d], data.test_start[d + 1]):
                for j in range(data.item_start[s], data.item_start[s + 1]):
                    z = (state.latent_utility[j] + data.difficulty[s] - state.day_effect[d]
                         - state.test_effect[s])
                    prec[t, t] += psi[j]
                    lin[t] += psi[j] * z
        k += t_total + 1
    cov = np.linalg.inv(prec)
    return cov @ lin, cov


def dense_test_effect_conditional(data: Dataset, state, constants: ModelConstants):
    """Exact N(mean, cov) of all test effects given everything else.

    Per day with S >= 2 tests, the S-1 free effects (all but the last, which
    is minus their sum) have precision diag(p_free) + p_last J + tau (I + J)
    and linear term b_free - b_last, where p and b sum psi and psi * r over
    each test's items; the dense inverse is then mapped to all S effects.  A
    single-test day's effect is 0.
    """
    psi = 1.0 / (4.0 * state.ks_scale ** 2 + constants.sigma ** 2)
    p = np.zeros(data.n_tests)
    b = np.zeros(data.n_tests)
    mean = np.zeros(data.n_tests)
    cov = np.zeros((data.n_tests, data.n_tests))
    k = 0  # flat index of the individual's day 0
    for i, t_total in enumerate(data.days):
        tau = state.test_effect_precision[i]
        for t in range(t_total):
            d = data.day_start[i] + t
            first, end = data.test_start[d], data.test_start[d + 1]
            for s in range(first, end):
                for j in range(data.item_start[s], data.item_start[s + 1]):
                    r = (state.latent_utility[j] - state.theta[k + t + 1]
                         + data.difficulty[s] - state.day_effect[d])
                    p[s] += psi[j]
                    b[s] += psi[j] * r
            free = end - first - 1
            if free == 0:
                continue
            prec = np.diag(p[first:end - 1]) + p[end - 1] + tau * (np.eye(free) + 1.0)
            cov_free = np.linalg.inv(prec)
            lift = np.vstack([np.eye(free), -np.ones((1, free))])
            mean[first:end] = lift @ cov_free @ (b[first:end - 1] - b[end - 1])
            cov[first:end, first:end] = lift @ cov_free @ lift.T
        k += t_total + 1
    return mean, cov


def mixed_two_test_day():
    """One day, two tests, each with one correct and one incorrect response."""
    return [[1, 0], [0, 1]]


def proper_individual(n_days=3):
    """Response block satisfying the per-individual propriety conditions."""
    return [mixed_two_test_day() for _ in range(n_days)]


def mc_se_mean(x: np.ndarray) -> float:
    return float(np.std(x, ddof=1) / np.sqrt(len(x)))


def mc_se_var(x: np.ndarray) -> float:
    """Standard error of the sample variance via the fourth central moment."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    c = x - x.mean()
    m2 = np.mean(c ** 2)
    m4 = np.mean(c ** 4)
    return float(np.sqrt(max(m4 - m2 ** 2, 0.0) / n))


def batch_means_se(x: np.ndarray, n_batches: int = 50) -> float:
    """Standard error of a correlated-chain mean from batch means."""
    x = np.asarray(x, dtype=float)
    usable = (len(x) // n_batches) * n_batches
    batches = x[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(np.std(batches, ddof=1) / np.sqrt(n_batches))


def traced_peak(fn, *args):
    """(result, peak bytes that tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
