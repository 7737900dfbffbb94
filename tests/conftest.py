"""Shared builders and Monte-Carlo helpers for the test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from dir_sampler import Dataset, ModelConstants


@pytest.fixture
def tiny_constants():
    return ModelConstants(sigma=0.7333, rho=0.1180, delta_tmax=14.0,
                          group_prior={"g": (0.0, 1.0)})


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
    """Exact N(mean, cov) of every shifted path lam = theta - 1/rho.

    Assembles the joint precision matrix densely, day by day and item by
    item, from the prior, transition and observation terms, and inverts it.
    With ``upto`` (one-individual data), only days 0..upto and their data.
    """
    rho = constants.rho
    psi = 1.0 / (4.0 * state.ks_scale ** 2 + constants.sigma ** 2)
    days = data.days if upto is None else [upto]
    dim = int(np.sum(np.asarray(days) + 1))
    prec = np.zeros((dim, dim))
    lin = np.zeros(dim)
    k = 0  # flat index of the individual's day 0
    for i, t_total in enumerate(days):
        init_mean, init_var = constants.prior_for(data.group[i])
        prec[k, k] = 1.0 / init_var
        lin[k] = (init_mean - 1.0 / rho) / init_var
        for t in range(k + 1, k + t_total + 1):
            d = data.day_start[i] + t - k - 1
            g = 1.0 - state.growth[i] * rho * min(data.lapse[d], constants.delta_tmax)
            w = state.drift_precision / data.lapse[d]
            prec[t, t] += w
            prec[t - 1, t - 1] += g * g * w
            prec[t - 1, t] -= g * w
            prec[t, t - 1] -= g * w
            for s in range(data.test_start[d], data.test_start[d + 1]):
                for j in range(data.item_start[s], data.item_start[s + 1]):
                    z = (state.latent_utility[j] + data.difficulty[s] - state.day_effect[d]
                         - state.test_effect[s] - 1.0 / rho)
                    prec[t, t] += psi[j]
                    lin[t] += psi[j] * z
        k += t_total + 1
    cov = np.linalg.inv(prec)
    return cov @ lin, cov


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
