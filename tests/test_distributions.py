"""Variate generators checked against closed forms, quadrature, and series."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dir_sampler import (ks_cdf, ks_density, make_rng, sample_gamma, sample_ks,
                         sample_truncated_normal)

from conftest import mc_se_mean


# ---------------------------------------------------------------------------
# truncated normal
# ---------------------------------------------------------------------------

@given(mean=st.floats(-40.0, 40.0), log_var=st.floats(-8.0, 8.0),
       side=st.sampled_from(["positive", "negative"]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_truncated_normal_support(mean, log_var, side, seed):
    draws = sample_truncated_normal(make_rng(seed), np.full(16, mean),
                                    np.full(16, np.exp(log_var)), side)
    assert np.all(np.isfinite(draws))
    if side == "positive":
        assert np.all(draws > 0.0)
    else:
        assert np.all(draws <= 0.0)


def test_truncated_normal_half_normal_mean():
    draws = sample_truncated_normal(make_rng(1), np.zeros(10**6), np.ones(10**6),
                                    "positive")
    assert abs(draws.mean() - np.sqrt(2.0 / np.pi)) < 0.003


def test_truncated_normal_far_tail_matches_quadrature():
    # N(5, 1) conditioned to (-inf, 0]: the sampler is deep in its tail branch
    draws = sample_truncated_normal(make_rng(2), np.full(10**6, 5.0), np.ones(10**6),
                                    "negative")
    assert np.all(draws <= 0.0)
    norm = integrate.quad(lambda x: np.exp(-0.5 * (x - 5.0) ** 2), -np.inf, 0.0)[0]
    mean = integrate.quad(lambda x: x * np.exp(-0.5 * (x - 5.0) ** 2), -np.inf, 0.0)[0] / norm
    assert abs(draws.mean() - mean) < 0.01


def test_truncated_normal_extreme_tail_terminates():
    # standardized truncation point 40: must not loop unboundedly, and the
    # draws concentrate just above 0 at scale 1/40 (inverse Mills ratio)
    alpha = 40.0
    draws = sample_truncated_normal(make_rng(3), np.full(10**5, -alpha),
                                    np.ones(10**5), "positive")
    assert np.all(draws > 0.0)
    mills_mean = 1.0 / alpha - 2.0 / alpha**3 + 10.0 / alpha**5
    assert abs(draws.mean() - mills_mean) < 1e-3


def test_truncated_normal_rejects_bad_variance():
    with pytest.raises(ValueError):
        sample_truncated_normal(make_rng(0), 0.0, 0.0, "positive")
    with pytest.raises(ValueError):
        sample_truncated_normal(make_rng(0), 0.0, -1.0, "negative")
    with pytest.raises(ValueError):
        sample_truncated_normal(make_rng(0), 0.0, 1.0, "both")


def test_truncated_normal_deterministic():
    a = sample_truncated_normal(make_rng(11), np.zeros(100), np.ones(100), "positive")
    b = sample_truncated_normal(make_rng(11), np.zeros(100), np.ones(100), "positive")
    assert np.array_equal(a, b)


def test_truncated_normal_scalar_interface():
    val = sample_truncated_normal(make_rng(5), 1.0, 2.0, "positive")
    assert isinstance(val, float) and val > 0.0


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_exponential_mean():
    draws = sample_gamma(make_rng(4), np.ones(10**6), np.full(10**6, 2.0))
    assert abs(draws.mean() - 0.5) < 0.002


def test_gamma_moment_oracle():
    draws = sample_gamma(make_rng(5), np.full(10**6, 24.5), np.full(10**6, 49.0))
    target = 24.5 / 49.0 ** 2
    assert abs(draws.var(ddof=1) - target) < 0.05 * target


def test_gamma_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_gamma(make_rng(0), 0.0, 1.0)
    with pytest.raises(ValueError):
        sample_gamma(make_rng(0), 1.0, 0.0)
    with pytest.raises(ValueError):
        sample_gamma(make_rng(0), -2.0, 1.0)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov law
# ---------------------------------------------------------------------------

def test_ks_density_zero_outside_support():
    assert ks_density(-1.0) == 0.0
    assert ks_density(0.0) == 0.0


def test_ks_density_integrates_to_one():
    val, err = integrate.quad(ks_density, 0.0, np.inf, limit=200)
    assert err < 1e-8
    assert abs(val - 1.0) < 1e-6


def test_ks_density_matches_long_partial_sum():
    nu = 0.5
    k = np.arange(1, 81, dtype=float)
    partial = 8.0 * np.sum((-1.0) ** (k + 1) * k**2 * nu * np.exp(-2.0 * k**2 * nu**2))
    assert abs(ks_density(nu) - partial) < 1e-12


def test_ks_cdf_is_monotone_and_bounded():
    x = np.linspace(0.0, 4.0, 500)
    f = ks_cdf(x)
    # monotone up to the series truncation tolerance (the deep lower tail is
    # pure cancellation noise around values < 1e-13)
    assert np.all(np.diff(f) >= -1e-13)
    assert f[0] == 0.0 and f[-1] <= 1.0
    assert np.all((f >= 0.0) & (f <= 1.0))
    assert ks_cdf(-2.0) == 0.0


def test_sample_ks_support():
    draws = sample_ks(make_rng(6), 10**6)
    assert np.all(draws > 0.0)


def test_sample_ks_matches_series_cdf():
    draws = np.sort(sample_ks(make_rng(7), 10**6))
    ecdf_hi = np.arange(1, len(draws) + 1) / len(draws)
    ecdf_lo = np.arange(0, len(draws)) / len(draws)
    f = ks_cdf(draws)
    sup = max(np.max(np.abs(f - ecdf_hi)), np.max(np.abs(f - ecdf_lo)))
    assert sup < 0.002


def test_sample_ks_mean_matches_quadrature():
    target = integrate.quad(lambda v: v * ks_density(v), 0.0, np.inf, limit=200)[0]
    draws = sample_ks(make_rng(8), 10**6)
    assert abs(draws.mean() - target) < 0.005
    # same quantity in closed form, as a cross-check of the quadrature oracle
    assert abs(target - np.sqrt(np.pi / 2.0) * np.log(2.0)) < 1e-9


def test_sample_ks_deterministic_and_scalar():
    a = sample_ks(make_rng(9), 1000)
    b = sample_ks(make_rng(9), 1000)
    assert np.array_equal(a, b)
    assert isinstance(sample_ks(make_rng(9)), float)


# ---------------------------------------------------------------------------
# logistic scale-mixture identity
# ---------------------------------------------------------------------------

def logistic_density(y):
    return np.exp(-y) / (1.0 + np.exp(-y)) ** 2


def logistic_mixture_density(y: float) -> float:
    """Density of a normal scale mixture over the K-S law, by quadrature:
    N(y; 0, 4 nu^2) integrated against the K-S density."""

    def integrand(nu: float) -> float:
        var = 4.0 * nu * nu
        return np.exp(-0.5 * y * y / var) / np.sqrt(2.0 * np.pi * var) * ks_density(nu)

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=200)
    return val


def test_mixture_density_at_zero():
    assert abs(logistic_mixture_density(0.0) - 0.25) < 1e-6


def test_mixture_density_symmetry():
    for y in (0.3, 1.7, 4.2):
        assert abs(logistic_mixture_density(y) - logistic_mixture_density(-y)) < 1e-12


@pytest.mark.parametrize("y", [-4.0, -2.0, -1.0, 0.5, 3.0])
def test_mixture_density_matches_logistic(y):
    assert abs(logistic_mixture_density(y) - logistic_density(y)) < 1e-6
