"""Variate generators checked against closed forms, quadrature, and series."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import erfc, kolmogi

from dir_sampler import distributions
from dir_sampler.distributions import (ks_quantile, make_rng, normal_isf, sample_gamma,
                                       sample_ks, sample_truncated_normal, scipy_extension)

from conftest import mc_se_mean


# ---------------------------------------------------------------------------
# truncated normal
# ---------------------------------------------------------------------------

@given(mean=st.floats(-40.0, 40.0), log_var=st.floats(-8.0, 8.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_truncated_normal_support(mean, log_var, seed):
    draws = sample_truncated_normal(make_rng(seed), np.full(16, mean),
                                    np.full(16, np.exp(log_var)))
    assert np.all(np.isfinite(draws))
    assert np.all(draws > 0.0)


def test_truncated_normal_half_normal_mean():
    draws = sample_truncated_normal(make_rng(1), np.zeros(10**6), np.ones(10**6))
    assert abs(draws.mean() - np.sqrt(2.0 / np.pi)) < 0.003


def test_truncated_normal_far_tail_matches_quadrature():
    # N(-5, 1) conditioned to (0, inf): the sampler is deep in its tail branch
    draws = sample_truncated_normal(make_rng(2), np.full(10**6, -5.0), np.ones(10**6))
    assert np.all(draws > 0.0)
    norm = integrate.quad(lambda x: np.exp(-0.5 * (x + 5.0) ** 2), 0.0, np.inf)[0]
    mean = integrate.quad(lambda x: x * np.exp(-0.5 * (x + 5.0) ** 2), 0.0, np.inf)[0] / norm
    assert abs(draws.mean() - mean) < 0.01


def test_truncated_normal_extreme_tail_terminates():
    # standardized truncation point 40: must not loop unboundedly, and the
    # draws concentrate just above 0 at scale 1/40 (inverse Mills ratio)
    alpha = 40.0
    draws = sample_truncated_normal(make_rng(3), np.full(10**5, -alpha), np.ones(10**5))
    assert np.all(draws > 0.0)
    mills_mean = 1.0 / alpha - 2.0 / alpha**3 + 10.0 / alpha**5
    assert abs(draws.mean() - mills_mean) < 1e-3


@pytest.mark.parametrize("alpha", [1e8, 1e100, 1e200])
def test_truncated_normal_tail_draws_keep_their_scale_at_huge_truncation_points(alpha):
    # the excess over 0 is about Exp(alpha): loc + sd (alpha + e) cancelled it
    # to 5e-324 at alpha = 1e100, and alpha^2 overflowed at 1e160
    draws = sample_truncated_normal(make_rng(14), np.full(10**5, -alpha), np.ones(10**5))
    assert np.all(np.isfinite(draws) & (draws > 0.0))
    assert np.unique(draws).size >= 0.9 * draws.size
    assert draws.mean() * alpha == pytest.approx(1.0, rel=0.02)


def test_truncated_normal_rejects_bad_variance():
    with pytest.raises(ValueError):
        sample_truncated_normal(make_rng(0), 0.0, 0.0)
    with pytest.raises(ValueError):
        sample_truncated_normal(make_rng(0), 0.0, -1.0)


def test_truncated_normal_deterministic():
    a = sample_truncated_normal(make_rng(11), np.zeros(100), np.ones(100))
    b = sample_truncated_normal(make_rng(11), np.zeros(100), np.ones(100))
    assert np.array_equal(a, b)


def test_normal_isf_matches_scipy_and_is_monotone():
    # log-spaced p from 1e-300 to 1/2 and 1 - p from 1/2 down to 1e-10, plus
    # runs in relative steps of 1e-12, far above rounding, across the points
    # where the rational approximation switches
    grid = np.geomspace(1e-300, 0.5, 20_000)
    runs = [x * (1.0 + np.arange(-2_000, 2_001) * 1e-12) for x in (0.075, 0.925, np.exp(-25.0))]
    p = np.unique(np.concatenate([grid, 1.0 - grid[grid >= 1e-10], *runs]))
    x = normal_isf(p)
    expected = stats.norm.isf(p)
    assert np.all(np.abs(x - expected) <= 1e-14 * np.abs(expected))
    assert np.all(np.diff(x) < 0.0)


def test_normal_isf_endpoints_are_infinite():
    assert normal_isf(0.0) == np.inf and normal_isf(1.0) == -np.inf
    p = np.array([[0.0, 5e-324, 0.5], [1.0 - 2.0**-53, 1.0, 0.0]])
    x = normal_isf(p)
    assert x.shape == (2, 3)
    assert x[0, 0] == x[1, 2] == np.inf and x[1, 1] == -np.inf and x[0, 2] == 0.0
    assert np.all(np.diff(x.ravel()[:-1]) < 0.0) and np.all(np.isfinite(x.ravel()[1:4]))
    assert normal_isf(p, out=p) is p and np.array_equal(p, x)  # in place


def test_erfc_from_the_extension_module_is_scipy_special_erfc():
    x = np.concatenate([np.linspace(-6.0, 30.0, 10_001), [-np.inf, np.inf]])
    assert np.array_equal(scipy_extension("scipy.special", "_special_ufuncs").erfc(x), erfc(x))


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

# Alternating-series truncation: stop once a term's magnitude drops below
# this (the alternating-series bound then caps the error at the same level).
SERIES_TOL = 1e-14


def ks_series(x: np.ndarray, coef_fn, sign_start: float):
    """Alternating series sum_k sign_k * coef_fn(k, x) * exp(-2 k^2 x^2).

    Uses the recurrence exp(-2 k^2 x^2) = exp(-2 (k-1)^2 x^2) * q^(2k-1)
    with q = exp(-2 x^2), so only one exp evaluation per call is needed.
    Terms are added until every element's term magnitude is below the
    truncation tolerance.
    """
    q = np.exp(-2.0 * x * x)
    q2 = q * q
    e_k = q.copy()  # exp(-2 k^2 x^2) at k = 1
    r_k = q.copy()  # q^(2k-1) at k = 1
    total = np.zeros_like(x)
    sign = sign_start
    for k in range(1, 100_000):
        term = coef_fn(k, x) * e_k
        total += sign * term
        if not np.any(term > SERIES_TOL):
            return total
        sign = -sign
        r_k = r_k * q2
        e_k = e_k * r_k
    raise AssertionError("Kolmogorov-Smirnov series failed to converge")


def ks_density(nu):
    """Kolmogorov-Smirnov density 8 sum_k (-1)^(k+1) k^2 nu exp(-2 k^2 nu^2).

    Zero for nu <= 0.  Below nu = 0.02 the true value is smaller than
    1e-300, so 0 is returned without summing.
    """
    nu = np.asarray(nu, dtype=float)
    scalar = nu.ndim == 0
    nu = np.atleast_1d(nu)
    out = np.zeros_like(nu)
    live = nu > 0.02
    if np.any(live):
        x = nu[live]
        val = ks_series(x, lambda k, x: 8.0 * (k * k) * x, 1.0)
        out[live] = np.maximum(val, 0.0)  # clip series cancellation noise
    return float(out[0]) if scalar else out


def ks_cdf(x):
    """Kolmogorov-Smirnov CDF 1 - 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.zeros_like(x)
    live = x > 0.05  # below this the CDF underflows to exactly 0
    if np.any(live):
        val = 1.0 - ks_series(x[live], lambda k, x: 2.0, 1.0)
        out[live] = np.clip(val, 0.0, 1.0)
    return float(out[0]) if scalar else out


def ks_sf(x):
    """Kolmogorov-Smirnov survival function 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2),
    relatively accurate in the upper tail, where 1 - ks_cdf cancels."""
    return ks_series(np.asarray(x, dtype=float), lambda k, x: 2.0, 1.0)


def ks_cdf_lower_tail(x):
    """Jacobi's form of the same CDF, sqrt(2 pi)/x sum_k exp(-(2k-1)^2 pi^2/(8 x^2)),
    relatively accurate in the lower tail, where ks_cdf is 1 minus a sum near 1."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for k in range(1, 1000):
        term = np.exp(-(2 * k - 1) ** 2 * np.pi ** 2 / (8.0 * x * x))
        total += term
        if np.all(term <= 1e-17 * total):
            return np.sqrt(2.0 * np.pi) / x * total
    raise AssertionError("Jacobi series failed to converge")


KS_SPLIT = 0.7300003283226455  # P(K <= 1), where ks_quantile changes series


def test_ks_series_oracles_agree_where_both_are_accurate():
    x = np.linspace(0.5, 1.5, 101)
    assert np.allclose(ks_cdf_lower_tail(x), ks_cdf(x), rtol=1e-14, atol=0.0)
    assert np.allclose(1.0 - ks_sf(x), ks_cdf(x), rtol=1e-14, atol=0.0)
    assert ks_cdf(1.0) == pytest.approx(KS_SPLIT, rel=1e-15)


def test_ks_quantile_inverts_the_series_cdf():
    # log-spaced from 2^-53 up to the split, and 1 - u log-spaced from the split
    # up to 1 - 2^-53; each side checked against its relatively accurate series
    # (1 - u is exact for these multiples of 2^-53)
    grid = np.round(2.0 ** np.linspace(0.0, 53.0, 400)) * 2.0**-53
    split = np.array([np.nextafter(KS_SPLIT, 0.0), KS_SPLIT, np.nextafter(KS_SPLIT, 1.0)])
    u = np.unique(np.concatenate([grid, 1.0 - grid, split]))
    u = u[(u > 0.0) & (u < 1.0)]
    x = ks_quantile(u)
    lower = u <= KS_SPLIT
    assert np.count_nonzero(lower) > 150 and np.count_nonzero(~lower) > 150
    assert np.max(np.abs(ks_cdf_lower_tail(x[lower]) / u[lower] - 1.0)) <= 1e-13
    assert np.max(np.abs(ks_sf(x[~lower]) / (1.0 - u[~lower]) - 1.0)) <= 1e-13
    bulk = u >= 1e-3  # ks_cdf's 1 - S rounds to about 1e-16/u relative
    assert np.max(np.abs(ks_cdf(x[bulk]) / u[bulk] - 1.0)) <= 1e-12
    assert ks_quantile(KS_SPLIT) == pytest.approx(1.0, rel=1e-15)


def test_ks_quantile_is_monotone_across_the_split():
    near = KS_SPLIT + np.arange(-10_000, 10_001) * 2.0**-50
    assert np.all(np.diff(ks_quantile(near)) > 0.0)
    coarse = np.arange(2**16) * 2.0**-16
    x = ks_quantile(coarse)
    assert x[0] == np.nextafter(0.0, 1.0) and np.all(np.diff(x) > 0.0)


def test_ks_quantile_agrees_with_kolmogi():
    # scipy's compiled inverse of the survival function as an independent oracle
    u = make_rng(10).random(10**6)
    assert np.max(np.abs(ks_quantile(u) / kolmogi(1.0 - u) - 1.0)) <= 1e-12


def test_sample_ks_draws_lie_in_the_cell_of_their_first_uniform():
    # the first size uniforms pick the cells: every draw lies in its cell,
    # and a draw in either unbounded end cell is the inversion of its uniform
    n, cells = 200_000, distributions._KS_CELLS
    draws = sample_ks(make_rng(12), n)
    u = make_rng(12).random(n)
    cell = np.floor(u * cells).astype(int)
    edges = np.append(ks_quantile(np.arange(cells) / cells), np.inf)
    assert np.all((edges[cell] <= draws) & (draws <= edges[cell + 1]))
    end = (cell == 0) | (cell == cells - 1)
    assert np.count_nonzero(end) > 50
    assert np.array_equal(draws[end], ks_quantile(u[end]))


class FixedUniforms:
    """Generator stand-in whose ``random`` returns fixed uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert np.shape(self.u) == size
        return self.u.copy()


def not_called(*args):
    raise AssertionError("called")


def test_sample_ks_whose_draws_all_pass_the_squeeze_neither_inverts_nor_evaluates(monkeypatch):
    # w = 0 passes the squeeze of every interior cell: the draws are the
    # table's candidates edge_j + v width_j, with no density or inversion
    cells = distributions._KS_CELLS
    edge, width, _, _ = distributions._ks_table(cells)  # built before the patches
    monkeypatch.setattr(distributions, "ks_quantile", not_called)
    monkeypatch.setattr(distributions, "_ks_density", not_called)
    u = np.array([0.001, 0.3, 0.5, 0.73, 0.999])
    draws = sample_ks(FixedUniforms([u, np.zeros(u.size)]), u.size)
    cell = (u * cells).astype(int)
    assert np.array_equal(draws, edge[cell] + (u * cells - cell) * width[cell])


@pytest.mark.parametrize("u, idle", [
    pytest.param([0.0, 2.0**-53, 0.2, KS_SPLIT], "_ks_upper_quantile", id="lower"),
    pytest.param([0.0, 0.8, 1.0 - 2.0**-53], "_ks_lower_quantile", id="upper")])
def test_ks_quantile_runs_only_the_tail_its_values_lie_in(monkeypatch, u, idle):
    expected = ks_quantile(u)
    monkeypatch.setattr(distributions, idle, not_called)
    assert np.array_equal(ks_quantile(u), expected)


def test_ks_table_bounds_the_density_in_every_interior_cell():
    # envelope >= density >= squeeze * envelope on a 33-point grid of every
    # interior cell, the mode's cell included
    edge, width, top, squeeze = distributions._ks_table(distributions._KS_CELLS)
    x = edge[1:-1, None] + width[1:-1, None] * np.linspace(0.0, 1.0, 33)
    f = ks_density(x.ravel()).reshape(x.shape)
    assert np.all(f <= top[1:-1, None])
    assert np.all(squeeze[1:-1, None] * top[1:-1, None] <= f)
    # one cell holds the mode, where neither edge bounds the density
    assert np.count_nonzero(f[:, 1:-1].max(axis=1) > np.maximum(f[:, 0], f[:, -1])) == 1
    assert 0.99 < np.mean(squeeze[1:-1]) < 1.0


def test_sample_ks_from_a_coarse_table_matches_series_cdf(monkeypatch):
    # with 8 cells the squeeze is weak and 6.7% of draws are rejected and
    # inverted inside their cell: re-picking the cell of a rejected draw, or
    # reusing its first uniform for the inversion, moves the sup distance
    # from 0.0007 to 0.018 or 0.0069 (over seeds 13-20 it read 0.0005-0.0016)
    monkeypatch.setattr(distributions, "_KS_CELLS", 8)
    draws = np.sort(sample_ks(make_rng(13), 10**6))
    f = ks_cdf(draws)
    sup = max(np.max(np.abs(f - np.arange(1, draws.size + 1) / draws.size)),
              np.max(np.abs(f - np.arange(draws.size) / draws.size)))
    assert sup < 0.002


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


def test_sample_ks_far_tails_match_one_term_asymptotics():
    # the extreme uniforms the generator can return, and 1e-12 in between;
    # one term of each tail series is exact to double precision here:
    # F(x) ~ sqrt(2 pi)/x exp(-pi^2/(8 x^2)) below 0.3, 1 - F(x) ~ 2 exp(-2 x^2)
    # above 2.5
    u = np.array([0.0, 2.0**-53, 9007 * 2.0**-53, 0.5, 1.0 - 2.0**-53])
    x = ks_quantile(u)
    assert np.all(np.isfinite(x)) and np.all(x > 0.0)
    low = x < 0.3
    assert np.count_nonzero(low) == 3
    with np.errstate(divide="ignore"):  # u = 0 draws the smallest positive float
        lower = np.exp(0.5 * np.log(2.0 * np.pi) - np.log(x[low])
                       - np.pi**2 / (8.0 * x[low]**2))
    assert lower == pytest.approx(u[low], rel=1e-6, abs=0.0)
    high = x > 2.5
    assert np.count_nonzero(high) == 1
    assert 2.0 * np.exp(-2.0 * x[high]**2) == pytest.approx(1.0 - u[high], rel=1e-6, abs=0.0)


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
