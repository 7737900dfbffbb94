"""Random-variate generators and densities used by the Gibbs sweep.

Everything here is deterministic given the generator state: one seeded
``numpy.random.Generator`` (PCG64) per chain, consumed in a fixed call
order.  The truncated-normal and Kolmogorov-Smirnov samplers are written
against uniforms from that generator so draw sequences are reproducible
across platforms.  Both quantiles are computed here in numpy: the
Kolmogorov-Smirnov one (``ks_quantile``) by Newton steps, the normal one
(``normal_isf``) by Wichura's rational approximation.  The truncated
normal's ``erfc`` is scipy's compiled ufunc, loaded on first use straight
from its extension module (``scipy_extension``), so no process imports the
``scipy`` package.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
from pathlib import Path

import numpy as np

from .errors import NumericError

# Standardized truncation point beyond which the one-sided sampler switches
# from inverse-CDF to exponential rejection.
_TAIL_SWITCH = 4.0
_TINY = np.nextafter(0.0, 1.0)

# P(K <= 1): ks_quantile inverts the lower-tail series up to here, the upper above
_KS_SPLIT = 0.7300003283226455
_PI_SQ_8 = np.pi ** 2 / 8.0
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the single source of randomness for a chain."""
    return np.random.Generator(np.random.PCG64(seed))


@functools.cache
def scipy_extension(package: str, name: str):
    """The compiled module ``package.name`` of scipy, loaded on first use
    without importing ``package`` or ``scipy``: a scipy subpackage's import
    loads every extension module it re-exports, and the ones used here are a
    small part of that (``scipy.special``'s import takes 0.3 s and 16 MiB
    resident, its ``_special_ufuncs`` module 12 ms and 1.8 MiB).  The
    subpackage's directory is found under the top-level package's search
    locations, since finding ``package``'s own spec would run
    ``scipy/__init__``, which imports ``subprocess`` and ``locale`` among
    others."""
    top, *subpackage = package.split(".")
    locations = [str(Path(location, *subpackage))
                 for location in importlib.util.find_spec(top).submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(f"{package}.{name}", locations)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Wichura's AS241 (Applied Statistics 37:477, 1988), PPND16: numerator and
# denominator coefficients, highest power first.  The central rational, in
# r = 0.180625 - q^2 with q = 1/2 - p, serves 0.075 <= p <= 0.925; outside,
# two rationals in t = sqrt(-log(min(p, 1 - p))), shifted by 1.6 for t <= 5
# and by 5 above, stacked as (8, 4, 1) so that one Horner pass evaluates
# all four polynomials.
_ISF_CENTRAL_NUM = np.array([
    2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
    4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
    1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0])
_ISF_CENTRAL_DEN = np.array([
    5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
    2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
    4.23133_30701_60091_1252e+1, 1.0])
_ISF_TAIL = np.array([
    [7.74545_01427_83414_07640e-4, 1.05075_00716_44416_84324e-9,
     2.01033_43992_92288_13265e-7, 2.04426_31033_89939_78564e-15],
    [2.27238_44989_26918_45833e-2, 5.47593_80849_95344_94600e-4,
     2.71155_55687_43487_57815e-5, 1.42151_17583_16445_88870e-7],
    [2.41780_72517_74506_11770e-1, 1.51986_66563_61645_71966e-2,
     1.24266_09473_88078_43860e-3, 1.84631_83175_10054_68180e-5],
    [1.27045_82524_52368_38258e+0, 1.48103_97642_74800_74590e-1,
     2.65321_89526_57612_30930e-2, 7.86869_13114_56132_59100e-4],
    [3.64784_83247_63204_60504e+0, 6.89767_33498_51000_04550e-1,
     2.96560_57182_85048_91230e-1, 1.48753_61290_85061_48525e-2],
    [5.76949_72214_60691_40550e+0, 1.67638_48301_83803_84940e+0,
     1.78482_65399_17291_33580e+0, 1.36929_88092_27358_05310e-1],
    [4.63033_78461_56545_29590e+0, 2.05319_16266_37758_82187e+0,
     5.46378_49111_64114_36990e+0, 5.99832_20655_58879_37690e-1],
    [1.42343_71107_49683_57734e+0, 1.0, 6.65790_46435_01103_77720e+0, 1.0]])[:, :, None]
_ISF_TAIL_SHIFT = np.array([1.6, 1.6, 5.0, 5.0])[:, None]


def _horner(coef, w: np.ndarray, out=None) -> np.ndarray:
    """The polynomial with coefficients ``coef`` (highest power first) at
    ``w``, into ``out`` when given; array coefficients evaluate several
    polynomials at once."""
    acc = np.multiply(coef[0], w, out=out)
    for c in coef[1:-1]:
        acc += c
        acc *= w
    acc += coef[-1]
    return acc


def normal_isf(p, out=None) -> np.ndarray:
    """Standard normal inverse survival function: the x with P(X > x) = p,
    elementwise.

    Wichura's AS241 in numpy, within about 1e-15 of the exact quantile,
    relatively, from p = 5e-324 to 1; isf(0) = inf and isf(1) = -inf.  The
    central rational is evaluated for every element, the tail rationals
    only for the elements outside [0.075, 0.925], whose results replace
    it (the central denominator stays above 0.002 over all of [0, 1]).
    ``out``, a contiguous float64 array of p's shape that may be ``p``
    itself, receives the result when given; the call then allocates two
    arrays of p's size, for r and the Horner sums.
    """
    p = np.asarray(p, dtype=float)
    flat = p.reshape(-1)
    tail = np.flatnonzero((flat < 0.075) | (flat > 0.925))
    p_tail = flat[tail]
    # 1 - p is exact for p > 1/2; the far-tail rational starts at p = exp(-25)
    m = np.minimum(p_tail, 1.0 - p_tail)
    t = np.maximum(m, _TINY)
    np.log(t, out=t)
    np.negative(t, out=t)
    np.sqrt(t, out=t)
    num_near, den_near, num_far, den_far = _horner(_ISF_TAIL, t - _ISF_TAIL_SHIFT)
    x_tail = np.where(t > 5.0, num_far / den_far, num_near / den_near)
    x_tail = np.copysign(np.where(m > 0.0, x_tail, np.inf), 0.5 - p_tail)
    x = np.subtract(0.5, flat, out=None if out is None else out.reshape(-1))
    r = np.multiply(x, x)
    np.subtract(0.180625, r, out=r)
    acc = _horner(_ISF_CENTRAL_NUM, r)
    x *= acc
    x /= _horner(_ISF_CENTRAL_DEN, r, out=acc)
    x[tail] = x_tail
    return x.reshape(p.shape) if out is None else out


def _sample_tail_std(rng: np.random.Generator, alpha: np.ndarray) -> np.ndarray:
    """Draw standard normals conditioned to (alpha, inf) for alpha > 4 by
    Robert-style exponential rejection, whose acceptance rate is bounded
    away from zero there (it increases towards 1 as alpha grows)."""
    lam = 0.5 * (alpha + np.sqrt(alpha * alpha + 4.0))
    x = np.empty_like(alpha)
    pending = np.arange(alpha.size)
    for _ in range(10_000):
        e = rng.exponential(1.0 / lam[pending])
        cand = alpha[pending] + e
        acc = rng.random(pending.shape) <= np.exp(-0.5 * (cand - lam[pending]) ** 2)
        x[pending[acc]] = cand[acc]
        pending = pending[~acc]
        if pending.size == 0:
            return x
    raise NumericError("truncated-normal tail rejection failed to accept")


def sample_truncated_normal(rng: np.random.Generator, mean, variance, out=None):
    """Draw from N(mean, variance) restricted to (0, inf).

    ``mean`` and ``variance`` are arrays that broadcast; the result has
    their broadcast shape.  ``out``, a float64 array of that shape that
    overlaps neither input, receives the draws when given.

    Every element takes one uniform, in element order, through the inverse
    CDF on the survival scale, computed in place in the result and one
    scratch array.  Elements whose standardised truncation point exceeds 4, where
    inversion loses accuracy, are then redrawn by exponential rejection.
    """
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    if np.any(variance <= 0.0) or not np.all(np.isfinite(variance)):
        raise ValueError("variance must be finite and > 0")
    if not np.all(np.isfinite(mean)):
        raise ValueError("mean must be finite")
    loc, variance = np.broadcast_arrays(mean, variance)
    draw = np.empty(loc.shape) if out is None else out
    z = np.empty(loc.shape)

    np.sqrt(variance, out=draw)
    np.divide(loc, draw, out=z)
    np.negative(z, out=z)  # the standardised truncation point alpha
    tail = z > _TAIL_SWITCH
    # z = isf(u sf(alpha)) with u in (0, 1] and sf(x) = erfc(x/sqrt 2)/2
    z /= np.sqrt(2.0)
    scipy_extension("scipy.special", "_special_ufuncs").erfc(z, out=z)
    rng.random(out=draw)
    np.subtract(1.0, draw, out=draw)
    draw *= 0.5
    z *= draw
    normal_isf(z, out=z)
    np.sqrt(variance, out=draw)
    draw *= z
    draw += loc
    if np.any(tail):
        sd = np.sqrt(variance[tail])
        draw[tail] = loc[tail] + sd * _sample_tail_std(rng, -loc[tail] / sd)
    # keep draws inside the open support even when rounding collapses
    # mean + sd*z to exactly zero
    np.maximum(draw, _TINY, out=draw)
    return draw


def sample_gamma(rng: np.random.Generator, shape, rate):
    """Gamma(shape, rate) draw with mean shape/rate (rate parameterization)."""
    shape = np.asarray(shape, dtype=float)
    rate = np.asarray(rate, dtype=float)
    if np.any(shape <= 0.0) or not np.all(np.isfinite(shape)):
        raise ValueError("gamma shape must be finite and > 0")
    if np.any(rate <= 0.0) or not np.all(np.isfinite(rate)):
        raise ValueError("gamma rate must be finite and > 0")
    return rng.gamma(shape, 1.0 / rate)


def _ks_lower_quantile(u: np.ndarray) -> np.ndarray:
    """Solve F(x) = u for 0 < u <= P(K <= 1) by Newton steps on log F in y = 1/x^2.

    Jacobi's form F = sqrt(2 pi y) exp(-pi^2 y/8) (1 + r + r^3 + r^6 + ...),
    with r = exp(-pi^2 y) <= exp(-pi^2) ~ 5.2e-5.  The r^6 term is below
    2e-26, under half an ulp of 1 + r + r^3, and 6 r^6 lies as far below
    r + 3 r^3 in the slope; so the series stops at r^3 and returns the same
    floats as with r^6.  log F is concave and decreasing in y, so no step
    overshoots to y <= 0.  The start solves the one-term equation
    pi^2 y/8 - log(y)/2 = log(sqrt(2 pi)/u) to first order; the third step
    reaches rounding error.  ``u`` is overwritten, and each step runs in
    place on five buffers of its size.
    """
    target = np.log(u, out=u)
    target -= _HALF_LOG_2PI
    y = target / -_PI_SQ_8
    e, r, r3, series = (np.empty_like(y) for _ in range(4))
    np.log(y, out=e)
    e *= 0.5
    e /= _PI_SQ_8
    y += e
    for _ in range(3):
        np.multiply(y, -_PI_SQ_8, out=e)
        np.exp(e, out=e)
        np.square(e, out=r)
        np.square(r, out=r)
        np.square(r, out=r)  # exp(-pi^2 y)
        np.multiply(r, r, out=r3)
        r3 *= r
        np.add(r, 1.0, out=series)
        series += r3
        slope = np.multiply(r3, 3.0, out=r3)
        slope += r
        slope *= np.pi ** 2
        slope /= series
        np.divide(0.5, y, out=r)
        r -= _PI_SQ_8
        np.subtract(r, slope, out=slope)  # d log F / dy
        step = np.sqrt(y, out=r)
        step *= e
        step *= series
        np.log(step, out=step)
        step -= target
        step /= slope
        y -= step
    np.sqrt(y, out=y)
    return np.divide(1.0, y, out=y)


def _ks_upper_quantile(u: np.ndarray) -> np.ndarray:
    """Solve F(x) = u for P(K <= 1) < u < 1 by Newton steps on log S in w = x^2.

    The survival function S = 2q (1 - q^3 + q^8 - q^15 + q^24), with
    q = exp(-2w) < exp(-2), omits terms below 1e-30 of the sum.  The start is
    the one-term solution 2q = 1 - u (exact for the generator's multiples of
    2^-53), off by at most q^3 < 3e-3 relatively; one step leaves 1e-7, the
    second rounding error.
    """
    w0 = 0.5 * np.log(2.0 / (1.0 - u))
    w = w0.copy()
    for _ in range(2):
        q = np.exp(-2.0 * w)
        q3 = q * q * q
        q8 = q3 * q3 * q * q
        q15 = q8 * q3 * q3 * q
        q24 = q15 * q8 * q
        series = 1.0 - q3 + q8 - q15 + q24
        slope = -2.0 + 2.0 * (3.0 * q3 - 8.0 * q8 + 15.0 * q15 - 24.0 * q24) / series
        w -= (np.log(series) - 2.0 * (w - w0)) / slope  # log(S / (1 - u)) / slope
    return np.sqrt(w)


def ks_quantile(u) -> np.ndarray:
    """Kolmogorov-Smirnov quantile: the x with P(K <= x) = u, elementwise.

    Three (lower) or two (upper) Newton steps on the series of each tail,
    split at x = 1, bring F(x) within 1e-13 of u, relatively, for u in
    [2^-53, 1 - 2^-53]; u = 0 maps to the smallest positive float.
    """
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    x = np.full_like(flat, _TINY)
    lower = np.flatnonzero((flat > 0.0) & (flat <= _KS_SPLIT))
    upper = np.flatnonzero(flat > _KS_SPLIT)
    x[lower] = _ks_lower_quantile(flat[lower])
    x[upper] = _ks_upper_quantile(flat[upper])
    return x.reshape(u.shape)


def sample_ks(rng: np.random.Generator, size) -> np.ndarray:
    """Draw an array of ``size`` from the Kolmogorov-Smirnov law by
    inversion: one uniform per draw, mapped through ``ks_quantile``."""
    return ks_quantile(rng.random(size))
