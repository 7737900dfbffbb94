"""Random-variate generators and densities used by the Gibbs sweep.

Everything here is deterministic given the generator state: one seeded
``numpy.random.Generator`` (PCG64) per chain, consumed in a fixed call
order.  The truncated-normal and Kolmogorov-Smirnov samplers are written
against uniforms from that generator so draw sequences are reproducible
across platforms.  The Kolmogorov-Smirnov quantile is computed here in
numpy (``ks_quantile``); only the truncated normal uses ``scipy.special``,
imported on first use so that processes which never sample do not load it.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

Rng = np.random.Generator

# Standardized truncation point beyond which the one-sided sampler switches
# from inverse-CDF to exponential rejection.
_TAIL_SWITCH = 4.0
_TINY = np.nextafter(0.0, 1.0)

# P(K <= 1): ks_quantile inverts the lower-tail series up to here, the upper above
_KS_SPLIT = 0.7300003283226455
_PI_SQ_8 = np.pi ** 2 / 8.0
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def make_rng(seed: int) -> Rng:
    """Seeded PCG64 generator; the single source of randomness for a chain."""
    return np.random.Generator(np.random.PCG64(seed))


def _erfc(x, out):
    from scipy.special import erfc
    return erfc(x, out=out)


def _erfcinv(p, out):
    # accurate for very small p, which the survival-scale inversion needs
    from scipy.special import erfcinv
    return erfcinv(p, out=out)


def _sample_tail_std(rng: Rng, alpha: np.ndarray) -> np.ndarray:
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


def sample_truncated_normal(rng: Rng, mean, variance, side: str, out=None):
    """Draw from N(mean, variance) restricted to (0, inf) or (-inf, 0].

    ``mean`` and ``variance`` broadcast; the result has the broadcast shape
    (a scalar for scalar inputs).  ``side`` is ``"positive"`` or
    ``"negative"``.  ``out``, a float64 array of the broadcast shape that
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
    if side not in ("positive", "negative"):
        raise ValueError(f"side must be 'positive' or 'negative', got {side!r}")
    mean, variance = np.broadcast_arrays(mean, variance)
    scalar = mean.ndim == 0
    loc = np.atleast_1d(mean if side == "positive" else -mean)
    variance = np.atleast_1d(variance)
    draw = np.empty(loc.shape) if out is None else out
    z = np.empty(loc.shape)

    np.sqrt(variance, out=draw)
    np.divide(loc, draw, out=z)
    np.negative(z, out=z)  # the standardised truncation point alpha
    tail = z > _TAIL_SWITCH
    # z = isf(u sf(alpha)) with u in (0, 1], sf(x) = erfc(x/sqrt 2)/2 and
    # isf(p) = sqrt(2) erfcinv(2p); the factors 1/2 and 2 cancel exactly
    z /= np.sqrt(2.0)
    _erfc(z, out=z)
    rng.random(out=draw)
    np.subtract(1.0, draw, out=draw)
    z *= draw
    _erfcinv(z, out=z)
    z *= np.sqrt(2.0)
    np.sqrt(variance, out=draw)
    draw *= z
    draw += loc
    if np.any(tail):
        sd = np.sqrt(variance[tail])
        draw[tail] = loc[tail] + sd * _sample_tail_std(rng, -loc[tail] / sd)
    # keep draws inside the open/closed support even when rounding collapses
    # mean + sd*z to exactly zero
    np.maximum(draw, _TINY, out=draw)
    if side == "negative":
        np.negative(draw, out=draw)
    return float(draw[0]) if scalar else draw


def sample_gamma(rng: Rng, shape, rate):
    """Gamma(shape, rate) draw with mean shape/rate (rate parameterization)."""
    shape = np.asarray(shape, dtype=float)
    rate = np.asarray(rate, dtype=float)
    if np.any(shape <= 0.0) or not np.all(np.isfinite(shape)):
        raise ValueError("gamma shape must be finite and > 0")
    if np.any(rate <= 0.0) or not np.all(np.isfinite(rate)):
        raise ValueError("gamma rate must be finite and > 0")
    out = rng.gamma(shape, 1.0 / rate)
    return float(out) if np.ndim(out) == 0 else out


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


def sample_ks(rng: Rng, size=None):
    """Draw from the Kolmogorov-Smirnov law by inversion: one uniform per
    draw, mapped through ``ks_quantile``."""
    out = ks_quantile(rng.random(size))
    return float(out) if np.ndim(out) == 0 else out
