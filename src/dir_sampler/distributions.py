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


def _std_normal_sf(x):
    from scipy.special import erfc
    return 0.5 * erfc(x / np.sqrt(2.0))


def _std_normal_isf(p):
    # inverse survival function, accurate for very small p
    from scipy.special import erfcinv
    return np.sqrt(2.0) * erfcinv(2.0 * p)


def _sample_lower_truncated_std(rng: Rng, alpha: np.ndarray) -> np.ndarray:
    """Draw standard normals conditioned to (alpha, inf), elementwise.

    Inverse-CDF on the survival scale for alpha <= 4; Robert-style
    exponential rejection in the far tail, where the acceptance rate is
    bounded away from zero (it increases towards 1 as alpha grows).
    """
    out = np.empty_like(alpha)
    bulk = alpha <= _TAIL_SWITCH
    if np.any(bulk):
        a = alpha[bulk]
        u = 1.0 - rng.random(a.shape)  # in (0, 1]
        out[bulk] = _std_normal_isf(u * _std_normal_sf(a))
    n_tail = int(np.count_nonzero(~bulk))
    if n_tail:
        a = alpha[~bulk]
        lam = 0.5 * (a + np.sqrt(a * a + 4.0))
        x = np.empty(n_tail)
        pending = np.arange(n_tail)
        for _ in range(10_000):
            e = rng.exponential(1.0 / lam[pending])
            cand = a[pending] + e
            acc = rng.random(pending.shape) <= np.exp(-0.5 * (cand - lam[pending]) ** 2)
            x[pending[acc]] = cand[acc]
            pending = pending[~acc]
            if pending.size == 0:
                break
        else:
            raise NumericError("truncated-normal tail rejection failed to accept")
        out[~bulk] = x
    return out


def sample_truncated_normal(rng: Rng, mean, variance, side: str):
    """Draw from N(mean, variance) restricted to (0, inf) or (-inf, 0].

    ``mean`` and ``variance`` broadcast; the result has the broadcast shape
    (a scalar for scalar inputs).  ``side`` is ``"positive"`` or
    ``"negative"``.
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
    mean = np.atleast_1d(mean).astype(float)
    sd = np.sqrt(np.atleast_1d(variance).astype(float))

    loc = mean if side == "positive" else -mean
    alpha = -loc / sd
    draw = loc + sd * _sample_lower_truncated_std(rng, alpha)
    # keep draws inside the open/closed support even when rounding collapses
    # mean + sd*z to exactly zero
    draw = np.maximum(draw, _TINY)
    if side == "negative":
        draw = -draw
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

    Jacobi's form F = sqrt(2 pi y) exp(-pi^2 y/8) (1 + r + r^3 + r^6), with
    r = exp(-pi^2 y) <= exp(-pi^2), omits terms below 1e-30 of the sum.  log F
    is concave and decreasing in y, so no step overshoots to y <= 0.  The start
    solves the one-term equation pi^2 y/8 - log(y)/2 = log(sqrt(2 pi)/u) to
    first order; the third step reaches rounding error.
    """
    target = np.log(u) - _HALF_LOG_2PI
    y = -target / _PI_SQ_8
    y += 0.5 * np.log(y) / _PI_SQ_8
    for _ in range(3):
        e = np.exp(-_PI_SQ_8 * y)
        r = np.square(np.square(np.square(e)))  # exp(-pi^2 y)
        r3 = r * r * r
        r6 = r3 * r3
        series = 1.0 + r + r3 + r6
        slope = 0.5 / y - _PI_SQ_8 - np.pi ** 2 * (r + 3.0 * r3 + 6.0 * r6) / series
        y -= (np.log(np.sqrt(y) * e * series) - target) / slope
    return 1.0 / np.sqrt(y)


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
