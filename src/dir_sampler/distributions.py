"""Random-variate generators and densities used by the Gibbs sweep.

Everything here is deterministic given the generator state: one seeded
``numpy.random.Generator`` (PCG64) per chain, consumed in a fixed call
order.  The truncated-normal and Kolmogorov-Smirnov samplers are written
against uniforms from that generator so draw sequences are reproducible
across platforms.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc, erfcinv

from .errors import NumericError

Rng = np.random.Generator

# Standardized truncation point beyond which the one-sided sampler switches
# from inverse-CDF to exponential rejection.
_TAIL_SWITCH = 4.0
# Alternating-series truncation: stop once a term's magnitude drops below
# this (the alternating-series bound then caps the error at the same level).
_SERIES_TOL = 1e-14
_TINY = np.nextafter(0.0, 1.0)


def make_rng(seed: int) -> Rng:
    """Seeded PCG64 generator; the single source of randomness for a chain."""
    return np.random.Generator(np.random.PCG64(seed))


def _std_normal_sf(x):
    return 0.5 * erfc(x / np.sqrt(2.0))


def _std_normal_isf(p):
    # inverse survival function, accurate for very small p
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


def _ks_series(x: np.ndarray, coef_fn, sign_start: float):
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
    k = 1
    while True:
        term = coef_fn(k, x) * e_k
        total += sign * term
        if not np.any(term > _SERIES_TOL):
            return total
        k += 1
        if k > 100_000:
            raise NumericError("Kolmogorov-Smirnov series failed to converge")
        sign = -sign
        r_k = r_k * q2
        e_k = e_k * r_k


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
        val = _ks_series(x, lambda k, x: 8.0 * (k * k) * x, 1.0)
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
        val = 1.0 - _ks_series(x[live], lambda k, x: 2.0, 1.0)
        out[live] = np.clip(val, 0.0, 1.0)
    return float(out[0]) if scalar else out


_KS_KNOTS = 1024
_ks_table: tuple[np.ndarray, np.ndarray] | None = None


def _ks_inversion_table() -> tuple[np.ndarray, np.ndarray]:
    global _ks_table
    if _ks_table is None:
        xs = np.linspace(0.0, 5.0, _KS_KNOTS)
        cdf = np.maximum.accumulate(ks_cdf(xs))
        _ks_table = (xs, cdf)
    return _ks_table


def _ks_cdf_fast(x: np.ndarray, n_terms: int, buf: dict) -> np.ndarray:
    """CDF via a fixed-length series with preallocated buffers.

    Only used inside the quantile bisection, where every input exceeds the
    bracket floor that fixed ``n_terms`` was computed from.
    """
    q = buf["q"]
    np.multiply(x, x, out=q)
    q *= -2.0
    np.exp(q, out=q)
    q2, e_k, r_k, total = buf["q2"], buf["e"], buf["r"], buf["total"]
    np.multiply(q, q, out=q2)
    np.copyto(e_k, q)
    np.copyto(r_k, q)
    np.copyto(total, q)
    sign = -1.0
    for _ in range(n_terms - 1):
        r_k *= q2
        e_k *= r_k
        if sign > 0:
            total += e_k
        else:
            total -= e_k
        sign = -sign
    out = buf["out"]
    np.multiply(total, -2.0, out=out)
    out += 1.0
    return out


def sample_ks(rng: Rng, size=None):
    """Draw from the Kolmogorov-Smirnov law by inverting the series CDF.

    A 1024-knot monotone table brackets each uniform to one knot interval;
    bisection then resolves the quantile to 1e-10.
    """
    xs, cdf = _ks_inversion_table()
    u = rng.random(size)
    scalar = np.ndim(u) == 0
    u = np.atleast_1d(u)
    hi_idx = np.searchsorted(cdf, u, side="right")
    hi_idx = np.clip(hi_idx, 1, len(xs) - 1)
    lo = xs[hi_idx - 1].copy()
    hi = xs[hi_idx].copy()
    # every midpoint stays inside its own one-knot bracket, so the series
    # length needed for 1e-14 term truncation is fixed by the smallest lo
    x_floor = max(float(lo.min()), 0.12)
    n_terms = min(40, int(np.ceil(4.06 / x_floor)) + 1)
    shape = lo.shape
    buf = {k: np.empty(shape) for k in ("q", "q2", "e", "r", "total", "out")}
    mid = np.empty(shape)
    # knot spacing ~4.9e-3; 26 halvings reach the 1e-10 target with margin
    for _ in range(30):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        below = _ks_cdf_fast(mid, n_terms, buf) <= u
        np.copyto(lo, mid, where=below)
        np.copyto(hi, mid, where=~below)
    out = np.maximum(0.5 * (lo + hi), _TINY)
    return float(out[0]) if scalar else out
