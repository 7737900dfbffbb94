"""Random-variate generators and densities used by the Gibbs sweep.

Everything here is deterministic given the generator state: one seeded
``numpy.random.Generator`` (PCG64) per chain, consumed in a fixed call
order.  The truncated-normal and Kolmogorov-Smirnov samplers are written
against uniforms from that generator so draw sequences are reproducible
across platforms.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc, erfcinv, kolmogi

from .errors import NumericError

Rng = np.random.Generator

# Standardized truncation point beyond which the one-sided sampler switches
# from inverse-CDF to exponential rejection.
_TAIL_SWITCH = 4.0
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


def sample_ks(rng: Rng, size=None):
    """Draw from the Kolmogorov-Smirnov law by inversion.

    ``kolmogi`` is the compiled inverse of the K-S survival function, so a
    uniform u maps to kolmogi(1 - u); 1 - u is exact because the generator
    returns multiples of 2^-53.
    """
    out = np.maximum(kolmogi(1.0 - rng.random(size)), _TINY)
    return float(out) if np.ndim(out) == 0 else out
