"""Block update of every individual's ability path in one banded draw.

Given everything else, theta_t = g_t theta_{t-1} + a_t + N(0, 1/w_t), with
a_t = c min(lapse_t, horizon), g_t = 1 - rho a_t and w_t = drift_precision /
lapse_t, and each item on day t adds a pseudo-observation z ~ N(theta_t,
1/psi).  So the paths are jointly Gaussian with a tridiagonal precision Q
and linear term b:

    Q[t, t] = w_t + Sum_t psi + g_{t+1}^2 w_{t+1},   Q[t-1, t] = -g_t w_t,
    b[t] = Sum_t psi z + w_t a_t - g_{t+1} w_{t+1} a_{t+1},
    and 1/init_var, init_mean/init_var on day 0.

Drawn in theta, not shifted by the asymptote 1/rho, the paths keep their
digits however small rho is.  Paths of different individuals do not
interact.  ``filter_from_day_sums`` factors Q = U'U (LAPACK dpbtrf) and
solves y = U'^-1 b; ``backward_sample`` returns U^-1 (y + eps) with eps ~
N(0, I), a draw from N(Q^-1 b, Q^-1) (Rue 2001, JRSS-B 63:325; Chan &
Jeliazkov 2009, IJMMNO 1:101).  This is FFBS in matrix form: the
factorisation runs forward over the days like the filter, the back
substitution is the backward pass, and 1/U_kk^2 is the FFBS backward
variance H_k (the filtered variance V_T on the last day).  With the normals
in theta order the draw is the FFBS draw up to rounding.
"""

from __future__ import annotations

import numpy as np

from .distributions import scipy_extension
from .errors import NumericError


def _lapack():
    """scipy's f2py LAPACK module, which ``scipy.linalg.lapack`` re-exports,
    loaded without the ``scipy.linalg`` package import: that import loads a
    dozen extension modules unused here, 6 MiB resident (this costs 1.1 MiB)."""
    return scipy_extension("scipy.linalg", "_flapack")


def _path_error(theta_start: np.ndarray, k: int, what: str) -> NumericError:
    i = int(np.searchsorted(theta_start, k, side="right")) - 1
    return NumericError(f"ability update, individual {i}: {what} at day "
                        f"{k - theta_start[i]}")


def filter_from_day_sums(prec_sum: np.ndarray, weighted_obs_sum: np.ndarray,
                         transition: np.ndarray, increment: np.ndarray,
                         system_precision: np.ndarray, init_mean: np.ndarray,
                         init_var: np.ndarray, theta_start: np.ndarray,
                         day_theta: np.ndarray):
    """Factor Q and solve U'y = b for all paths at once.

    Per test day: Sum(psi), Sum(psi z), g, a, w, and the day's flat path
    index ``day_theta``.  Per individual: the day-0 prior mean and variance,
    and the path offsets ``theta_start`` (n+1,).  Returns U in LAPACK upper
    band storage (superdiagonal, diagonal) and y.
    """
    first = theta_start[:-1]
    band = np.zeros((2, int(theta_start[-1])))
    band[1, first] = 1.0 / init_var
    band[1, day_theta] = system_precision + prec_sum
    band[1, day_theta - 1] += transition * transition * system_precision
    band[0, day_theta] = -transition * system_precision
    lin = np.empty(band.shape[1])
    lin[first] = init_mean / init_var
    with np.errstate(invalid="ignore"):  # inf * 0 is reported below as not finite
        pull = system_precision * increment
        lin[day_theta] = weighted_obs_sum + pull
        lin[day_theta - 1] -= transition * pull
    finite = np.isfinite(band).all(axis=0) & np.isfinite(lin)
    if not finite.all():
        raise _path_error(theta_start, int(np.argmin(finite)),
                          "path precision or pseudo-data not finite")
    chol, info = _lapack().dpbtrf(band, overwrite_ab=1)
    if info > 0:
        raise _path_error(theta_start, info - 1, "path precision not positive definite")
    y, _ = _lapack().dtbtrs(chol, lin, trans="T", overwrite_b=1)
    return chol, y


def backward_sample(rng: np.random.Generator, chol: np.ndarray,
                    y: np.ndarray) -> np.ndarray:
    """Draw all paths theta = U^-1 (y + eps) at once."""
    theta, _ = _lapack().dtbtrs(chol, y + rng.standard_normal(len(y)), overwrite_b=1)
    if not np.all(np.isfinite(theta)):
        raise NumericError("sampled ability path contains non-finite values")
    return theta
