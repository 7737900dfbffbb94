"""Rank-normalised split-chain bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter & Bürkner (2021), "Rank-
normalization, folding, and localization: an improved R-hat for assessing
convergence of MCMC", Bayesian Analysis 16:667: split every chain in half,
replace the pooled draws by normal scores of their ranks, and estimate the
integrated autocorrelation time with Geyer's initial monotone sequence.
This is the benchmark's own implementation, independent of the sampler.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row of ``x`` at every lag, by FFT."""
    n = x.shape[-1]
    centred = x - x.mean(axis=-1, keepdims=True)
    m = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, n=m, axis=-1)
    return np.fft.irfft(spectrum * np.conj(spectrum), n=m, axis=-1)[..., :n] / n


def _geyer_ess(chains: np.ndarray) -> float:
    """ESS of (chains, draws) from the multi-chain autocorrelation estimate
    with Geyer's initial positive and initial monotone sequences."""
    n_chain, n = chains.shape
    acov = _autocov(chains)
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if n_chain > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus <= 0.0:
        return float(n_chain * n)
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # initial positive sequence: sum pairs (rho[2k], rho[2k+1]) while positive;
    # the first term of the pair that ends it still counts when positive
    kept = [rho[0] + rho[1]]
    tail = 0.0
    t = 2
    while t < n - 2:
        pair = rho[t] + rho[t + 1]
        if pair < 0.0:
            tail = max(rho[t], 0.0)
            break
        kept.append(min(pair, kept[-1]))  # initial monotone sequence
        t += 2
    tau = -1.0 + 2.0 * sum(kept) + tail
    tau = max(tau, 1.0 / np.log10(n_chain * n))
    return float(n_chain * n / tau)


def bulk_ess(draws) -> np.ndarray:
    """Bulk ESS of each quantity in ``draws``, shaped (chains, draws, quantities).

    A (draws,) or (draws, quantities) array is taken as a single chain.
    Returns one ESS per quantity.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[None, :, None]
    elif draws.ndim == 2:
        draws = draws[None]
    n_chain, n, n_quantities = draws.shape
    half = n // 2
    # split chains: first and last halves (the middle draw of an odd length goes)
    split = np.concatenate([draws[:, :half], draws[:, n - half:]], axis=0)
    out = np.empty(n_quantities)
    for q in range(n_quantities):
        x = split[:, :, q]
        if np.ptp(x) == 0.0:
            out[q] = x.size
            continue
        ranks = rankdata(x, method="average").reshape(x.shape)
        z = ndtri((ranks - 0.375) / (x.size + 0.25))
        out[q] = _geyer_ess(z)
    return out
