"""Checks of the benchmark's bulk ESS against series whose ESS is known.

Run with ``python3 -m pytest -q perfbench/test_ess.py``.
"""

import numpy as np
import pytest

from ess import bulk_ess


def _ar1(rng, phi: float, n: int, n_series: int) -> np.ndarray:
    """(n, n_series) stationary AR(1) draws with coefficient ``phi``."""
    x = np.empty((n, n_series))
    x[0] = rng.standard_normal(n_series) / np.sqrt(1.0 - phi * phi)
    noise = rng.standard_normal((n, n_series))
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("phi", [0.5, 0.9])
def test_ar1_matches_known_ess(phi):
    rng = np.random.default_rng(11)
    n = 4000
    ess = bulk_ess(_ar1(rng, phi, n, 40))
    expected = n * (1.0 - phi) / (1.0 + phi)
    assert abs(np.median(ess) / expected - 1.0) < 0.1


def test_iid_draws_have_ess_near_draw_count():
    rng = np.random.default_rng(12)
    n = 2000
    ess = bulk_ess(rng.standard_normal((n, 40)))
    assert abs(np.median(ess) / n - 1.0) < 0.1


def test_chains_are_pooled():
    rng = np.random.default_rng(13)
    draws = rng.standard_normal((4, 500, 30))
    assert abs(np.median(bulk_ess(draws)) / 2000 - 1.0) < 0.1


def test_chains_stuck_apart_have_small_ess():
    rng = np.random.default_rng(14)
    draws = rng.standard_normal((2, 500, 10))
    draws[1] += 10.0  # two chains that never meet
    assert np.all(bulk_ess(draws) < 50)


def test_constant_series_counts_every_draw():
    assert bulk_ess(np.ones((300, 2))).tolist() == [300.0, 300.0]
