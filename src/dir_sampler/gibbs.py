"""The full-conditional updates and the sweep that composes them.

One sweep updates, in order: latent utilities, ability paths, growth
rates, test effects, test-effect precisions, daily effects, daily-effect
precisions, the system-noise precision (retrospective mode only), and the
per-item mixture scales.  Every update conditions on the current values of
everything else, so the sweep leaves the joint posterior invariant.

No update loops over individuals or days in Python.  The ability paths of
all individuals are drawn together: their joint conditional has a
tridiagonal precision, which one banded Cholesky factorisation and two
triangular solves sample exactly (forward filtering, backward sampling in
matrix form; see ``ffbs``).  The sum-zero test effects of all days are
drawn together by conditioning independent normals on each day's sum
(see ``update_test_effects``).

The logistic link is written as a Kolmogorov-Smirnov scale mixture of
normals (Holmes & Held 2006, Bayesian Analysis 1:145), so every item has a
latent utility and a mixture scale, and their two updates are most of a
sweep.  Each is one pass over all items on item-sized buffers that the
workspace allocates once: the latent utilities fold every mean onto the
positive side with the response's sign and take one inversion draw, and
the mixture-scale step computes each proposal's observation precision once
and stores the accepted ones in place.

All conditionals are derived under the objective priors: flat on positive
growth, and x^(-3/2) on each precision, which adds -1/2 to the gamma shape
and nothing to the rate.
"""

from __future__ import annotations

import time

import numpy as np

from . import ffbs
from .distributions import Rng, sample_gamma, sample_ks, sample_truncated_normal
from .errors import ConfigError, NumericError
from .model import Dataset, LatentState, ModelConstants, theta_offsets


class SweepWorkspace:
    """Precomputed index tables and scratch buffers for one dataset.

    Holds everything the updates need to run as flat array operations:
    gather indices between the item/test/day/individual levels, reduceat
    boundaries, the truncated lapses and per-individual prior parameters.
    ``frozen`` marks the individuals whose effect precisions are held at
    their current values (none by default).

    ``psi`` is each item's observation precision 1/(sigma^2 + 4 nu^2).
    ``mean``, ``var``, ``sign``, ``psi_new`` and ``log_ratio`` are item-sized
    scratch that ``item_mean``, ``weighted_residual``,
    ``update_latent_utilities`` and ``update_ks_scales`` overwrite on every
    call; the only item-sized temporaries left in the latent-utility and
    mixture-scale updates are those of ``sample_truncated_normal`` (its
    scratch array and ``normal_isf``'s) and of ``sample_ks``.  Also
    sums each update's wall seconds (``update_s``, by the update's name in
    ``gibbs_sweep``) and counts the mixture-scale proposals and acceptances
    and the guard redraws for the run report.
    """

    def __init__(self, data: Dataset, constants: ModelConstants,
                 frozen: np.ndarray | None = None):
        self.data = data
        self.constants = constants
        n, n_days, n_tests = data.n_individuals, data.n_days, data.n_tests
        self.free = np.ones(n, dtype=bool) if frozen is None else ~np.asarray(frozen, bool)

        self.day_individual = np.repeat(np.arange(n), data.days)
        self.test_day = np.repeat(np.arange(n_days), data.tests_per_day)
        self.test_individual = self.day_individual[self.test_day]
        self.item_test = np.repeat(np.arange(n_tests), data.items_per_test)

        self.theta_start = theta_offsets(data)
        day_within = np.arange(n_days) - data.day_start[self.day_individual]
        self.day_theta = self.theta_start[self.day_individual] + day_within + 1
        self.day_theta_prev = self.day_theta - 1
        self.test_theta = self.day_theta[self.test_day]

        # reduceat starts: first item of each day, first test of each individual
        self.day_item_start = data.item_start[data.test_start[:-1]]
        self.indiv_test_start = data.test_start[data.day_start]

        self.lapse_trunc = np.minimum(data.lapse, constants.delta_tmax)
        self.inv_lapse = 1.0 / data.lapse

        priors = [constants.prior_for(g) for g in data.group]
        self.init_mean = np.array([p[0] for p in priors], dtype=float)
        self.init_var = np.array([p[1] for p in priors], dtype=float)

        self.tests_per_individual = np.add.reduceat(data.tests_per_day, data.day_start[:-1])
        self.psi = np.empty(data.n_items)
        self.mean, self.var, self.sign, self.psi_new, self.log_ratio = (
            np.empty(data.n_items) for _ in range(5))
        self.update_s = {}  # update name -> wall seconds, summed over sweeps
        self.ks_proposals = 0
        self.ks_accepted = 0
        self.guard_redraws = 0

    def obs_precision(self, scale: np.ndarray, out: np.ndarray) -> np.ndarray:
        """1/(4 nu^2 + sigma^2) for the mixture scales ``scale``, into ``out``."""
        np.multiply(scale, scale, out=out)
        out *= 4.0
        out += self.constants.sigma ** 2
        return np.reciprocal(out, out=out)

    def refresh_obs_precision(self, state: LatentState) -> None:
        """psi for the current mixture scales."""
        self.obs_precision(state.ks_scale, self.psi)

    def item_mean(self, state: LatentState) -> np.ndarray:
        """Per-item latent-utility mean, theta - a + day effect + test effect,
        written to the ``mean`` buffer.  Every term is constant within a
        test, so the sum is formed per test and gathered once."""
        per_test = state.theta[self.test_theta] - self.data.difficulty
        per_test += state.day_effect[self.test_day]
        per_test += state.test_effect
        return np.take(per_test, self.item_test, out=self.mean, mode="clip")

    def weighted_residual(self, state: LatentState, per_test: np.ndarray) -> np.ndarray:
        """psi (u + c) per item, for the latent utility u and a per-test
        offset c gathered once, written to the ``mean`` buffer."""
        resid = np.take(per_test, self.item_test, out=self.mean, mode="clip")
        resid += state.latent_utility
        resid *= self.psi
        return resid


def update_latent_utilities(rng: Rng, state: LatentState, work: SweepWorkspace) -> None:
    """Truncated-normal draw of each item's latent utility, sign-matched to
    the observed response, in one pass over all items.

    With s = 2y - 1, the utility is s times a draw from N(s m, 1/psi)
    restricted to (0, inf): folding each mean onto the positive side makes
    every item the same one-sided draw, which takes one uniform per item in
    item order.  s is derived from ``data.response`` on every call, so a
    caller that rewrites the responses in place is followed.
    """
    sign = np.multiply(work.data.response, 2.0, out=work.sign)
    sign -= 1.0
    loc = work.item_mean(state)
    loc *= sign
    var = np.reciprocal(work.psi, out=work.var)
    sample_truncated_normal(rng, loc, var, out=state.latent_utility)
    state.latent_utility *= sign


def update_abilities(rng: Rng, state: LatentState, work: SweepWorkspace) -> None:
    """Draw every individual's ability path at once from its joint Gaussian
    conditional: one banded Cholesky factorisation of the tridiagonal path
    precision and two triangular solves (see ``ffbs``)."""
    rho = work.constants.rho
    per_test = work.data.difficulty - state.day_effect[work.test_day]
    per_test -= state.test_effect
    per_test -= 1.0 / rho
    prec_sum = np.add.reduceat(work.psi, work.day_item_start)
    weighted = np.add.reduceat(work.weighted_residual(state, per_test), work.day_item_start)
    transition = 1.0 - state.growth[work.day_individual] * rho * work.lapse_trunc
    chol, y = ffbs.filter_from_day_sums(
        prec_sum, weighted, transition, state.drift_precision * work.inv_lapse,
        work.init_mean - 1.0 / rho, work.init_var, work.theta_start, work.day_theta)
    state.theta[:] = ffbs.backward_sample(rng, chol, y) + 1.0 / rho


def _growth_moments(state: LatentState, work: SweepWorkspace):
    """Per-individual sufficient statistics of the growth conditional."""
    theta_prev = state.theta[work.day_theta_prev]
    diff = state.theta[work.day_theta] - theta_prev
    u = 1.0 - work.constants.rho * theta_prev
    x = work.lapse_trunc * u
    starts = work.data.day_start[:-1]
    num = np.add.reduceat(x * diff * work.inv_lapse, starts)
    den = np.add.reduceat(x * x * work.inv_lapse, starts)
    return num, den


def update_growth(rng: Rng, state: LatentState, work: SweepWorkspace) -> None:
    """Positive-truncated-normal draw of each individual's growth rate."""
    num, den = _growth_moments(state, work)
    precision = state.drift_precision * den
    if np.any(~np.isfinite(precision)) or np.any(precision <= 0.0):
        bad = int(np.flatnonzero(~(precision > 0.0) | ~np.isfinite(precision))[0])
        raise NumericError(f"growth update, individual {bad}: degenerate precision "
                           f"(all 1 - rho*theta terms may be zero)")
    mean = state.drift_precision * num / precision
    state.growth[:] = sample_truncated_normal(rng, mean, 1.0 / precision)


def update_test_effects(rng: Rng, state: LatentState, work: SweepWorkspace) -> None:
    """Exact draw of every day's sum-zero test effects in one pass.

    Without the constraint the effects are independent, each N(v Sum(psi r),
    v) with v = 1/(Sum(psi) + tau) over its items.  Conditioning them on the
    day's sum being zero is kriging: shift each draw x by v Sum_day(x) /
    Sum_day(v) (Rue & Held 2005, Gaussian Markov Random Fields, sec. 2.3.3).
    The last effect of each day then closes the sum exactly, so a single-test
    day's effect is 0 and a two-test day's pair is (eta, -eta).
    """
    data = work.data
    per_test = data.difficulty - state.theta[work.test_theta]
    per_test -= state.day_effect[work.test_day]
    days = data.test_start[:-1]
    var = 1.0 / (np.add.reduceat(work.psi, data.item_start[:-1])
                 + state.test_effect_precision[work.test_individual])
    x = (var * np.add.reduceat(work.weighted_residual(state, per_test), data.item_start[:-1])
         + np.sqrt(var) * rng.standard_normal(data.n_tests))
    eta = state.test_effect
    eta[:] = x - var * (np.add.reduceat(x, days) / np.add.reduceat(var, days))[work.test_day]
    last = data.test_start[1:] - 1
    eta[last] = 0.0
    eta[last] = -np.add.reduceat(eta, days)


def _guarded_gamma(rng: Rng, work: SweepWorkspace, shape, rate_fn, redraw, what: str):
    """Gamma draw with the degenerate-rate guard: a zero rate triggers one
    (counted) redraw of the offending latent block, then a hard error."""
    rate = rate_fn()
    if np.any(rate == 0.0):
        work.guard_redraws += 1
        redraw()
        rate = rate_fn()
        if np.any(rate == 0.0):
            raise NumericError(f"{what}: gamma rate degenerate after block redraw")
    return sample_gamma(rng, shape, rate)


def update_test_effect_precision(rng: Rng, state: LatentState,
                                 work: SweepWorkspace) -> None:
    """Gamma draw of each free individual's test-effect precision."""
    free = work.free
    shape = (work.tests_per_individual - work.data.days) / 2.0 - 0.5
    bad = np.flatnonzero(free & (shape <= 0.0))
    if bad.size:
        raise ConfigError(f"test-effect precision shape nonpositive for individual {bad[0]}; "
                          "dataset should have been rejected by the validation gate")

    def rate():
        per = np.add.reduceat(state.test_effect ** 2, work.indiv_test_start[:-1])
        return per[free] / 2.0

    state.test_effect_precision[free] = _guarded_gamma(
        rng, work, shape[free], rate, lambda: update_test_effects(rng, state, work),
        "test-effect precision")


def update_day_effects(rng: Rng, state: LatentState, work: SweepWorkspace) -> None:
    """Normal draw of each (individual, day) random effect."""
    per_test = work.data.difficulty - state.theta[work.test_theta]
    per_test -= state.test_effect
    num = np.add.reduceat(work.weighted_residual(state, per_test), work.day_item_start)
    prec = (np.add.reduceat(work.psi, work.day_item_start)
            + state.day_effect_precision[work.day_individual])
    noise = rng.standard_normal(work.data.n_days)
    state.day_effect[:] = num / prec + noise / np.sqrt(prec)


def update_day_effect_precision(rng: Rng, state: LatentState, work: SweepWorkspace) -> None:
    """Gamma draw of each free individual's day-effect precision."""
    free = work.free
    shape = work.data.days / 2.0 - 0.5
    bad = np.flatnonzero(free & (shape <= 0.0))
    if bad.size:
        raise ConfigError(f"day-effect precision shape nonpositive for individual {bad[0]}; "
                          "dataset should have been rejected by the validation gate")

    def rate():
        per = np.add.reduceat(state.day_effect ** 2, work.data.day_start[:-1])
        return per[free] / 2.0

    state.day_effect_precision[free] = _guarded_gamma(
        rng, work, shape[free], rate, lambda: update_day_effects(rng, state, work),
        "day-effect precision")


def update_drift_precision(rng: Rng, state: LatentState, work: SweepWorkspace,
                           mode: str = "retrospective") -> None:
    """Gamma draw of the shared system-noise precision; held fixed on-line."""
    if mode == "online":
        return
    data = work.data
    shape = np.sum(data.days) / 2.0 - 0.5
    if shape <= 0.0:
        raise ConfigError("drift precision shape nonpositive; dataset should have "
                          "been rejected by the validation gate")

    def rate():
        theta_prev = state.theta[work.day_theta_prev]
        resid = (state.theta[work.day_theta] - theta_prev
                 - state.growth[work.day_individual]
                 * (1.0 - work.constants.rho * theta_prev) * work.lapse_trunc)
        return float(np.sum(resid * resid * work.inv_lapse)) / 2.0

    state.drift_precision = float(_guarded_gamma(
        rng, work, shape, rate, lambda: update_abilities(rng, state, work), "drift precision"))


def update_ks_scales(rng: Rng, state: LatentState, work: SweepWorkspace) -> None:
    """One Metropolis-Hastings proposal per item for the mixture scales,
    proposing from the Kolmogorov-Smirnov law itself.

    With psi = 1/(sigma^2 + 4 nu^2) and residual e, the log ratio is
    (log(psi'/psi) - e^2 (psi' - psi)) / 2.  The proposal's psi' is computed
    once, and the accepted scales and their psi' are stored in place.
    """
    resid_sq = work.item_mean(state)
    np.subtract(state.latent_utility, resid_sq, out=resid_sq)
    resid_sq *= resid_sq
    proposal = sample_ks(rng, work.data.n_items)
    psi_new = work.obs_precision(proposal, work.psi_new)
    log_ratio = np.subtract(psi_new, work.psi, out=work.log_ratio)
    resid_sq *= log_ratio
    np.divide(psi_new, work.psi, out=log_ratio)
    np.log(log_ratio, out=log_ratio)
    log_ratio -= resid_sq
    log_ratio *= 0.5
    np.minimum(log_ratio, 0.0, out=log_ratio)
    accept_prob = np.exp(log_ratio, out=log_ratio)
    accept = rng.random(out=resid_sq) < accept_prob
    np.putmask(state.ks_scale, accept, proposal)
    np.putmask(work.psi, accept, psi_new)
    work.ks_proposals += accept.size
    work.ks_accepted += int(np.count_nonzero(accept))


def _step(name: str, update, rng: Rng, state: LatentState, work: SweepWorkspace,
          *extra) -> None:
    """Run one update, adding its wall seconds to ``work.update_s[name]`` and
    reporting a numeric failure with the update's name."""
    start = time.perf_counter()
    try:
        update(rng, state, work, *extra)
    except ConfigError:
        raise
    except (NumericError, ValueError, FloatingPointError) as exc:
        raise NumericError(f"sweep aborted in {name} update: {exc}") from exc
    finally:
        work.update_s[name] = work.update_s.get(name, 0.0) + time.perf_counter() - start


def gibbs_sweep(rng: Rng, state: LatentState, work: SweepWorkspace,
                mode: str = "retrospective") -> LatentState:
    """Apply all nine updates in order, mutating and returning ``state``."""
    work.refresh_obs_precision(state)
    _step("latent utilities", update_latent_utilities, rng, state, work)
    _step("abilities", update_abilities, rng, state, work)
    _step("growth", update_growth, rng, state, work)
    _step("test effects", update_test_effects, rng, state, work)
    _step("test-effect precision", update_test_effect_precision, rng, state, work)
    _step("day effects", update_day_effects, rng, state, work)
    _step("day-effect precision", update_day_effect_precision, rng, state, work)
    _step("drift precision", update_drift_precision, rng, state, work, mode)
    _step("mixture scales", update_ks_scales, rng, state, work)
    return state
