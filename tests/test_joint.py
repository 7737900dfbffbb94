"""The whole sweep against one joint log posterior: score identities.

Given a test's mean m (ability - difficulty + day effect + test effect),
its items are exchangeable: each has an i.i.d. difficulty deviation and
mixture scale, so a test with k of n correct has likelihood Binomial(k; n,
g(m)) with g(m) = E[logistic(m + sigma Z)], Z standard normal.  With that
likelihood the log posterior of every non-augmented unknown (paths,
growth, effects and their precisions, the drift precision) is one closed
form, written here from the model and not from ``dir_sampler``'s code: the
binomial test likelihood, the path prior, the effect priors, and the
objective priors (flat on positive growth, x^(-3/2) on each precision).

Stein's identities then hold under the posterior pi (Gorham & Mackey 2015,
"Measuring sample quality with Stein's method"): E[d log pi / d x] = 0 for
a coordinate x on the real line, and E[x d log pi / d x + 1] = 0 for a
positive one with a flat or power prior; for a day's sum-zero test
effects, the gradient projected onto the day's sum-zero space (its
coordinates less their mean) has mean 0.  A running sweep must satisfy
them for every path coordinate and for each individual's whole path (the
sum of its coordinates' terms, a shift of the path), for every day effect
and test effect, and for growth, the drift precision and both effect
precisions; their means over a chain are
scored against batch means standard errors.  A coordinate drawn exactly
from a conditional of pi
satisfies its identity automatically, so each identity checks that its
update targets the conditional of the pi written here; the path identities
check the augmentation (latent utilities, K-S scales) as a whole, since
the paths are drawn given it while pi integrates it out.
"""

import numpy as np

from dir_sampler.distributions import make_rng
from dir_sampler.gibbs import SweepWorkspace, gibbs_sweep
from dir_sampler.model import initial_state
from dir_sampler.simgen import SimConfig, simulate_dataset

from conftest import batch_means_se, sim_constants

# 3 individuals x 10 days x 3 tests x 5 items; lapses of 1-20 days, so
# some exceed the 14-day growth horizon
N_IND, N_DAYS, N_TESTS, N_ITEMS = 3, 10, 3, 5
BATCHES = 40
Z_BOUND = 4.5
GH_X, GH_W = np.polynomial.hermite.hermgauss(32)


def design(seed):
    """The simulated study: paper-like truth values on the small design."""
    lapses = np.random.default_rng([seed, 1]).integers(1, 21, (N_IND, N_DAYS))
    return SimConfig(n_individuals=N_IND, days=N_DAYS, tests_per_day=N_TESTS,
                     items_per_test=N_ITEMS, growth=(0.004, 0.006, 0.0025),
                     day_effect_precision=(2.0, 1.3, 1.8), test_effect_precision=(4.0, 3.1, 4.3),
                     drift_precision=0.0218 ** -2, sigma=0.7333, rho=0.118, delta_tmax=14.0,
                     lapse_table=lapses.astype(float), seed=seed)


def logistic(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def binomial_slope(m, k, sigma):
    """d/dm of log g(m)^k (1 - g(m))^(n - k), by 32-node Gauss-Hermite:
    g = E[logistic(m + sigma Z)], 1 - g = E[logistic(-m - sigma Z)] (not a
    difference, which cancels at extreme m) and g' = E[logistic'(m + sigma Z)].
    The quadrature's 1/sqrt(pi) cancels in g'/g and g'/(1 - g)."""
    x = m[..., None] + sigma * np.sqrt(2.0) * GH_X
    p, q = logistic(x), logistic(-x)
    return (p * q) @ GH_W * (k / (p @ GH_W) - (N_ITEMS - k) / (q @ GH_W))


def identity_terms(cfg, data, state):
    """Per unknown, the term whose posterior mean is 0: d log pi / d theta
    for every path coordinate (individual by individual, days 0..T) and
    their sum per individual, d log pi / d delta for every day effect, the
    projected d log pi / d eta for every test effect, then x d log pi / d x
    + 1 for each growth rate, day-effect precision and test-effect
    precision, and the drift precision."""
    theta = state.theta.reshape(N_IND, N_DAYS + 1)
    growth = state.growth[:, None]
    lapse = data.lapse.reshape(N_IND, N_DAYS)
    horizon = np.minimum(lapse, cfg.delta_tmax)
    day = state.day_effect.reshape(N_IND, N_DAYS)
    test = state.test_effect.reshape(N_IND, N_DAYS, N_TESTS)
    correct = data.response.reshape(N_IND, N_DAYS, N_TESTS, N_ITEMS).sum(axis=3)

    # path prior: theta_0 ~ N(mu, v); theta_t | theta_t-1 ~ N(theta_t-1
    # + c min(lapse, horizon) (1 - rho theta_t-1), lapse / phi)
    w = state.drift_precision / lapse
    step = horizon * (1.0 - cfg.rho * theta[:, :-1])  # d mean_t / d c
    resid = theta[:, 1:] - theta[:, :-1] - growth * step
    d_theta = np.zeros_like(theta)
    d_theta[:, 0] = -(theta[:, 0] - cfg.init_mean) / cfg.init_var
    d_theta[:, 1:] -= w * resid
    d_theta[:, :-1] += w * resid * (1.0 - cfg.rho * growth * horizon)
    mean = (theta[:, 1:, None] - data.difficulty.reshape(test.shape) + day[..., None] + test)
    slope = binomial_slope(mean, correct, cfg.sigma)  # d log likelihood / d test mean
    day_slope = slope.sum(axis=2)
    d_theta[:, 1:] += day_slope

    # day effects ~ N(0, 1/tau_delta); a day's test effects ~ N(0, 1/tau_eta)
    # on its sum-zero space, so their gradient is projected onto that space
    d_day = day_slope - state.day_effect_precision[:, None] * day
    d_test = slope - state.test_effect_precision[:, None, None] * test
    d_test -= d_test.mean(axis=2, keepdims=True)

    # flat prior on growth; x^(-3/2) on each precision; the sum-zero test
    # effects of a day have S - 1 free coordinates
    growth_term = growth[:, 0] * np.sum(w * resid * step, axis=1) + 1.0
    day_term = (N_DAYS / 2.0 - 0.5
                - state.day_effect_precision * np.sum(day ** 2, axis=1) / 2.0)
    test_term = (N_DAYS * (N_TESTS - 1) / 2.0 - 0.5
                 - state.test_effect_precision * np.sum(test ** 2, axis=(1, 2)) / 2.0)
    drift_term = (N_IND * N_DAYS / 2.0 - 0.5
                  - state.drift_precision * np.sum(resid ** 2 / lapse) / 2.0)
    return np.concatenate([d_theta.ravel(), d_theta.sum(axis=1), d_day.ravel(), d_test.ravel(),
                           growth_term, day_term, test_term, [drift_term]])


def identity_z_scores(seed, n_kept=8_000, burn_in=500):
    """z-scores of the identity terms' means over ``n_kept`` whole sweeps
    after ``burn_in``, whose standard errors are batch means over 40
    batches; the chain starts at the simulated truth."""
    cfg = design(seed)
    data, truth = simulate_dataset(cfg)
    work = SweepWorkspace(data, sim_constants(cfg))
    state = initial_state(data)
    state.theta[:] = truth.theta
    state.growth[:] = truth.growth
    state.day_effect[:] = truth.day_effect
    state.test_effect[:] = truth.test_effect
    state.day_effect_precision[:] = truth.day_effect_precision
    state.test_effect_precision[:] = truth.test_effect_precision
    state.drift_precision = truth.drift_precision
    rng = make_rng(seed, 2)
    terms = []
    for sweep in range(burn_in + n_kept):
        gibbs_sweep(rng, state, work)
        if sweep >= burn_in:
            terms.append(identity_terms(cfg, data, state))
    terms = np.array(terms)
    return terms.mean(axis=0) / [batch_means_se(column, BATCHES) for column in terms.T]


def test_sweep_satisfies_the_score_identities_of_the_joint_posterior():
    """All 166 identities within 4.5 standard errors over 8,000 sweeps.  On
    data seeds 1-20 the largest |z| was 2.2-3.6.  On this seed a day-effect
    update without tau_delta in its precision moves a day-effect term to |z|
    6.3 (4.4-8.6 on seeds 1-20, under the bound on seeds 3, 9 and 13), a psi
    of 1/(sigma^2 + 3 nu^2) in place of 4 nu^2 moves a path sum to 8.9, a
    growth update with the untruncated lapse moves a growth term to 26, and a
    test-effect update with half of tau_eta in its precision moves a
    test-effect term to 29."""
    z = identity_z_scores(1)
    assert np.abs(z).max() <= Z_BOUND, np.round(z, 1).tolist()
