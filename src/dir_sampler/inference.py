"""Chain orchestration, posterior summaries, coverage, on-line estimation.

``fit`` runs one seeded chain over the full data; ``fit_online`` refits on
each day's data prefix with the system-noise precision held fixed, the way
real-time estimation must.  Summaries are empirical quantiles of the
thinned post-burn-in draws.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ValidationError
from .gibbs import SweepWorkspace, gibbs_sweep
from .model import (Dataset, LatentState, ModelConstants, SamplerConfig, _fmt, _offsets,
                    initial_state, individual_propriety_failures, validate_dataset)

QUANTILES = (0.025, 0.5, 0.975)


@dataclass(frozen=True)
class QuantitySummary:
    q025: np.ndarray
    median: np.ndarray
    q975: np.ndarray


@dataclass
class ChainOutput:
    """Thinned draws plus (2.5%, 50%, 97.5%) summaries for every unknown
    reported on the scale the study uses: sds, not precisions."""

    theta: np.ndarray           # (draws, sum_i (T_i+1))
    growth: np.ndarray          # (draws, n)
    drift_sd: np.ndarray        # (draws,)
    day_effect_sd: np.ndarray   # (draws, n)
    test_effect_sd: np.ndarray  # (draws, n)
    summaries: dict             # name -> QuantitySummary
    days: np.ndarray
    n_iterations: int
    burn_in: int
    thin: int
    seed: int
    mode: str
    wall_time: float
    ks_accept_rate: float       # accepted share of the mixture-scale proposals

    @property
    def n_draws(self) -> int:
        return self.theta.shape[0]

    def draw_arrays(self) -> dict:
        return {"theta": self.theta, "growth": self.growth, "drift_sd": self.drift_sd,
                "day_effect_sd": self.day_effect_sd, "test_effect_sd": self.test_effect_sd}


def summarize(draws: np.ndarray, quantiles=QUANTILES) -> np.ndarray:
    """Empirical quantiles (linear interpolation between order statistics)
    along the draw axis; shape (len(quantiles),) + draws.shape[1:]."""
    draws = np.asarray(draws)
    if draws.size == 0:
        raise ValueError("cannot summarize an empty draw set")
    return np.quantile(draws, quantiles, axis=0)


def _summaries(draws: dict) -> dict:
    out = {}
    for name, arr in draws.items():
        q = summarize(arr)
        out[name] = QuantitySummary(q025=q[0], median=q[1], q975=q[2])
    return out


def _stream_seed(*key) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(k) for k in key])


def _run_chain(data: Dataset, constants: ModelConstants, config: SamplerConfig,
               init: LatentState | None = None, burn_in: int | None = None,
               seed_seq=None, freeze_effect_precisions: bool = False):
    """Run sweeps and collect thinned draws; returns (ChainOutput, final state)."""
    start = time.perf_counter()
    burn = config.burn_in if burn_in is None else burn_in
    n_draws = (config.n_iterations - burn) // config.thin
    work = SweepWorkspace(data, constants,
                          freeze_effect_precisions=freeze_effect_precisions)
    state = init.copy() if init is not None else initial_state(data)
    if config.mode == "online":
        state.drift_precision = 1.0 / config.fixed_drift_sd ** 2
    if seed_seq is None:
        seed_seq = _stream_seed(config.seed)
    rng = np.random.Generator(np.random.PCG64(seed_seq))

    theta = np.empty((n_draws, len(state.theta)))
    growth = np.empty((n_draws, data.n_individuals))
    drift_sd = np.empty(n_draws)
    day_sd = np.empty((n_draws, data.n_individuals))
    test_sd = np.empty((n_draws, data.n_individuals))
    k = 0
    for sweep in range(1, config.n_iterations + 1):
        gibbs_sweep(rng, state, work, mode=config.mode)
        if sweep > burn and (sweep - burn) % config.thin == 0:
            theta[k] = state.theta
            growth[k] = state.growth
            drift_sd[k] = state.drift_precision ** -0.5
            day_sd[k] = state.day_effect_precision ** -0.5
            test_sd[k] = state.test_effect_precision ** -0.5
            k += 1
    draws = {"theta": theta, "growth": growth, "drift_sd": drift_sd,
             "day_effect_sd": day_sd, "test_effect_sd": test_sd}
    output = ChainOutput(
        **draws, summaries=_summaries(draws), days=data.days.copy(),
        n_iterations=config.n_iterations, burn_in=burn, thin=config.thin, seed=config.seed,
        mode=config.mode, wall_time=time.perf_counter() - start,
        ks_accept_rate=work.ks_accepted / work.ks_proposals)
    return output, state


def fit(data: Dataset, constants: ModelConstants, config: SamplerConfig) -> ChainOutput:
    """Validate, run burn-in plus sampling sweeps, summarize."""
    report = validate_dataset(data)
    if not report.passed:
        raise ValidationError(report)
    output, _ = _run_chain(data, constants, config)
    return output


# ---------------------------------------------------------------------------
# Coverage scoring against simulation truth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageResult:
    per_individual: np.ndarray
    overall: float


def ability_coverage(summary: QuantitySummary, truth_theta: np.ndarray,
                     days: np.ndarray) -> CoverageResult:
    """Fraction of (individual, day) points whose true ability lies in the
    95% interval; day 0 (the prior-anchored initial ability) is not scored."""
    truth_theta = np.asarray(truth_theta, dtype=float)
    if len(summary.median) != len(truth_theta) or len(truth_theta) != int(np.sum(days + 1)):
        raise ValueError("summary and truth are not index-aligned")
    starts = _offsets(np.asarray(days) + 1)[:-1]
    hit = (summary.q025 <= truth_theta) & (truth_theta <= summary.q975)
    hit[starts] = False
    hits = np.add.reduceat(hit, starts, dtype=np.int64)
    return CoverageResult(per_individual=hits / days,
                          overall=float(hits.sum() / np.sum(days)))


def parameter_coverage(summaries: dict, truth) -> float:
    """Joint 95%-interval coverage over every growth rate, both random-effect
    sds, and the drift sd (one value per quantity, pooled)."""
    checks = []
    pairs = (("growth", truth.growth),
             ("test_effect_sd", truth.test_effect_precision ** -0.5),
             ("day_effect_sd", truth.day_effect_precision ** -0.5),
             ("drift_sd", np.atleast_1d(truth.drift_precision ** -0.5)))
    for name, true_vals in pairs:
        s = summaries[name]
        lo, hi = np.atleast_1d(s.q025), np.atleast_1d(s.q975)
        if len(lo) != len(true_vals):
            raise ValueError(f"{name}: summary and truth are not index-aligned")
        checks.extend(((lo <= true_vals) & (true_vals <= hi)).tolist())
    return float(np.mean(checks))


# ---------------------------------------------------------------------------
# On-line (prefix-data) estimation
# ---------------------------------------------------------------------------

@dataclass
class OnlineTrajectory:
    """Endpoint ability estimates per day, each using only data up to that
    day.  ``flagged[t]`` marks days fitted before the propriety conditions
    were met (effect precisions frozen at 1)."""

    individual: int
    median: np.ndarray
    q025: np.ndarray
    q975: np.ndarray
    flagged: np.ndarray


def _warm_start(prev: LatentState, sub: Dataset) -> LatentState:
    """Extend the previous prefix's final state by one day, new-day latents
    at their sweep-start defaults."""
    state = initial_state(sub)
    n_theta_prev = len(prev.theta)
    state.theta[:n_theta_prev] = prev.theta
    state.theta[n_theta_prev:] = prev.theta[-1]
    state.growth[:] = prev.growth
    state.drift_precision = prev.drift_precision
    state.day_effect[:sub.n_days - 1] = prev.day_effect
    state.day_effect_precision[:] = prev.day_effect_precision
    n_tests_prev = len(prev.test_effect)
    state.test_effect[:n_tests_prev] = prev.test_effect
    state.test_effect_precision[:] = prev.test_effect_precision
    n_items_prev = len(prev.latent_utility)
    state.latent_utility[:n_items_prev] = prev.latent_utility
    state.ks_scale[:n_items_prev] = prev.ks_scale
    return state


def fit_online(data: Dataset, constants: ModelConstants,
               config: SamplerConfig) -> list:
    """Per-day prefix refits with the drift sd fixed (it cannot be learned
    on-line).  Each refit warm-starts from the previous prefix's final state
    with burn-in cut to 20%, so estimates for day t are bit-identical
    whether or not later days exist."""
    if config.fixed_drift_sd is None:
        raise ConfigError("on-line estimation requires fixed_drift_sd")
    cfg = config if config.mode == "online" else SamplerConfig(
        n_iterations=config.n_iterations, burn_in=config.burn_in, thin=config.thin,
        seed=config.seed, mode="online", fixed_drift_sd=config.fixed_drift_sd)

    warm_burn = math.ceil(0.2 * cfg.burn_in)
    warm_burn += (cfg.n_iterations - warm_burn) % cfg.thin  # keep draws whole

    trajectories = []
    for i in range(data.n_individuals):
        t_total = int(data.days[i])
        med = np.empty(t_total)
        lo = np.empty(t_total)
        hi = np.empty(t_total)
        flagged = np.zeros(t_total, dtype=bool)
        prev_state = None
        for t in range(1, t_total + 1):
            sub = data.individual_prefix(i, t)
            frozen = bool(individual_propriety_failures(sub, 0))
            init = _warm_start(prev_state, sub) if prev_state is not None else None
            burn = cfg.burn_in if prev_state is None else warm_burn
            output, prev_state = _run_chain(
                sub, constants, cfg, init=init, burn_in=burn,
                seed_seq=_stream_seed(cfg.seed, i, t),
                freeze_effect_precisions=frozen)
            endpoint = output.summaries["theta"]
            med[t - 1] = endpoint.median[t]
            lo[t - 1] = endpoint.q025[t]
            hi[t - 1] = endpoint.q975[t]
            flagged[t - 1] = frozen
        trajectories.append(OnlineTrajectory(individual=i, median=med, q025=lo,
                                             q975=hi, flagged=flagged))
    return trajectories


# ---------------------------------------------------------------------------
# Raw-score ability estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RawScoreEstimate:
    ability: float
    saturated: bool


def raw_score_estimate(difficulties, items_per_test, n_correct: int) -> RawScoreEstimate:
    """Ability whose expected score on the day's tests equals the observed
    score; all-correct / all-incorrect days clamp 6 logits beyond the
    difficulty range and are flagged."""
    difficulties = np.asarray(difficulties, dtype=float)
    counts = np.asarray(items_per_test, dtype=float)
    if difficulties.shape != counts.shape or difficulties.size == 0:
        raise ValueError("need one difficulty per test and at least one test")
    total = float(np.sum(counts))
    if not (0 <= n_correct <= total):
        raise ValueError("n_correct out of range")
    if n_correct == 0:
        return RawScoreEstimate(float(difficulties.min() - 6.0), True)
    if n_correct == total:
        return RawScoreEstimate(float(difficulties.max() + 6.0), True)

    def expected(theta: float) -> float:
        return float(np.sum(counts / (1.0 + np.exp(-(theta - difficulties)))))

    lo = float(difficulties.min() - 6.0)
    hi = float(difficulties.max() + 6.0)
    while expected(lo) >= n_correct:
        lo -= 6.0
    while expected(hi) <= n_correct:
        hi += 6.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if expected(mid) < n_correct:
            lo = mid
        else:
            hi = mid
    return RawScoreEstimate(0.5 * (lo + hi), False)


# ---------------------------------------------------------------------------
# CSV interfaces (1-based individuals in files; theta day 0 = initial ability)
# ---------------------------------------------------------------------------

TRACES_FILE = "traces.csv"
SUMMARY_FILE = "summary.csv"
ONLINE_FILE = "online.csv"


def _quantity_rows(days: np.ndarray):
    """Yield (quantity, individual-or-None, day-or-None, column) per scalar."""
    theta_start = _offsets(np.asarray(days) + 1)
    n = len(days)
    for i in range(n):
        lo, hi = theta_start[i], theta_start[i + 1]
        for t, col in enumerate(range(lo, hi)):
            yield "theta", i, t, col
    for name in ("growth", "day_effect_sd", "test_effect_sd"):
        for i in range(n):
            yield name, i, None, i
    yield "drift_sd", None, None, 0


def write_traces_csv(output: ChainOutput, path) -> None:

    iterations = output.burn_in + output.thin * np.arange(1, output.n_draws + 1)
    draws = output.draw_arrays()
    draws = {k: np.atleast_2d(v.T).T for k, v in draws.items()}
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["quantity", "individual", "day", "iteration", "value"])
        for name, i, t, col in _quantity_rows(output.days):
            series = draws[name][:, col]
            ind = "" if i is None else i + 1
            day = "" if t is None else t
            for it, val in zip(iterations, series):
                w.writerow([name, ind, day, int(it), _fmt(val)])


def write_summary_csv(summaries: dict, days: np.ndarray, path) -> None:
    """One row of (2.5%, 50%, 97.5%) quantiles per scalar, for individuals
    with ``days`` test days each."""
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["quantity", "individual", "day", "q025", "median", "q975"])
        for name, i, t, col in _quantity_rows(days):
            s = summaries[name]
            row = ["" if i is None else i + 1, "" if t is None else t]
            w.writerow([name] + row + [_fmt(np.atleast_1d(s.q025)[col]),
                                       _fmt(np.atleast_1d(s.median)[col]),
                                       _fmt(np.atleast_1d(s.q975)[col])])


def write_online_csv(trajectories, path) -> None:

    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["individual", "day", "q025", "median", "q975", "flagged"])
        for traj in trajectories:
            for t in range(len(traj.median)):
                w.writerow([traj.individual + 1, t + 1, _fmt(traj.q025[t]),
                            _fmt(traj.median[t]), _fmt(traj.q975[t]),
                            int(traj.flagged[t])])


def read_traces_csv(path):
    """Read a trace file back into draw arrays.

    Returns (draws dict, theta_start, days); draw order follows the stored
    iteration numbers.  A malformed header, row or series raises
    ``DataError`` naming the file, and the line for a row.
    """
    header = ["quantity", "individual", "day", "iteration", "value"]
    series: dict = {}
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise DataError(f"{path}: expected header {','.join(header)}")
        for row in reader:
            try:
                quantity, ind, day, it, val = row
                key = (quantity, int(ind) - 1 if ind else None, int(day) if day else None)
                series.setdefault(key, []).append((int(it), float(val)))
            except ValueError as exc:
                raise DataError(f"{path} line {reader.line_num}: {exc}") from None

    theta_keys = [(i, t) for quantity, i, t in series if quantity == "theta"]
    if not theta_keys or any(None in key or min(key) < 0 for key in theta_keys):
        raise DataError(f"{path}: theta rows need an individual >= 1 and a day >= 0")
    days = np.zeros(max(i for i, _ in theta_keys) + 1, dtype=np.int64)
    for i, t in theta_keys:
        days[i] = max(days[i], t)
    starts = _offsets(days + 1)
    n_draws = len(series[("theta", *theta_keys[0])])

    def column(quantity, i=None, t=None):
        rows = sorted(series.get((quantity, i, t), ()))
        if len(rows) != n_draws:
            who = "" if i is None else f" individual {i + 1}"
            when = "" if t is None else f" day {t}"
            raise DataError(f"{path}: {len(rows)} draws of {quantity}{who}{when}, "
                            f"expected {n_draws}")
        return np.array([v for _, v in rows])

    theta = np.empty((n_draws, int(starts[-1])))
    for i in range(len(days)):
        for t in range(days[i] + 1):
            theta[:, starts[i] + t] = column("theta", i, t)
    per_indiv = {name: np.column_stack([column(name, i) for i in range(len(days))])
                 for name in ("growth", "day_effect_sd", "test_effect_sd")}
    draws = {"theta": theta, **per_indiv, "drift_sd": column("drift_sd")}
    return draws, starts, days
