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
                    initial_state, individual_propriety_failures, read_keyed_csv,
                    validate_dataset, write_keyed_csv)

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
    wall_time: float
    ks_accept_rate: float       # accepted share of the mixture-scale proposals

    @property
    def n_draws(self) -> int:
        return self.theta.shape[0]

    def draw_arrays(self) -> dict:
        return {"theta": self.theta, "growth": self.growth, "drift_sd": self.drift_sd,
                "day_effect_sd": self.day_effect_sd, "test_effect_sd": self.test_effect_sd}


def summarize(draws: np.ndarray) -> np.ndarray:
    """Empirical (2.5%, 50%, 97.5%) quantiles (linear interpolation between
    order statistics) along the draw axis; shape (3,) + draws.shape[1:]."""
    draws = np.asarray(draws)
    if draws.size == 0:
        raise ValueError("cannot summarize an empty draw set")
    return np.quantile(draws, QUANTILES, axis=0)


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
        n_iterations=config.n_iterations, burn_in=burn, thin=config.thin,
        wall_time=time.perf_counter() - start,
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
# CSV interfaces (1-based individuals in files; theta day 0 = initial ability)
# ---------------------------------------------------------------------------

TRACES_FILE = "traces.csv"
SUMMARY_FILE = "summary.csv"
ONLINE_FILE = "online.csv"
TRACES_HEADER = ("quantity", "individual", "day", "iteration", "value")
SUMMARY_HEADER = ("quantity", "individual", "day", "q025", "median", "q975")
TRACE_NAMES = ("theta", "growth", "day_effect_sd", "test_effect_sd", "drift_sd")


def write_traces_csv(output: ChainOutput, path) -> None:
    """Every kept draw of every scalar as (iteration, value) rows, in the
    keyed layout of ``model.keyed_layout``."""
    iterations = output.burn_in + output.thin * np.arange(1, output.n_draws + 1)
    write_keyed_csv(path, TRACES_HEADER, TRACE_NAMES, output.days,
                    (np.column_stack([iterations, column]) for name in TRACE_NAMES
                     for column in np.atleast_2d(getattr(output, name).T)))


def write_summary_csv(summaries: dict, days: np.ndarray, path) -> None:
    """One row of (2.5%, 50%, 97.5%) quantiles per scalar of individuals with
    ``days`` test days each, in the keyed layout of ``model.keyed_layout``."""
    write_keyed_csv(path, SUMMARY_HEADER, TRACE_NAMES, days, np.column_stack([
        np.concatenate([np.atleast_1d(getattr(summaries[name], q)) for name in TRACE_NAMES])
        for q in ("q025", "median", "q975")]))


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
    """Read a trace file back into draw arrays: (draws dict, theta_start,
    days), the draws views of one buffer.  Every series must list the same
    strictly increasing iterations; a malformed file raises ``DataError``."""
    days, blocks, lines = read_keyed_csv(path, TRACES_HEADER, TRACE_NAMES)
    iterations = blocks[0][0, :, 0]
    if not np.all(np.diff(iterations) > 0):
        raise DataError(f"{path} line {lines[0]}: iterations are not strictly increasing")
    differ = np.concatenate([np.any(b[:, :, 0] != iterations, axis=1) for b in blocks])
    if differ.any():
        raise DataError(f"{path} line {lines[np.argmax(differ)]}: series iterations "
                        "differ from those of the first series")
    draws = {name: b[:, :, 1].T for name, b in zip(TRACE_NAMES, blocks)}
    draws["drift_sd"] = draws["drift_sd"][:, 0]
    return draws, _offsets(days + 1), days
