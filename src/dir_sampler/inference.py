"""Chain orchestration, posterior summaries, coverage, on-line estimation.

``fit`` runs one seeded chain over the full data; ``fit_online`` runs one
chain per day t over every individual's first t days, with the system-noise
precision held fixed, the way real-time estimation must.  Every chain starts
cold and runs the configured burn-in.  Summaries are empirical quantiles of
the thinned post-burn-in draws.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError, ValidationError
from .gibbs import SweepWorkspace, gibbs_sweep
from .model import (Dataset, ModelConstants, SamplerConfig, _offsets, initial_state,
                    individual_propriety_failures, read_keyed_csv, theta_offsets,
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
    guard_redraws: int          # latent blocks redrawn by the gamma-rate guard

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


def chain_report(output: ChainOutput) -> dict:
    """A chain's run-report entry: wall time, sweeps, K-S acceptance rate,
    guard redraws."""
    return {"wall_time_s": output.wall_time, "sweeps": output.n_iterations,
            "ks_accept_rate": output.ks_accept_rate, "guard_redraws": output.guard_redraws}


def _run_chain(data: Dataset, constants: ModelConstants, config: SamplerConfig,
               seed_seq=None, frozen: np.ndarray | None = None) -> ChainOutput:
    """Run sweeps from ``initial_state`` and collect thinned draws; the
    individuals marked ``frozen`` keep their effect precisions at 1."""
    start = time.perf_counter()
    n_draws = (config.n_iterations - config.burn_in) // config.thin
    work = SweepWorkspace(data, constants, frozen)
    state = initial_state(data)
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
        if sweep > config.burn_in and (sweep - config.burn_in) % config.thin == 0:
            theta[k] = state.theta
            growth[k] = state.growth
            drift_sd[k] = state.drift_precision ** -0.5
            day_sd[k] = state.day_effect_precision ** -0.5
            test_sd[k] = state.test_effect_precision ** -0.5
            k += 1
    draws = {"theta": theta, "growth": growth, "drift_sd": drift_sd,
             "day_effect_sd": day_sd, "test_effect_sd": test_sd}
    return ChainOutput(
        **draws, summaries=_summaries(draws), days=data.days.copy(),
        n_iterations=config.n_iterations, burn_in=config.burn_in, thin=config.thin,
        wall_time=time.perf_counter() - start,
        ks_accept_rate=work.ks_accepted / work.ks_proposals,
        guard_redraws=work.guard_redraws)


def fit(data: Dataset, constants: ModelConstants, config: SamplerConfig) -> ChainOutput:
    """Validate, run burn-in plus sampling sweeps, summarize."""
    report = validate_dataset(data)
    if not report.passed:
        raise ValidationError(report)
    return _run_chain(data, constants, config)


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
    """One individual's endpoint ability estimates per day t, each from the
    day-t chain, which sees only days up to t.  ``flagged[t]`` marks days
    whose prefix fails the individual's propriety conditions; that chain
    holds the individual's effect precisions at 1."""

    individual: int
    median: np.ndarray
    q025: np.ndarray
    q975: np.ndarray
    flagged: np.ndarray


def fit_online(data: Dataset, constants: ModelConstants, config: SamplerConfig) -> tuple:
    """Per-day prefix fits with the drift sd fixed (it cannot be learned
    on-line); returns (trajectories, refits).

    For each day t, one chain runs cold from ``initial_state`` with the
    configured burn-in over every individual's first min(t, T_i) days,
    seeded by (seed, t), so the estimates for day t are bit-identical
    whether or not later days exist.  With the drift sd fixed the
    individuals are independent, so sharing the chain changes no posterior.
    ``refits`` holds each chain's run-report entry and its day."""
    config = replace(config, mode="online")
    report = validate_dataset(data)
    if not report.passed:
        raise ValidationError(report)
    n, t_max = data.n_individuals, int(data.days.max())
    median, q025, q975 = (np.empty((n, t_max)) for _ in range(3))
    flagged = np.zeros((n, t_max), dtype=bool)
    refits = []
    for t in range(1, t_max + 1):
        sub = data.individual_prefix(t)
        frozen = np.array([bool(individual_propriety_failures(sub, i)) for i in range(n)])
        output = _run_chain(sub, constants, config, _stream_seed(config.seed, t), frozen)
        live = data.days >= t  # individuals whose day t exists
        endpoint = theta_offsets(sub)[:-1][live] + t
        theta = output.summaries["theta"]
        median[live, t - 1] = theta.median[endpoint]
        q025[live, t - 1] = theta.q025[endpoint]
        q975[live, t - 1] = theta.q975[endpoint]
        flagged[live, t - 1] = frozen[live]
        refits.append({"day": t, **chain_report(output)})
    trajectories = [OnlineTrajectory(individual=i, median=median[i, :t_i], q025=q025[i, :t_i],
                                     q975=q975[i, :t_i], flagged=flagged[i, :t_i])
                    for i, t_i in enumerate(data.days)]
    return trajectories, refits


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
    """One row per individual and day t: the (2.5%, 50%, 97.5%) quantiles of
    the day-t ability from the day-t chain, and whether its prefix was flagged."""
    with Path(path).open("w", newline="") as fh:
        fh.write("individual,day,q025,median,q975,flagged\r\n")  # the row end of csv.writer
        for traj in trajectories:
            n_days = len(traj.median)
            fh.writelines("%d,%d,%.17g,%.17g,%.17g,%d\r\n" % row for row in zip(
                [traj.individual + 1] * n_days, range(1, n_days + 1), traj.q025.tolist(),
                traj.median.tolist(), traj.q975.tolist(), traj.flagged.tolist()))


def read_traces_csv(path):
    """Read a trace file back into draw arrays: (draws dict, days), the
    draws views of one buffer.  Every series must list the same
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
    return draws, days
