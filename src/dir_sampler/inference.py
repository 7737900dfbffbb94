"""Chain orchestration, posterior summaries, coverage, on-line estimation.

``fit`` runs one seeded chain over the full data; ``fit_online`` runs one
chain per day t over every individual's first t days, with the system-noise
precision held at 1/sd^2 for the config's ``fixed_drift_sd`` (which ``fit``
rejects), the way real-time estimation must.  Every chain starts cold and
runs the configured burn-in.  A chain's thinned post-burn-in draws
are one (series, draws) matrix whose rows follow the keyed layout of
``TRACE_NAMES``, the row order of traces.csv, summary.csv and the spill
file of ``fit --chains k``.  A summary is the (3, series) matrix of the
(2.5%, 50%, 97.5%) quantiles of those draws, in the same layout, from one
block-quantile kernel (``_block_quantiles``) whether of one chain's matrix
or of several chains' spill files; summary.csv, the coverage scores and
the on-line endpoints all read that matrix.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import make_rng
from .errors import ConfigError, DataError, ValidationError
from .gibbs import SweepWorkspace, gibbs_sweep
from .model import (Dataset, ModelConstants, SamplerConfig, _offsets, check_difficulty_range,
                    initial_state, keyed_layout, propriety_failures, read_keyed_csv,
                    split_keyed, theta_offsets, validate_dataset, write_keyed_csv)

QUANTILES = (0.025, 0.5, 0.975)
_QUANTILES = np.array(QUANTILES)
# Bytes of pooled draws that the quantile kernel partitions at a time.
SUMMARY_BLOCK_BYTES = 512 * 1024
# A chain's draw matrix as raw float64, that a worker of ``fit --chains k``
# leaves for the pooled summary (``pool_spills``).
SPILL_FILE = "draws.spill"


@dataclass
class ChainOutput:
    """Thinned draws and their (3, series) matrix of (2.5%, 50%, 97.5%)
    quantiles for every unknown, on the scale the study uses: sds, not precisions.

    ``draws`` is one C-contiguous float64 matrix of shape (series, draws).
    Its rows are the series of the keyed layout of ``TRACE_NAMES`` in file
    order (``model.split_keyed`` splits them): theta of individual i, day
    t = 0..days[i], for each individual in turn; then growth, day_effect_sd
    and test_effect_sd, one row per individual each; then drift_sd.  It
    must stay C-contiguous: ``tofile`` writes an F-ordered matrix, such as
    the transpose of a draws-major array, several times slower."""

    draws: np.ndarray           # (series, draws)
    quantiles: np.ndarray       # (3, series): summarize(draws)
    days: np.ndarray
    iterations: np.ndarray      # (draws,): the sweep of each kept draw
    report: dict                # the chain's run-report entry (see _run_chain)

    @property
    def n_draws(self) -> int:
        return self.draws.shape[1]


def _block_quantiles(block: np.ndarray, out: np.ndarray) -> None:
    """The (2.5%, 50%, 97.5%) quantiles of each row of a C-contiguous
    (series, draws) ``block`` into ``out``, shape (3, series), partitioning
    the rows in place.

    This is ``np.quantile(block.T, QUANTILES, axis=0, method="linear")``
    bit for bit: the rows are partitioned at the same order statistics,
    a row's NaN is reported as np.quantile reports it, and the neighbours
    are interpolated by numpy's ``_lerp`` formula, a + d t, or b - d (1 - t)
    where t >= 0.5.  np.quantile's ``np.unique`` call would import
    ``numpy.ma``; a set of Python ints takes its place."""
    n = block.shape[1]
    virtual = (n - 1) * _QUANTILES
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= n - 1  # np.quantile then takes the largest draw
    below[last] = above[last] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    gamma = (virtual - below)[:, None]
    block.partition(sorted({0, -1, *below.tolist(), *above.tolist()}), axis=1)
    a, b = block[:, below].T, block[:, above].T
    diff = b - a
    np.add(a, diff * gamma, out=out)
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    largest = block[:, -1]
    np.copyto(out, largest, where=np.isnan(largest))


def _pooled_quantiles(n_series: int, n_draws: int, fill) -> np.ndarray:
    """Quantiles, shape (3, n_series), of ``n_draws`` draws of each series,
    a block of as many series as fit in ``SUMMARY_BLOCK_BYTES`` (at least
    one) at a time: ``fill(block, start)`` writes the draws of series
    ``start`` on into the rows of one reused (series, draws) buffer, which
    ``_block_quantiles`` then partitions."""
    out = np.empty((len(QUANTILES), n_series))
    width = min(n_series, max(1, SUMMARY_BLOCK_BYTES // (out.itemsize * n_draws)))
    buf = np.empty(width * n_draws)
    for start in range(0, n_series, width):
        block = buf[:min(width, n_series - start) * n_draws].reshape(-1, n_draws)
        fill(block, start)
        _block_quantiles(block, out[:, start:start + len(block)])
    return out


def summarize(draws: np.ndarray) -> np.ndarray:
    """Empirical (2.5%, 50%, 97.5%) quantiles (linear interpolation between
    order statistics) of each row of a (series, draws) matrix; shape
    (3, series).  Each block of rows is copied into the kernel's buffer,
    so ``draws`` is left unchanged."""
    if draws.size == 0:
        raise ValueError("cannot summarize an empty draw set")

    def fill(block, start):
        block[:] = draws[start:start + len(block)]
    return _pooled_quantiles(len(draws), draws.shape[1], fill)


# the name under which the benchmark's tracer times a chain's summary
_summaries = summarize


def _run_chain(data: Dataset, constants: ModelConstants, config: SamplerConfig,
               key: tuple = (), frozen: np.ndarray | None = None) -> ChainOutput:
    """Run sweeps from ``initial_state`` on the generator seeded by
    (``config.seed``, *``key``) and collect thinned draws and the run-report
    entry: wall seconds, sweeps, K-S acceptance rate, guard redraws and the
    wall seconds of each update over all sweeps.  The individuals marked
    ``frozen`` keep their effect precisions at 1, and with
    ``config.fixed_drift_sd`` set the drift precision stays 1/sd^2."""
    start = time.perf_counter()
    n_draws = (config.n_iterations - config.burn_in) // config.thin
    work = SweepWorkspace(data, constants, frozen)
    state = initial_state(data)
    hold_drift = config.fixed_drift_sd is not None
    if hold_drift:
        state.drift_precision = 1.0 / config.fixed_drift_sd ** 2
    rng = make_rng(config.seed, *key)

    n_series = len(state.theta) + 3 * data.n_individuals + 1
    try:
        draws = np.empty((n_series, n_draws))
    except (MemoryError, ValueError) as exc:  # too large to allocate, or to index
        raise ConfigError(f"{n_draws} kept draws of {n_series} series do not fit in "
                          f"memory: {exc}") from None
    theta, growth, day_sd, test_sd, drift_sd = split_keyed(draws, data.n_individuals)
    k = 0
    for sweep in range(1, config.n_iterations + 1):
        gibbs_sweep(rng, state, work, hold_drift)
        if sweep > config.burn_in and (sweep - config.burn_in) % config.thin == 0:
            theta[:, k] = state.theta
            growth[:, k] = state.growth
            day_sd[:, k] = state.day_effect_precision ** -0.5
            test_sd[:, k] = state.test_effect_precision ** -0.5
            drift_sd[:, k] = state.drift_precision ** -0.5
            k += 1
    return ChainOutput(  # the wall time, taken last, includes the summary
        draws=draws, quantiles=_summaries(draws), days=data.days.copy(),
        iterations=config.burn_in + config.thin * np.arange(1, n_draws + 1),
        report={"wall_time_s": time.perf_counter() - start, "sweeps": config.n_iterations,
                "ks_accept_rate": work.ks_accepted / work.ks_proposals,
                "guard_redraws": work.guard_redraws, "update_s": work.update_s})


def _check_data(data: Dataset, constants: ModelConstants) -> None:
    """Raise before any sweep unless ``data`` passes the propriety gate and
    its difficulties are in the sweep's range under ``constants``."""
    report = validate_dataset(data)
    if not report.passed:
        raise ValidationError(report)
    check_difficulty_range(data, constants)


def fit(data: Dataset, constants: ModelConstants, config: SamplerConfig) -> ChainOutput:
    """Validate, run burn-in plus sampling sweeps, summarize."""
    if config.fixed_drift_sd is not None:  # a chain over the full data learns it
        raise ConfigError("fixed_drift_sd is used only on-line (fit_online)")
    _check_data(data, constants)
    return _run_chain(data, constants, config)


# ---------------------------------------------------------------------------
# Coverage scoring against simulation truth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageResult:
    per_individual: np.ndarray
    overall: float


def ability_coverage(quantiles: np.ndarray, truth_theta: np.ndarray,
                     days: np.ndarray) -> CoverageResult:
    """Fraction of (individual, day) points whose true ability lies in the
    95% interval of (3, series) ``quantiles``; day 0 (the prior-anchored
    initial ability) is not scored."""
    truth_theta = np.asarray(truth_theta, dtype=float)
    if (len(truth_theta) != int(np.sum(days + 1))
            or quantiles.shape[1] != len(truth_theta) + 3 * len(days) + 1):
        raise ValueError("summary and truth are not index-aligned")
    starts = _offsets(np.asarray(days) + 1)[:-1]
    lo, hi = quantiles[[0, 2], :len(truth_theta)]
    hit = (lo <= truth_theta) & (truth_theta <= hi)
    hit[starts] = False
    hits = np.add.reduceat(hit, starts, dtype=np.int64)
    return CoverageResult(per_individual=hits / days,
                          overall=float(hits.sum() / np.sum(days)))


def parameter_coverage(quantiles: np.ndarray, truth) -> np.ndarray:
    """Whether each growth rate, day and test effect sd, and the drift sd
    lies in its 95% interval: a bool vector over the last 3n + 1 series of
    the keyed layout, which ``quantiles`` must hold for ``truth``'s n
    individuals.  Its mean is the joint parameter coverage."""
    if quantiles.shape[1] != len(truth.theta) + 3 * len(truth.growth) + 1:
        raise ValueError("summary and truth are not index-aligned")
    true_vals = np.concatenate([truth.growth, truth.day_effect_precision ** -0.5,
                                truth.test_effect_precision ** -0.5,
                                [truth.drift_precision ** -0.5]])
    lo, hi = quantiles[[0, 2], -len(true_vals):]
    return (lo <= true_vals) & (true_vals <= hi)


# ---------------------------------------------------------------------------
# On-line (prefix-data) estimation
# ---------------------------------------------------------------------------

def fit_online(data: Dataset, constants: ModelConstants, config: SamplerConfig) -> tuple:
    """Per-day prefix fits with the drift sd held at ``config.fixed_drift_sd``
    (it cannot be learned on-line); returns (quantiles, flagged, refits).

    ``quantiles`` holds the (2.5%, 50%, 97.5%) quantiles of each day's
    ability from that day's chain, a (3, days) matrix in the dataset's day
    order: individual i's day t is column ``data.day_start[i] + t - 1``.
    ``flagged``, (days,) in the same order, marks the days whose prefix fails
    the individual's propriety conditions; that chain holds the individual's
    effect precisions at 1.  ``refits`` holds each chain's run-report entry
    and its day.

    For each day t, one chain runs cold from ``initial_state`` with the
    configured burn-in over every individual's first min(t, T_i) days,
    seeded by (seed, t), so the estimates for day t are bit-identical
    whether or not later days exist.  With the drift sd fixed the
    individuals are independent, so sharing the chain changes no posterior."""
    if config.fixed_drift_sd is None:
        raise ConfigError("on-line estimation requires fixed_drift_sd")
    _check_data(data, constants)
    quantiles = np.empty((len(QUANTILES), data.n_days))
    flagged = np.empty(data.n_days, dtype=bool)
    refits = []
    for t in range(1, int(data.days.max()) + 1):
        sub = data.individual_prefix(t)
        frozen = np.array([bool(mine) for mine in propriety_failures(sub)])
        output = _run_chain(sub, constants, config, (t,), frozen)
        live = data.days >= t  # individuals whose day t exists
        day = data.day_start[:-1][live] + t - 1
        quantiles[:, day] = output.quantiles[:, theta_offsets(sub)[:-1][live] + t]
        flagged[day] = frozen[live]
        refits.append({"day": t, **output.report})
    return quantiles, flagged, refits


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
    write_keyed_csv(path, TRACES_HEADER, TRACE_NAMES, output.days, output.draws,
                    lead=output.iterations)


def write_summary_csv(quantiles: np.ndarray, days: np.ndarray, path) -> None:
    """One row of (2.5%, 50%, 97.5%) quantiles per scalar of individuals with
    ``days`` test days each: a column of (3, series) ``quantiles``, in the
    keyed layout of ``model.keyed_layout``."""
    write_keyed_csv(path, SUMMARY_HEADER, TRACE_NAMES, days, quantiles.T)


def write_online_csv(quantiles: np.ndarray, flagged: np.ndarray, days: np.ndarray,
                     path) -> None:
    """One row per individual and day t of ``fit_online``'s ``quantiles`` and
    ``flagged``, for individuals with ``days`` days each: the quantiles of
    the day-t ability from the day-t chain, and whether its prefix was flagged."""
    individual = np.repeat(np.arange(1, len(days) + 1), days)
    day = np.arange(1, len(individual) + 1) - np.repeat(_offsets(days)[:-1], days)
    with Path(path).open("w", newline="") as fh:
        fh.write("individual,day,q025,median,q975,flagged\r\n")  # the row end of csv.writer
        fh.writelines("%d,%d,%.17g,%.17g,%.17g,%d\r\n" % row for row in zip(
            individual.tolist(), day.tolist(), *quantiles.tolist(), flagged.tolist()))


def read_traces_csv(path):
    """Read a trace file back into (draws, days): ``draws`` the (series,
    draws) matrix of a ``ChainOutput``, which holds each value once.  Every
    series must list the same strictly increasing iterations
    (``read_keyed_csv`` checks them); a malformed file raises ``DataError``."""
    days, draws = read_keyed_csv(path, TRACES_HEADER, TRACE_NAMES)
    return draws, days


def pool_spills(paths, days: np.ndarray, n_draws: int) -> np.ndarray:
    """The (3, series) quantiles of the draws of several chains, pooled from
    their spill files, each a chain's ``draws`` matrix as raw float64
    (``n_draws`` draws a series).  Each block of series is read from every
    file into a chain-sized buffer and copied into the kernel's buffer, so
    the files are read once, front to back, and no chain's draws are held
    whole."""
    with ExitStack() as stack:
        files = [stack.enter_context(Path(p).open("rb")) for p in paths]

        def fill(block, start):
            chunk = np.empty((len(block), n_draws))
            for k, fh in enumerate(files):
                if fh.readinto(chunk) != chunk.nbytes:
                    raise DataError(f"{fh.name}: ends before series {start + len(block)}")
                block[:, k * n_draws:(k + 1) * n_draws] = chunk
        return _pooled_quantiles(len(keyed_layout(days, TRACE_NAMES)),
                                 len(files) * n_draws, fill)
