"""Forward simulation of datasets from the model, with ground truth kept.

The generator draws ability paths from the system equation, assigns each
test a difficulty tracking the current ability, layers on daily/test
random effects and per-item difficulty deviations, and emits Bernoulli
responses from the logistic observation equation.  The returned truth is
index-aligned with the dataset for coverage scoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .distributions import make_rng
from .errors import ConfigError, DataError
from .model import (Dataset, ModelConstants, _offsets, read_keyed_csv, split_keyed,
                    theta_offsets, validate_dataset, write_keyed_csv)

SIM_GROUP = "sim"
TRUTH_FILE = "truth.csv"
TRUTH_HEADER = ("quantity", "individual", "day", "value")
TRUTH_NAMES = ("theta", "growth", "day_effect_precision", "test_effect_precision",
               "drift_precision")


def paper_lapse_schedule(n_days: int) -> np.ndarray:
    """Lapse between consecutive test days: 10+t up to the midpoint, t-10
    after it (t counted from 1)."""
    t = np.arange(1, n_days + 1, dtype=float)
    return np.where(t <= n_days // 2, 10.0 + t, t - 10.0)


@dataclass(frozen=True)
class SimConfig:
    """Truth values and layout for one simulated cohort.

    Counts are shared by all individuals; the per-individual truth vectors
    must have length ``n_individuals``.  ``lapse_table`` overrides the
    default schedule (shape (n_individuals, days), strictly positive).
    """

    n_individuals: int
    days: int
    tests_per_day: int
    items_per_test: int
    growth: Sequence[float]
    day_effect_precision: Sequence[float]
    test_effect_precision: Sequence[float]
    drift_precision: float
    sigma: float
    rho: float
    delta_tmax: float
    difficulty_halfwidth: float = 0.1
    init_mean: float = 0.0
    init_var: float = 1.0
    lapse_table: object = None
    seed: int = 0

    def __post_init__(self):
        for name in ("n_individuals", "days", "tests_per_day", "items_per_test"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in ("growth", "day_effect_precision", "test_effect_precision"):
            if np.asarray(getattr(self, name), dtype=float).shape != (self.n_individuals,):
                raise ConfigError(f"{name} must have one value per individual")
        for name in ("growth", "day_effect_precision", "test_effect_precision",
                     "drift_precision", "sigma", "rho", "delta_tmax", "init_var",
                     "difficulty_halfwidth", "init_mean"):
            value = np.asarray(getattr(self, name), dtype=float)
            if name == "init_mean":
                ok, rule = True, "finite"
            elif name in ("growth", "difficulty_halfwidth"):
                ok, rule = value >= 0.0, "finite and >= 0"
            else:
                ok, rule = value > 0.0, "finite and > 0"
            if not np.all(ok & np.isfinite(value)):
                raise ConfigError(f"{name} {'values ' if value.ndim else ''}must be {rule}")
        if not math.isfinite(2.0 * self.difficulty_halfwidth):  # the uniform's range
            raise ConfigError(f"difficulty_halfwidth {self.difficulty_halfwidth} is too "
                              "large: twice it overflows")
        if self.lapse_table is not None:
            table = np.asarray(self.lapse_table, dtype=float)
            if table.shape != (self.n_individuals, self.days):
                raise ConfigError("lapse_table must be (n_individuals, days)")
            if not np.all((table > 0.0) & np.isfinite(table)):
                raise ConfigError("lapse_table entries must be finite and > 0")
        elif self.days < 20:
            # the default schedule's second branch (t - 10) goes nonpositive
            raise ConfigError("default lapse schedule needs days >= 20; "
                              "provide lapse_table for shorter designs")

    def lapses(self) -> np.ndarray:
        if self.lapse_table is not None:  # a copy, which the Dataset may keep
            return np.array(self.lapse_table, dtype=float)
        return np.tile(paper_lapse_schedule(self.days), (self.n_individuals, 1))

    def constants(self) -> ModelConstants:
        return ModelConstants(sigma=self.sigma, rho=self.rho, delta_tmax=self.delta_tmax,
                              group_prior={SIM_GROUP: (self.init_mean, self.init_var)})


def paper_default_config(seed: int = 0) -> SimConfig:
    """The 10-individual, 50-day, 4-test, 10-item reference design."""
    return SimConfig(
        n_individuals=10, days=50, tests_per_day=4, items_per_test=10,
        growth=(0.0055, 0.0065, 0.0026, 0.0037, 0.0061,
                0.0047, 0.0035, 0.0043, 0.0039, 0.0015),
        day_effect_precision=(2.0408, 1.3333, 1.8182, 1.2346, 1.5873,
                              1.0, 2.2222, 1.0526, 1.1494, 2.0),
        test_effect_precision=(4.0, 3.1250, 4.3478, 2.7027, 3.7037,
                               2.8571, 4.0, 2.2222, 9.0909, 4.5455),
        drift_precision=1.0 / 0.0218 ** 2,
        sigma=0.7333, rho=0.1180, delta_tmax=14.0,
        seed=seed,
    )


@dataclass
class SimTruth:
    """Realized latent values behind a simulated dataset."""

    theta: np.ndarray                    # flat ability paths, days 0..T per individual
    growth: np.ndarray
    day_effect_precision: np.ndarray
    test_effect_precision: np.ndarray
    drift_precision: float
    day_effect: np.ndarray               # (total days,)
    test_effect: np.ndarray              # (total tests,)
    item_deviation: np.ndarray           # (total items,)
    theta_start: np.ndarray              # (n+1,) offsets into theta


def constrained_test_effects(rng, precision, n_tests: int, size) -> np.ndarray:
    """Draw rows of ``n_tests`` test effects ~ N(0, 1/precision I) conditioned
    to sum to zero, by centering iid draws (the projection is exact: the
    centered vector has the conditioned law's covariance (I - J/S)/tau).
    ``size`` (int or tuple) is the shape of the rows, against which
    ``precision`` broadcasts."""
    scale = (1.0 / np.sqrt(np.asarray(precision, dtype=float)))[..., None]
    raw = rng.normal(0.0, scale, size=(*np.atleast_1d(size), n_tests))
    return raw - raw.mean(axis=-1, keepdims=True)


def simulate_dataset(cfg: SimConfig) -> tuple:
    """Generate (Dataset, SimTruth) from the forward model.

    If the propriety gate rejects the realized responses (a near-impossible
    event for non-degenerate configs), the Bernoulli layer alone is redrawn
    up to 100 times before giving up.
    """
    rng = make_rng(cfg.seed)
    n, t_total, s, k = cfg.n_individuals, cfg.days, cfg.tests_per_day, cfg.items_per_test
    growth = np.asarray(cfg.growth, dtype=float)
    delta_prec = np.asarray(cfg.day_effect_precision, dtype=float)
    tau_prec = np.asarray(cfg.test_effect_precision, dtype=float)
    lapse = cfg.lapses()
    lapse_trunc = np.minimum(lapse, cfg.delta_tmax)

    theta = np.empty((n, t_total + 1))
    theta[:, 0] = rng.normal(cfg.init_mean, np.sqrt(cfg.init_var), size=n)
    for t in range(1, t_total + 1):
        drift = rng.normal(0.0, np.sqrt(lapse[:, t - 1] / cfg.drift_precision))
        prev = theta[:, t - 1]
        theta[:, t] = prev + growth * (1.0 - cfg.rho * prev) * lapse_trunc[:, t - 1] + drift

    day_effect = rng.normal(0.0, 1.0 / np.sqrt(delta_prec)[:, None], size=(n, t_total))
    difficulty = (theta[:, 1:, None]
                  + rng.uniform(-cfg.difficulty_halfwidth, cfg.difficulty_halfwidth,
                                size=(n, t_total, s)))
    test_effect = constrained_test_effects(rng, tau_prec[:, None], s, (n, t_total))
    item_dev = rng.normal(0.0, cfg.sigma, size=(n, t_total, s, k))

    logit = (theta[:, 1:, None, None] - difficulty[..., None]
             + day_effect[..., None, None] + test_effect[..., None] + item_dev)
    prob = 1.0 / (1.0 + np.exp(-logit))

    data = None
    for _ in range(100):
        response = (rng.random(prob.shape) < prob).astype(np.uint8)
        data = Dataset(days=np.full(n, t_total), tests_per_day=np.full(n * t_total, s),
                       items_per_test=np.full(n * t_total * s, k),
                       response=response.reshape(-1), difficulty=difficulty.reshape(-1),
                       lapse=lapse.reshape(-1), group=[SIM_GROUP] * n)
        if validate_dataset(data).passed or cfg.n_individuals == 1:
            break
    else:
        raise DataError("simulated responses kept failing the propriety gate")

    truth = SimTruth(
        theta=theta.reshape(-1),
        growth=growth.copy(),
        day_effect_precision=delta_prec.copy(),
        test_effect_precision=tau_prec.copy(),
        drift_precision=cfg.drift_precision,
        day_effect=day_effect.reshape(-1),
        test_effect=test_effect.reshape(-1),
        item_deviation=item_dev.reshape(-1),
        theta_start=theta_offsets(data),
    )
    return data, truth


def write_truth_csv(truth: SimTruth, out_dir) -> Path:
    """Truth values needed for coverage scoring, one row per scalar in the
    keyed layout of ``model.keyed_layout``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / TRUTH_FILE
    write_keyed_csv(path, TRUTH_HEADER, TRUTH_NAMES, np.diff(truth.theta_start) - 1,
                    np.concatenate([truth.theta, truth.growth, truth.day_effect_precision,
                                    truth.test_effect_precision, [truth.drift_precision]]))
    return path


def read_truth_csv(path) -> SimTruth:
    """Read back what ``write_truth_csv`` stores (realized effects come back
    empty).  Rows must follow the keyed layout, one row per series; a
    malformed file raises ``DataError`` naming it, and any faulty line."""
    days, values, _ = read_keyed_csv(path, TRUTH_HEADER, TRUTH_NAMES)
    if values.shape[1] != 1:
        raise DataError(f"{path}: {values.shape[1]} rows per series, expected 1")
    theta, growth, day_precision, test_precision, drift = split_keyed(values[:, 0], len(days))
    return SimTruth(theta=theta, growth=growth, day_effect_precision=day_precision,
                    test_effect_precision=test_precision, drift_precision=float(drift[0]),
                    day_effect=np.empty(0), test_effect=np.empty(0),
                    item_deviation=np.empty(0), theta_start=_offsets(days + 1))
