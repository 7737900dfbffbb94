"""Domain types: observed data, known constants, latent state, configs.

Responses are ragged over (individual, day, test, item).  ``Dataset``
stores them flattened in lexicographic order with offset tables at each
level, so the sampler's hot loop works on contiguous arrays instead of
per-item lookups.  ``Dataset.from_keys`` builds one from flat key columns
in any row order: it lexsorts the keys, checks in numpy that they are
unique and dense, and reads the counts off where the keys change.  The CSV
reader parses its files into such columns, and the writer emits them from
the offset tables.  All indices are 0-based internally; the CSV
interchange format is 1-based.  The truth, trace and summary files share
one keyed row layout, written and read by the code at the end of this
module (see ``keyed_layout``).  Every input file is parsed by one block
reader, ``_blocks``: numpy's C parser reads 2,048 lines at a time into a
structured dtype (int64 keys and responses, float64 values, text group
labels, byte-string keyed-file keys), and the ``csv`` module reads only
the header.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import groupby, islice, takewhile
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError


def _offsets(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


_KEY_NAMES = ("individual", "day", "test", "item")


def _describe(keys, row: int) -> str:
    """'individual 1 day 2 ...', 1-based, for one row of 0-based key columns."""
    return " ".join(f"{name} {int(k[row]) + 1}" for name, k in zip(_KEY_NAMES, keys))


def _group_starts(keys: list, what: str) -> list:
    """Masks of the lexsorted rows that open a new group at each key level.

    Raises DataError unless the 0-based keys are >= 0, unique, and dense
    (0, 1, 2, ... within each parent group) at every level.
    """
    if any(np.any(k < 0) for k in keys):
        raise DataError(f"{what} keys must be >= 0")
    opens = np.zeros(len(keys[0]), dtype=bool)
    opens[:1] = True
    starts = []
    for level, k in enumerate(keys):
        step = np.diff(k, prepend=0)
        leaf = level == len(keys) - 1
        ok = np.where(opens, k == 0, (step == 1) | ((step == 0) & (not leaf)))
        bad = np.flatnonzero(~ok)
        if bad.size:
            row = int(bad[0])
            if not opens[row] and step[row] == 0:
                raise DataError(f"duplicate {what} row for {_describe(keys, row)}")
            parent = _describe(keys[:level], row)
            missing = 1 if opens[row] else int(k[row - 1]) + 2
            raise DataError(f"{what} rows not dense: no {_KEY_NAMES[level]} {missing}"
                            + (f" for {parent}" if parent else ""))
        opens = opens | (step != 0)
        starts.append(opens)
    return starts


def _lapse_per_day(day_keys: list, individual, day, lapse) -> np.ndarray:
    """The lapse of each response day, in day order, from (individual, day,
    lapse) rows that must cover exactly the days with responses."""
    keys = [np.asarray(k, dtype=np.int64) for k in (individual, day)]
    lapse = np.asarray(lapse, dtype=float)
    if not len(keys[0]) == len(keys[1]) == len(lapse):
        raise DataError("lapse columns differ in length")
    order = np.lexsort(keys[::-1])
    keys = [k[order] for k in keys]
    _group_starts(keys, "lapse")
    # both key sets are dense, so they can first differ only in the individual
    m = min(len(order), len(day_keys[0]))
    differ = np.flatnonzero(keys[0][:m] != day_keys[0][:m])
    k = int(differ[0]) if differ.size else m
    if k < len(day_keys[0]) and (k == len(order) or keys[0][k] > day_keys[0][k]):
        raise DataError(f"missing lapse for {_describe(day_keys, k)}")
    if k < len(order):
        raise DataError(f"lapse row for {_describe(keys, k)} has no responses")
    return lapse[order]


@dataclass(frozen=True)
class Dataset:
    """Dichotomous responses with known test difficulties and time lapses.

    ``days[i]`` is the number of test days for individual i,
    ``tests_per_day`` / ``items_per_test`` the ragged counts at the next two
    levels, flattened.  ``difficulty`` holds the known ensemble mean
    difficulty (logits) of each test; ``lapse`` the days elapsed since the
    individual's previous test day (strictly positive).  ``group`` selects
    the initial-ability prior for each individual.
    """

    days: np.ndarray                # (n,) int
    tests_per_day: np.ndarray       # (total days,) int
    items_per_test: np.ndarray      # (total tests,) int
    response: np.ndarray            # (total items,) uint8 in {0, 1}
    difficulty: np.ndarray          # (total tests,) float, logits
    lapse: np.ndarray               # (total days,) float, days
    group: tuple                    # (n,) hashable labels
    day_start: np.ndarray = field(repr=False, default=None)   # (n+1,)
    test_start: np.ndarray = field(repr=False, default=None)  # (total days+1,)
    item_start: np.ndarray = field(repr=False, default=None)  # (total tests+1,)

    def __post_init__(self):
        for name in ("days", "tests_per_day", "items_per_test"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        if not np.all(np.isin(self.response, (0, 1))):  # before the uint8 cast wraps
            raise DataError("responses must be 0 or 1")
        object.__setattr__(self, "response", np.asarray(self.response, dtype=np.uint8))
        object.__setattr__(self, "difficulty", np.asarray(self.difficulty, dtype=float))
        object.__setattr__(self, "lapse", np.asarray(self.lapse, dtype=float))
        object.__setattr__(self, "group", tuple(self.group))
        object.__setattr__(self, "day_start", _offsets(self.days))
        object.__setattr__(self, "test_start", _offsets(self.tests_per_day))
        object.__setattr__(self, "item_start", _offsets(self.items_per_test))
        self._check_structure()

    def _check_structure(self):
        if self.n_individuals < 1:
            raise DataError("dataset has no individuals")
        if len(self.group) != self.n_individuals:
            raise DataError("group labels do not match individual count")
        for name, counts in (("days", self.days), ("tests_per_day", self.tests_per_day),
                             ("items_per_test", self.items_per_test)):
            if np.any(counts < 1):
                raise DataError(f"all {name} counts must be >= 1")
        if len(self.tests_per_day) != self.day_start[-1]:
            raise DataError("tests_per_day length does not match total day count")
        if len(self.items_per_test) != self.test_start[-1]:
            raise DataError("items_per_test length does not match total test count")
        if len(self.response) != self.item_start[-1]:
            raise DataError("response length does not match total item count")
        if len(self.difficulty) != self.n_tests:
            raise DataError("difficulty length does not match total test count")
        if len(self.lapse) != self.n_days:
            raise DataError("lapse length does not match total day count")
        if np.any(~np.isfinite(self.lapse)) or np.any(self.lapse <= 0.0):
            raise DataError("time lapses must be finite and > 0")
        if np.any(~np.isfinite(self.difficulty)):
            raise DataError("difficulties must be finite")

    @property
    def n_individuals(self) -> int:
        return len(self.days)

    @property
    def n_days(self) -> int:
        return int(self.day_start[-1])

    @property
    def n_tests(self) -> int:
        return int(self.test_start[-1])

    @property
    def n_items(self) -> int:
        return int(self.item_start[-1])

    @classmethod
    def from_keys(cls, individual, day, test, item, response, difficulty,
                  lapse_individual, lapse_day, lapse, group) -> "Dataset":
        """Build from one row per item, in any row order.

        ``individual``, ``day``, ``test`` and ``item`` are 0-based keys that
        must be unique and dense at every level; ``difficulty`` repeats the
        test's difficulty on each of its items.  ``lapse_individual``,
        ``lapse_day`` and ``lapse`` give one lapse per (individual, day) that
        has responses, and ``group`` one label per individual.  Error
        messages name keys 1-based, as the CSV files do.
        """
        keys = [np.asarray(k, dtype=np.int64) for k in (individual, day, test, item)]
        response, difficulty = np.asarray(response), np.asarray(difficulty, dtype=float)
        if len({len(col) for col in (*keys, response, difficulty)}) != 1:
            raise DataError("response columns differ in length")
        if not len(response):
            raise DataError("dataset has no responses")
        order = np.lexsort(keys[::-1])
        keys, difficulty = [k[order] for k in keys], difficulty[order]
        new_individual, new_day, new_test, _ = _group_starts(keys, "response")
        bad = np.flatnonzero((difficulty[1:] != difficulty[:-1]) & ~new_test[1:]) + 1
        if bad.size:
            raise DataError(f"inconsistent difficulty for {_describe(keys[:3], bad[0])}")
        day_rows, test_rows = np.flatnonzero(new_day), np.flatnonzero(new_test)
        return cls(days=np.diff(np.flatnonzero(new_individual[day_rows]),
                                append=len(day_rows)),
                   tests_per_day=np.diff(np.flatnonzero(new_day[test_rows]),
                                         append=len(test_rows)),
                   items_per_test=np.diff(test_rows, append=len(order)),
                   response=response[order], difficulty=difficulty[test_rows],
                   lapse=_lapse_per_day([k[day_rows] for k in keys[:2]],
                                        lapse_individual, lapse_day, lapse),
                   group=group)

    def individual_prefix(self, n_days: int) -> "Dataset":
        """Every individual restricted to its first min(``n_days``, T_i) days."""
        if n_days < 1:
            raise DataError(f"prefix length {n_days} must be >= 1")
        keep_day = (np.arange(self.n_days) - np.repeat(self.day_start[:-1], self.days)
                    < n_days)
        keep_test = np.repeat(keep_day, self.tests_per_day)
        keep_item = np.repeat(keep_test, self.items_per_test)
        return Dataset(days=np.minimum(self.days, n_days),
                       tests_per_day=self.tests_per_day[keep_day],
                       items_per_test=self.items_per_test[keep_test],
                       response=self.response[keep_item], difficulty=self.difficulty[keep_test],
                       lapse=self.lapse[keep_day], group=self.group)


@dataclass(frozen=True)
class ModelConstants:
    """Known quantities: item-deviation sd, growth deceleration, lapse cap,
    and the initial-ability prior (mean, variance in logits) per group."""

    sigma: float          # sd of within-test item difficulty deviations, logits
    rho: float            # growth deceleration rate, 1/logits
    delta_tmax: float     # growth truncation horizon, days
    group_prior: Mapping[object, tuple]

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ConfigError("sigma must be finite and > 0")
        try:
            float(self.sigma) ** 2  # a term of every observation precision
        except OverflowError:
            raise ConfigError(f"sigma {self.sigma} is too large: its square overflows") from None
        # 1/rho shifts every path, and the growth precision scales as
        # delta_tmax**2: like a group prior's 1/v, both inverses must be finite
        for name, power in (("rho", 1), ("delta_tmax", 2)):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be finite and > 0")
            try:
                float(value) ** -power
            except OverflowError:
                raise ConfigError(f"{name} {value} is too small: "
                                  f"{name}**-{power} overflows") from None
        for label, (mu, v) in self.group_prior.items():
            mu, v = float(mu), float(v)
            if not (v > 0.0 and math.isfinite(v) and math.isfinite(mu)):
                raise ConfigError(f"group {label!r}: prior variance must be finite and > 0")
            # a path's day-0 precision is 1/v and its pseudo-data mu/v
            if not (math.isfinite(1.0 / v) and math.isfinite(mu / v)):
                raise ConfigError(f"group {label!r}: prior ({mu!r}, {v!r}) overflows: "
                                  "1/variance and mean/variance must be finite")

    def prior_for(self, label) -> tuple:
        try:
            return self.group_prior[label]
        except KeyError:
            raise ConfigError(f"no initial-ability prior for group {label!r}") from None


@dataclass
class LatentState:
    """One Gibbs iteration's value of every unknown, flat per dataset layout.

    ``theta`` stacks each individual's ability path (day 0..T_i); the rest
    follow the dataset's day/test/item flattening.  Owned by exactly one
    chain and mutated in place by the sweep.
    """

    theta: np.ndarray                  # (sum_i (T_i+1),)
    growth: np.ndarray                 # (n,), >= 0
    drift_precision: float             # > 0
    day_effect: np.ndarray             # (total days,)
    day_effect_precision: np.ndarray   # (n,), > 0
    test_effect: np.ndarray            # (total tests,)
    test_effect_precision: np.ndarray  # (n,), > 0
    latent_utility: np.ndarray         # (total items,)
    ks_scale: np.ndarray               # (total items,), > 0


def theta_offsets(data: Dataset) -> np.ndarray:
    """Start index of each individual's ability path in the flat theta array."""
    return _offsets(data.days + 1)


def initial_state(data: Dataset) -> LatentState:
    """Starting point for the sweep: zero abilities/growth/effects, unit
    precisions and scales."""
    return LatentState(
        theta=np.zeros(int(np.sum(data.days + 1))),
        growth=np.zeros(data.n_individuals),
        drift_precision=1.0,
        day_effect=np.zeros(data.n_days),
        day_effect_precision=np.ones(data.n_individuals),
        test_effect=np.zeros(data.n_tests),
        test_effect_precision=np.ones(data.n_individuals),
        latent_utility=np.zeros(data.n_items),
        ks_scale=np.ones(data.n_items),
    )


VALID_MODES = ("retrospective", "online")


@dataclass(frozen=True)
class SamplerConfig:
    n_iterations: int = 50_000
    burn_in: int = 30_000
    thin: int = 10
    seed: int = 0
    mode: str = "retrospective"
    fixed_drift_sd: float | None = None  # required in online mode, rejected outside it

    def __post_init__(self):
        if self.mode not in VALID_MODES:
            raise ConfigError(f"mode must be one of {VALID_MODES}, got {self.mode!r}")
        if not (0 <= self.burn_in < self.n_iterations):
            raise ConfigError("burn_in must satisfy 0 <= burn_in < n_iterations")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if (self.n_iterations - self.burn_in) % self.thin != 0:
            raise ConfigError("n_iterations - burn_in must be divisible by thin")
        if self.mode == "online":
            if self.fixed_drift_sd is None:
                raise ConfigError("online mode requires fixed_drift_sd")
            try:  # the chain holds the drift precision at 1/sd^2
                precision = 1.0 / self.fixed_drift_sd ** 2
            except (ZeroDivisionError, OverflowError):
                precision = math.nan
            if not (self.fixed_drift_sd > 0.0 and 0.0 < precision < math.inf):
                raise ConfigError("fixed_drift_sd must be > 0 with a finite precision "
                                  f"1/sd^2 > 0, got {self.fixed_drift_sd!r}")
        elif self.fixed_drift_sd is not None:  # a retrospective chain learns it
            raise ConfigError("fixed_drift_sd is used only in online mode")


# ---------------------------------------------------------------------------
# Posterior-propriety gate
# ---------------------------------------------------------------------------

CLAUSE_N = "n ≥ 2"
CLAUSE_DAYS = "T_i ≥ 2"
CLAUSE_MULTITEST_DAYS = "at least two days with S_{i,t} ≥ 2"
CLAUSE_MIXED = "one 0 and one 1 observation"
CLAUSE_TEST_SHAPE = "test-effect precision shape (Σ_t S_{i,t} − (T_i+1))/2 > 0"
CLAUSE_DAY_SHAPE = "day-effect precision shape (T_i − 1)/2 > 0"
CLAUSE_DRIFT_SHAPE = "drift precision shape (Σ_i T_i − 1)/2 > 0"


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    failures: tuple  # of (clause, detail) pairs

    def summary(self) -> str:
        if self.passed:
            return "pass"
        return "; ".join(f"{clause} [{detail}]" for clause, detail in self.failures)


def propriety_failures(data: Dataset) -> list:
    """Per-individual pieces of the propriety conditions: for each
    individual, a list of (clause, detail) pairs, empty when it passes.
    The counts behind them are taken for every individual at once."""
    starts = data.day_start[:-1]
    low = np.minimum.reduceat(data.response, data.item_start[:-1])
    high = np.maximum.reduceat(data.response, data.item_start[:-1])
    mixed_tests = np.add.reduceat(low < high, data.test_start[:-1])  # per day
    multi = data.tests_per_day >= 2
    multi_days = np.add.reduceat(multi, starts)
    qualifying_days = np.add.reduceat(multi & (mixed_tests >= 2), starts)
    tests = np.add.reduceat(data.tests_per_day, starts)
    failures = []
    for i, (t_i, n_multi, qualifying, s_total) in enumerate(zip(
            data.days.tolist(), multi_days.tolist(), qualifying_days.tolist(),
            tests.tolist())):
        mine = []
        if t_i < 2:
            mine.append((CLAUSE_DAYS, f"individual {i}: T_i = {t_i}"))
        if n_multi < 2:
            mine.append((CLAUSE_MULTITEST_DAYS,
                         f"individual {i}: {n_multi} day(s) with ≥ 2 tests"))
        elif qualifying < 2:
            mine.append((CLAUSE_MIXED,
                         f"individual {i}: {qualifying} day(s) with ≥ 2 tests "
                         "each having one 0 and one 1 observation"))
        if s_total - (t_i + 1) <= 0:
            mine.append((CLAUSE_TEST_SHAPE,
                         f"individual {i}: (Σ S − (T+1))/2 = {(s_total - t_i - 1) / 2}"))
        if t_i - 1 <= 0:
            mine.append((CLAUSE_DAY_SHAPE, f"individual {i}: (T−1)/2 = {(t_i - 1) / 2}"))
        failures.append(mine)
    return failures


def validate_dataset(data: Dataset) -> ValidationReport:
    """Check the posterior-propriety conditions and the gamma-shape
    positivity the full conditionals need.  Pure; returns a report rather
    than raising."""
    failures = []
    if data.n_individuals < 2:
        failures.append((CLAUSE_N, f"n = {data.n_individuals}"))
    for mine in propriety_failures(data):
        failures.extend(mine)
    if int(np.sum(data.days)) - 1 <= 0:
        failures.append((CLAUSE_DRIFT_SHAPE, f"Σ T_i = {int(np.sum(data.days))}"))
    return ValidationReport(passed=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# CSV interchange (1-based indices in files)
# ---------------------------------------------------------------------------

RESPONSES_FILE = "responses.csv"
LAPSES_FILE = "lapses.csv"
GROUPS_FILE = "groups.csv"
RESPONSES_HEADER = ("individual", "day", "test", "item", "response", "difficulty")
LAPSES_HEADER = ("individual", "day", "lapse_days")
GROUPS_HEADER = ("individual", "group")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_dataset_csv(data: Dataset, out_dir) -> list:
    """Write the responses/lapses/groups trio; returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rp, lp, gp = out_dir / RESPONSES_FILE, out_dir / LAPSES_FILE, out_dir / GROUPS_FILE
    # 1-based keys of every day, test and item, from the offset tables
    day_individual = np.repeat(np.arange(data.n_individuals), data.days)
    day_key = np.arange(data.n_days) - data.day_start[day_individual] + 1
    test_day = np.repeat(np.arange(data.n_days), data.tests_per_day)
    test_key = np.arange(data.n_tests) - data.test_start[test_day] + 1
    item_test = np.repeat(np.arange(data.n_tests), data.items_per_test)
    item_key = np.arange(data.n_items) - data.item_start[item_test] + 1
    item_day = test_day[item_test]
    difficulty = [_fmt(x) for x in data.difficulty]
    with rp.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RESPONSES_HEADER)
        w.writerows(zip((day_individual[item_day] + 1).tolist(), day_key[item_day].tolist(),
                        test_key[item_test].tolist(), item_key.tolist(),
                        data.response.tolist(),
                        map(difficulty.__getitem__, item_test.tolist())))
    with lp.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(LAPSES_HEADER)
        w.writerows(zip((day_individual + 1).tolist(), day_key.tolist(),
                        map(_fmt, data.lapse)))
    with gp.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(GROUPS_HEADER)
        w.writerows(enumerate(data.group, start=1))
    return [rp, lp, gp]


@contextmanager
def _csv_body(path: Path, header: Sequence[str]):
    """Open a CSV file and check its header row with the ``csv`` module;
    yields the file, past the header, and the header's last line number.
    DataError names the file, and the line of a ``csv`` error, for a wrong
    header and a file that cannot be opened, decoded or parsed."""
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None or [h.strip() for h in first] != list(header):
                raise DataError(f"{path}: expected header {','.join(header)}")
            yield fh, reader.line_num
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc


# Lines per block.  A block's text and parsed rows are the reader's
# transient: on a cohort chain's traces.csv (2,001 series x 200 draws),
# 2,048 lines in place of 8,192 took summarize's peak resident set from
# 40.0 to 39.3 MiB (median of 7), below fit's, and cost 1-3% in read time
# (best of 15 in-process runs: read_traces_csv 237-246 against 239-246 ms,
# read_dataset_csv on the paper data 11.5-11.6 against 11.7-12.3 ms).
_BLOCK_ROWS = 2048
_BLANK_LINES = ("\n", "\r\n", "\r")
_FIELD_COUNT = re.compile(r"requires (\d+) columns but (\d+) were found at row (\d+)")
_BAD_VALUE = re.compile(r"could not convert string (.*) to (\S+) at row (\d+), column (\d+)")
_WHAT = {"i": "an integer", "f": "a number", "S": "Latin-1 text"}


def _parse_block(path: Path, header: Sequence[str], lines: list, first: int,
                 dtype: np.dtype) -> tuple:
    """Parse one block of ``lines``, the first of them at line ``first``,
    with numpy's C parser; returns the structured rows and the line of each.
    Blank lines are skipped, as the ``csv`` module skips them; DataError
    names the line of a row with the wrong field count, a field that does
    not parse (by its ``header`` name), a NUL character or a line break in
    quotes."""
    line_of = np.arange(first, first + len(lines))
    if sum(map(lines.count, _BLANK_LINES)):
        line_of = line_of[[line not in _BLANK_LINES for line in lines]]
    if "\0" in "".join(lines):  # a byte-string field would drop it from the field's end
        k = next(k for k, line in enumerate(lines) if "\0" in line)
        raise DataError(f"{path} line {first + k}: NUL character")
    if not len(line_of):
        return np.empty(0, dtype), line_of
    try:
        rows = np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                          ndmin=1)
    except ValueError as exc:  # loadtxt counts rows from 1 for a field count, else from 0
        if m := _FIELD_COUNT.search(str(exc)):
            raise DataError(f"{path} line {line_of[int(m[3]) - 1]}: expected {m[1]} "
                            f"fields, got {m[2]}") from None
        if m := _BAD_VALUE.search(str(exc)):
            raise DataError(f"{path} line {line_of[int(m[3])]}: {header[int(m[4]) - 1]} "
                            f"{m[1]} is not {_WHAT[np.dtype(m[2]).kind]}") from None
        raise DataError(f"{path} lines {first}-{first + len(lines) - 1}: {exc}") from None
    if len(rows) != len(line_of):  # loadtxt joined the lines of a quoted line break
        k = next((k for k, line in enumerate(lines) if line.count('"') % 2), 0)
        raise DataError(f"{path} line {first + k}: a quoted field spans lines")
    return rows, line_of


def _blocks(path: Path, header: Sequence[str], dtype: np.dtype):
    """Yield the structured rows of each non-empty block of ``_BLOCK_ROWS``
    lines after a CSV file's header, parsed by ``_parse_block`` into
    ``dtype``, with the line of each row.  Only one block is held as text
    and as rows while the generator runs; quoted fields are read as the
    ``csv`` module reads them, and a row starting with ``#`` is a row."""
    with _csv_body(path, header) as (fh, line):
        while lines := list(islice(fh, _BLOCK_ROWS)):
            rows, line_of = _parse_block(path, header, lines, line + 1, dtype)
            line += len(lines)
            del lines
            if len(rows):
                yield rows, line_of
            del rows, line_of  # before the next block is read


def read_dataset_csv(in_dir) -> Dataset:
    """Read the responses/lapses/groups trio written by ``write_dataset_csv``.

    Each file is parsed by ``_blocks`` into int64 keys and responses,
    float64 difficulties and lapses, and text group labels; each block's
    fields are appended to one buffer per column, keys made 0-based, and
    ``Dataset.from_keys`` sorts and checks the columns.  Row order is free;
    (individual, day, test, item) keys must be 1-based, unique and dense,
    all items of a test must agree on its difficulty, and every (individual,
    day) with responses needs one lapse and every individual one group.  A
    malformed row raises ``DataError`` naming its file and line.
    """
    in_dir = Path(in_dir)
    columns = []
    for name, header, codes in ((RESPONSES_FILE, RESPONSES_HEADER, "qqqqqd"),
                                (LAPSES_FILE, LAPSES_HEADER, "qqd"),
                                (GROUPS_FILE, GROUPS_HEADER, "qO")):
        path = in_dir / name
        bufs = [[] if code == "O" else array(code) for code in codes]
        for rows, line_of in _blocks(path, header, np.dtype(list(zip(header, codes)))):
            for column, buf in zip(header, bufs):
                values = rows[column]
                if column in _KEY_NAMES:
                    bad = np.flatnonzero(values < 1)
                    if bad.size:
                        raise DataError(f"{path} line {line_of[bad[0]]}: {column} must be "
                                        f">= 1, got {values[bad[0]]}")
                    values -= 1
                if isinstance(buf, list):
                    buf += values.tolist()
                else:
                    buf.frombytes(values.tobytes())
            del rows, values
        columns += [buf if isinstance(buf, list) else np.frombuffer(buf, code)
                    for buf, code in zip(bufs, codes)]
    *keyed, group_key, group = columns
    order = np.argsort(group_key, kind="stable")
    _group_starts([group_key[order]], "group")
    return Dataset.from_keys(*keyed, [group[k] for k in order])


# ---------------------------------------------------------------------------
# Keyed files: truth.csv, traces.csv and summary.csv
# ---------------------------------------------------------------------------

def keyed_layout(days, names: Sequence[str]) -> list:
    """The (quantity, individual, day) keys of a keyed file, in file order.

    Truth, trace and summary files share this layout: each row is a key, as
    three text fields, then values, and the rows of one key (a series) are
    consecutive.  Of the five ``names``, the first has a series per
    individual i and day t = 0..days[i], the next three one per individual
    with an empty day, and the last one series with both fields empty;
    individuals are 1-based.  Readers check that rows come in this order
    instead of sorting them.
    """
    n = len(days)
    keys = [(names[0], str(i + 1), str(t)) for i in range(n) for t in range(int(days[i]) + 1)]
    keys += [(name, str(i + 1), "") for name in names[1:4] for i in range(n)]
    return keys + [(names[4], "", "")]


def split_keyed(rows: np.ndarray, n: int) -> list:
    """The five quantities of ``rows``, one row per series of the keyed
    layout of ``n`` individuals: views of ``rows`` of 1 + sum_i days[i], n,
    n, n and 1 rows, in layout order."""
    return np.split(rows, np.cumsum([len(rows) - 3 * n - 1, n, n, n]))


def _key_text(key) -> str:
    quantity, individual, day = key
    return (quantity + (f" individual {individual}" if individual else "")
            + (f" day {day}" if day else ""))


def write_keyed_csv(path, header: Sequence[str], names: Sequence[str], days,
                    series) -> None:
    """Write a keyed file: ``series`` yields the values of each series in
    layout order, written as rows of ``len(header) - 3`` fields.  Each series
    is formatted by one ``%`` operation on a row template repeated once per
    row; ``%.17g`` prints the same text as ``_fmt``."""
    width = len(header) - 3
    row = ",".join(["%.17g"] * width) + "\r\n"  # the row end of csv.writer
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for key, values in zip(keyed_layout(days, names), series, strict=True):
            values = np.ravel(values).tolist()
            fh.write((",".join(key) + "," + row) * (len(values) // width) % tuple(values))


def read_keyed_csv(path, header: Sequence[str], names: Sequence[str]) -> tuple:
    """Read a keyed file into (days, values): ``days`` inferred from the
    first quantity's keys, and a float array of each row's last field, the
    value, of shape (series, rows per series) in layout order, which holds
    each value once (``split_keyed`` splits it into quantities).  Series
    out of layout order, missing or of unequal length, and rows that do not
    parse raise ``DataError``, which names the line of the row at fault or
    of the series' first row.

    The fields between the key and the value (a trace's iteration) are
    checked, not kept: the first of them must increase strictly down the
    first series, and every series must repeat the first series' fields.
    ``_blocks`` parses the rows into three byte-string key fields and the
    numeric fields.  A series starts where a row's key differs from the row
    before it, the last key of a block carried over to the next; each
    block's values are appended to one buffer, and its leading fields are
    compared with the first series' before the next block is read.
    """
    path = Path(path)
    width = len(header) - 3
    # one byte wider than any key of the layout (a name, or at most 19
    # digits), so a key that loadtxt cuts to the field's width matches none
    dtype = np.dtype([("key", f"S{max(19, *map(len, names)) + 1}", 3),
                      ("value", "f8", (width,))])
    buf, series, last = array("d"), [], None
    first_lead, differ = array("d"), None  # first series' leading fields; first other series
    for rows, line_of in _blocks(path, header, dtype):
        keys = rows["key"]
        new = np.empty(len(rows), dtype=bool)
        new[0] = last is None or np.any(keys[0] != last)
        np.any(keys[1:] != keys[:-1], axis=1, out=new[1:])
        for r in np.flatnonzero(new).tolist():
            series.append((tuple(k.decode("latin-1") for k in keys[r].tolist()),
                           int(line_of[r]), len(buf) + r))
        if width > 1 and differ is None:
            lead = rows["value"][:, :-1]
            # the first series' rows in this block, and its length once it ends
            size = series[1][2] if len(series) > 1 else len(buf) + len(rows)
            first = min(max(size - len(buf), 0), len(rows))
            first_lead.frombytes(lead[:first].tobytes())
            ref = np.frombuffer(first_lead).reshape(-1, width - 1)
            # a later row's place in its series, were every series as long
            # as the first; when one is not, the length check fails first
            r = first
            while r < len(rows) and differ is None:
                place = (len(buf) + r) % size
                m = min(size - place, len(rows) - r)
                if np.any(lead[r:r + m] != ref[place:place + m]):
                    differ = (len(buf) + r) // size
                r += m
            del lead, ref  # a view of the block, and of first_lead, which grows
        last = keys[-1].copy()
        buf.frombytes(rows["value"][:, -1].tobytes())
        del rows, keys  # before the next block is read: one at a time
    if not series or series[0][0][0] != names[0]:
        raise DataError(f"{path}: expected {names[0]} rows first")
    keys, lines, starts = zip(*series)
    first = [key[1] for key in takewhile(lambda key: key[0] == names[0], keys)]
    days = np.array([len(list(run)) - 1 for _, run in groupby(first)], dtype=np.int64)
    layout = keyed_layout(days, names)
    k = next((k for k, (got, want) in enumerate(zip(keys, layout)) if got != want),
             min(len(keys), len(layout)))
    if k < len(keys):
        want = _key_text(layout[k]) if k < len(layout) else "the end of the file"
        raise DataError(f"{path} line {lines[k]}: {_key_text(keys[k])} is out of "
                        f"layout order, expected {want}")
    if k < len(layout):
        raise DataError(f"{path}: no rows for {_key_text(layout[k])}")
    sizes = np.diff(starts, append=len(buf))
    k = np.argmax(sizes != sizes[0])
    if sizes[k] != sizes[0]:
        raise DataError(f"{path} line {lines[k]}: {_key_text(keys[k])} has {sizes[k]} "
                        f"rows, expected {sizes[0]} as in the first series")
    if width > 1:
        lead = header[3]
        if not np.all(np.diff(np.frombuffer(first_lead)[::width - 1]) > 0):
            raise DataError(f"{path} line {lines[0]}: {lead}s are not strictly increasing")
        if differ is not None:
            raise DataError(f"{path} line {lines[differ]}: series {lead}s differ from those "
                            "of the first series")
    return days, np.frombuffer(buf).reshape(len(keys), sizes[0])
