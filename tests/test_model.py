"""Dataset structure, the propriety gate, configs, CSV interchange."""

import csv
import re
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dir_sampler import (ConfigError, DataError, Dataset, ModelConstants,
                         SamplerConfig, initial_state, read_dataset_csv,
                         simulate_dataset, validate_dataset, write_dataset_csv)
from dir_sampler.model import (CLAUSE_DAYS, CLAUSE_MIXED, CLAUSE_MULTITEST_DAYS,
                               CLAUSE_N, CLAUSE_TEST_SHAPE, keyed_layout, read_keyed_csv,
                               write_keyed_csv)
from dir_sampler.simgen import SimConfig, paper_default_config

from conftest import build_dataset, proper_individual, traced_peak


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_rejects_nonpositive_lapse():
    with pytest.raises(DataError):
        build_dataset([proper_individual()], lapses=[[1.0, 0.0, 1.0]])


def test_rejects_nonbinary_response():
    with pytest.raises(DataError):
        build_dataset([[[[2, 0], [0, 1]]]])


@pytest.mark.parametrize("bad", [2, 256, -1, 0.5])
def test_rejects_nonbinary_response_before_narrowing(bad):
    # 256 would wrap to 0 in the uint8 response array
    with pytest.raises(DataError, match="0 or 1"):
        Dataset(days=[1], tests_per_day=[1], items_per_test=[2],
                response=np.array([1, bad]), difficulty=[0.0], lapse=[1.0], group=["g"])


def test_rejects_mismatched_difficulty_shape():
    with pytest.raises(DataError):
        build_dataset([[[[1, 0], [0, 1]]]], difficulties=[[[0.0]]])


def test_counts_and_offsets():
    data = build_dataset([proper_individual(2), proper_individual(3)])
    assert data.n_individuals == 2
    assert list(data.days) == [2, 3]
    assert data.n_days == 5
    assert data.n_tests == 10
    assert data.n_items == 20
    assert list(data.day_start) == [0, 2, 5]


def test_individual_prefix():
    """Every individual's first min(n_days, T_i) days, as if built from them."""
    responses = [[[[1, 0], [0]], [[1]], [[0, 1, 1], [1, 0], [0]], [[1, 1]]],
                 [[[0, 1]], [[1], [0, 0]]]]
    difficulties = [[[0.1 * (t + s) for s in range(len(day))] for t, day in enumerate(ind)]
                    for ind in responses]
    lapses = [[1.0 + t for t in range(len(ind))] for ind in responses]
    data = build_dataset(responses, difficulties, lapses, ["a", "b"])
    for n_days in (1, 2, 3, 4, 9):
        sub = data.individual_prefix(n_days)
        want = build_dataset([ind[:n_days] for ind in responses],
                             [ind[:n_days] for ind in difficulties],
                             [ind[:n_days] for ind in lapses], ["a", "b"])
        for name in ("days", "tests_per_day", "items_per_test", "response",
                     "difficulty", "lapse", "group"):
            assert np.array_equal(getattr(sub, name), getattr(want, name)), name
    with pytest.raises(DataError):
        data.individual_prefix(0)


# ---------------------------------------------------------------------------
# building from key columns
# ---------------------------------------------------------------------------

@st.composite
def random_dataset(draw):
    n = draw(st.integers(1, 4))
    individuals = []
    for _ in range(n):
        days = draw(st.integers(1, 3))
        block = []
        for _ in range(days):
            tests = draw(st.integers(1, 3))
            day = []
            for _ in range(tests):
                items = draw(st.integers(1, 3))
                day.append([draw(st.integers(0, 1)) for _ in range(items)])
            block.append(day)
        individuals.append(block)
    return individuals


def key_table(blocks):
    """Key-column rows (individual, day, test, item, response, difficulty)
    and lapse rows (individual, day, lapse) for nested response blocks; the
    difficulty and lapse of each test and day are distinct."""
    rows = [(i, t, s, l, r, i + 0.1 * t + 0.01 * s)
            for i, ind in enumerate(blocks) for t, day in enumerate(ind)
            for s, test in enumerate(day) for l, r in enumerate(test)]
    lapses = [(i, t, 1.0 + t + 0.5 * i)
              for i, ind in enumerate(blocks) for t in range(len(ind))]
    return rows, lapses


def from_tables(rows, lapses, groups):
    return Dataset.from_keys(*map(list, zip(*rows)), *map(list, zip(*lapses)), groups)


def assert_same_dataset(a, b):
    for name in ("days", "tests_per_day", "items_per_test", "response", "difficulty",
                 "lapse", "day_start", "test_start", "item_start"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.group == b.group


@given(random_dataset(), st.randoms())
@settings(max_examples=60, deadline=None)
def test_from_keys_matches_nested_build_in_any_row_order(blocks, rnd):
    rows, lapses = key_table(blocks)
    expected = build_dataset(
        blocks,
        difficulties=[[[i + 0.1 * t + 0.01 * s for s in range(len(day))]
                       for t, day in enumerate(ind)] for i, ind in enumerate(blocks)],
        lapses=[[1.0 + t + 0.5 * i for t in range(len(ind))]
                for i, ind in enumerate(blocks)],
        groups=[f"g{i}" for i in range(len(blocks))])
    rnd.shuffle(rows)
    rnd.shuffle(lapses)
    assert_same_dataset(from_tables(rows, lapses, [f"g{i}" for i in range(len(blocks))]),
                        expected)


def _edit(rows, index, **changes):
    names = ("individual", "day", "test", "item", "response", "difficulty")
    row = dict(zip(names, rows[index]))
    row.update(changes)
    return rows[:index] + [tuple(row[n] for n in names)] + rows[index + 1:]


# two individuals x 3 days x 2 tests x 2 items; rows[3] is (0, 0, 1, 1)
BLOCKS = [proper_individual(), proper_individual()]


@pytest.mark.parametrize("edit, message", [
    (lambda r, l: (r + [r[5]], l),
     "duplicate response row for individual 1 day 2 test 1 item 2"),
    (lambda r, l: (_edit(r, 3, item=2), l), "no item 2 for individual 1 day 1 test 2"),
    (lambda r, l: ([x[:2] + (2,) + x[3:] if x[:3] == (0, 0, 1) else x for x in r], l),
     "no test 2 for individual 1 day 1"),
    (lambda r, l: ([x[:1] + (3,) + x[2:] if x[:2] == (0, 2) else x for x in r],
                   [(0, 3, x) if (i, t) == (0, 2) else (i, t, x) for i, t, x in l]),
     "no day 3 for individual 1"),
    (lambda r, l: ([(2,) + x[1:] if x[0] == 1 else x for x in r],
                   [(2, t, x) if i == 1 else (i, t, x) for i, t, x in l]),
     "no individual 2"),
    (lambda r, l: (_edit(r, 0, day=-1), l), "response keys must be >= 0"),
    (lambda r, l: (_edit(r, 3, difficulty=9.0), l),
     "inconsistent difficulty for individual 1 day 1 test 2"),
    (lambda r, l: (r, l[1:]), "lapse rows not dense: no day 1 for individual 1"),
    (lambda r, l: (r, [x for x in l if x[0] == 0]), "missing lapse for individual 2 day 1"),
    (lambda r, l: (r, l[:-1]), "missing lapse for individual 2 day 3"),
    (lambda r, l: (r, l + [(0, 3, 1.0)]),
     "lapse row for individual 1 day 4 has no responses"),
    (lambda r, l: (r, l + [l[2]]), "duplicate lapse row for individual 1 day 3"),
])
def test_from_keys_rejects_malformed_keys(edit, message):
    rows, lapses = edit(*key_table(BLOCKS))
    with pytest.raises(DataError, match=message):
        from_tables(rows, lapses, ["g", "g"])


def test_from_keys_rejects_empty_columns():
    with pytest.raises(DataError, match="no responses"):
        Dataset.from_keys([], [], [], [], [], [], [], [], [], [])


def test_from_keys_rejects_group_count_mismatch():
    rows, lapses = key_table(BLOCKS)
    with pytest.raises(DataError, match="group"):
        from_tables(rows, lapses, ["g"])


# ---------------------------------------------------------------------------
# propriety gate
# ---------------------------------------------------------------------------

def clauses(report):
    return [clause for clause, _ in report.failures]


def test_gate_fails_single_individual():
    report = validate_dataset(build_dataset([proper_individual()]))
    assert not report.passed
    assert CLAUSE_N in clauses(report)


def test_gate_passes_reference_simulation():
    data, _ = simulate_dataset(paper_default_config(seed=0))
    assert validate_dataset(data).passed


def test_gate_fails_all_correct_responses():
    all_correct = [[[1, 1], [1, 1]] for _ in range(3)]
    report = validate_dataset(build_dataset([all_correct, all_correct]))
    assert not report.passed
    assert CLAUSE_MIXED in clauses(report)


def test_gate_fails_single_day():
    data = build_dataset([[mixed := [[1, 0], [0, 1]]], [mixed, mixed]])
    report = validate_dataset(data)
    assert not report.passed
    assert CLAUSE_DAYS in clauses(report)


def test_gate_fails_single_test_days():
    one_test = [[[1, 0, 1]], [[0, 1, 1]], [[1, 0, 0]]]
    report = validate_dataset(build_dataset([one_test, proper_individual()]))
    assert not report.passed
    assert CLAUSE_MULTITEST_DAYS in clauses(report)
    assert CLAUSE_TEST_SHAPE in clauses(report)  # sum S - (T+1) = 3 - 4 < 0


def test_gate_shape_clause_needs_enough_tests():
    # T=2, with S=(2,1): two mixed tests exist only on one day
    ind = [[[1, 0], [0, 1]], [[1, 0]]]
    report = validate_dataset(build_dataset([ind, proper_individual()]))
    assert not report.passed
    assert CLAUSE_MULTITEST_DAYS in clauses(report)


@given(random_dataset(), st.randoms())
@settings(max_examples=60, deadline=None)
def test_gate_verdict_invariant_under_permutation(blocks, rnd):
    data = build_dataset(blocks)
    before = validate_dataset(data)
    order = list(range(len(blocks)))
    rnd.shuffle(order)
    permuted = build_dataset([blocks[i] for i in order])
    after = validate_dataset(permuted)
    assert before.passed == after.passed
    assert sorted(set(c for c, _ in before.failures)) == \
        sorted(set(c for c, _ in after.failures))


def test_gate_is_pure():
    data = build_dataset([proper_individual(), proper_individual()])
    r1 = validate_dataset(data)
    r2 = validate_dataset(data)
    assert r1 == r2


# ---------------------------------------------------------------------------
# constants and sampler config
# ---------------------------------------------------------------------------

def test_constants_validation():
    good = dict(sigma=0.7, rho=0.1, delta_tmax=14.0, group_prior={"g": (0.0, 1.0)})
    ModelConstants(**good)
    for key, val in (("sigma", 0.0), ("rho", -1.0), ("delta_tmax", 0.0)):
        with pytest.raises(ConfigError):
            ModelConstants(**{**good, key: val})
    with pytest.raises(ConfigError):
        ModelConstants(**{**good, "group_prior": {"g": (0.0, 0.0)}})


def test_sampler_config_validation():
    SamplerConfig(n_iterations=100, burn_in=50, thin=5, seed=1)
    with pytest.raises(ConfigError):
        SamplerConfig(n_iterations=100, burn_in=100, thin=5)
    with pytest.raises(ConfigError):
        SamplerConfig(n_iterations=100, burn_in=50, thin=0)
    with pytest.raises(ConfigError):
        SamplerConfig(n_iterations=100, burn_in=50, thin=7)  # 50 not divisible by 7
    with pytest.raises(ConfigError):
        SamplerConfig(n_iterations=100, burn_in=50, thin=5, mode="online")
    SamplerConfig(n_iterations=100, burn_in=50, thin=5, mode="online",
                  fixed_drift_sd=0.0612)
    with pytest.raises(ConfigError, match="only in online mode"):
        SamplerConfig(n_iterations=100, burn_in=50, thin=5, fixed_drift_sd=0.0612)
    with pytest.raises(ConfigError):
        SamplerConfig(mode="streaming")


def test_initial_state_protocol_values():
    data = build_dataset([proper_individual(), proper_individual()])
    state = initial_state(data)
    assert np.all(state.theta == 0.0)
    assert np.all(state.growth == 0.0)
    assert state.drift_precision == 1.0
    assert np.all(state.day_effect == 0.0)
    assert np.all(state.test_effect == 0.0)
    assert np.all(state.day_effect_precision == 1.0)
    assert np.all(state.test_effect_precision == 1.0)
    assert np.all(state.ks_scale == 1.0)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_dataset_csv_round_trip(tmp_path):
    data, _ = simulate_dataset(paper_default_config(seed=3))
    write_dataset_csv(data, tmp_path)
    back = read_dataset_csv(tmp_path)
    assert np.array_equal(back.response, data.response)
    assert np.array_equal(back.difficulty, data.difficulty)
    assert np.array_equal(back.lapse, data.lapse)
    assert np.array_equal(back.days, data.days)
    assert np.array_equal(back.tests_per_day, data.tests_per_day)
    assert np.array_equal(back.items_per_test, data.items_per_test)
    assert back.group == data.group


def test_read_rejects_inconsistent_difficulty(tmp_path):
    data = build_dataset([proper_individual(), proper_individual()])
    write_dataset_csv(data, tmp_path)
    lines = (tmp_path / "responses.csv").read_text().splitlines()
    parts = lines[1].split(",")
    parts[-1] = "3.5"
    lines[1] = ",".join(parts)
    (tmp_path / "responses.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError):
        read_dataset_csv(tmp_path)


FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e308, -1e308,
                     1.7976931348623157e308, 3.0, -7.0, 2.0 ** 53 + 2]),
    st.integers(-2 ** 60, 2 ** 60).map(float),
    st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=4), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_write_keyed_csv_matches_per_value_formatting(tmp_path_factory, days, width, data):
    """The row-template writer prints what per-value ``format(x, ".17g")``
    with csv.writer row ends prints, for ragged days and 1-3 values a row."""
    names = ("a", "b", "c", "d", "e")
    header = ("quantity", "individual", "day", *(f"v{j}" for j in range(width)))
    keys = keyed_layout(days, names)
    rows = st.integers(1, 3).flatmap(lambda r: st.lists(FINITE, min_size=r * width,
                                                        max_size=r * width))
    series = [np.reshape(data.draw(rows), (-1, width)) for _ in keys]
    path = tmp_path_factory.mktemp("keyed") / "keyed.csv"
    write_keyed_csv(path, header, names, days, series)
    want = [",".join(header)] + [",".join([*key, *(format(x, ".17g") for x in row)])
                                 for key, rows in zip(keys, series) for row in rows.tolist()]
    assert path.read_bytes() == "".join(line + "\r\n" for line in want).encode()


def test_read_dataset_csv_memory_is_bounded_by_its_columns(tmp_path):
    """The reader holds at most one block of rows as text: its peak stays
    within 3x the parsed int64/float64 columns plus one block of text."""
    n, days = 100, 25
    data, _ = simulate_dataset(SimConfig(
        n_individuals=n, days=days, tests_per_day=2, items_per_test=10,
        growth=np.full(n, 0.004), day_effect_precision=np.full(n, 1.5),
        test_effect_precision=np.full(n, 3.0), drift_precision=400.0, sigma=0.7333,
        rho=0.118, delta_tmax=14.0, lapse_table=np.full((n, days), 4.0), seed=0))
    assert data.n_items >= 50_000
    write_dataset_csv(data, tmp_path)
    columns = 8 * (6 * data.n_items + 3 * data.n_days + data.n_individuals)

    def one_block():  # the reader parses 8192 rows at a time
        with (tmp_path / "responses.csv").open(newline="") as fh:
            return list(enumerate(islice(csv.reader(fh), 8192)))
    _, block = traced_peak(one_block)
    back, peak = traced_peak(read_dataset_csv, tmp_path)
    assert np.array_equal(back.response, data.response)
    assert peak <= 3 * columns + block


# The keyed reader parses 8,192 lines at a time.  One individual with 11
# days makes 16 series; at 1,100 rows a series, the file's data lines 2 to
# 17,601 span three blocks, and line 17,000 lies in the third.
KEYED_HEADER = ("quantity", "individual", "day", "iteration", "value")
KEYED_NAMES = ("theta", "growth", "day_effect_precision", "test_effect_precision",
               "drift_precision")


def keyed_file(path, rows, edit=lambda lines: lines):
    """Write a keyed file of ``rows`` rows a series, then apply ``edit`` to
    its list of text lines (line n is ``lines[n - 1]``; a lone surrogate
    writes an undecodable byte).  Every series lists iterations 1 to
    ``rows``; returns the values written, shape (16, rows)."""
    values = np.arange(16 * rows, dtype=float).reshape(16, rows) / 8
    iterations = np.broadcast_to(np.arange(1.0, rows + 1), values.shape)
    write_keyed_csv(path, KEYED_HEADER, KEYED_NAMES, [11], np.stack([iterations, values], -1))
    lines = edit(path.read_text().splitlines())
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))
    return values


def read_keyed(path):
    return read_keyed_csv(path, KEYED_HEADER, KEYED_NAMES)


def set_line(n, text):
    return lambda lines: lines[:n - 1] + [text] + lines[n:]


@pytest.mark.parametrize("rows", [512, 1024, 1100],
                         ids=["one-block", "two-full-blocks", "three-blocks"])
def test_read_keyed_csv_reads_every_block(tmp_path, rows):
    """Files of exactly one and two full blocks, and one ending in a part block."""
    values = keyed_file(tmp_path / "keyed.csv", rows)
    days, back, lines = read_keyed(tmp_path / "keyed.csv")
    assert days.tolist() == [11]
    assert np.array_equal(back, values)
    assert list(lines) == list(range(2, 2 + 16 * rows, rows))


def quote_every_field(line):
    return ",".join(f'"{field}"' for field in line.split(","))


def test_read_keyed_csv_skips_blank_lines_and_reads_quoted_fields(tmp_path):
    """Blank lines (LF, CR LF and CR), a whole block of them included, are
    skipped, and quoted fields are read, as the csv module reads them;
    series lines stay true."""
    values = keyed_file(tmp_path / "keyed.csv", 1100)

    def edit(lines):  # "\r\r" writes a blank CR line, then a blank CR LF line
        lines = [quote_every_field(line) if k % 7 == 0 else line
                 for k, line in enumerate(lines)]
        return lines[:3] + ["", "\r\r"] + lines[3:9000] + [""] * 8192 + lines[9000:]
    keyed_file(tmp_path / "blank.csv", 1100, edit)
    _, back, lines = read_keyed(tmp_path / "blank.csv")
    assert np.array_equal(back, values)
    want = [line + 3 * (line > 3) + 8192 * (line > 9000) for line in range(2, 17602, 1100)]
    assert list(lines) == want


def test_read_keyed_csv_reads_a_last_block_of_one_line(tmp_path):
    """One blank line pushes the last row into a block of its own."""
    values = keyed_file(tmp_path / "keyed.csv", 1024)
    keyed_file(tmp_path / "blank.csv", 1024, lambda lines: lines[:3] + [""] + lines[3:])
    _, back, lines = read_keyed(tmp_path / "blank.csv")
    assert np.array_equal(back, values)
    assert list(lines) == [2] + list(range(1027, 16386, 1024))


@pytest.mark.parametrize("edit, message", [
    (set_line(17000, "theta,1,11,x,0.5"),
     "line 17000: iteration 'x' is not a number"),
    (set_line(17000, "theta,1,11"), "line 17000: expected 5 fields, got 3"),
    (set_line(8193, "theta,1,7,1,2,3"), "line 8193: expected 5 fields, got 6"),
    (set_line(2, "theta,1,0,0.5,y"), "line 2: value 'y' is not a number"),
    (lambda ls: ls[:10] + [""] * 9000 + set_line(17000, "theta,1,11,x,0.5")(ls)[10:],
     "line 26000: iteration 'x' is not a number"),
    (lambda ls: ls[:10] + ["", ""] + set_line(12000, "theta,1,9,1,2")(ls)[10:],
     "line 12002: theta individual 1 day 9 is out of layout order, "
     "expected theta individual 1 day 11"),
    (set_line(300, "#theta,1,0,1,2"),
     "line 300: #theta individual 1 day 0 is out of layout order"),
    (set_line(15402, "test_effect_precisionx,1,,1,2"),
     "line 15402: test_effect_precisionx individual 1 is out of layout order"),
    (set_line(15402, "test_effect_precision" + "x" * 20 + ",1,,1,2"),
     "line 15402: test_effect_precisionx individual 1 is out of layout order"),
    (set_line(17000, "theta\0,1,11,1,2"), "line 17000: NUL character"),
    (lambda ls: set_line(17000, 'theta,1,11,"1')(ls)[:17000] + ['",2'] + ls[17000:],
     "line 17000: a quoted field spans lines"),
    (set_line(17000, "th\u20acta,1,11,1,2"),
     "line 17000: quantity 'th\u20acta' is not Latin-1 text"),
    (set_line(17000, "theta,1,11,1,\udcff"), "keyed.csv: 'utf-8' codec can't decode byte 0xff"),
], ids=["bad-value", "short-row", "long-row-ending-a-block", "bad-value-first-line",
        "bad-value-after-a-block-of-blank-lines", "out-of-order-after-blank-lines",
        "comment", "over-long-key", "key-beyond-the-field-width", "nul", "quoted-line-break",
        "key-beyond-latin-1", "undecodable"])
def test_read_keyed_csv_names_the_line_at_fault(tmp_path, edit, message):
    keyed_file(tmp_path / "keyed.csv", 1100, edit)
    with pytest.raises(DataError, match=re.escape(message)):
        read_keyed(tmp_path / "keyed.csv")


@pytest.mark.parametrize("rows, line, iteration, message", [
    (1100, 17000, "500", "line 16502: series iterations differ from those of the first series"),
    (9000, 9001, "9000.5", "line 9002: series iterations differ from those of the first series"),
    (9000, 9001, "8999", "line 2: iterations are not strictly increasing"),
], ids=["later-series-in-a-later-block", "first-series-across-blocks",
        "first-series-decreasing-in-a-later-block"])
def test_read_keyed_csv_checks_iterations_against_the_first_series(tmp_path, rows, line,
                                                                    iteration, message):
    """The reader keeps only values, but checks every row's iteration
    against the first series' iteration at the same place, block by block:
    line 17,000 is row 499 of the last series, in the third block; with
    9,000 rows a series, line 9,001 is row 9,000 of the first series, in
    the second block."""
    def edit(lines):
        parts = lines[line - 1].split(",")
        parts[3] = iteration
        return lines[:line - 1] + [",".join(parts)] + lines[line:]
    keyed_file(tmp_path / "keyed.csv", rows, edit)
    with pytest.raises(DataError, match=re.escape(message)):
        read_keyed(tmp_path / "keyed.csv")


# ---------------------------------------------------------------------------
# Dataset files on the same block reader
# ---------------------------------------------------------------------------

def blocky_responses(path, edit=lambda lines: lines):
    """Apply ``edit`` to responses.csv's text lines, quote every field of
    every 7th line, and insert blank lines (LF, CR, CR LF, then a whole
    block of LF): line n > 3 moves to n + 3, and n > 9,000 to n + 8,195."""
    lines = edit(path.read_text().splitlines())
    lines = [quote_every_field(line) if k % 7 == 0 else line for k, line in enumerate(lines)]
    lines = lines[:3] + ["", "\r\r"] + lines[3:9000] + [""] * 8192 + lines[9000:]
    path.write_text("".join(line + "\n" for line in lines))


def test_read_dataset_csv_reads_every_block_blank_lines_and_quoted_fields(tmp_path):
    data, _ = simulate_dataset(paper_default_config(seed=3))  # 20,000 responses
    write_dataset_csv(data, tmp_path)
    blocky_responses(tmp_path / "responses.csv")
    back = read_dataset_csv(tmp_path)
    assert np.array_equal(back.response, data.response)
    assert np.array_equal(back.difficulty, data.difficulty)
    assert np.array_equal(back.items_per_test, data.items_per_test)
    assert np.array_equal(back.tests_per_day, data.tests_per_day)


def test_read_dataset_csv_names_the_true_line_past_the_first_block(tmp_path):
    data, _ = simulate_dataset(paper_default_config(seed=3))
    write_dataset_csv(data, tmp_path)

    def bad_response(lines):
        fields = lines[11999].split(",")
        fields[4] = "x"
        return set_line(12000, ",".join(fields))(lines)
    blocky_responses(tmp_path / "responses.csv", bad_response)
    with pytest.raises(DataError, match=re.escape(
            "responses.csv line 20195: response 'x' is not an integer")):
        read_dataset_csv(tmp_path)


def test_group_labels_round_trip_as_text(tmp_path):
    labels = ["a,b", 'say "hi"', "  spaced  ", "a label of more than 19 characters", ""]
    write_dataset_csv(build_dataset([proper_individual()] * 5, groups=labels), tmp_path)
    assert read_dataset_csv(tmp_path).group == tuple(labels)


@pytest.mark.parametrize("text, message", [
    ("2,g\0", "groups.csv line 3: NUL character"),
    ('2,"g\nh"', "groups.csv line 3: a quoted field spans lines"),
], ids=["nul", "quoted-line-break"])
def test_group_label_that_is_not_one_line_of_text_names_the_line(tmp_path, text, message):
    write_dataset_csv(build_dataset([proper_individual()] * 2), tmp_path)
    path = tmp_path / "groups.csv"
    lines = path.read_text().splitlines()
    lines[2] = text
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(DataError, match=re.escape(message)):
        read_dataset_csv(tmp_path)
