"""Dataset structure, the propriety gate, configs, CSV interchange."""

import csv
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dir_sampler import (ConfigError, DataError, Dataset, ModelConstants,
                         SamplerConfig, initial_state, read_dataset_csv,
                         simulate_dataset, validate_dataset, write_dataset_csv)
from dir_sampler.model import (CLAUSE_DAYS, CLAUSE_MIXED, CLAUSE_MULTITEST_DAYS,
                               CLAUSE_N, CLAUSE_TEST_SHAPE, keyed_layout, write_keyed_csv)
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
