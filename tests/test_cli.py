"""The dir-sampler command line: exit codes and messages for malformed input,
multi-chain pooling, manifests, coverage scoring, and the benchmark's span
tracer run on the CLI."""

import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import dir_sampler
from dir_sampler import cli, inference, write_dataset_csv
from dir_sampler.model import split_keyed

from conftest import build_dataset, proper_individual


@pytest.fixture
def data_dir(tmp_path):
    """Two individuals x 3 days x 2 tests x 2 items, passing the gate."""
    path = tmp_path / "data"
    write_dataset_csv(build_dataset([proper_individual(), proper_individual()]), path)
    return path


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().err


def replace_field(path, line, field, text):
    """Set one field of a 1-based line of a CSV file."""
    lines = path.read_text().splitlines()
    parts = lines[line - 1].split(",")
    parts[field] = text
    lines[line - 1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


def test_validate_accepts_written_dataset(data_dir, capsys):
    code, _ = run(capsys, "validate", data_dir)
    assert code == 0


@pytest.mark.parametrize("command", ["validate", "fit"])
def test_propriety_gate_failure_exits_2(tmp_path, capsys, command):
    data_dir = tmp_path / "one"
    write_dataset_csv(build_dataset([proper_individual()]), data_dir)
    extra = ["-o", tmp_path / "out"] if command == "fit" else []
    code, err = run(capsys, command, data_dir, *extra)
    assert code == 2
    assert "dataset fails the propriety gate" in err and "n ≥ 2 (n = 1)" in err


@pytest.mark.parametrize("file, line, field, text, message", [
    ("responses.csv", 3, 0, "x", "individual 'x' is not an integer"),
    ("responses.csv", 5, 2, "1.0", "test '1.0' is not an integer"),
    ("responses.csv", 2, 4, "y", "response 'y' is not an integer"),
    ("responses.csv", 4, 5, "hard", "difficulty 'hard' is not a number"),
    ("lapses.csv", 3, 2, "soon", "lapse_days 'soon' is not a number"),
    ("groups.csv", 2, 0, "one", "individual 'one' is not an integer"),
    ("responses.csv", 7, 1, "0", "day must be >= 1, got 0"),
    ("lapses.csv", 2, 0, "-1", "individual must be >= 1, got -1"),
])
def test_malformed_field_names_file_and_line(data_dir, capsys, file, line, field, text,
                                             message):
    replace_field(data_dir / file, line, field, text)
    code, err = run(capsys, "validate", data_dir)
    assert code == 1
    assert f"{file} line {line}: {message}" in err


def test_row_with_day_zero_is_an_error_not_dropped(data_dir, capsys):
    with (data_dir / "responses.csv").open("a") as fh:
        fh.write("1,0,1,1,1,0\n")
    code, err = run(capsys, "validate", data_dir)
    assert code == 1
    assert "responses.csv line 26: day must be >= 1, got 0" in err


def test_short_row_names_file_and_line(data_dir, capsys):
    path = data_dir / "responses.csv"
    lines = path.read_text().splitlines()
    lines[3] = "1,1,2,2,1"
    path.write_text("\n".join(lines) + "\n")
    code, err = run(capsys, "validate", data_dir)
    assert code == 1
    assert "responses.csv line 4: expected 6 fields, got 5" in err


def test_response_out_of_uint8_range_is_an_error(data_dir, capsys):
    replace_field(data_dir / "responses.csv", 2, 4, "256")
    code, err = run(capsys, "validate", data_dir)
    assert code == 1
    assert "responses must be 0 or 1" in err


@pytest.mark.parametrize("command", ["validate", "fit"])
def test_missing_dataset_file_is_a_config_error(data_dir, capsys, tmp_path, command):
    (data_dir / "responses.csv").unlink()
    extra = ["-o", tmp_path / "out"] if command == "fit" else []
    code, err = run(capsys, command, data_dir, *extra)
    assert code == 3
    assert "missing dataset file" in err and "responses.csv" in err



SHORT_FIT = ("--iterations", 12, "--burn-in", 4, "--thin", 2)


@pytest.mark.parametrize("argv, config, named", [
    (("fit", *SHORT_FIT), {"iterations": "abc"}, "iterations"),
    (("fit", "--burn-in", 2, "--thin", 1), {"iterations": 10.7}, "iterations"),
    (("fit", "--burn-in", 0, "--thin", 1), {"iterations": True}, "iterations"),
    (("fit", *SHORT_FIT), {"chains": "two"}, "chains"),
    (("fit", *SHORT_FIT), {"chains": 1.5}, "chains"),
    (("fit", *SHORT_FIT), {"sigma": "x"}, "sigma"),
    (("fit", *SHORT_FIT), {"rho": None}, "rho"),
    (("fit", *SHORT_FIT), {"group_prior": {"g": 5}}, "group_prior"),
    (("fit", *SHORT_FIT), {"group_prior": {"g": [0, 1, 2]}}, "group_prior"),
    (("online", *SHORT_FIT), {"drift_sd": "x"}, "drift_sd"),
    (("fit", *SHORT_FIT, "--seed", -1), None, "seed"),
    (("simulate", "--paper-defaults", "--seed", -1), None, "seed"),
    (("simulate", "--paper-defaults"), {"growth": "x"}, "'x'"),
    (("simulate", "--paper-defaults"), {"days": "x"}, "days"),
    (("simulate", "--paper-defaults"), {"difficulty_halfwidth": -1}, "difficulty_halfwidth"),
    (("simulate", "--paper-defaults"), {"difficulty_halfwidth": 1e400}, "difficulty_halfwidth"),
    (("simulate", "--paper-defaults"), {"drift_precision": 1e400}, "drift_precision"),
    (("simulate", "--paper-defaults"), {"sigma": 1e400}, "sigma"),
    (("simulate", "--paper-defaults"), {"rho": 1e400}, "rho"),
    (("simulate", "--paper-defaults"), {"delta_tmax": 1e400}, "delta_tmax"),
    (("simulate", "--paper-defaults"), {"init_var": 1e400}, "init_var"),
    (("simulate", "--paper-defaults"), {"init_mean": 1e400}, "init_mean"),
    (("simulate", "--paper-defaults"), {"growth": [1e400] * 10}, "growth"),
    (("simulate", "--paper-defaults"), {"day_effect_precision": [1e400] * 10},
     "day_effect_precision"),
    (("simulate", "--paper-defaults"), {"test_effect_precision": [1e400] * 10},
     "test_effect_precision"),
    (("simulate", "--paper-defaults"), {"lapse_table": [[1e400] * 50] * 10}, "lapse_table"),
    (("fit", *SHORT_FIT), {"delta_tmax": 1e400}, "delta_tmax"),
    (("fit", *SHORT_FIT, "--drift-sd", 0.05), None, "drift_sd"),
    (("fit", *SHORT_FIT), {"drift_sd": 0.05}, "drift_sd"),
    (("online", *SHORT_FIT, "--drift-sd", 1e-200), None, "drift_sd"),
    (("online", *SHORT_FIT, "--drift-sd", 1e200), None, "drift_sd"),
    (("fit", *SHORT_FIT), {"group_prior": [1, 2]}, "group_prior"),
    (("fit", *SHORT_FIT), {"group_prior": "abc"}, "group_prior"),
    (("fit", *SHORT_FIT), {"sigma": 1e200}, "sigma"),
    (("online", *SHORT_FIT, "--drift-sd", 0.05), {"sigma": 1e200}, "sigma"),
    (("simulate", "--paper-defaults"), {"difficulty_halfwidth": 1e308},
     "difficulty_halfwidth"),
    (("fit", *SHORT_FIT), {"group_prior": {"g": [0, 1e-320]}}, "group 'g'"),
    (("fit", *SHORT_FIT), {"group_prior": {"g": [1e300, 1e-10]}}, "group 'g'"),
    (("fit", *SHORT_FIT), {"rho": 1e-320}, "rho"),
    (("fit", *SHORT_FIT), {"rho": 1e-310}, "rho"),
    (("fit", *SHORT_FIT), {"delta_tmax": 1e-320}, "delta_tmax"),
])
def test_malformed_config_value_is_a_config_error(data_dir, tmp_path, capsys, argv,
                                                  config, named):
    """A config or seed value of the wrong type or sign, an infinite one
    (JSON 1e400), a drift sd whose precision 1/sd^2 is 0 or infinite, a
    group prior whose precision 1/v or mean/v overflows, a rho whose 1/rho
    or a delta_tmax whose 1/delta_tmax^2 overflows, a sigma whose
    square or a difficulty halfwidth whose double overflows, or a
    drift sd outside on-line mode, where the chain would learn it instead,
    ends in exit 3 with a message naming it: no traceback, no silent
    truncation to an integer, and no value recorded but unused."""
    command, *flags = argv
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        flags += ["--config", tmp_path / "cfg.json"]
    data = [] if command == "simulate" else [data_dir]
    code, err = run(capsys, command, *data, *flags, "-o", tmp_path / "out")
    assert code == 3
    assert err.startswith("config error:") and named in err

def write_traces(path, header, rows):
    path.mkdir(parents=True, exist_ok=True)
    (path / "traces.csv").write_text("\n".join([header, *rows]) + "\n", encoding="latin-1")


def test_summarize_rejects_bad_traces_header(tmp_path, capsys):
    write_traces(tmp_path / "fit", "quantity,individual,day,value", ["theta,1,0,0.5"])
    code, err = run(capsys, "summarize", tmp_path / "fit")
    assert code == 1
    assert "traces.csv: expected header quantity,individual,day,iteration,value" in err


def test_summarize_rejects_undecodable_traces(tmp_path, capsys):
    write_traces(tmp_path / "fit", "quantity,individual,day,iteration,value",
                 ["theta,1,0,1,\xff"])
    code, err = run(capsys, "summarize", tmp_path / "fit")
    assert code == 1
    assert "traces.csv: 'utf-8' codec can't decode byte 0xff" in err


@pytest.mark.parametrize("row, line", [("theta,1,0,x,0.5", 3), ("theta,1,0", 3),
                                       ("theta,1,zero,3,0.5", 3)])
def test_summarize_rejects_bad_traces_row(tmp_path, capsys, row, line):
    write_traces(tmp_path / "fit", "quantity,individual,day,iteration,value",
                 ["theta,1,0,1,0.5", row])
    code, err = run(capsys, "summarize", tmp_path / "fit")
    assert code == 1
    assert f"traces.csv line {line}:" in err


def test_summarize_rejects_missing_series(tmp_path, capsys):
    write_traces(tmp_path / "fit", "quantity,individual,day,iteration,value",
                 ["theta,1,0,1,0.5", "theta,1,1,1,0.7"])
    code, err = run(capsys, "summarize", tmp_path / "fit")
    assert code == 1
    assert "traces.csv: no rows for growth individual 1" in err


def test_summarize_makes_its_output_directory_before_reading_traces(tmp_path, capsys):
    write_traces(tmp_path / "fit", "quantity,individual,day,iteration,value",
                 ["theta,1,0,x,0.5"])
    (tmp_path / "file").write_text("")
    code, err = run(capsys, "summarize", tmp_path / "fit", "-o", tmp_path / "file" / "out")
    assert code == 1
    assert str(tmp_path / "file" / "out") in err and "line 2" not in err


def test_summarize_rewrites_the_fit_summary_byte_for_byte(data_dir, tmp_path, capsys):
    fit_dir = tmp_path / "fit"
    code, _ = run(capsys, "fit", data_dir, "--iterations", 30, "--burn-in", 10,
                  "--thin", 2, "--seed", 3, "-o", fit_dir)
    assert code == 0
    code, _ = run(capsys, "summarize", fit_dir, "-o", tmp_path / "again")
    assert code == 0
    assert ((tmp_path / "again" / "summary.csv").read_bytes()
            == (fit_dir / "summary.csv").read_bytes())


@pytest.fixture
def fit_dir(data_dir, tmp_path, capsys):
    path = tmp_path / "fit"
    code, _ = run(capsys, "fit", data_dir, "--iterations", 30, "--burn-in", 10,
                  "--thin", 2, "--seed", 3, "-o", path)
    assert code == 0
    return path


def truth_lines():
    """A well-formed truth.csv for the two individuals x 3 days of data_dir."""
    lines = ["quantity,individual,day,value"]
    lines += [f"theta,{i},{t},0.{t}" for i in (1, 2) for t in range(4)]
    lines += [f"{name},{i},,1.5" for name in ("growth", "day_effect_precision",
                                              "test_effect_precision") for i in (1, 2)]
    return lines + ["drift_precision,,,400"]


def test_summarize_scores_coverage_with_truth(fit_dir, capsys):
    (fit_dir / "truth.csv").write_text("\n".join(truth_lines()) + "\n")
    code, _ = run(capsys, "summarize", fit_dir)
    assert code == 0
    assert (fit_dir / "coverage.csv").read_text().startswith("individual,coverage\n")


def test_summarize_prints_the_coverage_of_each_parameter_quantity(tmp_path, capsys):
    """Under the joint parameter coverage, summarize prints the share of each
    parameter quantity's series whose 95% interval holds the truth.  With
    constant draws each interval is one point: the truth, or a miss."""
    theta = np.tile([0.0, 0.1, 0.2, 0.3], 2)  # truth_lines' abilities
    # growth 1.5 and 2 (a miss), both day sds and the drift sd at the truth,
    # both test sds at 1 (misses)
    params = [1.5, 2.0, 1.5 ** -0.5, 1.5 ** -0.5, 1.0, 1.0, 400.0 ** -0.5]
    draws = np.repeat(np.concatenate([theta, params])[:, None], 4, axis=1)
    fit = tmp_path / "fit"
    fit.mkdir()
    inference.write_traces_csv(inference.ChainOutput(
        draws=draws, quantiles=inference.summarize(draws), days=np.array([3, 3]),
        n_iterations=4, burn_in=0, thin=1, wall_time=0.0, ks_accept_rate=1.0,
        guard_redraws=0), fit / "traces.csv")
    (fit / "truth.csv").write_text("\n".join(truth_lines()) + "\n")
    assert cli.main(["summarize", str(fit)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "  overall: 100.0%" in out
    at = out.index("parameter coverage: 57.14%")  # 4 of 7
    assert out[at + 1:] == ["  growth: 50.00%", "  day_effect_sd: 100.00%",
                            "  test_effect_sd: 0.00%", "  drift_sd: 100.00%"]


@pytest.mark.parametrize("edit, message", [
    (lambda ls: ls[:6] + ["growth,1"] + ls[6:], "line 7: expected 4 fields, got 2"),
    (lambda ls: ls[:3] + ["theta,1,2,abc"] + ls[4:], "line 4: value 'abc' is not a number"),
    (lambda ls: ls[:3] + ["theta,x,2,0.5"] + ls[4:],
     "line 4: theta individual x day 2 is out of layout order"),
    (lambda ls: ls[:9] + ["growth,1,,y"] + ls[10:], "line 10: value 'y' is not a number"),
    (lambda ls: ls[:5] + ls[3:4] + ls[5:],
     "line 6: theta individual 1 day 2 is out of layout order"),
    (lambda ls: ls[:6] + ls[7:], "line 7: theta individual 2 day 2 is out of layout order, "
                                 "expected theta individual 2 day 1"),
    (lambda ls: ls[:10] + ls[9:], "line 10: growth individual 1 has 2 rows, expected 1"),
    (lambda ls: [], "truth.csv: expected header quantity,individual,day,value"),
    (lambda ls: ls[:8] + ls[9:], "theta days per individual [3, 2] do not match"),
    (lambda ls: ls[:11] + ["growth,3,,1.5"] + ls[11:],
     "line 12: growth individual 3 is out of layout order, "
     "expected day_effect_precision individual 1"),
    (lambda ls: ls + [line.replace(",2,", ",3,", 1) for line in ls
                      if line.split(",")[1:2] == ["2"]],
     "line 17: theta individual 3 day 0 is out of layout order, "
     "expected the end of the file"),
    (lambda ls: ls[:3] + ["theta,1,2,\xff"] + ls[4:], "'utf-8' codec can't decode byte 0xff"),
], ids=["short-row", "bad-value", "bad-key", "bad-growth-value", "duplicate-theta",
        "missing-theta-day", "duplicate-growth", "empty-file", "missing-last-theta-day",
        "third-individual-growth", "third-individual", "undecodable"])
def test_summarize_rejects_bad_truth(fit_dir, capsys, edit, message):
    lines = edit(truth_lines())
    (fit_dir / "truth.csv").write_text("".join(line + "\n" for line in lines),
                                       encoding="latin-1")
    code, err = run(capsys, "summarize", fit_dir)
    assert code == 1
    assert "truth.csv" in err and message in err


def swap(lines, a, b, n):
    """Swap the ``n`` lines starting at 1-based lines ``a`` and ``b`` >= a + n."""
    a, b = a - 1, b - 1
    return lines[:a] + lines[b:b + n] + lines[a + n:b] + lines[a:a + n] + lines[b + n:]


def set_iteration(lines, line, iteration):
    parts = lines[line - 1].split(",")
    parts[3] = iteration
    return lines[:line - 1] + [",".join(parts)] + lines[line:]


# fit_dir keeps 10 draws of 15 series: line 2 starts theta individual 1 day 0,
# line 12 day 1, line 22 day 2, line 3 holds iteration 14 and line 151 is the last
@pytest.mark.parametrize("edit, message", [
    (lambda ls: swap(ls, 12, 22, 10), "line 12: theta individual 1 day 2 is out of layout "
                                      "order, expected theta individual 1 day 1"),
    (lambda ls: ls[:14] + ls[15:] + ls[14:15], "line 151: theta individual 1 day 1 is out "
                                               "of layout order, expected the end of the file"),
    (lambda ls: swap(ls, 3, 4, 1), "line 2: iterations are not strictly increasing"),
    (lambda ls: set_iteration(ls, 25, "17"), "line 22: series iterations differ from those "
                                             "of the first series"),
], ids=["shuffled-series", "shuffled-row", "decreasing-iterations", "other-iterations"])
def test_summarize_rejects_traces_out_of_layout(fit_dir, capsys, edit, message):
    path = fit_dir / "traces.csv"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    code, err = run(capsys, "summarize", fit_dir)
    assert code == 1
    assert "traces.csv" in err and message in err


FIT_ARGS = ("--iterations", 30, "--burn-in", 10, "--thin", 2, "--seed", 3)


def test_summarize_skips_blank_lines_and_reads_quoted_fields(fit_dir, tmp_path, capsys):
    """Blank lines and quoted fields in traces.csv change no byte of the
    summary, and summarize prints nothing on stderr."""
    path = fit_dir / "traces.csv"
    lines = path.read_text().splitlines()
    lines = lines[:5] + ["", ""] + [",".join(f'"{f}"' for f in line.split(","))
                                    for line in lines[5:9]] + [""] + lines[9:] + [""]
    path.write_text("\n".join(lines) + "\n")
    code, err = run(capsys, "summarize", fit_dir, "-o", tmp_path / "again")
    assert code == 0 and err == ""
    assert ((tmp_path / "again" / "summary.csv").read_bytes()
            == (fit_dir / "summary.csv").read_bytes())


def test_fit_manifest_records_config_checksums_and_data_dir(data_dir, fit_dir):
    manifest = json.loads((fit_dir / "manifest.json").read_text())
    assert manifest["config"] == {
        "sigma": 0.7333, "rho": 0.118, "delta_tmax": 14.0, "group_prior": {"g": [0.0, 1.0]},
        "iterations": 30, "burn_in": 10, "thin": 2, "seed": 3, "mode": "retrospective",
        "drift_sd": None, "chains": 1}
    assert manifest["input_sha256"] == {
        name: hashlib.sha256((data_dir / name).read_bytes()).hexdigest()
        for name in ("responses.csv", "lapses.csv", "groups.csv")}
    assert manifest["data_dir"] == str(data_dir.resolve())


@pytest.fixture
def sim_dir(tmp_path, capsys):
    """A simulated two-individual, four-day dataset with its truth.csv."""
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "n_individuals": 2, "days": 4, "tests_per_day": 2, "items_per_test": 4,
        "growth": [0.004, 0.004], "day_effect_precision": [1.5, 1.5],
        "test_effect_precision": [3.0, 3.0], "drift_precision": 400.0, "sigma": 0.7333,
        "rho": 0.118, "delta_tmax": 14.0, "lapse_table": [[4.0] * 4] * 2, "seed": 0}))
    path = tmp_path / "sim"
    code, _ = run(capsys, "simulate", "--config", config, "-o", path)
    assert code == 0
    return path


@pytest.mark.parametrize("chains", [1, 2])
def test_summarize_scores_coverage_against_the_simulated_truth(sim_dir, tmp_path, capsys,
                                                               chains):
    """simulate -> fit -> summarize finds truth.csv through the fit's manifest,
    for a single-chain fit and for one chain of a multi-chain fit."""
    fit = tmp_path / "fit"
    code, _ = run(capsys, "fit", sim_dir, *FIT_ARGS, "--chains", chains, "-o", fit)
    assert code == 0
    code, err = run(capsys, "summarize", fit / "chain_01" if chains > 1 else fit,
                    "-o", tmp_path / "again")
    assert code == 0 and err == ""
    lines = (tmp_path / "again" / "coverage.csv").read_text().splitlines()
    assert lines[0] == "individual,coverage" and len(lines) == 4


def test_summarize_skips_coverage_when_the_dataset_changed(sim_dir, tmp_path, capsys):
    fit = tmp_path / "fit"
    code, _ = run(capsys, "fit", sim_dir, *FIT_ARGS, "-o", fit)
    assert code == 0
    code, _ = run(capsys, "simulate", "--config", tmp_path / "sim.json", "--seed", 1,
                  "-o", sim_dir)
    assert code == 0
    code, err = run(capsys, "summarize", fit)
    assert code == 0
    assert f"in {sim_dir.resolve()} differ from what this fit read" in err
    assert "coverage not scored" in err
    assert not (fit / "coverage.csv").exists()


# The nine updates as the run report names them, in sweep order.
UPDATE_NAMES = ["latent utilities", "abilities", "growth", "test effects",
                "test-effect precision", "day effects", "day-effect precision",
                "drift precision", "mixture scales"]


@pytest.mark.parametrize("command, chains", [pytest.param("fit", 1, id="1"),
                                             pytest.param("fit", 2, id="2"),
                                             pytest.param("online", 1, id="online")])
def test_fit_writes_run_report(data_dir, tmp_path, capsys, command, chains):
    """One entry per chain, or on-line one per day's chain (three days here),
    each with the wall seconds of the nine updates, in sweep order."""
    out = tmp_path / "fit"
    drift = ["--drift-sd", 0.05] if command == "online" else []
    code, _ = run(capsys, command, data_dir, "--iterations", 30, "--burn-in", 10,
                  "--thin", 2, "--chains", chains, *drift, "-o", out)
    assert code == 0
    report = json.loads((out / "run_report.json").read_text())
    if command == "online":
        assert list(report) == ["refits"]
        assert [refit.pop("day") for refit in report["refits"]] == [1, 2, 3]
    else:
        assert list(report) == ["chains"] and len(report["chains"]) == chains
    for chain in report.popitem()[1]:
        assert sorted(chain) == ["guard_redraws", "ks_accept_rate", "sweeps", "update_s",
                                 "wall_time_s"]
        assert chain["sweeps"] == 30 and chain["wall_time_s"] > 0.0
        assert list(chain["update_s"]) == UPDATE_NAMES
        assert all(t > 0.0 for t in chain["update_s"].values())
        assert sum(chain["update_s"].values()) < chain["wall_time_s"]
        assert 0.0 < chain["ks_accept_rate"] <= 1.0
        assert chain["guard_redraws"] == 0
    assert "run_report.json" in json.loads((out / "manifest.json").read_text())["outputs"]


ROOT = Path(__file__).resolve().parents[1]


def src_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}


WATCHED_MODULES = ("scipy", "scipy.special", "numpy.ma", "concurrent.futures.process",
                   "numpy.random", "_hashlib", "dir_sampler.gibbs", "dir_sampler.inference",
                   "dir_sampler.simgen")


def run_stage_in_subprocess(*argv) -> tuple[int, dict]:
    """Exit code of one CLI stage run in a fresh interpreter, and which of
    ``WATCHED_MODULES`` the stage left imported (module -> bool)."""
    script = ("import json, sys\n"
              "from dir_sampler import cli\n"
              "code = cli.main(sys.argv[1:])\n"
              f"print(json.dumps([code, {{m: m in sys.modules for m in {WATCHED_MODULES}}}]))\n")
    done = subprocess.run([sys.executable, "-c", script, *map(str, argv)], check=True,
                          env=src_env(), capture_output=True, text=True)
    return tuple(json.loads(done.stdout.splitlines()[-1]))


def test_no_stage_loads_scipy_special(tmp_path):
    """The sampler takes ``erfc`` and LAPACK straight from scipy's compiled
    modules and inverts the normal in numpy, so no stage, sampling or not,
    imports the ``scipy`` package or ``scipy.special``.  Summaries take
    their quantiles without np.quantile, so no stage imports ``numpy.ma``.
    Only a fit of several chains imports the process pool.  Each stage
    imports only what it runs: only the stages that draw import
    ``numpy.random``, validate checksums nothing and so loads no OpenSSL
    (``_hashlib``), neither validate nor simulate loads the sampler, and
    only simulate and summarize load the simulator."""
    (tmp_path / "cfg.json").write_text(json.dumps({"days": 20, "items_per_test": 2}))
    data, fit = tmp_path / "data", tmp_path / "fit"
    short = ("--iterations", 4, "--burn-in", 2, "--thin", 1)
    stages = {
        "simulate": ("simulate", "--paper-defaults", "--config", tmp_path / "cfg.json",
                     "-o", data),
        "validate": ("validate", data),
        "fit": ("fit", data, *short, "-o", fit),
        "fit --chains 2": ("fit", data, *short, "--chains", 2, "-o", tmp_path / "chains"),
        "summarize": ("summarize", fit, "-o", tmp_path / "again"),
        "online": ("online", data, *short, "--drift-sd", 0.05, "-o", tmp_path / "online"),
    }
    for stage, argv in stages.items():
        code, loaded = run_stage_in_subprocess(*argv)
        assert code == 0, stage
        assert loaded == {"scipy": False, "scipy.special": False, "numpy.ma": False,
                          "concurrent.futures.process": stage == "fit --chains 2",
                          "numpy.random": stage in ("simulate", "fit", "fit --chains 2",
                                                    "online"),
                          "_hashlib": stage != "validate",
                          "dir_sampler.gibbs": stage not in ("validate", "simulate"),
                          "dir_sampler.inference": stage not in ("validate", "simulate"),
                          "dir_sampler.simgen": stage in ("simulate", "summarize")}, stage


def test_every_name_in_all_resolves():
    """The package re-exports its names lazily; each one resolves."""
    for name in dir_sampler.__all__:
        getattr(dir_sampler, name)
    with pytest.raises(AttributeError):
        dir_sampler.no_such_name


def test_two_chain_summary_pools_the_chains_traces(data_dir, tmp_path, capsys):
    out = tmp_path / "fit"
    code, _ = run(capsys, "fit", data_dir, "--iterations", 30, "--burn-in", 10,
                  "--thin", 2, "--chains", 2, "-o", out)
    assert code == 0
    chains = [inference.read_traces_csv(out / f"chain_{k:02d}" / "traces.csv")
              for k in (0, 1)]
    days = chains[0][1]
    starts = np.concatenate([[0], np.cumsum(days + 1)])  # theta offsets from days
    pooled = dict(zip(inference.TRACE_NAMES, split_keyed(
        np.concatenate([draws for draws, _ in chains], axis=1), len(days))))
    with (out / "summary.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == int(starts[-1]) + 3 * 2 + 1
    for row in rows:
        series = pooled[row["quantity"]]
        if row["quantity"] == "theta":
            series = series[starts[int(row["individual"]) - 1] + int(row["day"])]
        elif row["individual"]:
            series = series[int(row["individual"]) - 1]
        want = np.quantile(series, (0.025, 0.5, 0.975))
        assert [float(row[q]) for q in ("q025", "median", "q975")] == want.tolist()


def test_three_chain_summary_is_np_quantile_over_the_chains_traces(data_dir, tmp_path,
                                                                  capsys):
    """The pooled summary of three chains, built from the chains' spill
    files, is np.quantile over the three traces.csv, and no spill file is
    left: each chain directory holds exactly its traces and summary, and a
    one-chain fit writes none."""
    out = tmp_path / "fit"
    code, _ = run(capsys, "fit", data_dir, *SHORT_FIT, "--chains", 3, "-o", out)
    assert code == 0
    chains = [inference.read_traces_csv(out / f"chain_{k:02d}" / "traces.csv")
              for k in range(3)]
    days = chains[0][1]
    want = np.quantile(np.concatenate([draws for draws, _ in chains], axis=1),
                       (0.025, 0.5, 0.975), axis=1)
    back = tmp_path / "back"
    inference.write_summary_csv(want, days, back)
    assert (out / "summary.csv").read_bytes() == back.read_bytes()
    for k in range(3):
        assert sorted(p.name for p in (out / f"chain_{k:02d}").iterdir()) == [
            "summary.csv", "traces.csv"]
    code, _ = run(capsys, "fit", data_dir, *SHORT_FIT, "-o", tmp_path / "one")
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "one").iterdir()) == [
        "manifest.json", "run_report.json", "summary.csv", "traces.csv"]


def fail(*args):
    raise OSError("no space left on device")


@pytest.mark.parametrize("where", ["write_traces_csv", "pool_spills"])
def test_no_spill_file_is_left_when_a_chain_or_the_pooling_fails(data_dir, tmp_path, capsys,
                                                                monkeypatch, where):
    """A chain that fails after writing its spill (its trace write, in the
    pool worker, which forks with this patch) and a pooling that fails both
    end in exit 1, and leave no spill file."""
    monkeypatch.setattr(inference, where, fail)
    out = tmp_path / "fit"
    code, err = run(capsys, "fit", data_dir, *SHORT_FIT, "--chains", 2, "-o", out)
    assert code == 1 and "no space left on device" in err
    assert not list(out.glob("chain_*/" + inference.SPILL_FILE))
    assert not (out / "manifest.json").exists()


def test_each_chain_writes_what_a_one_chain_fit_with_its_seed_writes(data_dir, tmp_path,
                                                                    capsys):
    """Chain k of ``--chains 2 --seed s`` is ``--chains 1 --seed s+k``, byte
    for byte, wherever the pool runs it; the manifests list the same outputs."""
    sampler = ("--iterations", 30, "--burn-in", 10, "--thin", 2)
    code, _ = run(capsys, "fit", data_dir, *sampler, "--chains", 2, "--seed", 5,
                  "-o", tmp_path / "pooled")
    assert code == 0
    for k in (0, 1):
        single = tmp_path / f"single_{k}"
        code, _ = run(capsys, "fit", data_dir, *sampler, "--chains", 1, "--seed", 5 + k,
                      "-o", single)
        assert code == 0
        for name in ("traces.csv", "summary.csv"):
            assert ((tmp_path / "pooled" / f"chain_{k:02d}" / name).read_bytes()
                    == (single / name).read_bytes())
        assert (json.loads((single / "manifest.json").read_text())["outputs"]
                == ["run_report.json", "summary.csv", "traces.csv"])
    assert (json.loads((tmp_path / "pooled" / "manifest.json").read_text())["outputs"]
            == ["run_report.json", "summary.csv"])


@pytest.mark.parametrize("stage", ["simulate", "fit", "fit --chains 2", "online",
                                   "summarize", "chain worker"])
def test_output_that_cannot_be_written_is_an_error_naming_the_path(data_dir, fit_dir,
                                                                   tmp_path, capsys, stage):
    """An output directory under a regular file cannot be made; neither can
    a chain directory where a file of that name exists, which fit finds
    before any chain runs.  Each ends in exit 1 and a message naming the
    path."""
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    argv = {
        "simulate": ("simulate", "--paper-defaults", "-o", out),
        "fit": ("fit", data_dir, *SHORT_FIT, "-o", out),
        "fit --chains 2": ("fit", data_dir, *SHORT_FIT, "--chains", 2, "-o", out),
        "online": ("online", data_dir, *SHORT_FIT, "--drift-sd", 0.05, "-o", out),
        "summarize": ("summarize", fit_dir, "-o", out),
    }
    if stage == "chain worker":
        out = tmp_path / "chains"
        out.mkdir()
        (out / "chain_01").write_text("")
        argv[stage] = ("fit", data_dir, *SHORT_FIT, "--chains", 2, "-o", out)
    code, err = run(capsys, *argv[stage])
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(out / "chain_01" if stage == "chain worker" else out) in err
    assert not (out / "manifest.json").exists()
    assert not (out / "chain_00" / "traces.csv").exists()


def traced_spans(tmp_path, *cli_args) -> list:
    """The spans of one CLI run under ``perfbench/tracing.py``."""
    spans_path = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(spans_path),
                    *map(str, cli_args)], check=True, env=src_env(), capture_output=True)
    return json.loads(spans_path.read_text())["spans"]


def test_benchmark_tracer_sees_one_path_draw_per_sweep(data_dir, tmp_path):
    """``perfbench/tracing.py`` wraps the two path-draw functions and the
    nine updates by name, and the two samplers where ``gibbs`` looks them
    up: every sweep makes one K-S draw, in the mixture-scale update, and two
    truncated-normal draws, one for all latent utilities and one for growth."""
    spans = traced_spans(tmp_path, "fit", data_dir, "--iterations", 12, "--burn-in", 4,
                         "--thin", 2, "-o", tmp_path / "fit")
    name = {span_id: span_name for span_name, _, _, span_id, _ in spans}
    parent = {span_id: up for _, _, _, span_id, up in spans}

    def sweep_of(span_id):
        while span_id is not None and name[span_id] != "gibbs.gibbs_sweep":
            span_id = parent[span_id]
        return span_id

    sweeps = Counter(span_id for span_name, _, _, span_id, _ in spans
                     if span_name == "gibbs.gibbs_sweep")
    assert len(sweeps) == 12
    for fn in ("ffbs.filter_from_day_sums", "ffbs.backward_sample",
               "gibbs.update_latent_utilities", "gibbs.update_abilities",
               "gibbs.update_growth", "gibbs.update_test_effects",
               "gibbs.update_test_effect_precision", "gibbs.update_day_effects",
               "gibbs.update_day_effect_precision", "gibbs.update_drift_precision",
               "gibbs.update_ks_scales"):
        assert Counter(sweep_of(span_id) for span_name, _, _, span_id, _ in spans
                       if span_name == fn) == sweeps
    draws = Counter((sweep_of(span_id), span_name, name[up])
                    for span_name, _, _, span_id, up in spans
                    if span_name.startswith("distributions."))
    assert draws == Counter({(sweep, fn, update): 1 for sweep in sweeps for fn, update in (
        ("distributions.sample_ks", "gibbs.update_ks_scales"),
        ("distributions.sample_truncated_normal", "gibbs.update_latent_utilities"),
        ("distributions.sample_truncated_normal", "gibbs.update_growth"))})


def test_benchmark_tracer_sees_the_trace_read_and_summary_write(fit_dir, tmp_path):
    """``perfbench/tracing.py`` wraps the keyed-file functions that summarize
    calls through ``inference``."""
    calls = Counter(span[0] for span in traced_spans(tmp_path, "summarize", fit_dir,
                                                     "-o", tmp_path / "again"))
    assert calls["inference.read_traces_csv"] == 1
    assert calls["inference.write_summary_csv"] == 1


def test_benchmark_tracer_records_each_chain_write_in_its_pool_worker(tmp_path, capsys):
    """``perfbench/tracing.py`` wraps ``cli._fit_one_chain`` to collect the
    spans of forked pool workers; each chain's trace write must show up
    there once, or the benchmark's write metrics would read zero."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    (tmp_path / "cfg.json").write_text(json.dumps({"days": 20, "items_per_test": 2}))
    data, spans_path = tmp_path / "data", tmp_path / "spans.json"
    code, _ = run(capsys, "simulate", "--paper-defaults", "--config", tmp_path / "cfg.json",
                  "-o", data)
    assert code == 0
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(spans_path),
                    "fit", str(data), "--iterations", "6", "--burn-in", "2", "--thin", "1",
                    "--chains", "2", "-o", str(tmp_path / "fit")],
                   check=True, env=src_env(), capture_output=True)
    spans, _ = tracing.load(spans_path)
    pid = lambda span_id: span_id.split(":")[0]
    [main_pid] = [pid(span_id) for name, _, _, span_id, _ in spans if name == "cli.main"]
    writes = [pid(span_id) for name, _, _, span_id, _ in spans
              if name == "inference.write_traces_csv"]
    assert len(writes) == 2 and main_pid not in writes
