"""The dir-sampler command line: exit codes and messages for malformed input."""

import pytest

from dir_sampler import cli, write_dataset_csv

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


def write_traces(path, header, rows):
    path.mkdir(parents=True, exist_ok=True)
    (path / "traces.csv").write_text("\n".join([header, *rows]) + "\n")


def test_summarize_rejects_bad_traces_header(tmp_path, capsys):
    write_traces(tmp_path / "fit", "quantity,individual,day,value", ["theta,1,0,0.5"])
    code, err = run(capsys, "summarize", tmp_path / "fit")
    assert code == 1
    assert "traces.csv: expected header quantity,individual,day,iteration,value" in err


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
    assert "0 draws of growth individual 1, expected 1" in err


def test_summarize_rewrites_the_fit_summary_byte_for_byte(data_dir, tmp_path, capsys):
    fit_dir = tmp_path / "fit"
    code, _ = run(capsys, "fit", data_dir, "--iterations", 30, "--burn-in", 10,
                  "--thin", 2, "--seed", 3, "-o", fit_dir)
    assert code == 0
    code, _ = run(capsys, "summarize", fit_dir, "-o", tmp_path / "again")
    assert code == 0
    assert ((tmp_path / "again" / "summary.csv").read_bytes()
            == (fit_dir / "summary.csv").read_bytes())
