"""End-to-end benchmark of the dir-sampler CLI pipeline.

    python3 perfbench/run.py --workload {paper,cohort,online} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each round generates the workload's inputs
from the seed, runs the CLI stages one process at a time, and checks every
output against the benchmark's own computations.  Rounds repeat while the
next one is expected to end within ``--seconds`` (at least one round runs);
each metric is the median over rounds.  ``--trace 1`` runs one untraced
round, then the same stages again under ``tracing.py``, and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object; progress and check values go to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
from ess import bulk_ess

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

# A stage still running this long after the run started is killed, so that
# a hung stage cannot hold the run past its time limit.
RUN_DEADLINE_S = 170.0

QUANTILES = (0.025, 0.5, 0.975)
PARAMS = ("growth", "day_effect_sd", "test_effect_sd", "drift_sd")
# Output-check floors; README.md gives the command that measures them again.
COVERAGE_FLOOR = {"paper": 0.80, "cohort": 0.90}
ONLINE_PREFIX_DAYS = 5  # days kept in the prefix-identity rerun
# Set-ups (simulate + validate) per round; setup_s is their median.  Only
# `online` repeats it: there it costs about 3 s, on `paper` and `cohort` the
# quadratic CSV read makes it 9-10 s, which their run budget cannot repeat.
SETUP_REPEATS = {"paper": 1, "cohort": 1, "online": 3}


@dataclass(frozen=True)
class Workload:
    name: str
    sampler: list   # CLI arguments of the sampling stage
    chains: int     # fit chains, run side by side in the process pool


WORKLOADS = {
    "paper": Workload("paper", ["--iterations", "300", "--burn-in", "100", "--thin", "1"], 1),
    "cohort": Workload("cohort", ["--iterations", "300", "--burn-in", "100", "--thin", "1",
                                  "--chains", "2"], 2),
    "online": Workload("online", ["--iterations", "40", "--burn-in", "20", "--thin", "1"], 1),
}
# The retrospective fit of the ``online`` dataset in a traced run.
ONLINE_RETRO_FIT = ["--iterations", "250", "--burn-in", "50", "--thin", "1"]

END_TO_END_UNITS = {"pipeline_s": "s", "setup_s": "s", "fit_s": "s", "peak_rss_mb": "MiB"}


class Failed(Exception):
    """A stage exited with an error or an output check failed."""


class Ledger:
    """Counts operations (CLI stages and checks) attempted and failed.

    Once an operation fails, the rest of the run is counted as failed
    without running, so every run attempts the same operations.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.broken = False

    def op(self, name: str, fn, *args):
        self.attempted += 1
        if self.broken:
            self.failed += 1
            return None
        try:
            result = fn(*args)
        except (Failed, OSError, ValueError, KeyError) as exc:  # malformed outputs too
            log(f"FAILED {name}: {exc}")
            self.failed += 1
            self.broken = True
            return None
        return result


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def require(ok: bool, msg: str) -> None:
    if not ok:
        raise Failed(msg)


# ---------------------------------------------------------------------------
# Running stages
# ---------------------------------------------------------------------------

@dataclass
class Stage:
    wall_s: float
    rss_mib: float


class Runner:
    """Runs CLI stages one process at a time and records time and memory."""

    def __init__(self, workdir: Path, deadline: float, chains: int):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        path = [str(ROOT / "src"), *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"
        self.env["DIR_SAMPLER_THREADS"] = str(chains)
        self.count = 0

    def __call__(self, *cli_args, spans: Path | None = None) -> Stage:
        self.count += 1
        if spans is None:
            cmd = [sys.executable, "-m", "dir_sampler.cli", *map(str, cli_args)]
        else:
            cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans), *map(str, cli_args)]
        stem = self.workdir / f"stage{self.count:02d}-{cli_args[0]}"
        result, log_path = stem.with_suffix(".json"), stem.with_suffix(".log")
        # a new session, so that a kill at the deadline reaches pool workers too
        proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py"), str(result),
                                 str(log_path), *cmd], env=self.env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0),
                                os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
        if proc.returncode != 0 or not result.exists():
            raise Failed(f"{' '.join(map(str, cli_args))} was killed; see {log_path}")
        stage = json.loads(result.read_text())
        if stage["code"] != 0:
            raise Failed(f"{' '.join(map(str, cli_args))} exited {stage['code']}; "
                              f"see {log_path}")
        log(f"  {cli_args[0]:<10} {stage['wall_s']:8.3f} s  "
            f"{stage['maxrss_kib'] / 1024:7.1f} MiB")
        return Stage(stage["wall_s"], stage["maxrss_kib"] / 1024)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def write_inputs(workload: str, seed: int, rdir: Path) -> Path:
    """Simulator config for the workload, drawn from the seed."""
    if workload == "cohort":
        rng = np.random.default_rng([seed, 1])
        n, days = 200, 6
        cfg = {  # truth values drawn from the ranges of the paper's design
            "n_individuals": n, "days": days, "tests_per_day": 2, "items_per_test": 5,
            "growth": rng.uniform(0.0015, 0.0065, n).tolist(),
            "day_effect_precision": rng.uniform(1.0, 2.25, n).tolist(),
            "test_effect_precision": rng.uniform(2.2, 9.1, n).tolist(),
            "drift_precision": 0.0218 ** -2, "sigma": 0.7333, "rho": 0.1180,
            "delta_tmax": 14.0,
            "lapse_table": rng.integers(1, 21, (n, days)).astype(float).tolist(),
            "seed": seed,
        }
    elif workload == "online":
        cfg = {"days": 20, "seed": seed}   # the paper's design cut to 20 days
    else:
        cfg = {"seed": seed}               # the paper's design
    path = rdir / "simulate.json"
    path.write_text(json.dumps(cfg))
    return path


def simulate_args(workload: str, cfg: Path, data: Path) -> list:
    extra = [] if workload == "cohort" else ["--paper-defaults"]
    return ["simulate", *extra, "--config", cfg, "-o", data]


# ---------------------------------------------------------------------------
# The benchmark's own parsers and reference computations
# ---------------------------------------------------------------------------

def read_rows(path: Path) -> tuple[list, list]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def parse_traces(path: Path) -> dict:
    """{(quantity, individual, day): values in iteration order}."""
    header, rows = read_rows(path)
    require(header == ["quantity", "individual", "day", "iteration", "value"],
            f"{path}: header {header}")
    series: dict = {}
    for quantity, ind, day, it, val in rows:
        series.setdefault((quantity, ind, day), []).append((int(it), float(val)))
    out = {}
    for key, pairs in series.items():
        its = [it for it, _ in pairs]
        require(its == sorted(set(its)), f"{path}: {key} iterations not increasing")
        out[key] = np.array([v for _, v in pairs])
    return out


def parse_summary(path: Path) -> dict:
    """{(quantity, individual, day): (q025, median, q975)}."""
    header, rows = read_rows(path)
    require(header == ["quantity", "individual", "day", "q025", "median", "q975"],
            f"{path}: header {header}")
    return {tuple(r[:3]): tuple(float(x) for x in r[3:]) for r in rows}


def pooled_draws(chain_traces: list) -> tuple[list, np.ndarray]:
    """Keys and (chains, draws, quantities) array over every traced quantity."""
    keys = list(chain_traces[0])
    for traces in chain_traces[1:]:
        require(list(traces) == keys, "chains trace different quantities")
    return keys, np.stack([np.column_stack([t[k] for k in keys]) for t in chain_traces])


def check_quantiles(summary_path: Path, keys: list, draws: np.ndarray) -> None:
    """summary.csv equals np.quantile over the draws of every chain given."""
    summary = parse_summary(summary_path)
    require(sorted(summary) == sorted(keys), f"{summary_path}: quantities differ from traces")
    expected = np.quantile(draws.reshape(-1, draws.shape[-1]), QUANTILES, axis=0)
    got = np.array([summary[k] for k in keys]).T
    bad = np.flatnonzero(np.any(got != expected, axis=0))
    require(bad.size == 0, f"{summary_path}: {bad.size} quantities differ from np.quantile, "
                           f"first {keys[bad[0]] if bad.size else None}")


def check_intervals(summary_path: Path) -> None:
    vals = np.array(list(parse_summary(summary_path).values()))
    require(bool(np.all(np.isfinite(vals))), f"{summary_path}: non-finite quantile")
    require(bool(np.all((vals[:, 0] <= vals[:, 1]) & (vals[:, 1] <= vals[:, 2]))),
            f"{summary_path}: q025 <= median <= q975 violated")


def read_truth_theta(path: Path) -> dict:
    """{(individual, day): true ability} as strings of the CSV keys."""
    header, rows = read_rows(path)
    require(header == ["quantity", "individual", "day", "value"], f"{path}: header {header}")
    return {(r[1], r[2]): float(r[3]) for r in rows if r[0] == "theta"}


def truth_value(path: Path, quantity: str) -> float:
    _, rows = read_rows(path)
    return next(float(r[3]) for r in rows if r[0] == quantity)


def check_coverage(workload: str, summary_path: Path, truth_path: Path) -> None:
    """Share of true abilities (days >= 1) inside the 95% intervals."""
    summary = parse_summary(summary_path)
    hits = []
    for (ind, day), val in read_truth_theta(truth_path).items():
        if day != "0":
            lo, _, hi = summary[("theta", ind, day)]
            hits.append(lo <= val <= hi)
    share = float(np.mean(hits))
    log(f"  check coverage = {share:.4f} over {len(hits)} abilities "
        f"(floor {COVERAGE_FLOOR[workload]})")
    require(share >= COVERAGE_FLOOR[workload], f"coverage {share:.4f} below floor")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifests(data: Path, runs: list) -> None:
    """Each manifest's checksums equal the benchmark's own SHA-256 of the
    files: the simulate manifest's for its outputs in ``data``, and for each
    (dataset, output directory) in ``runs`` the fit's for its inputs."""
    sim = json.loads((data / "manifest.json").read_text())
    require(sim["input_sha256"] == {p: sha256(data / p) for p in sim["input_sha256"]}
            and sorted(sim["input_sha256"]) == sorted(sim["outputs"]),
            f"{data}/manifest.json: checksums differ")
    for dataset, out in runs:
        expected = {p: sha256(dataset / p) for p in ("responses.csv", "lapses.csv", "groups.csv")}
        got = json.loads((out / "manifest.json").read_text())["input_sha256"]
        require(got == expected, f"{out}/manifest.json: input checksums differ")


def median_ess(keys: list, draws: np.ndarray) -> tuple[float, float]:
    """Median bulk ESS over the ability points and over the parameters."""
    ess = bulk_ess(draws)
    theta = np.array([k[0] == "theta" for k in keys])
    param = np.array([k[0] in PARAMS for k in keys])
    return float(np.median(ess[theta])), float(np.median(ess[param]))


# ---------------------------------------------------------------------------
# On-line checks
# ---------------------------------------------------------------------------

def read_online(path: Path) -> list:
    header, rows = read_rows(path)
    require(header == ["individual", "day", "q025", "median", "q975", "flagged"],
            f"{path}: header {header}")
    return rows


def cut_dataset(data: Path, out: Path, n_days: int) -> None:
    """Copy of the dataset keeping each individual's first ``n_days`` days."""
    out.mkdir(parents=True, exist_ok=True)
    for name in ("responses.csv", "lapses.csv"):
        header, rows = read_rows(data / name)
        with (out / name).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(r for r in rows if int(r[1]) <= n_days)
    shutil.copy(data / "groups.csv", out / "groups.csv")


def check_prefix_identical(full: Path, prefix: Path) -> None:
    """Rows of the prefix run equal the full run's rows for those days."""
    rows, prefix_rows = read_online(full), read_online(prefix)
    expected = [r for r in rows if int(r[1]) <= ONLINE_PREFIX_DAYS]
    require(prefix_rows == expected, "prefix rerun differs from the full run's first days")


def check_flags(path: Path) -> None:
    """Flagged days of each individual are days 1..k for some k >= 1."""
    rows = read_online(path)
    by_ind: dict = {}
    for r in rows:
        by_ind.setdefault(r[0], []).append((int(r[1]), int(r[5])))
    for ind, days in by_ind.items():
        flags = [f for _, f in sorted(days)]
        require(flags[0] == 1 and all(a >= b for a, b in zip(flags, flags[1:])),
                f"individual {ind}: flagged days {flags} are not a prefix from day 1")


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def check_retrospective(ledger: Ledger, workload: str, fit: Path, chain_dirs: list,
                        summarized: list, truth: Path) -> tuple:
    """Output checks of a fit and its summarize stages; returns the parsed
    (keys, draws) of the traces."""
    parsed = ledger.op("parse traces", lambda: pooled_draws(
        [parse_traces(c / "traces.csv") for c in chain_dirs]))

    def fit_quantiles():
        keys, draws = parsed
        check_quantiles(fit / "summary.csv", keys, draws)
        if len(chain_dirs) > 1:
            for k, c in enumerate(chain_dirs):
                check_quantiles(c / "summary.csv", keys, draws[k:k + 1])

    def summarize_quantiles():
        keys, draws = parsed
        for k, s in enumerate(summarized):
            check_quantiles(s / "summary.csv", keys, draws[k:k + 1])

    ledger.op("check fit quantiles", fit_quantiles)
    ledger.op("check summarize quantiles", summarize_quantiles)
    ledger.op("check intervals", lambda: [check_intervals(p / "summary.csv")
                                          for p in [fit, *chain_dirs, *summarized]])
    if workload in COVERAGE_FLOOR:
        ledger.op("check coverage", check_coverage, workload, fit / "summary.csv", truth)
    return parsed


def sampler_args(w: Workload, data: Path, out: Path, seed: int, drift_sd) -> list:
    """CLI arguments of the workload's sampling stage."""
    if w.name == "online":
        return ["online", data, *w.sampler, "--seed", seed, "--drift-sd", repr(drift_sd),
                "-o", out]
    return ["fit", data, *w.sampler, "--seed", seed, "-o", out]


def retro_fit_args(data: Path, out: Path, seed: int) -> list:
    return ["fit", data, *ONLINE_RETRO_FIT, "--seed", seed, "-o", out]


def repeat_setup(w: Workload, cfg: Path, rdir: Path, ledger: Ledger, stage) -> None:
    """The round's set-up again, outside the timed pipeline, into fresh
    directories; the seeded simulator must write the same dataset each time."""
    for k in range(1, SETUP_REPEATS[w.name]):
        data = rdir / f"setup{k}"
        ledger.op("simulate", stage, f"simulate{k}", *simulate_args(w.name, cfg, data))
        ledger.op("validate", stage, f"validate{k}", "validate", data)
        ledger.op("check set-up repeat", lambda: [
            require(sha256(data / f) == sha256(rdir / "data" / f),
                    f"{data}/{f} differs from the round's first set-up")
            for f in ("responses.csv", "lapses.csv", "groups.csv", "truth.csv")])


def run_round(w: Workload, seed: int, rdir: Path, ledger: Ledger, run: Runner,
              trace: bool) -> dict:
    """One round of the workload's pipeline and checks; returns the stage
    timings.  For a traced run, ``online`` also fits and summarizes its
    dataset retrospectively, so that every layer runs on every workload."""
    rdir.mkdir(parents=True)
    data, main, truth = rdir / "data", rdir / w.name, rdir / "data" / "truth.csv"
    cfg = write_inputs(w.name, seed, rdir)
    stages = {}
    drift_sd = None

    def stage(key, *args):
        stages[key] = run(*args)

    t0 = time.perf_counter()
    ledger.op("simulate", stage, "simulate", *simulate_args(w.name, cfg, data))
    ledger.op("validate", stage, "validate", "validate", data)
    if w.name == "online":
        drift_sd = ledger.op("read drift sd",
                             lambda: truth_value(truth, "drift_precision") ** -0.5)
    ledger.op(w.name, stage, "fit", *sampler_args(w, data, main, seed, drift_sd))
    if w.name == "online":
        pipeline = time.perf_counter() - t0
        pipeline_stages = list(stages.values())
        repeat_setup(w, cfg, rdir, ledger, stage)
        # outside the timed pipeline: the on-line stage again on a prefix
        cut, prefix = rdir / "prefix_data", rdir / "prefix"
        ledger.op("cut dataset", cut_dataset, data, cut, ONLINE_PREFIX_DAYS)
        ledger.op("online prefix", stage, "prefix", *sampler_args(w, cut, prefix, seed, drift_sd))
        ledger.op("check manifests", check_manifests, data, [(data, main), (cut, prefix)])
        ledger.op("check prefix identical", check_prefix_identical,
                  main / "online.csv", prefix / "online.csv")
        ledger.op("check flags", check_flags, main / "online.csv")
        parsed = None
        if trace:
            fit = rdir / "retro_fit"
            ledger.op("fit", stage, "retro_fit", *retro_fit_args(data, fit, seed))
            ledger.op("summarize", stage, "summarize", "summarize", fit,
                      "-o", rdir / "summarized")
            parsed = check_retrospective(ledger, w.name, fit, [fit], [rdir / "summarized"], truth)
            ledger.op("check manifests", check_manifests, data, [(data, fit)])
    else:
        chain_dirs = ([main / f"chain_{k:02d}" for k in range(w.chains)]
                      if w.chains > 1 else [main])
        summarized = [rdir / f"summarized_{k:02d}" for k in range(w.chains)]
        for k, (c, s) in enumerate(zip(chain_dirs, summarized)):
            ledger.op("summarize", stage, f"summarize{k}", "summarize", c, "-o", s)
        pipeline = time.perf_counter() - t0
        pipeline_stages = list(stages.values())
        repeat_setup(w, cfg, rdir, ledger, stage)
        parsed = check_retrospective(ledger, w.name, main, chain_dirs, summarized, truth)
        ledger.op("check manifests", check_manifests, data, [(data, main)])

    get = lambda key: stages[key].wall_s if key in stages else 0.0
    return {
        "stages": stages,
        "pipeline_s": pipeline,
        "setup_s": statistics.median(get(f"simulate{k or ''}") + get(f"validate{k or ''}")
                                     for k in range(SETUP_REPEATS[w.name])),
        "fit_s": get("fit"),
        "peak_rss_mb": max((s.rss_mib for s in pipeline_stages), default=0.0),
        "drift_sd": drift_sd,
        "draws": parsed,
    }


def traced_stages(w: Workload, seed: int, rdir: Path, drift_sd, tdir: Path, run: Runner,
                  ledger: Ledger) -> tuple:
    """The round's stages again under tracing.py, on the round's inputs; the
    traced outputs must equal the untraced ones.  Returns {stage: spans file}
    and the traced wall time of the sampling stage."""
    tdir.mkdir(parents=True)
    data = rdir / "data"
    spans, times = {}, {}

    def stage(key, *args):
        spans[key] = tdir / f"{key}.spans.json"
        times[key] = run(*args, spans=spans[key]).wall_s

    ledger.op("traced simulate", stage, "simulate",
              *simulate_args(w.name, rdir / "simulate.json", tdir / "data"))
    ledger.op(f"traced {w.name}", stage, "main",
              *sampler_args(w, data, tdir / w.name, seed, drift_sd))
    same = ["data/responses.csv"]
    if w.name == "online":
        ledger.op("traced fit", stage, "fit", *retro_fit_args(data, tdir / "retro_fit", seed))
        ledger.op("traced summarize", stage, "summarize", "summarize", tdir / "retro_fit",
                  "-o", tdir / "summarized")
        same += ["online/online.csv", "retro_fit/summary.csv"]
    else:
        chain = f"{w.name}/chain_00" if w.chains > 1 else w.name
        ledger.op("traced summarize", stage, "summarize", "summarize", tdir / chain,
                  "-o", tdir / "summarized")
        same += [f"{w.name}/summary.csv", f"{chain}/traces.csv"]
    ledger.op("check traced outputs", lambda: [
        require(sha256(tdir / f) == sha256(rdir / f), f"traced {f} differs from untraced")
        for f in same])
    return spans, times.get("main")


def trace_metrics(w: Workload, rnd: dict, rdir: Path, spans: dict, traced_s: float,
                  ledger: Ledger, run: Runner) -> dict:
    """Per-layer metrics of a traced run whose operations all passed."""
    loaded = {k: tracing.load(p) for k, p in spans.items()}
    out = tracing.layer_metrics(loaded["main"], [v[0] for k, v in loaded.items() if k != "main"])
    stages = rnd["stages"]
    sampled_s = stages["retro_fit" if w.name == "online" else "fit"].wall_s
    theta_ess, param_ess = ledger.op("ess", median_ess, *rnd["draws"]) or (0.0, 0.0)
    untraced_s = rnd["fit_s"]
    data = rdir / "data"
    out.update({
        "cli.startup_s": (statistics.median(run("--help").wall_s for _ in range(3)), "s"),
        "cli.simulate_s": (stages["simulate"].wall_s, "s"),
        "cli.validate_s": (stages["validate"].wall_s, "s"),
        "cli.summarize_s": (statistics.mean(s.wall_s for k, s in stages.items()
                                            if k.startswith("summarize")), "s"),
        "model.dataset_mb": (mib(data / "responses.csv", data / "lapses.csv",
                                 data / "groups.csv"), "MiB"),
        "inference.traces_mb": (mib(*rdir.glob("*/**/traces.csv")), "MiB"),
        "inference.theta_ess": (theta_ess, "draws"),
        "inference.param_ess": (param_ess, "draws"),
        "inference.theta_ess_per_s": (theta_ess / sampled_s, "draws/s"),
        "inference.param_ess_per_s": (param_ess / sampled_s, "draws/s"),
        "trace.fit_overhead_s": (traced_s - untraced_s, "s"),
        "trace.fit_overhead_share": ((traced_s - untraced_s) / untraced_s, "ratio"),
    })
    return out


def mib(*paths: Path) -> float:
    return sum(p.stat().st_size for p in paths) / 2 ** 20


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "dir_sampler" / "cli.py").is_file():
        log(f"no dir_sampler package under {ROOT / 'src'}; run from the repository root")
        return 2

    start = time.monotonic()
    w = WORKLOADS[args.workload]
    wdir = OUT / w.name
    shutil.rmtree(wdir, ignore_errors=True)
    run = Runner(wdir, start + RUN_DEADLINE_S, w.chains)
    ledger = Ledger()
    rounds = []
    while True:
        log(f"{w.name} seed {args.seed} round {len(rounds)}")
        r0 = time.monotonic()
        run.workdir = wdir / f"round{len(rounds)}"
        rounds.append(run_round(w, args.seed, run.workdir, ledger, run, bool(args.trace)))
        took = time.monotonic() - r0
        if args.trace or time.monotonic() + took > start + args.seconds:
            break

    if args.trace:
        rdir = wdir / "round0"
        run.workdir = wdir / "traced"
        spans, traced_s = traced_stages(w, args.seed, rdir, rounds[0]["drift_sd"],
                                        run.workdir, run, ledger)
        metrics = {} if ledger.broken else trace_metrics(w, rounds[0], rdir, spans, traced_s,
                                                         ledger, run)
    else:
        metrics = {name: (statistics.median(r[name] for r in rounds), unit)
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
