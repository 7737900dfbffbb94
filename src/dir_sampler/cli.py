"""Command-line entry point: simulate / validate / fit / online / summarize.

Config files are flat JSON; unknown keys and mistyped values are rejected
so a typo in a constant cannot silently change a run.  Every output directory gets a
manifest.json recording the resolved configuration, seed, and input
checksums, sufficient to re-run bit-identically.  A fit's manifest also
records its data directory, where summarize finds the truth.csv that
simulate wrote.  A fit also writes run_report.json with the wall time, sweep
count, K-S acceptance rate, guard-redraw count and per-update wall seconds
of each chain, or of each day's chain on-line.  Each chain writes its own traces.csv and summary.csv,
into the output directory for one chain and into chain_NN/ for several, from
the pool worker that ran it; fit makes every chain_NN/ before any chain
runs.  The pooled summary.csv of several chains goes next to the manifest.
Each worker of such a fit also writes its chain's draw matrix
(``inference.ChainOutput.draws``) as raw float64 to a spill file in its
chain_NN/ and sends back only its run-report entry, days and draw count;
the main process pools the spills a block of series at a time
(``inference.pool_spills``), so it never holds a chain's draws, and deletes
them whether or not the fit succeeds.
A one-chain fit writes no spill.
Every summary, of one chain or pooled, is a (3, series) quantile matrix
in the draws' keyed layout; summary.csv and summarize's coverage scores
(joint, then per parameter quantity) are taken from it.
Each command imports only what it runs, inside its function: validate
loads just this module, ``model`` and ``errors``; simulate adds ``simgen``;
fit and online add ``inference`` and the sampler under it; summarize adds
``inference`` and ``simgen``.  ``numpy.random`` loads at the first
generator and ``hashlib`` (OpenSSL) at the first checksum, so validate
loads neither.  A fit of several chains imports the process pool and
``numpy.random`` before the pool forks, so the workers inherit both: with
each worker importing ``numpy.random`` itself, a cohort-sized ``fit
--chains 2`` peaked at 40.3 MiB, against 39.4 MiB.
Exit codes: 0 ok, 1 runtime error, 2 validation failure, 3 config error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, DirSamplerError, ValidationError
from .model import (Dataset, ModelConstants, SamplerConfig, read_dataset_csv,
                    split_keyed, validate_dataset, write_dataset_csv,
                    GROUPS_FILE, LAPSES_FILE, RESPONSES_FILE)

# Fallback constants for fits without a config file: the reading-testbed
# design values, recorded in the manifest either way.
DEFAULT_SIGMA = 0.7333
DEFAULT_RHO = 0.1180
DEFAULT_DELTA_TMAX = 14.0
DEFAULT_GROUP_PRIOR = (0.0, 1.0)
RUN_REPORT_FILE = "run_report.json"

_SIM_KEYS = {"n_individuals", "days", "tests_per_day", "items_per_test", "growth",
             "day_effect_precision", "test_effect_precision", "drift_precision",
             "sigma", "rho", "delta_tmax", "difficulty_halfwidth", "init_mean",
             "init_var", "lapse_table", "seed"}
_FIT_KEYS = {"sigma", "rho", "delta_tmax", "group_prior", "iterations", "burn_in",
             "thin", "seed", "mode", "drift_sd", "chains"}
# scalar keys whose values must be JSON integers (not booleans) or numbers
_INTEGER_KEYS = {"n_individuals", "days", "tests_per_day", "items_per_test", "iterations",
                 "burn_in", "thin", "seed", "chains"}
_NUMBER_KEYS = {"drift_precision", "sigma", "rho", "delta_tmax", "difficulty_halfwidth",
                "init_mean", "init_var", "drift_sd"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage mistakes are config errors (exit 3)
        raise ConfigError(message)


def _load_config(path, allowed: set) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, val in cfg.items():
        if key in _INTEGER_KEYS and type(val) is not int:
            raise ConfigError(f"{key} must be an integer, got {json.dumps(val)}")
        if (key in _NUMBER_KEYS and type(val) not in (int, float)
                and (key, val) != ("drift_sd", None)):  # a null drift_sd is unset
            raise ConfigError(f"{key} must be a number, got {json.dumps(val)}")
        if key == "group_prior" and type(val) is not dict:
            raise ConfigError(f"{key} must be a JSON object, got {json.dumps(val)}")
    return cfg


@contextmanager
def _malformed(what: str):
    """Report a TypeError or ValueError raised while settings are built from
    a config's ``what`` as a ConfigError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {what}: {exc}") from exc


def _sha256(path: Path) -> str:
    import hashlib  # its import loads OpenSSL, which validate never needs
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict,
                    outputs: list, **fields) -> None:
    manifest = {
        "tool": "dir-sampler",
        "version": __version__,
        "command": command,
        "config": config,
        "input_sha256": inputs,
        "outputs": sorted(str(p.name) for p in outputs),
        **fields,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _dataset_files(data_dir: Path) -> list:
    paths = [data_dir / name for name in (RESPONSES_FILE, LAPSES_FILE, GROUPS_FILE)]
    for p in paths:
        if not p.exists():
            raise ConfigError(f"missing dataset file {p}")
    return paths


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    from . import simgen
    overrides = _load_config(args.config, _SIM_KEYS) if args.config else {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    required = {"n_individuals", "days", "tests_per_day", "items_per_test",
                "growth", "day_effect_precision", "test_effect_precision",
                "drift_precision", "sigma", "rho", "delta_tmax"}
    missing = required - set(overrides)
    if missing and not args.paper_defaults:
        raise ConfigError("simulate needs --paper-defaults or a config with keys: "
                          + ", ".join(sorted(missing)))
    with _malformed("config value"):
        cfg = (replace(simgen.paper_default_config(), **overrides) if args.paper_defaults
               else simgen.SimConfig(**overrides))

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    data, truth = simgen.simulate_dataset(cfg)
    paths = write_dataset_csv(data, out_dir)
    paths.append(simgen.write_truth_csv(truth, out_dir))
    resolved = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in vars(cfg).items()}
    _write_manifest(out_dir, "simulate", resolved,
                    {p.name: _sha256(p) for p in paths}, paths)
    print(f"simulated {data.n_individuals} individuals, {data.n_items} responses "
          f"-> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    _dataset_files(Path(args.data_dir))
    data = read_dataset_csv(args.data_dir)
    report = validate_dataset(data)
    if report.passed:
        print(f"dataset ok: {data.n_individuals} individuals, {data.n_items} responses")
        return 0
    print("dataset fails the propriety gate:", file=sys.stderr)
    for clause, detail in report.failures:
        print(f"  violated clause: {clause} ({detail})", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# fit / online
# ---------------------------------------------------------------------------

def _constants_from(cfg: dict, data: Dataset) -> ModelConstants:
    prior_cfg = cfg.get("group_prior", {})
    with _malformed("group_prior"):
        priors = {label: tuple(map(float, prior_cfg[str(label)])) if str(label) in prior_cfg
                  else DEFAULT_GROUP_PRIOR for label in set(data.group)}
        return ModelConstants(sigma=cfg.get("sigma", DEFAULT_SIGMA),
                              rho=cfg.get("rho", DEFAULT_RHO),
                              delta_tmax=cfg.get("delta_tmax", DEFAULT_DELTA_TMAX),
                              group_prior=priors)


def _fit_one_chain(packed):
    """Fit one chain and write its traces.csv and summary.csv to its
    directory, which must exist, in the pool worker that runs it, and its
    draws to ``spill`` unless that is None; returns the chain's run-report
    entry, days and draw count."""
    from . import inference
    data, constants, config, chain_dir, spill = packed
    output = inference.fit(data, constants, config)
    if spill is not None:
        output.draws.tofile(spill)
    inference.write_traces_csv(output, chain_dir / inference.TRACES_FILE)
    inference.write_summary_csv(output.quantiles, output.days,
                                chain_dir / inference.SUMMARY_FILE)
    return inference.chain_report(output), output.days, output.n_draws


def cmd_fit(args, force_online: bool = False) -> int:
    from . import inference
    cfg = _load_config(args.config, _FIT_KEYS) if args.config else {}
    for key in ("iterations", "burn_in", "thin", "seed", "mode", "drift_sd", "chains"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    mode = "online" if force_online else cfg.get("mode", "retrospective")
    config = SamplerConfig(n_iterations=cfg.get("iterations", 50_000),
                           burn_in=cfg.get("burn_in", 30_000), thin=cfg.get("thin", 10),
                           seed=cfg.get("seed", 0), mode=mode, fixed_drift_sd=cfg.get("drift_sd"))
    chains = cfg.get("chains", 1)
    if chains < 1:
        raise ConfigError("chains must be >= 1")

    data_dir = Path(args.data_dir)
    checksums = {p.name: _sha256(p) for p in _dataset_files(data_dir)}
    data = read_dataset_csv(data_dir)
    constants = _constants_from(cfg, data)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = {
        "sigma": constants.sigma, "rho": constants.rho,
        "delta_tmax": constants.delta_tmax,
        "group_prior": {str(k): list(v) for k, v in constants.group_prior.items()},
        "iterations": config.n_iterations, "burn_in": config.burn_in,
        "thin": config.thin, "seed": config.seed, "mode": config.mode,
        "drift_sd": config.fixed_drift_sd, "chains": chains,
    }

    if config.mode == "online":
        if chains != 1:
            raise ConfigError("on-line estimation runs a single chain per prefix")
        trajectories, refits = inference.fit_online(data, constants, config)
        path = out_dir / inference.ONLINE_FILE
        inference.write_online_csv(trajectories, path)
        command, written, run_report = "fit --mode online", [path], {"refits": refits}
        done = f"on-line trajectories for {data.n_individuals} individuals -> {path}"
    else:
        chain_dirs = ([out_dir / f"chain_{k:02d}" for k in range(chains)] if chains > 1
                      else [out_dir])
        for chain_dir in chain_dirs:  # before any chain runs, so a bad path fails at once
            chain_dir.mkdir(exist_ok=True)
        # only a pooled summary needs the chains' draws after they end
        spills = ([chain_dir / inference.SPILL_FILE for chain_dir in chain_dirs] if chains > 1
                  else [None])
        packed = [(data, constants, replace(config, seed=config.seed + k), chain_dir, spill)
                  for k, (chain_dir, spill) in enumerate(zip(chain_dirs, spills))]
        command, written = "fit", [chain_dir / name for chain_dir in chain_dirs
                                   for name in (inference.TRACES_FILE, inference.SUMMARY_FILE)]
        try:
            if chains == 1:
                results = [_fit_one_chain(packed[0])]
            else:
                from concurrent.futures import ProcessPoolExecutor  # only a pool needs it
                import numpy.random  # noqa: F401  # here, so the workers inherit it
                with ProcessPoolExecutor(max_workers=_max_workers(chains)) as pool:
                    results = list(pool.map(_fit_one_chain, packed))
                _, days, n_draws = results[0]
                sp = out_dir / inference.SUMMARY_FILE
                inference.write_summary_csv(inference.pool_spills(spills, days, n_draws),
                                            days, sp)
                written.append(sp)
        finally:
            for spill in spills:
                if spill is not None:
                    spill.unlink(missing_ok=True)
        run_report = {"chains": [chain_report for chain_report, _, _ in results]}
        done = f"fit complete: {chains} chain(s), {results[0][2]} draws each -> {out_dir}"

    report = out_dir / RUN_REPORT_FILE
    report.write_text(json.dumps(run_report, indent=2) + "\n")
    written.append(report)
    _write_manifest(out_dir, command, resolved, checksums,
                    [p for p in written if p.parent == out_dir],
                    data_dir=str(data_dir.resolve()))
    print(done)
    return 0


def _max_workers(chains: int) -> int:
    cap = os.environ.get("DIR_SAMPLER_THREADS")
    if cap is not None:
        try:
            cap = int(cap)
        except ValueError:
            raise ConfigError("DIR_SAMPLER_THREADS must be an integer") from None
        if cap < 1:
            raise ConfigError("DIR_SAMPLER_THREADS must be >= 1")
        return min(chains, cap)
    return min(chains, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------

def _fit_truth(traces_dir: Path) -> Path | None:
    """truth.csv next to the traces, else in the data directory that the
    fit's manifest names (in the traces directory, or its parent for a
    chain_NN directory) while the dataset there has the fit's checksums."""
    from . import simgen
    if (traces_dir / simgen.TRUTH_FILE).exists():
        return traces_dir / simgen.TRUTH_FILE
    fit_dir = traces_dir.parent if re.fullmatch(r"chain_\d+", traces_dir.name) else traces_dir
    path = fit_dir / "manifest.json"
    try:
        manifest = json.loads(path.read_text()) if path.exists() else {}
        truth = manifest.get("data_dir") and Path(manifest["data_dir"]) / simgen.TRUTH_FILE
        if not (truth and truth.exists()):
            return None
        changed = [name for name, digest in manifest["input_sha256"].items()
                   if not (truth.parent / name).is_file()
                   or _sha256(truth.parent / name) != digest]
    except (OSError, ValueError, TypeError, AttributeError, KeyError) as exc:
        raise DataError(f"{path}: unreadable manifest ({exc!r})") from exc
    if changed:
        print(f"note: {', '.join(changed)} in {truth.parent} differ from what this fit "
              "read; coverage not scored", file=sys.stderr)
        return None
    return truth


def cmd_summarize(args) -> int:
    from . import inference, simgen
    in_dir = Path(args.data_dir)
    traces = in_dir / inference.TRACES_FILE
    if not traces.exists():
        raise ConfigError(f"no {inference.TRACES_FILE} in {in_dir}")
    out_dir = Path(args.output) if args.output else in_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    draws, days = inference.read_traces_csv(traces)
    quantiles = inference._summaries(draws)

    sp = out_dir / inference.SUMMARY_FILE
    inference.write_summary_csv(quantiles, days, sp)
    print(f"recomputed quantiles for {int(np.sum(days + 1))} ability points -> {sp}")

    truth_path = _fit_truth(in_dir)
    if truth_path is not None:
        truth = simgen.read_truth_csv(truth_path)
        truth_days = np.diff(truth.theta_start) - 1
        if not np.array_equal(truth_days, days):
            raise DataError(f"{truth_path}: theta days per individual "
                            f"{truth_days.tolist()} do not match {traces}: {days.tolist()}")
        cov = inference.ability_coverage(quantiles, truth.theta, days)
        hits = inference.parameter_coverage(quantiles, truth)
        print("ability coverage (95% interval vs truth):")
        for i, frac in enumerate(cov.per_individual):
            print(f"  individual {i + 1}: {100 * frac:.1f}%")
        print(f"  overall: {100 * cov.overall:.1f}%")
        print(f"parameter coverage: {100 * np.mean(hits):.2f}%")
        for name, hit in zip(inference.TRACE_NAMES[1:], split_keyed(hits, len(days))[1:]):
            print(f"  {name}: {100 * np.mean(hit):.2f}%")
        with (out_dir / "coverage.csv").open("w") as fh:
            fh.write("individual,coverage\n")
            for i, frac in enumerate(cov.per_individual):
                fh.write(f"{i + 1},{frac:.17g}\n")
            fh.write(f"overall,{cov.overall:.17g}\n")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dir-sampler",
                     description="Dynamic item response model sampler")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a dataset from the forward model")
    p.add_argument("--config", help="JSON file with generator settings")
    p.add_argument("--paper-defaults", action="store_true",
                   help="use the 10x50x4x10 reference design")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="run the propriety gate on a dataset")
    p.add_argument("data_dir")
    p.set_defaults(func=cmd_validate)

    for name, force in (("fit", False), ("online", True)):
        p = sub.add_parser(name, help="fit the model"
                           + (" on each data prefix (on-line mode)" if force else ""))
        p.add_argument("data_dir")
        p.add_argument("--config", help="JSON file with constants/sampler settings")
        p.add_argument("--iterations", type=int, default=None)
        p.add_argument("--burn-in", dest="burn_in", type=int, default=None)
        p.add_argument("--thin", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--chains", type=int, default=None)
        p.add_argument("--drift-sd", dest="drift_sd", type=float, default=None)
        if not force:
            p.add_argument("--mode", choices=("retrospective", "online"), default=None)
        p.add_argument("-o", "--output", required=True)
        p.set_defaults(func=lambda a, _force=force: cmd_fit(a, force_online=_force))

    p = sub.add_parser("summarize", help="recompute quantiles (and coverage when "
                                         "the fit's truth.csv is found) from traces")
    p.add_argument("data_dir")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_summarize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print("dataset fails the propriety gate:", file=sys.stderr)
        for clause, detail in exc.report.failures:
            print(f"  violated clause: {clause} ({detail})", file=sys.stderr)
        return 2
    except (DirSamplerError, OSError) as exc:  # OSError: a path that cannot be made or written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
