"""Command-line entry point: simulate / validate / fit / online / summarize.

Config files are flat JSON; unknown keys are rejected so a typo in a
constant cannot silently change a run.  Every output directory gets a
manifest.json recording the resolved configuration, seed, and input
checksums, sufficient to re-run bit-identically.  A fit's manifest also
records its data directory, where summarize finds the truth.csv that
simulate wrote.  A retrospective fit also writes run_report.json with each
chain's wall time, sweep count and K-S acceptance rate.  Exit codes: 0 ok,
1 runtime error, 2 validation failure, 3 config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, DirSamplerError, ValidationError
from .model import (Dataset, ModelConstants, SamplerConfig, read_dataset_csv,
                    validate_dataset, write_dataset_csv,
                    GROUPS_FILE, LAPSES_FILE, RESPONSES_FILE)
from . import inference, simgen

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
    return cfg


def _sha256(path: Path) -> str:
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
    overrides = _load_config(args.config, _SIM_KEYS) if args.config else {}
    if args.paper_defaults:
        cfg = simgen.paper_default_config(seed=overrides.get("seed", 0))
        for key, val in overrides.items():
            cfg = replace(cfg, **{key: val})
    else:
        required = {"n_individuals", "days", "tests_per_day", "items_per_test",
                    "growth", "day_effect_precision", "test_effect_precision",
                    "drift_precision", "sigma", "rho", "delta_tmax"}
        missing = required - set(overrides)
        if missing:
            raise ConfigError("simulate needs --paper-defaults or a config with keys: "
                              + ", ".join(sorted(missing)))
        cfg = simgen.SimConfig(**overrides)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)

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
    priors = {}
    for label in set(data.group):
        if str(label) in prior_cfg:
            mu, v = prior_cfg[str(label)]
            priors[label] = (float(mu), float(v))
        else:
            priors[label] = DEFAULT_GROUP_PRIOR
    return ModelConstants(sigma=cfg.get("sigma", DEFAULT_SIGMA),
                          rho=cfg.get("rho", DEFAULT_RHO),
                          delta_tmax=cfg.get("delta_tmax", DEFAULT_DELTA_TMAX),
                          group_prior=priors)


def _fit_one_chain(packed):
    data, constants, config = packed
    return inference.fit(data, constants, config)


def cmd_fit(args, force_online: bool = False) -> int:
    cfg = _load_config(args.config, _FIT_KEYS) if args.config else {}
    for key, flag in (("iterations", "iterations"), ("burn_in", "burn_in"),
                      ("thin", "thin"), ("seed", "seed"), ("mode", "mode"),
                      ("drift_sd", "drift_sd"), ("chains", "chains")):
        val = getattr(args, flag, None)
        if val is not None:
            cfg[key] = val
    mode = "online" if force_online else cfg.get("mode", "retrospective")
    config = SamplerConfig(
        n_iterations=int(cfg.get("iterations", 50_000)),
        burn_in=int(cfg.get("burn_in", 30_000)),
        thin=int(cfg.get("thin", 10)),
        seed=int(cfg.get("seed", 0)),
        mode=mode,
        fixed_drift_sd=cfg.get("drift_sd"),
    )
    chains = int(cfg.get("chains", 1))
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
        report = validate_dataset(data)
        if not report.passed:
            raise ValidationError(report)
        trajectories = inference.fit_online(data, constants, config)
        path = out_dir / inference.ONLINE_FILE
        inference.write_online_csv(trajectories, path)
        _write_manifest(out_dir, "fit --mode online", resolved, checksums, [path],
                        data_dir=str(data_dir.resolve()))
        print(f"on-line trajectories for {data.n_individuals} individuals -> {path}")
        return 0

    chain_configs = [replace(config, seed=config.seed + k) for k in range(chains)]
    if chains == 1:
        outputs = [inference.fit(data, constants, config)]
    else:
        workers = _max_workers(chains)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_fit_one_chain,
                                    [(data, constants, c) for c in chain_configs]))

    written = []
    for k, output in enumerate(outputs):
        chain_dir = out_dir / f"chain_{k:02d}" if chains > 1 else out_dir
        chain_dir.mkdir(parents=True, exist_ok=True)
        tp, sp = chain_dir / inference.TRACES_FILE, chain_dir / inference.SUMMARY_FILE
        inference.write_traces_csv(output, tp)
        inference.write_summary_csv(output.summaries, output.days, sp)
        written.extend([tp, sp])
    if chains > 1:
        pooled_draws = {name: np.concatenate([o.draw_arrays()[name] for o in outputs])
                        for name in outputs[0].draw_arrays()}
        sp = out_dir / inference.SUMMARY_FILE
        pooled = inference._summaries(pooled_draws)
        inference.write_summary_csv(pooled, outputs[0].days, sp)
        written.append(sp)
    report = out_dir / RUN_REPORT_FILE
    report.write_text(json.dumps({"chains": [
        {"wall_time_s": o.wall_time, "sweeps": o.n_iterations,
         "ks_accept_rate": o.ks_accept_rate} for o in outputs]}, indent=2) + "\n")
    written.append(report)
    _write_manifest(out_dir, "fit", resolved, checksums,
                    [p for p in written if p.parent == out_dir],
                    data_dir=str(data_dir.resolve()))
    print(f"fit complete: {chains} chain(s), {outputs[0].n_draws} draws each -> {out_dir}")
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
    in_dir = Path(args.data_dir)
    traces = in_dir / inference.TRACES_FILE
    if not traces.exists():
        raise ConfigError(f"no {inference.TRACES_FILE} in {in_dir}")
    draws, _, days = inference.read_traces_csv(traces)
    summaries = inference._summaries(draws)
    out_dir = Path(args.output) if args.output else in_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    sp = out_dir / inference.SUMMARY_FILE
    inference.write_summary_csv(summaries, days, sp)
    print(f"recomputed quantiles for {draws['theta'].shape[1]} ability points -> {sp}")

    truth_path = _fit_truth(in_dir)
    if truth_path is not None:
        truth = simgen.read_truth_csv(truth_path)
        truth_days = np.diff(truth.theta_start) - 1
        if not np.array_equal(truth_days, days):
            raise DataError(f"{truth_path}: theta days per individual "
                            f"{truth_days.tolist()} do not match {traces}: {days.tolist()}")
        cov = inference.ability_coverage(summaries["theta"], truth.theta, days)
        param = inference.parameter_coverage(summaries, truth)
        print("ability coverage (95% interval vs truth):")
        for i, frac in enumerate(cov.per_individual):
            print(f"  individual {i + 1}: {100 * frac:.1f}%")
        print(f"  overall: {100 * cov.overall:.1f}%")
        print(f"parameter coverage: {100 * param:.2f}%")
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
    except DirSamplerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
