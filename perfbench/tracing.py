"""Span tracing of one dir-sampler CLI stage, from outside the package.

``python3 perfbench/tracing.py SPANS_FILE CLI_ARGS...`` imports the package,
wraps the layer functions named in ``install`` so that every call records a
span (name, start, end, id, parent id), runs ``dir_sampler.cli.main`` on
CLI_ARGS in this process and writes the spans to SPANS_FILE when the stage
ends.  Spans stay in memory until then.  Chains that ``fit --chains k`` runs
in forked pool workers inherit the wrappers; each worker writes the spans of
each chain to ``SPANS_FILE.<pid>.<n>`` when the chain ends.

``layer_metrics`` turns the spans of a traced run into the per-layer metrics
that ``run.py --trace 1`` reports.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# The nine updates of one Gibbs sweep, in sweep order.
UPDATES = ("update_latent_utilities", "update_abilities", "update_growth",
           "update_test_effects", "update_test_effect_precision", "update_day_effects",
           "update_day_effect_precision", "update_drift_precision", "update_ks_scales")


class Tracer:
    """Records nested spans and event counts for the current process."""

    def __init__(self):
        self.spans = []     # [name, start, end, id, parent id]
        self.counts = defaultdict(int)
        self._stack = []
        self._next = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = f"{os.getpid()}:{self._next}"
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append([name, start, end, span_id, parent])
        return traced

    def calibrate(self, n: int = 20000) -> None:
        """Count the nanoseconds a wrapper adds to one call, timed on a no-op."""
        def noop():
            return None
        wrapped = self.wrap("trace.calibrate", noop)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        del self.spans[-n:]
        self.counts["span_cost_ns"] = max(int(1e9 * ((t2 - t1) - (t1 - t0)) / n), 0)

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}))


def install(tracer: Tracer, spans_path: str) -> None:
    """Replace the layer functions with traced wrappers, where their callers
    look them up."""
    import numpy as np
    from dir_sampler import cli, ffbs, gibbs, inference, model, simgen

    def patch(module, attr, name, fn=None):
        setattr(module, attr, tracer.wrap(name, fn or getattr(module, attr)))

    for attr in UPDATES:
        if attr != "update_ks_scales":
            patch(gibbs, attr, f"gibbs.{attr}")

    update_ks = gibbs.update_ks_scales

    def ks_counting(rng, state, work):
        before = state.ks_scale.copy()
        update_ks(rng, state, work)
        tracer.counts["ks_proposals"] += before.size
        tracer.counts["ks_accepted"] += int(np.count_nonzero(state.ks_scale != before))
    patch(gibbs, "update_ks_scales", "gibbs.update_ks_scales", ks_counting)

    sample_ks = gibbs.sample_ks

    def ks_draws(rng, size=None):
        tracer.counts["ks_draws"] += 1 if size is None else int(np.prod(size))
        return sample_ks(rng, size)
    patch(gibbs, "sample_ks", "distributions.sample_ks", ks_draws)
    patch(gibbs, "sample_truncated_normal", "distributions.sample_truncated_normal")
    patch(ffbs, "filter_from_day_sums", "ffbs.filter_from_day_sums")
    patch(ffbs, "backward_sample", "ffbs.backward_sample")
    gibbs.SweepWorkspace.__init__ = tracer.wrap("gibbs.SweepWorkspace",
                                                gibbs.SweepWorkspace.__init__)
    patch(inference, "gibbs_sweep", "gibbs.gibbs_sweep")

    model.Dataset.individual_prefix = tracer.wrap("model.individual_prefix",
                                                  model.Dataset.individual_prefix)
    for module in (cli, inference, simgen):
        patch(module, "validate_dataset", "model.validate_dataset")
    patch(cli, "read_dataset_csv", "model.read_dataset_csv")
    patch(cli, "write_dataset_csv", "model.write_dataset_csv")
    patch(simgen, "simulate_dataset", "simgen.simulate_dataset")

    for attr in ("fit", "fit_online", "_run_chain", "_summaries", "write_traces_csv",
                 "read_traces_csv", "write_summary_csv", "write_online_csv"):
        patch(inference, attr, f"inference.{attr}")

    main_pid = os.getpid()
    fit_one_chain = cli._fit_one_chain

    @functools.wraps(fit_one_chain)
    def one_chain(packed):
        worker = os.getpid() != main_pid
        if worker:  # drop what the fork copied from the parent
            tracer.clear()
        try:
            return fit_one_chain(packed)
        finally:
            if worker:
                tracer.dump(f"{spans_path}.{os.getpid()}.{time.perf_counter_ns()}")
    cli._fit_one_chain = one_chain


def load(spans_path: Path) -> tuple[list, dict]:
    """Spans and counts of one traced stage, its pool workers' included."""
    spans, counts = [], defaultdict(int)
    for path in [spans_path, *sorted(spans_path.parent.glob(spans_path.name + ".*"))]:
        part = json.loads(path.read_text())
        spans.extend(part["spans"])
        for key, val in part["counts"].items():
            counts[key] += val
    return spans, counts


class SpanStats:
    """Call counts, total and self times per span name."""

    def __init__(self, spans: list):
        child_time = defaultdict(float)
        for _, start, end, _, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        for name, start, end, span_id, _ in spans:
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[span_id]

    def mean(self, name: str) -> float:
        """Mean duration of one call in seconds; 0 when never called."""
        return self.total[name] / self.calls[name] if self.calls[name] else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(main: tuple, others: list) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    ``main`` holds the spans and counts of the stage that samples (``fit`` or
    ``online``); per-sweep figures come from it alone.  ``others`` holds the
    spans of the other traced stages, for the CSV readers, writers and the
    simulator.
    """
    spans, counts = main
    m = SpanStats(spans)
    every = SpanStats(spans + [s for other in others for s in other])
    sweeps = m.calls["gibbs.gibbs_sweep"]
    out = {
        "model.read_dataset_csv_s": (every.mean("model.read_dataset_csv"), "s"),
        "model.write_dataset_csv_s": (every.mean("model.write_dataset_csv"), "s"),
        "model.validate_dataset_ms": (1e3 * m.mean("model.validate_dataset"), "ms"),
        "model.individual_prefix_ms": (1e3 * m.mean("model.individual_prefix"), "ms"),
        "simgen.simulate_dataset_ms": (1e3 * every.mean("simgen.simulate_dataset"), "ms"),
        "distributions.sample_ks_ms_per_sweep":
            (1e3 * _ratio(m.total["distributions.sample_ks"], sweeps), "ms"),
        "distributions.sample_ks_ns_per_draw":
            (1e9 * _ratio(m.total["distributions.sample_ks"], counts["ks_draws"]), "ns"),
        "distributions.truncated_normal_ms_per_sweep":
            (1e3 * _ratio(m.total["distributions.sample_truncated_normal"], sweeps), "ms"),
        "ffbs.filter_ms_per_sweep":
            (1e3 * _ratio(m.total["ffbs.filter_from_day_sums"], sweeps), "ms"),
        "ffbs.backward_ms_per_sweep":
            (1e3 * _ratio(m.total["ffbs.backward_sample"], sweeps), "ms"),
        "ffbs.paths_per_sweep": (_ratio(m.calls["ffbs.backward_sample"], sweeps), "count"),
        "gibbs.sweep_ms": (1e3 * _ratio(m.total["gibbs.gibbs_sweep"], sweeps), "ms"),
    }
    for attr in UPDATES:
        out[f"gibbs.{attr[len('update_'):]}_ms"] = (
            1e3 * _ratio(m.self_time[f"gibbs.{attr}"], sweeps), "ms")
    chains = m.calls["inference._run_chain"]
    refits = m.calls["model.individual_prefix"]
    out.update({
        "gibbs.workspace_ms": (1e3 * m.mean("gibbs.SweepWorkspace"), "ms"),
        "gibbs.ks_accept_rate": (_ratio(counts["ks_accepted"], counts["ks_proposals"]), "ratio"),
        "inference.sweeps_per_s": (_ratio(sweeps, m.total["inference._run_chain"]), "1/s"),
        "inference.chain_overhead_ms":
            (1e3 * _ratio(m.self_time["inference._run_chain"], chains), "ms"),
        "inference.update_ms": (1e3 * _ratio(m.total["inference.fit_online"], refits), "ms"),
        "inference.write_traces_csv_s": (every.mean("inference.write_traces_csv"), "s"),
        "inference.read_traces_csv_s": (every.mean("inference.read_traces_csv"), "s"),
        "inference.summarize_ms": (1e3 * m.mean("inference._summaries"), "ms"),
        "trace.spans": (len(spans), "count"),
        "trace.span_cost_s": (1e-9 * counts["span_cost_ns"] * len(spans), "s"),
    })
    return out


def main(argv: list) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer, spans_path)
    from dir_sampler import cli
    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        tracer.calibrate()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
