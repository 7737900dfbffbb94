"""Dynamic item response model: data types, Gibbs sampler, CLI.

The public names below are re-exported lazily (PEP 562): the first access
to one imports the submodule that defines it.  So ``python -m
dir_sampler.cli`` runs this file without loading the sampler, and each CLI
stage imports only the modules it runs (see ``cli``).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "distributions": ("ks_quantile", "make_rng", "normal_isf", "sample_gamma", "sample_ks",
                      "sample_truncated_normal"),
    "errors": ("ConfigError", "DataError", "DirSamplerError", "NumericError",
               "ValidationError"),
    "gibbs": ("SweepWorkspace", "gibbs_sweep"),
    "inference": ("ChainOutput", "CoverageResult", "ability_coverage", "fit", "fit_online",
                  "parameter_coverage", "summarize"),
    "model": ("Dataset", "LatentState", "ModelConstants", "SamplerConfig",
              "ValidationReport", "initial_state", "read_dataset_csv", "theta_offsets",
              "validate_dataset", "write_dataset_csv"),
    "simgen": ("SimConfig", "SimTruth", "paper_default_config", "read_truth_csv",
               "simulate_dataset", "write_truth_csv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:  # a submodule name falls through to the import system
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)
