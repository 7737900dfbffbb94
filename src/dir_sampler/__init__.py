"""Dynamic item response model: data types, Gibbs sampler, CLI."""

__version__ = "0.1.0"

from .distributions import make_rng, sample_gamma, sample_ks, sample_truncated_normal
from .errors import (ConfigError, DataError, DirSamplerError, NumericError,
                     ValidationError)
from .gibbs import SweepWorkspace, gibbs_sweep
from .inference import (ChainOutput, CoverageResult, OnlineTrajectory, QuantitySummary,
                        ability_coverage, fit, fit_online, parameter_coverage, summarize)
from .model import (Dataset, LatentState, ModelConstants, SamplerConfig,
                    ValidationReport, initial_state, read_dataset_csv, theta_offsets,
                    validate_dataset, write_dataset_csv)
from .simgen import (SimConfig, SimTruth, paper_default_config, read_truth_csv,
                     simulate_dataset, write_truth_csv)
