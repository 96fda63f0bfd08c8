"""swissmc: recombine per-shard MCMC sample batches into one posterior sample.

Shards of a large dataset are sampled independently (one chain per batch) and
the per-batch draws are merged by one of four combiners: SPD-square-root
affine maps (swiss), draw-wise precision-weighted averaging (consensus),
shift-only re-centring (ar) or Gaussian-barycenter maps (barycenter).
Discrepancy metrics, synthetic targets, an adaptive random-walk Metropolis
sampler and an experiment harness round out the toolkit.
"""

from .combiners import (
    CombineResult,
    ar_combine,
    barycenter_combine,
    consensus_combine,
    displacement,
    swiss_combine,
)
from .errors import (
    ConvergenceError,
    DataError,
    DecompositionError,
    InsufficientSamplesError,
    InvalidInputError,
    NotPositiveDefiniteError,
    ParseError,
    SwissError,
)
from .harness import (
    COMBINER_NAMES,
    ExperimentConfig,
    ExperimentReport,
    ExperimentSummary,
    bench_dimension_scaling,
    run_experiment,
    strip_timing,
)
from .io import read_dataset_csv, write_dataset_csv
from .linalg import cholesky, draw_gaussian, eigh, spd_inverse, spd_roots
from .metrics import (
    MetricReport,
    Reference,
    compute_metrics,
    iad,
    mahalanobis,
    silverman_bandwidth,
    skew_deviation,
)
from .moments import Moments, SampleBatch, estimate_moments, pool_moments
from .rng import RngStream, mix_seed
from .sampler import Chain, SamplerConfig, sample, sample_all_batches
from .targets import (
    Dataset,
    Partition,
    TargetModel,
    gaussian_conjugate_suite,
    logistic_regression_model,
    make_target,
    partition,
    simulate_rare_feature_data,
)

__all__ = [
    # combiners
    "CombineResult", "ar_combine", "barycenter_combine", "consensus_combine",
    "displacement", "swiss_combine",
    # errors
    "ConvergenceError", "DataError", "DecompositionError", "InsufficientSamplesError",
    "InvalidInputError", "NotPositiveDefiniteError", "ParseError", "SwissError",
    # harness
    "COMBINER_NAMES", "ExperimentConfig", "ExperimentReport", "ExperimentSummary",
    "bench_dimension_scaling", "run_experiment", "strip_timing",
    # io
    "read_dataset_csv", "write_dataset_csv",
    # linalg
    "cholesky", "draw_gaussian", "eigh", "spd_inverse", "spd_roots",
    # metrics
    "MetricReport", "Reference", "compute_metrics", "iad", "mahalanobis",
    "silverman_bandwidth", "skew_deviation",
    # moments
    "Moments", "SampleBatch", "estimate_moments", "pool_moments",
    # rng
    "RngStream", "mix_seed",
    # sampler
    "Chain", "SamplerConfig", "sample", "sample_all_batches",
    # targets
    "Dataset", "Partition", "TargetModel", "gaussian_conjugate_suite",
    "logistic_regression_model", "make_target", "partition", "simulate_rare_feature_data",
]

__version__ = "0.1.0"
