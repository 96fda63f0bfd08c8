"""swissmc: recombine per-shard MCMC sample batches into one posterior sample.

Shards of a large dataset are sampled independently (one chain per batch) and
the per-batch draws are merged by one of four combiners: SPD-square-root
affine maps (swiss), draw-wise precision-weighted averaging (consensus),
shift-only re-centring (ar) or Gaussian-barycenter maps (barycenter).
Discrepancy metrics, synthetic targets, an adaptive random-walk Metropolis
sampler and an experiment harness round out the toolkit.
"""

from .combiners import (
    AffineMap,
    CombineResult,
    ar_combine,
    barycenter_combine,
    consensus_combine,
    displacement,
    gaussian_barycenter,
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
    summarize_reports,
)
from .io import read_dataset_csv, write_dataset_csv
from .linalg import (
    SpectralDecomposition,
    cholesky,
    draw_gaussian,
    eigh,
    random_orthogonal,
    sample_inverse_wishart,
    spd_inverse,
    spd_roots,
    spsq,
    symmetrize,
)
from .metrics import (
    Kde1D,
    MetricReport,
    compute_metrics,
    iad,
    kde_1d,
    mahalanobis,
    silverman_bandwidth,
    skew_deviation,
)
from .moments import (
    BatchMeta,
    Moments,
    SampleBatch,
    consensus_pool,
    estimate_moments,
    pool_moments,
)
from .rng import RngStream, mix_seed, splitmix64
from .sampler import SamplerConfig, sample, sample_all_batches
from .targets import (
    Dataset,
    Partition,
    TargetModel,
    gaussian_conjugate_suite,
    gaussian_mixture_logpdf,
    logistic_regression_model,
    make_target,
    partition,
    rare_bernoulli_logpdf,
    simulate_rare_feature_data,
    warped_gaussian_logpdf,
)

__version__ = "0.1.0"
