"""Log-density targets, synthetic data generators and the data partitioner.

Targets are built from small picklable callables so that chains can run in
worker processes.  A TargetModel evaluates

    prior_power * log_prior(theta) + likelihood_power * log_likelihood(theta, batch)

plus an optional fixed reparameterization (Jacobian) term that is never
tempered.  The exponent pair encodes the batch-target convention: (1, B) for
inflated targets, (1/B, 1) for un-inflated ones, (1, 1) for the full-data
posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DataError,
    InvalidInputError,
    NotPositiveDefiniteError,
)
from .linalg import sample_inverse_wishart, spd_inverse, symmetrize
from .moments import Moments, consensus_pool
from .rng import RngStream

# Rare-feature logistic benchmark: P(x_i = 1) per column and the true
# coefficients used to simulate responses.  Column 0 is the intercept.
RARE_FEATURE_RATES = (1.0, 0.02, 0.03, 0.05, 0.001)
RARE_FEATURE_COEFS = (-3.0, 1.2, -0.5, 0.8, 3.0)

# Rare-Bernoulli toy posterior: 1000 trials with a single positive response
# and a flat prior, i.e. density proportional to theta * (1 - theta)^999.
RARE_BERNOULLI_FAILURES = 999


def _softplus(x: float) -> float:
    """log(1 + exp(x)) without overflow."""
    return float(np.logaddexp(0.0, x))


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class TargetModel:
    """An evaluatable log-density split into prior and likelihood terms."""

    name: str
    dim: int
    log_prior: Callable
    log_likelihood: Callable
    prior_power: float = 1.0
    likelihood_power: float = 1.0
    log_jacobian: Callable | None = None
    to_reported: Callable | None = None
    init_sampler: Callable | None = None
    mle: Callable | None = None
    # (data_batch, prior_power, likelihood_power) -> Moments of the Laplace
    # approximation; only targets with a closed-form Hessian provide it.
    laplace: Callable | None = None

    def log_density(self, theta, data_batch=None) -> float:
        theta = np.asarray(theta, dtype=float)
        total = self.prior_power * self.log_prior(theta)
        total += self.likelihood_power * self.log_likelihood(theta, data_batch)
        if self.log_jacobian is not None:
            total += self.log_jacobian(theta)
        if math.isnan(total):
            return -math.inf
        return float(total)

    def with_powers(self, prior_power: float, likelihood_power: float) -> "TargetModel":
        return replace(self, prior_power=prior_power, likelihood_power=likelihood_power)

    def report(self, draws: np.ndarray) -> np.ndarray:
        """Map chain-scale draws to the reported parameterization."""
        return draws if self.to_reported is None else self.to_reported(draws)


# --------------------------------------------------------------------------
# Priors and init samplers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatPrior:
    def __call__(self, theta) -> float:
        return 0.0


@dataclass(frozen=True)
class GaussianPrior:
    """Zero-mean isotropic Gaussian prior with the given variance."""

    variance: float = 100.0

    def __call__(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        d = theta.size
        return float(
            -0.5 * float(theta @ theta) / self.variance
            - 0.5 * d * math.log(2.0 * math.pi * self.variance)
        )


@dataclass(frozen=True)
class StandardNormalInit:
    dim: int = 1

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.dim)


@dataclass(frozen=True)
class GaussianPriorInit:
    dim: int
    variance: float = 100.0

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        return math.sqrt(self.variance) * rng.standard_normal(self.dim)


@dataclass(frozen=True)
class LogitUniformInit:
    """Uniform draw on the unit interval, mapped to the logit scale."""

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        u = min(max(rng.random(), 1e-12), 1.0 - 1e-12)
        return np.array([math.log(u) - math.log1p(-u)])


@dataclass(frozen=True)
class MixtureModeInit:
    """Standard-normal draw around one of the two modes, chosen by coin flip."""

    mode_a: tuple
    mode_b: tuple

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        mode = self.mode_a if rng.random() < 0.5 else self.mode_b
        return np.asarray(mode, dtype=float) + rng.standard_normal(len(mode))


# --------------------------------------------------------------------------
# Rare-Bernoulli target (sampled on the logit scale)
# --------------------------------------------------------------------------


def rare_bernoulli_logpdf(theta: float) -> float:
    """Log-density of the rare-Bernoulli posterior on the unit interval."""
    if not 0.0 < theta < 1.0:
        return -math.inf
    return math.log(theta) + RARE_BERNOULLI_FAILURES * math.log1p(-theta)


@dataclass(frozen=True)
class RareBernoulliLikelihood:
    """Rare-Bernoulli log-density evaluated at theta = sigmoid(phi)."""

    def __call__(self, phi, data_batch=None) -> float:
        p = float(np.asarray(phi, dtype=float).ravel()[0])
        # log sigmoid(p) - 999 * softplus(p) == log theta + 999 log(1 - theta)
        return -_softplus(-p) - RARE_BERNOULLI_FAILURES * _softplus(p)


@dataclass(frozen=True)
class LogitJacobian:
    """log |d theta / d phi| for theta = sigmoid(phi)."""

    def __call__(self, phi) -> float:
        p = float(np.asarray(phi, dtype=float).ravel()[0])
        return -_softplus(-p) - _softplus(p)


@dataclass(frozen=True)
class SigmoidReport:
    def __call__(self, draws: np.ndarray) -> np.ndarray:
        return sigmoid(draws)


def rare_bernoulli_model() -> TargetModel:
    """Rare-Bernoulli target; chains run unconstrained on the logit scale."""
    return TargetModel(
        name="rare-bernoulli",
        dim=1,
        log_prior=FlatPrior(),
        log_likelihood=RareBernoulliLikelihood(),
        log_jacobian=LogitJacobian(),
        to_reported=SigmoidReport(),
        init_sampler=LogitUniformInit(),
    )


# --------------------------------------------------------------------------
# Warped Gaussian and Gaussian-mixture targets
# --------------------------------------------------------------------------

_LOG_2PI = math.log(2.0 * math.pi)


def warped_gaussian_logpdf(theta) -> float:
    """Banana-shaped density: standard normal in (theta_1, theta_2 + theta_1^2)."""
    t = np.asarray(theta, dtype=float).ravel()
    return float(-0.5 * t[0] ** 2 - 0.5 * (t[1] + t[0] ** 2) ** 2 - _LOG_2PI)


@dataclass(frozen=True)
class WarpedGaussianDensity:
    def __call__(self, theta, data_batch=None) -> float:
        return warped_gaussian_logpdf(theta)


def warped_gaussian_model() -> TargetModel:
    return TargetModel(
        name="warped-gaussian",
        dim=2,
        log_prior=FlatPrior(),
        log_likelihood=WarpedGaussianDensity(),
        init_sampler=StandardNormalInit(2),
    )


def gaussian_mixture_logpdf(theta, mode_a=(-2.0, 0.0), mode_b=(2.0, 0.0)) -> float:
    """Equal mix of two unit-covariance bivariate Gaussian bumps."""
    t = np.asarray(theta, dtype=float).ravel()
    a = np.asarray(mode_a, dtype=float)
    b = np.asarray(mode_b, dtype=float)
    log_a = -0.5 * float((t - a) @ (t - a)) - _LOG_2PI
    log_b = -0.5 * float((t - b) @ (t - b)) - _LOG_2PI
    return float(np.logaddexp(log_a, log_b))


@dataclass(frozen=True)
class MixtureDensity:
    mode_a: tuple = (-2.0, 0.0)
    mode_b: tuple = (2.0, 0.0)

    def __call__(self, theta, data_batch=None) -> float:
        return gaussian_mixture_logpdf(theta, self.mode_a, self.mode_b)


def gaussian_mixture_model(mode_a=(-2.0, 0.0), mode_b=(2.0, 0.0)) -> TargetModel:
    mode_a = tuple(float(v) for v in mode_a)
    mode_b = tuple(float(v) for v in mode_b)
    if len(mode_a) != 2 or len(mode_b) != 2:
        raise InvalidInputError("mixture modes must be length-2 vectors")
    return TargetModel(
        name="gaussian-mixture",
        dim=2,
        log_prior=FlatPrior(),
        log_likelihood=MixtureDensity(mode_a, mode_b),
        init_sampler=MixtureModeInit(mode_a, mode_b),
    )


# --------------------------------------------------------------------------
# Logistic regression
# --------------------------------------------------------------------------


class LogisticData(NamedTuple):
    """Logistic-regression data collapsed to its sufficient statistics.

    ``rows`` holds the distinct feature rows, ``successes`` the response sum
    and ``counts`` the number of data rows behind each.  By the binomial
    identity the log-likelihood is sum_k s_k eta_k - c_k softplus(eta_k) with
    eta = rows @ theta, so one evaluation costs O(distinct rows), not O(n).
    """

    rows: np.ndarray
    successes: np.ndarray
    counts: np.ndarray


def collapse_logistic(x, y) -> LogisticData:
    """Group the rows of (x, y) into distinct feature rows, in lexicographic
    order, with their counts and response sums."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # lexsort keys on its last column first, hence the reversal.  This gives
    # np.unique(x, axis=0)'s rows about 15x faster on the rare-feature design.
    order = np.lexsort(x.T[::-1])
    sorted_x = x[order]
    starts = np.ones(x.shape[0], dtype=bool)
    starts[1:] = np.any(sorted_x[1:] != sorted_x[:-1], axis=1)
    group = np.cumsum(starts) - 1
    rows = sorted_x[starts]
    successes = np.bincount(group, weights=y[order], minlength=rows.shape[0])
    counts = np.bincount(group, minlength=rows.shape[0]).astype(float)
    return LogisticData(rows, successes, counts)


@dataclass(frozen=True, eq=False)
class LogisticLikelihood:
    """Bernoulli log-likelihood under the logit link.

    Holds the full data; per-batch evaluation passes that batch's
    LogisticData instead.
    """

    data: LogisticData

    def __call__(self, theta, data_batch=None) -> float:
        rows, successes, counts = data_batch if data_batch is not None else self.data
        eta = rows @ np.asarray(theta, dtype=float)
        return float(successes @ eta - counts @ np.logaddexp(0.0, eta))


def logistic_log_likelihood_grad(theta, data: LogisticData) -> np.ndarray:
    """Gradient of the logistic log-likelihood in theta."""
    rows, successes, counts = data
    eta = rows @ np.asarray(theta, dtype=float)
    return rows.T @ (successes - counts * sigmoid(eta))


def _logistic_grad_neg_hess(theta, data: LogisticData, penalty: float, likelihood_power: float):
    """Gradient and negative Hessian of likelihood_power * loglik - penalty/2 |theta|^2."""
    rows, successes, counts = data
    p = sigmoid(rows @ theta)
    grad = likelihood_power * (rows.T @ (successes - counts * p)) - penalty * theta
    weights = counts * p * (1.0 - p)
    neg_hess = likelihood_power * symmetrize(rows.T @ (rows * weights[:, None]))
    return grad, neg_hess + penalty * np.eye(theta.size)


def _newton_step(neg_hess, grad, what: str) -> np.ndarray:
    try:
        return np.linalg.solve(neg_hess, grad)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefiniteError(f"{what}: {err}") from None


def logistic_mle(data: LogisticData):
    """Ridge-stabilized Newton iteration for the logistic ML estimate.

    A ridge of 1e-4 keeps the Hessian invertible when a feature column is
    constant within a batch (common with rare features), in which case the
    matching coefficient simply stays near zero.  At most 60 steps; it stops
    once a step moves no coordinate by 1e-10.
    """
    theta = np.zeros(data.rows.shape[1])
    for _ in range(60):
        grad, hess = _logistic_grad_neg_hess(theta, data, 1e-4, 1.0)
        step = _newton_step(hess, grad, "ML estimate")
        theta = theta + step
        if float(np.max(np.abs(step))) < 1e-10:
            break
    return theta


def logistic_laplace(
    data: LogisticData,
    *,
    prior_variance: float = 100.0,
    prior_power: float = 1.0,
    likelihood_power: float = 1.0,
    max_iters: int = 100,
) -> Moments:
    """Laplace approximation of a tempered logistic-regression posterior.

    The target is N(0, prior_variance I)^prior_power x likelihood^likelihood_power;
    the result is its mode and the inverse of the negative Hessian of the
    log-density there.  Raises ConvergenceError if Newton's method does not
    settle within ``max_iters`` steps.
    """
    penalty = prior_power / prior_variance
    theta = np.zeros(data.rows.shape[1])
    for _ in range(max_iters):
        grad, neg_hess = _logistic_grad_neg_hess(theta, data, penalty, likelihood_power)
        step = _newton_step(neg_hess, grad, "Laplace mode search")
        theta = theta + step
        if float(np.max(np.abs(step))) < 1e-10:
            _, neg_hess = _logistic_grad_neg_hess(theta, data, penalty, likelihood_power)
            return Moments(theta, spd_inverse(neg_hess))
    raise ConvergenceError(
        f"Laplace mode search did not converge after {max_iters} Newton steps"
    )


@dataclass(frozen=True, eq=False)
class LogisticMle:
    data: LogisticData

    def __call__(self, data_batch=None) -> np.ndarray:
        return logistic_mle(data_batch if data_batch is not None else self.data)


@dataclass(frozen=True, eq=False)
class LogisticLaplace:
    """Laplace moments of the tempered posterior on one batch (see logistic_laplace)."""

    data: LogisticData
    prior_variance: float = 100.0

    def __call__(self, data_batch=None, prior_power=1.0, likelihood_power=1.0) -> Moments:
        return logistic_laplace(
            data_batch if data_batch is not None else self.data,
            prior_variance=self.prior_variance,
            prior_power=prior_power,
            likelihood_power=likelihood_power,
        )


def logistic_regression_model(x, y, *, prior_variance: float = 100.0) -> TargetModel:
    """Logistic regression with a weakly informative Gaussian prior.

    The data are collapsed once (see collapse_logistic); batch data passed to
    the model's callables must be in the same LogisticData form.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise InvalidInputError(
            f"features {x.shape} and responses {y.shape} do not line up"
        )
    if not np.all((y == 0) | (y == 1)):
        raise InvalidInputError("responses must be 0/1")
    data = collapse_logistic(x, y)
    return TargetModel(
        name="logistic",
        dim=x.shape[1],
        log_prior=GaussianPrior(prior_variance),
        log_likelihood=LogisticLikelihood(data),
        init_sampler=GaussianPriorInit(x.shape[1], prior_variance),
        mle=LogisticMle(data),
        laplace=LogisticLaplace(data, prior_variance),
    )


# --------------------------------------------------------------------------
# Synthetic data and the conjugate Gaussian suite
# --------------------------------------------------------------------------


@dataclass(eq=False)
class Dataset:
    """Feature rows with an optional binary response and group key."""

    x: np.ndarray
    y: np.ndarray | None = None
    group: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1:
            raise InvalidInputError(f"features must be a non-empty (n, p) matrix, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise DataError("features contain non-finite values")
        self.x = x
        if self.y is not None:
            y = np.asarray(self.y, dtype=float).ravel()
            if y.size != x.shape[0]:
                raise InvalidInputError("response length does not match the feature rows")
            self.y = y
        if self.group is not None:
            group = np.asarray(self.group).ravel()
            if group.size != x.shape[0]:
                raise InvalidInputError("group length does not match the feature rows")
            self.group = group

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]


def simulate_rare_feature_data(n: int, seed: int) -> Dataset:
    """Simulate the rare-feature logistic benchmark (intercept plus four
    binary features, the last one active in roughly one row per thousand)."""
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    rng = RngStream(seed, 0).generator()
    rates = np.asarray(RARE_FEATURE_RATES)
    x = (rng.random((n, rates.size)) < rates).astype(float)
    x[:, 0] = 1.0
    p = sigmoid(x @ np.asarray(RARE_FEATURE_COEFS))
    y = (rng.random(n) < p).astype(float)
    return Dataset(x, y)


def gaussian_conjugate_suite(d: int, n_batches: int, seed: int) -> tuple[list[Moments], Moments]:
    """Per-batch Gaussian moments with inverse-Wishart covariances, plus
    the analytic full posterior.

    Batch means are standard normal, batch covariances are inverse-Wishart
    with 5d degrees of freedom and identity scale.  The full posterior is
    N(V sum_b V_b^-1 mu_b, V) with V^-1 = sum_b V_b^-1 (``consensus_pool``).
    """
    if d < 1 or n_batches < 1:
        raise InvalidInputError(f"need d >= 1 and n_batches >= 1, got d={d}, B={n_batches}")
    rng = RngStream(seed, 0).generator()
    identity = np.eye(d)
    per_batch = []
    for _ in range(n_batches):
        mean = rng.standard_normal(d)
        cov = sample_inverse_wishart(5.0 * d, identity, rng)
        per_batch.append(Moments(mean, cov))
    return per_batch, consensus_pool(per_batch)


# --------------------------------------------------------------------------
# Partitioning
# --------------------------------------------------------------------------

PARTITION_SCHEMES = ("random-equal", "by-group")


@dataclass(eq=False)
class Partition:
    """Assignment of each data row to a batch id in [0, n_batches)."""

    assignment: np.ndarray

    def __post_init__(self):
        assignment = np.asarray(self.assignment, dtype=int).ravel()
        if assignment.size == 0 or assignment.min() < 0:
            raise InvalidInputError("assignment must be non-empty with ids >= 0")
        # an id past the row count leaves a batch empty: reject it before
        # bincount allocates one counter per id
        if assignment.max() >= assignment.size or np.any(np.bincount(assignment) == 0):
            raise InvalidInputError("every batch must receive at least one row")
        self.assignment = assignment

    @property
    def n_batches(self) -> int:
        return int(self.assignment.max()) + 1

    def indices(self, batch_id: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == batch_id)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_batches)


def partition(data: Dataset, n_batches: int, scheme: str = "random-equal", seed: int = 0) -> Partition:
    """Split rows into batches; the assignment is a function of (seed, scheme)."""
    n = data.n_rows
    if n_batches < 1 or n_batches > n:
        raise InvalidInputError(f"cannot split {n} rows into {n_batches} batches")
    if scheme not in PARTITION_SCHEMES:
        raise InvalidInputError(f"unknown scheme {scheme!r}, expected one of {PARTITION_SCHEMES}")
    rng = RngStream(seed, 0).generator()
    assignment = np.empty(n, dtype=int)
    if scheme == "random-equal":
        perm = rng.permutation(n)
        for b, chunk in enumerate(np.array_split(perm, n_batches)):
            assignment[chunk] = b
    else:
        if data.group is None:
            raise InvalidInputError("by-group partitioning needs a group column")
        groups = np.unique(data.group)
        if n_batches > groups.size:
            raise InvalidInputError(
                f"cannot split {groups.size} groups into {n_batches} batches"
            )
        order = rng.permutation(groups.size)
        batch_of_group = {groups[g]: k % n_batches for k, g in enumerate(order)}
        for i, g in enumerate(data.group):
            assignment[i] = batch_of_group[g]
    return Partition(assignment)


def shard_data(data: Dataset, split: Partition) -> list[LogisticData]:
    """Per-batch data of a split dataset, in the form the data-backed targets
    evaluate: each batch's rows collapsed by collapse_logistic."""
    return [
        collapse_logistic(data.x[idx], data.y[idx])
        for idx in map(split.indices, range(split.n_batches))
    ]


# --------------------------------------------------------------------------
# Target registry
# --------------------------------------------------------------------------

# Registered targets and the keys each accepts in its ``params`` dict.
_TARGET_PARAMS = {
    "rare-bernoulli": (),
    "warped-gaussian": (),
    "gaussian-mixture": ("mode_a", "mode_b"),
    "logistic-rare": ("prior_variance",),
}
TARGET_NAMES = tuple(_TARGET_PARAMS)
DATA_BACKED_TARGETS = ("logistic-rare",)


def make_target(name: str, params: dict | None = None, dataset: Dataset | None = None) -> TargetModel:
    """Instantiate a registered target by name; unknown ``params`` keys are rejected."""
    if name not in _TARGET_PARAMS:
        raise InvalidInputError(f"unknown target {name!r}, expected one of {TARGET_NAMES}")
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise InvalidInputError(f"target parameters must be a dict, got {type(params).__name__}")
    unknown = sorted(set(params) - set(_TARGET_PARAMS[name]))
    if unknown:
        raise InvalidInputError(
            f"unknown parameters {unknown} for target {name!r}, "
            f"expected a subset of {list(_TARGET_PARAMS[name])}"
        )
    if name == "rare-bernoulli":
        return rare_bernoulli_model()
    if name == "warped-gaussian":
        return warped_gaussian_model()
    if name == "gaussian-mixture":
        return gaussian_mixture_model(
            params.get("mode_a", (-2.0, 0.0)), params.get("mode_b", (2.0, 0.0))
        )
    if dataset is None or dataset.y is None:
        raise InvalidInputError("logistic-rare needs a dataset with responses")
    return logistic_regression_model(
        dataset.x, dataset.y, prior_variance=params.get("prior_variance", 100.0)
    )
