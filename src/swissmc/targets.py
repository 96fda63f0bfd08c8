"""Log-density targets, synthetic data generators and the data partitioner.

Each target is a frozen dataclass subclass of TargetModel that holds only
its data and parameters.  ``log_density`` evaluates, at a (prior,
likelihood) exponent pair that the caller passes,

    prior_power * log_prior(theta) + likelihood_power * log_likelihood(theta, batch)

plus an optional fixed reparameterization (Jacobian) term that is never
tempered.  Every term takes a (K, d) stack of points, one per chain of a
lockstep group, with the per-chain data of ``stack_data``, and returns (K,)
values; ``log_density`` also takes one point, as the K = 1 stack.  The
exponent pair encodes the batch-target convention, which
``TargetModel.convention_powers`` alone decides: (1, B) for inflated
targets, (1/B, 1) for un-inflated ones, (1, 1) for the full-data posterior.
``make_target`` builds a registered target by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DataError,
    InvalidInputError,
    NotPositiveDefiniteError,
    finite_vector,
    integer,
    is_finite_number,
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

# Batch-target conventions of convention_powers.
CONVENTIONS = ("inflated", "subposterior", "full")


def _softplus(x):
    """log(1 + exp(x)) without overflow, elementwise."""
    return np.logaddexp(0.0, x)


def _sum_planes(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ..., added left to right.

    ``sum`` and ``@`` pick their summation order by array length and layout,
    so a chain's value could depend on the group it runs in.  A fixed order
    keeps each chain of a lockstep group bit-identical to the same chain run
    alone.  Meant for a short leading axis (one plane per coordinate).
    """
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _sum_last(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right (``cumsum`` adds in index
    order), so trailing zeros leave a row's total unchanged; see _sum_planes."""
    return terms.cumsum(axis=-1)[..., -1]


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


class TargetModel:
    """An evaluatable log-density split into prior and likelihood terms.

    A subclass is a frozen dataclass whose fields are its data and
    parameters.  It sets ``name`` and ``dim`` and defines ``log_likelihood``;
    it may override ``log_prior`` (flat by default) and ``report``
    (identity), and may replace any of the ``None`` hooks below with a
    method.  It never overrides ``log_density``.  ``log_prior``,
    ``log_likelihood`` and ``log_jacobian`` take a (K, d) stack (see the
    module docstring); a data-backed target also overrides ``stack_data``.
    """

    name: ClassVar[str]
    dim: ClassVar[int]
    # Data-backed targets evaluate per-batch data; data-free ones ignore it
    # and keep exponents (1, 1) under every convention.
    data_backed: ClassVar[bool] = False

    # Optional hooks, None when the target lacks them:
    # log_jacobian(theta): fixed reparameterization term, never tempered;
    # init_sampler(rng): starting point for init="prior-draw";
    # mle(data_batch): starting point for init="mle";
    # laplace(data_batch, powers): Moments of the Laplace approximation of
    #     this target at the (prior, likelihood) exponent pair ``powers``
    #     (needs a closed-form Hessian).
    log_jacobian = None
    init_sampler = None
    mle = None
    laplace = None

    def log_prior(self, theta):
        return np.zeros(theta.shape[0])

    def log_likelihood(self, theta, data_batch):
        raise NotImplementedError

    def log_density(self, theta, data_batch=None, powers=(1.0, 1.0)):
        """Log-density at each row of a (K, d) stack, or at one point.

        ``powers`` is the (prior, likelihood) exponent pair, two numbers or,
        for a stack, two (K,) arrays of per-chain exponents.  For a stack,
        ``data_batch`` is ``stack_data``'s per-chain data.  One point, with
        its own batch data (None: the target's data), runs as the K = 1
        stack and gives a float.  NaN becomes -inf.
        """
        theta = np.asarray(theta, dtype=float)
        point = theta.ndim == 1
        if point:
            theta, data_batch = theta[None], self.stack_data([data_batch])
        prior_power, likelihood_power = powers
        total = prior_power * self.log_prior(theta)
        total += likelihood_power * self.log_likelihood(theta, data_batch)
        if self.log_jacobian is not None:
            total += self.log_jacobian(theta)
        total = np.fmax(total, -np.inf)  # NaN -> -inf, every other value kept
        return float(total[0]) if point else total

    def stack_data(self, batches: list):
        """The per-chain data of a lockstep group in the form ``log_density``
        takes with (K, d) points; an entry of None stands for the target's
        own data.  The base passes the list through."""
        return list(batches)

    def convention_powers(self, convention: str, n_batches: int) -> tuple[float, float]:
        """The (prior, likelihood) exponents of ``convention``'s batch targets
        over ``n_batches`` batches.

        They are (1, B) for "inflated" batch targets, (1/B, 1) for
        "subposterior" (un-inflated) ones and (1, 1) for the "full"-data
        posterior.  A data-free target has no likelihood to split and stays
        at (1, 1) under every convention.
        """
        if convention not in CONVENTIONS:
            raise InvalidInputError(
                f"unknown convention {convention!r}, expected one of {CONVENTIONS}"
            )
        n_batches = integer(n_batches, "the batch count", 1)
        if not self.data_backed or convention == "full":
            return 1.0, 1.0
        if convention == "inflated":
            return 1.0, float(n_batches)
        return 1.0 / n_batches, 1.0

    def report(self, draws: np.ndarray) -> np.ndarray:
        """Map chain-scale draws to the reported parameterization."""
        return draws


# --------------------------------------------------------------------------
# Rare-Bernoulli target (sampled on the logit scale)
# --------------------------------------------------------------------------


def rare_bernoulli_logpdf(theta: float) -> float:
    """Log-density of the rare-Bernoulli posterior on the unit interval."""
    if not 0.0 < theta < 1.0:
        return -math.inf
    return math.log(theta) + RARE_BERNOULLI_FAILURES * math.log1p(-theta)


@dataclass(frozen=True)
class RareBernoulli(TargetModel):
    """Rare-Bernoulli posterior; chains run unconstrained on phi = logit(theta)."""

    name = "rare-bernoulli"
    dim = 1

    def log_likelihood(self, phi, data_batch):
        p = phi[:, 0]
        # log sigmoid(p) - 999 * softplus(p) == log theta + 999 log(1 - theta)
        return -_softplus(-p) - RARE_BERNOULLI_FAILURES * _softplus(p)

    def log_jacobian(self, phi):
        """log |d theta / d phi| for theta = sigmoid(phi)."""
        p = phi[:, 0]
        return -_softplus(-p) - _softplus(p)

    def init_sampler(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform draw on the unit interval, mapped to the logit scale."""
        u = min(max(rng.random(), 1e-12), 1.0 - 1e-12)
        return np.array([math.log(u) - math.log1p(-u)])

    def report(self, draws: np.ndarray) -> np.ndarray:
        return sigmoid(draws)


# --------------------------------------------------------------------------
# Warped Gaussian and Gaussian-mixture targets
# --------------------------------------------------------------------------

_LOG_2PI = math.log(2.0 * math.pi)


def warped_gaussian_logpdf(theta):
    """Banana-shaped density: standard normal in (theta_1, theta_2 + theta_1^2).

    A (K, 2) stack of points gives (K,) values, one point a scalar.
    """
    theta = np.asarray(theta, dtype=float)
    first, second = theta[..., 0], theta[..., 1]
    return -0.5 * first**2 - 0.5 * (second + first**2) ** 2 - _LOG_2PI


@dataclass(frozen=True)
class WarpedGaussian(TargetModel):
    name = "warped-gaussian"
    dim = 2

    def log_likelihood(self, theta, data_batch):
        return warped_gaussian_logpdf(theta)

    def init_sampler(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(2)


def gaussian_mixture_logpdf(theta, mode_a=(-2.0, 0.0), mode_b=(2.0, 0.0)):
    """Equal mix of two unit-covariance bivariate Gaussian bumps.

    A (K, 2) stack of points gives (K,) values, one point a scalar.
    """
    t = np.asarray(theta, dtype=float)
    log_a = -0.5 * _sum_last((t - np.asarray(mode_a, dtype=float)) ** 2) - _LOG_2PI
    log_b = -0.5 * _sum_last((t - np.asarray(mode_b, dtype=float)) ** 2) - _LOG_2PI
    return np.logaddexp(log_a, log_b)


@dataclass(frozen=True)
class GaussianMixture(TargetModel):
    """Equal mix of unit-covariance Gaussians at ``mode_a`` and ``mode_b``."""

    name = "gaussian-mixture"
    dim = 2

    mode_a: tuple = (-2.0, 0.0)
    mode_b: tuple = (2.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "mode_a", finite_vector(self.mode_a, "mode_a", 2))
        object.__setattr__(self, "mode_b", finite_vector(self.mode_b, "mode_b", 2))

    def log_likelihood(self, theta, data_batch):
        return gaussian_mixture_logpdf(theta, self.mode_a, self.mode_b)

    def init_sampler(self, rng: np.random.Generator) -> np.ndarray:
        """Standard-normal draw around one of the two modes, chosen by coin flip."""
        mode = self.mode_a if rng.random() < 0.5 else self.mode_b
        return np.asarray(mode, dtype=float) + rng.standard_normal(len(mode))


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


def _logistic_grad_neg_hess(theta, data: LogisticData, penalty: float, likelihood_power: float):
    """Gradient and negative Hessian of likelihood_power * loglik - penalty/2 |theta|^2."""
    rows, successes, counts = data
    p = sigmoid(rows @ theta)
    grad = likelihood_power * (rows.T @ (successes - counts * p)) - penalty * theta
    weights = counts * p * (1.0 - p)
    neg_hess = likelihood_power * symmetrize(rows.T @ (rows * weights[:, None]))
    return grad, neg_hess + penalty * np.eye(theta.size)


# Newton's method from theta = 0 stops once a step moves no coordinate by
# _NEWTON_STEP_TOL and raises ConvergenceError after _NEWTON_MAX_STEPS steps.
_NEWTON_STEP_TOL = 1e-10
_NEWTON_MAX_STEPS = 100


def _newton_mode(data: LogisticData, penalty: float, likelihood_power: float, what: str):
    """Mode of likelihood_power * loglik - penalty/2 |theta|^2 by Newton's method."""
    theta = np.zeros(data.rows.shape[1])
    for _ in range(_NEWTON_MAX_STEPS):
        grad, neg_hess = _logistic_grad_neg_hess(theta, data, penalty, likelihood_power)
        try:
            step = np.linalg.solve(neg_hess, grad)
        except np.linalg.LinAlgError as err:
            raise NotPositiveDefiniteError(f"{what}: {err}") from None
        theta = theta + step
        if float(np.max(np.abs(step))) < _NEWTON_STEP_TOL:
            return theta
    raise ConvergenceError(f"{what} did not converge after {_NEWTON_MAX_STEPS} Newton steps")


def logistic_mle(data: LogisticData):
    """Ridge-stabilized Newton iteration for the logistic ML estimate.

    A ridge of 1e-4 keeps the Hessian invertible when a feature column is
    constant within a batch (common with rare features), in which case the
    matching coefficient simply stays near zero.
    """
    return _newton_mode(data, 1e-4, 1.0, "ML estimate")


def logistic_laplace(
    data: LogisticData,
    *,
    prior_variance: float = 100.0,
    prior_power: float = 1.0,
    likelihood_power: float = 1.0,
) -> Moments:
    """Laplace approximation of a tempered logistic-regression posterior.

    The target is N(0, prior_variance I)^prior_power x likelihood^likelihood_power;
    the result is its mode and the inverse of the negative Hessian of the
    log-density there.
    """
    penalty = prior_power / prior_variance
    theta = _newton_mode(data, penalty, likelihood_power, "Laplace mode search")
    _, neg_hess = _logistic_grad_neg_hess(theta, data, penalty, likelihood_power)
    return Moments(theta, spd_inverse(neg_hess))


@dataclass(frozen=True, eq=False)
class LogisticRegression(TargetModel):
    """Bernoulli likelihood under the logit link with a N(0, prior_variance I) prior.

    ``data`` is the full data, collapsed by collapse_logistic; per-batch
    evaluation passes that batch's LogisticData instead.
    """

    name = "logistic"
    data_backed = True

    data: LogisticData
    prior_variance: float = 100.0

    def __post_init__(self):
        variance = self.prior_variance
        if not (is_finite_number(variance) and variance > 0):
            raise InvalidInputError(
                f"prior_variance must be a finite number > 0, got {variance!r}"
            )
        object.__setattr__(self, "prior_variance", float(variance))

    @property
    def dim(self) -> int:
        return self.data.rows.shape[1]

    def log_prior(self, theta):
        norm = 0.5 * self.dim * math.log(2.0 * math.pi * self.prior_variance)
        return -0.5 * _sum_planes(theta.T * theta.T) / self.prior_variance - norm

    def log_likelihood(self, theta, data_batch):
        rows, successes, counts = data_batch
        eta = _sum_planes(rows * theta.T[:, :, None])
        return _sum_last(successes * eta - counts * _softplus(eta))

    def stack_data(self, batches: list) -> LogisticData:
        """Per-chain LogisticData padded with zero-count rows to one width R.

        ``successes`` and ``counts`` are (K, R); ``rows`` is (d, K, R), one
        plane per feature, so that eta sums d contiguous planes.  A padded
        row adds 0 to its chain's log-likelihood.
        """
        parts = [self.data if part is None else part for part in batches]
        width = max(part.rows.shape[0] for part in parts)
        rows = np.zeros((self.dim, len(parts), width))
        successes = np.zeros((len(parts), width))
        counts = np.zeros((len(parts), width))
        for i, (part_rows, part_successes, part_counts) in enumerate(parts):
            n = part_rows.shape[0]
            rows[:, i, :n] = part_rows.T
            successes[i, :n], counts[i, :n] = part_successes, part_counts
        return LogisticData(rows, successes, counts)

    def init_sampler(self, rng: np.random.Generator) -> np.ndarray:
        return math.sqrt(self.prior_variance) * rng.standard_normal(self.dim)

    def mle(self, data_batch=None) -> np.ndarray:
        return logistic_mle(data_batch if data_batch is not None else self.data)

    def laplace(self, data_batch=None, powers=(1.0, 1.0)) -> Moments:
        prior_power, likelihood_power = powers
        return logistic_laplace(
            data_batch if data_batch is not None else self.data,
            prior_variance=self.prior_variance,
            prior_power=prior_power,
            likelihood_power=likelihood_power,
        )


def logistic_regression_model(x, y, *, prior_variance: float = 100.0) -> LogisticRegression:
    """Logistic regression with a weakly informative Gaussian prior.

    The data are collapsed once (see collapse_logistic); batch data passed to
    the model's methods must be in the same LogisticData form.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise InvalidInputError(
            f"features {x.shape} and responses {y.shape} do not line up"
        )
    if not np.all((y == 0) | (y == 1)):
        raise InvalidInputError("responses must be 0/1")
    return LogisticRegression(collapse_logistic(x, y), prior_variance)


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
            for row, label in enumerate(map(str, group)):
                # the dataset CSV splits fields at commas and rows at line breaks
                if "," in label or "".join(label.splitlines()) != label:
                    raise InvalidInputError(
                        f"row {row}: group label {label!r} contains a comma or a line break"
                    )
            self.group = group

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]


def simulate_rare_feature_data(n: int, seed: int) -> Dataset:
    """Simulate the rare-feature logistic benchmark (intercept plus four
    binary features, the last one active in roughly one row per thousand)."""
    n = integer(n, "n", 1)
    rng = RngStream(integer(seed, "seed"), 0).generator()
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
    d = integer(d, "d", 1)
    n_batches = integer(n_batches, "n_batches", 1)
    rng = RngStream(integer(seed, "seed"), 0).generator()
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
        ids = np.asarray(self.assignment).ravel()
        if ids.dtype.kind == "f":  # integral floats such as 2.0 are ids
            bad = ~np.isfinite(ids) | (ids != np.trunc(ids))
        else:
            bad = np.full(ids.shape, ids.dtype.kind not in "iu")
        if bad.any():
            raise InvalidInputError(
                f"batch ids must be integers, got {ids.tolist()[int(np.argmax(bad))]!r}"
            )
        assignment = ids.astype(int)
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
    n_batches = integer(n_batches, "n_batches", 1)
    if n_batches > n:
        raise InvalidInputError(f"cannot split {n} rows into {n_batches} batches")
    if scheme not in PARTITION_SCHEMES:
        raise InvalidInputError(f"unknown scheme {scheme!r}, expected one of {PARTITION_SCHEMES}")
    rng = RngStream(integer(seed, "seed"), 0).generator()
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

# Registered targets by name.
_TARGETS = {
    "rare-bernoulli": RareBernoulli,
    "warped-gaussian": WarpedGaussian,
    "gaussian-mixture": GaussianMixture,
    "logistic-rare": LogisticRegression,
}
TARGET_NAMES = tuple(_TARGETS)
DATA_BACKED_TARGETS = tuple(name for name, cls in _TARGETS.items() if cls.data_backed)


def _param_keys(cls) -> tuple:
    """The ``params`` keys a target accepts: its dataclass fields but the data."""
    return tuple(f.name for f in fields(cls) if f.name != "data")


def make_target(name: str, params: dict | None = None, dataset: Dataset | None = None) -> TargetModel:
    """Instantiate a registered target by name.

    Unknown ``params`` keys are rejected, and the target's constructor checks
    the values.
    """
    if name not in _TARGETS:
        raise InvalidInputError(f"unknown target {name!r}, expected one of {TARGET_NAMES}")
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise InvalidInputError(f"target parameters must be a dict, got {type(params).__name__}")
    cls = _TARGETS[name]
    accepted = _param_keys(cls)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise InvalidInputError(
            f"unknown parameters {unknown} for target {name!r}, "
            f"expected a subset of {list(accepted)}"
        )
    if not cls.data_backed:
        return cls(**params)
    if dataset is None or dataset.y is None:
        raise InvalidInputError(f"{name} needs a dataset with responses")
    return logistic_regression_model(dataset.x, dataset.y, **params)
