"""Log-density targets, synthetic data generators and the data partitioner.

Each target is one frozen dataclass subclass of TargetModel: its fields
are its data only (a data-free target has none; its constants are module
constants), and its methods hold every term and hook it has (density,
starting point, ML estimate, Laplace approximation), each written once.
``log_density`` evaluates, at a (prior, likelihood) exponent pair that the
caller passes,

    prior_power * log_prior(theta) + likelihood_power * log_likelihood(theta, batch)

plus an optional fixed reparameterization (Jacobian) term that is never
tempered.  Every term takes a (K, d) stack of points, one per chain of a
lockstep group, with the per-chain data of ``stack_data``, and returns (K,)
values; ``log_density`` also takes one point, as the K = 1 stack.  The
exponent pair encodes the batch-target convention, which
``TargetModel.convention_powers`` alone decides: (1, B) for inflated
targets, (1/B, 1) for un-inflated ones, (1, 1) for the full-data posterior.
``make_target`` builds a registered target by name.  ``partition`` splits
a dataset's rows into equal random batches, and ``shard_data`` collapses
each batch for the data-backed targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DataError,
    InvalidInputError,
    NotPositiveDefiniteError,
    integer,
)
from .linalg import spd_inverse, symmetrize
from .moments import Moments, consensus_pool
from .rng import RngStream

# Rare-feature logistic benchmark: P(x_i = 1) per column and the true
# coefficients used to simulate responses.  Column 0 is the intercept.
RARE_FEATURE_RATES = (1.0, 0.02, 0.03, 0.05, 0.001)
RARE_FEATURE_COEFS = (-3.0, 1.2, -0.5, 0.8, 3.0)

# Rare-Bernoulli toy posterior: 1000 trials with a single positive response
# and a flat prior, i.e. density proportional to theta * (1 - theta)^999.
RARE_BERNOULLI_FAILURES = 999

# Variance of the logistic target's N(0, variance I) prior.
LOGISTIC_PRIOR_VAR = 100.0

# Batch-target conventions of convention_powers.
CONVENTIONS = ("inflated", "subposterior", "full")


def _softplus(x):
    """log(1 + exp(x)) without overflow, elementwise."""
    return np.logaddexp(0.0, x)


def _sum_last(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right (``cumsum`` adds in index
    order), so trailing zeros leave a row's total unchanged.

    ``sum`` and ``@`` pick their summation order by array length and layout,
    so a chain's value could depend on the group it runs in.  A fixed order
    keeps each chain of a lockstep group bit-identical to the same chain run
    alone."""
    return terms.cumsum(axis=-1)[..., -1]


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TargetModel:
    """An evaluatable log-density split into prior and likelihood terms.

    A subclass is a frozen dataclass whose fields are its data only.  It
    sets ``name`` and ``dim`` and defines ``log_likelihood``; it may override
    ``log_prior`` (flat by default) and ``report`` (identity), and may
    replace any of the ``None`` hooks below with a method.  It never
    overrides ``log_density``.  ``log_prior``, ``log_likelihood`` and
    ``log_jacobian`` take a (K, d) stack (see the module docstring); a
    data-backed target also overrides ``stack_data``.
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


@dataclass(frozen=True, eq=False)
class LogisticRegression(TargetModel):
    """Bernoulli likelihood under the logit link with a N(0, LOGISTIC_PRIOR_VAR I) prior.

    ``data`` is the full data, collapsed by collapse_logistic; per-batch
    evaluation passes that batch's LogisticData instead.
    """

    name = "logistic"
    data_backed = True

    data: LogisticData

    @property
    def dim(self) -> int:
        return self.data.rows.shape[1]

    @cached_property
    def _prior_norm(self) -> float:
        """Log of the prior's normalising constant."""
        return 0.5 * self.dim * math.log(2.0 * math.pi * LOGISTIC_PRIOR_VAR)

    def log_prior(self, theta):
        # -|theta|^2 / (2 variance) - norm, each step on one fresh array
        total = _sum_last(theta * theta)
        total /= -2.0 * LOGISTIC_PRIOR_VAR
        total -= self._prior_norm
        return total

    def log_likelihood(self, theta, data_batch):
        # successes * eta - counts * softplus(eta), summed over the rows
        rows, successes, counts = data_batch
        planes = rows * theta.T[:, :, None]
        # np.add.reduce adds planes of at least two values (stack_data's
        # minimum width) left to right
        eta = np.add.reduce(planes, axis=0)
        terms = successes * eta
        penalty = _softplus(eta)
        penalty *= counts
        terms -= penalty
        return _sum_last(terms)

    def stack_data(self, batches: list) -> LogisticData:
        """Per-chain LogisticData padded with zero-count rows to one width R.

        ``successes`` and ``counts`` are (K, R); ``rows`` is (d, K, R), one
        plane per feature, so that eta sums d contiguous planes.  A padded
        row adds 0 to its chain's log-likelihood.  R is at least 2: numpy
        sums planes of one value each pairwise from d = 8 on, so a lone
        one-row chain would lose its fixed left-to-right order.
        """
        parts = [self.data if part is None else part for part in batches]
        width = max(2, *(part.rows.shape[0] for part in parts))
        rows = np.zeros((self.dim, len(parts), width))
        successes = np.zeros((len(parts), width))
        counts = np.zeros((len(parts), width))
        for i, (part_rows, part_successes, part_counts) in enumerate(parts):
            n = part_rows.shape[0]
            rows[:, i, :n] = part_rows.T
            successes[i, :n], counts[i, :n] = part_successes, part_counts
        return LogisticData(rows, successes, counts)

    def init_sampler(self, rng: np.random.Generator) -> np.ndarray:
        return math.sqrt(LOGISTIC_PRIOR_VAR) * rng.standard_normal(self.dim)

    def mle(self, data_batch=None) -> np.ndarray:
        """Ridge-stabilized Newton iteration for the ML estimate.

        A ridge of 1e-4 keeps the Hessian invertible when a feature column is
        constant within a batch (common with rare features), in which case
        the matching coefficient simply stays near zero.
        """
        data = self.data if data_batch is None else data_batch
        return _newton_mode(data, 1e-4, 1.0, "ML estimate")

    def laplace(self, data_batch=None, powers=(1.0, 1.0)) -> Moments:
        """Laplace approximation at the (prior, likelihood) exponents ``powers``.

        The target is N(0, LOGISTIC_PRIOR_VAR I)^prior_power x
        likelihood^likelihood_power; the result is its mode and the inverse of
        the negative Hessian of the log-density there.
        """
        data = self.data if data_batch is None else data_batch
        prior_power, likelihood_power = powers
        penalty = prior_power / LOGISTIC_PRIOR_VAR
        theta = _newton_mode(data, penalty, likelihood_power, "Laplace mode search")
        _, neg_hess = _logistic_grad_neg_hess(theta, data, penalty, likelihood_power)
        return Moments(theta, spd_inverse(neg_hess))


def logistic_regression_model(x, y) -> LogisticRegression:
    """Logistic regression with a weakly informative Gaussian prior.

    The data are collapsed once (see collapse_logistic); batch data passed to
    the model's methods must be in the same LogisticData form.
    """
    data = Dataset(x, y)
    if not np.all((data.y == 0) | (data.y == 1)):
        raise InvalidInputError("responses must be 0/1")
    return LogisticRegression(collapse_logistic(data.x, data.y))


# --------------------------------------------------------------------------
# Synthetic data and the conjugate Gaussian suite
# --------------------------------------------------------------------------


@dataclass(eq=False)
class Dataset:
    """Feature rows with an optional binary response."""

    x: np.ndarray
    y: np.ndarray | None = None

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
    with 5d degrees of freedom and identity scale: the inverse of B B^T,
    where the Bartlett factor B has sqrt(chi2(5d - i)) on its diagonal and
    standard normals below it.  The full posterior is
    N(V sum_b V_b^-1 mu_b, V) with V^-1 = sum_b V_b^-1 (``consensus_pool``).
    """
    d = integer(d, "d", 1)
    n_batches = integer(n_batches, "n_batches", 1)
    rng = RngStream(integer(seed, "seed"), 0).generator()
    per_batch = []
    for _ in range(n_batches):
        mean = rng.standard_normal(d)
        bartlett = np.zeros((d, d))
        for i in range(d):
            bartlett[i, i] = math.sqrt(rng.chisquare(5.0 * d - i))
            bartlett[i, :i] = rng.standard_normal(i)
        cov = spd_inverse(symmetrize(bartlett @ bartlett.T))
        per_batch.append(Moments(mean, cov))
    return per_batch, consensus_pool(per_batch)


# --------------------------------------------------------------------------
# Partitioning
# --------------------------------------------------------------------------

@dataclass(eq=False)
class Partition:
    """Assignment of each data row to a batch id in [0, n_batches); the ids
    must have an integer dtype."""

    assignment: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.assignment).ravel()
        if ids.dtype.kind not in "iu":
            raise InvalidInputError(f"batch ids must be integers, got dtype {ids.dtype}")
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


def partition(data: Dataset, n_batches: int, seed: int = 0) -> Partition:
    """Split rows into near-equal random batches; the assignment is a function of the seed.

    For any other split, such as one that keeps groups of rows together,
    build a ``Partition`` from the batch ids (or pass ``swissmc sample`` an
    assignment CSV).
    """
    n = data.n_rows
    n_batches = integer(n_batches, "n_batches", 1)
    if n_batches > n:
        raise InvalidInputError(f"cannot split {n} rows into {n_batches} batches")
    rng = RngStream(integer(seed, "seed"), 0).generator()
    assignment = np.empty(n, dtype=int)
    perm = rng.permutation(n)
    for b, chunk in enumerate(np.array_split(perm, n_batches)):
        assignment[chunk] = b
    return Partition(assignment)


def shard_data(data: Dataset, split: Partition) -> list[LogisticData]:
    """Per-batch data of a split dataset, in the form the data-backed targets
    evaluate: each batch's rows collapsed by collapse_logistic.  The split
    must assign every row of the dataset, and no more."""
    if split.assignment.size != data.n_rows:
        raise InvalidInputError(
            f"assignment covers {split.assignment.size} rows, dataset has {data.n_rows}"
        )
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
    "logistic-rare": LogisticRegression,
}
TARGET_NAMES = tuple(_TARGETS)
DATA_BACKED_TARGETS = tuple(name for name, cls in _TARGETS.items() if cls.data_backed)


def make_target(name: str, dataset: Dataset | None = None) -> TargetModel:
    """Instantiate a registered target by name; a data-backed one on ``dataset``."""
    if name not in _TARGETS:
        raise InvalidInputError(f"unknown target {name!r}, expected one of {TARGET_NAMES}")
    cls = _TARGETS[name]
    if not cls.data_backed:
        return cls()
    if dataset is None or dataset.y is None:
        raise InvalidInputError(f"{name} needs a dataset with responses")
    return logistic_regression_model(dataset.x, dataset.y)
