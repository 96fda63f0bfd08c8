"""Sample moments and precision pooling, and the one owner of what usable
draws are (``check_draws``, ``check_spread``) and of the sample covariance
(``estimate_moments``), for batches and metrics references alike."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InsufficientSamplesError, InvalidInputError, prefixed
from .linalg import as_symmetric, spd_inverse, symmetrize


def check_draws(draws) -> np.ndarray:
    """``draws`` as a float (n, d) matrix of n >= 2 finite rows, d >= 1."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2:
        raise InvalidInputError(f"draws must be a 2-D matrix, got ndim={draws.ndim}")
    if draws.shape[0] < 2:
        raise InvalidInputError(f"need at least 2 draws, got {draws.shape[0]}")
    if draws.shape[1] < 1:
        raise InvalidInputError("draws must have at least one column")
    if not np.all(np.isfinite(draws)):
        raise DataError("draws contain non-finite values")
    return draws


def check_spread(scale, varies) -> None:
    """Refuse the first column j without spread: ``scale[j] > 0`` (its sd or
    variance; this catches underflow) and ``varies[j]`` (its draws are not
    all equal, an exact test; this catches equal draws whose mean rounds,
    which leave a rounding-size positive variance)."""
    bad = np.flatnonzero(~((np.asarray(scale) > 0) & varies))
    if bad.size:
        raise DataError(f"dimension {int(bad[0])}: samples have zero spread")


def column_varies(draws: np.ndarray) -> np.ndarray:
    """Per column: its draws are not all equal (``check_spread``'s ``varies``)."""
    return (draws != draws[0]).any(axis=0)


@dataclass(frozen=True)
class BatchMeta:
    """Provenance recorded next to a batch of draws."""

    inflation_exponent: float = 1.0
    prior_exponent: float = 1.0
    seed: int = 0
    target_name: str = ""


@dataclass(eq=False)
class SampleBatch:
    """Draws from one batch's target: a (n_draws, dim) matrix plus metadata."""

    batch_id: int
    draws: np.ndarray
    meta: BatchMeta = field(default_factory=BatchMeta)
    diagnostics: dict | None = None

    def __post_init__(self):
        with prefixed(f"batch {self.batch_id}"):
            self.draws = check_draws(self.draws)

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def dim(self) -> int:
        return self.draws.shape[1]


@dataclass(eq=False)
class Moments:
    """A mean vector and covariance matrix of matching dimension."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        if not np.all(np.isfinite(mean)):
            raise DataError("mean contains non-finite values")
        cov = as_symmetric(self.cov, name="covariance")
        if cov.shape[0] != mean.size:
            raise InvalidInputError(
                f"mean has length {mean.size} but covariance is "
                f"{cov.shape[0]}x{cov.shape[0]}"
            )
        self.mean = mean
        self.cov = cov

    @property
    def dim(self) -> int:
        return self.mean.size


def estimate_moments(batch) -> Moments:
    """Sample mean and unbiased (divisor n - 1) covariance of the draws of a
    ``SampleBatch`` or a metrics ``Reference``.  Needs n >= d + 1 of them,
    otherwise the covariance is singular by construction, and refuses a
    column without spread (``check_spread``).
    """
    draws = batch.draws
    n, d = draws.shape
    if n <= d:
        raise InsufficientSamplesError(
            f"need at least {d + 1} draws for a {d}-dimensional covariance, got {n}"
        )
    mean = draws.mean(axis=0)
    centered = draws - mean
    cov = symmetrize(centered.T @ centered / (n - 1))
    check_spread(np.diag(cov), column_varies(draws))
    return Moments(mean, cov)


def _check_common_dim(per_batch: list[Moments]) -> int:
    if not per_batch:
        raise InvalidInputError("need at least one set of moments")
    dim = per_batch[0].dim
    for i, mom in enumerate(per_batch):
        if mom.dim != dim:
            raise InvalidInputError(
                f"moments 0 and {i} disagree on dimension: {dim} vs {mom.dim}"
            )
    return dim


def _precision_pool(
    per_batch: list[Moments], divisor: float, batch_ids=None
) -> tuple[Moments, list]:
    """Precision pooling shared by ``pool_moments`` and ``consensus_pool``.

    Inverts each batch covariance once and returns the pooled moments
    V = (sum_b V_b^-1 / divisor)^-1, mu = V (sum_b V_b^-1 mu_b / divisor)
    together with the batch precisions.  A single input passes through
    unchanged, with no precisions.  A failing inversion names its batch by
    its ``batch_ids`` entry (default: its position).
    """
    dim = _check_common_dim(per_batch)
    if len(per_batch) == 1:
        return per_batch[0], []
    ids = range(len(per_batch)) if batch_ids is None else batch_ids
    precisions = []
    precision_sum = np.zeros((dim, dim))
    weighted_mean_sum = np.zeros(dim)
    for batch_id, mom in zip(ids, per_batch):
        with prefixed(f"batch {batch_id}"):
            precision = spd_inverse(mom.cov)
        precisions.append(precision)
        precision_sum += precision
        weighted_mean_sum += precision @ mom.mean
    pooled_cov = spd_inverse(symmetrize(precision_sum / divisor))
    pooled_mean = pooled_cov @ (weighted_mean_sum / divisor)
    return Moments(pooled_mean, pooled_cov), precisions


def pool_moments(per_batch: list[Moments], *, batch_ids=None) -> Moments:
    """Pool batch moments with the mean of the precisions.

    Returns V = ((1/B) sum_b V_b^-1)^-1 and mu = V (1/B) sum_b V_b^-1 mu_b.
    This is the pooling used for inflated batch targets, whose draws are
    already on the full-posterior scale.  A single input passes through
    unchanged.  A singular V_b is reported under its ``batch_ids`` entry
    (default: its position).
    """
    return _precision_pool(per_batch, len(per_batch), batch_ids)[0]


def consensus_pool(per_batch: list[Moments]) -> Moments:
    """Pool batch moments with the sum of the precisions.

    Returns W = (sum_b V_b^-1)^-1 and mu = W sum_b V_b^-1 mu_b: the
    full-posterior moment estimate from un-inflated batch targets.  This is
    ``pool_moments`` with the covariance divided by B.
    """
    return _precision_pool(per_batch, 1)[0]
