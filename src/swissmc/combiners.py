"""Recombination of per-batch sample matrices into one full-posterior sample.

Four merge strategies share the same call shape (list of SampleBatch in,
CombineResult out):

* ``swiss_combine``    - per-batch affine map built from SPD square roots so
  that every transformed batch carries the pooled mean and covariance.
* ``consensus_combine`` - draw-wise precision-weighted averaging.
* ``ar_combine``        - shift-only re-centring (the affine map is frozen to
  the identity, so mismatched batch covariances are left uncorrected).
* ``barycenter_combine`` - affine maps toward the 2-Wasserstein barycenter of
  the per-batch Gaussian approximations.

Per-batch moments are estimated from the draws by default; every combiner
accepts externally supplied moments instead, which is what makes
transform-level exactness testable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInputError, SwissError, prefixed
from .linalg import spd_roots, spsq, symmetrize
from .moments import (
    Moments,
    SampleBatch,
    _check_common_dim,
    _precision_pool,
    estimate_moments,
    pool_moments,
)

# Relative tolerance for the covariance-matching contract
# map @ V_b @ map.T == V_target enforced on every constructed map.
_COV_MATCH_RTOL = 1e-6

# The barycenter fixed point stops once an update moves the covariance by
# less than this, relative to the iterate, and gives up after the cap.
_BARYCENTER_TOL = 1e-10
_BARYCENTER_MAX_ITERS = 200


@dataclass(frozen=True, eq=False)
class AffineMap:
    """The map x -> matrix @ (x - center_in) + center_out.

    The combiners build it from validated ``Moments``, so it takes its
    arrays as given.
    """

    matrix: np.ndarray
    center_in: np.ndarray
    center_out: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        return (points - self.center_in) @ self.matrix.T + self.center_out


@dataclass(eq=False)
class CombineResult:
    """Merged draws plus provenance.

    ``combined`` stacks the transformed batches in input order; for the
    consensus combiner it holds the draw-wise averages instead and
    ``per_batch_maps`` is empty.  ``pooled`` carries the moment estimate the
    combiner targeted; for ``ar``, which corrects no covariance, it holds the
    plain averages of the batch means and of the batch covariances.
    ``wall_time`` measures the merge call only.
    """

    combined: np.ndarray
    per_batch_maps: list[AffineMap]
    pooled: Moments
    wall_time: float


def _resolve_moments(batches, moments) -> list[Moments]:
    if not batches:
        raise InvalidInputError("need at least one batch")
    if moments is None:
        resolved = []
        for batch in batches:
            with prefixed(f"batch {batch.batch_id}"):
                resolved.append(estimate_moments(batch))
    else:
        resolved = list(moments)
        if len(resolved) != len(batches):
            raise InvalidInputError(
                f"got {len(resolved)} moment sets for {len(batches)} batches"
            )
    _check_common_dim(resolved)
    return resolved


def _check_cov_match(mapping: AffineMap, batch_cov, target_cov) -> None:
    transported = mapping.matrix @ batch_cov @ mapping.matrix.T
    gap = float(np.max(np.abs(transported - target_cov)))
    limit = _COV_MATCH_RTOL * max(1e-300, float(np.max(np.abs(target_cov))))
    if gap > limit:
        raise SwissError(
            f"covariance-matching contract violated (max deviation {gap:.3e} > {limit:.3e})"
        )


def _affine_merge(batches, per_batch, target: Moments):
    """Build per-batch maps toward ``target`` moments and transform the draws."""
    root, inv_root = spd_roots(target.cov)
    maps = []
    blocks = []
    for batch, mom in zip(batches, per_batch):
        with prefixed(f"batch {batch.batch_id}"):
            whitened_cov = symmetrize(inv_root @ mom.cov @ inv_root)
            _, inv_local_root = spd_roots(whitened_cov)
            mapping = AffineMap(root @ inv_local_root @ inv_root, mom.mean, target.mean)
            _check_cov_match(mapping, mom.cov, target.cov)
        maps.append(mapping)
        blocks.append(mapping.apply(batch.draws))
    return maps, np.concatenate(blocks, axis=0)


def swiss_combine(batches: list[SampleBatch], *, moments=None) -> CombineResult:
    """Merge inflated-target batches through SPD-square-root affine maps.

    For pooled moments (mu, V) with root M and per-batch moments (mu_b, V_b),
    each batch is mapped by A_b = M Mtilde_b^-1 M^-1 where Mtilde_b is the
    SPD root of M^-1 V_b M^-1, so A_b V_b A_b^T = V.  Draws become
    A_b (x - mu_b) + mu and are concatenated in input order.
    """
    start = time.perf_counter()
    per_batch = _resolve_moments(batches, moments)
    pooled = pool_moments(per_batch, batch_ids=[batch.batch_id for batch in batches])
    maps, combined = _affine_merge(batches, per_batch, pooled)
    return CombineResult(combined, maps, pooled, time.perf_counter() - start)


def ar_combine(batches: list[SampleBatch], *, moments=None) -> CombineResult:
    """Shift-only merge: x - mu_b + mean(mu_1..mu_B).

    Each batch is re-centred at the plain average of the batch means, the
    map matrix stays the identity, and neither scale nor orientation is
    corrected; batches whose covariances disagree stay mismatched, which is
    the documented failure mode of this combiner.  When all batch
    covariances are equal the plain average coincides with the
    precision-weighted pooled mean and the result matches the affine merge
    exactly.
    """
    start = time.perf_counter()
    per_batch = _resolve_moments(batches, moments)
    center = Moments(
        np.mean([mom.mean for mom in per_batch], axis=0),
        np.mean([mom.cov for mom in per_batch], axis=0),
    )
    maps = [AffineMap(np.eye(center.dim), mom.mean, center.mean) for mom in per_batch]
    combined = np.concatenate(
        [batch.draws - mom.mean + center.mean for batch, mom in zip(batches, per_batch)], axis=0
    )
    return CombineResult(combined, maps, center, time.perf_counter() - start)


def consensus_combine(batches: list[SampleBatch], *, moments=None) -> CombineResult:
    """Draw-wise precision-weighted average of un-inflated batch draws.

    Pairs draws by index j across batches, so all batches must hold the same
    number of draws; there is deliberately no resampling fallback, because
    resampling would change the estimator.
    """
    start = time.perf_counter()
    per_batch = _resolve_moments(batches, moments)
    sizes = {batch.n_draws for batch in batches}
    if len(sizes) != 1:
        raise InvalidInputError(
            f"consensus pairs draws by index and needs equal batch sizes, got {sorted(sizes)}"
        )
    pooled, precisions = _precision_pool(per_batch, 1, [batch.batch_id for batch in batches])
    if len(batches) == 1:
        combined = batches[0].draws.copy()
    else:
        weighted_sum = np.zeros_like(batches[0].draws)
        for batch, precision in zip(batches, precisions):
            weighted_sum += batch.draws @ precision
        combined = weighted_sum @ pooled.cov
    return CombineResult(combined, [], pooled, time.perf_counter() - start)


def gaussian_barycenter(per_batch: list[Moments], *, batch_ids=None) -> Moments:
    """Equal-weight 2-Wasserstein barycenter of Gaussian approximations.

    The mean is the plain average of the batch means.  The covariance S
    solves the fixed point
    S = S^-1/2 ((1/B) sum_b (S^1/2 V_b S^1/2)^1/2)^2 S^-1/2,
    iterated from the arithmetic covariance average until the update falls
    below 1e-10 relative to the current iterate (ConvergenceError after 200
    iterations).  A V_b whose root fails
    is reported under its ``batch_ids`` entry (default: its position).
    """
    if not per_batch:
        raise InvalidInputError("need at least one set of moments")
    barycenter_mean = np.mean([mom.mean for mom in per_batch], axis=0)
    covs = [mom.cov for mom in per_batch]
    if len(covs) == 1:
        return Moments(barycenter_mean, covs[0])
    n_batches = len(covs)
    ids = range(n_batches) if batch_ids is None else batch_ids
    current = symmetrize(sum(covs) / n_batches)
    residual = np.inf
    for _ in range(_BARYCENTER_MAX_ITERS):
        root, inv_root = spd_roots(current)
        inner = np.zeros_like(current)
        for batch_id, cov in zip(ids, covs):
            with prefixed(f"batch {batch_id}"):
                inner += spsq(symmetrize(root @ cov @ root))
        inner /= n_batches
        updated = symmetrize(inv_root @ (inner @ inner) @ inv_root)
        residual = float(np.max(np.abs(updated - current)))
        limit = _BARYCENTER_TOL * max(1e-300, float(np.max(np.abs(current))))
        current = updated
        if residual <= limit:
            return Moments(barycenter_mean, current)
    raise ConvergenceError(
        f"barycenter fixed point did not converge after {_BARYCENTER_MAX_ITERS} iterations "
        f"(residual {residual:.3e})"
    )


def barycenter_combine(batches: list[SampleBatch], *, moments=None) -> CombineResult:
    """Merge by mapping each batch onto the Gaussian barycenter's moments."""
    start = time.perf_counter()
    per_batch = _resolve_moments(batches, moments)
    target = gaussian_barycenter(per_batch, batch_ids=[batch.batch_id for batch in batches])
    maps, combined = _affine_merge(batches, per_batch, target)
    return CombineResult(combined, maps, target, time.perf_counter() - start)


def displacement(map_matrix, points) -> float:
    """Mean squared Euclidean distance moved by points under a linear map.

    D(A) = (1/J) sum_j ||x_j - A x_j||^2.
    """
    matrix = np.asarray(map_matrix, dtype=float)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InvalidInputError(f"points must be 2-D, got ndim={pts.ndim}")
    if matrix.ndim != 2 or matrix.shape != (pts.shape[1], pts.shape[1]):
        raise InvalidInputError(
            f"map shape {matrix.shape} does not match point dimension {pts.shape[1]}"
        )
    moved = pts - pts @ matrix.T
    return float(np.mean(np.einsum("ij,ij->i", moved, moved)))
