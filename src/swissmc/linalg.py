"""Dense symmetric linear algebra used by every combiner.

Provides the eigendecomposition and Cholesky factorization (both LAPACK,
through numpy), the symmetric positive-definite square root and its inverse,
SPD inversion and Gaussian sampling.  All matrices are plain float64 numpy
arrays, and no ``np.linalg.LinAlgError`` escapes this module: it surfaces as
DecompositionError or NotPositiveDefiniteError.

Every function that returns a mathematically symmetric matrix symmetrizes its
result explicitly, so chained products such as ``inv_root @ cov @ inv_root``
cannot drift off the symmetric manifold.  Eigenvalues at or below
``SPD_REL_TOL`` times the largest eigenvalue are treated as a hard failure
rather than clamped: a degenerate covariance (for example from too few draws)
must surface at the caller.
"""

from __future__ import annotations

import numpy as np

from .errors import DecompositionError, InvalidInputError, NotPositiveDefiniteError

# Relative eigenvalue floor below which a matrix counts as not positive
# definite.
SPD_REL_TOL = 1e-12


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average a matrix, or each matrix of a stack, with its transpose."""
    return (a + a.swapaxes(-1, -2)) / 2.0


def as_symmetric(a, *, name: str = "matrix") -> np.ndarray:
    """Validate a square, finite, (numerically) symmetric matrix.

    Returns a symmetrized float64 copy.  Asymmetry beyond 1e-8 relative to
    the largest entry is rejected instead of silently averaged away.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {a.shape}")
    if a.size == 0:
        raise InvalidInputError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    asymmetry = float(np.max(np.abs(a - a.T)))
    if asymmetry > 1e-8 * scale:
        raise InvalidInputError(
            f"{name} is not symmetric: max asymmetry {asymmetry:.3e} "
            f"exceeds 1e-8 * {scale:.3e}"
        )
    return symmetrize(a)


def eigh(v) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Returns ``(eigenvalues, eigenvectors)``: the eigenvalues in descending
    order and the matching orthonormal columns.  Eigenvector signs are
    fixed by making the largest-magnitude component of each column positive,
    so the output is deterministic across runs and platforms at test
    tolerance.

    Raises
    ------
    DecompositionError
        If LAPACK does not converge.
    """
    a = as_symmetric(v)
    try:
        eigenvalues, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise DecompositionError(f"LAPACK eigendecomposition did not converge: {err}") from None
    eigenvalues = eigenvalues[::-1].copy()
    u = u[:, ::-1]
    # Deterministic sign: largest-magnitude component of each column positive.
    pivots = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    u = np.where(pivots < 0.0, -u, u)
    return eigenvalues, u


def _spd_eigh(v) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition plus the positive-definiteness check."""
    w, u = eigh(v)
    lam_max = float(w[0])
    lam_min = float(w[-1])
    if lam_max <= 0.0 or lam_min <= SPD_REL_TOL * lam_max:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: smallest eigenvalue "
            f"{lam_min:.6e} (largest {lam_max:.6e}, tolerance {SPD_REL_TOL:g})"
        )
    return w, u


def spsq(v) -> np.ndarray:
    """Symmetric positive-definite square root of an SPD matrix.

    Returns M = U diag(sqrt(lambda)) U^T, the unique SPD root; M @ M
    reconstructs the input.  Among all square roots this one applies a pure
    scaling along each eigenvector, which is why the combiners use it.
    """
    w, u = _spd_eigh(v)
    return symmetrize((u * np.sqrt(w)) @ u.T)


def spd_roots(v) -> tuple[np.ndarray, np.ndarray]:
    """SPD square root and its inverse from a single decomposition."""
    w, u = _spd_eigh(v)
    sqrt_w = np.sqrt(w)
    root = symmetrize((u * sqrt_w) @ u.T)
    inv_root = symmetrize((u / sqrt_w) @ u.T)
    return root, inv_root


def spd_inverse(v) -> np.ndarray:
    """Inverse of an SPD matrix, symmetrized before return."""
    w, u = _spd_eigh(v)
    return symmetrize((u / w) @ u.T)


def cholesky(v) -> np.ndarray:
    """Lower-triangular Cholesky factor L with L @ L.T equal to the input.

    The factor has a strictly positive diagonal.  It is a valid but
    non-symmetric square root: ``draw_gaussian`` draws through it, the
    sampler's per-chain fallback factors each proposal covariance with it,
    and the displacement tests use it as the comparison root.
    """
    try:
        return np.linalg.cholesky(as_symmetric(v))
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "Cholesky factorization met a non-positive pivot; matrix is not "
            "positive definite"
        ) from None


def draw_gaussian(mean, cov, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a (size, d) Gaussian sample via the Cholesky factor of ``cov``."""
    mean = np.asarray(mean, dtype=float).ravel()
    lower = cholesky(cov)
    d = mean.size
    if lower.shape[0] != d:
        raise InvalidInputError(
            f"mean has length {d} but covariance is {lower.shape[0]}x{lower.shape[0]}"
        )
    z = rng.standard_normal((size, d))
    return mean + z @ lower.T
