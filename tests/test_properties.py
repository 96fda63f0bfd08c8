"""Properties of the LAPACK-backed decompositions, the swiss maps and the
exact KDE sum, checked over generated inputs rather than pinned seeds.

Hypothesis draws the structure (dimension, spectrum, condition number,
bandwidth); a numpy generator seeded by Hypothesis fills in the entries.
The settings profile registered in ``conftest.py`` makes the runs
deterministic.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from swissmc import (  # noqa: E402
    Moments,
    SampleBatch,
    eigh,
    random_orthogonal,
    spd_roots,
    swiss_combine,
)
from swissmc.metrics import _KDE_CHUNK, _direct_kde_sum  # noqa: E402
from helpers import random_spd  # noqa: E402

seeds = st.integers(0, 2**32 - 1)


def _with_spectrum(eigenvalues, rng):
    """Symmetric matrix with the given eigenvalues in a Haar-random basis."""
    basis = random_orthogonal(len(eigenvalues), rng)
    v = (basis * np.asarray(eigenvalues)) @ basis.T
    return (v + v.T) / 2.0


def _log_spaced_spectrum(d, log10_cond, rng):
    """Eigenvalues in [10^-log10_cond, 1] with both ends present (d >= 2)."""
    lam = 10.0 ** (-log10_cond * rng.uniform(size=d))
    lam[0] = 1.0
    lam[-1] = 10.0**-log10_cond
    return lam


# Spectra with ties: every eigenvalue is picked from a few levels, so
# repeated eigenvalues (and repeated zeros or negatives) are common.
levels = st.sampled_from([-3.0, -1.0, 0.0, 1e-6, 0.5, 1.0, 2.0, 7.5])
spectra = st.lists(levels, min_size=1, max_size=30)


class TestEighProperties:
    @given(eigenvalues=spectra, seed=seeds)
    def test_order_sign_orthonormality_reconstruction(self, eigenvalues, seed):
        v = _with_spectrum(eigenvalues, np.random.default_rng(seed))
        d = v.shape[0]
        w, u = eigh(v)
        assert np.all(np.diff(w) <= 0.0)
        pivots = u[np.argmax(np.abs(u), axis=0), np.arange(d)]
        assert np.all(pivots > 0.0)
        assert np.max(np.abs(u.T @ u - np.eye(d))) <= 1e-12
        scale = max(1.0, float(np.max(np.abs(v))))
        assert np.max(np.abs((u * w) @ u.T - v)) <= 1e-12 * scale
        np.testing.assert_allclose(w, np.sort(eigenvalues)[::-1], atol=1e-12 * scale)


class TestSpdRootsProperties:
    @given(d=st.integers(2, 30), log10_cond=st.floats(0.0, 10.0), seed=seeds)
    def test_root_squares_and_inverts(self, d, log10_cond, seed):
        rng = np.random.default_rng(seed)
        v = _with_spectrum(_log_spaced_spectrum(d, log10_cond, rng), rng)
        root, inv_root = spd_roots(v)
        assert np.max(np.abs(root @ root - v)) <= 1e-12 * np.max(np.abs(v))
        assert np.max(np.abs(root @ inv_root - np.eye(d))) <= 1e-9


class TestSwissCovarianceMatching:
    @given(
        d=st.integers(2, 12),
        n_batches=st.integers(1, 5),
        log10_cond=st.floats(0.0, 10.0),
        seed=seeds,
    )
    def test_maps_transport_batch_to_pooled_covariance(self, d, n_batches, log10_cond, seed):
        # Batch covariances share an ill-conditioned scale (condition number
        # up to 1e10) and differ by well-conditioned factors, so every batch
        # and the pooled covariance sit at that condition number.
        rng = np.random.default_rng(seed)
        half = _with_spectrum(np.sqrt(_log_spaced_spectrum(d, log10_cond, rng)), rng)
        moments, batches = [], []
        for b in range(n_batches):
            cov = half @ random_spd(d, rng, jitter=0.5) @ half
            moments.append(Moments(rng.standard_normal(d), (cov + cov.T) / 2.0))
            batches.append(SampleBatch(b, rng.standard_normal((2 * d + 2, d))))
        result = swiss_combine(batches, moments=moments)
        target = result.pooled.cov
        for mom, mapping in zip(moments, result.per_batch_maps):
            transported = mapping.matrix @ mom.cov @ mapping.matrix.T
            assert np.max(np.abs(transported - target)) <= 1e-7 * np.max(np.abs(target))


def _full_grid_kde_sum(x, bandwidth, grid):
    """The (sample x grid) kernel sum over every pair, in _KDE_CHUNK blocks."""
    density = np.zeros(grid.size)
    for start in range(0, x.size, _KDE_CHUNK):
        chunk = x[start : start + _KDE_CHUNK]
        z = (grid[None, :] - chunk[:, None]) / bandwidth
        density += np.exp(-0.5 * z * z).sum(axis=0)
    density /= x.size * bandwidth * np.sqrt(2.0 * np.pi)
    return density


class TestDirectKdeSum:
    @given(
        n=st.integers(2, 3 * _KDE_CHUNK),
        grid_size=st.integers(2, 600),
        # Under two grid steps is the fallback range of the binned KDE; wider
        # bandwidths make the window span the whole grid.
        h_over_step=st.one_of(st.floats(0.05, 1.99), st.floats(2.0, 400.0)),
        overhang=st.tuples(st.floats(-0.45, 0.5), st.floats(-0.45, 0.5)),
        seed=seeds,
    )
    def test_windowed_sum_equals_full_grid_sum_bytewise(
        self, n, grid_size, h_over_step, overhang, seed
    ):
        # Negative overhang pulls a grid end inside the sample range, so
        # samples lie beyond both grid ends.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) * rng.uniform(0.01, 10.0) + rng.uniform(-100.0, 100.0)
        span = float(x.max() - x.min())
        lo = float(x.min()) - overhang[0] * span
        hi = float(x.max()) + overhang[1] * span
        grid = np.linspace(lo, hi, grid_size)
        bandwidth = h_over_step * float(grid[1] - grid[0])
        windowed = _direct_kde_sum(x, bandwidth, grid)
        assert windowed.tobytes() == _full_grid_kde_sum(x, bandwidth, grid).tobytes()
