"""Properties of the LAPACK-backed decompositions, the swiss maps, the four
combiners (including consensus averaging and the rotation-plus-translation
equivariance of swiss and barycenter), the exact KDE sum, the prepared
reference of the metrics and the lossless sample-CSV round trip, checked
over generated inputs rather than pinned seeds.

Hypothesis draws the structure (dimension, spectrum, condition number,
bandwidth); a numpy generator seeded by Hypothesis fills in the entries.
The settings profile registered in ``conftest.py`` makes the runs
deterministic.
"""

import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from swissmc import (  # noqa: E402
    DataError,
    Moments,
    SampleBatch,
    ar_combine,
    barycenter_combine,
    Reference,
    compute_metrics,
    consensus_combine,
    eigh,
    spd_roots,
    swiss_combine,
)
from swissmc.io import read_sample_csv, write_sample_csv  # noqa: E402
from swissmc.metrics import _KDE_CHUNK, _KDE_REACH, _direct_kde_sum  # noqa: E402
from helpers import random_orthogonal, random_spd  # noqa: E402

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


COMBINERS = [swiss_combine, consensus_combine, ar_combine, barycenter_combine]


def _random_batches(d, n_batches, n_draws, seed):
    """Batches of standard-normal draws with random SPD moments supplied."""
    rng = np.random.default_rng(seed)
    moments = [Moments(rng.standard_normal(d), random_spd(d, rng)) for _ in range(n_batches)]
    batches = [SampleBatch(b, rng.standard_normal((n_draws, d))) for b in range(n_batches)]
    return batches, moments


def _close(actual, expected, rtol):
    return np.max(np.abs(actual - expected)) <= rtol * max(1.0, float(np.max(np.abs(expected))))


class TestCombinerProperties:
    @pytest.mark.parametrize("combine", COMBINERS)
    @given(d=st.integers(1, 8), n_draws=st.integers(2, 40), seed=seeds)
    def test_single_batch_passes_through(self, combine, d, n_draws, seed):
        batches, moments = _random_batches(d, 1, n_draws, seed)
        result = combine(batches, moments=moments)
        assert _close(result.combined, batches[0].draws, 1e-9)

    @pytest.mark.parametrize("combine", COMBINERS)
    @given(
        d=st.integers(1, 8),
        n_batches=st.integers(2, 6),
        n_draws=st.integers(2, 20),
        seed=seeds,
    )
    def test_batch_order_only_permutes(self, combine, d, n_batches, n_draws, seed):
        batches, moments = _random_batches(d, n_batches, n_draws, seed)
        forward = combine(batches, moments=moments)
        backward = combine(batches[::-1], moments=moments[::-1])
        assert _close(backward.pooled.mean, forward.pooled.mean, 1e-12)
        assert _close(backward.pooled.cov, forward.pooled.cov, 1e-12)
        if combine is consensus_combine:
            # draw-wise averages: the rows pair up by index in either order
            assert _close(backward.combined, forward.combined, 1e-10)
        else:
            blocks = forward.combined.reshape(n_batches, n_draws, d)
            reversed_blocks = blocks[::-1].reshape(-1, d)
            assert _close(backward.combined, reversed_blocks, 1e-10)

    @given(
        d=st.integers(1, 8),
        n_batches=st.integers(2, 6),
        n_draws=st.integers(2, 20),
        seed=seeds,
    )
    def test_consensus_with_equal_covariances_is_plain_average(
        self, d, n_batches, n_draws, seed
    ):
        # equal precisions weigh every batch by 1/B, whatever the means
        batches, moments = _random_batches(d, n_batches, n_draws, seed)
        shared = moments[0].cov
        equal = [Moments(mom.mean, shared) for mom in moments]
        result = consensus_combine(batches, moments=equal)
        average = np.mean([batch.draws for batch in batches], axis=0)
        assert _close(result.combined, average, 1e-10)

    @pytest.mark.parametrize("combine", [swiss_combine, barycenter_combine])
    @given(
        d=st.integers(1, 8),
        n_batches=st.integers(1, 6),
        n_draws=st.integers(2, 20),
        seed=seeds,
    )
    def test_rotation_and_translation_equivariance(self, combine, d, n_batches, n_draws, seed):
        # x -> Qx + c on every batch (draws and moments) maps the combined
        # draws the same way: the symmetric root is orthogonally equivariant
        batches, moments = _random_batches(d, n_batches, n_draws, seed)
        rng = np.random.default_rng(seed + 1)
        q = random_orthogonal(d, rng)
        c = rng.uniform(-10.0, 10.0, d)
        moved_batches = [SampleBatch(b.batch_id, b.draws @ q.T + c) for b in batches]
        moved_moments = [
            Moments(q @ mom.mean + c, (q @ mom.cov @ q.T + (q @ mom.cov @ q.T).T) / 2.0)
            for mom in moments
        ]
        plain = combine(batches, moments=moments)
        moved = combine(moved_batches, moments=moved_moments)
        assert _close(moved.combined, plain.combined @ q.T + c, 1e-9)


def _full_grid_kde_sum(x, bandwidth, grid, reach=_KDE_REACH):
    """The (sample x grid) kernel sum over every pair, in _KDE_CHUNK blocks,
    with the terms more than ``reach`` bandwidths out set to zero."""
    density = np.zeros(grid.size)
    for start in range(0, x.size, _KDE_CHUNK):
        chunk = x[start : start + _KDE_CHUNK]
        z = (grid[None, :] - chunk[:, None]) / bandwidth
        density += np.where(np.abs(z) <= reach, np.exp(-0.5 * z * z), 0.0).sum(axis=0)
    density /= x.size * bandwidth * np.sqrt(2.0 * np.pi)
    return density


def _kde_case(n, grid_size, h_over_step, overhang, seed):
    """Samples, a grid whose ends may sit inside the sample range, and a
    bandwidth of ``h_over_step`` grid steps."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * rng.uniform(0.01, 10.0) + rng.uniform(-100.0, 100.0)
    span = float(x.max() - x.min())
    lo = float(x.min()) - overhang[0] * span
    hi = float(x.max()) + overhang[1] * span
    grid = np.linspace(lo, hi, grid_size)
    return x, h_over_step * float(grid[1] - grid[0]), grid


# Negative overhang pulls a grid end inside the sample range, so samples lie
# beyond both grid ends.
overhangs = st.tuples(st.floats(-0.45, 0.5), st.floats(-0.45, 0.5))


class TestDirectKdeSum:
    @given(
        n=st.integers(2, 3 * _KDE_CHUNK),
        grid_size=st.integers(2, 600),
        # Under two grid steps is the fallback range of the binned KDE; wider
        # bandwidths make the window span the whole grid.
        h_over_step=st.one_of(st.floats(0.05, 1.99), st.floats(2.0, 400.0)),
        overhang=overhangs,
        seed=seeds,
    )
    def test_windowed_sum_equals_full_grid_sum_bytewise(
        self, n, grid_size, h_over_step, overhang, seed
    ):
        x, bandwidth, grid = _kde_case(n, grid_size, h_over_step, overhang, seed)
        windowed = _direct_kde_sum(x, bandwidth, grid)
        assert windowed.tobytes() == _full_grid_kde_sum(x, bandwidth, grid).tobytes()

    @given(
        n=st.integers(2, 2000),
        grid_size=st.integers(2, 600),
        h_over_step=st.floats(0.05, 2.0, exclude_max=True),
        overhang=overhangs,
        seed=seeds,
    )
    def test_reach_cut_is_below_exp_minus_18_of_the_kernel_peak(
        self, n, grid_size, h_over_step, overhang, seed
    ):
        # every term the cut drops is below exp(-18) times the kernel's peak
        x, bandwidth, grid = _kde_case(n, grid_size, h_over_step, overhang, seed)
        exact = _full_grid_kde_sum(x, bandwidth, grid, reach=np.inf)
        gap = np.abs(_direct_kde_sum(x, bandwidth, grid) - exact)
        assert np.all(gap <= np.exp(-18.0) / (bandwidth * np.sqrt(2.0 * np.pi)))


def _report_bytes(report):
    """Every value of a MetricReport, exactly (repr round-trips a float)."""
    return repr(report.to_dict())


class TestPreparedReference:
    @given(
        d=st.integers(1, 5),
        n_approx=st.lists(st.integers(2, 300), min_size=2, max_size=4),
        n_reference=st.integers(12, 300),
        outlier=st.booleans(),
        seed=seeds,
    )
    def test_prepared_reference_scores_like_the_plain_draws(
        self, d, n_approx, n_reference, outlier, seed
    ):
        # One far outlier in the reference widens the IAD grid until the
        # bandwidths fall under two grid steps: the direct-sum path.
        rng = np.random.default_rng(seed)
        reference = rng.standard_normal((n_reference, d)) * rng.uniform(0.1, 10.0, d)
        if outlier:
            reference[0] += 1e4
        approx_sets = [rng.standard_normal((n, d)) + rng.uniform(-1.0, 1.0, d) for n in n_approx]
        fresh = [_report_bytes(compute_metrics(a, reference.copy())) for a in approx_sets]
        prepared = Reference(reference)
        forward = [_report_bytes(compute_metrics(a, prepared)) for a in approx_sets]
        backward = [_report_bytes(compute_metrics(a, prepared)) for a in approx_sets[::-1]]
        assert forward == fresh
        assert backward == fresh[::-1]

    @pytest.mark.parametrize("d", [1, 3, 11])
    @given(flat=st.one_of(st.none(), st.integers(0, 10)), seed=seeds)
    def test_statistics_do_not_depend_on_read_order(self, d, flat, seed):
        # Each statistic applies its own spread rule, so every order of
        # reading gives the same bits, and a column of 300 copies of 0.1
        # (whose mean rounds) is refused by whichever statistic is read first.
        rng = np.random.default_rng(seed)
        draws = rng.standard_normal((300, d)) * rng.uniform(0.1, 10.0, d)
        if flat is not None:
            flat %= d
            draws[:, flat] = 0.1
        seen = set()
        for order in itertools.permutations(("kde_scales", "precision", "skewness")):
            reference = Reference(draws)
            if flat is not None:
                with pytest.raises(
                    DataError, match=f"^dimension {flat}: samples have zero spread$"
                ):
                    getattr(reference, order[0])
                continue
            for name in order:
                getattr(reference, name)
            seen.add(
                (
                    repr(reference.kde_scales),
                    reference.precision.tobytes(),
                    reference.skewness.tobytes(),
                )
            )
        assert len(seen) == (flat is None)


# Every finite float64, with the hard cases drawn often: signed zeros,
# subnormals, the ends of the normal range and integer-valued floats.
edge_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
     1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
     1.0, -3.0, 2.0**53, 2.0**53 + 2.0, -(2.0**62), 0.1, 1.0 / 3.0]
)
finite_floats = st.one_of(edge_floats, st.floats(allow_nan=False, allow_infinity=False))
sample_matrices = st.tuples(st.integers(1, 6), st.integers(1, 4)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=finite_floats)
)


class TestSampleCsvRoundTrip:
    @given(draws=sample_matrices)
    def test_write_then_read_is_bytewise_lossless(self, draws):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "draws.csv"
            write_sample_csv(path, draws)
            back = read_sample_csv(path)
        assert back.dtype == np.float64 and back.shape == draws.shape
        assert back.tobytes() == draws.tobytes()
