"""Combiner behavior: exactness, hand-worked values, displacement properties."""

import sys

import numpy as np
import pytest

from swissmc import linalg
from swissmc import (
    AffineMap,
    ConvergenceError,
    InvalidInputError,
    Moments,
    SampleBatch,
    SwissError,
    ar_combine,
    barycenter_combine,
    cholesky,
    consensus_combine,
    displacement,
    draw_gaussian,
    gaussian_barycenter,
    pool_moments,
    spd_inverse,
    spsq,
    swiss_combine,
)
from helpers import exact_gaussian_cloud, random_orthogonal, random_spd


def _gaussian_batches(d, n_batches, n_draws, seed, *, exact=True):
    """Batches with known Gaussian moments; sample moments exact when asked."""
    rng = np.random.default_rng(seed)
    batches, moments = [], []
    for b in range(n_batches):
        mean = rng.standard_normal(d)
        cov = random_spd(d, rng)
        draws = (
            exact_gaussian_cloud(mean, cov, n_draws, rng)
            if exact
            else draw_gaussian(mean, cov, n_draws, rng)
        )
        batches.append(SampleBatch(b, draws))
        moments.append(Moments(mean, cov))
    return batches, moments


class TestSwissCombine:
    def test_identical_moments_is_concatenation(self):
        batches, _ = _gaussian_batches(3, 1, 200, seed=0)
        draws = batches[0].draws
        stacked = [SampleBatch(b, draws.copy()) for b in range(4)]
        result = swiss_combine(stacked)
        np.testing.assert_allclose(result.combined, np.vstack([draws] * 4), atol=1e-9)
        for mapping in result.per_batch_maps:
            np.testing.assert_allclose(mapping.matrix, np.eye(3), atol=1e-9)

    def test_scalar_hand_evaluation(self):
        # V1=1, V2=4, means 0: V = (0.5 * (1 + 0.25))^-1 = 1.6,
        # A1 = sqrt(1.6), A2 = sqrt(0.4); the point at 1 maps to sqrt(1.6)
        b1 = SampleBatch(0, np.array([[1.0], [0.0], [-1.0]]))
        b2 = SampleBatch(1, np.array([[2.0], [0.0], [-2.0]]))
        injected = [Moments([0.0], [[1.0]]), Moments([0.0], [[4.0]])]
        result = swiss_combine([b1, b2], moments=injected)
        np.testing.assert_allclose(result.pooled.cov, [[1.6]], atol=1e-12)
        np.testing.assert_allclose(result.per_batch_maps[0].matrix, [[np.sqrt(1.6)]], atol=1e-12)
        np.testing.assert_allclose(result.per_batch_maps[1].matrix, [[np.sqrt(0.4)]], atol=1e-12)
        np.testing.assert_allclose(result.combined[0, 0], np.sqrt(1.6), atol=1e-12)

    def test_gaussian_exactness_on_moments(self):
        # injected analytic moments + moment-exact clouds: every transformed
        # batch carries the pooled moments to numerical precision
        batches, moments = _gaussian_batches(4, 5, 300, seed=1)
        result = swiss_combine(batches, moments=moments)
        pooled = pool_moments(moments)
        n = 300
        for b in range(5):
            block = result.combined[b * n : (b + 1) * n]
            np.testing.assert_allclose(block.mean(axis=0), pooled.mean, atol=1e-10)
            centered = block - block.mean(axis=0)
            np.testing.assert_allclose(
                centered.T @ centered / (n - 1), pooled.cov, atol=1e-10
            )

    def test_covariance_matching_contract(self):
        batches, moments = _gaussian_batches(3, 4, 250, seed=2)
        result = swiss_combine(batches, moments=moments)
        pooled = pool_moments(moments)
        limit = 1e-6 * np.max(np.abs(pooled.cov))
        for mapping, mom in zip(result.per_batch_maps, moments):
            transported = mapping.matrix @ mom.cov @ mapping.matrix.T
            assert np.max(np.abs(transported - pooled.cov)) <= limit

    def test_row_count_and_order(self):
        batches, _ = _gaussian_batches(2, 3, 100, seed=3)
        result = swiss_combine(batches)
        assert result.combined.shape == (300, 2)

    def test_batch_permutation_permutes_blocks_only(self):
        batches, moments = _gaussian_batches(2, 3, 150, seed=4)
        fwd = swiss_combine(batches, moments=moments)
        rev = swiss_combine(batches[::-1], moments=moments[::-1])
        np.testing.assert_allclose(fwd.pooled.mean, rev.pooled.mean, atol=1e-12)
        np.testing.assert_allclose(fwd.pooled.cov, rev.pooled.cov, atol=1e-12)
        n = 150
        for i in range(3):
            j = 2 - i
            np.testing.assert_allclose(
                fwd.combined[i * n : (i + 1) * n],
                rev.combined[j * n : (j + 1) * n],
                atol=1e-9,
            )
            np.testing.assert_allclose(
                fwd.per_batch_maps[i].matrix, rev.per_batch_maps[j].matrix, atol=1e-9
            )

    def test_insufficient_samples_names_batch(self):
        good = SampleBatch(0, np.random.default_rng(0).standard_normal((50, 3)))
        bad = SampleBatch(7, np.zeros((3, 3)) + np.eye(3))
        with pytest.raises(Exception, match="batch 7"):
            swiss_combine([good, bad])

    @pytest.mark.parametrize("combine", [swiss_combine, barycenter_combine])
    def test_covariance_match_violation_names_batch(self, monkeypatch, combine):
        # a negative tolerance fails the A_b V_b A_b^T = V check on the first map
        monkeypatch.setattr("swissmc.combiners._COV_MATCH_RTOL", -1.0)
        batches, _ = _gaussian_batches(2, 2, 40, 8)
        batches[0].batch_id = 5
        with pytest.raises(SwissError, match="^batch 5: covariance-matching contract violated"):
            combine(batches)

    def test_agrees_with_ar_when_covariances_equal(self):
        rng = np.random.default_rng(5)
        cov = random_spd(3, rng)
        batches, moments = [], []
        for b in range(4):
            mean = rng.standard_normal(3)
            batches.append(SampleBatch(b, draw_gaussian(mean, cov, 120, rng)))
            moments.append(Moments(mean, cov))
        swiss = swiss_combine(batches, moments=moments)
        shift = ar_combine(batches, moments=moments)
        np.testing.assert_allclose(swiss.combined, shift.combined, atol=1e-9)


class TestArCombine:
    def test_identical_moments_is_concatenation(self):
        draws = np.random.default_rng(6).standard_normal((80, 2))
        batches = [SampleBatch(b, draws.copy()) for b in range(3)]
        result = ar_combine(batches)
        np.testing.assert_allclose(result.combined, np.vstack([draws] * 3), atol=1e-12)

    def test_combined_mean_is_average_of_batch_means(self):
        batches, _ = _gaussian_batches(3, 4, 200, seed=7)
        result = ar_combine(batches)
        plain_average = np.mean([b.draws.mean(axis=0) for b in batches], axis=0)
        np.testing.assert_allclose(result.combined.mean(axis=0), plain_average, atol=1e-10)
        np.testing.assert_allclose(result.pooled.mean, plain_average, atol=1e-12)

    def test_known_failure_no_scale_correction(self):
        # one batch 4x wider than the pooled target keeps its spread
        rng = np.random.default_rng(8)
        narrow = exact_gaussian_cloud([0.0], [[1.0]], 4000, rng)
        wide = exact_gaussian_cloud([0.0], [[4.0]], 4000, rng)
        batches = [SampleBatch(0, narrow), SampleBatch(1, wide)]
        result = ar_combine(batches)
        wide_block = result.combined[4000:]
        assert abs(np.var(wide_block, ddof=1) - 4.0) < 0.05
        assert np.var(result.combined, ddof=1) > 2.0  # far off the pooled 1.6

    def test_maps_are_identity(self):
        batches, _ = _gaussian_batches(2, 3, 50, seed=9)
        for mapping in ar_combine(batches).per_batch_maps:
            assert np.array_equal(mapping.matrix, np.eye(2))


class TestConsensusCombine:
    def test_equal_weights_average_rows(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((100, 2))
        b = rng.standard_normal((100, 2))
        batches = [SampleBatch(0, a), SampleBatch(1, b)]
        injected = [Moments(np.zeros(2), np.eye(2)), Moments(np.zeros(2), np.eye(2))]
        result = consensus_combine(batches, moments=injected)
        np.testing.assert_allclose(result.combined, (a + b) / 2.0, atol=1e-12)

    def test_single_batch_passthrough(self):
        draws = np.random.default_rng(11).standard_normal((40, 3))
        result = consensus_combine([SampleBatch(0, draws)])
        np.testing.assert_allclose(result.combined, draws)
        assert result.per_batch_maps == []

    def test_scalar_weighted_average(self):
        # w1=1, w2=1/3: (1 + 1/3)^-1 * (0 + 4/3) = 1
        b1 = SampleBatch(0, np.zeros((5, 1)))
        b2 = SampleBatch(1, np.full((5, 1), 4.0))
        injected = [Moments([0.0], [[1.0]]), Moments([4.0], [[3.0]])]
        result = consensus_combine([b1, b2], moments=injected)
        np.testing.assert_allclose(result.combined, np.ones((5, 1)), atol=1e-12)

    def test_unequal_sizes_rejected(self):
        b1 = SampleBatch(0, np.random.default_rng(0).standard_normal((50, 1)))
        b2 = SampleBatch(1, np.random.default_rng(1).standard_normal((60, 1)))
        with pytest.raises(InvalidInputError, match="equal batch sizes"):
            consensus_combine([b1, b2])

    def test_row_count_is_single_batch_length(self):
        batches, moments = _gaussian_batches(2, 4, 75, seed=12)
        result = consensus_combine(batches, moments=moments)
        assert result.combined.shape == (75, 2)


class TestBarycenter:
    def test_equal_covariances_fixed_point(self):
        rng = np.random.default_rng(13)
        cov = random_spd(3, rng)
        moments = [Moments(rng.standard_normal(3), cov) for _ in range(4)]
        target = gaussian_barycenter(moments)
        np.testing.assert_allclose(target.cov, cov, atol=1e-9)
        np.testing.assert_allclose(
            target.mean, np.mean([m.mean for m in moments], axis=0), atol=1e-12
        )

    def test_scalar_closed_form(self):
        # d = 1: S = ((1/B) sum sqrt(V_b))^2
        values = [0.5, 1.0, 4.0]
        moments = [Moments([0.0], [[v]]) for v in values]
        target = gaussian_barycenter(moments)
        expected = (np.mean(np.sqrt(values))) ** 2
        np.testing.assert_allclose(target.cov[0, 0], expected, atol=1e-10)

    def test_single_batch_passthrough(self):
        mom = Moments([1.0], [[2.0]])
        target = gaussian_barycenter([mom])
        np.testing.assert_allclose(target.cov, mom.cov)

    def test_interpolates_between_harmonic_and_arithmetic(self):
        rng = np.random.default_rng(14)
        moments = [Moments(np.zeros(3), random_spd(3, rng)) for _ in range(5)]
        target = gaussian_barycenter(moments)
        arithmetic = np.mean([m.cov for m in moments], axis=0)
        harmonic = spd_inverse(np.mean([spd_inverse(m.cov) for m in moments], axis=0))
        assert np.trace(harmonic) - 1e-9 <= np.trace(target.cov) <= np.trace(arithmetic) + 1e-9

    def test_combine_targets_barycenter_moments(self):
        batches, moments = _gaussian_batches(3, 4, 250, seed=15)
        result = barycenter_combine(batches, moments=moments)
        target = gaussian_barycenter(moments)
        n = 250
        for b in range(4):
            block = result.combined[b * n : (b + 1) * n]
            np.testing.assert_allclose(block.mean(axis=0), target.mean, atol=1e-10)
            centered = block - block.mean(axis=0)
            np.testing.assert_allclose(centered.T @ centered / (n - 1), target.cov, atol=1e-9)

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr("swissmc.combiners._BARYCENTER_MAX_ITERS", 1)
        monkeypatch.setattr("swissmc.combiners._BARYCENTER_TOL", 1e-16)
        rng = np.random.default_rng(16)
        moments = [Moments(np.zeros(3), random_spd(3, rng)) for _ in range(3)]
        with pytest.raises(ConvergenceError, match="residual"):
            gaussian_barycenter(moments)


class TestDisplacement:
    def test_identity_moves_nothing(self):
        pts = np.random.default_rng(17).standard_normal((100, 3))
        assert displacement(np.eye(3), pts) == 0.0

    def test_hand_evaluation(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert displacement(2.0 * np.eye(2), pts) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            displacement(np.eye(3), np.zeros((10, 2)))

    def test_limit_formula_standard_normal(self):
        # D -> d + tr(A A^T) - 2 tr(A) for standard-normal points
        rng = np.random.default_rng(18)
        d, n = 5, 200_000
        pts = rng.standard_normal((n, d))
        for _ in range(3):
            a = rng.standard_normal((d, d)) * 0.5
            moved = pts - pts @ a.T
            per_point = np.einsum("ij,ij->i", moved, moved)
            se = per_point.std(ddof=1) / np.sqrt(n)
            expected = d + np.trace(a @ a.T) - 2.0 * np.trace(a)
            assert abs(displacement(a, pts) - expected) <= 5.0 * se

    def test_symmetric_root_inverse_is_optimal(self):
        # among maps whitening V, the inverse symmetric root moves points least
        rng = np.random.default_rng(19)
        for d in (2, 5):
            cov = random_spd(d, rng)
            pts = draw_gaussian(np.zeros(d), cov, 100_000, rng)
            root = spsq(cov)
            best = displacement(spd_inverse(root), pts)
            chol_inv = np.linalg.inv(cholesky(cov))
            assert best <= displacement(chol_inv, pts) + 1e-6
            for _ in range(5):
                o = random_orthogonal(d, rng)
                assert best <= displacement(o @ spd_inverse(root), pts) + 1e-6


class TestAffineMap:
    def test_apply_matches_definition(self):
        mapping = AffineMap(np.array([[2.0, 0.0], [0.0, 3.0]]), [1.0, 1.0], [0.0, 10.0])
        out = mapping.apply(np.array([[2.0, 2.0]]))
        np.testing.assert_allclose(out, [[2.0, 13.0]])


class TestDecompositionCount:
    """Eigendecompositions per combine call: one per matrix that
    needs one, counted at every module attribute bound to ``linalg.eigh``."""

    @pytest.mark.parametrize(
        "combine, expected",
        [
            (ar_combine, 0),  # shift only
            (consensus_combine, 3 + 1),  # B precisions, one pooled inverse
            (swiss_combine, 2 * 3 + 2),  # pooling B + 1, target root, B whitened roots
        ],
    )
    def test_eigh_calls_at_three_batches(self, combine, expected, monkeypatch):
        batches, _ = _gaussian_batches(3, 3, 50, seed=2)
        original = linalg.eigh
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "swissmc":
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counting)
        combine(batches)
        assert len(calls) == expected
