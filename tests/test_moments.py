"""Moment estimation and precision pooling."""

import numpy as np
import pytest

from swissmc import (
    DataError,
    InsufficientSamplesError,
    InvalidInputError,
    Moments,
    NotPositiveDefiniteError,
    SampleBatch,
    consensus_pool,
    estimate_moments,
    pool_moments,
)
from helpers import random_spd


class TestEstimateMoments:
    def test_hand_computed_square(self):
        draws = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        mom = estimate_moments(SampleBatch(0, draws))
        np.testing.assert_allclose(mom.mean, [1.0, 1.0])
        np.testing.assert_allclose(mom.cov, np.diag([4.0 / 3.0, 4.0 / 3.0]), atol=1e-15)

    def test_one_dimensional(self):
        mom = estimate_moments(SampleBatch(0, np.array([[1.0], [2.0], [3.0]])))
        np.testing.assert_allclose(mom.mean, [2.0])
        np.testing.assert_allclose(mom.cov, [[1.0]])

    def test_constant_draws_fail_downstream(self):
        mom = estimate_moments(SampleBatch(0, np.ones((10, 2))))
        with pytest.raises(NotPositiveDefiniteError):
            pool_moments([mom, mom])

    def test_too_few_draws(self):
        with pytest.raises(InsufficientSamplesError):
            estimate_moments(SampleBatch(0, np.zeros((3, 3))))

    def test_nonfinite_draws(self):
        # SampleBatch refuses them, so estimate_moments never sees one
        with pytest.raises(DataError):
            SampleBatch(0, np.array([[1.0], [np.inf]]))

    def test_unbiased_divisor(self):
        rng = np.random.default_rng(0)
        draws = rng.standard_normal((50, 3))
        mom = estimate_moments(SampleBatch(0, draws))
        np.testing.assert_allclose(mom.cov, np.cov(draws.T, ddof=1), atol=1e-12)


class TestPoolMoments:
    def test_equal_covariances_average_means(self):
        a = Moments([0.0], [[2.0]])
        b = Moments([4.0], [[2.0]])
        pooled = pool_moments([a, b])
        np.testing.assert_allclose(pooled.cov, [[2.0]], atol=1e-12)
        np.testing.assert_allclose(pooled.mean, [2.0], atol=1e-12)

    def test_single_input_passthrough(self):
        mom = Moments([1.0, 2.0], np.diag([1.0, 3.0]))
        pooled = pool_moments([mom])
        assert pooled is mom

    def test_scalar_hand_evaluation(self):
        # V = (0.5 * (1 + 1/3))^-1 = 1.5, mu = 1.5 * 0.5 * (0 + 4/3) = 1
        pooled = pool_moments([Moments([0.0], [[1.0]]), Moments([4.0], [[3.0]])])
        np.testing.assert_allclose(pooled.cov, [[1.5]], atol=1e-12)
        np.testing.assert_allclose(pooled.mean, [1.0], atol=1e-12)

    def test_identical_inputs_unchanged(self):
        rng = np.random.default_rng(1)
        mom = Moments(rng.standard_normal(4), random_spd(4, rng))
        pooled = pool_moments([mom] * 5)
        np.testing.assert_allclose(pooled.mean, mom.mean, atol=1e-10)
        np.testing.assert_allclose(pooled.cov, mom.cov, atol=1e-10)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        moments = [Moments(rng.standard_normal(3), random_spd(3, rng)) for _ in range(6)]
        base = pool_moments(moments)
        perm = pool_moments(moments[::-1])
        np.testing.assert_allclose(base.mean, perm.mean, atol=1e-12)
        np.testing.assert_allclose(base.cov, perm.cov, atol=1e-12)

    def test_against_naive_dense_oracle(self):
        # independent path: plain numpy inversions of the defining formula
        rng = np.random.default_rng(3)
        moments = [Moments(rng.standard_normal(5), random_spd(5, rng)) for _ in range(4)]
        pooled = pool_moments(moments)
        precisions = [np.linalg.inv(m.cov) for m in moments]
        v = np.linalg.inv(sum(precisions) / 4)
        mu = v @ (sum(p @ m.mean for p, m in zip(precisions, moments)) / 4)
        np.testing.assert_allclose(pooled.cov, v, atol=1e-10)
        np.testing.assert_allclose(pooled.mean, mu, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            pool_moments([Moments([0.0], [[1.0]]), Moments([0.0, 0.0], np.eye(2))])

    def test_empty_input(self):
        with pytest.raises(InvalidInputError):
            pool_moments([])


class TestConsensusPool:
    def test_equal_covariances_sum_precisions(self):
        a = Moments([0.0], [[2.0]])
        pooled = consensus_pool([a, a])
        np.testing.assert_allclose(pooled.cov, [[1.0]], atol=1e-12)

    def test_single_input_passthrough(self):
        mom = Moments([5.0], [[2.0]])
        assert consensus_pool([mom]) is mom

    def test_scalar_hand_evaluation(self):
        # W = (1 + 1/3)^-1 = 0.75
        pooled = consensus_pool([Moments([0.0], [[1.0]]), Moments([4.0], [[3.0]])])
        np.testing.assert_allclose(pooled.cov, [[0.75]], atol=1e-12)
        np.testing.assert_allclose(pooled.mean, [1.0], atol=1e-12)

    def test_against_naive_dense_oracle(self):
        rng = np.random.default_rng(4)
        moments = [Moments(rng.standard_normal(4), random_spd(4, rng)) for _ in range(3)]
        pooled = consensus_pool(moments)
        precisions = [np.linalg.inv(m.cov) for m in moments]
        w = np.linalg.inv(sum(precisions))
        mu = w @ sum(p @ m.mean for p, m in zip(precisions, moments))
        np.testing.assert_allclose(pooled.cov, w, atol=1e-10)
        np.testing.assert_allclose(pooled.mean, mu, atol=1e-10)
        # pool_moments averages the same precisions: same mean, B times the covariance
        averaged = pool_moments(moments)
        np.testing.assert_allclose(averaged.mean, pooled.mean, atol=1e-10)
        np.testing.assert_allclose(averaged.cov, len(moments) * pooled.cov, atol=1e-10)


class TestSampleBatchValidation:
    def test_rejects_single_draw(self):
        with pytest.raises(InvalidInputError):
            SampleBatch(0, np.zeros((1, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            SampleBatch(0, np.array([[0.0], [np.nan]]))

    def test_rejects_flat_vector(self):
        with pytest.raises(InvalidInputError):
            SampleBatch(0, np.zeros(5))

    def test_moments_dimension_check(self):
        with pytest.raises(InvalidInputError):
            Moments([0.0, 1.0], [[1.0]])
