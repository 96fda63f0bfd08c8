"""Targets, generators, the partitioner and the dataset CSV interface."""

import math
import pickle
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from swissmc import (
    ConvergenceError,
    DataError,
    Dataset,
    InvalidInputError,
    ParseError,
    Partition,
    RngStream,
    gaussian_conjugate_suite,
    logistic_regression_model,
    make_target,
    partition,
    read_dataset_csv,
    simulate_rare_feature_data,
    write_dataset_csv,
)
from swissmc.targets import (
    DATA_BACKED_TARGETS,
    RARE_FEATURE_COEFS,
    RARE_FEATURE_RATES,
    TARGET_NAMES,
    LogisticData,
    LogisticRegression,
    TargetModel,
    _logistic_grad_neg_hess,
    collapse_logistic,
    shard_data,
    sigmoid,
)
from helpers import WarpedGaussian, rare_bernoulli_logpdf


def _loglik(model, theta, data_batch=None):
    """log_likelihood at one point, evaluated as the K = 1 stack."""
    stack = np.asarray(theta, dtype=float)[None]
    return model.log_likelihood(stack, model.stack_data([data_batch]))[0]


class TestRareBernoulli:
    def test_direct_evaluation(self):
        assert rare_bernoulli_logpdf(0.5) == pytest.approx(1000.0 * math.log(0.5))

    def test_mode_at_one_in_a_thousand(self):
        # d/dtheta log density = 1/theta - 999/(1-theta) = 0 at theta = 1/1000
        grid = np.linspace(1e-5, 0.02, 20000)
        values = [rare_bernoulli_logpdf(t) for t in grid]
        assert grid[int(np.argmax(values))] == pytest.approx(1e-3, rel=0.01)

    def test_outside_unit_interval(self):
        assert rare_bernoulli_logpdf(0.0) == -math.inf
        assert rare_bernoulli_logpdf(1.0) == -math.inf
        assert rare_bernoulli_logpdf(-0.3) == -math.inf

    def test_logit_scale_model_matches_density_plus_jacobian(self):
        model = make_target("rare-bernoulli")
        for phi in (-8.0, -3.0, 0.0, 2.0):
            theta = 1.0 / (1.0 + math.exp(-phi))
            expected = rare_bernoulli_logpdf(theta) + math.log(theta * (1.0 - theta))
            assert model.log_density(np.array([phi])) == pytest.approx(expected, rel=1e-12)

    def test_reported_scale_is_unit_interval(self):
        model = make_target("rare-bernoulli")
        reported = model.report(np.array([[-3.0], [0.0], [4.0]]))
        assert np.all((0 < reported) & (reported < 1))


class TestWarpedGaussian:
    def test_origin_value(self):
        model = WarpedGaussian()
        assert model.log_density([0.0, 0.0]) == pytest.approx(-math.log(2 * math.pi))

    def test_ridge_maximum_in_second_coordinate(self):
        model = WarpedGaussian()
        for t1 in (-1.5, 0.3, 2.0):
            ridge = model.log_density([t1, -t1**2])
            assert ridge >= model.log_density([t1, -t1**2 + 0.3])
            assert ridge >= model.log_density([t1, -t1**2 - 0.3])

    def test_first_marginal_is_standard_normal(self):
        # integrating over theta_2 leaves phi(theta_1); check by quadrature
        model = WarpedGaussian()
        grid2 = np.linspace(-30.0, 10.0, 4001)
        for t1 in (0.0, 1.0, -2.0):
            stack = np.column_stack([np.full_like(grid2, t1), grid2])
            values = np.exp(model.log_likelihood(stack, model.stack_data([None] * grid2.size)))
            marginal = np.trapezoid(values, grid2)
            expected = math.exp(-0.5 * t1**2) / math.sqrt(2 * math.pi)
            assert marginal == pytest.approx(expected, rel=1e-6)


class TestGaussianConjugateSuite:
    def test_single_batch_equals_full(self):
        per_batch, full = gaussian_conjugate_suite(3, 1, seed=0)
        np.testing.assert_allclose(per_batch[0].mean, full.mean, atol=1e-12)
        np.testing.assert_allclose(per_batch[0].cov, full.cov, atol=1e-10)

    def test_scalar_precision_sum(self):
        # V1=V2=1, mu1=0, mu2=2 -> full N(1, 0.5)
        from swissmc import Moments

        moments = [Moments([0.0], [[1.0]]), Moments([2.0], [[1.0]])]
        precision = sum(np.linalg.inv(m.cov) for m in moments)
        v = np.linalg.inv(precision)
        mu = v @ sum(np.linalg.inv(m.cov) @ m.mean for m in moments)
        assert v[0, 0] == pytest.approx(0.5)
        assert mu[0] == pytest.approx(1.0)

    def test_full_posterior_matches_naive_formula(self):
        per_batch, full = gaussian_conjugate_suite(4, 6, seed=3)
        precision = sum(np.linalg.inv(m.cov) for m in per_batch)
        v = np.linalg.inv(precision)
        mu = v @ sum(np.linalg.inv(m.cov) @ m.mean for m in per_batch)
        np.testing.assert_allclose(full.cov, v, atol=1e-9)
        np.testing.assert_allclose(full.mean, mu, atol=1e-9)

    def test_deterministic(self):
        a_batches, a_full = gaussian_conjugate_suite(5, 4, seed=9)
        b_batches, b_full = gaussian_conjugate_suite(5, 4, seed=9)
        assert np.array_equal(a_full.cov, b_full.cov)
        for a, b in zip(a_batches, b_batches):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.cov, b.cov)

    def test_invalid_sizes(self):
        with pytest.raises(InvalidInputError):
            gaussian_conjugate_suite(0, 3, seed=0)

    def test_one_dimensional_covariance_is_inverse_chi_square(self):
        # d = 1: the covariance is 1 / chi2(5), drawn right after the mean
        (batch,), _ = gaussian_conjugate_suite(1, 1, seed=101)
        rng = RngStream(101, 0).generator()
        rng.standard_normal(1)
        np.testing.assert_allclose(batch.cov[0, 0], 1.0 / rng.chisquare(5.0), rtol=1e-12)

    def test_mean_covariance_matches_inverse_wishart_mean(self):
        # E[V_b] = I / (df - d - 1); d = 2, df = 10 -> I/7
        per_batch, _ = gaussian_conjugate_suite(2, 50_000, seed=7)
        covs = np.stack([m.cov for m in per_batch])
        mean = covs.mean(axis=0)
        se = covs.std(axis=0, ddof=1) / np.sqrt(len(covs))
        assert np.all(np.abs(mean - np.eye(2) / 7.0) <= 3.0 * se + 1e-12)


class TestLogisticModel:
    def _toy(self, n=200, d=3, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        y = (rng.random(n) < sigmoid(x @ np.array([1.0, -0.5, 0.25]))).astype(float)
        return x, y

    def test_zero_coefficients_give_n_log_half(self):
        x, y = self._toy()
        model = logistic_regression_model(x, y)
        assert _loglik(model, np.zeros(3), collapse_logistic(x, y)) == pytest.approx(
            -200 * math.log(2)
        )
        assert _loglik(model, np.zeros(3)) == pytest.approx(-200 * math.log(2))

    def test_prior_is_normal_with_variance_100(self):
        # the N(0, 100 I) log-density, written out
        x, y = self._toy()
        model = logistic_regression_model(x, y)
        for theta in (np.zeros(3), np.array([1.0, -20.0, 3.5])):
            expected = -1.5 * math.log(2 * math.pi * 100.0) - float(theta @ theta) / 200.0
            assert model.log_prior(theta[None])[0] == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        x, y = self._toy(seed=1)
        theta = np.array([0.3, -0.7, 1.1])
        grad, _ = _logistic_grad_neg_hess(theta, collapse_logistic(x, y), 0.0, 1.0)
        model = logistic_regression_model(x, y)
        eps = 1e-6
        for j in range(3):
            bump = np.zeros(3)
            bump[j] = eps
            numeric = (
                _loglik(model, theta + bump) - _loglik(model, theta - bump)
            ) / (2 * eps)
            assert grad[j] == pytest.approx(numeric, rel=1e-5, abs=1e-5)

    def test_saturation_monotone(self):
        x = np.array([[1.0]])
        y = np.array([1.0])
        model = logistic_regression_model(x, y)
        values = [_loglik(model, np.array([t])) for t in (0.0, 2.0, 5.0, 20.0)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.0, abs=1e-8)

    def test_mle_recovers_coefficients(self):
        rng = np.random.default_rng(2)
        truth = np.array([0.8, -1.2])
        x = rng.standard_normal((20000, 2))
        y = (rng.random(20000) < sigmoid(x @ truth)).astype(float)
        estimate = LogisticRegression(collapse_logistic(x, y)).mle()
        np.testing.assert_allclose(estimate, truth, atol=0.08)

    def test_mle_handles_constant_column(self):
        x = np.column_stack([np.ones(100), np.zeros(100)])
        y = np.concatenate([np.ones(40), np.zeros(60)])
        estimate = LogisticRegression(collapse_logistic(x, y)).mle()
        assert abs(estimate[1]) < 1e-6  # flat direction pinned by the ridge
        assert estimate[0] == pytest.approx(math.log(40 / 60), abs=0.01)

    def test_inflated_exponent_is_exact_multiple(self):
        x, y = self._toy(seed=3)
        model = logistic_regression_model(x, y)
        theta = np.array([0.2, 0.1, -0.4])
        base_prior = model.log_prior(theta[None])[0]
        base_lik = _loglik(model, theta)
        assert model.log_density(theta, powers=(1.0, 5.0)) == pytest.approx(
            base_prior + 5.0 * base_lik, rel=1e-12
        )

    def test_rejects_non_binary_response(self):
        with pytest.raises(InvalidInputError):
            logistic_regression_model(np.zeros((5, 1)), np.array([0.0, 1.0, 2.0, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_features_at_once(self, bad):
        # refused when the model is built, not after 100 Newton steps of the
        # ML search, and without a RuntimeWarning on the way
        x = np.ones((6, 2))
        x[3, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^features contain non-finite values$"):
                logistic_regression_model(x, np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0]))

    def test_column_response_is_raveled(self):
        x = np.column_stack([np.ones(4), [0.0, 1.0, 0.0, 1.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        column = logistic_regression_model(x, y[:, None]).data
        flat = logistic_regression_model(x, y).data
        for a, b in zip(column, flat):
            assert np.array_equal(a, b)


class TestSufficientStatistics:
    """The collapsed (row, count, success sum) form against the row-wise formulas."""

    @staticmethod
    def _rare(seed=11):
        data = simulate_rare_feature_data(4000, seed)
        return data.x, data.y

    @staticmethod
    def _continuous(seed=12):
        rng = np.random.default_rng(seed)
        x = np.column_stack([np.ones(500), rng.standard_normal((500, 3))])
        y = (rng.random(500) < sigmoid(x @ np.array([-0.5, 1.0, -0.5, 0.25]))).astype(float)
        return x, y

    @staticmethod
    def _row_wise(theta, x, y):
        # reference: one term per data row
        eta = x @ theta
        p = 1.0 / (1.0 + np.exp(-eta))
        loglik = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
        grad = x.T @ (y - p)
        neg_hess = (x * (p * (1.0 - p))[:, None]).T @ x
        return loglik, grad, neg_hess

    @pytest.mark.parametrize("design", ["_rare", "_continuous"])
    def test_matches_row_wise_formulas(self, design):
        x, y = getattr(self, design)()
        data = collapse_logistic(x, y)
        model = logistic_regression_model(x, y)
        rng = np.random.default_rng(13)
        for _ in range(100):
            theta = rng.standard_normal(x.shape[1])
            loglik, grad, neg_hess = self._row_wise(theta, x, y)
            assert _loglik(model, theta) == pytest.approx(loglik, rel=1e-12)
            got_grad, got_neg_hess = _logistic_grad_neg_hess(theta, data, 0.0, 1.0)
            np.testing.assert_allclose(got_grad, grad, rtol=1e-12, atol=1e-12 * np.max(np.abs(grad)))
            np.testing.assert_allclose(
                got_neg_hess, neg_hess, rtol=1e-12, atol=1e-12 * np.max(np.abs(neg_hess))
            )

    @pytest.mark.parametrize("design", ["_rare", "_continuous"])
    def test_totals_and_distinct_rows(self, design):
        x, y = getattr(self, design)()
        data = collapse_logistic(x, y)
        assert data.counts.sum() == x.shape[0]
        assert data.successes.sum() == y.sum()
        assert np.unique(data.rows, axis=0).shape == data.rows.shape
        assert np.all((0 <= data.successes) & (data.successes <= data.counts))
        if design == "_continuous":
            assert data.rows.shape == x.shape  # all rows distinct: nothing to collapse

    def test_rare_feature_target_holds_at_most_16_rows(self):
        data = simulate_rare_feature_data(20000, 14)
        rows = make_target("logistic-rare", dataset=data).data.rows
        assert rows.shape[0] <= 16
        assert rows.shape[1] == 5

    def test_shards_partition_the_full_statistics(self):
        data = simulate_rare_feature_data(3000, 15)
        split = partition(data, 4, seed=16)
        shards = shard_data(data, split)
        assert len(shards) == 4
        assert [s.counts.sum() for s in shards] == list(split.sizes())
        assert sum(s.successes.sum() for s in shards) == data.y.sum()


class TestStackedSums:
    """A row of a logistic stack equals its point evaluated alone (the K = 1
    stack), bit for bit, on a continuous design, and a lone one-row chain's
    log-likelihood adds its feature planes left to right.  stack_data pads
    every chain to at least two rows: numpy sums d planes of one value each
    pairwise from d = 8 on, and planes of several values left to right."""

    @pytest.mark.parametrize("d", [5, 8, 12])
    @pytest.mark.parametrize("k, width", [(1, 1), (2, 1), (1, 2), (99, 1), (9, 11), (1, 99)])
    def test_stack_row_equals_point_alone(self, d, k, width):
        # K * R = 1, 2 or 99 rows of data per stack (one row padded to two)
        rng = np.random.default_rng(1000 * d + k * width)
        parts = []
        for _ in range(k):
            counts = rng.integers(1, 5, width).astype(float)
            successes = np.floor(rng.random(width) * (counts + 1))
            parts.append(LogisticData(rng.standard_normal((width, d)), successes, counts))
        model = LogisticRegression(parts[0])
        stacked = model.stack_data(parts)
        powers = (rng.random(k) + 0.5, 4.0 * rng.random(k))
        for _ in range(20):
            theta = 3.0 * rng.standard_normal((k, d))
            values = model.log_density(theta, stacked, powers)
            for i, part in enumerate(parts):
                alone = model.log_density(theta[i], part, (powers[0][i], powers[1][i]))
                assert values[i] == alone

    @pytest.mark.parametrize("d", [8, 12, 20, 40])
    def test_one_row_chain_sums_planes_left_to_right(self, d):
        rng = np.random.default_rng(d)
        part = LogisticData(rng.standard_normal((1, d)), np.array([2.0]), np.array([3.0]))
        model = LogisticRegression(part)
        stacked = model.stack_data([part])
        for _ in range(20):
            theta = 3.0 * rng.standard_normal(d)
            eta = 0.0
            for x, t in zip(part.rows[0], theta):
                eta += x * t
            expected = 2.0 * eta - 3.0 * np.logaddexp(0.0, eta)
            assert model.log_likelihood(theta[None], stacked)[0] == expected

    def test_one_row_chain_is_padded_to_width_two(self):
        part = LogisticData(np.ones((1, 3)), np.array([1.0]), np.array([2.0]))
        rows, successes, counts = LogisticRegression(part).stack_data([part])
        assert rows.shape == (3, 1, 2)
        assert np.array_equal(rows[:, 0, 1], np.zeros(3))
        assert successes.tolist() == [[1.0, 0.0]]
        assert counts.tolist() == [[2.0, 0.0]]


class TestLogisticLaplace:
    """Laplace step of one inflated shard target (prior^1 x likelihood^B)."""

    N_BATCHES = 4
    POWERS = (1.0, float(N_BATCHES))

    def _shard(self):
        data = simulate_rare_feature_data(4000, 31)
        split = partition(data, self.N_BATCHES, seed=32)
        idx = split.indices(0)
        model = make_target("logistic-rare", dataset=data)
        return model, collapse_logistic(data.x[idx], data.y[idx])

    def _grad(self, theta, batch):
        # gradient of the inflated log-density: B * loglik' - theta / prior variance
        return _logistic_grad_neg_hess(theta, batch, 1.0 / 100.0, float(self.N_BATCHES))[0]

    def test_gradient_vanishes_at_mode(self):
        model, batch = self._shard()
        mode = model.laplace(batch, self.POWERS).mean
        assert np.max(np.abs(self._grad(mode, batch))) < 1e-8
        # the same holds for the target's own log-density, by central differences
        eps = 1e-5
        for j in range(model.dim):
            bump = np.zeros(model.dim)
            bump[j] = eps
            numeric = (
                model.log_density(mode + bump, batch, self.POWERS)
                - model.log_density(mode - bump, batch, self.POWERS)
            ) / (2 * eps)
            assert abs(numeric) < 1e-5

    def test_covariance_is_inverse_negative_hessian(self):
        model, batch = self._shard()
        laplace = model.laplace(batch, self.POWERS)
        eps = 1e-5
        neg_hess = np.empty((model.dim, model.dim))
        for j in range(model.dim):
            bump = np.zeros(model.dim)
            bump[j] = eps
            neg_hess[:, j] = -(
                self._grad(laplace.mean + bump, batch) - self._grad(laplace.mean - bump, batch)
            ) / (2 * eps)
        np.testing.assert_allclose(laplace.cov @ neg_hess, np.eye(model.dim), atol=1e-6)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr("swissmc.targets._NEWTON_MAX_STEPS", 2)
        model, batch = self._shard()
        with pytest.raises(ConvergenceError, match="Laplace mode search.*Newton"):
            model.laplace(batch, self.POWERS)

    def test_mle_non_convergence_raises(self, monkeypatch):
        # the ML estimate shares the Newton loop, so it fails loudly too
        monkeypatch.setattr("swissmc.targets._NEWTON_MAX_STEPS", 2)
        model, batch = self._shard()
        with pytest.raises(ConvergenceError, match="ML estimate.*Newton"):
            model.mle(batch)


class TestRareFeatureData:
    def test_intercept_column_is_ones(self):
        data = simulate_rare_feature_data(5000, seed=0)
        assert np.all(data.x[:, 0] == 1.0)

    def test_rare_column_frequency(self):
        n = 100_000
        data = simulate_rare_feature_data(n, seed=1)
        rate = RARE_FEATURE_RATES[4]
        se = math.sqrt(rate * (1 - rate) / n)
        assert abs(data.x[:, 4].mean() - rate) <= 3 * se

    def test_all_frequencies(self):
        n = 200_000
        data = simulate_rare_feature_data(n, seed=2)
        for j, rate in enumerate(RARE_FEATURE_RATES):
            se = math.sqrt(rate * (1 - rate) / n) + 1e-12
            assert abs(data.x[:, j].mean() - rate) <= 4 * se

    def test_response_rate_consistent_with_coefficients(self):
        n = 200_000
        data = simulate_rare_feature_data(n, seed=3)
        expected = sigmoid(data.x @ np.asarray(RARE_FEATURE_COEFS)).mean()
        assert abs(data.y.mean() - expected) < 0.005

    def test_deterministic(self):
        a = simulate_rare_feature_data(1000, seed=4)
        b = simulate_rare_feature_data(1000, seed=4)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)


class TestDataset:
    @pytest.mark.parametrize(
        "x, y, error, message",
        [
            (np.zeros(3), None, InvalidInputError,
             r"^features must be a non-empty \(n, p\) matrix, got \(3,\)$"),
            (np.zeros((0, 2)), None, InvalidInputError,
             r"^features must be a non-empty \(n, p\) matrix, got \(0, 2\)$"),
            ([[1.0], [math.inf]], None, DataError, "^features contain non-finite values$"),
            (np.zeros((3, 1)), [0.0, 1.0], InvalidInputError,
             "^response length does not match the feature rows$"),
        ],
    )
    def test_rejects_bad_rows(self, x, y, error, message):
        with pytest.raises(error, match=message):
            Dataset(x, y)


class TestPartition:
    def test_even_split(self):
        data = Dataset(np.zeros((10, 1)))
        split = partition(data, 2, seed=0)
        np.testing.assert_array_equal(np.sort(split.sizes()), [5, 5])

    def test_near_equal_split(self):
        data = Dataset(np.zeros((7, 1)))
        split = partition(data, 3, seed=0)
        sizes = split.sizes()
        assert sizes.sum() == 7
        assert sizes.max() - sizes.min() <= 1

    def test_deterministic(self):
        data = Dataset(np.arange(50, dtype=float)[:, None])
        a = partition(data, 5, seed=3)
        b = partition(data, 5, seed=3)
        assert np.array_equal(a.assignment, b.assignment)
        c = partition(data, 5, seed=4)
        assert not np.array_equal(a.assignment, c.assignment)

    def test_negative_id_rejected(self):
        with pytest.raises(InvalidInputError, match="^assignment must be non-empty with ids >= 0$"):
            Partition(np.array([0, -1, 1]))

    @pytest.mark.parametrize("ids", [[0, 2, 2], [0, 1, 10**15]])
    def test_empty_batch_rejected(self, ids):
        with pytest.raises(InvalidInputError, match="at least one row"):
            Partition(np.array(ids))

    @pytest.mark.parametrize(
        "ids", [[0, 1.5, 1], [0.0, 1.0, np.nan], [0, 1, np.inf], [True, False], ["0", "1"]]
    )
    def test_non_integral_ids_rejected(self, ids):
        # a fractional id must not be truncated onto a neighbouring batch
        with pytest.raises(InvalidInputError, match="batch ids must be integers"):
            Partition(ids)

    def test_integral_float_ids_rejected(self):
        # one integer rule for the package: 1.0 is a float, not an id, as in
        # an assignment CSV; the error names the dtype
        with pytest.raises(InvalidInputError, match="batch ids must be integers, got dtype float64"):
            Partition([0.0, 1.0, 1.0])

    def test_too_many_batches(self):
        with pytest.raises(InvalidInputError):
            partition(Dataset(np.zeros((3, 1))), 5)

    @pytest.mark.parametrize("n_ids", [4, 16])
    def test_shard_data_needs_one_id_per_row(self, n_ids):
        # a split of fewer rows would drop data, one of more would index past it
        data = simulate_rare_feature_data(10, seed=0)
        split = Partition(np.arange(n_ids) % 2)
        message = f"^assignment covers {n_ids} rows, dataset has 10$"
        with pytest.raises(InvalidInputError, match=message):
            shard_data(data, split)


def _partition_ten_rows(*args):
    return partition(Dataset(np.zeros((10, 1))), *args)


@pytest.mark.parametrize(
    "function, args, name",
    [
        (_partition_ten_rows, (2.5,), "n_batches"),
        (_partition_ten_rows, (True,), "n_batches"),
        (_partition_ten_rows, (2, 0.5), "seed"),
        (simulate_rare_feature_data, (50, 0.5), "seed"),
        (simulate_rare_feature_data, (50.5, 0), "n"),
        (simulate_rare_feature_data, (True, 0), "n"),
        (gaussian_conjugate_suite, (2.5, 2, 0), "d"),
        (gaussian_conjugate_suite, (2, 2.0, 0), "n_batches"),
        (gaussian_conjugate_suite, (2, 2, True), "seed"),
    ],
    ids=lambda value: getattr(value, "__name__", repr(value)),
)
def test_counts_and_seeds_must_be_integers(function, args, name):
    # a float or a bool count or seed is an input error naming the argument
    with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
        function(*args)


class TestLikelihoodFactorization:
    def test_batch_log_likelihoods_sum_to_full(self):
        # the partition premise: sum_b log f(y_b | theta) == log f(y | theta)
        data = simulate_rare_feature_data(2000, seed=5)
        model = make_target("logistic-rare", dataset=data)
        split = partition(data, 4, seed=6)
        for theta in (np.zeros(5), np.array([-2.0, 1.0, 0.0, 0.5, 2.0])):
            full = _loglik(model, theta)
            parts = sum(_loglik(model, theta, shard) for shard in shard_data(data, split))
            assert parts == pytest.approx(full, rel=1e-8)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        data = simulate_rare_feature_data(500, seed=7)
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        back = read_dataset_csv(path)
        assert np.array_equal(back.x, data.x)
        assert np.array_equal(back.y, data.y)

    def test_columns_outside_the_format_are_ignored(self, tmp_path):
        # e.g. the text ``group`` column that earlier versions wrote
        path = tmp_path / "grouped.csv"
        path.write_text("y,x0,group,x1\n1,0.5,a b,2\n0,-1.5,,3\n")
        back = read_dataset_csv(path)
        assert back.x.tolist() == [[0.5, 2.0], [-1.5, 3.0]]
        assert back.y.tolist() == [1.0, 0.0]

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("y,x0\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(ParseError, match=r"broken\.csv:3"):
            read_dataset_csv(path)

    def test_non_finite_value_is_parse_error_with_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("y,x0,x1\n1.0,2.0,0.5\n\n0.0,nan,0.1\n")
        with pytest.raises(ParseError, match=r"nan\.csv:4: non-finite"):
            read_dataset_csv(path)
        path.write_text("y,x0\n1.0,2.0\ninf,1.0\n")
        with pytest.raises(ParseError, match=r"nan\.csv:3: non-finite"):
            read_dataset_csv(path)

    def test_missing_feature_columns(self, tmp_path):
        path = tmp_path / "nofeatures.csv"
        path.write_text("y,z\n1.0,2.0\n")
        with pytest.raises(ParseError, match=":1"):
            read_dataset_csv(path)

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("y,x0\n1.0,2.0\n1.0\n")
        with pytest.raises(ParseError, match=r"ragged\.csv:3"):
            read_dataset_csv(path)


class TestMakeTarget:
    def test_unknown_name(self):
        # the two toy targets are not registered; the sampler tests have
        # their own WarpedGaussian
        assert TARGET_NAMES == ("rare-bernoulli", "logistic-rare")
        for name in ("mystery", "warped-gaussian", "gaussian-mixture"):
            with pytest.raises(InvalidInputError, match="unknown target"):
                make_target(name)

    def test_logistic_requires_dataset(self):
        with pytest.raises(InvalidInputError, match="dataset"):
            make_target("logistic-rare")


class TestReadmeTargetRecipe:
    def test_recipe_block_runs(self, capsys):
        # README's "Targets" section shows a user's own toy target as one
        # class run with sample(); the block must run as printed
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("\n## Targets\n", 1)[1].split("\n## ", 1)[0]
        block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        namespace = {"__name__": "readme_recipe"}
        exec(compile(block, "README.md", "exec"), namespace)
        target, batch = namespace["Banana"](), namespace["batch"]
        assert isinstance(target, TargetModel) and target.dim == 2
        assert batch.draws.shape == (500, 2) and np.all(np.isfinite(batch.draws))
        assert 0.0 < batch.diagnostics["acceptance_rate"] < 1.0
        assert capsys.readouterr().out
        # the banana is WarpedGaussian without its normalizing constant
        point = np.array([0.3, -0.4])
        gap = target.log_density(point) - WarpedGaussian().log_density(point)
        assert gap == pytest.approx(math.log(2 * math.pi), rel=1e-12)


@pytest.mark.parametrize("name", [*TARGET_NAMES, WarpedGaussian.name])
class TestTargetContract:
    """What every target owes the sampler and the harness: the registered
    ones and the test WarpedGaussian, a two-dimensional data-free target."""

    @staticmethod
    def _target_and_points(name):
        data = simulate_rare_feature_data(600, seed=41)
        if name == WarpedGaussian.name:
            target = WarpedGaussian()
        else:
            target = make_target(name, dataset=data)
        batch = shard_data(data, partition(data, 3, seed=42))[1] if target.data_backed else None
        points = 0.5 * np.random.default_rng(43).standard_normal((5, target.dim))
        return target, batch, points

    def test_log_density_is_not_overridden(self, name):
        target, _, _ = self._target_and_points(name)
        assert type(target).log_density is TargetModel.log_density

    def test_pickle_round_trip_keeps_log_density_bits(self, name):
        target, batch, points = self._target_and_points(name)
        powers = target.convention_powers("inflated", 3)
        clone = pickle.loads(pickle.dumps(target))
        assert type(clone) is type(target)
        for theta in points:
            for data in (None, batch):
                assert clone.log_density(theta, data, powers) == target.log_density(
                    theta, data, powers
                )

    def test_for_convention_exponents(self, name):
        target, _, _ = self._target_and_points(name)
        data_backed = name in DATA_BACKED_TARGETS
        assert data_backed == target.data_backed
        expected = {"inflated": (1.0, 4.0), "subposterior": (0.25, 1.0), "full": (1.0, 1.0)}
        for convention, powers in expected.items():
            got = target.convention_powers(convention, 4)
            assert got == (powers if data_backed else (1.0, 1.0))
        # the batch count is an integer >= 1 (errors.integer): never a float or a bool
        for bad in (0, 2.5, True):
            with pytest.raises(InvalidInputError, match="batch count"):
                target.convention_powers("inflated", bad)
        with pytest.raises(InvalidInputError, match="convention"):
            target.convention_powers("tempered", 2)

    def test_point_log_density_is_its_row_in_any_group(self, name):
        # the full-data target and three batch targets at mixed exponents;
        # logistic shards have fewer distinct rows than the full data, so
        # their stacked data carries zero-count padding.  A point runs as the
        # K = 1 stack, so it must match its row bit for bit
        target, _, points = self._target_and_points(name)
        data = simulate_rare_feature_data(600, seed=41)
        shards = [None] * 3
        if target.data_backed:
            shards = shard_data(data, partition(data, 3, seed=42))
        chains = [
            ((1.0, 1.0), None),
            ((1.0, 3.0), shards[0]),
            ((1.0 / 3.0, 1.0), shards[1]),
            ((0.3, 2.5), shards[2]),
            ((1.0, 3.0), shards[0]),
        ]
        stacked_data = target.stack_data([batch_data for _, batch_data in chains])
        if target.data_backed:
            assert min(part.rows.shape[0] for part in shards) < stacked_data.rows.shape[-1]
        powers = tuple(np.array(column) for column in zip(*(p for p, _ in chains)))
        values = target.log_density(points, stacked_data, powers)
        assert values.shape == (len(chains),)
        for theta, (chain_powers, batch_data), value in zip(points, chains, values):
            assert value == target.log_density(theta, batch_data, chain_powers)

    def test_log_density_is_the_tempered_sum(self, name):
        target, batch, points = self._target_and_points(name)
        for theta in points:
            for data in (None, batch):
                stack, stacked = theta[None], target.stack_data([data])
                expected = 0.3 * target.log_prior(stack) + 2.5 * target.log_likelihood(stack, stacked)
                if target.log_jacobian is not None:
                    expected += target.log_jacobian(stack)
                assert target.log_density(theta, data, (0.3, 2.5)) == expected[0]
