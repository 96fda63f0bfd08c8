"""Discrepancy metrics against closed forms and brute-force oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from swissmc import (
    DataError,
    InvalidInputError,
    Reference,
    compute_metrics,
    iad,
    mahalanobis,
    silverman_bandwidth,
    skew_deviation,
)
from swissmc.metrics import _GRID_SIZE, _direct_kde_sum, _gaussian_kde_on_grid
from helpers import random_spd


def _phi_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestMahalanobis:
    def test_self_comparison_is_zero(self):
        x = np.random.default_rng(0).standard_normal((500, 3))
        assert mahalanobis(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_formula(self):
        # mean gap 2, reference variance 4 -> distance 1
        rng = np.random.default_rng(1)
        ref = rng.standard_normal(20000) * 2.0
        ref = (ref - ref.mean()) / ref.std(ddof=1) * 2.0  # exact sd 2
        approx = ref + 2.0
        assert mahalanobis(approx[:, None], ref[:, None]) == pytest.approx(1.0, abs=1e-9)

    def test_joint_affine_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4000, 3)) + [1.0, 0.0, -1.0]
        f = rng.standard_normal((4000, 3))
        base = mahalanobis(a, f)
        linear = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        shift = rng.standard_normal(3)
        assert mahalanobis(a @ linear.T + shift, f @ linear.T + shift) == pytest.approx(
            base, abs=1e-8
        )

    def test_singular_reference_raises(self):
        ref = np.ones((30, 2))
        approx = np.random.default_rng(3).standard_normal((30, 2))
        with pytest.raises(Exception, match="positive definite"):
            mahalanobis(approx, ref)


class TestSkewDeviation:
    def test_self_comparison_is_zero(self):
        x = np.random.default_rng(4).standard_normal((300, 2))
        assert skew_deviation(x, x) == 0.0

    def test_symmetric_sample_against_itself(self):
        x = np.array([[-1.0], [0.0], [1.0]])
        assert skew_deviation(x, x) == 0.0

    def test_exponential_vs_gaussian(self):
        # exponential skewness 2, Gaussian 0
        rng = np.random.default_rng(5)
        expo = rng.exponential(1.0, size=400_000)[:, None]
        gauss = rng.standard_normal(400_000)[:, None]
        assert skew_deviation(expo, gauss) == pytest.approx(2.0, abs=0.1)

    def test_zero_variance_raises(self):
        with pytest.raises(DataError, match="zero variance"):
            skew_deviation(np.ones((10, 1)), np.random.default_rng(6).standard_normal((10, 1)))

    def test_matches_exact_third_standardized_moment(self):
        # mean((x - mean)^3) / sd^3 with the ddof = 1 variance, in exact
        # rational arithmetic and rounded once at the end
        draws = np.random.default_rng(9).standard_normal((40, 3)) ** 2
        skewness = Reference(draws).skewness
        for j, column in enumerate(draws.T):
            values = [Fraction(v) for v in column]
            mean = sum(values) / len(values)
            third = sum((v - mean) ** 3 for v in values) / len(values)
            variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            exact = math.copysign(math.sqrt(third**2 / variance**3), third)
            assert skewness[j] == pytest.approx(exact, rel=1e-12)


def _kde_on_iad_grid(draws):
    """One sample's density on the grid iad builds when both sets are ``draws``."""
    h = silverman_bandwidth(draws)
    grid = np.linspace(draws.min() - 3.0 * h, draws.max() + 3.0 * h, _GRID_SIZE)
    return grid, _gaussian_kde_on_grid(draws, h, grid)


class TestKde1D:
    def test_standard_normal_consistency(self):
        rng = np.random.default_rng(7)
        draws = rng.standard_normal(100_000)
        grid, density = _kde_on_iad_grid(draws)
        true = np.exp(-0.5 * grid**2) / np.sqrt(2.0 * np.pi)
        assert np.max(np.abs(density - true)) < 0.01

    def test_density_non_negative_and_normalized(self):
        rng = np.random.default_rng(8)
        grid, density = _kde_on_iad_grid(rng.exponential(2.0, size=5000))
        assert np.all(density >= 0)
        assert 0.98 <= np.trapezoid(density, grid) <= 1.02

    def test_zero_spread_raises(self):
        with pytest.raises(DataError, match="spread"):
            _kde_on_iad_grid(np.ones(100))

    def test_zero_spread_names_its_column(self):
        draws = np.random.default_rng(10).standard_normal((50, 3))
        draws[:, 2] = 1.0
        with pytest.raises(DataError, match="^dimension 2: samples have zero spread$"):
            Reference(draws).kde_scales

    def test_binned_evaluation_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        draws = rng.standard_normal(4000)
        h = silverman_bandwidth(draws)
        grid = np.linspace(draws.min() - 3 * h, draws.max() + 3 * h, 512)
        fast = _gaussian_kde_on_grid(draws, h, grid)
        slow = _direct_kde_sum(draws, h, grid)
        assert np.max(np.abs(fast - slow)) < 5e-4

    def test_silverman_matches_formula(self):
        # The quartiles come from a sorted copy, not np.percentile: they must
        # agree bit for bit at every n, on tied draws and at zero IQR.
        rng = np.random.default_rng(12)
        for n in [*range(2, 301), 2000, 4999, 5000, 50_000]:
            draws = rng.standard_normal(n) * rng.uniform(0.01, 100.0)
            for x in (draws, np.round(draws), np.round(draws * 3.0) / 7.0 + 1e6):
                if np.ptp(x) > 0:
                    assert silverman_bandwidth(x) == _silverman_by_percentile(x)
        zero_iqr = np.array([0.0] * 10 + [1.0, 2.0])
        assert np.subtract(*np.percentile(zero_iqr, [75, 25])) == 0.0
        assert silverman_bandwidth(zero_iqr) == _silverman_by_percentile(zero_iqr)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_silverman_rejects_non_finite_input(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            silverman_bandwidth([1.0, 2.0, bad])


def _silverman_by_percentile(x):
    sd = x.std(ddof=1)
    iqr = np.subtract(*np.percentile(x, [75, 25]))
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * x.size ** (-0.2)


class TestIad:
    def test_identical_samples_give_zero(self):
        x = np.random.default_rng(13).standard_normal((2000, 2))
        total, per_dim = iad(x, x)
        assert total == 0.0
        assert np.all(per_dim == 0.0)

    def test_disjoint_supports_give_one(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((20000, 1))
        b = rng.standard_normal((20000, 1)) + 50.0
        total, _ = iad(a, b)
        assert total == pytest.approx(1.0, abs=0.01)

    def test_shifted_gaussian_closed_form(self):
        # 0.5 * integral |phi(x) - phi(x-1)| = 2 Phi(1/2) - 1
        rng = np.random.default_rng(15)
        a = rng.standard_normal((200_000, 1))
        b = rng.standard_normal((200_000, 1)) + 1.0
        total, _ = iad(a, b)
        expected = 2.0 * _phi_cdf(0.5) - 1.0
        assert total == pytest.approx(expected, abs=0.01)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((3000, 2))
        b = rng.standard_normal((3000, 2)) * 1.3
        ab, _ = iad(a, b)
        ba, _ = iad(b, a)
        assert ab == pytest.approx(ba, abs=1e-12)

    def test_total_is_mean_of_per_dimension(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((2000, 3))
        b = rng.standard_normal((2000, 3)) + [0.0, 1.0, 2.0]
        total, per_dim = iad(a, b)
        assert total == pytest.approx(per_dim.mean(), rel=1e-12)
        assert per_dim[0] < per_dim[1] < per_dim[2]

    def test_reference_range_is_column_min_and_max(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((5000, 4)) * [1.0, 1e-3, 1e3, 1.0]
        x[:, 3] = np.round(x[:, 3])
        scales = Reference(x).kde_scales
        assert [lo for _, lo, _ in scales] == list(x.min(axis=0))
        assert [hi for _, _, hi in scales] == list(x.max(axis=0))
        assert [h for h, _, _ in scales] == [silverman_bandwidth(c) for c in x.T]

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            iad(np.zeros((10, 2)), np.zeros((10, 3)))


class TestComputeMetrics:
    def test_all_zero_on_identical_input(self):
        x = np.random.default_rng(18).standard_normal((1000, 2))
        report = compute_metrics(x, x)
        assert report.mahalanobis == pytest.approx(0.0, abs=1e-12)
        assert report.skew_dev == 0.0
        assert report.iad == 0.0
        assert report.iad_raw == 0.0

    def test_metric_subset(self):
        x = np.random.default_rng(19).standard_normal((500, 1))
        report = compute_metrics(x, x, which=("iad",))
        assert report.mahalanobis is None
        assert report.skew_dev is None
        assert report.iad == 0.0

    def test_iad_clamped_in_report(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((500, 1)) * 0.01
        b = rng.standard_normal((500, 1)) * 0.01 + 100.0
        report = compute_metrics(a, b, which=("iad",))
        assert 0.0 <= report.iad <= 1.0
        assert report.iad == min(max(report.iad_raw, 0.0), 1.0)

    def test_unknown_metric_rejected(self):
        x = np.zeros((10, 1))
        with pytest.raises(InvalidInputError):
            compute_metrics(x, x, which=("wasserstein",))

    def test_round_trip_dict(self):
        rng = np.random.default_rng(20)
        a = rng.standard_normal((500, 2))
        b = rng.standard_normal((500, 2))
        report = compute_metrics(a, b)
        from swissmc import MetricReport

        clone = MetricReport.from_dict(report.to_dict())
        assert clone.mahalanobis == report.mahalanobis
        assert clone.iad == report.iad
        np.testing.assert_array_equal(clone.per_dimension_iad, report.per_dimension_iad)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            a = rng.standard_normal((800, d)) @ random_spd(d, rng)
            b = rng.standard_normal((800, d))
            report = compute_metrics(a, b)
            assert report.mahalanobis >= 0
            assert report.skew_dev >= 0
            assert 0 <= report.iad <= 1
