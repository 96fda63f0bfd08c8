"""Adaptive random-walk Metropolis: correctness, tuning and reproducibility."""

import math

import numpy as np
import pytest

from swissmc import (
    InvalidInputError,
    SamplerConfig,
    TargetModel,
    make_target,
    sample,
    sample_all_batches,
)
from helpers import block_mean_se


class _UnitGaussian(TargetModel):
    """Standard-normal target, defined at module level so it pickles."""

    name = "unit-gaussian"
    dim = 1

    def log_likelihood(self, theta, data_batch=None):
        t = float(np.asarray(theta).ravel()[0])
        return -0.5 * t * t

    def init_sampler(self, rng):
        return rng.standard_normal(1)


class TestSampleBasics:
    def test_standard_normal_moments(self):
        config = SamplerConfig(n_samples=50_000, burn_in=2000, seed=1, target_accept=0.44)
        batch = sample(_UnitGaussian(), None, config)
        draws = batch.draws.ravel()
        se = block_mean_se(draws)
        assert abs(draws.mean()) <= 3 * se
        assert abs(draws.var(ddof=1) - 1.0) < 0.05

    def test_rare_bernoulli_conjugate_mean(self):
        # the target is the Beta(2, 1000) kernel; its mean is 2/1002
        config = SamplerConfig(n_samples=50_000, burn_in=2000, seed=2, target_accept=0.44)
        batch = sample(make_target("rare-bernoulli"), None, config)
        draws = batch.draws.ravel()
        se = block_mean_se(draws)
        assert abs(draws.mean() - 2.0 / 1002.0) <= 3 * se

    def test_warped_gaussian_first_marginal(self):
        # integrating the curved coordinate out leaves a standard normal
        config = SamplerConfig(n_samples=50_000, burn_in=3000, seed=20)
        draws = sample(make_target("warped-gaussian"), None, config).draws
        first = draws[:, 0]
        se = block_mean_se(first)
        assert abs(first.mean()) <= 3 * se
        assert abs(first.var(ddof=1) - 1.0) < 0.08

    def test_bitwise_deterministic(self):
        config = SamplerConfig(n_samples=2000, burn_in=500, seed=3)
        a = sample(make_target("warped-gaussian"), None, config)
        b = sample(make_target("warped-gaussian"), None, config)
        assert np.array_equal(a.draws, b.draws)
        assert a.diagnostics == b.diagnostics

    def test_seed_changes_draws(self):
        base = SamplerConfig(n_samples=500, burn_in=100, seed=4)
        other = SamplerConfig(n_samples=500, burn_in=100, seed=5)
        a = sample(_UnitGaussian(), None, base)
        b = sample(_UnitGaussian(), None, other)
        assert not np.array_equal(a.draws, b.draws)

    def test_thinning_returns_requested_draws(self):
        config = SamplerConfig(n_samples=300, burn_in=50, thin=5, seed=6)
        batch = sample(_UnitGaussian(), None, config)
        assert batch.draws.shape == (300, 1)

    def test_metadata_reflects_target(self):
        config = SamplerConfig(n_samples=100, burn_in=10, seed=7)
        model = make_target("warped-gaussian").with_powers(0.5, 3.0)
        batch = sample(model, None, config)
        assert batch.meta.inflation_exponent == 3.0
        assert batch.meta.prior_exponent == 0.5
        assert batch.meta.seed == 7
        assert batch.meta.target_name == "warped-gaussian"

    def test_explicit_vector_init(self):
        config = SamplerConfig(n_samples=100, burn_in=0, seed=8, init=np.array([0.2, 0.1]))
        batch = sample(make_target("warped-gaussian"), None, config)
        assert batch.draws.shape == (100, 2)

    def test_infinite_density_at_init_raises(self):
        config = SamplerConfig(n_samples=10, burn_in=0, seed=9, init=np.array([0.0]))

        class _Rejecting(TargetModel):
            name = "broken"
            dim = 1

            def log_likelihood(self, theta, data_batch=None):
                return -math.inf

        target = _Rejecting()
        with pytest.raises(InvalidInputError, match="not finite"):
            sample(target, None, config)


class TestAdaptation:
    def test_acceptance_near_target(self):
        config = SamplerConfig(n_samples=20_000, burn_in=5000, seed=10)
        batch = sample(make_target("warped-gaussian"), None, config)
        assert 0.1 < batch.diagnostics["acceptance_rate"] < 0.45

    def test_proposal_frozen_after_burn_in(self):
        config = SamplerConfig(n_samples=5000, burn_in=2000, seed=11)
        batch = sample(_UnitGaussian(), None, config)
        assert batch.diagnostics["final_scale"] == batch.diagnostics["scale_at_freeze"]

    def test_adaptation_disabled_keeps_initial_scale(self):
        # without burn-in nothing adapts the proposal
        config = SamplerConfig(n_samples=500, burn_in=0, seed=12, proposal_scale=0.7)
        batch = sample(_UnitGaussian(), None, config)
        assert batch.diagnostics["final_scale"] == pytest.approx(0.7)

    def test_tuning_failure_warning(self):
        # a proposal scale of 1e6 on a unit-scale target rejects nearly every
        # move; 300 burn-in steps of adaptation shrink it only about 180-fold
        config = SamplerConfig(n_samples=200, burn_in=300, seed=13, proposal_scale=1e6)
        batch = sample(_UnitGaussian(), None, config)
        warnings = batch.diagnostics["warnings"]
        assert any("tuning-failure" in w for w in warnings)


class TestDetailedBalance:
    def test_long_run_histogram_matches_density(self):
        # skewed 1-D target on the unit interval (Beta(2, 8) kernel),
        # discretized; total-variation gap of the histogram < 0.02

        class _BetaKernel(TargetModel):
            name = "beta-kernel"
            dim = 1

            def log_likelihood(self, theta, data_batch=None):
                t = float(np.asarray(theta).ravel()[0])
                if not 0.0 < t < 1.0:
                    return -math.inf
                return math.log(t) + 7.0 * math.log1p(-t)

        target = _BetaKernel()
        config = SamplerConfig(
            n_samples=500_000, burn_in=2000, seed=14, target_accept=0.44, init=np.array([0.2])
        )
        draws = sample(target, None, config).draws.ravel()

        edges = np.linspace(0.0, 1.0, 41)
        centers = (edges[:-1] + edges[1:]) / 2
        density = centers * (1 - centers) ** 7
        cell = density / density.sum()
        observed = np.histogram(draws, bins=edges)[0] / draws.size
        assert 0.5 * np.abs(observed - cell).sum() < 0.02


class TestSampleAllBatches:
    def test_single_batch_equals_direct_call(self):
        config = SamplerConfig(n_samples=400, burn_in=100, seed=15)
        target = make_target("warped-gaussian")
        direct = sample(target, None, config, batch_id=0, stream_id=0)
        batched = sample_all_batches(target, [None], config)
        assert np.array_equal(direct.draws, batched[0].draws)

    def test_serial_matches_parallel(self):
        config = SamplerConfig(n_samples=300, burn_in=100, seed=16)
        target = make_target("warped-gaussian")
        serial = sample_all_batches(target, [None] * 4, config, workers=1)
        parallel = sample_all_batches(target, [None] * 4, config, workers=2)
        for a, b in zip(serial, parallel):
            assert a.batch_id == b.batch_id
            assert np.array_equal(a.draws, b.draws)

    def test_identical_targets_agree_across_batches(self):
        config = SamplerConfig(n_samples=20_000, burn_in=2000, seed=17, target_accept=0.44)
        batches = sample_all_batches(_UnitGaussian(), [None] * 4, config)
        means = [b.draws.mean() for b in batches]
        ses = [block_mean_se(b.draws.ravel()) for b in batches]
        spread = 3 * math.sqrt(2) * max(ses)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(means[i] - means[j]) <= spread

    def test_stream_offset_changes_streams(self):
        config = SamplerConfig(n_samples=200, burn_in=50, seed=18)
        target = make_target("warped-gaussian")
        plain = sample_all_batches(target, [None], config)
        offset = sample_all_batches(target, [None], config, stream_offset=5)
        assert not np.array_equal(plain[0].draws, offset[0].draws)

    def test_batch_error_carries_batch_id(self):
        class _SecondBatchFails(TargetModel):
            name = "partial"
            dim = 1

            def log_likelihood(self, theta, data_batch=None):
                return -math.inf if data_batch == "bad" else 0.0

        target = _SecondBatchFails()
        config = SamplerConfig(n_samples=10, burn_in=0, seed=19, init=np.array([0.0]))
        with pytest.raises(InvalidInputError, match="batch 1"):
            sample_all_batches(target, ["good", "bad"], config)


class TestSamplerConfigValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(InvalidInputError):
            SamplerConfig(n_samples=0)
        with pytest.raises(InvalidInputError):
            SamplerConfig(n_samples=10, burn_in=-1)
        with pytest.raises(InvalidInputError):
            SamplerConfig(n_samples=10, thin=0)
        with pytest.raises(InvalidInputError):
            SamplerConfig(n_samples=10, proposal_scale=0.0)
        with pytest.raises(InvalidInputError):
            SamplerConfig(n_samples=10, target_accept=1.5)
