"""Adaptive random-walk Metropolis: correctness, tuning and reproducibility."""

import math

import numpy as np
import pytest

import swissmc.sampler
from swissmc import (
    Chain,
    InvalidInputError,
    NotPositiveDefiniteError,
    SamplerConfig,
    TargetModel,
    make_target,
    partition,
    sample,
    sample_all_batches,
    simulate_rare_feature_data,
)
from swissmc.rng import RngStream
from swissmc.sampler import convention_chains
from swissmc.targets import shard_data
from helpers import WarpedGaussian, block_mean_se


class _UnitGaussian(TargetModel):
    """Standard-normal target; like every target its terms take a (K, d)
    stack of points."""

    name = "unit-gaussian"
    dim = 1

    def log_likelihood(self, theta, data_batch=None):
        t = np.asarray(theta)[..., 0]
        return -0.5 * t * t

    def init_sampler(self, rng):
        return rng.standard_normal(1)


class _StartsAtZero(TargetModel):
    """One-dimensional target whose chains start at 0; subclasses define the
    likelihood."""

    name = "starts-at-zero"
    dim = 1

    def init_sampler(self, rng):
        return np.array([0.0])


class TestSampleBasics:
    def test_standard_normal_moments(self):
        config = SamplerConfig(n_samples=50_000, burn_in=2000, seed=1)
        batch = sample(_UnitGaussian(), None, config)
        draws = batch.draws.ravel()
        se = block_mean_se(draws)
        assert abs(draws.mean()) <= 3 * se
        assert abs(draws.var(ddof=1) - 1.0) < 0.05

    def test_rare_bernoulli_conjugate_mean(self):
        # the target is the Beta(2, 1000) kernel; its mean is 2/1002
        config = SamplerConfig(n_samples=50_000, burn_in=2000, seed=2)
        batch = sample(make_target("rare-bernoulli"), None, config)
        draws = batch.draws.ravel()
        se = block_mean_se(draws)
        assert abs(draws.mean() - 2.0 / 1002.0) <= 3 * se

    def test_warped_gaussian_first_marginal(self):
        # integrating the curved coordinate out leaves a standard normal
        config = SamplerConfig(n_samples=50_000, burn_in=3000, seed=20)
        draws = sample(WarpedGaussian(), None, config).draws
        first = draws[:, 0]
        se = block_mean_se(first)
        assert abs(first.mean()) <= 3 * se
        assert abs(first.var(ddof=1) - 1.0) < 0.08

    def test_bitwise_deterministic(self):
        config = SamplerConfig(n_samples=2000, burn_in=500, seed=3)
        a = sample(WarpedGaussian(), None, config)
        b = sample(WarpedGaussian(), None, config)
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
        batch = sample_all_batches(WarpedGaussian(), [Chain((0.5, 3.0))], config)[0]
        assert batch.meta.inflation_exponent == 3.0
        assert batch.meta.prior_exponent == 0.5
        assert batch.meta.seed == 7
        assert batch.meta.target_name == "warped-gaussian"

    def test_infinite_density_at_init_raises(self):
        config = SamplerConfig(n_samples=10, burn_in=0, seed=9)

        class _Rejecting(_StartsAtZero):
            name = "broken"

            def log_likelihood(self, theta, data_batch=None):
                return np.full(np.shape(theta)[:-1], -math.inf)

        target = _Rejecting()
        with pytest.raises(InvalidInputError, match="not finite"):
            sample(target, None, config)


class TestAdaptation:
    def test_acceptance_near_target(self):
        config = SamplerConfig(n_samples=20_000, burn_in=5000, seed=10)
        batch = sample(WarpedGaussian(), None, config)
        assert 0.1 < batch.diagnostics["acceptance_rate"] < 0.45

    def test_proposal_frozen_after_burn_in(self):
        # d = 1: each step is scale * L * z for the iteration's noise z, so
        # after burn-in every step is one fixed multiple of its noise draw
        burn, n = 2000, 5000
        points = []

        class _Recording(_UnitGaussian):
            def log_likelihood(self, theta, data_batch=None):
                points.append(float(theta[0, 0]))
                return super().log_likelihood(theta, data_batch)

            def init_sampler(self, rng):
                return np.array([0.5])  # draws nothing, so the stream holds only noise

        config = SamplerConfig(n_samples=n, burn_in=burn, seed=11)
        draws = sample(_Recording(), None, config).draws[:, 0]
        rng = RngStream(11, 0).generator()
        noise = []
        for start in range(0, burn + n, 512):  # the sampler's noise blocks
            noise.extend(rng.standard_normal((min(512, burn + n - start), 1))[:, 0])
            rng.random(min(512, burn + n - start))
        z = np.array(noise[burn + 1 :])
        steps = np.array(points[burn + 2 :]) - draws[:-1]  # points[0]: the initial point
        multiple = np.median(steps / z)
        assert multiple > 0
        np.testing.assert_allclose(steps, multiple * z, rtol=0, atol=1e-12)

    def test_adaptation_disabled_keeps_initial_scale(self):
        # without burn-in nothing adapts the proposal: the scale stays 2.38/sqrt(d)
        config = SamplerConfig(n_samples=500, burn_in=0, seed=12)
        batch = sample(_UnitGaussian(), None, config)
        assert batch.diagnostics["scale_at_freeze"] == pytest.approx(2.38)

    def test_tuning_failure_warning(self):
        # the initial scale 2.38 is about 1e9 standard deviations of this
        # target, so nearly every move is rejected; 300 burn-in steps toward
        # 0.44 shrink the scale only about 2e4-fold

        class _NarrowGaussian(TargetModel):
            name = "narrow-gaussian"
            dim = 1

            def log_likelihood(self, theta, data_batch=None):
                t = np.asarray(theta)[..., 0] / 2.38e-9
                return -0.5 * t * t

            def init_sampler(self, rng):
                return 2.38e-9 * rng.standard_normal(1)

        config = SamplerConfig(n_samples=200, burn_in=300, seed=13)
        batch = sample(_NarrowGaussian(), None, config)
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
                # outside (0, 1) this is NaN or -inf, which log_density maps to -inf
                t = np.asarray(theta)[..., 0]
                return np.log(t) + 7.0 * np.log1p(-t)

            def init_sampler(self, rng):
                return np.array([0.2])

        target = _BetaKernel()
        config = SamplerConfig(n_samples=500_000, burn_in=2000, seed=14)
        draws = sample(target, None, config).draws.ravel()

        edges = np.linspace(0.0, 1.0, 41)
        centers = (edges[:-1] + edges[1:]) / 2
        density = centers * (1 - centers) ** 7
        cell = density / density.sum()
        observed = np.histogram(draws, bins=edges)[0] / draws.size
        assert 0.5 * np.abs(observed - cell).sum() < 0.02


def _same_chain(a, b) -> bool:
    return (
        a.batch_id == b.batch_id
        and a.meta == b.meta
        and np.array_equal(a.draws, b.draws)
        and a.diagnostics == b.diagnostics
    )


class TestSampleAllBatches:
    def test_single_batch_equals_direct_call(self):
        config = SamplerConfig(n_samples=400, burn_in=100, seed=15)
        target = WarpedGaussian()
        direct = sample(target, None, config)
        batched = sample_all_batches(target, [Chain()], config)
        assert np.array_equal(direct.draws, batched[0].draws)

    @pytest.mark.parametrize(
        "target", [WarpedGaussian(), make_target("rare-bernoulli")], ids=lambda t: t.name
    )
    def test_data_free_chains_match_in_any_group_order(self, target):
        # 600 burn-in steps cross a 512-step noise block and refresh the
        # proposal covariance; the retained steps come from whole blocks
        config = SamplerConfig(n_samples=700, burn_in=600, seed=16)
        chains = [Chain(batch_id=b, stream_id=3 * b + 1) for b in range(5)]
        forward = sample_all_batches(target, chains, config)
        backward = sample_all_batches(target, chains[::-1], config)[::-1]
        for chain, a, b in zip(chains, forward, backward):
            alone = sample_all_batches(target, [chain], config)[0]
            assert _same_chain(a, b) and _same_chain(a, alone)

    def test_identical_targets_agree_across_batches(self):
        config = SamplerConfig(n_samples=20_000, burn_in=2000, seed=17)
        batches = sample_all_batches(
            _UnitGaussian(), [Chain(batch_id=b) for b in range(4)], config
        )
        means = [b.draws.mean() for b in batches]
        ses = [block_mean_se(b.draws.ravel()) for b in batches]
        spread = 3 * math.sqrt(2) * max(ses)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(means[i] - means[j]) <= spread

    def test_stream_offset_changes_streams(self):
        config = SamplerConfig(n_samples=200, burn_in=50, seed=18)
        target = WarpedGaussian()
        plain = sample_all_batches(target, [Chain()], config)
        offset = sample_all_batches(target, [Chain(stream_id=5)], config)
        assert not np.array_equal(plain[0].draws, offset[0].draws)

    def test_batch_error_carries_batch_id(self):
        class _SecondBatchFails(_StartsAtZero):
            name = "partial"

            def log_likelihood(self, theta, data_batch=None):
                # stacked points come with the list of per-chain data
                return np.array([-math.inf if data == "bad" else 0.0 for data in data_batch])

        target = _SecondBatchFails()
        config = SamplerConfig(n_samples=10, burn_in=0, seed=19)
        with pytest.raises(InvalidInputError, match="batch 1"):
            sample_all_batches(target, [Chain(data="good"), Chain(data="bad", batch_id=1)], config)


class TestLockstep:
    def test_each_chain_alone_matches_the_criterion_8_group(self):
        # criterion 8's layout at a smaller size: the full-data chain, five
        # inflated and five un-inflated shard chains, MLE starts
        data = simulate_rare_feature_data(20_000, seed=5)
        base = make_target("logistic-rare", dataset=data)
        shards = shard_data(data, partition(data, 5, seed=6))
        inflated = base.convention_powers("inflated", 5)
        subpost = base.convention_powers("subposterior", 5)
        chains = (
            [Chain(batch_id=0, stream_id=5)]
            + [Chain(inflated, shard, b, b) for b, shard in enumerate(shards)]
            + [Chain(subpost, shard, b, 6 + b) for b, shard in enumerate(shards)]
        )
        config = SamplerConfig(n_samples=400, burn_in=600, thin=2, init="mle", seed=7)
        group = sample_all_batches(base, chains, config)
        for chain, batch in zip(chains, group):
            alone = sample_all_batches(base, [chain], config)[0]
            assert _same_chain(batch, alone)
        assert len({batch.diagnostics["acceptance_rate"] for batch in group}) > 1

    def test_non_positive_definite_proposal_names_its_batch(self, monkeypatch):
        class _Scaled(_StartsAtZero):
            """N(0, scale^2) with a per-chain scale as its data."""

            name = "scaled"

            def log_likelihood(self, theta, data_batch=None):
                scales = np.asarray(data_batch, dtype=float)
                return -0.5 * (np.asarray(theta)[..., 0] / scales) ** 2

        # a negative regularizer leaves only the wide chain's covariance positive
        monkeypatch.setattr(swissmc.sampler, "_COV_JITTER", -1e-2)
        config = SamplerConfig(n_samples=10, burn_in=100, seed=21)
        chains = [Chain(data=1.0), Chain(data=1e-3, batch_id=3), Chain(data=1.0, batch_id=4)]
        with pytest.raises(NotPositiveDefiniteError, match="^batch 3: Cholesky"):
            sample_all_batches(_Scaled(), chains, config)


class TestConventionChains:
    def test_streams_labels_exponents_and_data(self):
        data = simulate_rare_feature_data(300, seed=23)
        base = make_target("logistic-rare", dataset=data)
        shards = shard_data(data, partition(data, 3, seed=24))

        def layout(convention):
            return [
                (c.batch_id, c.stream_id, c.label, *c.powers, c.data)
                for c in convention_chains(base, convention, shards)
            ]

        assert layout("full") == [(0, 3, "full-data chain", 1.0, 1.0, None)]
        assert layout("inflated") == [
            (b, b, f"inflated batch {b}", 1.0, 3.0, shards[b]) for b in range(3)
        ]
        assert layout("subposterior") == [
            (b, 4 + b, f"un-inflated batch {b}", 1.0 / 3.0, 1.0, shards[b]) for b in range(3)
        ]


class TestSamplerConfigValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(InvalidInputError):
            SamplerConfig(n_samples=0)
        with pytest.raises(InvalidInputError, match="n_samples must be >= 2"):
            SamplerConfig(n_samples=1)  # a SampleBatch needs two draws
        with pytest.raises(InvalidInputError):
            SamplerConfig(n_samples=10, burn_in=-1)
        with pytest.raises(InvalidInputError):
            SamplerConfig(n_samples=10, thin=0)
        with pytest.raises(InvalidInputError, match="n_samples must be an integer"):
            SamplerConfig(n_samples=2.5)
        with pytest.raises(InvalidInputError, match="seed must be an integer"):
            SamplerConfig(n_samples=10, seed="x")
        with pytest.raises(InvalidInputError, match="burn_in must be an integer"):
            SamplerConfig(n_samples=10, burn_in=True)

    @pytest.mark.parametrize(
        "init",
        ["bogus", "", [], [1.0, math.nan], [[1.0], ["x"]], None, True, [True, False], [1.0, True]],
    )
    def test_rejects_bad_init(self, init):
        with pytest.raises(InvalidInputError, match="init must be one of"):
            SamplerConfig(n_samples=10, init=init)

    @pytest.mark.parametrize(
        "settings, message",
        [
            (dict(n_samples=2), "n_samples must be >= 3"),
            (dict(n_samples=10, init="mle"), "needs an ML-estimate hook"),
        ],
    )
    def test_sample_refuses_a_config_its_target_cannot_run(self, settings, message):
        # sample checks the config against the target, as the CLI and harness do
        with pytest.raises(InvalidInputError, match=message):
            sample(WarpedGaussian(), None, SamplerConfig(**settings))
