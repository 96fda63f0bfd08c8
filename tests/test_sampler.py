"""Adaptive random-walk Metropolis: correctness, tuning and reproducibility."""

import math

import numpy as np
import pytest

import swissmc.sampler
from swissmc import (
    Chain,
    ConvergenceError,
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
from swissmc.sampler import convention_chains, convention_streams
from swissmc.targets import CONVENTIONS, LogisticRegression, shard_data
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


class _CorrelatedGaussian(TargetModel):
    """Zero-mean Gaussian target in three dimensions with correlated,
    unequally scaled coordinates."""

    name = "correlated-gaussian"
    dim = 3
    _PRECISION = np.linalg.inv([[1.0, 0.6, 0.2], [0.6, 2.0, -0.5], [0.2, -0.5, 0.5]])

    def log_likelihood(self, theta, data_batch=None):
        t = np.asarray(theta)
        return -0.5 * np.sum(t * (t @ self._PRECISION), axis=-1)


def _post_burn_in_steps(target_class, burn, n, seed):
    """Run one chain on ``target_class`` from 0.5 in every coordinate and
    return each post-burn-in step but the first (the proposal minus the
    chain's state) and the noise draw of its iteration, as (n - 1, d)."""
    points = []

    class _Recording(target_class):
        def log_likelihood(self, theta, data_batch=None):
            points.append(np.array(theta[0]))
            return super().log_likelihood(theta, data_batch)

        def init_sampler(self, rng):
            return np.full(self.dim, 0.5)  # draws nothing, so the stream holds only noise

    config = SamplerConfig(n_samples=n, burn_in=burn, seed=seed)
    draws = sample(_Recording(), None, config).draws
    rng = RngStream(seed, 0).generator()
    noise = []
    for start in range(0, burn + n, 512):  # the sampler's noise blocks
        noise.append(rng.standard_normal((min(512, burn + n - start), draws.shape[1])))
        rng.random(min(512, burn + n - start))
    z = np.concatenate(noise)[burn + 1 :]
    steps = np.array(points[burn + 2 :]) - draws[:-1]  # points[0]: the initial point
    return steps, z


def _recounted_acceptance(burn, thin, n, seed, streams):
    """Run unit-Gaussian chains (one per stream) from 0.5 in lockstep and
    recount each chain's accepted proposals by replaying the Metropolis test
    on the recorded densities and the uniforms of its stream.  Returns the
    batches and each chain's (burn-in, post-burn-in) count."""
    values = []

    class _Recording(_UnitGaussian):
        def log_likelihood(self, theta, data_batch=None):
            value = super().log_likelihood(theta, data_batch)
            values.append(np.array(value))  # at exponents (1, 1) the log-density
            return value

        def init_sampler(self, rng):
            return np.array([0.5])  # draws nothing, so the stream holds only noise

    config = SamplerConfig(n_samples=n, burn_in=burn, thin=thin, seed=seed)
    chains = [Chain(batch_id=b, stream_id=stream) for b, stream in enumerate(streams)]
    batches = sample_all_batches(_Recording(), chains, config)
    total = burn + n * thin
    counts = []
    for i, stream in enumerate(streams):
        rng = RngStream(seed, stream).generator()
        log_u = []
        for start in range(0, total, 512):  # the sampler's noise blocks
            rng.standard_normal((min(512, total - start), 1))
            log_u.append(np.log(rng.random(min(512, total - start))))
        log_u = np.concatenate(log_u)
        logp, accepted = values[0][i], []  # values[0]: the initial points
        for it in range(total):
            accepted.append(bool(log_u[it] < values[it + 1][i] - logp))
            if accepted[-1]:
                logp = values[it + 1][i]
        counts.append((sum(accepted[:burn]), sum(accepted[burn:])))
    return batches, counts


def _reference_unit_gaussian_chain(burn, n, thin, seed):
    """One unit-Gaussian chain run iteration by iteration, as the module
    docstring describes it, on the noise of stream 0 (the start draw, then
    blocks of 512 normals and 512 uniforms).  At d = 1 a step is
    scale * L * z, and L = sqrt(running variance + 1e-6) is refreshed after
    every 25th burn-in iteration past the 20th.  Returns the retained draws
    and the three numeric diagnostics."""
    target = _UnitGaussian()
    rng = RngStream(seed, 0).generator()
    x = target.init_sampler(rng)[None]  # the (1, 1) stack of one chain
    total = burn + n * thin
    z, log_u = [], []
    for start in range(0, total, 512):
        size = min(512, total - start)
        z.append(rng.standard_normal(size))
        log_u.append(np.log(rng.random(size)))
    z, log_u = np.concatenate(z), np.concatenate(log_u)
    logp = target.log_density(x)
    log_scale = np.array([math.log(2.38)])
    chol, mean, m2 = 1.0, np.zeros(1), np.zeros(1)
    accepted, draws = [0, 0], []
    for it in range(total):
        proposal = x + np.exp(log_scale) * (chol * z[it])
        logp_prop = target.log_density(proposal)
        log_alpha = logp_prop - logp
        accept = bool(log_u[it] < log_alpha[0])
        accepted[it >= burn] += accept
        if accept:
            x, logp = proposal, logp_prop
        if it < burn:
            alpha = np.where(np.isfinite(log_alpha), np.exp(np.minimum(0.0, log_alpha)), 0.0)
            log_scale += (it + 1) ** -0.6 * (alpha - 0.44)
            delta = x[0] - mean
            mean += delta / (it + 1)
            m2 += delta * (x[0] - mean)
            if it + 1 > 20 and (it + 1) % 25 == 0:
                chol = math.sqrt(m2[0] / it + 1e-6)
        elif (it - burn + 1) % thin == 0:
            draws.append(x[0])
    diagnostics = (
        accepted[1] / (n * thin),
        accepted[0] / burn if burn else None,
        float(np.exp(log_scale)[0]),
    )
    return np.array(draws), diagnostics


class TestAdaptation:
    @pytest.mark.parametrize("thin", [1, 3])
    @pytest.mark.parametrize("burn", [0, 1, 24, 25, 26, 511, 512, 513, 1037])
    def test_chain_equals_an_iteration_by_iteration_reference(self, burn, thin):
        # the freeze on, next to and off the 25-step refresh grid and the
        # 512-step noise blocks, and refreshes in a second block: draws and
        # diagnostics agree bit for bit
        config = SamplerConfig(n_samples=150, burn_in=burn, thin=thin, seed=8)
        batch = sample(_UnitGaussian(), None, config)
        draws, (rate, burn_rate, scale) = _reference_unit_gaussian_chain(burn, 150, thin, 8)
        assert np.array_equal(batch.draws, draws)
        assert batch.diagnostics["acceptance_rate"] == rate
        assert batch.diagnostics["burn_in_acceptance"] == burn_rate
        assert batch.diagnostics["scale_at_freeze"] == scale

    @pytest.mark.parametrize("thin", [1, 3])
    @pytest.mark.parametrize("burn", [0, 1, 25, 511, 512, 513, 1037])
    def test_acceptance_counts_match_a_recount(self, burn, thin):
        # burn-in ending on, next to and off the 512-iteration noise blocks
        n = 300
        batches, counts = _recounted_acceptance(burn, thin, n, seed=9, streams=[0, 4])
        for batch, (burn_count, post_count) in zip(batches, counts):
            assert 0 < post_count < n * thin
            assert batch.diagnostics["acceptance_rate"] == post_count / (n * thin)
            expected = burn_count / burn if burn else None
            assert batch.diagnostics["burn_in_acceptance"] == expected

    def test_acceptance_near_target(self):
        config = SamplerConfig(n_samples=20_000, burn_in=5000, seed=10)
        batch = sample(WarpedGaussian(), None, config)
        assert 0.1 < batch.diagnostics["acceptance_rate"] < 0.45

    def test_proposal_frozen_after_burn_in(self):
        # d = 1: each step is scale * L * z for the iteration's noise z, so
        # after burn-in every step is one fixed multiple of its noise draw
        steps, z = _post_burn_in_steps(_UnitGaussian, burn=2000, n=5000, seed=11)
        multiple = np.median(steps / z)
        assert multiple > 0
        np.testing.assert_allclose(steps, multiple * z, rtol=0, atol=1e-12)
        # d = 3, burn-in off the 25-iteration refresh grid and ending partway
        # through a noise block: every step is M z for one matrix M (scale * L),
        # so a step taken with the L of an earlier refresh does not fit
        steps, z = _post_burn_in_steps(_CorrelatedGaussian, burn=1037, n=3000, seed=11)
        m = np.linalg.lstsq(z, steps, rcond=None)[0]
        np.testing.assert_allclose(steps, z @ m, rtol=0, atol=1e-12)

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

    @pytest.mark.parametrize("thin", [1, 3])
    @pytest.mark.parametrize("burn", [0, 1, 24, 25, 26, 511, 512, 513])
    @pytest.mark.parametrize(
        "target", [WarpedGaussian(), make_target("rare-bernoulli")], ids=lambda t: t.name
    )
    def test_data_free_chains_match_in_any_group_order(self, target, burn, thin):
        # the freeze on, next to and off the 25-step grid of proposal
        # refreshes and the 512-step noise blocks
        config = SamplerConfig(n_samples=150, burn_in=burn, thin=thin, seed=16)
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


class TestInitialPoints:
    @staticmethod
    def _criterion_8_group(fails_on=None):
        """A counting logistic target and criterion 8's chains on it: the
        full-data chain, then five inflated and five un-inflated shard
        chains, which share each shard's data object.  Its ML estimate fails
        on the data ``fails_on``."""
        data = simulate_rare_feature_data(2000, seed=5)
        shards = shard_data(data, partition(data, 5, seed=6))
        solved = []

        class _Counting(LogisticRegression):
            def mle(self, data_batch=None):
                solved.append(data_batch)
                if fails_on is not None and data_batch is shards[fails_on]:
                    raise ConvergenceError("ML estimate did not converge")
                return super().mle(data_batch)

        base = _Counting(make_target("logistic-rare", dataset=data).data)
        chains = []
        for convention in ("full", "inflated", "subposterior"):
            chains += convention_chains(base, convention, shards)
        return base, chains, shards, solved

    def test_one_ml_start_per_data_object(self):
        base, chains, shards, solved = self._criterion_8_group()
        config = SamplerConfig(n_samples=20, burn_in=10, init="mle", seed=7)
        group = sample_all_batches(base, chains, config)
        assert len(chains) == 11
        assert len(solved) == 6
        assert solved[0] is None and all(a is b for a, b in zip(solved[1:], shards))
        for chain, batch in zip(chains, group):
            assert _same_chain(batch, sample_all_batches(base, [chain], config)[0])

    def test_failing_ml_start_names_the_first_chain_on_its_data(self):
        base, chains, _, _ = self._criterion_8_group(fails_on=2)
        config = SamplerConfig(n_samples=20, burn_in=10, init="mle", seed=7)
        with pytest.raises(ConvergenceError, match="^inflated batch 2: ML estimate"):
            sample_all_batches(base, chains, config)


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


    @pytest.mark.parametrize("n_batches", [1, 2, 5])
    def test_streams_tile_up_to_the_first_free_id(self, n_batches):
        # every chain of the three conventions on its own id, 0 .. 2B, and
        # 2B + 1 (the oracle's stream) is the stop of the un-inflated range
        ids = [s for c in CONVENTIONS for s in convention_streams(c, n_batches)]
        assert sorted(ids) == list(range(2 * n_batches + 1))
        assert convention_streams("subposterior", n_batches).stop == 2 * n_batches + 1


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

    def test_prior_draw_needs_an_init_sampler(self):
        class _NoInitSampler(TargetModel):
            name = "no-init-sampler"
            dim = 1

            def log_likelihood(self, theta, data_batch=None):
                return np.zeros(np.shape(theta)[:-1])

        with pytest.raises(
            InvalidInputError,
            match="^init 'prior-draw' needs an init-sampler hook; target 'no-init-sampler' has none$",
        ):
            sample(_NoInitSampler(), None, SamplerConfig(n_samples=10))

    def test_initial_point_of_the_wrong_length_names_its_chain(self):
        class _TwoPointStart(_UnitGaussian):
            name = "two-point-start"

            def init_sampler(self, rng):
                return np.zeros(2)

        with pytest.raises(
            InvalidInputError,
            match="^batch 3: initial point has length 2, target dimension is 1$",
        ):
            sample_all_batches(_TwoPointStart(), [Chain(batch_id=3)], SamplerConfig(n_samples=10))

    def test_no_chains_give_no_batches(self):
        assert sample_all_batches(WarpedGaussian(), [], SamplerConfig(n_samples=10)) == []
