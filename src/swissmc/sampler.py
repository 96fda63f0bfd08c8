"""Seeded adaptive random-walk Metropolis sampling.

One chain per batch, each owning its own RngStream keyed by
(config.seed, stream_id), so results are reproducible bit for bit and do not
depend on how many chains run at once.

Proposals are Gaussian with covariance scale^2 * Sigma_hat.  During burn-in
the scalar scale follows a Robbins-Monro recursion toward the target
acceptance rate and Sigma_hat tracks the running sample covariance
(regularized by +1e-6 I); both freeze when burn-in ends, so the retained
chain is Markov.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SwissError
from .linalg import cholesky, symmetrize
from .moments import BatchMeta, SampleBatch
from .rng import RngStream
from .targets import TargetModel

# Proposal covariance regularizer, the iteration block size used when
# pre-generating proposal noise, and how many burn-in iterations pass
# between refreshes of the proposal covariance.
_COV_JITTER = 1e-6
_BLOCK = 512
_COV_UPDATE_INTERVAL = 25

# Burn-in acceptance below this rate is flagged as a tuning failure.
_TUNING_FLOOR = 0.01


@dataclass(frozen=True)
class SamplerConfig:
    """Chain length and tuning knobs for one random-walk Metropolis run."""

    n_samples: int
    burn_in: int = 1000
    thin: int = 1
    init: object = "prior-draw"  # length-d vector, "prior-draw" or "mle"
    proposal_scale: float | None = None  # default 2.38 / sqrt(dim)
    target_accept: float = 0.234
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise InvalidInputError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.burn_in < 0:
            raise InvalidInputError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.thin < 1:
            raise InvalidInputError(f"thin must be >= 1, got {self.thin}")
        if self.proposal_scale is not None and self.proposal_scale <= 0:
            raise InvalidInputError("proposal_scale must be positive")
        if not 0.0 < self.target_accept < 1.0:
            raise InvalidInputError("target_accept must lie in (0, 1)")


def _initial_point(target: TargetModel, data_batch, config: SamplerConfig, rng) -> np.ndarray:
    init = config.init
    if isinstance(init, str):
        if init == "prior-draw":
            if target.init_sampler is None:
                raise InvalidInputError(
                    f"target {target.name!r} has no init sampler; pass an explicit vector"
                )
            point = np.asarray(target.init_sampler(rng), dtype=float).ravel()
        elif init == "mle":
            if target.mle is None:
                raise InvalidInputError(f"target {target.name!r} has no ML-estimate hook")
            point = np.asarray(target.mle(data_batch), dtype=float).ravel()
        else:
            raise InvalidInputError(f"unknown init mode {init!r}")
    else:
        point = np.asarray(init, dtype=float).ravel()
    if point.size != target.dim:
        raise InvalidInputError(
            f"initial point has length {point.size}, target dimension is {target.dim}"
        )
    return point


def sample(
    target: TargetModel,
    data_batch,
    config: SamplerConfig,
    *,
    batch_id: int = 0,
    stream_id: int | None = None,
) -> SampleBatch:
    """Run one chain and return its post-burn-in, thinned draws.

    Draws are reported on the target's reported scale; the chain itself runs
    on the sampling scale.  Diagnostics carry the post-burn-in acceptance
    rate, the frozen proposal scale and any tuning warnings.
    """
    d = target.dim
    rng = RngStream(config.seed, batch_id if stream_id is None else stream_id).generator()
    x = _initial_point(target, data_batch, config, rng)
    logp = target.log_density(x, data_batch)
    if not math.isfinite(logp):
        raise InvalidInputError(
            f"log-density is not finite at the initial point {x.tolist()}"
        )

    log_scale = math.log(config.proposal_scale if config.proposal_scale is not None else 2.38 / math.sqrt(d))
    shape_chol = np.eye(d)
    scaled_chol = math.exp(log_scale) * shape_chol

    # Welford accumulators for the running covariance of the burn-in draws.
    run_mean = np.zeros(d)
    run_m2 = np.zeros((d, d))

    burn = config.burn_in
    post_iters = config.n_samples * config.thin
    total_iters = burn + post_iters
    draws = np.empty((config.n_samples, d))
    kept = 0
    accepted_burn = 0
    accepted_post = 0
    warnings: list[str] = []
    scale_at_freeze = math.exp(log_scale)

    noise = np.empty((0, d))
    uniforms = np.empty(0)
    cursor = 0
    for it in range(total_iters):
        if cursor >= uniforms.size:
            block = min(_BLOCK, total_iters - it)
            noise = rng.standard_normal((block, d))
            uniforms = rng.random(block)
            cursor = 0
        z = noise[cursor]
        u = uniforms[cursor]
        cursor += 1

        proposal = x + scaled_chol @ z
        logp_prop = target.log_density(proposal, data_batch)
        log_alpha = logp_prop - logp
        accept = (math.log(u) if u > 0.0 else -math.inf) < log_alpha
        if accept:
            x = proposal
            logp = logp_prop

        if it < burn:
            accepted_burn += accept
            alpha = math.exp(min(0.0, log_alpha)) if math.isfinite(log_alpha) else 0.0
            log_scale += (it + 1) ** -0.6 * (alpha - config.target_accept)
            run_n = it + 1
            delta = x - run_mean
            run_mean += delta / run_n
            run_m2 += np.outer(delta, x - run_mean)
            if run_n > max(20, 2 * d) and run_n % _COV_UPDATE_INTERVAL == 0:
                cov = run_m2 / (run_n - 1) + _COV_JITTER * np.eye(d)
                shape_chol = cholesky(symmetrize(cov))
            scaled_chol = math.exp(log_scale) * shape_chol
            if it == burn - 1:
                # Freeze: nothing past this point touches the proposal.
                scale_at_freeze = math.exp(log_scale)
                if burn > 0 and accepted_burn / burn < _TUNING_FLOOR:
                    warnings.append(
                        f"tuning-failure: burn-in acceptance rate "
                        f"{accepted_burn / burn:.4f} below {_TUNING_FLOOR}"
                    )
        else:
            accepted_post += accept
            if (it - burn + 1) % config.thin == 0:
                draws[kept] = x
                kept += 1

    diagnostics = {
        "acceptance_rate": accepted_post / post_iters,
        "burn_in_acceptance": (accepted_burn / burn) if burn else None,
        "final_scale": math.exp(log_scale),
        "scale_at_freeze": scale_at_freeze,
        "warnings": warnings,
    }
    meta = BatchMeta(
        inflation_exponent=target.likelihood_power,
        prior_exponent=target.prior_power,
        seed=config.seed,
        target_name=target.name,
    )
    return SampleBatch(batch_id, target.report(draws), meta=meta, diagnostics=diagnostics)


def _sample_one(target, data_batch, config, batch_id, stream_id):
    try:
        return sample(target, data_batch, config, batch_id=batch_id, stream_id=stream_id)
    except SwissError as err:
        raise type(err)(f"batch {batch_id}: {err}") from err


def sample_all_batches(
    target: TargetModel,
    batch_data: list,
    config: SamplerConfig,
    *,
    workers: int = 1,
    stream_offset: int = 0,
) -> list[SampleBatch]:
    """Run one independent chain per batch, stream_id = stream_offset + batch_id.

    Results come back ordered by batch id and are identical whether the
    chains run serially or across worker processes.
    """
    jobs = [(b, data) for b, data in enumerate(batch_data)]
    if workers <= 1 or len(jobs) <= 1:
        return [_sample_one(target, data, config, b, stream_offset + b) for b, data in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_sample_one, target, data, config, b, stream_offset + b)
            for b, data in jobs
        ]
        return [future.result() for future in futures]
