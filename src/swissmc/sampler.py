"""Seeded adaptive random-walk Metropolis sampling, every chain in lockstep.

A group of K chains advances together: each iteration proposes, evaluates
and accepts for all K at once as (K, d) arrays, with one stacked
``log_density`` call.  The chains of a group share one target model and one
SamplerConfig; each chain brings its own (prior, likelihood) exponent pair
and its own batch data.  A single chain is the K = 1 case.

Each chain owns its own RngStream keyed by (config.seed, stream_id) and
draws its proposal noise from it in blocks of 512 iterations, and every
per-chain quantity (proposal, log-density, acceptance, adaptation) is
computed from that chain's values alone in a fixed order.  A chain's draws
and diagnostics are therefore bit-identical whether it runs alone or in any
group, in any position.

Proposals are Gaussian with covariance scale^2 * Sigma_hat: a chain steps by
scale * (L z) with L the Cholesky factor of Sigma_hat.  The scale starts at
2.38/sqrt(d) with Sigma_hat = I.  During burn-in the scalar scale follows a
Robbins-Monro recursion toward an acceptance rate of 0.44 at d = 1 and 0.234
above (the optimal-scaling values of Roberts, Gelman & Gilks 1997 and
Roberts & Rosenthal 2001), and Sigma_hat tracks the running sample
covariance (regularized by +1e-6 I), as in the adaptive Metropolis of
Haario, Saksman & Tamminen 2001 with the scale of Andrieu & Thoms 2008; both
freeze when burn-in ends, so the retained chain is Markov.

The iterations run in two phases over the noise blocks.  Burn-in runs in
stretches that end where Sigma_hat may be refreshed (every 25 iterations),
at the freeze or at the end of a block; a stretch takes its steps L z at
once, adapts every iteration, and then counts its accepts and refreshes L.
After the freeze the rest of each block takes its steps scale * (L z) at
once, so a retained iteration only adds its row to the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, integer, prefixed
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

# Optimal-scaling acceptance targets: one dimension, and any higher one.
_TARGET_ACCEPT_1D = 0.44
_TARGET_ACCEPT = 0.234

INIT_MODES = ("prior-draw", "mle")

# A density of -inf or NaN at a proposal (inf - inf, log 0, exp overflow) is
# a rejection, not an error.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


@dataclass(frozen=True)
class SamplerConfig:
    """Chain length, start and seed of one random-walk Metropolis run; the one
    declaration of these settings (``ExperimentConfig`` and ``swissmc sample``
    take them from here)."""

    n_samples: int
    burn_in: int = 1000
    thin: int = 1
    init: str = "prior-draw"  # one of INIT_MODES: the target's init_sampler or mle hook
    seed: int = 0

    def __post_init__(self):
        # n_samples >= 2: a SampleBatch holds at least 2 draws
        for name, minimum in (("n_samples", 2), ("burn_in", 0), ("thin", 1), ("seed", None)):
            object.__setattr__(self, name, integer(getattr(self, name), name, minimum))
        # the str check first: an array must never reach ``in``
        if not (isinstance(self.init, str) and self.init in INIT_MODES):
            raise InvalidInputError(f"init must be one of {INIT_MODES}, got {self.init!r}")


def check_config(target: TargetModel, config: SamplerConfig) -> None:
    """Refuse ``config`` if it cannot run on ``target``: the retained draws
    must exceed the target's dimension (every batch covariance, and the
    reference's, needs d + 1 draws), and the init mode needs the target's
    hook for it."""
    d = target.dim
    if config.n_samples <= d:
        raise InvalidInputError(
            f"n_samples must be >= {d + 1} for a {d}-dimensional target, got {config.n_samples}"
        )
    if config.init == "prior-draw" and target.init_sampler is None:
        raise InvalidInputError(
            f"init 'prior-draw' needs an init-sampler hook; target {target.name!r} has none"
        )
    if config.init == "mle" and target.mle is None:
        raise InvalidInputError(
            f"init 'mle' needs an ML-estimate hook; target {target.name!r} has none"
        )


class Chain(NamedTuple):
    """One chain of a lockstep group.

    ``powers`` is the (prior, likelihood) exponent pair the group's target
    is evaluated at, ``data`` the batch data it evaluates (None: the data
    the target was built on), ``batch_id`` tags the returned SampleBatch,
    ``stream_id`` keys its RngStream (default: the batch id) and ``label``
    names the chain in errors (default: ``batch <batch_id>``).
    """

    powers: tuple = (1.0, 1.0)
    data: object = None
    batch_id: int = 0
    stream_id: int | None = None
    label: str | None = None


def convention_streams(convention: str, n_batches: int) -> range:
    """The stream ids of ``convention``'s chains over B = ``n_batches``
    batches: inflated batch b -> b, the full-data chain -> B, un-inflated
    ("subposterior") batch b -> B + 1 + b.

    The one statement of the stream layout: chains, the dimension bench's
    exact draws and the Laplace-pooling oracle all take their ids from here.
    The ranges tile 0 .. 2B, so 2B + 1, the ``stop`` of the "subposterior"
    range, is the first id that no chain uses.
    """
    return {
        "inflated": range(0, n_batches),
        "full": range(n_batches, n_batches + 1),
        "subposterior": range(n_batches + 1, 2 * n_batches + 1),
    }[convention]


def convention_chains(base: TargetModel, convention: str, batch_data: list) -> list[Chain]:
    """The chains of ``convention`` over B batches.

    ``batch_data`` holds each batch's data (None for a data-free target);
    ``base.convention_powers`` sets the chains' exponents and
    ``convention_streams`` their streams.  "full" is one chain on the data
    ``base`` was built on.
    """
    n_batches = len(batch_data)
    powers = base.convention_powers(convention, n_batches)
    streams = convention_streams(convention, n_batches)
    if convention == "full":
        return [Chain(powers, None, 0, streams[0], "full-data chain")]
    kind = "inflated" if convention == "inflated" else "un-inflated"
    return [
        Chain(powers, data, b, stream, f"{kind} batch {b}")
        for b, (data, stream) in enumerate(zip(batch_data, streams))
    ]


def _per_chain(labels: list, fn, *items) -> list:
    """``[fn(*args) for args in zip(*items)]``; an error names its chain."""
    out = []
    for label, args in zip(labels, zip(*items)):
        with prefixed(label):
            out.append(fn(*args))
    return out


def _initial_point(target: TargetModel, data_batch, config: SamplerConfig, rng) -> np.ndarray:
    # check_config has matched the init mode to one of the target's hooks
    if config.init == "mle":
        point = target.mle(data_batch)
    else:
        point = target.init_sampler(rng)
    point = np.asarray(point, dtype=float).ravel()
    if point.size != target.dim:
        raise InvalidInputError(
            f"initial point has length {point.size}, target dimension is {target.dim}"
        )
    return point


def sample(target: TargetModel, data_batch, config: SamplerConfig) -> SampleBatch:
    """Run one chain at exponents (1, 1) on batch 0 and random stream 0 and
    return its post-burn-in, thinned draws; ``sample_all_batches`` runs
    chains with other exponents, batch ids or streams.

    Draws are reported on the target's reported scale; the chain itself runs
    on the sampling scale.  Diagnostics carry the post-burn-in acceptance
    rate, the frozen proposal scale and any tuning warnings.
    """
    return _lockstep(target, [Chain(data=data_batch)], config)[0]


def _sample_one(target, data_batch, config, batch_id, stream_id):
    # Nothing in the package calls this; perfbench/tracer.py wraps it by name.
    return _lockstep(target, [Chain((1.0, 1.0), data_batch, batch_id, stream_id)], config)[0]


def sample_all_batches(
    target: TargetModel, chains: list, config: SamplerConfig
) -> list[SampleBatch]:
    """Run a group of chains (``Chain`` tuples) on ``target`` in lockstep, in
    this process.

    Results come back in the order of ``chains``, each identical to what
    that chain gives alone.  Errors name the failing chain's batch id.
    """
    return _lockstep(target, list(chains), config)


def _noise_blocks(rngs: list, total_iters: int, d: int):
    """Yield each chain's proposal noise z, (block, K, d), and log-uniforms,
    (block, K), for ``total_iters`` iterations, ``_BLOCK`` at a time; per
    block, each chain draws its normals and then its uniforms."""
    for start in range(0, total_iters, _BLOCK):
        block = min(_BLOCK, total_iters - start)
        noise = np.empty((block, len(rngs), d))
        uniforms = np.empty((block, len(rngs)))
        for i, rng in enumerate(rngs):
            noise[:, i] = rng.standard_normal((block, d))
            uniforms[:, i] = rng.random(block)
        yield noise, np.log(uniforms)  # log(0) = -inf never accepts


def _proposal_steps(chol: np.ndarray, z: np.ndarray) -> np.ndarray:
    """chol[k] @ z[..., k, :] for every chain k, with z of shape (..., K, d).

    The sum over j runs left to right whatever the shapes, so a chain's step
    does not depend on the group or on how many iterations are stacked.
    ``_lockstep`` calls it once per burn-in stretch, where L is fixed, and
    once for the retained rest of each noise block.
    """
    steps = chol[:, :, 0] * z[..., :1]
    for j in range(1, z.shape[-1]):
        steps += chol[:, :, j] * z[..., j : j + 1]
    return steps


def _lockstep(model: TargetModel, chains: list, config: SamplerConfig) -> list[SampleBatch]:
    check_config(model, config)
    if not chains:
        return []
    k, d = len(chains), model.dim
    labels = [chain.label or f"batch {chain.batch_id}" for chain in chains]
    rngs = [
        RngStream(config.seed, c.batch_id if c.stream_id is None else c.stream_id).generator()
        for c in chains
    ]
    # An ML start depends on the chain's data alone: chains on one data object
    # (an inflated and an un-inflated chain on a shard) share one solve, and
    # an error names the first of them.
    mle_starts = {}

    def start(chain, rng):
        if config.init != "mle":
            return _initial_point(model, chain.data, config, rng)
        key = id(chain.data)
        if key not in mle_starts:
            mle_starts[key] = _initial_point(model, chain.data, config, rng)
        return mle_starts[key]

    x = np.array(_per_chain(labels, start, chains, rngs))
    data = model.stack_data([chain.data for chain in chains])
    powers = tuple(np.array(column, dtype=float) for column in zip(*(c.powers for c in chains)))
    with np.errstate(**_QUIET):
        logp = model.log_density(x, data, powers)
    if not np.all(np.isfinite(logp)):
        i = int(np.argmin(np.isfinite(logp)))
        raise InvalidInputError(
            f"{labels[i]}: log-density is not finite at the initial point {x[i].tolist()}"
        )

    target_accept = _TARGET_ACCEPT_1D if d == 1 else _TARGET_ACCEPT
    log_scale = np.full(k, math.log(2.38 / math.sqrt(d)))
    scale = np.exp(log_scale)[:, None]
    shape_chol = np.broadcast_to(np.eye(d), (k, d, d))

    # Welford accumulators for the running covariance of the burn-in draws.
    run_mean = np.zeros((k, d))
    run_m2 = np.zeros((k, d, d))
    jitter = _COV_JITTER * np.eye(d)
    min_cov_draws = max(20, 2 * d)

    burn = config.burn_in
    post_iters = config.n_samples * config.thin
    total_iters = burn + post_iters
    draws = np.empty((config.n_samples, k, d))
    kept = 0
    accepted_burn = np.zeros(k, dtype=np.int64)
    accepted_post = np.zeros(k, dtype=np.int64)

    def metropolis(proposal, log_u, accept):
        """Accept or reject ``proposal`` chain by chain: fills ``accept``,
        moves x and logp, and returns the log acceptance ratio."""
        logp_prop = model.log_density(proposal, data, powers)
        log_alpha = logp_prop - logp
        np.less(log_u, log_alpha, out=accept)
        np.copyto(x, proposal, where=accept[:, None])
        np.copyto(logp, logp_prop, where=accept)
        return log_alpha

    it = 0  # iterations run
    with np.errstate(**_QUIET):
        for noise, log_u in _noise_blocks(rngs, total_iters, d):
            row, block = 0, len(noise)
            # Burn-in, in stretches that end where L may be refreshed, at the
            # freeze or at the end of the block; L is fixed within a stretch.
            while it < burn and row < block:
                end = row + min(
                    _COV_UPDATE_INTERVAL - it % _COV_UPDATE_INTERVAL, burn - it, block - row
                )
                steps = _proposal_steps(shape_chol, noise[row:end])
                flags = np.empty((end - row, k), dtype=bool)
                for step, row_log_u, accept in zip(steps, log_u[row:end], flags):
                    log_alpha = metropolis(x + scale * step, row_log_u, accept)
                    it += 1
                    alpha = np.where(
                        np.isfinite(log_alpha), np.exp(np.minimum(0.0, log_alpha)), 0.0
                    )
                    log_scale += it**-0.6 * (alpha - target_accept)
                    delta = x - run_mean
                    run_mean += delta / it
                    run_m2 += delta[:, :, None] * (x - run_mean)[:, None, :]
                    scale = np.exp(log_scale)[:, None]
                accepted_burn += flags.sum(axis=0)
                row = end
                if it > min_cov_draws and it % _COV_UPDATE_INTERVAL == 0:
                    cov = symmetrize(run_m2 / (it - 1) + jitter)
                    try:
                        shape_chol = np.linalg.cholesky(cov)
                        factored = np.all(np.isfinite(shape_chol))  # NaN passes LAPACK
                    except np.linalg.LinAlgError:
                        factored = False
                    if not factored:
                        # chain by chain, so that the error names the failing one
                        shape_chol = np.array(_per_chain(labels, cholesky, cov))
            # Retained: the rest of the block, its steps scaled by the frozen scale.
            steps = scale * _proposal_steps(shape_chol, noise[row:])
            flags = np.empty((block - row, k), dtype=bool)
            for step, row_log_u, accept in zip(steps, log_u[row:], flags):
                metropolis(x + step, row_log_u, accept)
                it += 1
                if (it - burn) % config.thin == 0:
                    draws[kept] = x
                    kept += 1
            accepted_post += flags.sum(axis=0)

    batches = []
    for i, chain in enumerate(chains):
        burn_rate = int(accepted_burn[i]) / burn if burn else None
        warnings = []
        if burn and burn_rate < _TUNING_FLOOR:
            warnings.append(
                f"tuning-failure: burn-in acceptance rate {burn_rate:.4f} below {_TUNING_FLOOR}"
            )
        diagnostics = {
            "acceptance_rate": int(accepted_post[i]) / post_iters,
            "burn_in_acceptance": burn_rate,
            "scale_at_freeze": float(scale[i, 0]),
            "warnings": warnings,
        }
        meta = BatchMeta(
            inflation_exponent=float(powers[1][i]),
            prior_exponent=float(powers[0][i]),
            seed=config.seed,
            target_name=model.name,
        )
        chain_draws = model.report(np.ascontiguousarray(draws[:, i]))
        batches.append(SampleBatch(chain.batch_id, chain_draws, meta, diagnostics))
    return batches
