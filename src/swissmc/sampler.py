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
covariance (regularized by +1e-6 I); both freeze when burn-in ends, so the
retained chain is Markov.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, finite_vector, integer, prefixed
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
    """Chain length, start and seed of one random-walk Metropolis run."""

    n_samples: int
    burn_in: int = 1000
    thin: int = 1
    init: object = "prior-draw"  # "prior-draw", "mle" or a vector of finite numbers
    seed: int = 0

    def __post_init__(self):
        # n_samples >= 2: a SampleBatch holds at least 2 draws
        for name, minimum in (("n_samples", 2), ("burn_in", 0), ("thin", 1), ("seed", None)):
            object.__setattr__(self, name, integer(getattr(self, name), name, minimum))
        if not (isinstance(self.init, str) and self.init in INIT_MODES):
            expected = f"one of {INIT_MODES} or a vector of finite numbers"
            object.__setattr__(self, "init", finite_vector(self.init, "init", expected=expected))


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


def convention_chains(base: TargetModel, convention: str, batch_data: list) -> list[Chain]:
    """The chains of ``convention`` over B batches.

    ``batch_data`` holds each batch's data (None for a data-free target);
    ``base.convention_powers`` sets the chains' exponents.  "full" is one
    chain on the data ``base`` was built on.  Streams: inflated batch b -> b,
    full-data chain -> B, un-inflated batch b -> B + 1 + b.
    """
    n_batches = len(batch_data)
    powers = base.convention_powers(convention, n_batches)
    if convention == "full":
        return [Chain(powers, None, 0, n_batches, "full-data chain")]
    first, kind = (0, "inflated") if convention == "inflated" else (n_batches + 1, "un-inflated")
    return [
        Chain(powers, data, b, first + b, f"{kind} batch {b}") for b, data in enumerate(batch_data)
    ]


def _per_chain(labels: list, fn, *items) -> list:
    """``[fn(*args) for args in zip(*items)]``; an error names its chain."""
    out = []
    for label, args in zip(labels, zip(*items)):
        with prefixed(label):
            out.append(fn(*args))
    return out


def _initial_point(target: TargetModel, data_batch, config: SamplerConfig, rng) -> np.ndarray:
    init = config.init
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
        point = np.asarray(init, dtype=float)
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
    powers: tuple = (1.0, 1.0),
) -> SampleBatch:
    """Run one chain at the (prior, likelihood) exponents ``powers`` and
    return its post-burn-in, thinned draws.

    Draws are reported on the target's reported scale; the chain itself runs
    on the sampling scale.  Diagnostics carry the post-burn-in acceptance
    rate, the frozen proposal scale and any tuning warnings.
    """
    return _lockstep(target, [Chain(powers, data_batch, batch_id, stream_id)], config)[0]


def _sample_one(target, data_batch, config, batch_id, stream_id):
    # Nothing in the package calls this; perfbench/tracer.py wraps it by name.
    return _lockstep(target, [Chain((1.0, 1.0), data_batch, batch_id, stream_id)], config)[0]


def sample_all_batches(
    target: TargetModel, chains: list, config: SamplerConfig
) -> list[SampleBatch]:
    """Run a group of chains (``Chain`` tuples) on ``target`` in lockstep, in
    this process.

    Results come back in the order of ``chains``, each identical to what
    ``sample`` returns for that chain alone.  Errors name the failing
    chain's batch id.
    """
    return _lockstep(target, list(chains), config)


def _proposal_steps(chol: np.ndarray, z: np.ndarray) -> np.ndarray:
    """chol[k] @ z[..., k, :] for every chain k, with z of shape (..., K, d).

    The sum over j runs left to right whatever the shapes, so a chain's step
    does not depend on the group or on how many iterations are stacked.  L
    changes only every 25 burn-in iterations, so L z is taken for the rest
    of a noise block at once.
    """
    steps = chol[:, :, 0] * z[..., :1]
    for j in range(1, z.shape[-1]):
        steps += chol[:, :, j] * z[..., j : j + 1]
    return steps


def _lockstep(model: TargetModel, chains: list, config: SamplerConfig) -> list[SampleBatch]:
    if not chains:
        return []
    k, d = len(chains), model.dim
    labels = [chain.label or f"batch {chain.batch_id}" for chain in chains]
    rngs = [
        RngStream(config.seed, c.batch_id if c.stream_id is None else c.stream_id).generator()
        for c in chains
    ]
    x = np.array(
        _per_chain(
            labels,
            lambda chain, rng: _initial_point(model, chain.data, config, rng),
            chains,
            rngs,
        )
    )
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
    scale_at_freeze = np.exp(log_scale)

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
    warnings: list[list[str]] = [[] for _ in chains]
    accept = np.empty(k, dtype=bool)
    accept_rows = accept[:, None]

    cursor = block = 0
    with np.errstate(**_QUIET):
        for it in range(total_iters):
            if cursor == block:
                block = min(_BLOCK, total_iters - it)
                noise = np.empty((block, k, d))
                log_u = np.empty((block, k))
                for i, rng in enumerate(rngs):
                    noise[:, i] = rng.standard_normal((block, d))
                    log_u[:, i] = rng.random(block)
                log_u = np.log(log_u)  # log(0) = -inf never accepts
                shape_steps = _proposal_steps(shape_chol, noise)
                cursor = 0
            proposal = x + scale * shape_steps[cursor]
            logp_prop = model.log_density(proposal, data, powers)
            log_alpha = logp_prop - logp
            np.less(log_u[cursor], log_alpha, out=accept)
            cursor += 1
            np.copyto(x, proposal, where=accept_rows)
            np.copyto(logp, logp_prop, where=accept)

            if it < burn:
                accepted_burn += accept
                alpha = np.where(np.isfinite(log_alpha), np.exp(np.minimum(0.0, log_alpha)), 0.0)
                log_scale += (it + 1) ** -0.6 * (alpha - target_accept)
                run_n = it + 1
                delta = x - run_mean
                run_mean += delta / run_n
                run_m2 += delta[:, :, None] * (x - run_mean)[:, None, :]
                if run_n > min_cov_draws and run_n % _COV_UPDATE_INTERVAL == 0:
                    cov = symmetrize(run_m2 / (run_n - 1) + jitter)
                    try:
                        shape_chol = np.linalg.cholesky(cov)
                        factored = np.all(np.isfinite(shape_chol))  # NaN passes LAPACK
                    except np.linalg.LinAlgError:
                        factored = False
                    if not factored:
                        # chain by chain, so that the error names the failing one
                        shape_chol = np.array(_per_chain(labels, cholesky, cov))
                    shape_steps[cursor:] = _proposal_steps(shape_chol, noise[cursor:])
                scale = np.exp(log_scale)[:, None]
                if it == burn - 1:
                    # Freeze: nothing past this point touches the proposal.
                    scale_at_freeze = np.exp(log_scale)
                    for i in np.flatnonzero(accepted_burn / burn < _TUNING_FLOOR):
                        warnings[i].append(
                            f"tuning-failure: burn-in acceptance rate "
                            f"{accepted_burn[i] / burn:.4f} below {_TUNING_FLOOR}"
                        )
            else:
                accepted_post += accept
                if (it - burn + 1) % config.thin == 0:
                    draws[kept] = x
                    kept += 1

    batches = []
    for i, chain in enumerate(chains):
        diagnostics = {
            "acceptance_rate": int(accepted_post[i]) / post_iters,
            "burn_in_acceptance": (int(accepted_burn[i]) / burn) if burn else None,
            "scale_at_freeze": float(scale_at_freeze[i]),
            "warnings": warnings[i],
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
