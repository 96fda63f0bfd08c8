"""Shared test utilities: random matrix factories, exact Gaussian clouds,
Monte Carlo error bars and the lockstep-independence check of experiments."""

from dataclasses import replace

import numpy as np

from swissmc import COMBINER_NAMES, cholesky, run_experiment, strip_timing, symmetrize


def random_spd(d, rng, jitter=0.1):
    """Random symmetric positive definite matrix with a modest spectrum."""
    g = rng.standard_normal((d, d))
    return g @ g.T / d + jitter * np.eye(d)


def block_mean_se(x, n_blocks=40):
    """Standard error of a chain mean from non-overlapping block means.

    Blocks absorb autocorrelation, so this is a usable error bar for MCMC
    output as long as blocks are longer than the correlation length.
    """
    x = np.asarray(x, dtype=float).ravel()
    usable = (x.size // n_blocks) * n_blocks
    blocks = x[:usable].reshape(n_blocks, -1).mean(axis=1)
    return float(blocks.std(ddof=1) / np.sqrt(n_blocks))


def random_orthogonal(dim, rng):
    """Haar-distributed orthogonal matrix (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    # Fix the QR sign ambiguity so the distribution is Haar.
    return q * np.sign(np.diag(r))


def exact_gaussian_cloud(mean, cov, size, rng):
    """Gaussian point set whose sample mean and sample covariance (divisor
    size - 1) equal (mean, cov) exactly: a standard-normal cloud is
    empirically standardized, then scaled by the Cholesky factor of cov.
    Needs size > d."""
    mean = np.asarray(mean, dtype=float).ravel()
    lower = cholesky(cov)
    z = rng.standard_normal((size, mean.size))
    z = z - z.mean(axis=0)
    sample_cov = symmetrize(z.T @ z / (size - 1))
    z = np.linalg.solve(cholesky(sample_cov), z.T).T
    return mean + z @ lower.T


def lockstep_mismatches(config) -> list:
    """Where runs of ``config`` with other lockstep groups or worker counts disagree.

    ``config`` runs with every combiner at 1 and at 2 workers, whose reports
    must be identical modulo timing and the ``workers`` field, and with
    ``swiss`` alone and ``consensus`` alone, so that its chains share a
    group with other companions.  Every ``combiners``, ``sampler`` and
    ``baselines`` entry of those two runs must equal the entry of the
    all-combiner run.  Returns one line per disagreement.
    """

    def payloads(**overrides):
        reports = run_experiment(replace(config, **overrides)).reports
        payloads = [strip_timing(report.to_dict()) for report in reports]
        for payload in payloads:
            payload["config"].pop("workers")
        return payloads

    everything = payloads(combiners=COMBINER_NAMES, workers=1)
    mismatches = []
    if payloads(combiners=COMBINER_NAMES, workers=2) != everything:
        mismatches.append("workers=2: reports differ")
    for combiners in (("swiss",), ("consensus",)):
        for ref, run in zip(everything, payloads(combiners=combiners)):
            if tuple(run["combiners"]) != combiners:
                mismatches.append(f"{combiners}: combiners {list(run['combiners'])}")
            for section in ("combiners", "sampler", "baselines"):
                for key, value in run[section].items():
                    if value != ref[section].get(key):
                        mismatches.append(f"{combiners}: rep {run['repetition']} {section}.{key}")
    return mismatches
