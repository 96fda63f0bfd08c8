"""Small statistics helpers: the median, and the effective sample size of a chain."""

from __future__ import annotations

import statistics

import numpy as np


def median(values) -> float:
    return float(statistics.median(values))


def ess(chain) -> float:
    """Effective sample size of one scalar chain.

    Geyer's (1992) initial monotone sequence estimator: autocorrelations come
    from an FFT, consecutive pairs Gamma_k = rho_2k + rho_2k+1 are summed up
    to the first non-positive pair and forced non-increasing, and
    ESS = n / (-1 + 2 sum_k Gamma_k).
    """
    x = np.asarray(chain, dtype=float)
    n = x.size
    x = x - x.mean()
    spectrum = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(spectrum * np.conj(spectrum))[:n]
    if acov[0] <= 0.0:
        return 0.0
    rho = acov / acov[0]
    n_pairs = n // 2
    pairs = rho[0 : 2 * n_pairs : 2] + rho[1 : 2 * n_pairs : 2]
    positive = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: positive[0]] if positive.size else pairs
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * float(pairs.sum())
    return n / max(tau, 1e-12)


def min_ess(chains) -> float:
    """Smallest per-parameter ESS over a list of (n_draws, d) draw matrices."""
    return min(ess(draws[:, j]) for draws in chains for j in range(draws.shape[1]))
