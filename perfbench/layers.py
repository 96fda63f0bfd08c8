"""Single layers timed in isolation on fixed inputs (traced pass only).

These are the per-call costs a layer optimisation changes directly: the
logistic log-density, the Jacobi eigensolver (with LAPACK's ``eigh`` beside
it as a reference number), the SPD square roots and the sample-CSV writer and
reader.  Each value is the median over repeats.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from swissmc import eigh, logistic_regression_model, mix_seed, simulate_rare_feature_data, spd_roots
from swissmc.io import read_sample_csv, write_sample_csv
from stats import median

_perf = time.perf_counter


def _seconds_per_call(call, repeats: int, inner: int) -> float:
    times = []
    for _ in range(repeats):
        start = _perf()
        for _ in range(inner):
            call()
        times.append((_perf() - start) / inner)
    return median(times)


def isolated_layers(seed: int, tiny: bool, workdir: Path) -> dict:
    gen = np.random.default_rng(mix_seed(seed, 7))
    repeats = 1 if tiny else 5
    out = {}
    for n in (4000, 20000):
        data = simulate_rare_feature_data(n, mix_seed(seed, n))
        model = logistic_regression_model(data.x, data.y)
        theta = 0.1 * gen.standard_normal(model.dim)
        out[f"targets.loglik_us.n{n}"] = 1e6 * _seconds_per_call(
            lambda: model.log_density(theta), repeats, 40
        )
    for d in (5, 20, 80):
        factor = gen.standard_normal((d, d))
        spd = factor @ factor.T / d + np.eye(d)
        jacobi_repeats = repeats if d < 80 else min(repeats, 3)
        out[f"linalg.eigh_ms.d{d}"] = 1e3 * _seconds_per_call(lambda: eigh(spd), jacobi_repeats, 1)
        out[f"linalg.np_eigh_ms.d{d}"] = 1e3 * _seconds_per_call(
            lambda: np.linalg.eigh(spd), repeats, 20
        )
        if d == 80:
            out["linalg.spd_roots_ms.d80"] = 1e3 * _seconds_per_call(
                lambda: spd_roots(spd), jacobi_repeats, 1
            )
    draws = gen.standard_normal((2000 if tiny else 50_000, 20))
    path = workdir / "layer_50kx20.csv"
    out["io.write_ms.50kx20"] = 1e3 * _seconds_per_call(lambda: write_sample_csv(path, draws), 1, 1)
    out["io.read_ms.50kx20"] = 1e3 * _seconds_per_call(lambda: read_sample_csv(path), 1, 1)
    path.unlink()
    return out
