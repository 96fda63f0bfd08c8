"""The three benchmark workloads and the checks on their outputs.

Each workload derives its inputs from the seed, prepares them in ``setup``
(untimed), does the timed work in ``run`` through swissmc's public API only,
and judges the outputs in ``check``.  An operation is one combiner result
(logistic-desk), one dimension row (gaussian-dims) or one CLI call
(cli-files); ``check`` returns which of them failed and the quality values
that must repeat bit for bit at a fixed seed.

Why these three: logistic-desk is the paper's real use case and is dominated
by the sampler and the logistic log-density; gaussian-dims runs no MCMC, so it
isolates the combiners, moment pooling and the Jacobi eigensolver as the
dimension grows; cli-files is the only path through the sample-CSV reader and
writer and the CLI.  Each layer an optimisation may target is heavy on one
workload and light or absent on another.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The timed calls look up swissmc.run_experiment, swissmc.bench_dimension_scaling
# and swissmc.cli.cli_main at call time, so the traced pass sees its wrappers.
import swissmc
import swissmc.cli
from swissmc import (
    ExperimentConfig,
    SampleBatch,
    draw_gaussian,
    gaussian_conjugate_suite,
    harness,
    mix_seed,
)
from swissmc.io import write_batch, write_sample_csv
from swissmc.moments import BatchMeta
from swissmc.rng import RngStream

COMBINERS = ("swiss", "consensus", "ar", "barycenter")
COV_MATCH_RTOL = 1e-6  # A_b V_b A_b^T = V and equal block covariances
CRITERION_5_IAD = 0.05  # swiss and consensus IAD bound of criterion 5
CRITERION_8_IAD = 0.10  # criterion 8's absolute swiss bound, reported only


@dataclass
class Outcome:
    """Checked result of one timed run of a workload."""

    failures: dict  # operation -> reason
    quality: dict  # values that must repeat bit for bit at a fixed seed
    notes: dict = field(default_factory=dict)  # reported, never judged


def _relative_gap(actual, expected) -> float:
    return float(np.max(np.abs(actual - expected)) / max(1e-300, np.max(np.abs(expected))))


class LogisticDesk:
    """run_experiment on logistic-rare in the criterion-8 shape, one repetition.

    n = 20000 rows, B = 5 shards, MLE start, two worker processes, all four
    combiners.  Chains are shorter than criterion 8's (2000 kept draws, no
    thinning, 1000 burn-in) so that several repetitions fit in one run; the
    full-data chain still runs alone before the shard phases, as in the test.
    """

    name = "logistic-desk"
    workers = 2

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.sizes = dict(n_observations=2000, n_samples=200, burn_in=200) if tiny else dict(
            n_observations=20_000, n_samples=2000, burn_in=1000
        )
        self.ops = len(COMBINERS)

    def setup(self) -> None:
        self.config = ExperimentConfig(
            target="logistic-rare",
            n_batches=5,
            thin=1,
            seed=self.seed,
            n_runs=1,
            combiners=COMBINERS,
            init="mle",
            workers=self.workers,
            **self.sizes,
        )

    def run(self):
        return swissmc.run_experiment(self.config)

    def check(self, summary) -> Outcome:
        report = summary.reports[0]
        failures = {}
        quality = {}
        for name in COMBINERS:
            metric = report.combiner_metrics[name]
            values = (metric.iad, metric.mahalanobis, metric.skew_dev)
            if not all(v is not None and math.isfinite(v) for v in values):
                failures[name] = f"{name}: non-finite metric {values}"
            quality[f"iad_{name}"] = metric.iad
            quality[f"mahalanobis_{name}"] = metric.mahalanobis
        swiss, ar = report.combiner_metrics["swiss"], report.combiner_metrics["ar"]
        notes = {
            "swiss_beats_ar": bool(swiss.iad < ar.iad and swiss.mahalanobis < ar.mahalanobis),
            "criterion_8_iad_bound": CRITERION_8_IAD,
            "criterion_8_iad_swiss": swiss.iad,
        }
        return Outcome(failures, quality, notes)


class _CombineCapture:
    """Keeps the maps, target moments and input moments of every combine call
    made through ``harness._COMBINE``; the merged draws are not kept."""

    def __init__(self):
        self.calls = []

    def __enter__(self):
        self.saved = dict(harness._COMBINE)
        for name, combine in self.saved.items():
            harness._COMBINE[name] = self._wrap(name, combine)
        return self

    def __exit__(self, *exc):
        harness._COMBINE.update(self.saved)

    def _wrap(self, name, combine):
        def capture(batches, **kwargs):
            result = combine(batches, **kwargs)
            self.calls.append((name, kwargs.get("moments"), result.per_batch_maps, result.pooled))
            return result

        return capture


class GaussianDims:
    """bench_dimension_scaling (criterion 5): B = 10, J = 5000, d = 5, 20, 80.

    Exact Gaussian batch draws, no MCMC; the combiners, moment pooling and the
    Jacobi eigensolver carry the run, and their cost grows steeply with d.
    """

    name = "gaussian-dims"
    workers = 1

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.dims = (5,) if tiny else (5, 20, 80)
        self.n_samples = 1000 if tiny else 5000
        self.ops = len(self.dims) * len(COMBINERS)

    def setup(self) -> None:
        pass

    def run(self):
        with _CombineCapture() as capture:
            rows = swissmc.bench_dimension_scaling(self.dims, 10, self.n_samples, self.seed)
        return rows, capture.calls

    def check(self, raw) -> Outcome:
        rows, calls = raw
        failures = {}
        for name, moments, maps, target in calls:
            if name not in ("swiss", "barycenter"):
                continue
            for mapping, mom in zip(maps, moments):
                transported = mapping.matrix @ mom.cov @ mapping.matrix.T
                gap = _relative_gap(transported, target.cov)
                if gap > COV_MATCH_RTOL:
                    failures[(name, target.dim)] = f"{name} d={target.dim}: A V_b A^T gap {gap:.3e}"
        quality = {}
        for row in rows:
            key = (row["method"], row["d"])
            quality[f"iad_{row['method']}.d{row['d']}"] = row["iad"]
            if row["method"] in ("swiss", "consensus") and not row["iad"] < CRITERION_5_IAD:
                failures[key] = f"{key[0]} d={key[1]}: iad {row['iad']:.4f} >= {CRITERION_5_IAD}"
        if len(rows) != self.ops:
            failures["rows"] = f"expected {self.ops} rows, got {len(rows)}"
        for name in COMBINERS:
            quality[f"iad_{name}"] = float(np.mean([r["iad"] for r in rows if r["method"] == name]))
        return Outcome(failures, quality)


class CliFiles:
    """The CLI on files: combine swiss and consensus, then evaluate each.

    Set-up writes B = 10 inflated and 10 un-inflated d = 20, J = 5000 batch
    CSVs with sidecars, drawn exactly from the conjugate Gaussian suite, plus
    a 10000-draw reference from the analytic full posterior.
    """

    name = "cli-files"
    workers = 1

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.dim, self.n_batches, self.n_samples, self.n_reference = (
            (5, 4, 500, 1000) if tiny else (20, 10, 5000, 10_000)
        )
        self.inputs = workdir / "inputs"
        self.outputs = workdir / "outputs"
        self.ops = 4

    def _paths(self, kind):
        return [str(self.inputs / f"{kind}_{b}.csv") for b in range(self.n_batches)]

    def setup(self) -> None:
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        suite_seed = mix_seed(self.seed, self.dim)
        per_batch, full = gaussian_conjugate_suite(self.dim, self.n_batches, suite_seed)
        B = self.n_batches
        for kind, scale, offset in (("inflated", 1.0 / B, 0), ("uninflated", 1.0, B + 1)):
            for b, (path, mom) in enumerate(zip(self._paths(kind), per_batch)):
                gen = RngStream(suite_seed, offset + b).generator()
                draws = draw_gaussian(mom.mean, mom.cov * scale, self.n_samples, gen)
                meta = BatchMeta(inflation_exponent=B if offset == 0 else 1.0, seed=self.seed)
                write_batch(path, SampleBatch(b, draws, meta=meta))
        gen = RngStream(suite_seed, B).generator()
        reference = draw_gaussian(full.mean, full.cov, self.n_reference, gen)
        write_sample_csv(self.inputs / "reference.csv", reference)

    def run(self):
        shutil.rmtree(self.outputs, ignore_errors=True)
        self.outputs.mkdir(parents=True)
        out = self.outputs
        calls = {
            "combine swiss": ["combine", "--method", "swiss", "--out", f"{out}/swiss.csv",
                              "--maps", f"{out}/swiss_maps.json", *self._paths("inflated")],
            "combine consensus": ["combine", "--method", "consensus",
                                  "--out", f"{out}/consensus.csv", *self._paths("uninflated")],
        }
        for name in ("swiss", "consensus"):
            calls[f"evaluate {name}"] = [
                "evaluate", "--approx", f"{out}/{name}.csv",
                "--reference", str(self.inputs / "reference.csv"),
                "--out", f"{out}/{name}_report.json",
            ]
        codes = {}
        with contextlib.redirect_stdout(_stdio.StringIO()):
            for name, argv in calls.items():
                codes[name] = swissmc.cli.cli_main(argv)
        return codes

    def check(self, codes) -> Outcome:
        failures = {name: f"{name}: exit {code}" for name, code in codes.items() if code != 0}
        expected_rows = {"swiss": self.n_batches * self.n_samples, "consensus": self.n_samples}
        for name, rows in expected_rows.items():
            key = f"combine {name}"
            if key in failures:
                continue
            draws = np.loadtxt(self.outputs / f"{name}.csv", delimiter=",", skiprows=1, ndmin=2)
            if draws.shape != (rows, self.dim):
                failures[key] = f"{key}: output shape {draws.shape}, expected {(rows, self.dim)}"
            elif name == "swiss":
                blocks = draws.reshape(self.n_batches, self.n_samples, self.dim)
                first = np.cov(blocks[0], rowvar=False)
                gaps = [_relative_gap(np.cov(block, rowvar=False), first) for block in blocks[1:]]
                if max(gaps, default=0.0) > COV_MATCH_RTOL:
                    failures[key] = f"{key}: block covariances differ by {max(gaps):.3e}"
        quality = {}
        for name in ("swiss", "consensus"):
            key = f"evaluate {name}"
            if key in failures:
                continue
            report = json.loads((self.outputs / f"{name}_report.json").read_text())
            values = (report["iad"], report["mahalanobis"], report["skew_dev"])
            if not all(v is not None and math.isfinite(v) for v in values):
                failures[key] = f"{key}: non-finite metric {values}"
            quality[f"iad_{name}"] = report["iad"]
            quality[f"mahalanobis_{name}"] = report["mahalanobis"]
        return Outcome(failures, quality)


WORKLOADS = {w.name: w for w in (LogisticDesk, GaussianDims, CliFiles)}
