"""End-to-end experiment orchestration.

An experiment samples a full-data reference chain plus per-batch chains,
runs the requested combiners, scores each against the reference and repeats
with derived seeds.  A repetition's chains (the full-data chain, then the
inflated and the un-inflated batch chains) run as one lockstep group in this
process; ``workers`` is accepted and validated but starts no process.
``ExperimentConfig`` extends ``SamplerConfig``, so repetition r's chains run
on the config itself with the master seed replaced.  Seed layout (see
``rng.mix_seed``):

* dataset:            mix_seed(seed, _DATA_STREAM)
* repetition r:       chain master = mix_seed(seed, r), r < _DATA_STREAM on
                      a data-backed target (r = _DATA_STREAM would replay
                      the dataset's stream)
* partition of rep r: mix_seed(seed, r, _PARTITION_STREAM)
* chain streams:      ``sampler.convention_streams`` of each convention
* oracle draws:       chain master, the first stream no chain uses (the
                      ``stop`` of the "subposterior" streams)

so reports are identical for a fixed config and seed regardless of worker
count or of which chains share a group.  ``bench_dimension_scaling`` keys
dimension d's suite by mix_seed(seed, d, 0) and its exact draws by
mix_seed(seed, d, 1), on the streams of the chains they stand in for.

Baselines.  On targets with a Laplace hook (the data-backed ones) every
repetition that runs ``swiss`` also scores two references that involve no
combiner, under the report's ``baselines`` key (never in ``combiners`` or
``metrics.csv``):

* ``laplace_pooling``: the chain-free oracle of ``laplace_pooling_moments``;
  B * n_samples Gaussian draws from its pooled moments (on the first stream
  that no chain uses) are scored against the reference chain with every
  metric.  This is the error of the precision pooling itself, with no
  sampler error in it.
* ``noise_floor``: the IAD of the first half of the reference chain's
  retained draws against the second half, i.e. the resolution at which the
  reference can tell two samples of the same posterior apart.
"""

from __future__ import annotations

import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .combiners import ar_combine, barycenter_combine, consensus_combine, swiss_combine
from .errors import InvalidInputError, integer, prefixed
from .io import write_json, write_table_csv
from .linalg import draw_gaussian
from .metrics import REPORT_KEYS, MetricReport, Reference, compute_metrics
from .moments import Moments, SampleBatch, pool_moments
from .rng import RngStream, mix_seed
from .sampler import (
    SamplerConfig,
    check_config,
    convention_chains,
    convention_streams,
    sample_all_batches,
)
from .targets import (
    DATA_BACKED_TARGETS,
    TARGET_NAMES,
    gaussian_conjugate_suite,
    make_target,
    partition,
    shard_data,
    simulate_rare_feature_data,
)

_COMBINE = {
    "swiss": swiss_combine,
    "consensus": consensus_combine,
    "ar": ar_combine,
    "barycenter": barycenter_combine,
}
COMBINER_NAMES = tuple(_COMBINE)
# The batch convention whose chains each combiner merges.
_CONVENTION = {
    "swiss": "inflated",
    "consensus": "subposterior",
    "ar": "inflated",
    "barycenter": "inflated",
}

# ExperimentConfig's own integer fields and their minimums; SamplerConfig
# checks the chain settings.
_INT_FIELDS = {"n_batches": 1, "n_observations": 0, "n_runs": 1, "workers": 1}

# Role constants for derived seeds (arbitrary fixed integers).
_DATA_STREAM = 100
_PARTITION_STREAM = 101

# Keys stripped when comparing reports for determinism.
TIMING_KEYS = frozenset({"merge_time_seconds", "total_seconds"})


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(SamplerConfig):
    """Everything needed to reproduce one experiment: SamplerConfig's chain
    settings (``seed`` is the master seed) plus the keyword-only fields below."""

    target: str
    n_batches: int
    n_observations: int = 0
    combiners: tuple = COMBINER_NAMES
    n_runs: int = 1
    workers: int = 1
    out_dir: str | None = None

    def __post_init__(self):
        if self.target not in TARGET_NAMES:
            raise InvalidInputError(f"unknown target {self.target!r}, expected one of {TARGET_NAMES}")
        for name, minimum in _INT_FIELDS.items():
            object.__setattr__(self, name, integer(getattr(self, name), name, minimum))
        super().__post_init__()
        if not (
            isinstance(self.combiners, (list, tuple))
            and all(isinstance(name, str) for name in self.combiners)
        ):
            raise InvalidInputError(f"combiners must be a list of names, got {self.combiners!r}")
        object.__setattr__(self, "combiners", tuple(self.combiners))
        unknown = set(self.combiners) - set(COMBINER_NAMES)
        if unknown:
            raise InvalidInputError(f"unknown combiners: {sorted(unknown)}")
        if len(set(self.combiners)) < len(self.combiners):
            raise InvalidInputError(f"combiners must not repeat a name: {list(self.combiners)}")
        if not self.combiners:
            raise InvalidInputError("need at least one combiner")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise InvalidInputError(f"out_dir must be a string or null, got {self.out_dir!r}")
        if self.target in DATA_BACKED_TARGETS and self.n_observations < self.n_batches:
            raise InvalidInputError(
                f"target {self.target!r} needs n_observations >= n_batches, "
                f"got {self.n_observations} < {self.n_batches}"
            )
        if self.target in DATA_BACKED_TARGETS and self.n_runs > _DATA_STREAM:
            raise InvalidInputError(
                f"n_runs must be <= {_DATA_STREAM} on target {self.target!r}, got "
                f"{self.n_runs}: repetition {_DATA_STREAM}'s chains would replay "
                "the random stream that simulated the dataset"
            )
        if self.target not in DATA_BACKED_TARGETS and self.n_observations != 0:
            raise InvalidInputError(
                f"target {self.target!r} is data-free and takes no n_observations, "
                f"got {self.n_observations}"
            )

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["combiners"] = list(self.combiners)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise InvalidInputError(f"config must be a JSON object, got {type(payload).__name__}")
        declared = fields(cls)
        unknown = set(payload) - {f.name for f in declared}
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        missing = [f.name for f in declared if f.default is MISSING and f.name not in payload]
        if missing:
            raise InvalidInputError(f"missing config keys: {sorted(missing)}")
        return cls(**payload)


@dataclass(eq=False)
class ExperimentReport:
    """Per-repetition results: combiner metrics, timings and diagnostics."""

    config: dict
    repetition: int
    combiner_metrics: dict  # name -> MetricReport
    merge_times: dict  # name -> seconds
    sampler_diagnostics: dict
    total_seconds: float
    baselines: dict = field(default_factory=dict)  # name -> MetricReport

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "repetition": self.repetition,
            "combiners": {
                name: {
                    "metrics": self.combiner_metrics[name].to_dict(),
                    "merge_time_seconds": self.merge_times[name],
                }
                for name in self.combiner_metrics
            },
            "baselines": {name: metric.to_dict() for name, metric in self.baselines.items()},
            "sampler": self.sampler_diagnostics,
            "total_seconds": self.total_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentReport":
        combiners = payload["combiners"]
        return cls(
            config=payload["config"],
            repetition=payload["repetition"],
            combiner_metrics={
                name: MetricReport.from_dict(entry["metrics"]) for name, entry in combiners.items()
            },
            merge_times={name: entry["merge_time_seconds"] for name, entry in combiners.items()},
            sampler_diagnostics=payload["sampler"],
            total_seconds=payload["total_seconds"],
            baselines={
                name: MetricReport.from_dict(entry)
                for name, entry in payload.get("baselines", {}).items()
            },
        )


@dataclass(eq=False)
class ExperimentSummary:
    reports: list
    aggregates: dict


def strip_timing(payload):
    """Recursively drop wall-clock fields; used to compare reports byte-wise."""
    if isinstance(payload, dict):
        return {k: strip_timing(v) for k, v in payload.items() if k not in TIMING_KEYS}
    if isinstance(payload, list):
        return [strip_timing(v) for v in payload]
    return payload


def _build_dataset(config: ExperimentConfig):
    if config.target not in DATA_BACKED_TARGETS:
        return None
    return simulate_rare_feature_data(config.n_observations, mix_seed(config.seed, _DATA_STREAM))


def _aggregate_metrics(per_run: list) -> dict:
    """Mean, standard error and values of each metric over MetricReports."""
    entry = {}
    for metric in REPORT_KEYS:
        values = [getattr(report, metric) for report in per_run]
        if any(v is None for v in values):
            continue
        arr = np.asarray(values, dtype=float)
        se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
        entry[metric] = {"mean": float(arr.mean()), "se": se, "values": [float(v) for v in arr]}
    return entry


def summarize_reports(reports: list) -> dict:
    """Mean and standard error of every metric over the repetitions."""
    if not reports:
        return {"n_runs": 0, "combiners": {}, "baselines": {}}
    aggregates = {}
    for name in reports[0].combiner_metrics:
        entry = _aggregate_metrics([r.combiner_metrics[name] for r in reports])
        times = np.asarray([r.merge_times[name] for r in reports], dtype=float)
        entry["merge_time_seconds"] = {"mean": float(times.mean()), "values": [float(v) for v in times]}
        aggregates[name] = entry
    baselines = {
        name: _aggregate_metrics([r.baselines[name] for r in reports])
        for name in reports[0].baselines
    }
    return {"n_runs": len(reports), "combiners": aggregates, "baselines": baselines}


def laplace_pooling_moments(model, batch_data: list) -> Moments:
    """Moments of the Laplace-pooling oracle.

    Each inflated batch target (``model`` at the exponents of the
    "inflated" convention, on one batch of data) is replaced by its Laplace
    approximation, and the batch moments are pooled with ``pool_moments``,
    the pooling ``swiss`` applies to its sampled batch moments.  No chain is
    run.
    """
    powers = model.convention_powers("inflated", len(batch_data))
    return pool_moments([model.laplace(data, powers) for data in batch_data])


def _score_baselines(model, batch_data, reference: Reference, config: SamplerConfig) -> dict:
    """Laplace-pooling oracle and reference noise floor (see the module docstring)."""
    pooled = laplace_pooling_moments(model, batch_data)
    n_batches = len(batch_data)
    stream = convention_streams("subposterior", n_batches).stop
    rng = RngStream(config.seed, stream).generator()
    draws = draw_gaussian(pooled.mean, pooled.cov, n_batches * config.n_samples, rng)
    chain = reference.draws
    half = chain.shape[0] // 2
    return {
        "laplace_pooling": compute_metrics(draws, reference),
        "noise_floor": compute_metrics(chain[:half], chain[half:], which=("iad",)),
    }


def _score_combiners(names, by_convention: dict, reference: Reference, which, failed: str) -> dict:
    """Run each combiner on its convention's ``(batches, moments)`` and score
    it against the prepared ``reference`` with the ``which`` metrics.

    Returns ``{name: (MetricReport, merge seconds)}``.  An error is prefixed
    with ``failed`` plus the stage and combiner it came from.
    """
    scored = {}
    for name in names:
        batches, moments = by_convention[_CONVENTION[name]]
        with prefixed(f"{failed} combine ({name})"):
            start = time.perf_counter()
            result = _COMBINE[name](batches, moments=moments)
            seconds = time.perf_counter() - start
        with prefixed(f"{failed} metrics ({name})"):
            metric = compute_metrics(result.combined, reference, which=which)
        scored[name] = (metric, seconds)
    return scored


def _run_repetition(config: ExperimentConfig, base, dataset, rep: int) -> ExperimentReport:
    started = time.perf_counter()
    failed = f"repetition {rep} failed during"
    n_batches = config.n_batches
    batch_data = [None] * n_batches
    if dataset is not None:
        with prefixed(f"{failed} partition"):
            seed = mix_seed(config.seed, rep, _PARTITION_STREAM)
            batch_data = shard_data(dataset, partition(dataset, n_batches, seed=seed))

    chain_config = replace(config, seed=mix_seed(config.seed, rep))
    conventions = list(dict.fromkeys(_CONVENTION[name] for name in config.combiners))
    with prefixed(f"{failed} sampling"):
        chains = convention_chains(base, "full", batch_data)
        for convention in conventions:
            chains += convention_chains(base, convention, batch_data)
        full_chain, *batches = sample_all_batches(base, chains, chain_config)
    by_convention = {}
    diagnostics = {"full": full_chain.diagnostics}
    for i, convention in enumerate(conventions):
        group = batches[i * n_batches : (i + 1) * n_batches]
        by_convention[convention] = (group, None)
        diagnostics[convention] = [b.diagnostics for b in group]
    with prefixed(f"{failed} metrics ({chains[0].label})"):
        reference = Reference(full_chain.draws)
        reference.precision  # a singular reference fails here, not in a combiner's metrics
    scored = _score_combiners(config.combiners, by_convention, reference, REPORT_KEYS, failed)

    baselines = {}
    if "swiss" in config.combiners and base.laplace is not None:
        with prefixed(f"{failed} baselines"):
            baselines = _score_baselines(base, batch_data, reference, chain_config)

    return ExperimentReport(
        config=config.to_dict(),
        repetition=rep,
        combiner_metrics={name: metric for name, (metric, _) in scored.items()},
        merge_times={name: seconds for name, (_, seconds) in scored.items()},
        sampler_diagnostics=diagnostics,
        total_seconds=time.perf_counter() - started,
        baselines=baselines,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run every repetition of an experiment and aggregate the metrics.

    With ``config.out_dir`` set, per-run reports are written there as soon as
    each repetition completes, so a failure in a later repetition leaves the
    finished ones on disk.  The target is built, and the chain settings
    checked against it by ``check_config``, before the output directory is
    made.
    """
    dataset = _build_dataset(config)
    base = make_target(config.target, dataset)
    check_config(base, config)
    out = Path(config.out_dir) if config.out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    reports = []
    for rep in range(config.n_runs):
        report = _run_repetition(config, base, dataset, rep)
        reports.append(report)
        if out is not None:
            write_json(out / f"run_{rep}.json", report.to_dict())
    aggregates = summarize_reports(reports)
    if out is not None:
        write_json(out / "summary.json", aggregates)
        write_table_csv(
            out / "metrics.csv",
            ["repetition", "method", *REPORT_KEYS, "merge_time_seconds"],
            [
                [report.repetition, name, *(getattr(metric, key) for key in REPORT_KEYS),
                 report.merge_times[name]]
                for report in reports
                for name, metric in report.combiner_metrics.items()
            ],
        )
    return ExperimentSummary(reports=reports, aggregates=aggregates)


def bench_dimension_scaling(
    dims,
    n_batches: int,
    n_samples: int,
    seed: int,
    *,
    out_dir=None,
) -> list:
    """Dimension-scaling study on exact Gaussian batch draws (no MCMC).

    For each dimension the conjugate Gaussian suite supplies per-batch
    moments; batch draws come straight from the batch Gaussians (full-scale
    for the consensus convention, shrunk by 1/B for the inflated one) and the
    reference from the analytic full posterior.  The suite's analytic
    moments are injected into every combiner: with widely spread batch means
    the precision-weighted pooling amplifies covariance-estimation noise
    roughly like d/sqrt(J), which would swamp the combiner differences this
    study is after.  Dimension d's suite comes from the seed
    ``mix_seed(seed, d, 0)`` and its draws from ``mix_seed(seed, d, 1)``, each
    on the stream that ``convention_streams`` gives the chain it stands in
    for.  Returns plot-ready rows (d, method, iad, time_seconds), one per
    dimension and combiner.
    """
    dims = [integer(d, "dimension", 1) for d in dims]
    n_batches = integer(n_batches, "the batch count", 1)
    n_samples = integer(n_samples, "n_samples", 2)
    seed = integer(seed, "seed")
    header = ["d", "method", "iad", "time_seconds"]
    rows = []
    for d in dims:
        failed = f"bench at d={d} failed during"
        per_batch, full = gaussian_conjugate_suite(d, n_batches, mix_seed(seed, d, 0))
        draw_seed = mix_seed(seed, d, 1)
        (stream,) = convention_streams("full", n_batches)
        rng = RngStream(draw_seed, stream).generator()
        draws = draw_gaussian(full.mean, full.cov, n_batches * n_samples, rng)
        with prefixed(f"{failed} metrics"):
            reference = Reference(draws)
        by_convention = {}
        for convention, shrink in (("inflated", n_batches), ("subposterior", 1)):
            moments = [Moments(mom.mean, mom.cov / shrink) for mom in per_batch]
            rngs = [RngStream(draw_seed, s) for s in convention_streams(convention, n_batches)]
            batches = [
                SampleBatch(b, draw_gaussian(mom.mean, mom.cov, n_samples, rng.generator()))
                for b, (mom, rng) in enumerate(zip(moments, rngs))
            ]
            by_convention[convention] = (batches, moments)
        scored = _score_combiners(COMBINER_NAMES, by_convention, reference, ("iad",), failed)
        for name, (metric, seconds) in scored.items():
            rows.append(dict(zip(header, (d, name, metric.iad, seconds))))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_table_csv(out / "bench.csv", header, [list(row.values()) for row in rows])
    return rows
