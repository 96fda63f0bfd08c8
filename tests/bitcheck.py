"""Digests for byte-identity checks between two trees of this repository.

    python3 tests/bitcheck.py > digests.txt

prints one SHA-256 per line, each over outputs that a change to the
sampler's or the metrics' arithmetic could move:

* ``chains burn_in=B thin=T``: the draws and diagnostics of a K = 4 group
  of inflated logistic-rare chains and a K = 2 group of inflated
  rare-Bernoulli chains, for burn-in lengths on, next to and off the
  25-iteration refresh grid and the 512-iteration noise blocks;
* ``chains continuous burn_in=B thin=T``: the same for a K = 4 group of
  inflated logistic chains on a continuous design (200 distinct rows per
  shard, against at most 16 on the rare design), so that the logistic
  log-density's plane and row sums run on wide stacks too;
* ``report configs/<name>.json``: every run report and the summary of
  ``run_experiment`` on that config, after ``strip_timing``, without
  ``out_dir`` and with every ``skew_dev`` value dropped;
* ``writer <function>``: the bytes that each CSV writer of ``swissmc.io``
  writes for a fixed table (2049 rows, past two 1024-row chunks, with
  signed zeros, subnormals and the largest finite floats);
* ``combine swiss``: the CSV that ``swissmc combine --method swiss`` writes
  for four fixed batch files;
* ``bench``: the rows of ``bench_dimension_scaling`` at toy size, without
  ``time_seconds``, so a change to the bench's exact draws shows as it does
  for chains.
* ``targets one-row``: the logistic log-density of one chain with one
  distinct row at d = 8, 12, 20 and 40, where numpy would sum the feature
  planes pairwise if ``stack_data`` did not pad them to two values;
* ``suite``: the batch and pooled moments of ``gaussian_conjugate_suite``
  at d = 1, 2, 5, 20 and 80 (the bench line covers toy sizes only);
* ``metrics``: the reports of ``compute_metrics`` at d = 1, 2 and 20, for
  a wide and a narrow approximation (the binned and the direct KDE path)
  against one ``Reference`` reused across the calls, and for one pair of
  plain matrices.

Run it in each tree and ``diff`` the two outputs: a line that differs names
the config whose outputs changed.  The package is imported from the
``src`` directory next to this file, whatever is installed.  pytest does
not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from swissmc import (  # noqa: E402
    Dataset,
    ExperimentConfig,
    Partition,
    SampleBatch,
    SamplerConfig,
    Reference,
    bench_dimension_scaling,
    compute_metrics,
    gaussian_conjugate_suite,
    make_target,
    partition,
    run_experiment,
    sample_all_batches,
    simulate_rare_feature_data,
    strip_timing,
)
from swissmc.cli import cli_main  # noqa: E402
from swissmc.io import (  # noqa: E402
    read_json,
    write_assignment_csv,
    write_batch,
    write_dataset_csv,
    write_sample_csv,
    write_table_csv,
)
from swissmc.sampler import convention_chains  # noqa: E402
from swissmc.targets import LogisticData, LogisticRegression, shard_data  # noqa: E402

BURN_INS = (0, 1, 20, 24, 25, 26, 37, 511, 512, 513, 1037, 1537)
THINS = (1, 3)
N_SAMPLES = 400
SEED = 5


def _groups():
    """(target, chains, init) of each group: four logistic shards and two
    rare-Bernoulli batches."""
    dataset = simulate_rare_feature_data(2000, SEED)
    logistic = make_target("logistic-rare", dataset)
    shards = shard_data(dataset, partition(dataset, 4, seed=SEED))
    rare = make_target("rare-bernoulli")
    return [
        (logistic, convention_chains(logistic, "inflated", shards), "mle"),
        (rare, convention_chains(rare, "inflated", [None, None]), "prior-draw"),
    ]


def _continuous_group():
    """(target, chains, init) of four inflated logistic shards on 800 rows
    of an intercept and two standard-normal features."""
    rng = np.random.default_rng(SEED)
    x = np.column_stack([np.ones(800), rng.standard_normal((800, 2))])
    dataset = Dataset(x, (rng.random(800) < 0.3).astype(float))
    logistic = make_target("logistic-rare", dataset)
    shards = shard_data(dataset, partition(dataset, 4, seed=SEED))
    return [(logistic, convention_chains(logistic, "inflated", shards), "mle")]


def chain_digest(groups, burn_in: int, thin: int) -> str:
    digest = hashlib.sha256()
    for target, chains, init in groups:
        config = SamplerConfig(N_SAMPLES, burn_in=burn_in, thin=thin, init=init, seed=SEED)
        for batch in sample_all_batches(target, chains, config):
            digest.update(batch.draws.tobytes())
            digest.update(json.dumps(batch.diagnostics, sort_keys=True).encode())
    return digest.hexdigest()


def _without_skew(payload):
    if isinstance(payload, dict):
        return {k: _without_skew(v) for k, v in payload.items() if k != "skew_dev"}
    if isinstance(payload, list):
        return [_without_skew(v) for v in payload]
    return payload


def report_digest(path: Path) -> str:
    config = replace(ExperimentConfig.from_dict(read_json(path)), out_dir=None)
    summary = run_experiment(config)
    payloads = [report.to_dict() for report in summary.reports] + [summary.aggregates]
    for payload in payloads:
        payload.get("config", {}).pop("out_dir", None)
    text = json.dumps(_without_skew(strip_timing(payloads)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def writer_digests(tmp: Path):
    """(writer name, digest) of each CSV writer on a fixed table."""
    rng = np.random.default_rng(SEED)
    table = rng.standard_normal((2049, 3)) * np.array([1e-7, 1.0, 1e9])
    big = 1.7976931348623157e308
    table[:2] = [[-0.0, 5e-324, big], [0.0, -5e-324, -big]]
    header, rows = ["id", "value", "none", "name"], [[i, 0.1 * i, None, f"n{i}"] for i in range(5)]
    dataset, split = Dataset(table[:, 1:], table[:, 0]), Partition(np.arange(2049) % 7)
    writers = {
        "write_sample_csv": lambda path: write_sample_csv(path, table),
        "write_dataset_csv": lambda path: write_dataset_csv(dataset, path),
        "write_dataset_csv no-y": lambda path: write_dataset_csv(Dataset(table), path),
        "write_assignment_csv": lambda path: write_assignment_csv(path, split),
        "write_table_csv": lambda path: write_table_csv(path, header, rows),
    }
    for name, write in writers.items():
        path = tmp / "writer.csv"
        write(path)
        yield name, _file_digest(path)


def combine_digest(tmp: Path) -> str:
    rng = np.random.default_rng(SEED)
    inputs = []
    for batch_id in range(4):
        path = tmp / f"batch_{batch_id}.csv"
        draws = rng.standard_normal((1500, 3)) @ rng.standard_normal((3, 3)) + batch_id
        write_batch(path, SampleBatch(batch_id, draws))
        inputs.append(str(path))
    out = tmp / "combined.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main(["combine", "--method", "swiss", "--out", str(out), *inputs])
    return _file_digest(out)


def bench_digest() -> str:
    rows = bench_dimension_scaling((2, 3), 3, 300, SEED)
    for row in rows:
        del row["time_seconds"]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def one_row_digest() -> str:
    digest = hashlib.sha256()
    for d in (8, 12, 20, 40):
        rng = np.random.default_rng(SEED + d)
        part = LogisticData(rng.standard_normal((1, d)), np.array([1.0]), np.array([3.0]))
        model = LogisticRegression(part)
        for _ in range(50):
            theta = 3.0 * rng.standard_normal(d)
            powers = (rng.random() + 0.5, 4.0 * rng.random())
            digest.update(np.float64(model.log_density(theta, part, powers)).tobytes())
    return digest.hexdigest()


def suite_digest() -> str:
    digest = hashlib.sha256()
    for d in (1, 2, 5, 20, 80):
        per_batch, full = gaussian_conjugate_suite(d, 10, SEED)
        for moments in [*per_batch, full]:
            digest.update(moments.mean.tobytes())
            digest.update(moments.cov.tobytes())
    return digest.hexdigest()


def metrics_digest() -> str:
    digest = hashlib.sha256()
    for d in (1, 2, 20):
        rng = np.random.default_rng(SEED + d)
        wide = rng.standard_normal((3000, d)) * 3.0 + rng.standard_normal(d)
        reference = Reference(wide)
        pairs = [
            (rng.standard_normal((5000, d)) ** 2, reference),
            (0.01 * rng.standard_normal((5000, d)) + 0.5, reference),
            (rng.standard_normal((400, d)), wide[:400]),
        ]
        for approx, ref in pairs:
            report = compute_metrics(approx, ref).to_dict()
            digest.update(json.dumps(report, sort_keys=True).encode())
    return digest.hexdigest()


def main() -> None:
    groups = _groups()
    for burn_in in BURN_INS:
        for thin in THINS:
            print(f"chains burn_in={burn_in} thin={thin} {chain_digest(groups, burn_in, thin)}")
    print(f"chains continuous burn_in=1037 thin=3 {chain_digest(_continuous_group(), 1037, 3)}")
    for path in sorted((ROOT / "configs").glob("*.json")):
        print(f"report configs/{path.name} {report_digest(path)}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in writer_digests(Path(tmp)):
            print(f"writer {name} {digest}")
        print(f"combine swiss {combine_digest(Path(tmp))}")
    print(f"bench {bench_digest()}")
    print(f"targets one-row {one_row_digest()}")
    print(f"suite {suite_digest()}")
    print(f"metrics {metrics_digest()}")


if __name__ == "__main__":
    main()
