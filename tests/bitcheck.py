"""Digests for byte-identity checks between two trees of this repository.

    python3 tests/bitcheck.py > digests.txt

prints one SHA-256 per line, each over outputs that a change to the
sampler's or the metrics' arithmetic could move:

* ``chains burn_in=B thin=T``: the draws and diagnostics of a K = 4 group
  of inflated logistic-rare chains and a K = 2 group of inflated
  rare-Bernoulli chains, for burn-in lengths on, next to and off the
  25-iteration refresh grid and the 512-iteration noise blocks;
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
    bench_dimension_scaling,
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
from swissmc.targets import shard_data  # noqa: E402

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


def main() -> None:
    groups = _groups()
    for burn_in in BURN_INS:
        for thin in THINS:
            print(f"chains burn_in={burn_in} thin={thin} {chain_digest(groups, burn_in, thin)}")
    for path in sorted((ROOT / "configs").glob("*.json")):
        print(f"report configs/{path.name} {report_digest(path)}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in writer_digests(Path(tmp)):
            print(f"writer {name} {digest}")
        print(f"combine swiss {combine_digest(Path(tmp))}")
    print(f"bench {bench_digest()}")


if __name__ == "__main__":
    main()
