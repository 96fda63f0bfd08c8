"""Command-line surface: simulate, partition, sample, combine, evaluate,
experiment and bench subcommands.

Exit codes: 0 on success, 1 on usage errors (bad flags, malformed files,
invalid parameters), 2 on numerical failures inside the algorithms.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import InvalidInputError, ParseError, SwissError
from .harness import (
    _COMBINE,
    COMBINER_NAMES,
    ExperimentConfig,
    bench_dimension_scaling,
    run_experiment,
)
from .io import (
    read_assignment_csv,
    read_batch,
    read_dataset_csv,
    read_json,
    read_sample_csv,
    write_assignment_csv,
    write_batch,
    write_dataset_csv,
    write_json,
    write_sample_csv,
)
from .metrics import METRIC_NAMES, REPORT_KEYS, compute_metrics
from .sampler import INIT_MODES, SamplerConfig, convention_chains, sample_all_batches
from .targets import (
    CONVENTIONS,
    DATA_BACKED_TARGETS,
    PARTITION_SCHEMES,
    TARGET_NAMES,
    make_target,
    partition as partition_rows,
    shard_data,
    simulate_rare_feature_data,
)

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _cmd_simulate(args) -> None:
    dataset = simulate_rare_feature_data(args.n, args.seed)
    write_dataset_csv(dataset, args.out)
    print(f"wrote {dataset.n_rows} rows to {args.out}")


def _cmd_partition(args) -> None:
    dataset = read_dataset_csv(args.data)
    split = partition_rows(dataset, args.batches, args.scheme, seed=args.seed)
    write_assignment_csv(args.out, split)
    sizes = ",".join(str(s) for s in split.sizes())
    print(f"wrote assignment for {dataset.n_rows} rows ({args.batches} batches, sizes {sizes})")


def _split_list(text: str, flag: str, convert, what: str) -> list:
    """A comma-separated flag value as a non-empty list of ``convert``ed items."""
    try:
        items = [convert(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as err:
        raise InvalidInputError(f"{flag} must list {what}: {err}") from None
    if not items:
        raise InvalidInputError(f"{flag} must list at least one value")
    return items


def _cmd_sample(args) -> None:
    init = args.init
    if init not in INIT_MODES:
        init = _split_list(init, "--init", float, f"{' or '.join(INIT_MODES)} or numbers")
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as err:
        raise InvalidInputError(f"--params is not valid JSON: {err}") from None
    if args.target in DATA_BACKED_TARGETS:
        if args.batches is not None:
            raise InvalidInputError(
                f"target {args.target!r} takes its batches from --assignment, not --batches"
            )
        if not args.data:
            raise InvalidInputError(f"target {args.target!r} needs --data")
        dataset = read_dataset_csv(args.data)
        base = make_target(args.target, params, dataset)
        if not args.assignment:
            raise InvalidInputError("data-backed sampling needs --assignment")
        split = read_assignment_csv(args.assignment)
        if split.assignment.size != dataset.n_rows:
            raise InvalidInputError(
                f"assignment covers {split.assignment.size} rows, dataset has {dataset.n_rows}"
            )
        batch_data = shard_data(dataset, split)
    else:
        if args.data or args.assignment:
            raise InvalidInputError(
                f"target {args.target!r} is data-free and takes neither --data nor --assignment"
            )
        base = make_target(args.target, params)
        n_batches = 1 if args.batches is None else args.batches
        if n_batches < 1:
            raise InvalidInputError(f"the batch count must be >= 1, got {n_batches}")
        batch_data = [None] * n_batches
    chains = convention_chains(base, args.convention, batch_data)
    config = SamplerConfig(
        n_samples=args.n_samples,
        burn_in=args.burn_in,
        thin=args.thin,
        init=init,
        seed=args.seed,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    batches = sample_all_batches(base, chains, config)
    if args.convention == "full":
        write_batch(out / "full.csv", batches[0])
        print(f"wrote full-data chain ({batches[0].n_draws} draws) to {out / 'full.csv'}")
        return
    for batch in batches:
        write_batch(out / f"batch_{batch.batch_id}.csv", batch)
    print(f"wrote {len(batches)} batch chains ({args.convention}) to {out}")


def _cmd_combine(args) -> None:
    batches = [read_batch(path, fallback_batch_id=i) for i, path in enumerate(args.inputs)]
    paths = {}
    for path, batch in zip(args.inputs, batches):
        if batch.batch_id in paths:
            raise InvalidInputError(
                f"{paths[batch.batch_id]} and {path} share batch id {batch.batch_id}"
            )
        paths[batch.batch_id] = path
    result = _COMBINE[args.method](batches)
    write_sample_csv(args.out, result.combined)
    if args.maps:
        payload = [
            {
                "batch_id": batch.batch_id,
                "matrix": mapping.matrix.tolist(),
                "center_in": mapping.center_in.tolist(),
                "center_out": mapping.center_out.tolist(),
            }
            for batch, mapping in zip(batches, result.per_batch_maps)
        ]
        write_json(args.maps, {"method": args.method, "maps": payload})
    print(
        f"combined {len(batches)} batches with {args.method}: "
        f"{result.combined.shape[0]} rows -> {args.out} "
        f"({result.wall_time:.3f}s merge)"
    )


def _cmd_evaluate(args) -> None:
    approx = read_sample_csv(args.approx)
    reference = read_sample_csv(args.reference)
    report = compute_metrics(approx, reference, which=tuple(args.metrics))
    payload = report.to_dict()
    for key in REPORT_KEYS:
        if payload[key] is not None:
            print(f"{key} = {payload[key]:.6f}")
    if args.out:
        write_json(args.out, payload)


def _cmd_experiment(args) -> None:
    config = ExperimentConfig.from_dict(read_json(args.config))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.out:
        config = replace(config, out_dir=args.out)
    summary = run_experiment(config)
    for name, entry in summary.aggregates["combiners"].items():
        parts = [
            f"{metric}={entry[metric]['mean']:.4f}±{entry[metric]['se']:.4f}"
            for metric in REPORT_KEYS
            if metric in entry
        ]
        print(f"{name}: " + " ".join(parts))


def _cmd_bench(args) -> None:
    dims = _split_list(args.dims, "--dims", int, "integers")
    rows = bench_dimension_scaling(
        dims,
        args.batches,
        args.n_samples,
        args.seed,
        n_runs=args.runs,
        out_dir=args.out,
    )
    for row in rows:
        print(
            f"d={row['d']:>3} {row['method']:<10} iad={row['iad']:.4f} "
            f"time={row['time_seconds']:.3f}s rep={row['repetition']}"
        )


def build_parser() -> _Parser:
    parser = _Parser(prog="swissmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("simulate", help="write a synthetic rare-feature dataset CSV")
    p.add_argument("--n", type=int, required=True, help="number of rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("partition", help="assign dataset rows to batches")
    p.add_argument("--data", required=True)
    p.add_argument("--batches", type=int, required=True)
    p.add_argument("--scheme", choices=PARTITION_SCHEMES, default="random-equal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("sample", help="run per-batch (or full-data) chains")
    p.add_argument("--target", choices=TARGET_NAMES, required=True)
    p.add_argument("--convention", choices=CONVENTIONS, default="inflated")
    p.add_argument("--n-samples", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--init", default="prior-draw", help="prior-draw, mle or comma-separated numbers"
    )
    p.add_argument("--batches", type=int, help="batch count for data-free targets (default 1)")
    p.add_argument("--data", help="dataset CSV (data-backed targets)")
    p.add_argument("--assignment", help="partition CSV from the partition subcommand")
    p.add_argument("--params", help="JSON dict of target parameters")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("combine", help="merge batch sample files")
    p.add_argument("--method", choices=COMBINER_NAMES, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--maps", help="write the per-batch affine maps as JSON")
    p.add_argument("inputs", nargs="+", help="batch sample CSVs")
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("evaluate", help="score one sample file against another")
    p.add_argument("--approx", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--metrics", nargs="+", choices=METRIC_NAMES, default=list(METRIC_NAMES))
    p.add_argument("--out", help="also write the metric report as JSON")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run an experiment config end to end")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", help="output directory (overrides the config)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("bench", help="dimension-scaling study on exact Gaussian draws")
    p.add_argument("--dims", default="5,10,20,40", help="comma-separated dimensions")
    p.add_argument("--batches", type=int, default=10)
    p.add_argument("--n-samples", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--out", help="directory for the plot-ready CSV")
    p.set_defaults(func=_cmd_bench)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # --help
        return 0 if err.code in (0, None) else 1
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    try:
        args.func(args)
    except (_UsageError, ParseError, InvalidInputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SwissError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
