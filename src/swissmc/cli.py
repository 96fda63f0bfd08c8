"""Command-line surface: simulate, partition, sample, combine, evaluate,
experiment and bench subcommands.

Exit codes: 0 on success, 1 on usage errors (bad flags, malformed files,
invalid parameters), 2 on numerical failures inside the algorithms.
"""

from __future__ import annotations

import argparse
import json
import sys
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
from .metrics import METRIC_NAMES, compute_metrics
from .sampler import SamplerConfig, sample, sample_all_batches
from .targets import (
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


def _cmd_sample(args) -> None:
    params = json.loads(args.params) if args.params else {}
    if args.target in DATA_BACKED_TARGETS:
        if not args.data:
            raise InvalidInputError(f"target {args.target!r} needs --data")
        dataset = read_dataset_csv(args.data)
        model = make_target(args.target, params, dataset)
        if not args.assignment:
            raise InvalidInputError("data-backed sampling needs --assignment")
        split = read_assignment_csv(args.assignment)
        if split.assignment.size != dataset.n_rows:
            raise InvalidInputError(
                f"assignment covers {split.assignment.size} rows, dataset has {dataset.n_rows}"
            )
        n_batches = split.n_batches
        batch_data = shard_data(dataset, split)
        if args.convention == "inflated":
            model = model.with_powers(1.0, float(n_batches))
        elif args.convention == "subposterior":
            model = model.with_powers(1.0 / n_batches, 1.0)
    else:
        # data-free targets keep (1, 1) under every convention, as in the harness
        if args.data or args.assignment:
            raise InvalidInputError(
                f"target {args.target!r} is data-free and takes neither --data nor --assignment"
            )
        model = make_target(args.target, params)
        n_batches = args.batches
        batch_data = [None] * n_batches
    stream_offset = n_batches + 1 if args.convention == "subposterior" else 0

    config = SamplerConfig(
        n_samples=args.n_samples,
        burn_in=args.burn_in,
        thin=args.thin,
        init=args.init,
        seed=args.seed,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.convention == "full":
        batch = sample(model, None, config, batch_id=0, stream_id=n_batches)
        write_batch(out / "full.csv", batch)
        print(f"wrote full-data chain ({batch.n_draws} draws) to {out / 'full.csv'}")
        return
    batches = sample_all_batches(
        model, batch_data, config, workers=args.workers, stream_offset=stream_offset
    )
    for batch in batches:
        write_batch(out / f"batch_{batch.batch_id}.csv", batch)
    print(f"wrote {len(batches)} batch chains ({args.convention}) to {out}")


def _cmd_combine(args) -> None:
    batches = [read_batch(path, fallback_batch_id=i) for i, path in enumerate(args.inputs)]
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
    for key in ("mahalanobis", "skew_dev", "iad"):
        if payload[key] is not None:
            print(f"{key} = {payload[key]:.6f}")
    if args.out:
        write_json(args.out, payload)


def _cmd_experiment(args) -> None:
    payload = read_json(args.config)
    config = ExperimentConfig.from_dict(payload)
    if args.seed is not None:
        config.seed = args.seed
    if args.workers is not None:
        config.workers = args.workers
    summary = run_experiment(config, out_dir=args.out or config.out_dir)
    for name, entry in summary.aggregates["combiners"].items():
        parts = [
            f"{metric}={entry[metric]['mean']:.4f}±{entry[metric]['se']:.4f}"
            for metric in ("mahalanobis", "skew_dev", "iad")
            if metric in entry
        ]
        print(f"{name}: " + " ".join(parts))


def _cmd_bench(args) -> None:
    dims = [int(tok) for tok in args.dims.split(",") if tok.strip()]
    if not dims:
        raise InvalidInputError("--dims must list at least one dimension")
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
    p.add_argument("--convention", choices=("inflated", "subposterior", "full"), default="inflated")
    p.add_argument("--n-samples", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", default="prior-draw")
    p.add_argument("--batches", type=int, default=1, help="batch count for data-free targets")
    p.add_argument("--data", help="dataset CSV (data-backed targets)")
    p.add_argument("--assignment", help="partition CSV from the partition subcommand")
    p.add_argument("--params", help="JSON dict of target parameters")
    p.add_argument("--workers", type=int, default=1)
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
    p.add_argument("--workers", type=int, help="override the config worker count")
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
    except (_UsageError, ParseError, InvalidInputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as err:
        print(f"error: invalid JSON: {err}", file=sys.stderr)
        return 1
    except SwissError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
