"""Command-line surface: simulate, partition, sample, combine, evaluate,
experiment and bench subcommands.

``partition`` writes near-equal random batches; ``sample`` reads any split
of a dataset from an assignment CSV (``--assignment``), so another split,
such as one that keeps groups of rows together, is a file of batch ids.
Targets take no parameters, and a chain starts from a target hook
(``--init prior-draw`` or ``mle``).  ``experiment`` takes every setting but
the output directory (``--out``) from its config file.

Exit codes: 0 on success, 1 on usage errors (bad flags, malformed files,
invalid parameters), 2 on numerical failures inside the algorithms.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import MISSING, fields, replace
from pathlib import Path

from .errors import InvalidInputError, ParseError, SwissError, integer, prefixed
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
from .metrics import REPORT_KEYS, Reference, compute_metrics
from .sampler import (
    INIT_MODES,
    SamplerConfig,
    check_config,
    convention_chains,
    sample_all_batches,
)
from .targets import (
    CONVENTIONS,
    DATA_BACKED_TARGETS,
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
    split = partition_rows(dataset, args.batches, seed=args.seed)
    write_assignment_csv(args.out, split)
    sizes = ",".join(str(s) for s in split.sizes())
    print(f"wrote assignment for {dataset.n_rows} rows ({args.batches} batches, sizes {sizes})")


def _cmd_sample(args) -> None:
    config = SamplerConfig(**{f.name: getattr(args, f.name) for f in fields(SamplerConfig)})
    dataset = None
    if args.target in DATA_BACKED_TARGETS:
        if args.batches is not None:
            raise InvalidInputError(
                f"target {args.target!r} takes its batches from --assignment, not --batches"
            )
        if not args.data:
            raise InvalidInputError(f"target {args.target!r} needs --data")
        dataset = read_dataset_csv(args.data)
    elif args.data or args.assignment:
        raise InvalidInputError(
            f"target {args.target!r} is data-free and takes neither --data nor --assignment"
        )
    base = make_target(args.target, dataset)
    check_config(base, config)
    if dataset is None:
        n_batches = 1 if args.batches is None else args.batches
        batch_data = [None] * integer(n_batches, "the batch count", 1)
    else:
        if not args.assignment:
            raise InvalidInputError("data-backed sampling needs --assignment")
        batch_data = shard_data(dataset, read_assignment_csv(args.assignment))
    chains = convention_chains(base, args.convention, batch_data)
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
        if batch.dim != batches[0].dim:
            raise InvalidInputError(
                f"{args.inputs[0]} and {path} disagree on dimension: "
                f"{batches[0].dim} vs {batch.dim}"
            )
        paths[batch.batch_id] = path
    start = time.perf_counter()
    result = _COMBINE[args.method](batches)
    seconds = time.perf_counter() - start
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
        f"({seconds:.3f}s merge)"
    )


def _cmd_evaluate(args) -> None:
    approx_draws, reference_draws = read_sample_csv(args.approx), read_sample_csv(args.reference)
    if approx_draws.shape[1] != reference_draws.shape[1]:
        raise InvalidInputError(
            f"{args.approx} and {args.reference} disagree on dimension: "
            f"{approx_draws.shape[1]} vs {reference_draws.shape[1]}"
        )
    # Each file is prepared under its name, so that a degenerate column is
    # reported with its file: the bandwidths apply the spread rule, and the
    # precision reads them first.
    with prefixed(args.approx):
        approx = Reference(approx_draws)
        approx.kde_scales
    with prefixed(args.reference):
        reference = Reference(reference_draws)
        reference.precision
    report = compute_metrics(approx, reference)
    payload = report.to_dict()
    for key in REPORT_KEYS:
        if payload[key] is not None:
            print(f"{key} = {payload[key]:.6f}")
    if args.out:
        write_json(args.out, payload)


def _cmd_experiment(args) -> None:
    config = ExperimentConfig.from_dict(read_json(args.config))
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
    try:
        dims = [int(tok) for tok in args.dims.split(",") if tok.strip()]
    except ValueError as err:
        raise InvalidInputError(f"--dims must list integers: {err}") from None
    if not dims:
        raise InvalidInputError("--dims must list at least one value")
    rows = bench_dimension_scaling(dims, args.batches, args.n_samples, args.seed, out_dir=args.out)
    for row in rows:
        print(
            f"d={row['d']:>3} {row['method']:<10} iad={row['iad']:.4f} "
            f"time={row['time_seconds']:.3f}s"
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("sample", help="run per-batch (or full-data) chains")
    p.add_argument("--target", choices=TARGET_NAMES, required=True)
    p.add_argument("--convention", choices=CONVENTIONS, default="inflated")
    p.add_argument("--n-samples", type=int, required=True)
    p.add_argument("--burn-in", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--init", choices=INIT_MODES)
    p.add_argument("--batches", type=int, help="batch count for data-free targets (default 1)")
    p.add_argument("--data", help="dataset CSV (data-backed targets)")
    p.add_argument("--assignment", help="partition CSV from the partition subcommand")
    p.add_argument("--out-dir", required=True)
    chain_defaults = {f.name: f.default for f in fields(SamplerConfig) if f.default is not MISSING}
    p.set_defaults(func=_cmd_sample, **chain_defaults)

    p = sub.add_parser("combine", help="merge batch sample files")
    p.add_argument("--method", choices=COMBINER_NAMES, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--maps", help="write the per-batch affine maps as JSON")
    p.add_argument("inputs", nargs="+", help="batch sample CSVs")
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("evaluate", help="score one sample file against another")
    p.add_argument("--approx", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", help="also write the metric report as JSON")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run an experiment config end to end")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", help="output directory (overrides the config)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("bench", help="dimension-scaling study on exact Gaussian draws")
    p.add_argument("--dims", default="5,10,20,40", help="comma-separated dimensions")
    p.add_argument("--batches", type=int, default=10)
    p.add_argument("--n-samples", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
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
    except (ParseError, InvalidInputError, OSError) as err:
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
