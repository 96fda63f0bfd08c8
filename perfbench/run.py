#!/usr/bin/env python3
"""swissmc benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload logistic-desk --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload runs untraced in a closed loop (one run at a
time, a new one only while it still fits in ``--seconds``), every run's
outputs are checked, and the end-to-end metrics of BENCHMARK.json are printed:
the median wall time of a run and the set-up time (median of three set-ups,
each with a fresh-interpreter import of swissmc).

With ``--trace 1`` untraced and traced runs alternate in the same budget; the
per-layer metrics come from the traced runs (median over them), the tracing
overhead is the traced minus the untraced median wall time, the peak RSS is
that of this process plus its largest reaped child, and the quality values
(IADs, Mahalanobis distance) of every traced run must equal the untraced ones
bit for bit.  The isolated single-layer timings of ``layers.py`` follow the
loop.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record of the
run, with the machine facts, is appended to ``--out``
(default ``.perfbench/results.json``), which ``compare.py`` reads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"

# logistic-desk keeps two chain workers busy while its parent waits; with one
# BLAS thread each, workers x BLAS threads stays within a two-core machine.
# Set before numpy loads; pool workers inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import json
import multiprocessing
import platform
import resource
import subprocess
import time
import traceback
from dataclasses import dataclass

_perf = time.perf_counter
SETUP_REPEATS = 3


@dataclass
class Run:
    wall: float
    cost: float  # wall plus checking, what the loop budget is charged
    attempted: int
    failures: dict
    quality: dict
    notes: dict
    layers: dict | None = None
    chains: list | None = None
    probe: float = 0.0  # mean speed-probe CPU seconds during the run


def _import_seconds(env) -> float:
    start = _perf()
    subprocess.run([sys.executable, "-c", "import swissmc"], env=env, cwd=ROOT, check=True)
    return _perf() - start


def measure_setup(workload) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        imported = _import_seconds(env)
        start = _perf()
        workload.setup()
        times.append(imported + _perf() - start)
    return stats.median(times)


def measure_run(workload, tracer=None) -> Run:
    began = _perf()
    if tracer is not None:
        tracer.install()
    start = _perf()
    try:
        raw = workload.run()
        wall = _perf() - start
    except Exception:  # a failed run is counted, and the loop goes on
        wall = _perf() - start
        traceback.print_exc()
        raw = None
    finally:
        if tracer is not None:
            tracer.uninstall()
    if raw is None:
        outcome = Outcome({}, {}, {})
        failures = {i: "run raised" for i in range(workload.ops)}
    else:
        try:
            outcome = workload.check(raw)
            failures = dict(outcome.failures)
        except Exception:
            traceback.print_exc()
            outcome = Outcome({}, {}, {})
            failures = {i: "check raised" for i in range(workload.ops)}
    run = Run(wall, 0.0, workload.ops, failures, outcome.quality, outcome.notes)
    if tracer is not None:
        run.layers = layer_metrics(tracer, workload.workers)
        run.chains = [batch.draws for batch in tracer.chains]
        if not all(np.isfinite(draws).all() for draws in run.chains):
            run.failures["chains"] = "non-finite chain draws"
    run.cost = _perf() - began
    return run


def judge_repeats(runs, reference: dict) -> None:
    """A run whose quality values differ from the reference fails entirely."""
    for run in runs:
        if run.quality != reference:
            for i in range(run.attempted):
                run.failures.setdefault(f"repeat-{i}", "quality differs from the first run")


def failed_count(run: Run) -> int:
    return min(run.attempted, len(run.failures))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _openblas_threads():
    """Thread count OpenBLAS reports from inside this process, if found."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def _l3_size():
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return None


def machine_facts(workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_used": _openblas_threads(),
        "pool_start_method": multiprocessing.get_start_method(),
        "pool_workers": workload.workers,
        "l3_cache": _l3_size(),
    }


def untraced_pass(workload, seconds: float, probe_dir: Path):
    """Closed loop of untraced runs, each sampled by the speed probe."""
    runs = []
    start = _perf()
    while True:
        with SpeedProbe(probe_dir) as probe:
            run = measure_run(workload)
        run.probe = probe.seconds
        runs.append(run)
        if _perf() - start + run.cost > seconds:
            return runs


def traced_pass(workload, seconds: float):
    plain, traced = [], []
    start = _perf()
    while True:
        plain.append(measure_run(workload))
        traced.append(measure_run(workload, Tracer()))
        if _perf() - start + plain[-1].cost + traced[-1].cost > seconds:
            return plain, traced


def record(out: Path, entry: dict) -> None:
    try:
        payload = json.loads(out.read_text())
    except (OSError, ValueError):
        payload = {"runs": []}
    payload["runs"].append(entry)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=WORKDIR / "results.json")
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for the smoke tests")
    args = parser.parse_args(argv)

    workdir = WORKDIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    facts = machine_facts(workload)
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))

    setup_s = measure_setup(workload)
    if args.trace:
        plain, traced = traced_pass(workload, args.seconds)
        judge_repeats(plain + traced, plain[0].quality)
        runs = plain + traced
        wall = stats.median([r.wall for r in plain])
        values = {
            name: stats.median([r.layers.get(name, 0.0) for r in traced])
            for name in traced[0].layers
        }
        values["wall_s"] = wall
        values["trace.overhead_s"] = stats.median([r.wall for r in traced]) - wall
        values["peak_rss_mb"] = peak_rss_mb()
        chains = traced[-1].chains
        values["min_ess_per_s"] = stats.min_ess(chains) / wall if chains else 0.0
        values.update(isolated_layers(args.seed, args.tiny, workdir))
        specs = bench["per_layer"]
    else:
        runs = untraced_pass(workload, args.seconds, workdir / "probe")
        judge_repeats(runs, runs[0].quality)
        values = {
            "wall_norm": stats.median([r.wall / r.probe for r in runs]),
            "setup_s": setup_s,
        }
        specs = bench["end_to_end"]
    # A declared metric the workload does not produce (a layer it never calls,
    # a combiner it does not run) reads 0.
    quality = runs[0].quality
    for spec in specs:
        if spec["name"] not in values:
            values[spec["name"]] = quality.get(spec["name"], 0.0)
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}

    attempted = sum(r.attempted for r in runs)
    failed = sum(failed_count(r) for r in runs)
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(runs)} runs, "
        f"walls {' '.join(f'{r.wall:.3f}' for r in runs)} s"
    )
    if not args.trace:
        print(f"  speed probe {' '.join(f'{1e3 * r.probe:.3f}' for r in runs)} ms; "
              f"wall_s {stats.median([r.wall for r in runs]):.6g} s (raw median, no bound)")
    for spec in specs:
        print(f"  {spec['name']:<28} {values[spec['name']]:.6g} {spec['unit']}")
    print(f"  {'failed_frac':<28} {failed / attempted:.6g} ({failed}/{attempted} operations)")
    for name, value in sorted(quality.items()):
        print(f"  quality {name} = {value!r}")
    for name, value in sorted(runs[0].notes.items()):
        print(f"  reported, not judged: {name} = {value!r}")
    for run in runs:
        for reason in sorted(set(run.failures.values())):
            print(f"  FAILED: {reason}")

    record(args.out, {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny, "machine": facts,
        "walls": [r.wall for r in runs], "attempted": attempted, "failed": failed,
        "metrics": {n: m["value"] for n, m in metrics.items()},
        "quality": quality, "notes": runs[0].notes,
    })
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "swissmc" / "__init__.py").is_file():
        print(f"error: no swissmc sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import stats
    from layers import isolated_layers
    from speed_probe import SpeedProbe
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, Outcome

    sys.exit(main())
