#!/usr/bin/env python3
"""Compare two result files written by run.py, one row per workload.

    python3 perfbench/compare.py BASE.json NEW.json

For every workload present in both files, each end-to-end metric of
BENCHMARK.json is taken as the median over that file's untraced runs, and
the row shows NEW / BASE and whether the change stays within the metric's
bound (for a lower-is-better metric: NEW <= BASE * (1 + bound)).  Exits 1 if
any metric is out of bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def medians(path: Path) -> dict:
    """workload -> metric -> (median, number of untraced runs)."""
    by_workload: dict = {}
    for run in json.loads(path.read_text())["runs"]:
        if run["trace"] == 0:
            for name, value in run["metrics"].items():
                by_workload.setdefault(run["workload"], {}).setdefault(name, []).append(value)
    return {
        workload: {name: (statistics.median(v), len(v)) for name, v in metrics.items()}
        for workload, metrics in by_workload.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base, new = medians(args.base), medians(args.new)
    all_ok = True
    for workload in sorted(set(base) & set(new)):
        cells = []
        for spec in specs:
            name = spec["name"]
            if name not in base[workload] or name not in new[workload]:
                cells.append(f"{name} missing")
                all_ok = False
                continue
            (old, n_old), (now, n_now) = base[workload][name], new[workload][name]
            ratio = now / old
            worse = ratio - 1.0 if spec["better"] == "lower" else 1.0 - ratio
            ok = worse <= spec["bound"]
            all_ok = all_ok and ok
            cells.append(
                f"{name} {now:.4g}/{old:.4g} {spec['unit']} = {ratio:.3f} "
                f"({'within' if ok else 'OUT OF'} bound {spec['bound']}, runs {n_now}/{n_old})"
            )
        print(f"{workload:<14} " + "; ".join(cells))
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload:<14} only in {'base' if workload in base else 'new'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
