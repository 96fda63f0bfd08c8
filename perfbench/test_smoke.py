"""Smoke tests: every workload runs at toy size, untraced and traced, and
prints every metric of BENCHMARK.json by name.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(tmp_path, workload, trace):
    out = tmp_path / "results.json"
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny", "--out", str(out)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout, out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(tmp_path, workload, trace):
    stdout, out = _run(tmp_path, workload, trace)
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for spec in specs:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert f"  {spec['name']} " in stdout
    assert json.loads(out.read_text())["runs"][0]["workload"] == workload


def test_compare_prints_one_row_per_workload(tmp_path):
    for workload in WORKLOADS:
        _, out = _run(tmp_path, workload, 0)
    done = subprocess.run([sys.executable, str(HERE / "compare.py"), str(out), str(out)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = done.stdout.splitlines()
    assert [row.split()[0] for row in rows] == sorted(WORKLOADS)
    assert all("= 1.000 (within bound" in row for row in rows)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "stats.py", "tracer.py", "workloads.py", "layers.py", "speed_probe.py"):
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
