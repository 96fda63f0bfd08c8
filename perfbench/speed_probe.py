"""A machine-speed probe sampled inside every timed untraced run.

The benchmark's host is a shared VM whose single-thread speed drifts by up to
about 1.6x within minutes, far more than seed-to-seed differences in the
work.  The end-to-end ``wall_norm`` metric therefore divides a run's wall time
by the current speed of the machine, measured during that same run: every
``PERIOD_S`` seconds a SIGALRM handler runs a small fixed kernel and records
its CPU time (``time.thread_time``, so time spent waiting for a core does not
count).  Processes forked during the run (the chain pool workers) arm the
same timer through an at-fork hook, so the probe also samples the cores the
chains run on.  Each process appends its samples to its own file, which
survives a worker being terminated.

The kernel uses nothing from swissmc and fixed inputs, and mixes the kinds of
work the workloads do: long-vector numpy arithmetic (the logistic
log-density), calls on small matrices (the vectorised Jacobi sweeps) and
interpreter-bound text formatting and parsing (the sample CSV files).  A
change to swissmc cannot move it; a change to numpy, the BLAS or the
interpreter can, and the raw ``wall_s`` of the traced pass tells the two
apart.  Its cost is about 1.5% of each process's time.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.2

_gen = np.random.default_rng(0)
_rows = _gen.standard_normal((20_000, 6))
_coef = 0.1 * _gen.standard_normal(6)
_factor = _gen.standard_normal((20, 20))
_spd = _factor @ _factor.T / 20 + np.eye(20)
_text_rows = _rows[:40].tolist()

# The directory samples go to while a probe is active, this process's sample
# file, and a guard against a signal arriving inside the handler.
_state = {"dir": None, "file": None, "busy": False}


def _kernel() -> float:
    total = 0.0
    for _ in range(2):
        total += float(np.sum(np.logaddexp(0.0, _rows @ _coef)))
    for _ in range(40):
        off = np.abs(_spd)
        np.fill_diagonal(off, 0.0)
        total += float(off.max())
    for i in range(2000):
        total += (i * 7) % 13
    text = "\n".join(",".join(repr(v) for v in row) for row in _text_rows)
    return total + sum(float(t) for t in text.replace("\n", ",").split(","))


def _sample(signum, frame) -> None:
    if _state["busy"] or _state["file"] is None:
        return
    _state["busy"] = True
    try:
        start = time.thread_time()
        _kernel()
        _state["file"].write(f"{time.thread_time() - start!r}\n")
    finally:
        _state["busy"] = False


def _arm(directory: Path) -> None:
    _state["file"] = open(directory / f"probe-{os.getpid()}.txt", "a", buffering=1)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def _in_child() -> None:
    # Interval timers are not inherited across fork; the handler is.
    _state["file"] = None
    _state["busy"] = False
    if _state["dir"] is not None:
        _arm(_state["dir"])


os.register_at_fork(after_in_child=_in_child)


class SpeedProbe:
    """Context manager; ``samples`` holds the kernel CPU times (s) afterwards."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.samples: list = []

    def __enter__(self):
        self.directory.mkdir(parents=True, exist_ok=True)
        for old in self.directory.glob("probe-*.txt"):
            old.unlink()
        self.saved_handler = signal.signal(signal.SIGALRM, _sample)
        _state["dir"] = self.directory
        _arm(self.directory)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        _state["dir"] = None
        _state["file"].close()
        _state["file"] = None
        signal.signal(signal.SIGALRM, self.saved_handler)
        for path in sorted(self.directory.glob("probe-*.txt")):
            self.samples.extend(float(line) for line in path.read_text().split())
            path.unlink()
        if not self.samples:  # a run shorter than one period
            start = time.thread_time()
            _kernel()
            self.samples.append(time.thread_time() - start)
        return False

    @property
    def seconds(self) -> float:
        """Mean kernel CPU time over every sample of every process."""
        return float(np.mean(self.samples))
