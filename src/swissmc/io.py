"""File formats: sample-batch CSV with a JSON sidecar, and report JSON.

Sample batches are stored as CSV with header ``param_0..param_{d-1}``, one
draw per row, floats written with ``repr`` so a write/read round trip is
lossless.  A sidecar named after the CSV with a ``.meta.json`` extension
carries batch id, sizes, exponents, seed, target name and any chain
diagnostics.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ParseError
from .moments import BatchMeta, SampleBatch


def meta_path(sample_path) -> Path:
    path = Path(sample_path)
    return path.with_name(path.stem + ".meta.json")


def write_sample_csv(path, draws: np.ndarray) -> None:
    path = Path(path)
    draws = np.asarray(draws, dtype=float)
    d = draws.shape[1]
    with path.open("w") as handle:
        handle.write(",".join(f"param_{j}" for j in range(d)) + "\n")
        for row in draws:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def read_sample_csv(path) -> np.ndarray:
    path = Path(path)
    with path.open() as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ParseError(f"{path}:1: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    expected = [f"param_{j}" for j in range(len(header))]
    if header != expected:
        raise ParseError(f"{path}:1: expected header param_0..param_{{d-1}}, got {header}")
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tokens = line.split(",")
        if len(tokens) != len(header):
            raise ParseError(
                f"{path}:{line_no}: expected {len(header)} fields, got {len(tokens)}"
            )
        try:
            rows.append([float(t) for t in tokens])
        except ValueError:
            raise ParseError(f"{path}:{line_no}: cannot parse a field as a number") from None
    if not rows:
        raise ParseError(f"{path}:2: no draws")
    draws = np.asarray(rows)
    require_finite(path, lines, draws)
    return draws


def require_finite(path, lines: list, values: np.ndarray) -> None:
    """Raise ParseError at the line of the first row of ``values`` that holds
    a non-finite number; row i was parsed from the i-th non-blank line after
    the header of ``lines``.  Only a failing check walks the lines."""
    finite_rows = np.isfinite(values).all(axis=1)
    if finite_rows.all():
        return
    bad_row = int(np.argmin(finite_rows))
    line_nos = (no for no, line in enumerate(lines[1:], start=2) if line.strip())
    line_no = next(islice(line_nos, bad_row, None))
    raise ParseError(f"{path}:{line_no}: non-finite value (nan or inf)")


def write_batch(path, batch: SampleBatch) -> None:
    """Write a batch's draws plus its ``.meta.json`` sidecar."""
    write_sample_csv(path, batch.draws)
    meta = {
        "batch_id": batch.batch_id,
        "n_draws": batch.n_draws,
        "dim": batch.dim,
        "inflation_exponent": batch.meta.inflation_exponent,
        "prior_exponent": batch.meta.prior_exponent,
        "seed": batch.meta.seed,
        "target_name": batch.meta.target_name,
    }
    if batch.diagnostics is not None:
        meta["diagnostics"] = batch.diagnostics
    meta_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def read_batch(path, *, fallback_batch_id: int = 0) -> SampleBatch:
    """Read a batch CSV; the sidecar is used when present, else defaults."""
    draws = read_sample_csv(path)
    sidecar = meta_path(path)
    if sidecar.exists():
        try:
            payload = json.loads(sidecar.read_text())
        except json.JSONDecodeError as err:
            raise ParseError(f"{sidecar}:{err.lineno}: invalid JSON: {err.msg}") from None
        meta = BatchMeta(
            inflation_exponent=float(payload.get("inflation_exponent", 1.0)),
            prior_exponent=float(payload.get("prior_exponent", 1.0)),
            seed=int(payload.get("seed", 0)),
            target_name=str(payload.get("target_name", "")),
        )
        batch_id = int(payload.get("batch_id", fallback_batch_id))
        diagnostics = payload.get("diagnostics")
    else:
        meta = BatchMeta()
        batch_id = fallback_batch_id
        diagnostics = None
    return SampleBatch(batch_id, draws, meta=meta, diagnostics=diagnostics)


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}:{err.lineno}: invalid JSON: {err.msg}") from None
