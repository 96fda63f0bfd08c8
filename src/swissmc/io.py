"""File formats: the pipeline's CSV files, sample-batch sidecars and report JSON.

Every CSV file has one header line and one row per non-blank line after it:
sample batches (header ``param_0..param_{d-1}``, one draw per row), datasets
(optional response ``y``, features ``x0..x{p-1}``, optional text column
``group``) and batch assignments (header ``batch``, one batch id per row).
Floats are written with ``%.17g``, so a write/read round trip is lossless.
Input is UTF-8, blank lines are skipped, and every malformed line raises
ParseError with ``path:line``.  A sidecar named after a sample CSV with a
``.meta.json`` extension carries batch id, sizes, exponents, seed, target
name and any chain diagnostics.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ParseError
from .moments import BatchMeta, SampleBatch
from .targets import Dataset, Partition


def _read_text(path: Path) -> str:
    """The file's text; bytes that are not UTF-8 raise ParseError at their line."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        line_no = len((raw[: err.start].decode("utf-8") + "?").splitlines())
        raise ParseError(f"{path}:{line_no}: not UTF-8 text") from None


def _read_csv(path, columns, dtype=float):
    """Parse a CSV file into ``(header, values, text)``.

    ``columns(header)`` checks the stripped header fields, or raises
    ValueError, and returns the indices of the columns to read and whether
    the last of them is text.  ``values`` holds the other columns of every
    row as an (n, k) array of ``dtype``; ``text`` the stripped text, or None.
    """
    path = Path(path)
    lines = _read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}:1: empty file")
    header = [field.strip() for field in lines[0].split(",")]
    try:
        usecols, has_text = columns(header)
    except ValueError as err:
        raise ParseError(f"{path}:1: {err}") from None
    body = [(line_no, line) for line_no, line in enumerate(lines[1:], start=2) if line.strip()]
    if not body:
        raise ParseError(f"{path}:2: no rows")
    for line_no, line in body:
        if line.count(",") != len(header) - 1:
            raise ParseError(
                f"{path}:{line_no}: expected {len(header)} fields, got {line.count(',') + 1}"
            )
    fields = [("values", dtype, (len(usecols) - has_text,))] + [("text", object)] * has_text
    load = partial(np.loadtxt, dtype=fields, delimiter=",", comments=None, usecols=usecols)
    try:
        rows = load([line for _, line in body], ndmin=1)
    except ValueError:
        # numpy names no file line, so find the first line it rejects
        for line_no, line in body:
            try:
                load([line])
            except ValueError:
                raise ParseError(
                    f"{path}:{line_no}: cannot parse a field as {np.dtype(dtype).name}"
                ) from None
        raise
    values = rows["values"]
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        line_no = body[int(np.argmin(finite))][0]
        raise ParseError(f"{path}:{line_no}: non-finite value (nan or inf)")
    text = np.asarray([field.strip() for field in rows["text"]]) if has_text else None
    return header, values, text


def _write_csv(path, header: list, table: np.ndarray, fmt="%.17g") -> None:
    np.savetxt(
        path, table, fmt=fmt, delimiter=",", header=",".join(header), comments="", encoding="utf-8"
    )


def _sample_columns(header: list):
    if header != [f"param_{j}" for j in range(len(header))]:
        raise ValueError(f"expected header param_0..param_{{d-1}}, got {header}")
    return range(len(header)), False


def _dataset_columns(header: list):
    features = sorted(
        (h for h in header if h.startswith("x") and h[1:].isdigit()), key=lambda h: int(h[1:])
    )
    if not features:
        raise ValueError(f"no feature columns x0..x{{p-1}} in header {header}")
    if features != [f"x{j}" for j in range(len(features))]:
        raise ValueError("feature columns must be contiguous x0..x{p-1}")
    index = {h: i for i, h in enumerate(header)}
    names = ["y"] * ("y" in index) + features + ["group"] * ("group" in index)
    return [index[h] for h in names], "group" in index


def _assignment_columns(header: list):
    if header != ["batch"]:
        raise ValueError(f"expected header 'batch', got {header}")
    return [0], False


def meta_path(sample_path) -> Path:
    path = Path(sample_path)
    return path.with_name(path.stem + ".meta.json")


def write_sample_csv(path, draws: np.ndarray) -> None:
    draws = np.asarray(draws, dtype=float)
    _write_csv(path, [f"param_{j}" for j in range(draws.shape[1])], draws)


def read_sample_csv(path) -> np.ndarray:
    return _read_csv(path, _sample_columns)[1]


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV: response ``y``, features ``x0..``, optional ``group``."""
    header = ["y"] * (dataset.y is not None) + [f"x{j}" for j in range(dataset.x.shape[1])]
    table = dataset.x if dataset.y is None else np.column_stack([dataset.y, dataset.x])
    fmt = ["%.17g"] * len(header)
    if dataset.group is not None:
        header, fmt = header + ["group"], fmt + ["%s"]
        table = np.column_stack([table.astype(object), dataset.group])
    _write_csv(path, header, table, fmt)


def read_dataset_csv(path) -> Dataset:
    header, values, group = _read_csv(path, _dataset_columns)
    has_y = "y" in header
    x = np.ascontiguousarray(values[:, has_y:])
    return Dataset(x, values[:, 0] if has_y else None, group)


def write_assignment_csv(path, split: Partition) -> None:
    _write_csv(path, ["batch"], split.assignment[:, None], "%d")


def read_assignment_csv(path) -> Partition:
    return Partition(_read_csv(path, _assignment_columns, int)[1][:, 0])


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
        payload = read_json(sidecar)
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
    """Parse a UTF-8 JSON file; bad bytes or bad JSON raise ParseError at path:line."""
    path = Path(path)
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}:{err.lineno}: invalid JSON: {err.msg}") from None
