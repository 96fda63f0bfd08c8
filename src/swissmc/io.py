"""File formats: the pipeline's CSV files, sample-batch sidecars and report files.

Every CSV file has one header line and one row per non-blank line after it:
sample batches (header ``param_0..param_{d-1}``, one draw per row), datasets
(optional response ``y``, features ``x0..x{p-1}``; any other column is
ignored) and batch assignments (header ``batch``, one batch id per row).
Floats are written with ``%.17g``, so a write/read round trip is lossless;
a writer formats 1024 rows with one ``%`` and writes the bytes that
``np.savetxt`` would.  Input is UTF-8, blank lines are skipped, and every
malformed line raises ParseError with ``path:line``.  A reader parses first
and diagnoses only on failure: one ``np.loadtxt`` call reads the whole body,
and only a body that it refuses, or whose values are not a finite table as
wide as the header, is walked line by line to name the line it rejects.

A sidecar named after a sample CSV with a ``.meta.json`` extension carries
batch id, sizes, exponents, seed, target name and any chain diagnostics.
Reports are JSON, and the report tables (``metrics.csv``, ``bench.csv``)
are CSV written by ``write_table_csv``: an empty field for None, floats by
``repr``, anything else by ``str``.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ParseError, is_finite_number, is_integer, prefixed
from .moments import BatchMeta, SampleBatch
from .targets import Dataset, Partition

_CHUNK_ROWS = 1024  # rows per format call and write in _write_csv


def _read_text(path: Path) -> str:
    """The file's text; bytes that are not UTF-8 raise ParseError at their line."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        line_no = len((raw[: err.start].decode("utf-8") + "?").splitlines())
        raise ParseError(f"{path}:{line_no}: not UTF-8 text") from None


def _split_csv(path: Path, columns):
    """The file's lines, its stripped header fields and ``columns(header)``."""
    lines = _read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}:1: empty file")
    header = [field.strip() for field in lines[0].split(",")]
    try:
        usecols = columns(header)
    except ValueError as err:
        raise ParseError(f"{path}:1: {err}") from None
    return lines, header, usecols


def _read_csv(path, columns, dtype=float):
    """Parse a CSV file into ``(header, values)``.

    ``columns(header)`` checks the stripped header fields, or raises
    ValueError, and returns the indices of the columns to read.  ``values``
    holds those columns of every row as an (n, k) array of ``dtype``.
    One ``np.loadtxt`` call parses every column of the body.  When it fails,
    or finds no row, a width other than the header's or a non-finite value,
    ``_parse_lines`` reads the body again to name the line at fault.
    """
    path = Path(path)
    lines, header, usecols = _split_csv(path, columns)
    body = lines[1:]
    # loadtxt skips only empty lines and warns on a body of nothing else
    if any(body):
        try:
            values = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape[1] == len(header) and np.isfinite(values).all():
                # a C-ordered copy, as loadtxt's usecols gives; [:, usecols] is not
                return header, values.take(usecols, axis=1)
    return header, _parse_lines(path, lines, header, usecols, dtype)


def _parse_lines(path: Path, lines: list, header: list, usecols, dtype) -> np.ndarray:
    """The body of ``lines`` parsed line by line: blank lines are skipped,
    and the first malformed line raises ParseError at ``path:line``."""
    body = [(line_no, line) for line_no, line in enumerate(lines[1:], start=2) if line.strip()]
    if not body:
        raise ParseError(f"{path}:2: no rows")
    for line_no, line in body:
        if line.count(",") != len(header) - 1:
            raise ParseError(
                f"{path}:{line_no}: expected {len(header)} fields, got {line.count(',') + 1}"
            )
    load = partial(np.loadtxt, dtype=dtype, delimiter=",", comments=None, usecols=usecols)
    try:
        values = load([line for _, line in body], ndmin=2)
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
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        line_no = body[int(np.argmin(finite))][0]
        raise ParseError(f"{path}:{line_no}: non-finite value (nan or inf)")
    return values


def _write_csv(path, header: list, table: np.ndarray, fmt="%.17g") -> None:
    """Write ``table`` under ``header``, byte for byte as ``np.savetxt`` with
    ``delimiter=","``, ``comments=""`` and UTF-8 does, but with one ``%``
    format and one write per ``_CHUNK_ROWS`` rows in place of one per row."""
    row = ",".join([fmt] * table.shape[1]) + "\n"
    names = ",".join(header)
    with open(path, "w", encoding="utf-8") as out:
        if names:  # as in np.savetxt, an empty header writes no line
            out.write(names + "\n")
        for start in range(0, len(table), _CHUNK_ROWS):
            chunk = table[start : start + _CHUNK_ROWS]
            out.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def _table_field(value) -> str:
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_table_csv(path, header: list, rows: list) -> None:
    """Write a report table: one list of fields per row, formatted as the module says."""
    table = np.array([[_table_field(value) for value in row] for row in rows], dtype=object)
    _write_csv(path, header, table.reshape(len(rows), len(header)), "%s")


def _sample_columns(header: list):
    if header != [f"param_{j}" for j in range(len(header))]:
        raise ValueError(f"expected header param_0..param_{{d-1}}, got {header}")
    return range(len(header))


def _dataset_columns(header: list):
    features = sorted(
        (h for h in header if h.startswith("x") and h[1:].isdigit()), key=lambda h: int(h[1:])
    )
    if not features:
        raise ValueError(f"no feature columns x0..x{{p-1}} in header {header}")
    if features != [f"x{j}" for j in range(len(features))]:
        raise ValueError("feature columns must be contiguous x0..x{p-1}")
    index = {h: i for i, h in enumerate(header)}
    return [index[h] for h in ["y"] * ("y" in index) + features]


def _assignment_columns(header: list):
    if header != ["batch"]:
        raise ValueError(f"expected header 'batch', got {header}")
    return [0]


def meta_path(sample_path) -> Path:
    path = Path(sample_path)
    return path.with_name(path.stem + ".meta.json")


def write_sample_csv(path, draws: np.ndarray) -> None:
    draws = np.asarray(draws, dtype=float)
    _write_csv(path, [f"param_{j}" for j in range(draws.shape[1])], draws)


def read_sample_csv(path) -> np.ndarray:
    return _read_csv(path, _sample_columns)[1]


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV: response ``y``, then features ``x0..``."""
    header = ["y"] * (dataset.y is not None) + [f"x{j}" for j in range(dataset.x.shape[1])]
    table = dataset.x if dataset.y is None else np.column_stack([dataset.y, dataset.x])
    _write_csv(path, header, table)


def read_dataset_csv(path) -> Dataset:
    header, values = _read_csv(path, _dataset_columns)
    has_y = "y" in header
    x = np.ascontiguousarray(values[:, has_y:])
    return Dataset(x, values[:, 0] if has_y else None)


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
    write_json(meta_path(path), meta)


def read_batch(path, *, fallback_batch_id: int = 0) -> SampleBatch:
    """Read a batch CSV; the sidecar is used when present, else defaults.

    A sidecar that is not a JSON object, or whose field holds the wrong type
    (``batch_id``/``seed`` not an integer, an exponent not a finite number,
    ``target_name`` not a string) or disagrees with the CSV (``n_draws``,
    ``dim``), raises ParseError naming it and the field.  A table that
    SampleBatch refuses (fewer than 2 rows) raises its error prefixed with
    the CSV path.
    """
    draws = read_sample_csv(path)
    sidecar = meta_path(path)
    if not sidecar.exists():
        with prefixed(str(path)):
            return SampleBatch(fallback_batch_id, draws)
    payload = read_json(sidecar)
    if not isinstance(payload, dict):
        raise ParseError(f"{sidecar}: expected a JSON object, got {type(payload).__name__}")

    def field(key, default, check, what):
        value = payload.get(key, default)
        if not check(value):
            raise ParseError(f"{sidecar}: {key} must be {what}, got {value!r}")
        return value

    for key, size in zip(("n_draws", "dim"), draws.shape):
        field(key, size, lambda v: is_integer(v) and v == size, f"{size} to match the CSV")
    number = "a finite number"
    meta = BatchMeta(
        inflation_exponent=float(field("inflation_exponent", 1.0, is_finite_number, number)),
        prior_exponent=float(field("prior_exponent", 1.0, is_finite_number, number)),
        seed=field("seed", 0, is_integer, "an integer"),
        target_name=field("target_name", "", lambda value: isinstance(value, str), "a string"),
    )
    batch_id = field("batch_id", fallback_batch_id, is_integer, "an integer")
    with prefixed(str(path)):
        return SampleBatch(batch_id, draws, meta=meta, diagnostics=payload.get("diagnostics"))


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
