"""Discrepancy measures between an approximate and a reference sample set.

Three measures: Mahalanobis distance between the sample means in the
reference-covariance metric, mean absolute deviation of the per-dimension
standardized skewness, and the integrated absolute distance (IAD) between
marginal Gaussian kernel density estimates.

The IAD uses a Gaussian kernel with Silverman's bandwidth, one shared
512-point grid per dimension and trapezoid integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidInputError
from .linalg import spd_inverse, symmetrize

# Points in the shared per-dimension IAD grid.
_GRID_SIZE = 512

# Samples are folded into the KDE grid in blocks of this many points to keep
# the (block x grid) kernel matrix small.
_KDE_CHUNK = 4096

# Kernel reach in bandwidths: past 38.6 the Gaussian kernel underflows to 0.0.
_KDE_CUTOFF = 39.0


def _as_matrix(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidInputError("need a (n, d) sample matrix with n >= 2")
    if not np.all(np.isfinite(x)):
        raise DataError("samples contain non-finite values")
    return x


def _sample_pair(approx, reference) -> tuple[np.ndarray, np.ndarray]:
    """Both sample sets as (n, d) matrices of one dimension d."""
    a, f = _as_matrix(approx), _as_matrix(reference)
    if a.shape[1] != f.shape[1]:
        raise InvalidInputError(
            f"sample sets disagree on dimension: {a.shape[1]} vs {f.shape[1]}"
        )
    return a, f


def silverman_bandwidth(x) -> float:
    """Silverman's rule: 0.9 * min(sd, IQR / 1.34) * n^(-1/5)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 2:
        raise InvalidInputError("need at least two samples for a bandwidth")
    sd = float(x.std(ddof=1))
    if sd <= 0:
        raise DataError("samples have zero spread")
    q75, q25 = np.percentile(x, [75, 25])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * x.size ** (-0.2)


def _direct_kde_sum(x: np.ndarray, bandwidth: float, grid: np.ndarray) -> np.ndarray:
    """Exact Gaussian-kernel density on an equally spaced grid.

    ``exp(-0.5 z**2)`` is exactly 0.0 in float64 beyond |z| = 38.6, so each
    sample only touches the grid points within ``_KDE_CUTOFF`` bandwidths of
    it: one fixed-width index window per sample, clipped to the grid.  The
    skipped terms are exact zeros and every grid point still adds its terms
    in sample order, so the result equals the full (sample x grid) sum bit
    for bit.
    """
    size = grid.size
    step = float(grid[1] - grid[0])
    half = int(np.ceil(_KDE_CUTOFF * bandwidth / step)) + 1
    width = min(size, 2 * half + 1)
    offsets = np.arange(width)
    density = np.zeros(size)
    for start in range(0, x.size, _KDE_CHUNK):
        chunk = x[start : start + _KDE_CHUNK]
        first = np.floor((chunk - grid[0]) / step) - half
        idx = np.clip(first, 0, size - width).astype(int)[:, None] + offsets
        z = (grid[idx] - chunk[:, None]) / bandwidth
        density += np.bincount(idx.ravel(), weights=np.exp(-0.5 * z * z).ravel(), minlength=size)
    density /= x.size * bandwidth * np.sqrt(2.0 * np.pi)
    return density


def _gaussian_kde_on_grid(x: np.ndarray, bandwidth: float, grid: np.ndarray) -> np.ndarray:
    """Gaussian-kernel density on an equally spaced grid.

    Samples are spread onto the two nearest grid points (linear binning) and
    the binned weights are convolved with the kernel evaluated out to six
    bandwidths; the binning error is far below the grid tolerances used
    here.  Bandwidths under two grid steps fall back to the direct sum,
    where binning would be too coarse.
    """
    step = float(grid[1] - grid[0])
    if bandwidth < 2.0 * step:
        return _direct_kde_sum(x, bandwidth, grid)
    size = grid.size
    position = np.clip((x - grid[0]) / step, 0.0, size - 1.0)
    left = np.minimum(position.astype(int), size - 2)
    frac = position - left
    weights = np.bincount(left, weights=1.0 - frac, minlength=size)
    weights += np.bincount(left + 1, weights=frac, minlength=size)
    half_width = int(np.ceil(6.0 * bandwidth / step))
    if 2 * half_width + 1 > size:
        return _direct_kde_sum(x, bandwidth, grid)
    offsets = np.arange(-half_width, half_width + 1) * step / bandwidth
    kernel = np.exp(-0.5 * offsets * offsets)
    density = np.convolve(weights, kernel, mode="same")
    density /= x.size * bandwidth * np.sqrt(2.0 * np.pi)
    return density


def iad(approx, reference) -> tuple[float, np.ndarray]:
    """Integrated absolute distance between marginal KDEs.

    Per dimension both density estimates are evaluated on one shared grid
    spanning the union of the two sample ranges padded by three pooled
    bandwidths, and the value is half the trapezoid integral of their
    absolute difference.  Returns the average over dimensions and the
    per-dimension vector.  The raw average can exceed 1 by grid error; it is
    clamped only when placed into a MetricReport.
    """
    a, f = _sample_pair(approx, reference)
    d = a.shape[1]
    per_dim = np.empty(d)
    for j in range(d):
        xa = a[:, j]
        xf = f[:, j]
        ha = silverman_bandwidth(xa)
        hf = silverman_bandwidth(xf)
        pad = max(ha, hf)
        lo = min(float(xa.min()), float(xf.min()))
        hi = max(float(xa.max()), float(xf.max()))
        grid = np.linspace(lo - 3.0 * pad, hi + 3.0 * pad, _GRID_SIZE)
        da = _gaussian_kde_on_grid(xa, ha, grid)
        df = _gaussian_kde_on_grid(xf, hf, grid)
        per_dim[j] = 0.5 * float(np.trapezoid(np.abs(da - df), grid))
    return float(per_dim.mean()), per_dim


def mahalanobis(approx, reference) -> float:
    """Distance between sample means in the reference-covariance metric.

    Not symmetric in its arguments: the covariance is always estimated from
    the reference sample.
    """
    a, f = _sample_pair(approx, reference)
    delta = a.mean(axis=0) - f.mean(axis=0)
    centered = f - f.mean(axis=0)
    cov_f = symmetrize(centered.T @ centered / (f.shape[0] - 1))
    precision = spd_inverse(cov_f)
    return float(np.sqrt(delta @ precision @ delta))


def _standardized_skewness(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=0)
    sd = x.std(axis=0, ddof=1)
    bad = np.flatnonzero(sd <= 0)
    if bad.size:
        raise DataError(f"zero variance in dimension {int(bad[0])}")
    return np.mean(((x - mean) / sd) ** 3, axis=0)


def skew_deviation(approx, reference) -> float:
    """Mean absolute difference of per-dimension standardized third moments."""
    a, f = _sample_pair(approx, reference)
    return float(np.mean(np.abs(_standardized_skewness(a) - _standardized_skewness(f))))


# The MetricReport fields that each hold one metric value, in report order.
REPORT_KEYS = ("mahalanobis", "skew_dev", "iad")


@dataclass(eq=False)
class MetricReport:
    """All discrepancy values for one approximate sample set.

    ``iad`` is the per-dimension average clamped into [0, 1] for reporting;
    ``iad_raw`` keeps the unclamped value for diagnostics.
    """

    mahalanobis: float | None
    skew_dev: float | None
    iad: float | None
    per_dimension_iad: np.ndarray | None
    iad_raw: float | None

    def to_dict(self) -> dict:
        payload = {key: getattr(self, key) for key in (*REPORT_KEYS, "iad_raw")}
        per_dim = self.per_dimension_iad
        payload["per_dimension_iad"] = None if per_dim is None else [float(v) for v in per_dim]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricReport":
        per_dim = payload.get("per_dimension_iad")
        return cls(
            **{key: payload.get(key) for key in (*REPORT_KEYS, "iad_raw")},
            per_dimension_iad=None if per_dim is None else np.asarray(per_dim, dtype=float),
        )


METRIC_NAMES = ("mahalanobis", "skew", "iad")


def compute_metrics(approx, reference, *, which=METRIC_NAMES) -> MetricReport:
    """Evaluate the requested discrepancy measures for one sample pair."""
    unknown = set(which) - set(METRIC_NAMES)
    if unknown:
        raise InvalidInputError(f"unknown metrics: {sorted(unknown)}")
    mah = mahalanobis(approx, reference) if "mahalanobis" in which else None
    skew = skew_deviation(approx, reference) if "skew" in which else None
    iad_clamped = raw = per_dim = None
    if "iad" in which:
        raw, per_dim = iad(approx, reference)
        iad_clamped = min(max(raw, 0.0), 1.0)
    return MetricReport(
        mahalanobis=mah,
        skew_dev=skew,
        iad=iad_clamped,
        per_dimension_iad=per_dim,
        iad_raw=raw,
    )
