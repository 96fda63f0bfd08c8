"""Discrepancy measures between an approximate and a reference sample set.

Three measures: Mahalanobis distance between the sample means in the
reference-covariance metric, mean absolute deviation of the per-dimension
standardized skewness, and the integrated absolute distance (IAD) between
marginal Gaussian kernel density estimates.

The IAD uses a Gaussian kernel with Silverman's bandwidth, one shared
512-point grid per dimension and trapezoid integration.  Each kernel reaches
six bandwidths, on the binned and the direct path alike.  A column's
Silverman quartiles and its range are read from one sorted copy of it,
with numpy's ``linear`` percentile rule, so they equal ``np.percentile``,
``min`` and ``max`` bit for bit.  The skewness cubes each standardized value
as the IEEE product ``z * z * z``: numpy sends ``z ** 3`` to libm's ``pow``,
which costs about fifty times more here and rounds as the platform's libm
does.

A reference sample is prepared once per scoring call as a ``Reference``,
which every measure takes in place of a sample matrix: its draws are
validated once and each per-column or whole-sample quantity the measures
read (bandwidths and ranges, mean, precision, skewness) is computed at most
once, however many approximate sets are scored against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, InvalidInputError, prefixed
from .linalg import spd_inverse, symmetrize

# Points in the shared per-dimension IAD grid.
_GRID_SIZE = 512

# Samples are folded into the KDE grid in blocks of this many points to keep
# the (block x grid) kernel matrix small.
_KDE_CHUNK = 4096

# Kernel reach in bandwidths: terms farther out are zero.  Each one dropped
# is below exp(-18), 1.5e-8 of the kernel's peak.
_KDE_REACH = 6.0

# Rows per slab when the draws are copied into (d, n) columns: a slab's
# transpose stays in cache, where one whole-matrix transpose does not.
_COLUMN_SLAB = 256


def _as_matrix(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidInputError("need a (n, d) sample matrix with n >= 2")
    if not np.all(np.isfinite(x)):
        raise DataError("samples contain non-finite values")
    return x


class Reference:
    """A sample set prepared for scoring.

    The draws are validated once and kept as an (n, d) matrix; everything
    the metrics read of them (contiguous (d, n) columns, per-column Silverman
    bandwidths and ranges, mean, precision, standardized skewness) is
    computed on first use and then kept.  The columns are copied in slabs of
    ``_COLUMN_SLAB`` rows, which is faster than one transpose and gives the
    same values.  A column's bandwidth and range come from one sorted copy
    of it, which is dropped once they are read; the skewness cubes by IEEE
    multiplication, not ``pow``.  A column without spread is refused with
    its index.
    Score many approximate sets against one reference by passing the same
    ``Reference`` each time; it holds nothing else, so the values equal
    those of the plain draws.  The draws are not copied: leave them
    unchanged while the ``Reference`` is in use.
    """

    def __init__(self, draws):
        self.draws = _as_matrix(draws)

    @cached_property
    def columns(self) -> np.ndarray:
        n, d = self.draws.shape
        columns = np.empty((d, n))
        for start in range(0, n, _COLUMN_SLAB):
            columns[:, start : start + _COLUMN_SLAB] = self.draws[start : start + _COLUMN_SLAB].T
        return columns

    @cached_property
    def kde_scales(self) -> list:
        """Per column: (Silverman bandwidth, low, high)."""
        scales = []
        for j, column in enumerate(self.columns):
            with prefixed(f"dimension {j}"):
                scales.append(_kde_scale(column))
        return scales

    @cached_property
    def mean(self) -> np.ndarray:
        return self.draws.mean(axis=0)

    @cached_property
    def precision(self) -> np.ndarray:
        centered = self.draws - self.mean
        return spd_inverse(symmetrize(centered.T @ centered / (self.draws.shape[0] - 1)))

    @cached_property
    def skewness(self) -> np.ndarray:
        sd = self.draws.std(axis=0, ddof=1)
        bad = np.flatnonzero(sd <= 0)
        if bad.size:
            raise DataError(f"zero variance in dimension {int(bad[0])}")
        z = (self.draws - self.mean) / sd
        return np.mean(z * z * z, axis=0)


def _sample_pair(approx, reference) -> tuple[Reference, Reference]:
    """Both sample sets, prepared, of one dimension d."""
    a, f = (s if isinstance(s, Reference) else Reference(s) for s in (approx, reference))
    if a.draws.shape[1] != f.draws.shape[1]:
        raise InvalidInputError(
            f"sample sets disagree on dimension: {a.draws.shape[1]} vs {f.draws.shape[1]}"
        )
    return a, f


def silverman_bandwidth(x) -> float:
    """Silverman's rule: 0.9 * min(sd, IQR / 1.34) * n^(-1/5)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 2:
        raise InvalidInputError("need at least two samples for a bandwidth")
    if not np.all(np.isfinite(x)):
        raise DataError("samples contain non-finite values")
    return _kde_scale(x)[0]


def _sorted_quantile(ordered: np.ndarray, q: float) -> float:
    """numpy's ``linear`` percentile of a sorted sample, in numpy's own
    arithmetic: the index (n - 1) * q is exact for quartiles, and the
    interpolation runs from the upper point when its weight is >= 0.5."""
    index = (ordered.size - 1) * q
    below = int(index)
    gamma = index - below
    a, b = float(ordered[below]), float(ordered[below + 1])
    if gamma >= 0.5:
        return b - (b - a) * (1 - gamma)
    return a + (b - a) * gamma


def _kde_scale(x: np.ndarray) -> tuple[float, float, float]:
    """Silverman bandwidth, low and high of one finite sample column.

    The quartiles and the range come from one sorted copy; the standard
    deviation sums the column in its own order, as a sum over the sorted
    copy would round differently.
    """
    sd = float(x.std(ddof=1))
    if sd <= 0:
        raise DataError("samples have zero spread")
    ordered = np.sort(x)
    iqr = _sorted_quantile(ordered, 0.75) - _sorted_quantile(ordered, 0.25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * x.size ** (-0.2), float(ordered[0]), float(ordered[-1])


def _direct_kde_sum(x: np.ndarray, bandwidth: float, grid: np.ndarray) -> np.ndarray:
    """Exact Gaussian-kernel density on an equally spaced grid, each kernel
    cut at ``_KDE_REACH`` bandwidths.

    Each sample only touches the grid points within the reach: one
    fixed-width index window per sample, clipped to the grid.  Window points
    beyond the reach are masked to exact zeros before ``exp``, so no
    subnormal is ever computed.  The samples go in ``_KDE_CHUNK``-sample
    blocks: within a block every grid point adds its terms in sample order,
    and the block sums are added in block order.  So the result equals the
    full (sample x grid) sum with the same cut formed in the same blocks bit
    for bit.  It is not one sequential sum over all samples: that differs
    in the last digits (a few parts in 1e15 at 20000 samples), and agrees
    bit for bit only when one block holds the whole sample.
    """
    size = grid.size
    step = float(grid[1] - grid[0])
    half = int(np.ceil(_KDE_REACH * bandwidth / step)) + 1
    width = min(size, 2 * half + 1)
    offsets = np.arange(width)
    density = np.zeros(size)
    for start in range(0, x.size, _KDE_CHUNK):
        chunk = x[start : start + _KDE_CHUNK]
        first = np.floor((chunk - grid[0]) / step) - half
        idx = np.clip(first, 0, size - width).astype(int)[:, None] + offsets
        z = (grid[idx] - chunk[:, None]) / bandwidth
        terms = np.exp(-0.5 * z * z, where=np.abs(z) <= _KDE_REACH, out=np.zeros(z.shape))
        density += np.bincount(idx.ravel(), weights=terms.ravel(), minlength=size)
    density /= x.size * bandwidth * np.sqrt(2.0 * np.pi)
    return density


def _gaussian_kde_on_grid(x: np.ndarray, bandwidth: float, grid: np.ndarray) -> np.ndarray:
    """Gaussian-kernel density on an equally spaced grid.

    Samples are spread onto the two nearest grid points (linear binning) and
    the binned weights are convolved with the kernel evaluated out to
    ``_KDE_REACH`` bandwidths; the binning error is far below the grid
    tolerances used here.  Bandwidths under two grid steps fall back to the
    direct sum, which cuts each kernel at the same reach, where binning
    would be too coarse.
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
    half_width = int(np.ceil(_KDE_REACH * bandwidth / step))
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
    spanning the union of the two sample ranges padded on each side by
    three times the larger of the two bandwidths, and the value is half the
    trapezoid integral of their absolute difference.  Returns the average
    over dimensions and the per-dimension vector.  The raw average can
    exceed 1 by grid error; it is clamped only when placed into a
    MetricReport.
    """
    a, f = _sample_pair(approx, reference)
    per_dim = np.empty(len(a.columns))
    for j, (xa, xf) in enumerate(zip(a.columns, f.columns)):
        (ha, lo_a, hi_a), (hf, lo_f, hi_f) = a.kde_scales[j], f.kde_scales[j]
        pad = max(ha, hf)
        lo = min(lo_a, lo_f)
        hi = max(hi_a, hi_f)
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
    delta = a.mean - f.mean
    return float(np.sqrt(delta @ f.precision @ delta))


def skew_deviation(approx, reference) -> float:
    """Mean absolute difference of per-dimension standardized third moments."""
    a, f = _sample_pair(approx, reference)
    return float(np.mean(np.abs(a.skewness - f.skewness)))


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


def compute_metrics(approx, reference, *, which=REPORT_KEYS) -> MetricReport:
    """Evaluate the discrepancy measures named in ``which`` (report keys)
    for one sample pair; pass a ``Reference`` to share its preparation
    across calls."""
    unknown = set(which) - set(REPORT_KEYS)
    if unknown:
        raise InvalidInputError(f"unknown metrics: {sorted(unknown)}")
    approx, reference = _sample_pair(approx, reference)
    mah = mahalanobis(approx, reference) if "mahalanobis" in which else None
    skew = skew_deviation(approx, reference) if "skew_dev" in which else None
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
