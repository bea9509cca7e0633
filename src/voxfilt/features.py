"""Scalar features aggregated over a region of interest.

The eighteen intensity statistics summarise the response-map values inside
the ROI intensity mask; five diagnostic values describe the mask itself.
Both read the ROI through one gather in memory order (``k1`` fastest) that
adds ``0.0`` to every value, which turns -0.0 into +0.0 and leaves every
other value as it is.  The statistics sort the gathered values before any
reduction, which makes each of them independent of voxel enumeration order
(bitwise, not just numerically: numpy's sort is not stable, so without the
zero fix the sign of a zero median or extreme would depend on voxel order)
and feeds the rank-based statistics directly.  The diagnostics' mean sums
in ``k1``-fastest order.

Every sum runs leaf by leaf down numpy's own pairwise-sum tree
(:func:`_tree_sums`), so it has the bytes of one whole-array
``np.add.reduce`` while the values are read in cache-sized pieces.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .image import RoiMask, VolumeImage

__all__ = [
    "FeatureValue",
    "FEATURE_IDS",
    "intensity_statistics",
    "diagnostics",
    "format_3sig",
    "write_feature_csv",
    "write_feature_json",
]


@dataclass(frozen=True)
class FeatureValue:
    """One named scalar; ``ibsi_id`` is empty for diagnostic values."""

    ibsi_id: str
    name: str
    value: float


FEATURE_IDS = (
    ("Q4LE", "mean"),
    ("ECT3", "variance"),
    ("KE2A", "skewness"),
    ("IPH6", "excess_kurtosis"),
    ("Y12H", "median"),
    ("1GSF", "minimum"),
    ("QG58", "percentile_10"),
    ("8DWT", "percentile_90"),
    ("84IY", "maximum"),
    ("SALO", "interquartile_range"),
    ("2OJQ", "range"),
    ("4FUA", "mean_absolute_deviation"),
    ("1128", "robust_mean_absolute_deviation"),
    ("N72L", "median_absolute_deviation"),
    ("7TET", "coefficient_of_variation"),
    ("9S40", "quartile_coefficient_of_dispersion"),
    ("N8CA", "energy"),
    ("5ZWQ", "root_mean_square"),
)


def _roi_values(image, mask) -> np.ndarray:
    """The voxels of ``image`` inside ``mask`` as a new float64 array, in
    ``k1``-fastest order and with -0.0 made +0.0.  For Fortran-ordered
    arrays both are read in memory order and nothing else is copied."""
    data = image.data if isinstance(image, VolumeImage) else np.asarray(image)
    member = mask.membership if isinstance(mask, RoiMask) else np.asarray(mask)
    if member.dtype != np.bool_:
        raise ValueError("mask must be boolean")
    if member.shape != data.shape:
        raise ValueError(f"mask dims {member.shape} do not match map dims {data.shape}")
    values = data.ravel("F")[member.ravel("F")].astype(np.float64, copy=False)
    values += 0.0
    return values


def _masked_values(response, mask) -> np.ndarray:
    values = _roi_values(response, mask)
    if values.size == 0:
        raise ValueError("empty ROI")
    values.sort()
    return values


def _ratio_or_zero(numerator: float, denominator: float) -> float:
    if denominator == 0.0:
        return 0.0 if numerator == 0.0 else math.inf * math.copysign(1.0, numerator)
    return numerator / denominator


def _percentile_sorted(x: np.ndarray, q: float) -> float:
    """``np.percentile(x, q)`` of sorted finite values, with numpy's "linear"
    arithmetic and no partition: virtual index (n - 1) * q / 100, then
    a + (b - a) * t, or b - (b - a) * (1 - t) when t >= 0.5."""
    n = x.size
    index = (n - 1) * (q / 100.0)
    if index >= n - 1:
        return float(x[-1])
    below = math.floor(index)
    a, b = float(x[below]), float(x[below + 1])
    t = index - below
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def _between_sorted(x: np.ndarray, low: float, high: float) -> np.ndarray:
    """The values of sorted ``x`` in [low, high], as a slice of ``x``."""
    return x[np.searchsorted(x, low, "left"):np.searchsorted(x, high, "right")]


# Values per leaf of the pairwise-sum tree; at least numpy's own block of
# 128, so that below a leaf np.add.reduce builds the rest of the tree.  The
# bytes do not depend on it.  A 2^15 leaf and its scratch buffer (512 KB)
# stay in L2; on 2^19-voxel ROIs 2^15 was the fastest and 2^14 close.
_LEAF = 1 << 15


def _tree_sums(values: np.ndarray, leaf) -> tuple[float, ...]:
    """The sums ``leaf(piece)`` returns for each leaf of contiguous float64
    ``values``, added up numpy's pairwise-sum tree.

    ``np.add.reduce`` halves a run of more than 128 values, the first half
    rounded down to a multiple of 8, and adds the halves' sums.  This splits
    the same way down to leaves of at most ``_LEAF`` values, so where
    ``leaf`` sums terms with ``np.add.reduce``, each total equals
    ``np.add.reduce`` over the whole array of those terms, bit for bit.
    """
    n = values.size
    if n <= _LEAF:
        return tuple(float(v) for v in leaf(values))
    half = n // 2 - n // 2 % 8
    left, right = _tree_sums(values[:half], leaf), _tree_sums(values[half:], leaf)
    return tuple(a + b for a, b in zip(left, right))


def _moments(n: int, square_sum: float, cube_sum: float,
             fourth_sum: float) -> tuple[float, float, float]:
    """Variance, skewness and excess kurtosis from the sums of the centred
    values' products c*c, (c*c)*c and (c*c)*(c*c), not of ``**`` powers
    (whose bytes depend on numpy's SIMD dispatch level)."""
    variance = square_sum / n
    if not variance > 0.0:
        return variance, 0.0, 0.0
    skewness = cube_sum / n / variance**1.5
    kurtosis = fourth_sum / n / variance**2 - 3.0
    return variance, skewness, kurtosis


def _deviation_sums(piece: np.ndarray, centre: float, scratch: np.ndarray) -> tuple:
    """A leaf's sum and sum of |piece - centre|, the latter worked out in
    the head of ``scratch``."""
    deviation = np.subtract(piece, centre, out=scratch[:piece.size])
    return np.add.reduce(piece), np.add.reduce(np.abs(deviation, out=deviation))


def intensity_statistics(response, mask) -> tuple[FeatureValue, ...]:
    """The eighteen intensity-based statistics of a masked response map.

    Variance is population-style (divide by N).  Skewness and excess
    kurtosis are defined as 0 for a constant region.  Percentiles use
    linear interpolation between closest ranks, read from the sorted ROI
    values.  The sums take two passes over the leaves of the sorted values
    and two over the robust slice, with one leaf-sized scratch buffer; the
    last pass centres the values in place.
    """
    x = _masked_values(response, mask)
    n = x.size
    scratch = np.empty(min(n, _LEAF))
    p10, p25, median, p75, p90 = (
        _percentile_sorted(x, q) for q in (10.0, 25.0, 50.0, 75.0, 90.0)
    )
    minimum = float(x[0])
    maximum = float(x[-1])

    def first(piece):
        sums = _deviation_sums(piece, median, scratch)
        return sums + (np.add.reduce(np.multiply(piece, piece, out=scratch[:piece.size])),)

    total, median_sum, energy = _tree_sums(x, first)
    mean = total / n
    robust = _between_sorted(x, p10, p90)
    robust_mad = 0.0
    if robust.size:
        (robust_sum,) = _tree_sums(robust, lambda piece: (np.add.reduce(piece),))
        robust_mean = robust_sum / robust.size
        _, robust_deviation = _tree_sums(
            robust, lambda piece: _deviation_sums(piece, robust_mean, scratch))
        robust_mad = robust_deviation / robust.size

    def centred(piece):  # last, as it overwrites x, of which robust is a view
        c = np.subtract(piece, mean, out=piece)
        c2 = scratch[:piece.size]
        abs_sum = np.add.reduce(np.abs(c, out=c2))
        square_sum = np.add.reduce(np.multiply(c, c, out=c2))
        cube_sum = np.add.reduce(np.multiply(c2, c, out=c))
        return abs_sum, square_sum, cube_sum, np.add.reduce(np.multiply(c2, c2, out=c2))

    abs_sum, *power_sums = _tree_sums(x, centred)
    variance, skewness, kurtosis = _moments(n, *power_sums)
    cov = _ratio_or_zero(math.sqrt(variance), mean) if variance > 0.0 else 0.0
    qcd = _ratio_or_zero(p75 - p25, p75 + p25)

    by_name = {
        "mean": mean,
        "variance": variance,
        "skewness": skewness,
        "excess_kurtosis": kurtosis,
        "median": median,
        "minimum": minimum,
        "percentile_10": p10,
        "percentile_90": p90,
        "maximum": maximum,
        "interquartile_range": p75 - p25,
        "range": maximum - minimum,
        "mean_absolute_deviation": abs_sum / n,
        "robust_mean_absolute_deviation": robust_mad,
        "median_absolute_deviation": median_sum / n,
        "coefficient_of_variation": cov,
        "quartile_coefficient_of_dispersion": qcd,
        "energy": energy,
        "root_mean_square": math.sqrt(energy / n),
    }
    return tuple(FeatureValue(fid, name, by_name[name]) for fid, name in FEATURE_IDS)


def diagnostics(mask_before, mask_after, image_after) -> tuple[FeatureValue, ...]:
    """Mask bookkeeping: voxel counts plus intensity extremes after processing.

    With an empty final mask the counts are still reported and the three
    intensity entries are flagged as NaN.  The mean, maximum and minimum
    come from one pass over the leaves of the gathered values.
    """
    before = mask_before.membership if isinstance(mask_before, RoiMask) else mask_before
    values = _roi_values(image_after, mask_after)
    count_before = int(np.count_nonzero(before))
    count_after = values.size
    if count_after:
        highs, lows = [], []

        def leaf(piece):
            highs.append(np.maximum.reduce(piece))
            lows.append(np.minimum.reduce(piece))
            return (np.add.reduce(piece),)

        (total,) = _tree_sums(values, leaf)
        mean, high, low = total / count_after, float(max(highs)), float(min(lows))
    else:
        mean = high = low = math.nan
    return (
        FeatureValue("", "roi_voxels_before_interpolation", float(count_before)),
        FeatureValue("", "roi_voxels_after_resegmentation", float(count_after)),
        FeatureValue("", "roi_intensity_mean", mean),
        FeatureValue("", "roi_intensity_max", high),
        FeatureValue("", "roi_intensity_min", low),
    )


def format_3sig(value: float) -> str:
    """Three significant digits, the precision used when pooling submissions."""
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.3g}"


def _rows(test_id: str, features) -> list[dict]:
    return [
        {
            "test_id": test_id,
            "ibsi_id": f.ibsi_id,
            "name": f.name,
            "value": repr(float(f.value)),
            "value_3sig": format_3sig(f.value),
        }
        for f in features
    ]


def write_feature_csv(path, test_id: str, features) -> None:
    """One row per feature; byte-stable for identical inputs."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(
            handle,
            fieldnames=["test_id", "ibsi_id", "name", "value", "value_3sig"],
            lineterminator="\n",
        )
        writer.writeheader()
        writer.writerows(_rows(test_id, features))


def write_feature_json(path, test_id: str, features) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_rows(test_id, features), handle, indent=2)
        handle.write("\n")
