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


def _moments(centred: np.ndarray, scratch: np.ndarray) -> tuple[float, float, float]:
    """Variance, skewness and excess kurtosis of centred values, from
    products rather than ``**`` powers (whose bytes depend on numpy's SIMD
    dispatch level).  The squares go to ``scratch`` and the cubes overwrite
    ``centred``."""
    c2 = np.multiply(centred, centred, out=scratch)
    variance = float(np.mean(c2))
    if not variance > 0.0:
        return variance, 0.0, 0.0
    skewness = float(np.mean(np.multiply(c2, centred, out=centred))) / variance**1.5
    kurtosis = float(np.mean(np.multiply(c2, c2, out=c2))) / variance**2 - 3.0
    return variance, skewness, kurtosis


def _mean_abs_deviation(x: np.ndarray, centre, scratch: np.ndarray) -> float:
    """mean(|x - centre|), worked out in the head of ``scratch``."""
    deviation = np.subtract(x, centre, out=scratch[:x.size])
    return float(np.mean(np.abs(deviation, out=deviation)))


def intensity_statistics(response, mask) -> tuple[FeatureValue, ...]:
    """The eighteen intensity-based statistics of a masked response map.

    Variance is population-style (divide by N).  Skewness and excess
    kurtosis are defined as 0 for a constant region.  Percentiles use
    linear interpolation between closest ranks, read from the sorted ROI
    values.  Besides the gathered values the work needs one ROI-sized
    scratch array: whatever reads the sorted values comes first, then they
    are centred in place for the moments.
    """
    x = _masked_values(response, mask)
    n = x.size
    scratch = np.empty_like(x)
    mean = float(x.mean())
    p10, p25, median, p75, p90 = (
        _percentile_sorted(x, q) for q in (10.0, 25.0, 50.0, 75.0, 90.0)
    )
    minimum = float(x[0])
    maximum = float(x[-1])
    robust = _between_sorted(x, p10, p90)
    robust_mad = _mean_abs_deviation(robust, robust.mean(), scratch) if robust.size else 0.0
    median_ad = _mean_abs_deviation(x, median, scratch)
    energy = float(np.sum(np.multiply(x, x, out=scratch)))
    rms = math.sqrt(energy / n)
    centred = np.subtract(x, mean, out=x)
    mad = float(np.mean(np.abs(centred, out=scratch)))
    variance, skewness, kurtosis = _moments(centred, scratch)
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
        "mean_absolute_deviation": mad,
        "robust_mean_absolute_deviation": robust_mad,
        "median_absolute_deviation": median_ad,
        "coefficient_of_variation": cov,
        "quartile_coefficient_of_dispersion": qcd,
        "energy": energy,
        "root_mean_square": rms,
    }
    return tuple(FeatureValue(fid, name, by_name[name]) for fid, name in FEATURE_IDS)


def diagnostics(mask_before, mask_after, image_after) -> tuple[FeatureValue, ...]:
    """Mask bookkeeping: voxel counts plus intensity extremes after processing.

    With an empty final mask the counts are still reported and the three
    intensity entries are flagged as NaN.
    """
    before = mask_before.membership if isinstance(mask_before, RoiMask) else mask_before
    values = _roi_values(image_after, mask_after)
    count_before = int(np.count_nonzero(before))
    count_after = values.size
    if count_after:
        mean, high, low = float(values.mean()), float(values.max()), float(values.min())
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
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(
            handle,
            fieldnames=["test_id", "ibsi_id", "name", "value", "value_3sig"],
            lineterminator="\n",
        )
        writer.writeheader()
        writer.writerows(_rows(test_id, features))


def write_feature_json(path, test_id: str, features) -> None:
    with open(path, "w") as handle:
        json.dump(_rows(test_id, features), handle, indent=2)
        handle.write("\n")
