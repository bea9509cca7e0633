"""Scalar features aggregated over a region of interest.

The eighteen intensity statistics summarise the response-map values inside
the ROI intensity mask; five diagnostic values describe the mask itself.
Masked values are sorted before any reduction, which makes every feature
independent of voxel enumeration order (bitwise, not just numerically) and
feeds the rank-based statistics directly.
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
    "aggregate_mean",
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


def _masked_values(response, mask) -> np.ndarray:
    data = response.data if isinstance(response, VolumeImage) else np.asarray(response)
    member = mask.membership if isinstance(mask, RoiMask) else np.asarray(mask)
    if member.dtype != np.bool_:
        raise ValueError("mask must be boolean")
    if member.shape != data.shape:
        raise ValueError(f"mask dims {member.shape} do not match map dims {data.shape}")
    values = np.sort(data[member].astype(np.float64, copy=False))
    if values.size == 0:
        raise ValueError("empty ROI")
    return values


def aggregate_mean(response, mask) -> float:
    """Mean response over the ROI."""
    values = _masked_values(response, mask)
    return float(values.mean())


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


def _moments(centred: np.ndarray) -> tuple[float, float, float]:
    """Variance, skewness and excess kurtosis of centred values, from
    products rather than ``**`` powers (whose bytes depend on numpy's SIMD
    dispatch level).  The squares live only inside this call, so they add
    no array to the caller's peak memory."""
    c2 = centred * centred
    variance = float(np.mean(c2))
    if not variance > 0.0:
        return variance, 0.0, 0.0
    skewness = float(np.mean(c2 * centred)) / variance**1.5
    kurtosis = float(np.mean(c2 * c2)) / variance**2 - 3.0
    return variance, skewness, kurtosis


def intensity_statistics(response, mask) -> tuple[FeatureValue, ...]:
    """The eighteen intensity-based statistics of a masked response map.

    Variance is population-style (divide by N).  Skewness and excess
    kurtosis are defined as 0 for a constant region.  Percentiles use
    linear interpolation between closest ranks, read from the sorted ROI
    values.
    """
    x = _masked_values(response, mask)
    n = x.size
    mean = float(x.mean())
    centred = x - mean
    variance, skewness, kurtosis = _moments(centred)
    p10, p25, median, p75, p90 = (
        _percentile_sorted(x, q) for q in (10.0, 25.0, 50.0, 75.0, 90.0)
    )
    minimum = float(x[0])
    maximum = float(x[-1])
    mad = float(np.mean(np.abs(centred)))
    robust = _between_sorted(x, p10, p90)
    robust_mad = float(np.mean(np.abs(robust - robust.mean()))) if robust.size else 0.0
    median_ad = float(np.mean(np.abs(x - median)))
    cov = _ratio_or_zero(math.sqrt(variance), mean) if variance > 0.0 else 0.0
    qcd = _ratio_or_zero(p75 - p25, p75 + p25)
    energy = float(np.sum(x * x))
    rms = math.sqrt(energy / n)

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
    after = mask_after.membership if isinstance(mask_after, RoiMask) else mask_after
    data = image_after.data if isinstance(image_after, VolumeImage) else image_after
    if after.shape != data.shape:
        raise ValueError(f"mask dims {after.shape} do not match image dims {data.shape}")
    count_before = int(np.count_nonzero(before))
    count_after = int(np.count_nonzero(after))
    if count_after:
        values = data[after]
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
