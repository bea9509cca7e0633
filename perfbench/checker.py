"""Output checker: every operation's response and features against a reference.

An operation fails when it raises, when its response or features hold a
non-finite value, when its dims differ from the configuration's grid, or
when its features or a fixed seeded sample of response voxels drift from
the recorded reference by more than floating-point roundoff.  Output bytes
are hashed; a hash that differs from the reference is reported as a byte
change, not as a failure, because a change of convolution route may
legitimately move the last bits.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Relative roundoff allowance.  Spatial and FFT routes of one convolution
# agree to about 2e-14 relative; this leaves room for that difference to
# accumulate through pooling and feature sums, and no more.
RTOL = 1e-12
SAMPLE_VOXELS = 16

# Power of the response scale S that each feature scales with; "n" marks a
# sum over the ROI.  Ratio features get their condition number in
# _feature_scales.
_POWERS = {
    "mean": 1, "variance": 2, "median": 1, "minimum": 1, "percentile_10": 1,
    "percentile_90": 1, "maximum": 1, "interquartile_range": 1, "range": 1,
    "mean_absolute_deviation": 1, "robust_mean_absolute_deviation": 1,
    "median_absolute_deviation": 1, "root_mean_square": 1, "energy": "n",
}


def digest(blobs) -> list:
    return [hashlib.sha256(blob).hexdigest() for blob in blobs]


def sample_indices(size: int) -> np.ndarray:
    rng = np.random.default_rng(20200611)
    return np.sort(rng.choice(size, size=min(SAMPLE_VOXELS, size), replace=False))


def summarize(data, features, blobs) -> dict:
    """What the reference keeps of one operation's outputs."""
    flat = np.asarray(data, dtype=np.float64).ravel(order="F")
    return {
        "dims": list(np.shape(data)),
        "scale": float(np.max(np.abs(flat))) if flat.size else 0.0,
        "samples": [float(v) for v in flat[sample_indices(flat.size)]],
        "features": [float(v) for v in features],
        "sha256": digest(blobs),
    }


def _feature_scales(names, ref, scale):
    """Per-feature absolute scale that roundoff of relative size RTOL acts on."""
    value = dict(zip(names, ref))
    sd = math.sqrt(max(value.get("variance", 0.0), 0.0))
    voxels = value.get("roi_voxels_after_resegmentation", 1.0)
    image_scale = max(abs(value.get("roi_intensity_max", 0.0)),
                      abs(value.get("roi_intensity_min", 0.0)))
    ratio = scale / sd if sd > 0 else 1.0
    out = []
    for name, r in zip(names, ref):
        power = _POWERS.get(name)
        if power == "n":
            s = voxels * scale**2
        elif power is not None:
            s = scale**power
        elif name == "skewness":
            s = ratio**3
        elif name == "excess_kurtosis":
            s = ratio**4
        elif name == "coefficient_of_variation":
            mean = abs(value.get("mean", 0.0))
            s = (scale / mean) * (1.0 + abs(r)) if mean > 0 else 1.0
        elif name == "quartile_coefficient_of_dispersion":
            iqr = value.get("interquartile_range", 0.0)
            s = scale * (1.0 + abs(r)) * abs(r) / iqr if iqr > 0 and r != 0 else 1.0
        elif name.startswith("roi_intensity"):
            s = image_scale
        else:  # voxel counts
            s = 0.0
        out.append(max(abs(r), s))
    return np.asarray(out)


def compare(compare_maps, names, reference: dict, got: dict, expected_dims) -> tuple:
    """Problems found in one operation's outputs, and whether its bytes changed.

    ``compare_maps`` is voxfilt's comparison function, passed in so the
    checker holds no import of the program under test.
    """
    problems = []
    if list(expected_dims) != got["dims"]:
        problems.append(f"dims {got['dims']} != expected {list(expected_dims)}")
    if not (math.isfinite(got["scale"]) and all(map(math.isfinite, got["features"]))):
        problems.append("non-finite response or feature value")
    if problems:
        return problems, True
    if reference["dims"] != got["dims"] or len(reference["features"]) != len(got["features"]):
        return [f"output layout differs from reference dims {reference['dims']}"], True
    scale = reference["scale"]
    _, ok, _ = compare_maps(np.asarray(got["samples"]), np.asarray(reference["samples"]),
                            RTOL * scale)
    if not ok.all():
        problems.append(f"{int((~ok).sum())} sampled voxels drift beyond {RTOL:g} x {scale:g}")
    ref_features = np.asarray(reference["features"])
    tolerance = RTOL * _feature_scales(names, ref_features, scale)
    diff = np.abs(np.asarray(got["features"]) - ref_features)
    bad = [n for n, d, t in zip(names, diff, tolerance) if not d <= t]
    if bad:
        problems.append(f"features drift beyond tolerance: {', '.join(bad)}")
    return problems, got["sha256"] != reference["sha256"]
