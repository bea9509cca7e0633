"""Processing configurations: resampling, rounding, re-segmentation, filtering.

A configuration describes the whole chain applied to an image/mask pair:
optional resampling to a new grid, optional intensity rounding, range
re-segmentation of the ROI, one filter from the benchmark table, and
feature aggregation over the re-segmented ROI.  The stage order is fixed:
filtering always happens after interpolation and rounding, features are
always aggregated over the entire (3-D) ROI even when filtering ran
slice by slice.
"""

from __future__ import annotations

import difflib
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import yaml
from scipy import ndimage

from .boundary import BOUNDARY_MODES
from .convolve import convolve_full, convolve_separable
from .features import diagnostics, intensity_statistics
from .image import RoiMask, VolumeImage, map_slices, round_half_away
from .kernels import (
    GaborParams,
    gabor_response_modulus,
    laws_1d,
    laws_energy,
    log_kernel,
    mean_kernel_1d,
)
from .riesz import (
    align_order2,
    riesz_filtered_map,
    riesz_filtered_maps,
    riesz_indices,
    structure_tensor,
)
from .rotinv import gabor_orientation_set, orthogonal_plane_average, pool, pooled_cascades
from .wavelets import (
    RADIAL_KINDS,
    RadialProfile,
    WAVELET_NAMES,
    nonseparable_b_map,
    swt_rotation_pooled,
    swt_undecimated,
)

__all__ = [
    "FILTER_KINDS",
    "FilterConfig",
    "FilterPlan",
    "ProcessingConfig",
    "load_config",
    "resample_image",
    "resample_mask",
    "round_intensities",
    "resegment",
    "plan_filter",
    "apply_filter",
    "run_configuration",
]

_INTERPOLATIONS = ("trilinear", "tricubic")


@dataclass(frozen=True)
class FilterConfig:
    """One benchmark filter: a kind plus its kind-specific parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}, expected one of {FILTER_KINDS}")


@dataclass(frozen=True)
class ProcessingConfig:
    """Full image-processing chain for one benchmark test."""

    mode: str
    filter: FilterConfig
    resample_spacing_mm: tuple | None = None
    image_interpolation: str = "tricubic"
    mask_threshold: float = 0.5
    rounding: bool = False
    reseg_range: tuple | None = None
    boundary: str = "mirror"
    boundary_constant: float = 0.0

    def __post_init__(self):
        if self.mode not in ("2d", "3d"):
            raise ValueError(f"mode must be '2d' or '3d', got {self.mode!r}")
        if self.boundary not in BOUNDARY_MODES:
            raise ValueError(f"unknown boundary mode {self.boundary!r}")
        if self.image_interpolation not in _INTERPOLATIONS:
            raise ValueError(
                f"interpolation must be one of {_INTERPOLATIONS}, got {self.image_interpolation!r}"
            )
        if self.resample_spacing_mm is not None:
            spacing = tuple(float(s) for s in self.resample_spacing_mm)
            if any(s <= 0 for s in spacing):
                raise ValueError(f"resampled spacing must be positive, got {spacing}")
            object.__setattr__(self, "resample_spacing_mm", spacing)
        if not 0.0 < self.mask_threshold <= 1.0:
            raise ValueError(f"mask threshold must lie in (0, 1], got {self.mask_threshold}")
        if self.reseg_range is not None:
            low, high = (float(v) for v in self.reseg_range)
            if low > high:
                raise ValueError(f"re-segmentation range is inverted: [{low}, {high}]")
            object.__setattr__(self, "reseg_range", (low, high))


_CONFIG_KEYS = ("test_id", "mode", "boundary", "boundary_constant", "resample",
                "resegment_hu", "filter")
_RESAMPLE_KEYS = ("spacing_mm", "image_interpolation", "mask_threshold", "rounding")


def _reject_unknown_keys(block, allowed, where):
    for key in block:
        if key not in allowed:
            close = difflib.get_close_matches(str(key), allowed, n=1)
            hint = f"did you mean {close[0]!r}?" if close else f"expected one of {allowed}"
            raise ValueError(f"{where} has unknown key {key!r}; {hint}")


def load_config(path):
    """Read a configuration file; returns ``(test_id, ProcessingConfig)``.

    Unknown keys at the top level or in the resample block are rejected, so
    a misspelt key cannot silently fall back to its default.
    """
    with open(path) as handle:
        raw = yaml.safe_load(handle)
    if not isinstance(raw, dict):
        raise ValueError(f"configuration file {path} must hold a mapping")
    _reject_unknown_keys(raw, _CONFIG_KEYS, f"configuration file {path}")
    try:
        mode = str(raw["mode"]).lower()
        filt = raw["filter"]
    except KeyError as exc:
        raise ValueError(f"configuration is missing the {exc.args[0]!r} key") from None
    if not isinstance(filt, dict) or "kind" not in filt:
        raise ValueError("the filter block needs a 'kind' entry")
    params = {k: v for k, v in filt.items() if k != "kind"}
    resample = raw.get("resample")
    if resample is None:
        resample = {"spacing_mm": None}
    if not isinstance(resample, dict):
        raise ValueError("the resample block must be a mapping")
    _reject_unknown_keys(resample, _RESAMPLE_KEYS, "the resample block")
    if "spacing_mm" not in resample:
        raise ValueError("the resample block is missing the 'spacing_mm' key")
    config = ProcessingConfig(
        mode=mode,
        filter=FilterConfig(str(filt["kind"]).lower(), params),
        resample_spacing_mm=resample["spacing_mm"],
        image_interpolation=resample.get("image_interpolation", "tricubic"),
        mask_threshold=float(resample.get("mask_threshold", 0.5)),
        rounding=bool(resample.get("rounding", False)),
        reseg_range=raw.get("resegment_hu"),
        boundary=raw.get("boundary", "mirror"),
        boundary_constant=float(raw.get("boundary_constant", 0.0)),
    )
    return str(raw.get("test_id", "")), config


def _output_coordinates(dims, spacing, new_spacing):
    """Voxel coordinates of the aligned output grid, expressed on the input grid.

    Output and input grids share their physical centre; the output extent
    rounds up so no input voxel is dropped.
    """
    coords = []
    out_dims = []
    for n_in, s_in, s_out in zip(dims, spacing, new_spacing):
        n_out = math.ceil(n_in * s_in / s_out)
        centre_in = (n_in - 1) / 2.0
        centre_out = (n_out - 1) / 2.0
        axis = (np.arange(n_out, dtype=np.float64) - centre_out) * (s_out / s_in) + centre_in
        coords.append(axis)
        out_dims.append(n_out)
    return tuple(out_dims), coords


def _grid_unchanged(spacing, new_spacing):
    return all(float(a) == float(b) for a, b in zip(spacing, new_spacing))


def _interpolate(data, coords, order):
    mesh = np.meshgrid(*coords, indexing="ij")
    return ndimage.map_coordinates(
        data, np.stack(mesh), order=order, mode="mirror"
    )


def resample_image(image: VolumeImage, new_spacing, method: str) -> VolumeImage:
    """Resample intensities onto a centre-aligned grid with the given spacing.

    ``method`` is ``"trilinear"`` or ``"tricubic"`` (cubic spline).  An
    output grid identical to the input grid returns the image unchanged.
    """
    if method not in _INTERPOLATIONS:
        raise ValueError(f"interpolation must be one of {_INTERPOLATIONS}, got {method!r}")
    new_spacing = tuple(float(s) for s in new_spacing)
    if len(new_spacing) != image.ndim or any(s <= 0 for s in new_spacing):
        raise ValueError(f"need one positive spacing per axis, got {new_spacing}")
    if _grid_unchanged(image.spacing, new_spacing):
        return image
    out_dims, coords = _output_coordinates(image.dims, image.spacing, new_spacing)
    order = 1 if method == "trilinear" else 3
    data = _interpolate(image.data, coords, order)
    return VolumeImage(np.asfortranarray(data.reshape(out_dims)), new_spacing)


def resample_mask(mask: RoiMask, spacing, new_spacing, threshold: float = 0.5) -> RoiMask:
    """Trilinear mask resampling: voxels with partial volume >= threshold stay in."""
    new_spacing = tuple(float(s) for s in new_spacing)
    if len(new_spacing) != mask.membership.ndim or any(s <= 0 for s in new_spacing):
        raise ValueError(f"need one positive spacing per axis, got {new_spacing}")
    if _grid_unchanged(spacing, new_spacing):
        return RoiMask(mask.membership.copy(), kind=mask.kind)
    out_dims, coords = _output_coordinates(mask.dims, spacing, new_spacing)
    fraction = _interpolate(mask.membership.astype(np.float64), coords, order=1)
    return RoiMask(np.asfortranarray(fraction.reshape(out_dims) >= threshold), kind=mask.kind)


def round_intensities(image: VolumeImage) -> VolumeImage:
    """Round to the nearest integer, halves away from zero."""
    return image.with_data(round_half_away(image.data))


def resegment(mask: RoiMask, image: VolumeImage, value_range) -> RoiMask:
    """Intensity mask: ROI voxels whose intensity lies in the closed range.

    The morphological mask itself is never altered; with ``value_range``
    None the membership is just re-labelled as an intensity mask.
    """
    if mask.dims != image.dims:
        raise ValueError(f"mask dims {mask.dims} do not match image dims {image.dims}")
    if value_range is None:
        return RoiMask(mask.membership.copy(), kind="intensity")
    low, high = (float(v) for v in value_range)
    if low > high:
        raise ValueError(f"re-segmentation range is inverted: [{low}, {high}]")
    keep = mask.membership & (image.data >= low) & (image.data <= high)
    return RoiMask(keep, kind="intensity")


def _isotropic_scale(values_vox, what):
    values = np.asarray(values_vox, dtype=np.float64)
    if values.max() - values.min() > 1e-9 * values.max():
        raise ValueError(
            f"{what} needs isotropic voxel spacing along the filtered axes; "
            f"resample first (got per-axis scales {tuple(values)})"
        )
    return float(values[0])


def _scale_param(params, stem, spacing, what):
    """Resolve a <stem>_mm / <stem>_vox parameter pair to voxel units."""
    vox = params.get(stem + "_vox")
    if vox is not None:
        return float(vox)
    mm = params.get(stem + "_mm")
    if mm is not None:
        return float(mm) / _isotropic_scale(spacing, what)
    raise ValueError(f"{what} needs {stem}_mm or {stem}_vox")


@dataclass(frozen=True)
class FilterPlan:
    """One filter resolved against a grid: ``summary`` is the log line with
    the effective voxel-unit parameters, ``run`` maps a volume (3-D mode) or
    a (k1, k2) slice (2-D mode, and Gabor in both modes) to its response."""

    kind: str
    summary: str
    run: Callable[[np.ndarray], np.ndarray]


# Each planner takes the parameters, the spacing of the filtered axes, the
# boundary mode and its constant, and returns (summary, run).  The run
# callables look library functions up by name when they execute.


def _plan_none(params, axes, boundary, constant):
    return "none filter: identity", lambda data: data.astype(np.float64, copy=True)


def _plan_mean(params, axes, boundary, constant):
    support = int(params["support"])
    factors = (mean_kernel_1d(support),) * len(axes)
    summary = f"mean filter: support {support} voxels per axis"
    return summary, lambda data: convolve_separable(data, factors, boundary, constant)


def _plan_log(params, axes, boundary, constant):
    sigma = _scale_param(params, "sigma", axes, "the LoG filter")
    kernel = log_kernel(sigma, len(axes), float(params.get("cutoff", 4.0)))
    summary = f"log filter: sigma {sigma:.6g} voxels, kernel size {kernel.shape[0]}"
    return summary, lambda data: convolve_full(data, kernel, boundary, constant)


def _plan_laws(params, axes, boundary, constant):
    ndim = len(axes)
    text = str(params["kernels"]).upper()
    if len(text) != 2 * ndim:
        raise ValueError(
            f"Laws kernel string {text!r} must name {ndim} kernels of two characters each"
        )
    factors = [laws_1d(text[i : i + 2]) for i in range(0, len(text), 2)]
    rotation_invariant = params.get("rotation_invariance", False)
    pool_mode = params.get("pool", "max")
    delta = params.get("energy_delta")

    def run(data):
        if rotation_invariant:
            out = pooled_cascades(data, [[f] for f in factors], pool_mode, boundary, constant)
        else:
            out = convolve_separable(data, factors, boundary, constant)
        if delta is not None:
            out = laws_energy(out, int(delta), boundary, constant)
        return out

    suffix = f", energy delta {delta} voxels" if delta is not None else ""
    return f"laws filter: kernels {text}{suffix}", run


def _plan_gabor(params, axes, boundary, constant):
    sigma = _scale_param(params, "sigma", axes, "the Gabor filter")
    wavelength = _scale_param(params, "lambda", axes, "the Gabor filter")
    gamma = float(params.get("gamma", 1.0))
    if params.get("rotation_invariance", False):
        if "dtheta" not in params:
            raise ValueError("the rotation-invariant Gabor filter needs dtheta")
        thetas = gabor_orientation_set(float(params["dtheta"]))
    else:
        thetas = [float(params.get("theta", 0.0))]
    bank = [GaborParams(sigma, wavelength, gamma, theta) for theta in thetas]
    pool_mode = params.get("pool", "average")

    def run(slice2d):
        responses = [gabor_response_modulus(slice2d, p, boundary, constant) for p in bank]
        return pool(responses, pool_mode)

    return (f"gabor filter: sigma {sigma:.6g} voxels, wavelength {wavelength:.6g} "
            f"voxels, kernel size {bank[0].support}, {len(bank)} orientations"), run


def _plan_wavelet(params, axes, boundary, constant):
    family = str(params["family"]).lower()
    if family not in WAVELET_NAMES:
        raise ValueError(f"unknown wavelet family {family!r}, expected one of {WAVELET_NAMES}")
    level = int(params["level"])
    subband = str(params["subband"])
    summary = f"wavelet filter: {family} level {level} subband {subband}"
    if not params.get("rotation_invariance", False):
        return summary, lambda data: swt_undecimated(
            data, family, level, subband, boundary, constant)
    pool_mode = params.get("pool", "average")
    return f"{summary}, {pool_mode} over rotations", lambda data: swt_rotation_pooled(
        data, family, level, subband, pool_mode, boundary, constant)


def _fourier_domain(axes, boundary, what):
    """The Fourier-domain filters work on the frequency grid of the filtered
    axes, so they need those axes isotropic, and they always periodise.
    Returns the voxel scale and the summary's boundary clause."""
    scale = _isotropic_scale(axes, what)
    requested = "" if boundary == "periodise" else f" (requested {boundary})"
    return scale, f", boundary periodise{requested}"


def _plan_nonseparable(params, axes, boundary, constant):
    wavelet = str(params["wavelet"]).lower()
    if wavelet not in RADIAL_KINDS:
        raise ValueError(f"unknown radial wavelet {wavelet!r}, expected one of {RADIAL_KINDS}")
    level = int(params["level"])
    _, applied = _fourier_domain(axes, boundary, "the nonseparable filter")
    summary = f"nonseparable filter: {wavelet} B map level {level}{applied}"
    return summary, lambda data: nonseparable_b_map(data, wavelet, level)


def _plan_riesz(params, axes, boundary, constant):
    ndim = len(axes)
    profile = RadialProfile(str(params["wavelet"]).lower(), int(params["level"]))
    l = tuple(int(v) for v in params["l"])
    if len(l) != ndim:
        raise ValueError(f"Riesz index {l} has {len(l)} entries for a {ndim}-D filter")
    scale, applied = _fourier_domain(axes, boundary, "the Riesz filter")
    summary = f"riesz filter: {profile.kind} level {profile.level} l {l}"
    if not params.get("align", False):
        return summary + applied, lambda data: riesz_filtered_map(data, profile, l)
    if sum(l) != 2:
        raise ValueError("alignment is defined for second-order Riesz sets")
    sigma_mm = params.get("sigma_tensor_mm")
    if params.get("sigma_tensor_vox") is not None:
        sigma_mm = float(params["sigma_tensor_vox"]) * scale
    if sigma_mm is None:
        raise ValueError("aligned Riesz filtering needs sigma_tensor_mm or sigma_tensor_vox")
    sigma_mm = float(sigma_mm)
    indices = riesz_indices(2, ndim)

    def run(data):
        return align_order2(riesz_filtered_maps(data, profile, indices),
                            structure_tensor(data, profile, sigma_mm, axes))

    return f"{summary}, aligned with structure tensor sigma {sigma_mm:.6g} mm{applied}", run


# kind -> (planner, required parameters, optional parameters)
_PLANNERS = {
    "none": (_plan_none, (), ()),
    "mean": (_plan_mean, ("support",), ()),
    "log": (_plan_log, (), ("sigma_mm", "sigma_vox", "cutoff")),
    "laws": (_plan_laws, ("kernels",), ("rotation_invariance", "pool", "energy_delta")),
    "gabor": (_plan_gabor, (), ("sigma_mm", "sigma_vox", "lambda_mm", "lambda_vox", "gamma",
                                "theta", "rotation_invariance", "dtheta", "pool",
                                "orthogonal_planes")),
    "wavelet": (_plan_wavelet, ("family", "level", "subband"), ("rotation_invariance", "pool")),
    "nonseparable": (_plan_nonseparable, ("wavelet", "level"), ()),
    "riesz": (_plan_riesz, ("wavelet", "level", "l"),
              ("align", "sigma_tensor_mm", "sigma_tensor_vox")),
}

FILTER_KINDS = tuple(_PLANNERS)


def plan_filter(filt: FilterConfig, spacing, mode: str, boundary: str = "mirror",
                constant: float = 0.0) -> FilterPlan:
    """Check one filter's parameters, convert them to voxels and build its kernels.

    ``spacing`` is the volume's spacing in mm; 2-D mode filters (k1, k2)
    planes.  The planar Gabor filter needs ``orthogonal_planes`` and an
    isotropic grid in 3-D mode.
    """
    if mode not in ("2d", "3d"):
        raise ValueError(f"mode must be '2d' or '3d', got {mode!r}")
    kind, params = filt.kind, filt.params
    planner, required, optional = _PLANNERS[kind]
    missing = set(required) - set(params)
    if missing:
        raise ValueError(f"{kind} filter is missing parameters {sorted(missing)}")
    unknown = set(params) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"{kind} filter got unknown parameters {sorted(unknown)}")
    mm = sorted(k for k in params if k.endswith("_mm"))
    vox = sorted(k for k in params if k.endswith("_vox"))
    if mm and vox:
        raise ValueError(
            f"{kind} filter mixes physical and voxel units ({mm} with {vox}); "
            "pick one unit system per invocation"
        )
    axes = tuple(spacing[:2]) if mode == "2d" else tuple(spacing)
    if kind == "gabor" and mode == "3d":
        if not params.get("orthogonal_planes", False):
            raise ValueError(
                "the Gabor filter is planar; in 3d mode enable orthogonal_planes "
                "or run it in 2d mode"
            )
        scale = _isotropic_scale(axes, "the Gabor filter")
        axes = (scale, scale)
    summary, run = planner(params, axes, boundary, constant)
    return FilterPlan(kind, summary, run)


def apply_filter(image: VolumeImage, filt: FilterConfig, mode: str,
                 boundary: str = "mirror", constant: float = 0.0,
                 threads: int = 1) -> np.ndarray:
    """Run one filter over a volume, slice-wise ("2d") or volumetric ("3d").

    2-D mode treats each (k1, k2) plane as an independent image.  3-D mode
    runs the filter on the whole volume, except the planar Gabor filter,
    whose slice-wise responses are averaged over the three plane stacks.
    """
    if threads < 1:
        raise ValueError(f"thread count must be at least 1, got {threads}")
    plan = plan_filter(filt, image.spacing, mode, boundary, constant)
    if mode == "2d":
        if image.ndim != 3:
            raise ValueError("2d mode expects a 3-D volume of slices")
        return map_slices(image.data, plan.run, threads)
    if plan.kind == "gabor":
        return orthogonal_plane_average(image.data, plan.run)
    return plan.run(image.data)


def run_configuration(image: VolumeImage, mask: RoiMask, config: ProcessingConfig,
                      threads: int = 1):
    """Execute a full configuration; returns (response, intensity mask, features).

    The feature tuple holds the five diagnostics followed by the eighteen
    intensity statistics of the response over the re-segmented ROI.
    """
    if mask.dims != image.dims:
        raise ValueError(f"mask dims {mask.dims} do not match image dims {image.dims}")
    mask_before = mask
    work = image
    roi = mask
    if config.resample_spacing_mm is not None:
        work = resample_image(work, config.resample_spacing_mm, config.image_interpolation)
        roi = resample_mask(roi, image.spacing, config.resample_spacing_mm,
                            config.mask_threshold)
    if config.rounding:
        work = round_intensities(work)
    intensity_mask = resegment(roi, work, config.reseg_range)
    if intensity_mask.voxel_count == 0:
        raise ValueError("empty ROI after re-segmentation")
    response_data = apply_filter(
        work, config.filter, config.mode, config.boundary, config.boundary_constant,
        threads,
    )
    response = work.with_data(response_data)
    features = diagnostics(mask_before.membership, intensity_mask.membership, work.data)
    features = features + intensity_statistics(response_data, intensity_mask.membership)
    return response, intensity_mask, features
