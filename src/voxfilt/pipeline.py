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
import itertools
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import yaml

from .boundary import BOUNDARY_MODES
from .convolve import (
    TransferCache,
    convolve_bank,
    convolve_laplacian,
    convolve_separable,
    laplacian_passes,
)
from .features import diagnostics, intensity_statistics
from .image import (RoiMask, VolumeImage, _check_finite, _check_spacing, _integral, _is_number,
                    map_slices, round_half_away)
from .kernels import (
    LAWS_NAMES,
    GaborParams,
    gabor_kernel,
    laws_1d,
    laws_energy,
    log_kernel_1d,
    mean_kernel_1d,
    truncated_support,
)
from .riesz import (
    _check_index,
    align_order2,
    riesz_filtered_map,
    riesz_filtered_maps,
    riesz_indices,
    structure_tensor,
)
from .rotinv import (
    PooledCascade,
    _check_pool_mode,
    cascade,
    gabor_orientation_set,
    orthogonal_plane_average,
    pool,
)
from .wavelets import (
    RADIAL_KINDS,
    WAVELET_NAMES,
    RadialProfile,
    _check_subband,
    _swt_stages,
    dwt_decimated,
    nonseparable_b_map,
)

__all__ = [
    "FILTER_KINDS",
    "FILTER_PARAMETERS",
    "REQUIRED_PARAMETERS",
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

def _number(value, what) -> float:
    """``value`` as a float; a bool, a string or a list is an error naming ``what``."""
    if not _is_number(value):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class FilterConfig:
    """One benchmark filter: a kind plus its kind-specific parameters.

    ``params`` is copied at construction, so editing the caller's dict later
    changes neither the filter nor the plan it keeps (:meth:`plan`).
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "kind", _Param(FILTER_KINDS).typed(self.kind, None, "filter kind"))
        object.__setattr__(self, "params", dict(self.params))

    def plan(self, spacing, mode: str, boundary: str = "mirror",
             constant: float = 0.0) -> FilterPlan:
        """:func:`plan_filter` of this filter, kept and returned again while
        the spacing, mode, boundary and constant stay the same; other values
        replace it.  A pickled copy starts without one."""
        key = (tuple(spacing), mode, boundary, constant)
        saved = self.__dict__.get("_saved_plan")
        if saved is None or saved[0] != key:
            saved = key, plan_filter(self, *key)
            object.__setattr__(self, "_saved_plan", saved)
        return saved[1]

    def __getstate__(self):
        # the saved plan holds closures, which do not pickle
        return {k: v for k, v in self.__dict__.items() if k != "_saved_plan"}


@dataclass(frozen=True)
class ProcessingConfig:
    """Full image-processing chain for one benchmark test.  Every field but
    ``filter`` is checked and typed by its ``_CONFIG`` entry."""

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
        # its own filter, so a dataclasses.replace copy starts without the saved plan
        object.__setattr__(self, "filter", FilterConfig(self.filter.kind, self.filter.params))
        for key, (name, _) in _CONFIG.items():
            object.__setattr__(self, name, _setting(key, getattr(self, name)))
        if self.filter.params.get("decimated") is True:
            raise ValueError("a decimated wavelet response lies on a coarser grid than the "
                             "ROI, so features cannot be aggregated over it; run it with "
                             "voxfilt filter")

    def plan(self, spacing) -> FilterPlan:
        """Plan the filter on the grid it will see: ``resample_spacing_mm``
        when the configuration resamples, else the image's ``spacing``.  No
        preprocessing runs, so a bad filter fails first.  The filter keeps
        the plan (:meth:`FilterConfig.plan`) while the grid stays the same.
        """
        grid = self.resample_spacing_mm or tuple(spacing)
        if len(grid) != len(spacing):
            raise ValueError(f"resample spacing_mm {list(grid)} needs one entry per image "
                             f"axis ({len(spacing)})")
        return self.filter.plan(grid, self.mode, self.boundary, self.boundary_constant)


def _block_keys(block):
    """The ``_CONFIG`` keys of one block of a file: "" (the top level) or "resample"."""
    return tuple(key.rpartition(".")[2] for key in _CONFIG if key.rpartition(".")[0] == block)


def _reject_unknown_keys(block, allowed, where):
    for key in block:
        if key not in allowed:
            close = difflib.get_close_matches(str(key), allowed, n=1)
            hint = f"did you mean {close[0]!r}?" if close else f"expected one of {allowed}"
            raise ValueError(f"{where} has unknown key {key!r}; {hint}")


def load_config(path):
    """Read a configuration file; returns ``(test_id, ProcessingConfig)``.

    The keys, at the top level and in the resample block, are those of
    ``_CONFIG`` plus ``test_id``, ``resample`` and ``filter``.  Unknown keys
    are rejected, so a misspelt key cannot silently fall back to its
    default, and so are ``image_interpolation`` and ``mask_threshold``
    without a ``spacing_mm`` to resample to.  Keys the file leaves out take
    the ProcessingConfig defaults.  ``test_id`` names the output files, so
    it must be a string (null or missing gives ``""``), may hold no path
    separator and may not be ``.`` or ``..``.
    """
    with open(path) as handle:
        raw = yaml.safe_load(handle)
    if not isinstance(raw, dict):
        raise ValueError(f"configuration file {path} must hold a mapping")
    _reject_unknown_keys(raw, ("test_id", *_block_keys(""), "resample", "filter"),
                         f"configuration file {path}")
    test_id = "" if raw.get("test_id") is None else raw["test_id"]
    if not isinstance(test_id, str):
        raise ValueError(f"test_id must be a string, got {test_id!r}; put it in quotes")
    if test_id in (".", "..") or any(sep in test_id for sep in ("/", "\\", os.sep)):
        raise ValueError(f"test_id {test_id!r} names the output files; it cannot hold a "
                         "path separator or be '.' or '..'")
    for key in ("mode", "filter"):
        if key not in raw:
            raise ValueError(f"configuration is missing the {key!r} key")
    filt = raw["filter"]
    if not isinstance(filt, dict) or "kind" not in filt:
        raise ValueError("the filter block needs a 'kind' entry")
    settings = dict(raw)
    resample = raw.get("resample")
    if resample is not None:
        if not isinstance(resample, dict):
            raise ValueError("the resample block must be a mapping")
        _reject_unknown_keys(resample, _block_keys("resample"), "the resample block")
        if "spacing_mm" not in resample:
            raise ValueError("the resample block is missing the 'spacing_mm' key")
        for key in ("image_interpolation", "mask_threshold"):
            if resample["spacing_mm"] is None and key in resample:
                raise ValueError(f"the resample block's {key} applies only with a "
                                 "spacing_mm to resample to")
        settings.update((f"resample.{key}", value) for key, value in resample.items())
    fields = {name: settings[key] for key, (name, _) in _CONFIG.items() if key in settings}
    filt = FilterConfig(filt["kind"], {k: v for k, v in filt.items() if k != "kind"})
    return test_id, ProcessingConfig(filter=filt, **fields)


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


def _mirror(x, n):
    """Fold coordinates onto ``[0, n - 1]`` as a "mirror" B-spline boundary
    does: whole-sample reflection with period 2(n - 1), a length-1 axis folds
    to 0, and a value in (n - 1, n) stays where it is."""
    if n == 1:
        return np.zeros_like(x)
    period = 2.0 * (n - 1)
    u = np.abs(x)
    u = u - period * np.trunc(u / period)
    return np.where(u >= np.where(x < 0, n - 1, n), period - u, u)


def _axis_taps(coord, n, order):
    """Tap indices and weights, each (len(coord), order + 1), of one axis.

    These are map_coordinates' own: the folded coordinate c, taps from
    floor(c) - 1 (cubic) or floor(c) (linear) folded again, the B-spline
    weights of t = c - floor(c) in products, and the last weight as one
    minus the others.
    """
    c = _mirror(coord, n)
    floor = np.floor(c)
    t = c - floor
    if order == 1:
        weights = [1.0 - t]
    else:
        z = 1.0 - t
        weights = [z * z * z / 6.0, (t * t * (t - 2.0) * 3.0 + 4.0) / 6.0,
                   (z * z * (z - 2.0) * 3.0 + 4.0) / 6.0]
    last = 1.0
    for w in weights:
        last = last - w
    weights.append(last)
    idx = _mirror(floor[:, None] - order // 2 + np.arange(order + 1), n)
    return idx.astype(np.intp), np.stack(weights, axis=1)


def _spline_prefilter(data):
    """Cubic B-spline coefficients of ``data`` on a mirror boundary, as a new
    C-ordered float64 array.

    One axis at a time, the gain (1 - z)(1 - 1/z), the mirror causal start,
    the causal pass, the anticausal start and the anticausal pass, with
    z = sqrt(3) - 2; a length-1 axis is left as it is.  The powers of z are
    Python floats multiplied up in one order and the arrays see only
    elementwise * + - /, so the bytes do not depend on the SIMD level.
    """
    z = math.sqrt(3.0) - 2.0
    coef = np.array(data, dtype=np.float64, order="C")
    for axis in range(coef.ndim):
        n = coef.shape[axis]
        if n == 1:
            continue
        c = np.moveaxis(coef, axis, 0)
        c *= (1.0 - z) * (1.0 - 1.0 / z)
        powers = [1.0]
        for _ in range(n - 1):
            powers.append(powers[-1] * z)
        w = powers[n - 1]
        start = c[0] + w * c[n - 1]
        for i in range(1, n - 1):
            start = start + powers[i] * (c[i] + w * c[n - 1 - i])
        c[0] = start / (1.0 - w * w)
        for i in range(1, n):
            c[i] += z * c[i - 1]
        c[n - 1] = (z * c[n - 2] + c[n - 1]) * z / (z * z - 1.0)
        for i in range(n - 2, -1, -1):
            c[i] = z * (c[i + 1] - c[i])
    return coef


def _along(values, axis, ndim):
    shape = [1] * ndim
    shape[axis] = -1
    return values.reshape(shape)


def resample_image(image: VolumeImage, new_spacing, method: str) -> VolumeImage:
    """Resample intensities onto a centre-aligned grid with the given spacing.

    ``method`` is ``"trilinear"`` or ``"tricubic"`` (cubic spline).  An
    output grid identical to the input grid returns the image unchanged.

    The B-spline is a tensor product, so the resample runs one axis at a
    time: the mirror spline prefilter (cubic only), then per axis a sum of
    order + 1 gathered planes times their weights, in tap order.  Axes that
    shrink go first and axes that grow last, so each pass gathers from the
    smallest array it can; ties go last axis first, because gathers along
    the contiguous axis move single values.  The values equal
    map_coordinates' up to roundoff.
    """
    method = _setting("resample.image_interpolation", method)
    new_spacing = _check_spacing(new_spacing, image.ndim, "new_spacing", "resampling")
    if _grid_unchanged(image.spacing, new_spacing):
        return image
    out_dims, coords = _output_coordinates(image.dims, image.spacing, new_spacing)
    if method == "trilinear":
        order, data = 1, np.ascontiguousarray(image.data)
    else:
        order = 3
        data = _spline_prefilter(image.data)
    ndim = image.ndim
    for axis in sorted(range(ndim), key=lambda a: (out_dims[a] / image.dims[a], -a)):
        idx, weights = _axis_taps(coords[axis], image.dims[axis], order)
        out = np.take(data, idx[:, 0], axis=axis) * _along(weights[:, 0], axis, ndim)
        for k in range(1, order + 1):
            out += np.take(data, idx[:, k], axis=axis) * _along(weights[:, k], axis, ndim)
        data = out
    return VolumeImage(np.asfortranarray(data), new_spacing)


def resample_mask(mask: RoiMask, spacing, new_spacing, threshold: float = 0.5) -> RoiMask:
    """Trilinear mask resampling: voxels with partial volume >= threshold stay in.

    The partial volume repeats map_coordinates' order-1 arithmetic bit for
    bit: per output voxel the corner taps in C order, each adding its
    weight product (w1 * w2) * w3 when the corner is in the mask.  A
    fraction on the threshold therefore lands on the same side as with
    map_coordinates.  The work runs on the C-contiguous transpose of the
    Fortran-ordered membership (mask axis ``a`` is its axis ``ndim - 1 -
    a``), so no layout copy is made.
    """
    membership = mask.membership
    new_spacing = _check_spacing(new_spacing, membership.ndim, "new_spacing", "resampling")
    threshold = _setting("resample.mask_threshold", threshold)
    if _grid_unchanged(spacing, new_spacing):
        return RoiMask(membership.copy())
    out_dims, coords = _output_coordinates(mask.dims, spacing, new_spacing)
    ndim = membership.ndim
    taps = [_axis_taps(c, n, 1) for c, n in zip(coords, mask.dims)]
    corners = [membership.T]
    for axis, (idx, _) in enumerate(taps):
        corners = [np.take(c, idx[:, k], axis=ndim - 1 - axis) for c in corners for k in (0, 1)]
    fraction = np.zeros(out_dims[::-1])
    for combo, inside in zip(itertools.product((0, 1), repeat=ndim), corners):
        weight = 1.0
        for axis, k in enumerate(combo):
            weight = weight * _along(taps[axis][1][:, k], ndim - 1 - axis, ndim)
        np.add(fraction, weight, out=fraction, where=inside)
    return RoiMask(fraction.T >= threshold)


def round_intensities(image: VolumeImage) -> VolumeImage:
    """Round to the nearest integer, halves away from zero."""
    return image.with_data(round_half_away(image.data))


def resegment(mask: RoiMask, image: VolumeImage, value_range) -> RoiMask:
    """Intensity mask: ROI voxels whose intensity lies in the closed range.

    The morphological mask itself is never altered; with ``value_range``
    None the intensity mask is a copy of it.  The range is checked as the
    configuration's ``resegment_hu``.
    """
    if mask.dims != image.dims:
        raise ValueError(f"mask dims {mask.dims} do not match image dims {image.dims}")
    if value_range is None:
        return RoiMask(mask.membership.copy())
    low, high = _range(value_range, None)
    keep = mask.membership & (image.data >= low) & (image.data <= high)
    return RoiMask(keep)


def _isotropic_scale(values_vox, what):
    values = np.asarray(values_vox, dtype=np.float64)
    if values.max() - values.min() > 1e-9 * values.max():
        raise ValueError(
            f"{what} needs isotropic voxel spacing along the filtered axes; "
            f"resample first (got per-axis scales {tuple(values)})"
        )
    return float(values[0])


@dataclass(frozen=True)
class FilterPlan:
    """One filter resolved against a grid: ``summary`` is the log line with
    the effective voxel-unit parameters, ``run(volume, threads=1)`` maps a
    whole volume to its response in either mode.  The response has the
    volume's dims, except a decimated wavelet's, which has them divided by
    2^level.  The plan holds its kernels and transfers for its lifetime
    (:func:`plan_filter`), so running it again repeats neither; the filter
    holds the plan (:meth:`FilterConfig.plan`)."""

    summary: str
    run: Callable[..., np.ndarray]


# The widest kernel a plan builds, in taps per axis: twice NIfTI-1's longest
# axis (32767 voxels) plus one.  A wider one is a slip, not a filter, and
# would allocate without bound; a level-16 band already spans 2^16 voxels.
_MAX_TAPS = 2 * 32767 + 1
_MAX_LEVEL = 16


def _taps(scale, cutoff, what) -> int:
    """``truncated_support(scale, cutoff)``, which may not exceed _MAX_TAPS."""
    if 2.0 * cutoff * scale >= _MAX_TAPS:
        raise ValueError(f"{what} give a kernel wider than {_MAX_TAPS} taps")
    return truncated_support(scale, cutoff)


@dataclass(frozen=True)
class _Param:
    """One filter parameter or configuration setting.  ``type`` is float
    (finite, at most ``high``; positive unless ``low`` is -inf), int (in
    [low, high]; odd with ``odd``), bool, a tuple of the strings it may name
    in any case, or a check(value, ndim).  A filter key is ``required`` when
    it has no default, a setting when None is not one of its values.  A
    scale, given as <name>_mm or <name>_vox (its ``unit``), reaches the
    planner as <name>_vox, where its square must be neither 0 nor inf.  The
    key applies only while ``switch`` = (flag, state) holds."""

    type: object
    default: object = None
    required: bool = False
    low: float = 0
    high: float = math.inf
    odd: bool = False
    unit: str = ""
    switch: tuple = ()

    def typed(self, value, ndim, what):
        """``value`` typed, or a ValueError naming ``what``; ndim counts the filtered axes."""
        if self.type is float:
            number = _number(value, what)
            if not (self.low < number < math.inf and number <= self.high):
                bound = f" <= {self.high}" * (self.high < math.inf)
                raise ValueError(f"{what} must be a {'positive ' * (self.low == 0)}finite "
                                 f"number{bound}, got {number!r}")
            return number
        if self.type is int:
            number = _integral(value, what)
            if not self.low <= number <= self.high or self.odd and number % 2 == 0:
                raise ValueError(f"{what} must be {'an odd integer ' * self.odd}>= {self.low} "
                                 f"and <= {self.high}, got {value!r}")
            return number
        if self.type is bool:
            if not isinstance(value, bool):
                raise ValueError(f"{what} must be true or false, got {value!r}")
            return value
        if isinstance(self.type, tuple):
            if not isinstance(value, str) or value.lower() not in self.type:
                raise ValueError(f"{what} must be one of {self.type}, got {value!r}")
            return value.lower()
        return self.type(value, ndim)


def _scale(name, **spec):
    return {f"{name}_{unit}": _Param(float, unit=unit, **spec) for unit in ("mm", "vox")}


def _laws(value, ndim) -> str:
    text = value.upper() if isinstance(value, str) else ""
    if len(text) != 2 * ndim or any(text[i : i + 2] not in LAWS_NAMES
                                    for i in range(0, 2 * ndim, 2)):
        raise ValueError(f"laws filter kernels must name {ndim} Laws kernels of {LAWS_NAMES}, "
                         f"got {value!r}")
    return text


# Each planner takes its parameters typed, in voxels and defaulted (one entry
# per key of its table below), the spacing of the filtered axes, the
# boundary mode and its constant, checks only the rules that span
# parameters, and returns (summary, op).  Every op is
# ``op(data, transfers)``: it filters the trailing len(axes) axes of ``data``,
# a whole volume, or a (k, n1, n2) stack of planes when plan_filter maps it
# over slabs, whose leading axis is a batch.  ``transfers`` is the plan's
# TransferCache for the volume shape being mapped over slabs, so the
# Fourier-domain and Gabor ops build their transfers once per plane grid
# and plan, and None for a whole volume; the spatial ops ignore it (``_``).
# The ops look library functions up by name when they execute.


def _cascade_op(p, stages, boundary, constant):
    """The Laws or wavelet op over the per-axis ``stages`` and its summary suffix.

    Without rotation_invariance the op runs the cascade; with it, the
    cascade pooled over every right-angle rotation.
    """
    if not p["rotation_invariance"]:
        return lambda data, _: cascade(data, stages, boundary, constant), ""
    pooled = PooledCascade(stages, p["pool"], boundary, constant)
    return (lambda data, _: pooled(data),
            f", {p['pool']} over rotations ({pooled.passes} one-axis passes)")


def _plan_none(p, axes, boundary, constant):
    return "none filter: identity", lambda data, _: data.astype(np.float64, copy=True)


def _plan_mean(p, axes, boundary, constant):
    factors = (mean_kernel_1d(p["support"]),) * len(axes)
    summary = f"mean filter: support {p['support']} voxels per axis"
    return summary, lambda data, _: convolve_separable(data, factors, boundary, constant)


def _plan_log(p, axes, boundary, constant):
    size = _taps(p["sigma_vox"], p["cutoff"], "log filter sigma and cutoff")
    smooth, second = log_kernel_1d(p["sigma_vox"], p["cutoff"])
    summary = (f"log filter: sigma {p['sigma_vox']:.6g} voxels, kernel size {size}, "
               f"separable route ({laplacian_passes(len(axes))} one-axis passes)")
    return summary, lambda data, _: convolve_laplacian(data, smooth, second, boundary,
                                                       constant, len(axes))


def _plan_laws(p, axes, boundary, constant):
    text, delta, ndim = p["kernels"], p["energy_delta"], len(axes)
    stages = [[laws_1d(text[i : i + 2])] for i in range(0, len(text), 2)]
    op, pooling = _cascade_op(p, stages, boundary, constant)
    if delta is None:
        return f"laws filter: kernels {text}{pooling}", op
    return (f"laws filter: kernels {text}{pooling}, energy delta {delta} voxels",
            lambda data, transfers: laws_energy(op(data, transfers), delta, boundary,
                                                constant, ndim))


def _plan_gabor(p, axes, boundary, constant):
    sigma, wavelength, gamma = p["sigma_vox"], p["lambda_vox"], p["gamma"]
    size = _taps(sigma * max(gamma, 1.0), 4.0, "gabor filter sigma and gamma")
    if not p["rotation_invariance"]:
        thetas = [p["theta"]]
    elif p["dtheta"] is None:
        raise ValueError("the rotation-invariant Gabor filter needs dtheta")
    else:
        thetas = gabor_orientation_set(p["dtheta"])
    bank = [gabor_kernel(GaborParams(sigma, wavelength, gamma, theta)) for theta in thetas]
    pool_mode = p["pool"]

    def run(plane, transfers):
        return pool((np.abs(r) for r in convolve_bank(plane, bank, boundary, constant, transfers)),
                    pool_mode)

    summary = (f"gabor filter: sigma {sigma:.6g} voxels, wavelength {wavelength:.6g} "
               f"voxels, kernel size {size}, {len(bank)} orientations, FFT route")
    if p["rotation_invariance"]:
        summary += f", {pool_mode} over orientations"
    return summary, run


def _plan_wavelet(p, axes, boundary, constant):
    family, level, subband = p["family"], p["level"], p["subband"]
    summary = f"wavelet filter: {family} level {level} subband {subband}"
    if not p["decimated"]:
        stages = _swt_stages(family, level, subband, len(axes))
        op, pooling = _cascade_op(p, stages, boundary, constant)
        return summary + pooling, op
    if p["rotation_invariance"]:
        raise ValueError("the decimated wavelet transform has no rotation-invariant form; "
                         "drop decimated or rotation_invariance")
    return f"{summary}, decimated by {2 ** level} per axis", lambda data, _: dwt_decimated(
        data, family, level, subband, boundary, constant)


def _fourier_domain(axes, boundary, constant, what):
    """The Fourier-domain filters work on the frequency grid of the filtered
    axes, so they need those axes isotropic, and they always periodise, with
    no boundary constant.  Returns the summary's boundary clause."""
    _isotropic_scale(axes, what)
    if constant != 0.0:
        raise ValueError(f"{what} always periodises, so boundary_constant {constant!r} "
                         "would be ignored; drop it or use another filter")
    requested = "" if boundary == "periodise" else f" (requested {boundary})"
    return f", boundary periodise{requested}"


def _plan_nonseparable(p, axes, boundary, constant):
    profile = RadialProfile(p["wavelet"], p["level"])
    applied = _fourier_domain(axes, boundary, constant, "the nonseparable filter")
    summary = f"nonseparable filter: {profile.kind} B map level {profile.level}{applied}"
    return summary, lambda data, transfers: nonseparable_b_map(data, profile, transfers,
                                                               len(axes))


def _plan_riesz(p, axes, boundary, constant):
    ndim, l, sigma = len(axes), p["l"], p["sigma_tensor_vox"]
    profile = RadialProfile(p["wavelet"], p["level"])
    applied = _fourier_domain(axes, boundary, constant, "the Riesz filter")
    summary = f"riesz filter: {profile.kind} level {profile.level} l {l}"
    if not p["align"]:
        return summary + applied, lambda data, transfers: riesz_filtered_map(
            data, profile, l, transfers)
    if sum(l) != 2:
        raise ValueError("alignment is defined for second-order Riesz sets")
    if sigma is None:
        raise ValueError("aligned Riesz filtering needs sigma_tensor_mm or sigma_tensor_vox")
    size = _taps(sigma, 4.0, "riesz filter sigma_tensor")
    order1, order2 = riesz_indices(1, ndim), riesz_indices(2, ndim)

    def run(data, transfers):
        maps = riesz_filtered_maps(data, profile, order1 + order2, transfers)
        return align_order2(maps, structure_tensor([next(maps)[1] for _ in order1], sigma))

    return (f"{summary}, aligned with structure tensor sigma {sigma:.6g} voxels, "
            f"kernel size {size}{applied}"), run


_FLAG = _Param(bool, False)
_ROTINV = ("rotation_invariance", True)
_NOT_ROTINV = ("rotation_invariance", False)
_LEVEL = _Param(int, required=True, low=1, high=_MAX_LEVEL)
_RADIAL = _Param(RADIAL_KINDS, required=True)


def _pool(default):
    return _Param(lambda mode, ndim: _check_pool_mode(mode), default, switch=_ROTINV)


# kind -> (planner, key -> parameter): the one place each filter's
# parameters are defined
_PLANNERS = {
    "none": (_plan_none, {}),
    "mean": (_plan_mean, {"support": _Param(int, required=True, low=1, high=_MAX_TAPS,
                                            odd=True)}),
    "log": (_plan_log, {**_scale("sigma", required=True), "cutoff": _Param(float, 4.0)}),
    "laws": (_plan_laws, {"kernels": _Param(_laws, required=True), "rotation_invariance": _FLAG,
                          "pool": _pool("max"),
                          "energy_delta": _Param(int, high=_MAX_TAPS // 2)}),
    "gabor": (_plan_gabor, {**_scale("sigma", required=True), **_scale("lambda", required=True),
                            "gamma": _Param(float, 1.0), "dtheta": _Param(float, switch=_ROTINV),
                            "theta": _Param(float, 0.0, low=-math.inf, switch=_NOT_ROTINV),
                            "rotation_invariance": _FLAG, "pool": _pool("average"),
                            "orthogonal_planes": _FLAG}),
    "wavelet": (_plan_wavelet, {"family": _Param(WAVELET_NAMES, required=True), "level": _LEVEL,
                                "subband": _Param(_check_subband, required=True),
                                "rotation_invariance": _FLAG, "pool": _pool("average"),
                                "decimated": _FLAG}),
    "nonseparable": (_plan_nonseparable, {"wavelet": _RADIAL, "level": _LEVEL}),
    "riesz": (_plan_riesz, {"wavelet": _RADIAL, "level": _LEVEL,
                            "l": _Param(_check_index, required=True), "align": _FLAG,
                            **_scale("sigma_tensor", switch=("align", True))}),
}

FILTER_KINDS = tuple(_PLANNERS)
REQUIRED_PARAMETERS = {kind: tuple(k for k, s in specs.items() if s.required and not s.unit)
                       for kind, (_, specs) in _PLANNERS.items()}
FILTER_PARAMETERS = tuple(dict.fromkeys(k for _, specs in _PLANNERS.values() for k in specs))


def _range(value, ndim) -> tuple:
    """``value`` as a closed range (low, high); either end may be infinite."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"resegment_hu must be a list of 2 numbers, got {value!r}")
    low, high = (_number(v, "resegment_hu") for v in value)
    if not low <= high:
        raise ValueError(f"resegment_hu must be a range neither inverted nor NaN, "
                         f"got [{low}, {high}]")
    return low, high


# configuration-file key ("resample.<key>" for a key of the resample block) ->
# (ProcessingConfig field, setting): the one place each setting is checked.
# The defaults are the fields' own.
_CONFIG = {
    "mode": ("mode", _Param(("2d", "3d"), required=True)),
    "boundary": ("boundary", _Param(BOUNDARY_MODES, required=True)),
    "boundary_constant": ("boundary_constant", _Param(float, required=True, low=-math.inf)),
    "resegment_hu": ("reseg_range", _Param(_range)),
    "resample.spacing_mm": ("resample_spacing_mm", _Param(
        lambda value, ndim: _check_spacing(value, ndim, "resample spacing_mm", "resampling"))),
    "resample.image_interpolation": ("image_interpolation",
                                     _Param(("trilinear", "tricubic"), required=True)),
    "resample.mask_threshold": ("mask_threshold", _Param(float, required=True, high=1.0)),
    "resample.rounding": ("rounding", _Param(bool, required=True)),
}


def _setting(key, value):
    """``value`` typed by the ``_CONFIG`` entry of ``key``, or a ValueError
    naming the key; None passes where the entry is not required."""
    spec = _CONFIG[key][1]
    if value is None and not spec.required:
        return None
    return spec.typed(value, None, key.rpartition(".")[2])


def plan_filter(filt: FilterConfig, spacing, mode: str, boundary: str = "mirror",
                constant: float = 0.0) -> FilterPlan:
    """Check one filter's parameters, convert them to voxels and build its kernels.

    ``spacing`` is the volume's spacing in mm.  Every parameter is checked
    against its entry in ``_PLANNERS``, and ``mode``, ``boundary`` and
    ``constant`` against theirs in ``_CONFIG``, before the planner runs, and
    each error names the key.  The plan's ``run`` filters
    each (k1, k2) slice in 2-D mode and the whole volume in 3-D mode, where
    the planar Gabor filter needs ``orthogonal_planes`` and an isotropic
    grid and averages its plane responses over the three plane stacks.
    Planes are filtered in slabs (:func:`voxfilt.image.map_slices`): the op
    gets runs of consecutive planes, up to 4 of 128^2, as one (k, n1, n2)
    stack whose leading axis is a batch, and the slabs run on ``threads``
    threads, so memory holds one slab's working set per thread; the
    identity copies the whole volume in either mode.  Gabor
    filters planes through the FFT in both modes.  The layout is fixed
    here, so 2-D mode needs a 3-entry ``spacing``.  The plan holds one
    TransferCache for its lifetime, given to every slab of every run mapped
    over planes: runs on the shape it last saw, from any thread, reuse its
    transfers, and another shape empties it first.  A whole-volume 3-D op
    keeps no transfers: holding full-grid ones past a run raised peak
    memory.  The decimated wavelet runs in 3-D mode only, without rotation
    invariance.  A non-zero ``constant`` needs the constant boundary and a
    spatial filter.
    """
    mode, boundary, constant = (_setting(key, value) for key, value in (
        ("mode", mode), ("boundary", boundary), ("boundary_constant", constant)))
    if mode == "2d" and len(spacing) != 3:
        raise ValueError(f"2d mode filters the slices of a 3-D volume, so it needs 3 spacing "
                         f"entries, got {tuple(spacing)}")
    if constant != 0.0 and boundary != "constant":
        raise ValueError(f"boundary_constant {constant!r} applies only with boundary "
                         f"constant, not {boundary}")
    kind, params = filt.kind, filt.params
    planner, specs = _PLANNERS[kind]
    unknown = sorted(set(params) - set(specs), key=str)
    if unknown:
        hints = ""
        for key in unknown:
            owners = [k for k, (_, known) in _PLANNERS.items() if key in known]
            if owners:
                hints += f" ({key} applies to: {', '.join(owners)})"
        raise ValueError(f"{kind} filter got unknown parameters {unknown}{hints}")
    missing = sorted(f"{key[:-4]}_mm or {key}" if spec.unit else key
                     for key, spec in specs.items() if spec.required and spec.unit != "mm"
                     and key not in params and key.replace("_vox", "_mm") not in params)
    if missing:
        raise ValueError(f"{kind} filter is missing parameters {missing}")
    mm, vox = ([k for k in sorted(params) if specs[k].unit == unit] for unit in ("mm", "vox"))
    if mm and vox:
        raise ValueError(
            f"{kind} filter mixes physical and voxel units ({mm} with {vox}); "
            "pick one unit system per invocation"
        )
    if mode == "2d" and params.get("decimated") is True:
        raise ValueError("the decimated transform runs on the full volume; use mode 3d")
    if mode == "2d" and params.get("orthogonal_planes") is True:
        raise ValueError(f"{kind} filter orthogonal_planes applies only in mode 3d; "
                         "in 2d mode every slice is filtered in its own plane")
    axes = tuple(spacing[:2]) if mode == "2d" else tuple(spacing)
    slices = map_slices if mode == "2d" and kind != "none" else None
    if kind == "gabor" and mode == "3d":
        if params.get("orthogonal_planes") is not True:
            raise ValueError(
                "the Gabor filter is planar; in 3d mode enable orthogonal_planes "
                "or run it in 2d mode"
            )
        scale = _isotropic_scale(axes, "the Gabor filter")
        axes = (scale, scale)
        slices = orthogonal_plane_average
    p = {key: spec.default for key, spec in specs.items()}
    for key, value in params.items():
        spec, what = specs[key], f"{kind} filter {key}"
        value = spec.typed(value, len(axes), what)
        if spec.switch and params.get(spec.switch[0], False) is not spec.switch[1]:
            raise ValueError(f"{what} applies only with {spec.switch[0]}: "
                             f"{str(spec.switch[1]).lower()}; drop {key}")
        if spec.unit == "mm":
            key, value = key[:-3] + "_vox", value / _isotropic_scale(axes, what)
        if spec.unit and not 0.0 < value * value < math.inf:
            raise ValueError(f"{what} is {value!r} voxels, whose square {value * value!r} "
                             "must be neither 0 nor inf")
        p[key] = value
    summary, op = planner(p, axes, boundary, constant)
    transfers = TransferCache()

    def run(volume, threads: int = 1):
        _check_finite(volume)
        if threads < 1:
            raise ValueError(f"thread count must be at least 1, got {threads}")
        if mode == "2d" and np.ndim(volume) != 3:
            raise ValueError("2d mode expects a 3-D volume of slices")
        if mode == "3d" and np.ndim(volume) != len(spacing):
            raise ValueError(f"3d mode was planned on {len(spacing)}-D spacing {tuple(spacing)} "
                             f"and cannot filter a {np.ndim(volume)}-D volume")
        if slices is None:
            return op(volume, None)
        transfers.for_shape(np.shape(volume))
        return slices(volume, lambda stack: op(stack, transfers), threads)

    return FilterPlan(summary, run)


def apply_filter(image: VolumeImage, filt: FilterConfig, mode: str,
                 boundary: str = "mirror", constant: float = 0.0,
                 threads: int = 1) -> np.ndarray:
    """Filter a whole volume with ``filt.plan(image.spacing, mode, boundary,
    constant)``, the plan the filter keeps: calls with the same grid and
    settings plan once and reuse its kernels and transfers."""
    return filt.plan(image.spacing, mode, boundary, constant).run(image.data, threads)


def run_configuration(image: VolumeImage, mask: RoiMask, config: ProcessingConfig,
                      threads: int = 1):
    """Execute a full configuration; returns (response, intensity mask, features).

    The feature tuple holds the five diagnostics followed by the eighteen
    intensity statistics of the response over the re-segmented ROI.  The
    configuration is planned first (``config.plan``), so a bad filter fails
    before any preprocessing.  The filter keeps that plan, and
    :func:`apply_filter` runs it, so running one configuration on image
    after image plans it once per grid and reuses its kernels and transfers.
    """
    config.plan(image.spacing)
    if mask.dims != image.dims:
        raise ValueError(f"mask dims {mask.dims} do not match image dims {image.dims}")
    _check_finite(image.data)  # before resampling spreads a bad voxel
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
    response = work.with_data(apply_filter(work, config.filter, config.mode, config.boundary,
                                           config.boundary_constant, threads))
    features = diagnostics(mask_before.membership, intensity_mask.membership, work.data)
    features = features + intensity_statistics(response.data, intensity_mask.membership)
    return response, intensity_mask, features
