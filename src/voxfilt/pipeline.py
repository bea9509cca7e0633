"""Processing configurations: resampling, rounding, re-segmentation, filtering.

A configuration describes the whole chain applied to an image/mask pair:
optional resampling to a new grid, optional intensity rounding, range
re-segmentation of the ROI, one filter from the benchmark table, and
feature aggregation over the re-segmented ROI.  The stage order is fixed:
filtering always happens after interpolation and rounding, features are
always aggregated over the entire (3-D) ROI even when filtering ran
slice by slice.  Only :func:`prepare`'s rounding step rounds a read
image: ``read_nifti`` returns intensities as stored.
"""

from __future__ import annotations

import difflib
import itertools
import math
import os
import weakref
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
from .image import (_MAX_AXIS_VOXELS, RoiMask, VolumeImage, _check_finite, _check_spacing,
                    _freeze, _integral, _is_number, _read_only, map_slices, round_half_away)
from .kernels import (
    _MAX_TAPS,
    LAWS_NAMES,
    GaborParams,
    _check_gabor_bank,
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
    POOL_MODES,
    PooledCascade,
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
    "FilterConfig",
    "FilterPlan",
    "Prepared",
    "ProcessingConfig",
    "load_config",
    "resample_image",
    "resample_mask",
    "round_intensities",
    "resegment",
    "plan_filter",
    "apply_filter",
    "prepare",
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

    def plan(self, spacing, mode: str, boundary: str = "mirror") -> FilterPlan:
        """:func:`plan_filter` of this filter, kept and returned again while
        the spacing, mode and boundary, typed as plan_filter types them, stay
        the same; other values replace it.  A pickled copy starts without one."""
        key = (_check_spacing(spacing, None), _setting("mode", mode),
               _setting("boundary", boundary))
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
        return self.filter.plan(grid, self.mode, self.boundary)


# libyaml's parser when PyYAML was built with it, else the pure-Python one;
# both construct with SafeConstructor and resolve with the same resolver, so
# a file gives the same values either way, about five times faster with libyaml
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path):
    """Read a configuration file; returns ``(test_id, ProcessingConfig)``.

    :func:`_check_keys` checks the keys of the top level and of the resample
    block, so a misspelt key cannot silently fall back to its default.
    ``image_interpolation`` and ``mask_threshold`` need a ``spacing_mm`` to
    resample to.  Keys the file leaves out take the ProcessingConfig
    defaults.  ``test_id`` names the output files, so it must be a string
    (null or missing gives ``""``), may hold no path separator or NUL and
    may not be ``.`` or ``..``.  The bytes are decoded as YAML specifies, not
    by the locale.  A file that is not valid YAML (UTF-8 or UTF-16) is a
    ValueError naming the file, the problem and its line and column.
    """
    with open(path, "rb") as handle:
        try:
            raw = yaml.load(handle, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            # the two parsers word a problem differently; both give its mark
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
            raise ValueError(f"configuration file {path} is not valid YAML: "
                             f"{problem}{where}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"configuration file {path} must hold a mapping")
    _check_keys(raw, _TOP_KEYS, f"configuration file {path}")
    test_id = "" if raw.get("test_id") is None else raw["test_id"]
    if not isinstance(test_id, str):
        raise ValueError(f"test_id must be a string, got {test_id!r}; put it in quotes")
    if test_id in (".", "..") or any(sep in test_id for sep in ("/", "\\", os.sep, "\0")):
        raise ValueError(f"test_id {test_id!r} names the output files; it cannot hold a "
                         "path separator or a NUL, or be '.' or '..'")
    filt = raw["filter"]
    if not isinstance(filt, dict) or "kind" not in filt:
        raise ValueError("the filter block needs a 'kind' entry")
    settings = dict(raw)
    resample = raw.get("resample")
    if resample is not None:
        if not isinstance(resample, dict):
            raise ValueError("the resample block must be a mapping")
        _check_keys(resample, _RESAMPLE_KEYS, "the resample block")
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
    rounds up so no input voxel is dropped.  A grid with more voxels on an
    axis than NIfTI-1 can store is a ValueError, raised before anything is
    allocated.
    """
    out_dims = tuple(math.ceil(n * s_in / s_out)
                     for n, s_in, s_out in zip(dims, spacing, new_spacing))
    if max(out_dims) > _MAX_AXIS_VOXELS:
        raise ValueError(f"resampling dims {tuple(dims)} from spacing {tuple(spacing)} mm to "
                         f"{tuple(new_spacing)} mm gives dims {out_dims}, more than the "
                         f"{_MAX_AXIS_VOXELS} voxels per axis NIfTI-1 can store")
    coords = []
    for n_in, n_out, s_in, s_out in zip(dims, out_dims, spacing, new_spacing):
        centre_in = (n_in - 1) / 2.0
        centre_out = (n_out - 1) / 2.0
        coords.append((np.arange(n_out, dtype=np.float64) - centre_out) * (s_out / s_in)
                      + centre_in)
    return out_dims, coords


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
    Fortran-ordered float64 array.

    One axis at a time, in axis order, the gain (1 - z)(1 - 1/z), the mirror
    causal start, the causal pass, the anticausal start and the anticausal
    pass, with z = sqrt(3) - 2; a length-1 axis is left as it is.  Each
    axis's recursions run on a C-contiguous copy with that axis leading, so
    every step is one contiguous plane; the other axes follow it in reverse
    order, so the last axis's copy is the Fortran-ordered result.  The powers
    of z are Python floats multiplied up in one order and the arrays see only
    elementwise * + - /, so the bytes do not depend on the SIMD level or on
    the layout.
    """
    z = math.sqrt(3.0) - 2.0
    coef = np.asarray(data, dtype=np.float64)
    ndim = coef.ndim
    for axis in range(ndim):
        n = coef.shape[axis]
        if n == 1:
            continue
        order = (axis,) + tuple(a for a in reversed(range(ndim)) if a != axis)
        c = np.transpose(coef, order).copy()
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
        coef = np.transpose(c, np.argsort(order))
    return coef.copy(order="F") if coef is data else np.asfortranarray(coef)


def _along(values, axis, ndim):
    shape = [1] * ndim
    shape[axis] = -1
    return values.reshape(shape)


# Voxels per slab of a resampling pass, one leading-axis plane at least: the
# slab's output and its one term buffer, 2 x 256 KiB of float64, stay in a
# core's L2 cache while a pass gathers, weights and adds its taps into them,
# where volume-sized buffers stream every tap through memory.
_RESAMPLE_SLAB_VOXELS = 1 << 15


def _resample_pass(data, axis, idx, weights):
    """One axis of a tensor-product resample of the C-ordered ``data``.

    Output voxel j along ``axis`` is sum_k data[..., idx[j, k], ...] *
    weights[j, k], summed in tap order.  The pass runs over slabs of
    leading-axis output planes with one slab-sized term buffer; along axis 0
    a slab of output planes gathers the input planes its taps name.
    """
    ndim = data.ndim
    shape = data.shape[:axis] + (len(idx),) + data.shape[axis + 1:]
    out = np.empty(shape)
    planes = max(1, _RESAMPLE_SLAB_VOXELS // math.prod(shape[1:]))
    term = np.empty((min(planes, shape[0]),) + shape[1:])
    for start in range(0, shape[0], planes):
        slab = slice(start, start + planes)
        src, taps, w = (data, idx[slab], weights[slab]) if axis == 0 else (data[slab], idx, weights)
        dst = out[slab]
        tmp = term[:len(dst)]
        # _axis_taps folded every index into range, so "clip" never clips;
        # unlike "raise" it gathers straight into the given array
        np.take(src, taps[:, 0], axis=axis, out=dst, mode="clip")
        dst *= _along(w[:, 0], axis, ndim)
        for k in range(1, taps.shape[1]):
            np.take(src, taps[:, k], axis=axis, out=tmp, mode="clip")
            tmp *= _along(w[:, k], axis, ndim)
            dst += tmp
    return out


def resample_image(image: VolumeImage, new_spacing, method: str) -> VolumeImage:
    """Resample intensities onto a centre-aligned grid with the given spacing.

    ``method`` is ``"trilinear"`` or ``"tricubic"`` (cubic spline).  An
    output grid identical to the input grid returns the image unchanged.

    The B-spline is a tensor product, so the resample runs one axis at a
    time: the mirror spline prefilter (cubic only), then per axis a sum of
    order + 1 gathered planes times their weights, in tap order, slab by
    slab (:func:`_resample_pass`).  Axes that shrink go first and axes that
    grow last, so each pass gathers from the smallest array it can; ties go
    last axis first.  The passes run on the C-contiguous transpose of the
    Fortran-ordered volume (image axis ``a`` is its axis ``ndim - 1 - a``),
    so the result is Fortran-ordered without a layout copy.  The values
    equal map_coordinates' up to roundoff.
    """
    method = _setting("resample.image_interpolation", method)
    new_spacing = _check_spacing(new_spacing, image.ndim, "new_spacing", "resampling")
    if _grid_unchanged(image.spacing, new_spacing):
        return image
    out_dims, coords = _output_coordinates(image.dims, image.spacing, new_spacing)
    if method == "trilinear":
        order, data = 1, image.data
    else:
        order, data = 3, _spline_prefilter(image.data)
    ndim = image.ndim
    data = np.ascontiguousarray(data.T)
    for axis in sorted(range(ndim), key=lambda a: (out_dims[a] / image.dims[a], -a)):
        idx, weights = _axis_taps(coords[axis], image.dims[axis], order)
        data = _resample_pass(data, ndim - 1 - axis, idx, weights)
    return VolumeImage(data.T, new_spacing)


# An all-in voxel's partial volume, the sum of its 2**ndim corner weight
# products, is 1 in exact arithmetic.  Each axis's two weights sum to 1 within
# one rounding, and each product and each add rounds once, so in 3-D the
# computed sum lies within 12 roundings, under 2**-49, of 1.  A threshold at
# or below 1 - 2**-40 therefore keeps every all-in voxel without its sum; the
# margin leaves a factor of 2**9 over that bound.
_ALL_IN_FLOOR = 1.0 - 2.0 ** -40


def _partial_volume(membership_t, taps):
    """Trilinear partial volume of the output voxels that ``taps`` name.

    ``membership_t`` is the mask's C-ordered transpose and the result is
    too; ``taps`` holds each mask axis's (index, weight) pairs.  Per voxel
    the corners add in C order, each its weight product (w1 * w2) * w3 when
    the corner is in the mask: map_coordinates' order-1 arithmetic, bit for
    bit.  The corners are gathered from only the leading-axis planes that
    the taps name, along the contiguous axis first, where single values
    move, while the arrays are smallest.
    """
    ndim = membership_t.ndim
    lead, lead_weights = taps[-1]
    low = int(lead.min())
    taps = taps[:-1] + [(lead - low, lead_weights)]
    corners = [membership_t[low:int(lead.max()) + 1]]
    for axis, (idx, _) in enumerate(taps):
        corners = [np.take(c, idx[:, k], axis=ndim - 1 - axis) for c in corners for k in (0, 1)]
    fraction = np.zeros(tuple(len(idx) for idx, _ in reversed(taps)))
    weight = np.empty_like(fraction)
    for combo, inside in zip(itertools.product((0, 1), repeat=ndim), corners):
        # the product of all but the last axis's weights is smaller than the
        # slab; only the last factor fills it, into the one reused buffer
        *factors, last = (_along(taps[axis][1][:, k], ndim - 1 - axis, ndim)
                          for axis, k in enumerate(combo))
        partial = 1.0
        for factor in factors:
            partial = partial * factor
        np.multiply(partial, last, out=weight)
        np.add(fraction, weight, out=fraction, where=inside)
    return fraction


def _bounding_box(flags):
    """The smallest tuple of slices that holds every True of ``flags``, or
    None when there is none."""
    box = []
    for axis in range(flags.ndim):
        hits = np.flatnonzero(flags.any(axis=tuple(a for a in range(flags.ndim) if a != axis)))
        if not hits.size:
            return None
        box.append(slice(hits[0], hits[-1] + 1))
    return tuple(box)


def resample_mask(mask: RoiMask, spacing, new_spacing, threshold: float = 0.5) -> RoiMask:
    """Trilinear mask resampling: voxels with partial volume >= threshold stay in.

    ``spacing``, the mask's own, and ``new_spacing`` each need one entry per
    mask axis, checked by the one spacing rule.

    Separable boolean passes first find, per output voxel, whether all of
    its 2**ndim corner taps are in the mask (the AND of each axis's two taps)
    and whether some are (the OR).  A voxel with no corner in has partial
    volume 0 and stays out; one with every corner in stays in when the
    threshold is at most ``_ALL_IN_FLOOR``.  Only the bounding box of the
    other voxels (above that threshold, of every voxel with some corner in)
    gets its partial volume computed, slab by slab of leading-axis planes,
    with :func:`_partial_volume`'s map_coordinates arithmetic, so a fraction
    on the threshold lands on the same side as with map_coordinates.  The
    work runs on the C-contiguous transpose of the Fortran-ordered
    membership (mask axis ``a`` is its axis ``ndim - 1 - a``), so no layout
    copy is made.
    """
    membership = mask.membership
    spacing = _check_spacing(spacing, membership.ndim)
    new_spacing = _check_spacing(new_spacing, membership.ndim, "new_spacing", "resampling")
    threshold = _setting("resample.mask_threshold", threshold)
    if _grid_unchanged(spacing, new_spacing):
        return RoiMask(membership)
    out_dims, coords = _output_coordinates(mask.dims, spacing, new_spacing)
    ndim = membership.ndim
    taps = [_axis_taps(c, n, 1) for c, n in zip(coords, mask.dims)]
    # every corner in, some corner in; any axis order gives the same flags,
    # so shrinking axes go first and, on ties, the contiguous axis
    flags = [membership.T, membership.T]
    for axis in sorted(range(ndim), key=lambda a: (out_dims[a] / mask.dims[a], a)):
        idx, t_axis = taps[axis][0], ndim - 1 - axis
        for i, combine in enumerate((np.logical_and, np.logical_or)):
            first = np.take(flags[i], idx[:, 0], axis=t_axis)
            flags[i] = combine(first, np.take(flags[i], idx[:, 1], axis=t_axis), out=first)
    every, some = flags
    if threshold <= _ALL_IN_FLOOR:
        inside, dense = every, np.not_equal(some, every, out=some)
    else:
        inside, dense = np.zeros_like(every), some
    box = _bounding_box(dense)
    if box is not None:
        lead, rest = box[0], box[1:]
        planes = max(1, _RESAMPLE_SLAB_VOXELS // math.prod(s.stop - s.start for s in rest))
        for start in range(lead.start, lead.stop, planes):
            slab = (slice(start, min(start + planes, lead.stop)),) + rest
            slab_taps = [(idx[slab[ndim - 1 - a]], w[slab[ndim - 1 - a]])
                         for a, (idx, w) in enumerate(taps)]
            inside[slab] = _partial_volume(membership.T, slab_taps) >= threshold
    inside.flags.writeable = False  # built here, so RoiMask need not copy it
    return RoiMask(inside.T)


def round_intensities(image: VolumeImage) -> VolumeImage:
    """Round to the nearest integer, halves away from zero."""
    return image.with_data(round_half_away(image.data))


def resegment(mask: RoiMask, image: VolumeImage, value_range) -> RoiMask:
    """Intensity mask: ROI voxels whose intensity lies in the closed range.

    The morphological mask itself is never altered; with ``value_range``
    None the intensity mask is a new mask over its read-only membership.
    The range is checked as the configuration's ``resegment_hu``.
    """
    if mask.dims != image.dims:
        raise ValueError(f"mask dims {mask.dims} do not match image dims {image.dims}")
    if value_range is None:
        return RoiMask(mask.membership)
    low, high = _range(value_range, None)
    keep = mask.membership & (image.data >= low) & (image.data <= high)
    keep.flags.writeable = False  # built here, so RoiMask need not copy it
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
    every effective voxel-unit parameter and the route (:func:`_summary`),
    ``run(volume, threads=1)`` maps a whole volume to its response in either
    mode.  The response has the volume's dims, except a decimated wavelet's,
    which has them divided by 2^level.  The plan holds its kernels and
    transfers for its lifetime (:func:`plan_filter`), so running it again
    repeats neither; the filter holds the plan (:meth:`FilterConfig.plan`)."""

    summary: str
    run: Callable[..., np.ndarray]


_MAX_LEVEL = 16  # a level-16 band already spans 2^16 voxels


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
    in any case, or a check(value, ndim).  The key applies only while
    ``switch`` = (flag, state) holds, and a ``required`` key must be given
    while it holds (:func:`_check_keys`).  A setting accepts null when its
    ProcessingConfig field defaults to None.  A scale, given as <name>_mm or
    <name>_vox (its ``unit``), reaches the planner as <name>_vox, where its
    square must be neither 0 nor inf."""

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

    def holds(self, values) -> bool:
        """Whether this key's switch holds in ``values``, a block of keys."""
        return not self.switch or values.get(self.switch[0], False) is self.switch[1]


def _check_keys(values, specs, where, name=repr):
    """Reject a switch of ``values`` that is not a bool, a key that the
    table ``specs`` lacks or whose switch does not hold, then a required key
    missing while its switch holds (either unit of a _mm/_vox pair counts).
    Errors start with ``where`` and name keys by ``name(key)``; an unknown
    key gets the nearest valid key and, for a filter key, its kinds."""

    def when(spec):
        return f"{'with' if spec.switch[1] else 'without'} {name(spec.switch[0])}"

    for flag in sorted({spec.switch[0] for spec in specs.values() if spec.switch} & set(values)):
        specs[flag].typed(values[flag], None, f"{where} {flag}")  # a switch is a bool
    for key in values:
        spec = specs.get(key)
        if spec is None:
            close = difflib.get_close_matches(str(key), list(specs), n=1)
            hint = (f"did you mean {name(close[0])}?" if close
                    else f"expected one of [{', '.join(map(name, specs))}]")
            if key in FILTER_PARAMETERS:
                hint += f" ({name(key)} applies to: {', '.join(FILTER_PARAMETERS[key])})"
            raise ValueError(f"{where} has unknown key {name(key)}; {hint}")
        if not spec.holds(values):
            raise ValueError(f"{where} key {name(key)} applies only {when(spec)}; drop it")
    for key, spec in specs.items():
        pair = {key, key.replace("_vox", "_mm")}
        if spec.required and spec.unit != "mm" and spec.holds(values) and not pair & set(values):
            raise ValueError(f"{where} is missing key {' or '.join(map(name, sorted(pair)))}"
                             + (f" (required {when(spec)})" if spec.switch else ""))


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
# per key of its table below), the spacing of the filtered axes and the
# boundary mode, checks only the rules that span parameters, and returns
# (route, op): the route is what the plan computes beyond its parameters,
# the summary's last clause.  Every op is
# ``op(data, transfers)``: it filters the trailing len(axes) axes of ``data``,
# a whole volume, or a (k, n1, n2) stack of planes when plan_filter maps it
# over slabs, whose leading axis is a batch.  ``transfers`` is the plan's
# TransferCache for the volume shape being mapped over slabs, so the
# Fourier-domain and Gabor ops build their transfers once per plane grid
# and plan, and None for a whole volume; the spatial ops ignore it (``_``).
# The ops look library functions up by name when they execute.


def _cascade_op(p, stages, boundary, extra=0):
    """The Laws or wavelet route and op over the per-axis ``stages``.

    Without rotation_invariance the op runs the cascade; with it, the
    cascade pooled over every right-angle rotation.  The route counts
    ``extra`` one-axis passes that the caller runs after the op.
    """
    if not p["rotation_invariance"]:
        return (f"separable route ({sum(map(len, stages)) + extra} one-axis passes)",
                lambda data, _: cascade(data, stages, boundary))
    pooled = PooledCascade(stages, p["pool"], boundary)
    return (f"pooled over rotations ({pooled.passes + extra} one-axis passes)",
            lambda data, _: pooled(data))


def _plan_none(p, axes, boundary):
    return "identity", lambda data, _: data.astype(np.float64, copy=True)


def _plan_mean(p, axes, boundary):
    factors = (mean_kernel_1d(p["support"]),) * len(axes)
    return (f"separable route ({len(axes)} one-axis passes)",
            lambda data, _: convolve_separable(data, factors, boundary))


def _plan_log(p, axes, boundary):
    size = _taps(p["sigma_vox"], p["cutoff"], "log filter sigma and cutoff")
    smooth, second = log_kernel_1d(p["sigma_vox"], p["cutoff"])
    passes = laplacian_passes(len(axes))
    return (f"kernel size {size}, separable route ({passes} one-axis passes)",
            lambda data, _: convolve_laplacian(data, smooth, second, boundary, len(axes)))


def _plan_laws(p, axes, boundary):
    text, delta, ndim = p["kernels"], p["energy_delta"], len(axes)
    stages = [[laws_1d(text[i : i + 2])] for i in range(0, len(text), 2)]
    # a positive energy_delta runs one mean pass per axis after the cascade
    route, op = _cascade_op(p, stages, boundary, ndim * bool(delta))
    return route, op if delta is None else lambda data, transfers: laws_energy(
        op(data, transfers), delta, boundary, ndim)


def _plan_gabor(p, axes, boundary):
    sigma, wavelength, gamma = p["sigma_vox"], p["lambda_vox"], p["gamma"]
    size = _taps(sigma * max(gamma, 1.0), 4.0, "gabor filter sigma and gamma")
    thetas = gabor_orientation_set(p["dtheta"]) if p["rotation_invariance"] else [p["theta"]]
    _check_gabor_bank(len(thetas), size, "gabor filter sigma and gamma")
    bank = [gabor_kernel(GaborParams(sigma, wavelength, gamma, theta)) for theta in thetas]

    def run(plane, transfers):
        return pool((np.abs(r) for r in convolve_bank(plane, bank, boundary, transfers)),
                    p["pool"])

    return f"kernel size {size}, {len(bank)} orientations, FFT route", run


def _plan_wavelet(p, axes, boundary):
    family, level, subband = p["wavelet"], p["level"], p["subband"]
    if not p["decimated"]:
        return _cascade_op(p, _swt_stages(family, level, subband, len(axes)), boundary)
    if p["rotation_invariance"]:
        raise ValueError("the decimated wavelet transform has no rotation-invariant form; "
                         "drop decimated or rotation_invariance")
    return f"decimated by {2 ** level} per axis", lambda data, _: dwt_decimated(
        data, family, level, subband, boundary)


def _fourier_domain(axes, what):
    """The Fourier-domain filters work on the frequency grid of the filtered
    axes, so they need those axes isotropic, and they always periodise.
    Returns their route, which names that boundary."""
    _isotropic_scale(axes, what)
    return "Fourier-domain route, applied boundary periodise"


def _plan_nonseparable(p, axes, boundary):
    profile = RadialProfile(p["wavelet"], p["level"])
    return (_fourier_domain(axes, "the nonseparable filter"),
            lambda data, transfers: nonseparable_b_map(data, profile, transfers, len(axes)))


def _plan_riesz(p, axes, boundary):
    ndim, l, sigma = len(axes), p["l"], p["sigma_tensor_vox"]
    profile = RadialProfile(p["wavelet"], p["level"])
    route = _fourier_domain(axes, "the Riesz filter")
    if not p["align"]:
        return route, lambda data, transfers: riesz_filtered_map(data, profile, l, transfers)
    if sum(l) != 2:
        raise ValueError("alignment is defined for second-order Riesz sets")
    size = _taps(sigma, 4.0, "riesz filter sigma_tensor")
    order1, order2 = riesz_indices(1, ndim), riesz_indices(2, ndim)

    def run(data, transfers):
        maps = riesz_filtered_maps(data, profile, order1 + order2, transfers)
        return align_order2(maps, structure_tensor([next(maps)[1] for _ in order1], sigma))

    return f"structure tensor kernel size {size}, {route}", run


_FLAG = _Param(bool, False)
_ROTINV = ("rotation_invariance", True)
_NOT_ROTINV = ("rotation_invariance", False)
_LEVEL = _Param(int, required=True, low=1, high=_MAX_LEVEL)
_RADIAL = _Param(RADIAL_KINDS, required=True)


def _pool(default):
    return _Param(POOL_MODES, default, switch=_ROTINV)


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
                            "gamma": _Param(float, 1.0),
                            "dtheta": _Param(float, required=True, switch=_ROTINV),
                            "theta": _Param(float, 0.0, low=-math.inf, switch=_NOT_ROTINV),
                            "rotation_invariance": _FLAG, "pool": _pool("average")}),
    "wavelet": (_plan_wavelet, {"wavelet": _Param(WAVELET_NAMES, required=True), "level": _LEVEL,
                                "subband": _Param(_check_subband, required=True),
                                "rotation_invariance": _FLAG, "pool": _pool("average"),
                                "decimated": _FLAG}),
    "nonseparable": (_plan_nonseparable, {"wavelet": _RADIAL, "level": _LEVEL}),
    "riesz": (_plan_riesz, {"wavelet": _RADIAL, "level": _LEVEL,
                            "l": _Param(_check_index, required=True), "align": _FLAG,
                            **_scale("sigma_tensor", required=True, switch=("align", True))}),
}

FILTER_KINDS = tuple(_PLANNERS)
# parameter key -> the kinds that take it, in table order
FILTER_PARAMETERS = {key: tuple(kind for kind, (_, specs) in _PLANNERS.items() if key in specs)
                     for _, specs in _PLANNERS.values() for key in specs}


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
    "boundary": ("boundary", _Param(BOUNDARY_MODES)),
    "resegment_hu": ("reseg_range", _Param(_range)),
    "resample.spacing_mm": ("resample_spacing_mm", _Param(
        lambda value, ndim: _check_spacing(value, ndim, "resample spacing_mm", "resampling"),
        required=True)),
    "resample.image_interpolation": ("image_interpolation", _Param(("trilinear", "tricubic"))),
    "resample.mask_threshold": ("mask_threshold", _Param(float, high=1.0)),
    "resample.rounding": ("rounding", _Param(bool)),
}
# the keys of a file's top level and resample block, as _check_keys reads them
_TOP_KEYS = {"test_id": _Param(str), **{k: s for k, (_, s) in _CONFIG.items() if "." not in k},
             "resample": _Param(dict), "filter": _Param(dict, required=True)}
_RESAMPLE_KEYS = {k.removeprefix("resample."): s for k, (_, s) in _CONFIG.items() if "." in k}


def _setting(key, value):
    """``value`` typed by the ``_CONFIG`` entry of ``key``, or a ValueError
    naming the key; None passes where its field's default is None."""
    name, spec = _CONFIG[key]
    if value is None and ProcessingConfig.__dataclass_fields__[name].default is None:
        return None
    return spec.typed(value, None, key.rpartition(".")[2])


def _summary(kind, mode, boundary, specs, p, route) -> str:
    """A plan's log line: kind, mode, boundary, each typed
    key that applies with its value in voxels, then the planner's route.  A
    float shows as its shortest round-trip repr, so the line is exact, a bool
    as YAML writes it and a Riesz index as --riesz takes it."""
    shown = [f"mode {mode}", f"boundary {boundary}"]
    for key, value in p.items():
        if value is not None and specs[key].holds(p):
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            shown.append(f"{key} {text.lower() if isinstance(value, bool) else text}")
    return f"{kind} filter: {', '.join(shown)}; {route}"


def plan_filter(filt: FilterConfig, spacing, mode: str, boundary: str = "mirror") -> FilterPlan:
    """Check one filter's parameters, convert them to voxels and build its kernels.

    ``spacing`` is the volume's spacing in mm, checked by the one spacing
    rule (any number of axes).  Every parameter is checked
    against its entry in ``_PLANNERS``, and ``mode`` and ``boundary``
    against theirs in ``_CONFIG``, before the planner runs, and
    each error names the key.  The plan's ``run`` filters
    each (k1, k2) slice in 2-D mode and the whole volume in 3-D mode, where
    the planar Gabor filter needs an isotropic grid and always averages its
    plane responses over the three plane stacks, as its route says.
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
    invariance.  The constant boundary pads with zeros.
    """
    spacing = _check_spacing(spacing, None)
    mode, boundary = _setting("mode", mode), _setting("boundary", boundary)
    if mode == "2d" and len(spacing) != 3:
        raise ValueError(f"2d mode filters the slices of a 3-D volume, so it needs 3 spacing "
                         f"entries, got {tuple(spacing)}")
    kind, params = filt.kind, filt.params
    planner, specs = _PLANNERS[kind]
    _check_keys(params, specs, f"{kind} filter")
    mm, vox = ([k for k in sorted(params) if specs[k].unit == unit] for unit in ("mm", "vox"))
    if mm and vox:
        raise ValueError(f"{kind} filter mixes physical and voxel units ({mm} with {vox}); "
                         "pick one unit system per invocation")
    if mode == "2d" and params.get("decimated") is True:
        raise ValueError("the decimated transform runs on the full volume; use mode 3d")
    axes = tuple(spacing[:2]) if mode == "2d" else tuple(spacing)
    slices = map_slices if mode == "2d" and kind != "none" else None
    if kind == "gabor" and mode == "3d":
        scale = _isotropic_scale(axes, "the Gabor filter")
        axes = (scale, scale)
        slices = orthogonal_plane_average
    p = {key: spec.default for key, spec in specs.items()}
    for key, value in params.items():
        spec, what = specs[key], f"{kind} filter {key}"
        value = spec.typed(value, len(axes), what)
        if spec.unit == "mm":
            key, value = key[:-3] + "_vox", value / _isotropic_scale(axes, what)
        if spec.unit and not 0.0 < value * value < math.inf:
            raise ValueError(f"{what} is {value!r} voxels, whose square {value * value!r} "
                             "must be neither 0 nor inf")
        p[key] = value
    route, op = planner(p, axes, boundary)
    if slices is orthogonal_plane_average:
        route += ", mean of the three orthogonal plane stacks"
    summary = _summary(kind, mode, boundary, specs, p, route)
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
                 boundary: str = "mirror", threads: int = 1) -> np.ndarray:
    """Filter a whole volume with ``filt.plan(image.spacing, mode, boundary)``,
    the plan the filter keeps: calls with the same grid and settings plan
    once and reuse its kernels and transfers."""
    return filt.plan(image.spacing, mode, boundary).run(image.data, threads)


@dataclass(frozen=True)
class Prepared:
    """An image and mask made ready for filtering under one preprocessing key.

    ``work`` is the image after resampling and rounding, ``intensity_mask``
    the re-segmented ROI on its grid, ``diagnostics`` the five features that
    describe both masks, and ``key`` the settings that made them: resample
    spacing, image interpolation, mask threshold, rounding and
    re-segmentation range.  ``work.data`` is read-only unless it is the
    caller's writeable image data, and ``intensity_mask`` is read-only as
    every mask is.
    """

    key: tuple
    work: VolumeImage
    intensity_mask: RoiMask
    diagnostics: tuple


# The latest kept preparation, (image ref, mask ref, Prepared), or None.  It
# holds weak references to its pair only, and each change is one
# assignment, so threads need no lock: a lost race only drops the slot.
_kept = None


def _forget(ref):
    """Weakref callback: drop the kept preparation when its image or mask goes."""
    global _kept
    kept = _kept
    if kept is not None and (ref is kept[0] or ref is kept[1]):
        _kept = None


def prepare(image: VolumeImage, mask: RoiMask, config: ProcessingConfig) -> Prepared:
    """Resample, round and re-segment as ``config`` says; returns a :class:`Prepared`.

    The image must be finite, the mask must have its dims, and the
    re-segmented ROI must not be empty.  The latest preparation is kept:
    a call with the same image and mask objects and a configuration of the
    same key returns it, so a loop over the configurations of one key
    prepares once.  It is kept only while no write can reach
    ``image.data`` or ``mask.membership`` (:func:`voxfilt.image._read_only`),
    which holds for :func:`voxfilt.image.create_image` images and for every
    mask; a writeable image is prepared on every call.  Only one
    preparation is kept: another pair, another key or a writeable pair
    replaces it, and collecting the image or the mask drops it.
    """
    global _kept
    if mask.dims != image.dims:
        raise ValueError(f"mask dims {mask.dims} do not match image dims {image.dims}")
    key = (config.resample_spacing_mm, config.image_interpolation, config.mask_threshold,
           config.rounding, config.reseg_range)
    keep = _read_only(image.data) and _read_only(mask.membership)
    kept = _kept
    if (keep and kept is not None and kept[2].key == key
            and kept[0]() is image and kept[1]() is mask):
        return kept[2]
    _check_finite(image.data)  # before resampling spreads a bad voxel
    work, roi = image, mask
    if config.resample_spacing_mm is not None:
        work = resample_image(work, config.resample_spacing_mm, config.image_interpolation)
        roi = resample_mask(roi, image.spacing, config.resample_spacing_mm,
                            config.mask_threshold)
    if config.rounding:
        work = round_intensities(work)
    if work is image:  # a kept preparation must not keep the image alive
        work = VolumeImage(image.data, image.spacing)
    else:
        _freeze(work.data)
    intensity_mask = resegment(roi, work, config.reseg_range)
    if intensity_mask.voxel_count == 0:
        raise ValueError("empty ROI after re-segmentation")
    prepared = Prepared(key, work, intensity_mask,
                        diagnostics(mask.membership, intensity_mask.membership, work.data))
    _kept = (weakref.ref(image, _forget), weakref.ref(mask, _forget), prepared) if keep else None
    return prepared


def run_configuration(image: VolumeImage, mask: RoiMask, config: ProcessingConfig,
                      threads: int = 1):
    """Execute a full configuration; returns (response, intensity mask, features).

    The feature tuple holds the five diagnostics followed by the eighteen
    intensity statistics of the response over the re-segmented ROI.  The
    configuration is planned first (``config.plan``), so a bad filter fails
    before any preprocessing.  :func:`prepare` then resamples, rounds and
    re-segments, or returns the preparation it kept for the same image,
    mask and key, and the filter and the statistics run on its result.
    The filter keeps its plan, and :func:`apply_filter` runs it, so running
    one configuration on image after image plans it once per grid and
    reuses its kernels and transfers.
    """
    config.plan(image.spacing)
    prepared = prepare(image, mask, config)
    work, intensity_mask = prepared.work, prepared.intensity_mask
    response = work.with_data(apply_filter(work, config.filter, config.mode, config.boundary,
                                           threads))
    features = prepared.diagnostics + intensity_statistics(response.data,
                                                           intensity_mask.membership)
    return response, intensity_mask, features
