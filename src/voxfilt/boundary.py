"""Image extension (padding) methods applied before spatial convolution.

Four modes are supported, named as they appear on the command line:

* ``constant``  -- every voxel outside the image is zero (zero padding)
* ``nearest``   -- replicate the closest edge voxel
* ``periodise`` -- tile the image, f_ext[k] = f[k mod N]
* ``mirror``    -- fold the image at each face; the boundary voxel is the
  mirror axis and is not duplicated, so the halo for [1, 2, 3] with margin 2
  reads [3, 2, | 1, 2, 3 |, 2, 1]

Each mode is an index map, total in the index (:func:`_sources`), so
margins larger than the image wrap or fold repeatedly instead of failing.
:func:`pad` and the spatial passes' slabs (:func:`_window`) read through it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BOUNDARY_MODES", "pad"]

BOUNDARY_MODES = ("constant", "nearest", "periodise", "mirror")


def _sources(k, n: int, mode: str) -> np.ndarray:
    """The source of each index in the integer array ``k`` on an ``n``-voxel
    axis: k mod n (periodise), folds of period 2(n - 1), 0 where n = 1
    (mirror), clamping (nearest), or -1 outside the axis, read as 0 (constant)."""
    if mode == "constant":
        return np.where((0 <= k) & (k < n), k, -1)
    if n < 1:
        raise ValueError(f"cannot extend an empty axis in {mode} mode")
    if mode == "periodise":
        return k % n
    if mode == "nearest":
        return np.clip(k, 0, n - 1)
    period = max(2 * (n - 1), 1)
    k = k % period
    return np.where(k < n, k, period - k)


def _window(image: np.ndarray, windows, mode: str) -> np.ndarray:
    """``image`` at indices [lo, hi) per axis, a pair per axis in ``windows``,
    resolved by ``mode`` outside the axis, in a new C-ordered block: copied
    in once, then each axis's outer planes from the block, or from the image
    for an axis held in part (only the first whose window leaves it may)."""
    inside = tuple(slice(max(lo, 0), min(hi, n)) for (lo, hi), n in zip(windows, image.shape))
    placed = tuple(slice(i.start - lo, i.stop - lo) for i, (lo, _) in zip(inside, windows))
    block = (np.zeros if mode == "constant" else np.empty)(
        tuple(hi - lo for lo, hi in windows), image.dtype)
    block[placed] = image[inside]
    for axis, ((lo, hi), n) in enumerate(zip(windows, image.shape)):
        if mode == "constant" or (0 <= lo and hi <= n):
            continue
        outer = np.concatenate((np.arange(lo, min(0, hi)), np.arange(max(n, lo), hi)))
        sources = _sources(outer, n, mode)
        rows, rest = (slice(None),) * axis, placed[axis + 1:]
        if lo <= 0 and n <= hi:
            block[rows + (outer - lo,) + rest] = block[rows + (sources - lo,) + rest]
        else:
            block[rows + (outer - lo,) + rest] = image.take(sources, axis)
    return block


def pad(image: np.ndarray, margin, mode: str) -> np.ndarray:
    """Extend ``image`` by ``margin`` voxels on both sides of every axis.

    ``margin`` is a scalar or one value per axis.  The interior block of the
    result equals the input exactly; the halo is imputed per ``mode``.  The
    result is always a new C-contiguous array (:func:`_window`): the
    convolution passes sum in an order that depends on memory layout, so
    it must not vary with the input.
    """
    if mode not in BOUNDARY_MODES:
        raise ValueError(f"unknown boundary mode {mode!r}, expected one of {BOUNDARY_MODES}")
    image = np.asarray(image)
    margins = np.broadcast_to(np.asarray(margin, dtype=int), (image.ndim,))
    if np.any(margins < 0):
        raise ValueError(f"margin must be non-negative, got {margin}")
    return _window(image, [(-int(m), n + int(m)) for m, n in zip(margins, image.shape)], mode)
