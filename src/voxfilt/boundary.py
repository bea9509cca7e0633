"""Image extension (padding) methods applied before spatial convolution.

Four modes are supported, named as they appear on the command line:

* ``constant``  -- every voxel outside the image gets a fixed value C
  (zero padding when C = 0)
* ``nearest``   -- replicate the closest edge voxel
* ``periodise`` -- tile the image, f_ext[k] = f[k mod N]
* ``mirror``    -- fold the image at each face; the boundary voxel is the
  mirror axis and is not duplicated, so the halo for [1, 2, 3] with margin 2
  reads [3, 2, | 1, 2, 3 |, 2, 1]

:func:`pad` delegates to :func:`numpy.pad` (``edge``, ``wrap``, ``reflect``
and ``constant`` respectively).  :func:`extended_index` documents the same map
as a total index function, so margins larger than the image itself wrap or
fold repeatedly instead of failing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BOUNDARY_MODES", "CONSTANT_SENTINEL", "extended_index", "pad"]

BOUNDARY_MODES = ("constant", "nearest", "periodise", "mirror")

# extended_index return value for out-of-range voxels in constant mode
CONSTANT_SENTINEL = -1

# numpy.pad names of the non-constant modes
_NUMPY_MODES = {"nearest": "edge", "periodise": "wrap", "mirror": "reflect"}


def _check_mode(mode: str):
    if mode not in BOUNDARY_MODES:
        raise ValueError(f"unknown boundary mode {mode!r}, expected one of {BOUNDARY_MODES}")


def extended_index(k, n: int, mode: str):
    """Map an arbitrary integer index onto a source index in [0, n).

    Works element-wise on arrays.  For ``constant`` mode, indices outside the
    image map to :data:`CONSTANT_SENTINEL` (the caller substitutes C).
    """
    _check_mode(mode)
    if n < 1:
        raise ValueError(f"axis length must be >= 1, got {n}")
    k = np.asarray(k, dtype=np.int64)
    if mode == "nearest":
        out = np.clip(k, 0, n - 1)
    elif mode == "periodise":
        out = k % n
    elif mode == "mirror":
        if n == 1:
            out = np.zeros_like(k)
        else:
            # reflection about both faces has period 2(n-1)
            period = 2 * (n - 1)
            m = k % period
            out = np.where(m < n, m, period - m)
    else:  # constant
        out = np.where((k >= 0) & (k < n), k, CONSTANT_SENTINEL)
    if out.ndim == 0:
        return int(out)
    return out


def pad(image: np.ndarray, margin, mode: str, constant: float = 0.0) -> np.ndarray:
    """Extend ``image`` by ``margin`` voxels on both sides of every axis.

    ``margin`` is a scalar or one value per axis.  The interior block of the
    result equals the input exactly; the halo is imputed per ``mode``.  The
    result is always a new C-contiguous array: the convolution passes sum in
    an order that depends on memory layout, so it must not vary with the input.
    """
    _check_mode(mode)
    image = np.asarray(image)
    margins = np.broadcast_to(np.asarray(margin, dtype=int), (image.ndim,))
    if np.any(margins < 0):
        raise ValueError(f"margin must be non-negative, got {margin}")
    widths = [(int(m), int(m)) for m in margins]
    image = np.ascontiguousarray(image)
    if mode == "constant":
        return np.pad(image, widths, mode="constant", constant_values=constant)
    return np.pad(image, widths, mode=_NUMPY_MODES[mode])
