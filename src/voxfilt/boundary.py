"""Image extension (padding) methods applied before spatial convolution.

Four modes are supported, named as they appear on the command line:

* ``constant``  -- every voxel outside the image is zero (zero padding)
* ``nearest``   -- replicate the closest edge voxel
* ``periodise`` -- tile the image, f_ext[k] = f[k mod N]
* ``mirror``    -- fold the image at each face; the boundary voxel is the
  mirror axis and is not duplicated, so the halo for [1, 2, 3] with margin 2
  reads [3, 2, | 1, 2, 3 |, 2, 1]

:func:`pad` delegates to :func:`numpy.pad` (``constant``, ``edge``, ``wrap``
and ``reflect`` respectively), so margins larger than the image itself wrap
or fold repeatedly instead of failing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BOUNDARY_MODES", "pad"]

BOUNDARY_MODES = ("constant", "nearest", "periodise", "mirror")

# numpy.pad names of the modes; numpy's constant fill is zero by default
_NUMPY_MODES = {"constant": "constant", "nearest": "edge", "periodise": "wrap",
                "mirror": "reflect"}


def _check_mode(mode: str):
    if mode not in BOUNDARY_MODES:
        raise ValueError(f"unknown boundary mode {mode!r}, expected one of {BOUNDARY_MODES}")


def pad(image: np.ndarray, margin, mode: str) -> np.ndarray:
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
    return np.pad(np.ascontiguousarray(image), widths, mode=_NUMPY_MODES[mode])
