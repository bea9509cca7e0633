"""Volume containers, axis conventions and grid geometry helpers.

Axis convention: index ``k1`` runs left to right, ``k2`` top to bottom and
``k3`` front to back, all increasing with the grid index.  Arrays are indexed
``data[k1, k2, k3]`` and stored Fortran-contiguous so that ``k1`` is the
fastest-varying index in memory (the same layout NIfTI uses on disk).
"""

from __future__ import annotations

from concurrent import futures
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VolumeImage",
    "RoiMask",
    "create_image",
    "round_half_away",
    "interior_region",
    "map_slices",
]


@dataclass(frozen=True)
class VolumeImage:
    """A 2-D or 3-D scalar grid with voxel spacing in millimetres."""

    data: np.ndarray
    spacing: tuple[float, ...]

    def __post_init__(self):
        if self.data.ndim not in (2, 3):
            raise ValueError(f"expected a 2-D or 3-D volume, got ndim={self.data.ndim}")
        if len(self.spacing) != self.data.ndim:
            raise ValueError(
                f"spacing has {len(self.spacing)} entries for a {self.data.ndim}-D volume"
            )
        if any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing must be strictly positive, got {self.spacing}")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def with_data(self, data: np.ndarray) -> "VolumeImage":
        """Same grid, new voxel values."""
        if data.shape != self.data.shape:
            raise ValueError(f"shape {data.shape} does not match grid {self.data.shape}")
        return VolumeImage(np.asfortranarray(data, dtype=np.float64), self.spacing)


@dataclass(frozen=True)
class RoiMask:
    """Boolean voxel membership aligned to a companion :class:`VolumeImage` grid.

    ``membership`` is stored Fortran-contiguous, like ``VolumeImage.data``,
    so a mask built in C order still meets its image in the same layout.
    ``kind`` distinguishes the geometric (morphological) mask from the
    intensity mask that remains after range re-segmentation.
    """

    membership: np.ndarray
    kind: str = "morphological"

    def __post_init__(self):
        if self.membership.dtype != np.bool_:
            raise ValueError("mask membership must be boolean")
        object.__setattr__(self, "membership", np.asfortranarray(self.membership))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.membership.shape

    @property
    def voxel_count(self) -> int:
        return int(np.count_nonzero(self.membership))


def create_image(dims, spacing, data) -> VolumeImage:
    """Build an immutable volume from flat or shaped intensity data.

    Flat input is unravelled with ``k1`` fastest (Fortran order).  Intensities
    are held as 64-bit floats regardless of the input dtype; a NaN or
    infinite voxel is an error.
    """
    dims = tuple(int(n) for n in dims)
    if any(n <= 0 for n in dims):
        raise ValueError(f"dims must be positive, got {dims}")
    arr = np.asarray(data, dtype=np.float64)
    if arr.size != int(np.prod(dims)):
        raise ValueError(f"data has {arr.size} values, expected {int(np.prod(dims))} for dims {dims}")
    bad = arr.size - np.count_nonzero(np.isfinite(arr))
    if bad:
        raise ValueError(f"{bad} of {arr.size} voxels are not finite (NaN or infinite)")
    if arr.shape != dims:
        arr = arr.reshape(dims, order="F")
    arr = np.asfortranarray(arr)
    arr.flags.writeable = False
    return VolumeImage(arr, tuple(float(s) for s in spacing))


def round_half_away(data) -> np.ndarray:
    """Round to the nearest integer, halves away from zero."""
    return np.sign(data) * np.floor(np.abs(data) + 0.5)


def _is_number(value) -> bool:
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _integral(value, what) -> int:
    """``value`` as an int; a bool, a fraction or a non-number is an error."""
    if not _is_number(value) or not float(value).is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def interior_region(dims, margin) -> np.ndarray:
    """Boolean mask of voxels at distance >= margin from every face.

    ``margin`` may be a scalar or one value per axis.  The interior must be
    non-empty: 2*margin < dims on every axis.
    """
    dims = tuple(int(n) for n in dims)
    margins = np.broadcast_to(np.asarray(margin, dtype=int), (len(dims),))
    if np.any(margins < 0):
        raise ValueError(f"margin must be non-negative, got {margin}")
    if any(2 * m >= n for m, n in zip(margins, dims)):
        raise ValueError(f"margin {tuple(margins)} leaves no interior for dims {dims}")
    mask = np.zeros(dims, dtype=bool)
    core = tuple(slice(m, n - m) for m, n in zip(margins, dims))
    mask[core] = True
    return mask


def map_slices(volume, op, threads: int = 1) -> np.ndarray:
    """Apply a 2-D operation to every (k1, k2) slice of a 3-D array.

    With ``threads`` > 1 the slices run on a thread pool, so memory holds
    one slice's working set per thread.  Each result is stored at its own
    index, so the output does not depend on the thread count.  A result
    whose shape differs from its slice is rejected.
    """
    out = np.empty(volume.shape, dtype=np.float64, order="F")

    def run(index):
        piece = op(volume[:, :, index])
        if np.shape(piece) != volume.shape[:2]:
            raise ValueError("per-slice operation must preserve slice dimensions")
        out[:, :, index] = piece

    indices = range(volume.shape[2])
    if threads > 1:
        with futures.ThreadPoolExecutor(max_workers=threads) as executor:
            list(executor.map(run, indices))  # re-raises the first failure
    else:
        for index in indices:
            run(index)
    return out
