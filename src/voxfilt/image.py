"""Volume containers, axis conventions and grid geometry helpers.

Axis convention: index ``k1`` runs left to right, ``k2`` top to bottom and
``k3`` front to back, all increasing with the grid index.  Arrays are indexed
``data[k1, k2, k3]`` and stored Fortran-contiguous so that ``k1`` is the
fastest-varying index in memory (the same layout NIfTI uses on disk).
"""

from __future__ import annotations

import threading
from concurrent import futures
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VolumeImage",
    "RoiMask",
    "create_image",
    "round_half_away",
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
        _check_spacing(self.spacing, self.data.ndim)

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

    ``membership`` is stored read-only and Fortran-contiguous, like the data
    of :func:`create_image`, so a mask built in C order still meets its
    image in the same layout.  A given array is kept as given only when it
    is Fortran-contiguous and neither it nor any array it views can be
    written (see :func:`_read_only`); any other is copied, so the caller's
    array is never frozen in place and later writes to its memory never
    reach the mask.  (API change: ``membership`` used to be writeable.)
    """

    membership: np.ndarray

    def __post_init__(self):
        membership = self.membership
        if membership.dtype != np.bool_:
            raise ValueError("mask membership must be boolean")
        if not (membership.flags.f_contiguous and _read_only(membership)):
            membership = np.array(membership, order="F")
            membership.flags.writeable = False
        object.__setattr__(self, "membership", membership)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.membership.shape

    @property
    def voxel_count(self) -> int:
        return int(np.count_nonzero(self.membership))


def _read_only(arr) -> bool:
    """Whether no write can reach ``arr``'s memory through numpy: ``arr``
    and every array it views are read-only, and the last of them owns the
    memory.  Memory owned by anything else (a bytearray, an mmap) is not
    trusted.  Whoever holds the owning array can still make it writeable
    again; voxfilt's own arrays are never handed out writeable."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        if arr.base is None:
            return True
        arr = arr.base
    return False


def create_image(dims, spacing, data) -> VolumeImage:
    """Build an immutable volume from flat or shaped intensity data.

    Flat input is unravelled with ``k1`` fastest (Fortran order).  Intensities
    are held as 64-bit floats regardless of the input dtype, in a read-only
    copy that no caller holds, so later writes to ``data`` never reach the
    image; a NaN or infinite voxel is an error.
    """
    return _owned_image(dims, spacing, np.array(data, dtype=np.float64, order="F"))


def _owned_image(dims, spacing, arr) -> VolumeImage:
    """:func:`create_image` over ``arr``, a float64 array that only the
    caller holds and gives up: it is frozen, not copied."""
    dims = tuple(int(n) for n in dims)
    if any(n <= 0 for n in dims):
        raise ValueError(f"dims must be positive, got {dims}")
    if arr.size != int(np.prod(dims)):
        raise ValueError(f"data has {arr.size} values, expected {int(np.prod(dims))} for dims {dims}")
    _check_finite(arr)
    arr = _freeze(np.asfortranarray(arr.reshape(dims, order="F")))
    return VolumeImage(arr, tuple(float(s) for s in spacing))


def _freeze(arr) -> np.ndarray:
    """``arr``, made read-only with every array it views, so that
    :func:`_read_only` holds; only for arrays that no caller holds."""
    view = arr
    while isinstance(view, np.ndarray):
        view.flags.writeable = False
        view = view.base
    return arr


def _check_finite(data) -> None:
    """Reject an array that holds a NaN or an infinite value."""
    bad = np.size(data) - np.count_nonzero(np.isfinite(data))
    if bad:
        raise ValueError(f"{bad} of {np.size(data)} voxels are not finite (NaN or infinite)")


def round_half_away(data) -> np.ndarray:
    """Round to the nearest integer, halves away from zero, as float64.

    The fraction |x| - floor(|x|) is exact, so the half test is too: adding
    0.5 before the floor would round 0.49999999999999994 up to 1 and odd
    integers in [2^52, 2^53) up by one.  -0.0 gives +0.0, and ±inf and NaN
    stay as they are.
    """
    magnitude = np.abs(data, dtype=np.float64)
    rounded = np.floor(magnitude)
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, which is not >= 0.5
        magnitude -= rounded
    rounded += magnitude >= 0.5
    rounded *= np.sign(data)
    return rounded


def _is_number(value) -> bool:
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


# NIfTI-1 stores a spacing as a float32 pixdim: above the largest float32 it
# cannot be written, and below the smallest normal one it loses precision
# or reads back as 0, which NIfTI readers take as 1 mm
_SPACING_RANGE = (float(np.finfo(np.float32).tiny), float(np.finfo(np.float32).max))
_MAX_AXIS_VOXELS = int(np.iinfo(np.int16).max)  # NIfTI-1 stores each dim as an int16


def _check_spacing(spacing, ndim, what="spacing", grid="voxel") -> tuple:
    """``spacing`` as a tuple of floats if it holds one positive finite value
    in float32's normal range per axis, ``ndim`` of them or, with ``ndim``
    None, any number; else a ValueError naming ``what``.  The one spacing
    rule of images, resamplers and configurations."""
    low, high = _SPACING_RANGE
    values = tuple(spacing) if isinstance(spacing, (list, tuple, np.ndarray)) else ()
    if (not values or ndim is not None and len(values) != ndim
            or not all(_is_number(s) and low <= s <= high for s in values)):
        axes = "" if ndim is None else f" ({ndim} axes)"
        raise ValueError(f"{what} must be one positive finite {grid} spacing per axis{axes}, "
                         f"from {low:.4g} to {high:.4g} mm as NIfTI-1 stores it, "
                         f"got {spacing!r}")
    return tuple(float(s) for s in values)


def _integral(value, what) -> int:
    """``value`` as an int; a bool, a fraction or a non-number is an error."""
    if not _is_number(value) or not float(value).is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


# Voxels per slab, the unit of work of map_slices: 4 planes of 128^2.  A slab
# batches its planes through every numpy call of a 2-D op, so the threads
# spend longer in numpy's loops, which release the interpreter lock, per
# call into the interpreter.  Measured on the ten 2-D configs over
# 128 x 128 x 32 at two threads (2-core x86-64, best of 5 passes): 2, 4 and
# 8 planes took a pass from 515 ms to 399, 346 and 396 ms and moved the
# process's RSS after two passes by -0.5, +1.8 and +7.7 MB (63.3 MB
# before): each worker's allocator keeps its largest slab working set, the
# aligned Riesz filter's, about 7x the slab.
_SLAB_VOXELS = 4 * 128 * 128


def map_slices(volume, op, threads: int = 1) -> np.ndarray:
    """Apply a 2-D operation to every (k1, k2) slice of a 3-D array, in slabs.

    A slab, the unit of work, is a run of consecutive slices, as many as
    fit in ``_SLAB_VOXELS`` voxels (4 planes of 128^2; one plane at least).
    ``op`` takes each slab as a C-ordered float64 stack of shape (k, n1, n2),
    one plane per slice, and returns a stack of that shape in which each
    plane is filtered on its own.  With ``threads`` > 1 the calling thread
    and ``threads`` - 1 helper threads, no more than there are other slabs,
    take the slabs in turn, so memory holds one slab's working set per
    thread.  Each result is stored at its own indices, so the output depends
    neither on the thread count nor on the slab size.  A result whose shape
    differs from its stack is rejected.
    """
    n1, n2, count = volume.shape
    planes = max(1, _SLAB_VOXELS // (n1 * n2))
    out = np.empty(volume.shape, dtype=np.float64, order="F")

    def run(start):
        slab = slice(start, start + planes)
        stack = np.ascontiguousarray(np.moveaxis(volume[:, :, slab], 2, 0), dtype=np.float64)
        piece = op(stack)
        if np.shape(piece) != stack.shape:
            raise ValueError("per-slab operation must preserve slice dimensions")
        out[:, :, slab] = np.moveaxis(piece, 0, 2)

    slabs = range(0, count, planes)
    helpers = min(threads, len(slabs)) - 1  # a helper beyond that would find no slab
    starts = iter(slabs)
    lock = threading.Lock()

    # shared queue, not executor.map: one more thread's arena took slices-2d peak RSS 84 -> 90 MB
    def drain():
        while True:
            with lock:
                start = next(starts, None)
            if start is None:
                return
            run(start)

    # the calling thread is one of the workers
    with futures.ThreadPoolExecutor(max_workers=max(1, helpers)) as executor:
        pending = [executor.submit(drain) for _ in range(helpers)]
        drain()
        for helper in pending:
            helper.result()  # re-raises a helper's failure
    return out
