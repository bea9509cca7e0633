"""Right-angle equivariant kernel sets and orientation pooling.

Rotating a separable kernel by a right angle keeps it separable: each
rotation amounts to permuting the 1-D factors and reversing some of
them.  The tables below enumerate the 4 planar and 24 spatial cases,
labelled by extrinsic Euler angles (alpha about k3, then beta about k2,
then gamma about k1), so that element ``(a, b, g)`` equals
``kernel(R_a R_b R_g x)``.

Even-length factors get a trailing zero first.  Reversal must keep the
centre tap at floor(M/2); without the padding the flipped kernel would
shift its response by one voxel and the set would stop matching actual
rotations of the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import convolve_separable
from .image import map_slices

__all__ = [
    "EquivariantSet",
    "flip_1d",
    "oddify",
    "equivariant_set_2d",
    "equivariant_set_3d",
    "equivariant_cascades",
    "cascade",
    "pooled_cascades",
    "pool",
    "gabor_orientation_set",
    "orthogonal_plane_average",
]


def _as_kernel(kernel) -> np.ndarray:
    g = np.asarray(kernel, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("kernel must be a non-empty 1-D array")
    return g


def flip_1d(kernel) -> np.ndarray:
    """Reverse a 1-D kernel (multiplication by the exchange matrix J)."""
    return _as_kernel(kernel)[::-1].copy()


def oddify(kernel) -> np.ndarray:
    """Append one trailing zero to even-length kernels; odd ones pass through."""
    g = _as_kernel(kernel)
    if g.size % 2 == 1:
        return g.copy()
    return np.append(g, 0.0)


@dataclass(frozen=True)
class EquivariantSet:
    """Separable kernel variants covering a right-angle rotation group.

    ``elements[i]`` holds one 1-D kernel per image axis; ``labels[i]``
    is the matching rotation angle (2-D) or extrinsic Euler triple
    (3-D), in radians.
    """

    elements: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.elements) not in (4, 24):
            raise ValueError("equivariant sets have 4 (2-D) or 24 (3-D) elements")
        if len(self.labels) != len(self.elements):
            raise ValueError("one rotation label per element")
        for kernels in self.elements:
            for g in kernels:
                if g.size % 2 == 0:
                    raise ValueError("set elements must hold odd-length kernels")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


# Rows give, for each output axis, the source factor (1-based) and
# whether it is reversed.  Angles are counted in quarter turns.
_TABLE_2D = (
    (0, ((1, False), (2, False))),
    (1, ((2, True), (1, False))),
    (2, ((1, True), (2, True))),
    (3, ((2, False), (1, True))),
)

_TABLE_3D = (
    ((0, 0, 0), ((1, False), (2, False), (3, False))),
    ((0, 1, 0), ((3, True), (2, False), (1, False))),
    ((0, 2, 0), ((1, True), (2, False), (3, True))),
    ((0, 3, 0), ((3, False), (2, False), (1, True))),
    ((1, 0, 1), ((2, False), (3, False), (1, False))),
    ((1, 0, 3), ((2, False), (3, True), (1, True))),
    ((1, 0, 0), ((2, False), (1, True), (3, False))),
    ((2, 0, 0), ((1, True), (2, True), (3, False))),
    ((3, 0, 0), ((2, True), (1, False), (3, False))),
    ((0, 1, 3), ((3, True), (1, True), (2, False))),
    ((0, 1, 2), ((3, True), (2, True), (1, True))),
    ((0, 1, 1), ((3, True), (1, False), (2, True))),
    ((1, 2, 0), ((2, True), (1, True), (3, True))),
    ((2, 2, 0), ((1, False), (2, True), (3, True))),
    ((3, 2, 0), ((2, False), (1, False), (3, True))),
    ((0, 3, 1), ((3, False), (1, True), (2, True))),
    ((0, 3, 2), ((3, False), (2, True), (1, False))),
    ((0, 3, 3), ((3, False), (1, False), (2, False))),
    ((2, 0, 1), ((1, True), (3, False), (2, False))),
    ((3, 0, 1), ((2, True), (3, False), (1, True))),
    ((0, 0, 1), ((1, False), (3, False), (2, True))),
    ((2, 0, 3), ((1, True), (3, True), (2, True))),
    ((3, 0, 3), ((2, True), (3, True), (1, False))),
    ((0, 0, 3), ((1, False), (3, True), (2, False))),
)

_QUARTER = math.pi / 2.0


def _single_stage_set(factors) -> EquivariantSet:
    elements, labels = equivariant_cascades([[g] for g in factors])
    kernels = tuple(tuple(stages[0] for stages in element) for element in elements)
    return EquivariantSet(kernels, labels)


def equivariant_set_2d(g1, g2) -> EquivariantSet:
    """The four right-angle rotations of the separable kernel g1 (x) g2."""
    return _single_stage_set((g1, g2))


def equivariant_set_3d(g1, g2, g3) -> EquivariantSet:
    """All 24 right-angle rotations of the separable kernel g1 (x) g2 (x) g3."""
    return _single_stage_set((g1, g2, g3))


def equivariant_cascades(stage_lists):
    """Rotate a per-axis cascade of 1-D stages through all right angles.

    ``stage_lists[axis]`` holds the kernels convolved in sequence along
    that axis (one per cascade level).  Returns ``(elements, labels)``:
    ``elements[i][axis]`` is the rotated stage tuple for one rotation,
    every stage oddified and reversed as the rotation demands.  Reversing
    stage by stage is exact because reversal distributes over convolution.
    """
    if len(stage_lists) == 2:
        table = _TABLE_2D
        label_fn = lambda q: q * _QUARTER  # noqa: E731
    elif len(stage_lists) == 3:
        table = _TABLE_3D
        label_fn = lambda q: tuple(a * _QUARTER for a in q)  # noqa: E731
    else:
        raise ValueError("cascades cover 2 or 3 axes")
    depth = len(stage_lists[0])
    if depth == 0 or any(len(stages) != depth for stages in stage_lists):
        raise ValueError("every axis needs the same non-zero number of stages")
    prepared = tuple(
        tuple(oddify(s) for s in stages) for stages in stage_lists
    )
    flipped_stages = tuple(
        tuple(flip_1d(s) for s in stages) for stages in prepared
    )
    elements = []
    labels = []
    for angles, row in table:
        elements.append(
            tuple(
                flipped_stages[src - 1] if flip else prepared[src - 1]
                for src, flip in row
            )
        )
        labels.append(label_fn(angles))
    return tuple(elements), tuple(labels)


def cascade(image, stage_lists, boundary: str, constant: float = 0.0) -> np.ndarray:
    """Run separable pass m over stage m of every axis, m = 1, 2, ..."""
    current = image
    for stages in zip(*stage_lists):
        current = convolve_separable(current, stages, boundary, constant)
    return current


def pooled_cascades(image, stage_lists, pool_mode: str, boundary: str,
                    constant: float = 0.0) -> np.ndarray:
    """Pool the cascade response over all right-angle rotations of its stages."""
    elements, _ = equivariant_cascades(stage_lists)
    return pool([cascade(image, element, boundary, constant) for element in elements],
                pool_mode)


def pool(response_set, mode: str) -> np.ndarray:
    """Voxelwise max or mean over a collection of response maps.

    The mean accumulates in list order so repeated runs sum identically.
    """
    maps = [np.asarray(m, dtype=np.float64) for m in response_set]
    if not maps:
        raise ValueError("cannot pool an empty response set")
    dims = maps[0].shape
    for m in maps[1:]:
        if m.shape != dims:
            raise ValueError("pooled response maps must share dimensions")
    if mode == "max":
        out = maps[0].copy()
        for m in maps[1:]:
            np.maximum(out, m, out=out)
        return out
    if mode == "average":
        acc = maps[0].copy()
        for m in maps[1:]:
            acc += m
        acc /= len(maps)
        return acc
    raise ValueError(f"pool mode must be 'max' or 'average', not {mode!r}")


def gabor_orientation_set(dtheta: float, full_circle: bool = False) -> list:
    """Orientations {0, dtheta, 2*dtheta, ...} covering [0, pi).

    Modulus maps of the complex kernel repeat with period pi on real
    images, so the half turn is the default span; ``full_circle``
    extends it to 2*pi for conformance comparisons.
    """
    if not math.isfinite(dtheta) or dtheta <= 0.0:
        raise ValueError("orientation step must be a positive finite angle")
    span = 2.0 * math.pi if full_circle else math.pi
    count = round(span / dtheta)
    if count < 1 or abs(count * dtheta - span) > 1e-9 * span:
        raise ValueError(
            f"orientation step {dtheta!r} does not divide the span {span!r} evenly"
        )
    return [i * dtheta for i in range(count)]


def orthogonal_plane_average(volume, per_slice_2d_op) -> np.ndarray:
    """Mean of a 2-D operation applied slice-wise in the three plane stacks.

    The operation runs on every (k1,k2), (k1,k3) and (k2,k3) slice in
    turn; the three resulting volumes are averaged voxelwise.
    """
    vol = np.asarray(volume, dtype=np.float64)
    if vol.ndim != 3:
        raise ValueError("orthogonal-plane averaging needs a 3-D volume")
    acc = np.zeros(vol.shape, dtype=np.float64)
    for stack_axis in (2, 1, 0):
        part = map_slices(np.moveaxis(vol, stack_axis, 2), per_slice_2d_op)
        acc += np.moveaxis(part, 2, stack_axis)
    acc /= 3.0
    return acc
