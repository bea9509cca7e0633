"""Right-angle rotation sets and orientation pooling.

Rotating a separable cascade by a right angle keeps it separable: each
rotation amounts to permuting the per-axis stage lists and reversing some
of them.  :func:`equivariant_cascades` builds every rotation set, a
one-stage kernel ``g1 (x) g2 (x) g3`` included as
``equivariant_cascades([[g1], [g2], [g3]])``.  The tables below enumerate
the 4 planar and 24 spatial cases, labelled by extrinsic Euler angles
(alpha about k3, then beta about k2, then gamma about k1), so that element
``(a, b, g)`` equals ``kernel(R_a R_b R_g x)``.

Even-length factors get a trailing zero first.  Reversal must keep the
centre tap at floor(M/2); without the padding the flipped kernel would
shift its response by one voxel and the set would stop matching actual
rotations of the image.

Pooling over the rotations (:class:`PooledCascade`) runs each distinct
rotated pass once.  Every rotated stage is matched by value, up to sign,
against the stages met before it in the table: a reversed symmetric stage
is the stage itself, a reversed antisymmetric one is the stage with sign -1,
and equal per-axis cascades (HHH) collapse.  Rotations with the same
sequence of stages form one group, whose response h is computed once on a
depth-first walk of a trie over the stage prefixes, padding once per level
and prefix.  A group holding n+ rotations of sign +1 and n- of sign -1
enters max pooling as |h| when it holds both signs and as +h or -h
otherwise, which is exact up to the sign of exact zeros; it enters average
pooling as (n+ - n-) h.  The groups are folded in as the walk finishes
them (depth first, each node's children in the order they first occur in
the table) and the average is then divided by the number of rotations, so
averages move by ulps against summing every rotation in table order.

Every other pooling, over Gabor orientations and over the three plane
stacks of :func:`orthogonal_plane_average`, goes through :func:`pool`.
"""

from __future__ import annotations

import math

import numpy as np

from .boundary import pad
from .convolve import axis_pass, convolve_separable
from .image import map_slices

__all__ = [
    "flip_1d",
    "oddify",
    "equivariant_cascades",
    "cascade",
    "PooledCascade",
    "POOL_MODES",
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


class PooledCascade:
    """A cascade pooled over all right-angle rotations, grouped once.

    Building it groups the rotations (see the module docstring); calling it
    runs each distinct pass once.  The grouping is read-only afterwards, so
    slice threads can share one object.  A sign taken out of an early level
    must pass through the later padding, so with a non-zero constant only
    the last level's stages are matched up to sign.
    """

    def __init__(self, stage_lists, pool_mode: str, boundary: str, constant: float = 0.0):
        self.pool_mode = _check_pool_mode(pool_mode)
        self.boundary, self.constant = boundary, constant
        elements, _ = equivariant_cascades(stage_lists)
        self.ndim, self.rotations = len(stage_lists), len(elements)
        depth = len(stage_lists[0])
        odd_padding = boundary != "constant" or constant == 0.0
        self.kernels = []
        index = {}  # kernel bytes, zeros unsigned -> position in self.kernels
        # stage sequence -> [rotations of sign +1, rotations of sign -1]
        self.groups = {}
        for element in elements:
            sequence, sign = [], 1
            for level in range(depth):
                signed = odd_padding or level == depth - 1
                step = []
                for stages in element:
                    key = (stages[level] + 0.0).tobytes()
                    negated = (0.0 - stages[level]).tobytes()
                    if key not in index and signed and negated in index:
                        key, sign = negated, -sign
                    elif key not in index:
                        index[key] = len(self.kernels)
                        self.kernels.append(stages[level])
                    step.append(index[key])
                sequence.append(tuple(step))
            self.groups.setdefault(tuple(sequence), [0, 0])[sign < 0] += 1
        # Trie over the steps, in order: each level's pad (keyed by its
        # margins), then one pass per axis (keyed by axis and kernel).  Leaves
        # hold a group's sign counts.
        self._trie = {}
        for sequence, counts in self.groups.items():
            steps = []
            for level in sequence:
                steps.append(("pad", tuple(self.kernels[k].size // 2 for k in level)))
                steps.extend(enumerate(level))
            node = self._trie
            for step in steps[:-1]:
                node = node.setdefault(step, {})
            node[steps[-1]] = tuple(counts)

    def __call__(self, image) -> np.ndarray:
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != self.ndim:
            raise ValueError(f"a {self.ndim}-D cascade cannot filter a {image.ndim}-D image")
        pooled = []
        self._walk(self._trie, [image], image.shape, pooled)
        out = pooled[0] if pooled else np.zeros(image.shape)
        if self.pool_mode == "average":
            out /= self.rotations
        return out

    def _walk(self, node, blocks, shape, pooled):
        """Run ``node``'s steps on ``blocks[0]``, depth first.

        The block travels in a list so that the last child can take it out:
        from then on no frame holds it, and a chain of single steps keeps one
        intermediate alive at a time.
        """
        last = len(node) - 1
        for position, (step, child) in enumerate(node.items()):
            block = blocks.pop() if position == last else blocks[0]
            if step[0] == "pad":
                out = [pad(block, step[1], self.boundary, self.constant)]
            else:
                axis, kernel = step
                out = [axis_pass(block, axis, self.kernels[kernel], shape[axis])]
            del block
            if isinstance(child, dict):
                self._walk(child, out, shape, pooled)
            else:
                self._fold(out.pop(), *child, pooled)

    def _fold(self, response, plus, minus, pooled):
        """Fold one group's response (owned, so changed in place) into the pool."""
        if self.pool_mode == "max":
            if plus and minus:
                np.abs(response, out=response)
            elif minus:
                np.negative(response, out=response)
            if pooled:
                np.maximum(pooled[0], response, out=pooled[0])
                return
        else:
            if plus == minus:
                return
            if plus - minus != 1:
                response *= plus - minus
            if pooled:
                pooled[0] += response
                return
        pooled.append(response)


POOL_MODES = ("max", "average")


def _check_pool_mode(mode) -> str:
    """Return ``mode`` if it is one of :data:`POOL_MODES`, else raise."""
    if mode not in POOL_MODES:
        raise ValueError(f"pool mode must be one of {POOL_MODES}, not {mode!r}")
    return mode


def pool(response_set, mode: str) -> np.ndarray:
    """Voxelwise max or mean over an iterable of response maps.

    The maps are folded in one at a time, in order, so a generator input
    keeps only the running result and the current map in memory.  The mean
    accumulates in that order, so repeated runs sum identically.  The
    result keeps the memory order of the first map.
    """
    _check_pool_mode(mode)
    out = None
    count = 0
    for m in response_set:
        m = np.asarray(m, dtype=np.float64)
        if out is None:
            out = m.copy(order="K")
        elif m.shape != out.shape:
            raise ValueError("pooled response maps must share dimensions")
        elif mode == "max":
            np.maximum(out, m, out=out)
        else:
            out += m
        count += 1
    if out is None:
        raise ValueError("cannot pool an empty response set")
    if mode == "average":
        out /= count
    return out


def gabor_orientation_set(dtheta: float) -> list:
    """Orientations {0, dtheta, 2*dtheta, ...} covering [0, pi).

    Modulus maps of the complex kernel repeat with period pi on real
    images, so the half turn is the whole span.
    """
    if not math.isfinite(dtheta) or dtheta <= 0.0:
        raise ValueError("orientation step must be a positive finite angle")
    count = round(math.pi / dtheta)
    if count < 1 or abs(count * dtheta - math.pi) > 1e-9 * math.pi:
        raise ValueError(
            f"orientation step {dtheta!r} does not divide the span {math.pi!r} evenly"
        )
    return [i * dtheta for i in range(count)]


def orthogonal_plane_average(volume, per_slice_2d_op, threads: int = 1) -> np.ndarray:
    """Mean of a 2-D operation applied slice-wise in the three plane stacks.

    The operation runs on every (k1,k2), (k1,k3) and (k2,k3) slice in
    turn; the three resulting volumes are averaged voxelwise.  Each stack's
    slices are mapped with ``threads`` workers (:func:`map_slices`), which
    never changes the result.
    """
    vol = np.asarray(volume, dtype=np.float64)
    if vol.ndim != 3:
        raise ValueError("orthogonal-plane averaging needs a 3-D volume")
    return pool((np.moveaxis(map_slices(np.moveaxis(vol, axis, 2), per_slice_2d_op, threads),
                             2, axis) for axis in (2, 1, 0)), "average")
