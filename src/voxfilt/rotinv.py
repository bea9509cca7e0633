"""Right-angle rotation sets and orientation pooling.

Rotating a separable cascade by a right angle keeps it separable: each
rotation amounts to permuting the per-axis stage lists and reversing some
of them.  :func:`equivariant_cascades` builds every rotation set, a
one-stage kernel ``g1 (x) g2 (x) g3`` included as
``equivariant_cascades([[g1], [g2], [g3]])``.  The 4 planar and 24 spatial
cases are computed from their extrinsic Euler angles (alpha about k3, then
beta about k2, then gamma about k1), so that element ``(a, b, g)`` equals
``kernel(R_a R_b R_g x)``; planar labels turn clockwise.

Even-length factors get a trailing zero first.  Reversal must keep the
centre tap at floor(M/2); without the padding the flipped kernel would
shift its response by one voxel and the set would stop matching actual
rotations of the image.

Pooling over the rotations (:class:`PooledCascade`) lays its work out
once, as a trie of steps walked depth first: all-axes pads, one-axis
passes, and for the average of a multi-level cascade per-axis operators.
Which steps fill the trie depends on the pool mode and, for the average,
which of two layouts runs fewer passes.

Every boundary pads linearly (the constant one fills with zeros), so a
sign taken out of any level passes through the later padding.  Max pooling
groups the rotations: at every level, every rotated stage is matched by
value, up to sign, against the stages met before it in the set: a reversed
symmetric stage is the stage itself, a reversed antisymmetric one is the
stage with sign -1, and equal per-axis cascades (HHH) collapse.  Rotations
with the same sequence of stages form one group, whose response h is
computed once, with one pad per level and stage prefix.  A group holding
n+ rotations of sign +1 and n- of sign -1 enters max pooling as |h| when
it holds both signs and as +h or -h otherwise, which is exact up to the
sign of exact zeros; it enters the average as (n+ - n-) h.

The average is also regrouped per axis.  Padding and passes then act on
each axis alone, so a rotated cascade is the tensor product, over the
output axes d, of one source axis's stages run forward or reversed
(reversal bit f_d).  Rotations with the same source stage lists, compared
by value, form a group; let c_f count its rotations with reversal pattern
f.  With P_d the forward operator plus the reversed one and M_d the
forward minus the reversed, the group sums to

    sum over S of a_S (x)_{d in S} M_d (x)_{d not in S} P_d,
    a_S = 2^-D sum over f of c_f (-1)^|S & f|.

Terms with a_S = 0 are dropped, and so are terms holding a kernel that is
exactly zero, so a cancelling average (L5E5E5) runs no pass and is exactly
zero.  For one level, P_d and M_d are single kernels (k + reversed k and
k - reversed k), and terms whose margins match share one all-axes pad.  For
several levels they are the sum and difference of two branches that pad
only their own axis at each level; both branches start from one pad, and
the second is folded into the first in place.  Every 3-D wavelet subband
repeats a letter, so its groups hold every reversal pattern equally often
and only S = {} survives: 6.B runs 8 one-axis passes instead of the
grouped 40, and 7.B 12 instead of 38.  A 2-D level-2 LH or HL cascade
keeps more terms, each running both branches per axis: 32 passes against
the groups' 14.  So the average is laid out both ways and keeps the
layout with fewer passes, the terms on a tie (6.A: 8 either way).  The
leaves are folded in as the walk finishes them (depth first, each node's
children in the order they were first laid out) and the average is then
divided by the number of rotations, so averages move by ulps against
summing every rotation in set order.

Every other pooling, over Gabor orientations and over the three plane
stacks of :func:`orthogonal_plane_average`, goes through :func:`pool`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .boundary import pad
from .convolve import _batch_margins, axis_pass, convolve_separable
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


# The 24 spatial rotations as Euler triples in quarter turns, in the order averages are summed.
_EULER_TRIPLES = (
    (0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 0, 1), (1, 0, 3),
    (1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 3), (0, 1, 2), (0, 1, 1),
    (1, 2, 0), (2, 2, 0), (3, 2, 0), (0, 3, 1), (0, 3, 2), (0, 3, 3),
    (2, 0, 1), (3, 0, 1), (0, 0, 1), (2, 0, 3), (3, 0, 3), (0, 0, 3),
)
_QUARTER = math.pi / 2.0


def _turn(axis: int, quarters: int) -> list:
    """Integer rows of ``quarters`` right-angle turns about ``axis`` (0 for k1)."""
    c, s = (1, 0, -1, 0)[quarters % 4], (0, 1, 0, -1)[quarters % 4]
    u, v = (axis + 1) % 3, (axis + 2) % 3
    turn = [[int(i == j) for j in range(3)] for i in range(3)]
    turn[u][u], turn[u][v], turn[v][u], turn[v][v] = c, -s, s, c
    return turn


def _row(triple, ndim: int) -> tuple:
    """With R = R_alpha R_beta R_gamma (about k3, k2, k1), output axis d takes
    the source factor i (1-based) where R[i][d] is non-zero, reversed where -1."""
    r = _turn(2, triple[0])
    for turn in (_turn(1, triple[1]), _turn(0, triple[2])):
        r = [[sum(r[i][k] * turn[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    return tuple(next((i + 1, r[i][d] < 0) for i in range(ndim) if r[i][d]) for d in range(ndim))


_ROTATIONS = {  # ndim -> (labels in radians, rows); planar labels turn clockwise
    2: (tuple(q * _QUARTER for q in range(4)), tuple(_row((-q, 0, 0), 2) for q in range(4))),
    3: (tuple(tuple(q * _QUARTER for q in t) for t in _EULER_TRIPLES),
        tuple(_row(t, 3) for t in _EULER_TRIPLES)),
}


def _oriented_stages(stage_lists):
    """The rotation labels, rows and rotated elements for ``stage_lists``,
    and each axis's oddified stages, forward and reversed."""
    if len(stage_lists) not in _ROTATIONS:
        raise ValueError("cascades cover 2 or 3 axes")
    depth = len(stage_lists[0])
    if depth == 0 or any(len(stages) != depth for stages in stage_lists):
        raise ValueError("every axis needs the same non-zero number of stages")
    labels, rows = _ROTATIONS[len(stage_lists)]
    forward = tuple(tuple(oddify(s) for s in stages) for stages in stage_lists)
    reverse = tuple(tuple(flip_1d(s) for s in stages) for stages in forward)
    elements = tuple(tuple(reverse[src - 1] if flip else forward[src - 1] for src, flip in row)
                     for row in rows)
    return labels, rows, elements, forward, reverse


def equivariant_cascades(stage_lists):
    """Rotate a per-axis cascade of 1-D stages through all right angles.

    ``stage_lists[axis]`` holds the kernels convolved in sequence along
    that axis (one per cascade level).  Returns ``(elements, labels)``:
    ``elements[i][axis]`` is the rotated stage tuple for one rotation,
    every stage oddified and reversed as the rotation demands.  Reversing
    stage by stage is exact because reversal distributes over convolution.
    """
    labels, _, elements, _, _ = _oriented_stages(stage_lists)
    return elements, labels


def cascade(image, stage_lists, boundary: str) -> np.ndarray:
    """Run separable pass m over stage m of every axis, m = 1, 2, ..."""
    current = image
    for stages in zip(*stage_lists):
        current = convolve_separable(current, stages, boundary)
    return current


class PooledCascade:
    """A cascade pooled over all right-angle rotations, planned once.

    Building it picks the evaluation order and lays it out as a trie of
    steps (see the module docstring); calling it walks the trie on the
    trailing ``ndim`` axes of its image, whose leading axes are a batch.
    The trie is read-only afterwards, so slab threads can share one object.
    A call runs ``passes`` one-axis passes and folds ``leaves`` responses
    into the pool.
    """

    def __init__(self, stage_lists, pool_mode: str, boundary: str):
        self.pool_mode = _check_pool_mode(pool_mode)
        self.boundary = boundary
        _, rows, elements, self._forward, self._reverse = _oriented_stages(stage_lists)
        self.ndim, self.rotations = len(stage_lists), len(rows)
        self.kernels = []
        self._index = {}  # kernel bytes, zeros unsigned -> position in self.kernels
        layouts = [self._groups(elements)]
        if pool_mode == "average":
            layouts.insert(0, self._terms(rows))
        # the layout with fewer passes, the regrouped terms on a tie
        self._trie, self.passes, self.leaves, self._divisor = min(
            (self._layout(leaves) for leaves in layouts), key=lambda layout: layout[1])

    def _layout(self, leaves):
        """The trie over ``leaves``, its passes per call, its leaf count and
        the final divisor of the average."""
        # An average leaf holds its weight over the smallest weight, which the
        # final division takes back, so equal weights cost no multiply.
        divisor = self.rotations
        if self.pool_mode == "average" and leaves:
            unit = min(abs(weight) for weight in leaves.values())
            leaves = {steps: weight / unit for steps, weight in leaves.items()}
            divisor = self.rotations / unit
        # Leaves hold a group's sign counts (max) or a term's weight (average).
        trie, passes = {}, 0
        for steps, leaf in leaves.items():
            node = trie
            for step in steps[:-1]:
                if step not in node:
                    passes += self._pass_count(step)
                node = node.setdefault(step, {})
            passes += self._pass_count(steps[-1])
            node[steps[-1]] = leaf
        return trie, passes, len(leaves), divisor

    def _kernel(self, kernel) -> int:
        """Position of ``kernel`` among the distinct kernels, added if new."""
        key = (kernel + 0.0).tobytes()
        if key not in self._index:
            self._index[key] = len(self.kernels)
            self.kernels.append(kernel)
        return self._index[key]

    def _groups(self, elements):
        """Rotations with one stage sequence, matched up to sign at every
        level, as trie leaves.

        Returns {steps: (rotations of sign +1, rotations of sign -1)} for max
        pooling, {steps: their difference} for the average.
        """
        depth = len(self._forward[0])
        groups = {}
        for element in elements:
            steps, sign = [], 1
            for level in range(depth):
                passes = []
                for axis, stages in enumerate(element):
                    stage = stages[level]
                    key, negated = (stage + 0.0).tobytes(), (0.0 - stage).tobytes()
                    if key not in self._index and negated in self._index:
                        kernel, sign = self._index[negated], -sign
                    else:
                        kernel = self._kernel(stage)
                    passes.append(("pass", axis, kernel))
                steps.append(("pad", tuple(stages[level].size // 2 for stages in element)))
                steps.extend(passes)
            groups.setdefault(tuple(steps), [0, 0])[sign < 0] += 1
        if self.pool_mode == "max":
            return {steps: tuple(counts) for steps, counts in groups.items()}
        return {steps: plus - minus for steps, (plus, minus) in groups.items() if plus != minus}

    def _terms(self, rows):
        """The average regrouped per axis, as trie leaves {steps: weight a_S}."""
        ndim, depth = self.ndim, len(self._forward[0])
        first = {}  # stage bytes -> first axis with those stages
        source = [first.setdefault(tuple((s + 0.0).tobytes() for s in stages), axis)
                  for axis, stages in enumerate(self._forward)]
        groups = {}  # source axis per output axis -> reversal pattern -> rotations
        for row in rows:
            patterns = groups.setdefault(tuple(source[src - 1] for src, _ in row), {})
            pattern = tuple(flip for _, flip in row)
            patterns[pattern] = patterns.get(pattern, 0) + 1
        leaves = {}
        for sources, patterns in groups.items():
            # minus marks the axes that take M instead of P (the set S)
            for minus in itertools.product((False, True), repeat=ndim):
                weight = sum(count * (-1) ** sum(m and f for m, f in zip(minus, pattern))
                             for pattern, count in patterns.items()) / 2**ndim
                if weight == 0:
                    continue
                if depth > 1:
                    steps = tuple(("branches", axis, src, m)
                                  for axis, (src, m) in enumerate(zip(sources, minus)))
                else:
                    kernels = [self._forward[src][0] - self._reverse[src][0] if m
                               else self._forward[src][0] + self._reverse[src][0]
                               for src, m in zip(sources, minus)]
                    if not all(np.any(k) for k in kernels):
                        continue
                    steps = (("pad", tuple(k.size // 2 for k in kernels)),) + tuple(
                        ("pass", axis, self._kernel(k)) for axis, k in enumerate(kernels))
                leaves[steps] = leaves.get(steps, 0) + weight
        return {steps: weight for steps, weight in leaves.items() if weight != 0}

    def _pass_count(self, step) -> int:
        return {"pad": 0, "pass": 1}.get(step[0], 2 * len(self._forward[0]))

    def __call__(self, image) -> np.ndarray:
        image = np.asarray(image, dtype=np.float64)
        if image.ndim < self.ndim:
            raise ValueError(f"a {self.ndim}-D cascade cannot filter a {image.ndim}-D image")
        pooled = []
        self._walk(self._trie, [image], image.shape, pooled)
        out = pooled[0] if pooled else np.zeros(image.shape)
        if self.pool_mode == "average":
            out /= self._divisor
        return out

    def _walk(self, node, blocks, shape, pooled):
        """Run ``node``'s steps on ``blocks[0]``, depth first.

        The block travels in a list so that the last child can take it out:
        from then on no frame holds it, and a chain of single steps keeps one
        intermediate alive at a time.
        """
        last = len(node) - 1
        for position, (step, child) in enumerate(node.items()):
            out = [self._step(step, [blocks.pop() if position == last else blocks[0]], shape)]
            if isinstance(child, dict):
                self._walk(child, out, shape, pooled)
            else:
                self._fold(out.pop(), child, pooled)

    def _step(self, step, held, shape) -> np.ndarray:
        """Run one step on the block in ``held``, taking it out of the list.

        A step's axis counts the filtered axes; on the array it is that
        axis counted from the end, past any batch axes.
        """
        if step[0] == "pad":
            return pad(held.pop(), _batch_margins(len(shape), step[1]), self.boundary)
        axis = step[1] - self.ndim
        if step[0] == "pass":
            return axis_pass(held.pop(), axis, self.kernels[step[2]])
        # P or M of several levels: the forward stages plus or minus the
        # reversed ones, each branch padding only its own axis
        _, _, source, minus = step
        margins = [0] * len(shape)
        margins[axis] = self._forward[source][0].size // 2
        start = [pad(held.pop(), margins, self.boundary)]
        out = None
        for stages in (self._forward[source], self._reverse[source]):
            block = axis_pass(start[0] if out is None else start.pop(), axis, stages[0])
            for stage in stages[1:]:
                margins[axis] = stage.size // 2
                block = pad(block, margins, self.boundary)
                block = axis_pass(block, axis, stage)
            if out is None:
                out = block
            elif minus:
                out -= block
            else:
                out += block
        return out

    def _fold(self, response, leaf, pooled):
        """Fold one leaf's response (owned, so changed in place) into the pool."""
        if self.pool_mode == "max":
            plus, minus = leaf
            if plus and minus:
                np.abs(response, out=response)
            elif minus:
                np.negative(response, out=response)
            if pooled:
                np.maximum(pooled[0], response, out=pooled[0])
                return
        else:
            if leaf != 1:
                response *= leaf
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


# The most orientations gabor_orientation_set gives: half-degree steps.
_MAX_ORIENTATIONS = 360


def gabor_orientation_set(dtheta: float) -> list:
    """Orientations {0, dtheta, 2*dtheta, ...} covering [0, pi), at most 360.

    Modulus maps of the complex kernel repeat with period pi on real
    images, so the half turn is the whole span.
    """
    if not math.isfinite(dtheta) or dtheta <= 0.0:
        raise ValueError(f"orientation step dtheta must be a positive finite angle, "
                         f"got {dtheta!r}")
    if math.pi / dtheta > _MAX_ORIENTATIONS + 0.5:
        raise ValueError(f"orientation step dtheta {dtheta!r} gives more than "
                         f"{_MAX_ORIENTATIONS} orientations")
    count = round(math.pi / dtheta)
    if count < 1 or abs(count * dtheta - math.pi) > 1e-9 * math.pi:
        raise ValueError(
            f"orientation step dtheta {dtheta!r} does not divide the span {math.pi!r} evenly"
        )
    return [i * dtheta for i in range(count)]


def orthogonal_plane_average(volume, op, threads: int = 1) -> np.ndarray:
    """Mean of a 2-D operation applied in the three plane stacks.

    The (k1,k2), (k1,k3) and (k2,k3) planes are filtered in turn and the
    three resulting volumes are averaged voxelwise.  ``op`` has the stack
    contract of :func:`map_slices`: it filters each plane of a C-ordered
    (k, n1, n2) slab and returns a stack of the same shape.  Each plane
    stack is mapped in slabs with ``threads`` workers, which never changes
    the result.
    """
    vol = np.asarray(volume, dtype=np.float64)
    if vol.ndim != 3:
        raise ValueError("orthogonal-plane averaging needs a 3-D volume")
    return pool((np.moveaxis(map_slices(np.moveaxis(vol, axis, 2), op, threads), 2, axis)
                 for axis in (2, 1, 0)), "average")
