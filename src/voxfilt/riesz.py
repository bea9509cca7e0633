"""Riesz transforms and tensor-based alignment.

The order-L Riesz operator for a multi-index l with |l| = L has transfer

    (-j)^L sqrt(L!/(l1!...lD!)) (nu_1^l1 ... nu_D^lD) / ||nu||^L

which is an all-pass directional derivative: the ||nu||^L division keeps
the magnitude bounded by the multinomial coefficient.  The origin is set
to zero (the expression is 0/0 there and the first-order components are
zero-mean).

On even grids the Nyquist bins are their own conjugate partners, so an
odd-order transfer cannot be conjugate-symmetric there.  Band-passed
responses run on the half spectrum of the last axis and end in a real
inverse DFT, which keeps the real part on the planes whose last frequency
is 0 or Nyquist: it discards exactly that unpairable imaginary residue, as
spectral differentiation usually does, and as the real part of a full
inverse DFT would.  The only other unpaired bins (Nyquist on another axis,
last frequency in between) have ||nu|| > pi, where every radial band is
zero, so the half and the full spectrum give one response up to roundoff.

Band-passed Riesz responses have one path, riesz_filtered_maps: one forward
DFT per image times the radial band, then per index the steering and one
inverse DFT as its map is taken.  An aligned filter takes its gradients and
then its order-2 set from one such stream, so the image is transformed once.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .convolve import (
    TransferCache,
    axis_pass,
    cached_transfer,
    fft_forward,
    fft_inverse,
    fourier_grid,
)
from .image import _integral
from .kernels import gaussian_kernel_1d
from .wavelets import RadialProfile, radial_transfer

__all__ = [
    "riesz_indices",
    "riesz_transfer",
    "riesz_filtered_map",
    "riesz_filtered_maps",
    "structure_tensor",
    "align_order2",
]

_PHASE = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)  # (-j)^L for L mod 4


def riesz_indices(order: int, ndim: int) -> tuple:
    """All multi-indices l with |l| = order, highest-first lexicographic."""
    if order < 1 or ndim < 1:
        raise ValueError("order and dimensionality must be >= 1")
    return tuple(l for l in itertools.product(range(order, -1, -1), repeat=ndim)
                 if sum(l) == order)


# The highest order |l| accepted.  The transfer divides nu^l by ||nu||^L,
# and on an axis of n voxels the smallest nonzero frequency is 2 pi / n:
# up to order 64, (2 pi / n)^L stays a normal float64 for every n below
# 400,000 ((2 pi / 4e5)^64 = 3.6e-308), while ||nu||^L <= (pi sqrt 3)^64
# = 1.2e47 and the multinomial coefficient <= 3^32 stay far from overflow.
# Higher orders lose bins to underflow (0/0 is NaN), and near order 650 the
# factorial ratio under the coefficient's square root overflows.
_MAX_ORDER = 64


def _check_index(l, ndim) -> tuple:
    try:
        entries = tuple(l)
    except TypeError:
        raise ValueError(f"riesz index l must be a list of integers, got {l!r}") from None
    l = tuple(_integral(v, f"riesz index l {entries} entry") for v in entries)
    if len(l) != ndim:
        raise ValueError(
            f"riesz index l {l} has {len(l)} entries; it needs one entry per image axis ({ndim})"
        )
    if any(v < 0 for v in l):
        raise ValueError(f"riesz index l {l} must be non-negative")
    if not 1 <= sum(l) <= _MAX_ORDER:
        raise ValueError(f"riesz index l {l} must have order 1 <= |l| <= {_MAX_ORDER}, "
                         f"got {sum(l)}")
    return l


def multinomial_coefficient(l) -> float:
    """sqrt(L!/(l1!...lD!)) for a multi-index."""
    return math.sqrt(math.factorial(sum(l)) / math.prod(math.factorial(v) for v in l))


def _power(x, n: int):
    """``x**n`` for n >= 1 as repeated products.  Numpy's real ``**`` above
    the square rounds differently at each SIMD dispatch level; products do
    not, and for n <= 2 they give the same bytes as ``**``."""
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


def riesz_transfer(dims, l, half: bool = False, *, grid=None) -> np.ndarray:
    """Order-|l| all-pass transfer on the DFT-ordered frequency grid, or with
    ``half`` on its half grid of the last axis.  A caller building several
    transfers of one order may pass ``grid``: the axes of
    ``fourier_grid(dims, half)`` and its norm to the order |l|.  Only the
    origin has norm 0."""
    dims = tuple(int(n) for n in dims)
    l = _check_index(l, len(dims))
    order = sum(l)
    axes, norm_power = grid or _norm_power(dims, half, order)
    numerator = np.ones((1,) * len(dims))
    for nu, power in zip(axes, l):
        if power:
            numerator = numerator * _power(nu, power)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = numerator / norm_power
    ratio[(0,) * len(dims)] = 0.0
    return _PHASE[order % 4] * multinomial_coefficient(l) * ratio


def _norm_power(dims, half: bool, order: int) -> tuple:
    """The frequency axes of ``fourier_grid(dims, half)`` and its norm to ``order``."""
    axes, norm = fourier_grid(dims, half)
    return axes, _power(norm, order)


def riesz_filtered_maps(image, profile: RadialProfile, indices,
                        transfers: TransferCache | None = None):
    """Band-passed Riesz responses, (band x spectrum) x steering, as an
    iterator of (index, map) pairs; each map's inverse DFT runs when it is taken.

    Each index has one entry per filtered axis: those are the trailing
    axes of ``image``, and any leading ones are a batch that the transfers,
    built on the filtered axes' grid, broadcast over.  Everything runs on
    the half spectrum of the last axis, so each map is real from its inverse
    DFT on.  A filter plan's cache ``transfers`` builds the band and each
    steering transfer once per grid.
    """
    image = np.asarray(image, dtype=np.float64)
    indices = [tuple(l) for l in indices]
    ndim = min(len(indices[0]), image.ndim) if indices else image.ndim
    indices = [_check_index(l, ndim) for l in indices]
    dims = image.shape[image.ndim - ndim:]
    band = fft_forward(image, dims, real=True)
    band *= cached_transfer(transfers, ("radial", profile, dims),
                            lambda: radial_transfer(profile, dims, half=True))
    # a run of indices of one order shares the frequency grid and its norm
    # power, dropped after the run's last transfer: none is held while the
    # caller works on a map
    orders, held = [sum(l) for l in indices] + [0], {}

    def steer(l, last):
        grid = held.pop(sum(l), None) or _norm_power(dims, True, sum(l))
        if not last:
            held[sum(l)] = grid
        return riesz_transfer(dims, l, True, grid=grid)

    return ((l, fft_inverse(band * cached_transfer(transfers, ("riesz", dims, l),
                                                   lambda: steer(l, order != following)),
                            dims, real=True))
            for l, order, following in zip(indices, orders, orders[1:]))


def riesz_filtered_map(image, profile: RadialProfile, l,
                       transfers: TransferCache | None = None) -> np.ndarray:
    """Riesz-transformed radial band-pass filter for one index."""
    ((_, response),) = riesz_filtered_maps(image, profile, (l,), transfers)
    return response


# Voxels per slab of the tensor smoothing: planes of the first filtered
# axis, counted over the filtered axes only, one plane at least; a batch of
# planes (a map_slices slab) rides along whole.  The bytes do not depend on
# it; it bounds the smoothing's temporaries, to 10 planes at 56^3.
_SMOOTH_SLAB_VOXELS = 1 << 15


def _periodic(x, axis, lo, hi):
    """Planes ``lo`` to ``hi - 1`` of ``x`` along ``axis`` (negative, from
    the end), indices taken modulo the axis length: a view where none wraps."""
    n = x.shape[axis]
    if 0 <= lo and hi <= n:
        return x[(slice(None),) * (x.ndim + axis) + (slice(lo, hi),)]
    return x.take(np.arange(lo, hi) % n, axis)


def _smooth(component, window):
    """Overwrite ``component``, C-ordered, with the bytes of
    ``convolve_separable(component, window, "periodise")``, slab by slab of
    planes of the first filtered axis.

    Each pass takes the periodic halo of its own axis just before it runs.
    A smoothed slab is written back once no later slab reads its planes:
    later slabs read from ``half`` planes before their first one to the
    axis end and, wrapping, the first ``half`` planes.
    """
    ndim = len(window)
    axis = component.ndim - ndim
    n, half = component.shape[axis], window[0].shape[0] // 2
    step = max(1, _SMOOTH_SLAB_VOXELS // max(1, math.prod(component.shape[axis + 1:])))
    waiting = []
    for start in range(0, n, step):
        stop = min(start + step, n)
        block = component
        for k, g in zip(range(-ndim, 0), window):
            lo, hi = (start, stop) if k == -ndim else (0, block.shape[k])
            block = axis_pass(_periodic(block, k, lo - half, hi + half), k, g, hi - lo)
        waiting.append((start, stop, block))
        for slab in [w for w in waiting if stop == n or (half <= w[0] and w[1] <= stop - half)]:
            waiting.remove(slab)
            component[(slice(None),) * axis + (slice(slab[0], slab[1]),)] = slab[2]


def _owned(arrays) -> list:
    """``arrays`` as C-contiguous writeable float64 arrays that a function
    may overwrite: used as given where they are already, and copied where
    one shares memory with an earlier one, which a write would change too."""
    owned = []
    for a in arrays:
        a = np.require(a, np.float64, ("C", "W"))
        owned.append(a.copy() if any(np.may_share_memory(a, b) for b in owned) else a)
    return owned


def structure_tensor(gradients, sigma_vox: float) -> list:
    """Gaussian-regularised gradient-energy tensors, as the list of their
    D(D+1)/2 distinct components, each of the maps' shape.

    ``gradients`` are the D = 2 or 3 first-order Riesz responses of one band,
    in axis order; they filter the trailing D axes of the maps, whose
    leading axes are a batch.  Each product r_i r_j is smoothed with a
    unit-sum Gaussian of ``sigma_vox`` voxels on every filtered axis, with
    the periodise boundary, matching the Fourier-domain origin of the
    components: the bytes of ``convolve_separable(r_i * r_j, (g,) * D,
    "periodise")``.  The tensors are symmetric, so only the distinct
    products are kept, row by row of the upper triangle: (T11, T12, T22) in
    2-D and (T11, T12, T13, T22, T23, T33) in 3-D, each C-contiguous.

    The function takes ownership of the gradient maps and overwrites them,
    as :func:`voxfilt.convolve.fft_inverse` does its spectrum (C-contiguous
    writeable float64 maps are used as given, others copied): the cross
    products are formed first, then each square is written into its own
    gradient's memory, and each component is smoothed in place, slab by
    slab.  So the D(D+1)/2 components and a few slabs are alive, 6 volumes
    in 3-D where the gradients and a packed stack held 9.
    """
    maps = _owned(gradients)
    del gradients  # gradients passed in a temporary list are the maps' only owner
    ndim = len(maps)
    if ndim not in _DIRECTIONS or any(m.shape != maps[0].shape or m.ndim < ndim for m in maps):
        raise ValueError(f"need one gradient map per axis, 2 or 3 maps of one shape; "
                         f"got {ndim} maps")
    window = (gaussian_kernel_1d(sigma_vox),) * ndim
    pairs = [(i, j) for i in range(ndim) for j in range(i, ndim)]
    cross = {(i, j): maps[i] * maps[j] for i, j in pairs if i != j}
    for m in maps:
        m *= m
    components = [maps[i] if i == j else cross[i, j] for i, j in pairs]
    del maps, cross
    for component in components:
        _smooth(component, window)
    return components


# Voxels per block of the direction and steering pass.  Every step is
# elementwise, so the bytes do not depend on it; it only bounds the
# temporaries to about a MB whatever the volume.  Blocks of 8192 voxels
# lowered the 11.B op's peak at 56^3 (13.8x the input against 16.4x with
# 32768) at no cost in time.
_BLOCK_VOXELS = 1 << 13

# A tensor whose deviator is this small against the tensor itself is
# isotropic: its direction is undefined, and the fallback e1 is used so that
# repeated (and rotated) runs agree.
_ISOTROPIC = 1e-8
_TINY = np.finfo(np.float64).tiny


def _isotropic(deviation, scale):
    return deviation <= _ISOTROPIC * np.maximum(scale, _TINY)


def _direction_2d(t):
    """Unnormalised dominant eigenvector of packed 2x2 symmetric tensors, closed form.

    ``t`` holds the packed components as rows, (T11, T12, T22).

    With h = (a - c)/2 and r = sqrt(h^2 + b^2) the top eigenvalue is
    (a + c)/2 + r.  Of the two null vectors (b, r - h) and (r + h, b) of
    the rows of T - lambda I the larger is taken, the second exactly when
    h >= 0, which avoids the cancellation in r - h.  The deviator's norm is
    sqrt(2) r.
    """
    a, b, c = t
    h = 0.5 * (a - c)
    bb = b * b
    r = np.sqrt(h * h + bb)
    isotropic = _isotropic(math.sqrt(2.0) * r, np.sqrt(a * a + 2.0 * bb + c * c))
    upper = h >= 0.0
    u0 = np.where(upper, r + h, b)
    u1 = np.where(upper, b, r - h)
    u0[isotropic] = 1.0
    u1[isotropic] = 0.0
    return u0, u1


def _newton_top_root(lam, q, det, active):
    """Largest root of x^3 - q x - det by Newton's method, in place at ``active``.

    ``lam`` starts at an upper bound of the root.  Above the largest root
    the cubic is increasing and convex, so the iterates decrease
    monotonically; each voxel stops when its iterate stops decreasing, and
    the remaining ones are compacted.  While every voxel still descends
    there is nothing to compact, and ``lam`` is written only before a
    compaction, when it takes the last accepted iterates.
    """
    x, q, det = lam[active], q[active], det[active]
    while active.size:
        xx = x * x
        slope = 3.0 * xx - q
        with np.errstate(divide="ignore", invalid="ignore"):
            step = ((xx - q) * x - det) / slope
        moved = x - step
        going = (slope > 0.0) & (moved < x)
        if going.all():
            x = moved
            continue
        lam[active] = x
        active, x, q, det = active[going], moved[going], q[going], det[going]


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _largest(vectors):
    """Per voxel, the 3-vector of largest norm (first on ties) and its squared norm."""
    best = size = None
    for v in vectors:
        v_size = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
        if best is None:
            best, size = v, v_size
            continue
        larger = v_size > size
        best = tuple(np.where(larger, x, y) for x, y in zip(v, best))
        size = np.where(larger, v_size, size)
    return best, size


def _null_vector(rows, skip):
    """A null vector of the (nearly) singular symmetric matrices with these rows.

    The largest of the three cross products of the rows.  Where all three
    vanish (outside ``skip``) the matrix has rank one, as T - lambda I does
    for a repeated top eigenvalue; the pick there is r x e_k for the row r
    of largest norm and the axis k of its smallest-magnitude entry, both
    first on ties.  That vector is orthogonal to the row space, so it lies
    in the top eigenspace.
    """
    r0, r1, r2 = rows
    # a generator, so that only the best product so far and the next are alive
    u, size = _largest(_cross(p, q) for p, q in ((r0, r1), (r0, r2), (r1, r2)))
    flat = np.flatnonzero((size == 0.0) & ~skip)
    if flat.size:
        (x, y, z), _ = _largest([tuple(v[flat] for v in row) for row in rows])
        k = np.argmin(np.abs([x, y, z]), axis=0)
        zero = np.zeros(flat.size)
        picks = ((zero, z, -y), (-z, zero, x), (y, -x, zero))  # r x e_k
        for axis, ui in enumerate(u):
            ui[flat] = np.choose(k, [pick[axis] for pick in picks])
    return u


def _direction_3d(t):
    """Unnormalised dominant eigenvector of packed 3x3 symmetric tensors.

    ``t`` holds the packed components as rows, (T11, T12, T13, T22, T23, T33).

    Works on the deviator D = T - (tr T / 3) I, whose characteristic
    polynomial is x^3 - q x - det D with q = |D|^2 / 2.  Newton from the
    Gershgorin bound finds its top root and the largest cross product of two
    rows of D - lambda I gives the vector.  The Rayleigh quotient of that
    vector then sharpens lambda for a second cross product: the cubic's
    root is only as accurate as the gap to the second eigenvalue allows,
    the quotient is not.  On rotated diag(1 + g, 1, x) tensors the vector is
    as accurate as eigh's down to g = 1e-5.
    """
    a0, b, c, d0, e, f0 = t
    mean = (a0 + d0 + f0) / 3.0
    a, d, f = a0 - mean, d0 - mean, f0 - mean
    off = b * b + c * c + e * e
    q = 0.5 * (a * a + d * d + f * f) + off
    isotropic = _isotropic(np.sqrt(2.0 * q),
                           np.sqrt(a0 * a0 + d0 * d0 + f0 * f0 + 2.0 * off))
    det = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
    ab, ac, ae = np.abs(b), np.abs(c), np.abs(e)
    lam = np.maximum(np.maximum(a + ab + ac, d + ab + ae), f + ac + ae)
    del mean, off, ab, ac, ae  # each block's temporaries are the pass's peak
    _newton_top_root(lam, q, det, np.flatnonzero(~isotropic))
    del q, det

    def null_vector(lam):
        u = _null_vector(((a - lam, b, c), (b, d - lam, e), (c, e, f - lam)), isotropic)
        for ui, fallback in zip(u, (1.0, 0.0, 0.0)):
            ui[isotropic] = fallback
        return u

    u0, u1, u2 = null_vector(lam)
    lam = (a * u0 * u0 + d * u1 * u1 + f * u2 * u2
           + 2.0 * (b * u0 * u1 + c * u0 * u2 + e * u1 * u2)) / (u0 * u0 + u1 * u1 + u2 * u2)
    del u0, u1, u2
    return null_vector(lam)


_DIRECTIONS = {2: _direction_2d, 3: _direction_3d}


def align_order2(responses, tensors) -> np.ndarray:
    """Steer the order-2 response set along the dominant tensor direction.

    ``responses`` yields (index, map) pairs in ``riesz_indices(2, D)`` order,
    each folded in as it arrives.  ``tensors`` holds the D(D+1)/2 packed
    components of one shape dims, as :func:`structure_tensor` returns them,
    D = 2 or 3; dims may lead with batch axes, as every step is voxelwise.
    The steered value is the second directional derivative along u,
    sum_{|l|=2} sqrt(2!/(l1!...lD!)) u^l h_l[k] / u'u, computed straight
    from the unnormalised eigenvector u; it is even in u, and IEEE products
    are sign-symmetric, so no sign or length rule is needed.  u comes from
    +, -, x, /, sqrt, abs and maximum only (closed form in 2-D, Newton and
    cross products in 3-D), so the bytes do not depend on a LAPACK build.

    The function takes ownership of the components and overwrites them
    (C-contiguous writeable float64 ones are used as given): u is found in
    blocks of voxels and written, block by block, into the first D
    components, and the other components are let go before the first map
    is taken.  Each map is then folded into the sum, and the sum divided by
    u'u, block by block, so no volume-sized temporary is made.

    Isotropic tensors (deviator norm <= 1e-8 of the tensor norm) use e1.
    A repeated top eigenvalue in 3-D, where every cross product of rows of
    T - lambda I vanishes, uses u = r x e_k: r is the row of T - lambda I
    with the largest norm, k the axis of r's smallest-magnitude entry,
    first on ties.  For diag(2, 2, 1) that is u = (0, -1, 0).
    """
    tensors = _owned(tensors)
    packed = len(tensors)
    ndim = math.isqrt(2 * packed)
    if ndim == 0 or ndim * (ndim + 1) // 2 != packed or any(
            t.shape != tensors[0].shape for t in tensors):
        raise ValueError(f"packed tensors need D(D+1)/2 components of one shape, got "
                         f"{packed} of shapes {sorted({t.shape for t in tensors})}")
    if ndim not in _DIRECTIONS:
        raise ValueError(f"alignment needs 2- or 3-D tensors, got {ndim}-D")
    dims = tensors[0].shape
    field = [t.reshape(-1) for t in tensors]
    blocks = [slice(start, start + _BLOCK_VOXELS)
              for start in range(0, field[0].size, _BLOCK_VOXELS)]
    for block in blocks:
        for ui, row in zip(_DIRECTIONS[ndim]([row[block] for row in field]), field):
            row[block] = ui
    u = field[:ndim]
    del tensors, field

    wanted = riesz_indices(2, ndim)
    total, taken = np.zeros(dims), 0
    flat = total.reshape(-1)
    # no enumerate: its cached result would keep the previous map alive
    for l, h in responses:
        taken += 1
        l = _check_index(l, ndim)
        if taken > len(wanted) or l not in wanted:
            raise ValueError(f"unexpected response index {l}")
        if l != wanted[taken - 1]:
            raise ValueError(f"order-2 response set incomplete or out of order: got {l} "
                             f"where riesz_indices(2, {ndim}) puts {wanted[taken - 1]}")
        h = np.asarray(h, dtype=np.float64)
        if h.shape != dims:
            raise ValueError(f"response {l} dims {h.shape} do not match tensor grid {dims}")
        h = h.reshape(-1)
        # u^l as the two axes it multiplies, in the order of
        # total + c * u_i * u_j * h
        i, j = (axis for axis, p in enumerate(l) for _ in range(p))
        coefficient = multinomial_coefficient(l)
        for block in blocks:
            term = coefficient * u[i][block]
            term *= u[j][block]
            term *= h[block]
            flat[block] += term
        del h  # before the next map's inverse DFT runs
    if taken < len(wanted):
        raise ValueError(f"order-2 response set incomplete, missing {list(wanted[taken:])}")
    for block in blocks:
        norm = u[0][block] * u[0][block]
        for ui in u[1:]:
            norm += ui[block] * ui[block]
        flat[block] /= norm
    return total
