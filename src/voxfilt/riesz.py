"""Riesz transforms and tensor-based alignment.

The order-L Riesz operator for a multi-index l with |l| = L has transfer

    (-j)^L sqrt(L!/(l1!...lD!)) (nu_1^l1 ... nu_D^lD) / ||nu||^L

which is an all-pass directional derivative: the ||nu||^L division keeps
the magnitude bounded by the multinomial coefficient.  The origin is set
to zero (the expression is 0/0 there and the first-order components are
zero-mean).

On even grids the Nyquist bins are their own conjugate partners, so an
odd-order transfer cannot be conjugate-symmetric there; responses take
the real part of the inverse DFT, which amounts to discarding exactly
that unpairable imaginary residue, as spectral differentiation usually
does.

Band-passed Riesz responses have one path, riesz_filtered_maps: one forward
DFT per image times the radial band, then per index the steering and one
inverse DFT.  An aligned filter asks it for the order-2 set and the
first-order gradients together, so the image is transformed once.
"""

from __future__ import annotations

import math

import numpy as np

from .convolve import convolve_separable, fourier_grid
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

    def build(remaining, slots):
        if slots == 1:
            return [(remaining,)]
        out = []
        for head in range(remaining, -1, -1):
            out.extend((head,) + tail for tail in build(remaining - head, slots - 1))
        return out

    return tuple(build(order, ndim))


def _check_index(l, ndim) -> tuple:
    l = tuple(int(v) for v in l)
    if len(l) != ndim:
        raise ValueError(
            f"index {l} has {len(l)} entries; it needs one entry per image axis ({ndim})"
        )
    if any(v < 0 for v in l):
        raise ValueError(f"index {l} must be non-negative")
    if sum(l) < 1:
        raise ValueError("index order |l| must be >= 1")
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


def riesz_transfer(dims, l) -> np.ndarray:
    """Order-|l| all-pass transfer on the DFT-ordered frequency grid."""
    dims = tuple(int(n) for n in dims)
    l = _check_index(l, len(dims))
    axes, norm = fourier_grid(dims)
    order = sum(l)
    numerator = np.ones((1,) * len(dims))
    for nu, power in zip(axes, l):
        if power:
            numerator = numerator * _power(nu, power)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = numerator / _power(norm, order)
    ratio[norm == 0.0] = 0.0
    return _PHASE[order % 4] * multinomial_coefficient(l) * ratio


def riesz_filtered_maps(image, profile: RadialProfile, indices) -> dict:
    """Band-passed Riesz responses keyed by index: (band x spectrum) x steering."""
    image = np.asarray(image, dtype=np.float64)
    indices = [_check_index(l, image.ndim) for l in indices]
    band = np.fft.fftn(image) * radial_transfer(profile, image.shape)
    # copied out of the complex inverse, so each map owns 8 bytes per voxel
    return {l: np.fft.ifftn(band * riesz_transfer(image.shape, l)).real.copy()
            for l in indices}


def riesz_filtered_map(image, profile: RadialProfile, l) -> np.ndarray:
    """Riesz-transformed radial band-pass filter for one index."""
    (response,) = riesz_filtered_maps(image, profile, (l,)).values()
    return response


def structure_tensor(gradients, sigma_vox: float) -> np.ndarray:
    """Gaussian-regularised gradient-energy tensors, shape dims + (D, D).

    ``gradients`` are the D first-order Riesz responses of one band, in axis
    order.  Each product r_i r_j is smoothed with a unit-sum Gaussian of
    ``sigma_vox`` voxels on every axis; the smoothing uses the periodise
    boundary, matching the Fourier-domain origin of the components.
    """
    gradients = [np.asarray(g, dtype=np.float64) for g in gradients]
    ndim = len(gradients)
    if ndim < 1 or any(g.shape != gradients[0].shape or g.ndim != ndim for g in gradients):
        raise ValueError(f"need one gradient map per axis, all of one shape; got {ndim} maps")
    dims = gradients[0].shape
    window = (gaussian_kernel_1d(sigma_vox),) * ndim
    tensors = np.empty(dims + (ndim, ndim), dtype=np.float64)
    for i in range(ndim):
        for j in range(i, ndim):
            tensors[..., i, j] = tensors[..., j, i] = convolve_separable(
                gradients[i] * gradients[j], window, "periodise")
    return tensors


def _dominant_directions(t) -> np.ndarray:
    ndim = t.shape[-1]
    _, vectors = np.linalg.eigh(t)
    u = vectors[..., :, -1]

    # Isotropic tensors leave the direction undefined; fall back to k1 so
    # repeated runs (and rotated reruns) agree.
    trace = np.trace(t, axis1=-2, axis2=-1)
    deviation = t - trace[..., None, None] / ndim * np.eye(ndim)
    dev_norm = np.sqrt(np.sum(deviation**2, axis=(-2, -1)))
    scale = np.sqrt(np.sum(t**2, axis=(-2, -1)))
    isotropic = dev_norm <= 1e-8 * np.maximum(scale, np.finfo(np.float64).tiny)
    e1 = np.zeros(ndim)
    e1[0] = 1.0
    return np.where(isotropic[..., None], e1, u)


def align_order2(responses, tensors) -> np.ndarray:
    """Steer the order-2 response set along the dominant tensor direction.

    ``tensors`` is a :func:`structure_tensor` result, shape dims + (D, D).
    The steered value is the second directional derivative along u,
    recovered from the multinomial expansion
    sum_{|l|=2} sqrt(2!/(l1!...lD!)) u^l h_l[k]; it is even in u, and
    IEEE products are sign-symmetric, so the eigenvector's sign changes no
    bit of the result.
    """
    tensors = np.asarray(tensors, dtype=np.float64)
    ndim = tensors.shape[-1]
    dims = tensors.shape[:-2]
    wanted = riesz_indices(2, ndim)
    keys = {tuple(int(v) for v in k): np.asarray(m, dtype=np.float64)
            for k, m in responses.items()}
    missing = [l for l in wanted if l not in keys]
    if missing:
        raise ValueError(f"order-2 response set incomplete, missing {missing}")
    extra = [k for k in keys if k not in wanted]
    if extra:
        raise ValueError(f"unexpected response indices {extra}")
    for l, m in keys.items():
        if m.shape != dims:
            raise ValueError(
                f"response {l} dims {m.shape} do not match tensor grid {dims}"
            )

    u = _dominant_directions(tensors)
    aligned = np.zeros(dims, dtype=np.float64)
    for l in wanted:
        steer = multinomial_coefficient(l) * np.ones(dims)
        for i, power in enumerate(l):
            if power:
                steer = steer * _power(u[..., i], power)
        aligned += steer * keys[l]
    return aligned
