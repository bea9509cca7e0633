"""Riesz transforms, Fourier-domain derivatives and tensor-based alignment.

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
inverse DFT.  The single map and the structure tensor's gradients use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import convolve_fourier, convolve_separable, fourier_grid
from .image import physical_to_voxel
from .kernels import gaussian_kernel_1d
from .wavelets import RadialProfile, radial_transfer

__all__ = [
    "riesz_indices",
    "riesz_index_count",
    "riesz_transfer",
    "riesz_filtered_map",
    "riesz_filtered_maps",
    "fourier_derivative",
    "StructureTensorField",
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


def riesz_index_count(order: int, ndim: int) -> int:
    """(L+D-1 choose D-1) distinct operators of a given order."""
    return math.comb(order + ndim - 1, ndim - 1)


def _check_index(l, ndim) -> tuple:
    l = tuple(int(v) for v in l)
    if len(l) != ndim:
        raise ValueError(f"index {l} needs one entry per image axis ({ndim})")
    if any(v < 0 for v in l):
        raise ValueError(f"index {l} must be non-negative")
    if sum(l) < 1:
        raise ValueError("index order |l| must be >= 1")
    return l


def multinomial_coefficient(l) -> float:
    """sqrt(L!/(l1!...lD!)) for a multi-index."""
    return math.sqrt(math.factorial(sum(l)) / math.prod(math.factorial(v) for v in l))


def riesz_transfer(dims, l) -> np.ndarray:
    """Order-|l| all-pass transfer on the DFT-ordered frequency grid."""
    dims = tuple(int(n) for n in dims)
    l = _check_index(l, len(dims))
    axes, norm = fourier_grid(dims)
    order = sum(l)
    numerator = np.ones((1,) * len(dims))
    for nu, power in zip(axes, l):
        if power:
            numerator = numerator * nu**power
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = numerator / norm**order
    ratio[norm == 0.0] = 0.0
    return _PHASE[order % 4] * multinomial_coefficient(l) * ratio


def riesz_filtered_maps(image, profile: RadialProfile, indices) -> dict:
    """Band-passed Riesz responses keyed by index: (band x spectrum) x steering."""
    image = np.asarray(image, dtype=np.float64)
    indices = [_check_index(l, image.ndim) for l in indices]
    band = np.fft.fftn(image) * radial_transfer(profile, image.shape)
    return {l: np.fft.ifftn(band * riesz_transfer(image.shape, l)).real for l in indices}


def riesz_filtered_map(image, profile: RadialProfile, l) -> np.ndarray:
    """Riesz-transformed radial band-pass filter for one index."""
    (response,) = riesz_filtered_maps(image, profile, (l,)).values()
    return response


def fourier_derivative(image, axis: int, order: int) -> np.ndarray:
    """Spectral derivative along one axis: multiply by (j nu_i)^order."""
    image = np.asarray(image, dtype=np.float64)
    if not 0 <= axis < image.ndim:
        raise ValueError(f"axis {axis} out of range for {image.ndim}-D image")
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    axes, _ = fourier_grid(image.shape)
    return convolve_fourier(image, np.broadcast_to((1j * axes[axis]) ** order, image.shape))


@dataclass(frozen=True)
class StructureTensorField:
    """Per-voxel symmetric D x D tensors, shape dims + (D, D)."""

    tensors: np.ndarray
    sigma_mm: float

    @property
    def ndim(self) -> int:
        return self.tensors.shape[-1]

    @property
    def dims(self) -> tuple:
        return self.tensors.shape[:-2]


def structure_tensor(image, profile: RadialProfile, sigma_tensor_mm: float,
                     spacing) -> StructureTensorField:
    """Gaussian-regularised gradient-energy tensors of a band-passed image.

    The gradient components are the first-order Riesz responses in the
    chosen band.  Each product r_i r_j is smoothed with a unit-sum
    Gaussian of sigma_tensor (mm, converted per axis); the smoothing uses
    the periodise boundary, matching the Fourier-domain origin of the
    components.
    """
    image = np.asarray(image, dtype=np.float64)
    if sigma_tensor_mm <= 0:
        raise ValueError(f"sigma_tensor must be positive, got {sigma_tensor_mm}")
    ndim = image.ndim
    sigma_vox = np.atleast_1d(physical_to_voxel(sigma_tensor_mm, spacing))
    if sigma_vox.size == 1:
        sigma_vox = np.repeat(sigma_vox, ndim)
    if sigma_vox.size != ndim:
        raise ValueError("spacing must be scalar or give one value per axis")
    window = tuple(gaussian_kernel_1d(s) for s in sigma_vox)

    components = list(riesz_filtered_maps(image, profile, riesz_indices(1, ndim)).values())
    tensors = np.empty(image.shape + (ndim, ndim), dtype=np.float64)
    for i in range(ndim):
        for j in range(i, ndim):
            tensors[..., i, j] = tensors[..., j, i] = convolve_separable(
                components[i] * components[j], window, "periodise")
    return StructureTensorField(tensors=tensors, sigma_mm=float(sigma_tensor_mm))


def _dominant_directions(field: StructureTensorField, select: str) -> np.ndarray:
    if select not in ("largest", "smallest"):
        raise ValueError("select must be 'largest' or 'smallest'")
    t = field.tensors
    ndim = field.ndim
    _, vectors = np.linalg.eigh(t)
    u = vectors[..., :, -1] if select == "largest" else vectors[..., :, 0]

    # Isotropic tensors leave the direction undefined; fall back to k1 so
    # repeated runs (and rotated reruns) agree.
    trace = np.trace(t, axis1=-2, axis2=-1)
    deviation = t - trace[..., None, None] / ndim * np.eye(ndim)
    dev_norm = np.sqrt(np.sum(deviation**2, axis=(-2, -1)))
    scale = np.sqrt(np.sum(t**2, axis=(-2, -1)))
    isotropic = dev_norm <= 1e-8 * np.maximum(scale, np.finfo(np.float64).tiny)
    e1 = np.zeros(ndim)
    e1[0] = 1.0
    u = np.where(isotropic[..., None], e1, u)

    # first nonzero component made positive
    pivot = np.zeros(u.shape[:-1])
    for i in range(ndim):
        component = u[..., i]
        pivot = np.where((pivot == 0.0) & (component != 0.0), component, pivot)
    sign = np.where(pivot < 0.0, -1.0, 1.0)
    return u * sign[..., None]


def align_order2(responses, field: StructureTensorField,
                 select: str = "largest") -> np.ndarray:
    """Steer the order-2 response set along the dominant tensor direction.

    The steered value is the second directional derivative along u,
    recovered from the multinomial expansion
    sum_{|l|=2} sqrt(2!/(l1!...lD!)) u^l h_l[k]; it is even in u, so the
    eigenvector sign never matters.
    """
    ndim = field.ndim
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
        if m.shape != field.dims:
            raise ValueError(
                f"response {l} dims {m.shape} do not match tensor grid {field.dims}"
            )

    u = _dominant_directions(field, select)
    aligned = np.zeros(field.dims, dtype=np.float64)
    for l in wanted:
        steer = multinomial_coefficient(l) * np.ones(field.dims)
        for i, power in enumerate(l):
            if power:
                steer = steer * u[..., i] ** power
        aligned += steer * keys[l]
    return aligned
