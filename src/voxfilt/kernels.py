"""Kernel builders: mean, Laplacian-of-Gaussian, Laws and Gabor filters.

All scale parameters are in voxel units here; millimetre parameters are
converted once, when :func:`voxfilt.pipeline.plan_filter` plans the filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import convolve_bank, convolve_separable
from .image import _MAX_AXIS_VOXELS

__all__ = [
    "LAWS_NAMES",
    "GaborParams",
    "mean_kernel_1d",
    "gaussian_kernel_1d",
    "log_kernel_1d",
    "log_kernel",
    "laws_1d",
    "laws_energy",
    "gabor_kernel",
    "gabor_response_modulus",
    "truncated_support",
]

_LAWS_TABLE = {
    "L3": np.array([1.0, 2.0, 1.0]) / np.sqrt(6.0),
    "L5": np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / np.sqrt(70.0),
    "E3": np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0),
    "E5": np.array([-1.0, -2.0, 0.0, 2.0, 1.0]) / np.sqrt(10.0),
    "S3": np.array([-1.0, 2.0, -1.0]) / np.sqrt(6.0),
    "S5": np.array([-1.0, 0.0, 2.0, 0.0, -1.0]) / np.sqrt(6.0),
    "W5": np.array([-1.0, 2.0, 0.0, -2.0, 1.0]) / np.sqrt(10.0),
    "R5": np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / np.sqrt(70.0),
}

LAWS_NAMES = tuple(_LAWS_TABLE)
_MAX_TAPS = 2 * _MAX_AXIS_VOXELS + 1  # the widest kernel built, in taps per axis
# The most bytes of complex taps a Gabor bank may hold, 1 GiB: 5.B's eight
# 61 x 61 kernels take 0.5 MB, and one kernel at the tap cap would take 68 GB.
_MAX_GABOR_BANK_BYTES = 1 << 30


def _check_gabor_bank(count: int, m: int, what: str):
    """Refuse ``count`` complex m x m Gabor kernels over _MAX_GABOR_BANK_BYTES,
    naming ``what`` sizes them, before any of them is built."""
    size = 16 * count * m * m
    if size > _MAX_GABOR_BANK_BYTES:
        raise ValueError(f"{what} give {count} x {m} x {m} complex taps, {size / 2**20:.1f} "
                         f"MiB, over the {_MAX_GABOR_BANK_BYTES >> 20} MiB a Gabor bank may hold")


def mean_kernel_1d(m: int) -> np.ndarray:
    """One separable factor of the mean kernel (M taps of 1/M)."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"mean filter support must be odd and positive, got {m}")
    return np.full(m, 1.0 / m)


def truncated_support(sigma: float, d: float) -> int:
    """Odd 1-D size M = 1 + 2*floor(d*sigma + 0.5) used by LoG and Gabor.  An M
    over _MAX_TAPS is a slip, not a filter: refused before any tap is built,
    as is a sigma or d that is not positive (NaN included)."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not d > 0:
        raise ValueError(f"truncation parameter must be positive, got {d}")
    if 2.0 * d * sigma >= _MAX_TAPS:
        raise ValueError(f"sigma {sigma} cut at {d} sigma gives over {_MAX_TAPS} taps")
    return 1 + 2 * int(np.floor(d * sigma + 0.5))


def _gaussian_samples(sigma: float, d: float) -> tuple:
    """Offsets t of the truncated support and one ``math.exp(-t^2 / 2 sigma^2)`` per t,
    a Python float whose bytes no SIMD dispatch level moves; t and -t agree."""
    m = truncated_support(sigma, d)
    offsets = range(-(m // 2), m // 2 + 1)
    return offsets, [math.exp(-t * t / (2.0 * sigma**2)) for t in offsets]


def gaussian_kernel_1d(sigma: float, d: float = 4.0) -> np.ndarray:
    """The LoG's Gaussian samples (:func:`_gaussian_samples`) at unit sum."""
    taps = np.array(_gaussian_samples(sigma, d)[1])
    return taps / taps.sum()


def log_kernel_1d(sigma: float, d: float = 4.0) -> tuple:
    """The LoG's 1-D factors ``(g, h)``, sampled at integer offsets t.

    g(t) = c exp(-t^2 / 2 sigma^2) with c = 1 / (sqrt(2 pi) sigma), and
    h(t) = -(1 - t^2 / sigma^2) / sigma^2 g(t), so that the D-dimensional
    LoG is sum over d of h(x_d) times g(x_e) on every other axis e (see
    :func:`log_kernel`).  The exponentials are :func:`_gaussian_samples`.
    """
    offsets, samples = _gaussian_samples(sigma, d)
    c = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
    g = [c * sample for sample in samples]
    h = [-(1.0 - t * t / sigma**2) / sigma**2 * gt for t, gt in zip(offsets, g)]
    return np.array(g), np.array(h)


def log_kernel(sigma: float, ndim: int, d: float = 4.0) -> np.ndarray:
    """Laplacian-of-Gaussian taps sampled at integer offsets.

    sigma is the Gaussian scale in voxels; d controls truncation (the kernel
    spans 1 + 2*floor(d*sigma + 0.5) voxels per axis).  Taps are point samples
    of the continuous profile and are deliberately not renormalised, so the
    kernel sum is close to, but not exactly, zero.

    The kernel is the sum, over the axes, of the outer product of h along
    that axis and g along every other axis (:func:`log_kernel_1d`), which
    is how the pipeline runs it: as separable passes, never as this dense
    array.  Each tap multiplies the factors at its sorted absolute offsets,
    so the kernel keeps the profile's exact symmetry under axis
    permutations and reflections.
    """
    g, h = log_kernel_1d(sigma, d)
    m = g.size
    offsets = np.sort(np.abs(np.indices((m,) * ndim) - m // 2), axis=0) + m // 2
    kernel = 0.0
    for axis in range(ndim):
        term = h[offsets[axis]]
        for other in range(ndim):
            if other != axis:
                term = term * g[offsets[other]]
        kernel = kernel + term
    return kernel


def laws_1d(name: str) -> np.ndarray:
    """One of the eight normalised Laws kernels (L3,L5,E3,E5,S3,S5,W5,R5)."""
    try:
        return _LAWS_TABLE[name].copy()
    except KeyError:
        raise ValueError(f"unknown Laws kernel {name!r}, expected one of {LAWS_NAMES}") from None


def laws_energy(response, delta: int, boundary: str, ndim: int | None = None) -> np.ndarray:
    """Texture energy: mean of |response| over the Chebyshev-delta window.

    Implemented as a separable mean filter of width 2*delta + 1 applied to the
    absolute response, using the same boundary mode as the first pass.  The
    window spans the trailing ``ndim`` axes, all axes by default.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    magnitude = np.abs(np.asarray(response))
    if delta == 0:
        return magnitude
    g = mean_kernel_1d(2 * delta + 1)
    ndim = magnitude.ndim if ndim is None else ndim
    return convolve_separable(magnitude, [g] * ndim, boundary)


@dataclass(frozen=True)
class GaborParams:
    """Gabor filter parameters, all spatial quantities in voxel units.

    theta turns clockwise in the (k1, k2) plane.  The rotated coordinates use
    the row pair ((cos, sin), (sin, -cos)).  The proper rotation's second
    row (-sin, cos) gives the identical kernel, because the second
    coordinate only enters squared.
    """

    sigma: float
    wavelength: float
    gamma: float = 1.0
    theta: float = 0.0

    def __post_init__(self):
        if not (self.sigma > 0 and self.wavelength > 0 and self.gamma > 0):
            raise ValueError("sigma, wavelength and gamma must all be positive")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be a finite number, got {self.theta}")

    @property
    def support(self) -> int:
        return truncated_support(self.sigma * max(self.gamma, 1.0), 4.0)


def gabor_kernel(params: GaborParams) -> np.ndarray:
    """Complex 2-D Gabor taps on the truncated square support, which may hold
    no more than _MAX_GABOR_BANK_BYTES."""
    m = params.support
    _check_gabor_bank(1, m, f"sigma {params.sigma} and gamma {params.gamma}")
    offsets = np.arange(m, dtype=np.float64) - m // 2
    k1, k2 = np.meshgrid(offsets, offsets, indexing="ij")
    c, s = np.cos(params.theta), np.sin(params.theta)
    kt1 = c * k1 + s * k2
    kt2 = s * k1 - c * k2
    envelope = -(kt1**2 + params.gamma**2 * kt2**2) / (2.0 * params.sigma**2)
    phase = 2.0 * np.pi * kt1 / params.wavelength
    return np.exp(envelope + 1j * phase)


def gabor_response_modulus(image2d, params: GaborParams, boundary: str) -> np.ndarray:
    """Modulus of the complex Gabor response of one 2-D slice, through the
    planned Gabor op's FFT route (:func:`convolve_bank`)."""
    image2d = np.asarray(image2d)
    if image2d.ndim != 2:
        raise ValueError(f"expected a 2-D slice, got ndim={image2d.ndim}")
    return np.abs(next(convolve_bank(image2d, [gabor_kernel(params)], boundary)))
