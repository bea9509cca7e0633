"""Separable wavelet transforms and isotropic Fourier-domain wavelets.

Separable families are stored as decomposition filter pairs; the
high-pass comes from the low-pass through the quadrature-mirror
relation g_H[k] = (-1)^(k+1) g_L[M-1-k], the sign chosen so Haar comes
out as [-1/sqrt(2), 1/sqrt(2)].  Both transforms compute only the
requested subband: levels 1..level-1 run the low-pass on every axis and
the last level the subband's letter per axis.  The undecimated transform
dilates the kernels with the a-trous scheme (zeros between taps plus
trailing zeros, doubling the length per level); the decimated transform
halves the grid after each level instead, keeping even-indexed samples.

Shannon and Simoncelli are radial band-pass profiles evaluated on the
Fourier grid; level j substitutes nu_B -> nu_B / 2^(j-1), so level 1
is the mother formula with nu_B = pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import (
    TransferCache,
    cached_transfer,
    convolve_fourier,
    convolve_separable,
    fourier_grid,
)
from .image import _integral
from .rotinv import PooledCascade, _as_kernel, cascade

__all__ = [
    "WaveletFamily",
    "WAVELET_NAMES",
    "wavelet_family",
    "atrous_upsample",
    "swt_undecimated",
    "swt_rotation_pooled",
    "dwt_decimated",
    "RadialProfile",
    "RADIAL_KINDS",
    "radial_transfer",
    "nonseparable_b_map",
]

NYQUIST = math.pi


@dataclass(frozen=True)
class WaveletFamily:
    name: str
    low_pass: np.ndarray
    high_pass: np.ndarray


def _qmf_high_pass(low: np.ndarray) -> np.ndarray:
    n = low.size
    signs = np.where(np.arange(n) % 2 == 1, 1.0, -1.0)
    return signs * low[::-1]


# Decomposition low-pass taps in the usual published ordering, at full
# double precision (spectral factorisation of the binomial
# autocorrelation; db2 equals the closed form (1 +/- sqrt(3))/(4 sqrt(2))
# up to the last bit).  The high-pass follows from the QMF rule.
_LOW_PASS_TABLE = {
    "haar": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    "db2": (
        -0.12940952255126037,
        0.2241438680420134,
        0.8365163037378078,
        0.48296291314453416,
    ),
    "db3": (
        0.03522629188570955,
        -0.08544127388202687,
        -0.13501102001025506,
        0.45987750211849154,
        0.8068915093110931,
        0.33267055295008285,
    ),
}

WAVELET_NAMES = tuple(sorted(_LOW_PASS_TABLE))


def wavelet_family(name: str) -> WaveletFamily:
    try:
        low = np.array(_LOW_PASS_TABLE[name], dtype=np.float64)
    except KeyError:
        raise ValueError(
            f"unknown wavelet family {name!r}; available: {', '.join(WAVELET_NAMES)}"
        ) from None
    return WaveletFamily(name=name, low_pass=low, high_pass=_qmf_high_pass(low))


def atrous_upsample(kernel, level: int) -> np.ndarray:
    """Dilate a kernel by 2^level: zeros between taps, zeros trailing."""
    g = _as_kernel(kernel)
    if level < 0:
        raise ValueError("upsampling level must be >= 0")
    step = 2 ** level
    out = np.zeros(g.size * step, dtype=np.float64)
    out[::step] = g
    return out


def _check_subband(subband: str, ndim: int) -> str:
    letters = str(subband).upper()
    if len(letters) != ndim or any(c not in "LH" for c in letters):
        raise ValueError(
            f"subband {subband!r} must give one letter from {{L,H}} per axis "
            f"({ndim} axes)"
        )
    return letters


def _subband_taps(family, level: int, subband: str, ndim: int) -> list:
    """Per axis, the undilated taps of levels 1..level of one subband: the
    low-pass up to the last level, then that axis's letter."""
    fam = wavelet_family(family)
    letters = _check_subband(subband, ndim)
    if level < 1:
        raise ValueError("decomposition level must be >= 1")
    return [[fam.low_pass] * (level - 1) + [fam.low_pass if letter == "L" else fam.high_pass]
            for letter in letters]


def _swt_stages(family, level: int, subband: str, ndim: int) -> list:
    """Per-axis a-trous stages of one undecimated subband, each stage
    dilated for its level."""
    return [[atrous_upsample(g, m) for m, g in enumerate(taps)]
            for taps in _subband_taps(family, level, subband, ndim)]


def swt_undecimated(image, family, level: int, subband: str, boundary: str) -> np.ndarray:
    """Stationary (undecimated) wavelet subband at the requested level;
    output dims equal input dims."""
    image = np.asarray(image, dtype=np.float64)
    return cascade(image, _swt_stages(family, level, subband, image.ndim), boundary)


def swt_rotation_pooled(image, family, level: int, subband: str,
                        pool_mode: str = "average", boundary: str = "mirror") -> np.ndarray:
    """Pool the undecimated subband over all right-angle kernel rotations.

    Each rotation permutes and reverses the per-axis filter cascades as a
    whole, so the flipped a-trous stages are convolved level by level just
    like the unrotated transform.
    """
    image = np.asarray(image, dtype=np.float64)
    stages = _swt_stages(family, level, subband, image.ndim)
    return PooledCascade(stages, pool_mode, boundary)(image)


def dwt_decimated(image, family, level: int, subband: str, boundary: str) -> np.ndarray:
    """Decimated (Mallat) wavelet subband at the requested level: each level
    filters with its taps and keeps the even-indexed samples, so output dims
    are the input dims over 2^level."""
    image = np.asarray(image, dtype=np.float64)
    taps = _subband_taps(family, level, subband, image.ndim)
    factor = 2 ** level
    if any(n % factor != 0 for n in image.shape):
        raise ValueError(
            f"image dims {image.shape} must be divisible by 2^level = {factor}; "
            f"pad each axis to a multiple of {factor} first"
        )
    for j in range(level):
        full = convolve_separable(image, [t[j] for t in taps], boundary)
        image = full[(slice(None, None, 2),) * full.ndim].copy()
    return image


RADIAL_KINDS = ("shannon", "simoncelli")


@dataclass(frozen=True)
class RadialProfile:
    kind: str
    level: int

    def __post_init__(self):
        if self.kind not in RADIAL_KINDS:
            raise ValueError(
                f"radial profile kind must be one of {RADIAL_KINDS}, not {self.kind!r}"
            )
        if _integral(self.level, "radial profile level") < 1:
            raise ValueError("radial profile level must be >= 1")


def radial_transfer(profile: RadialProfile, dims, half: bool = False) -> np.ndarray:
    """Band-pass transfer values on the DFT-ordered Fourier grid.

    Shannon: 1 on (nu_B'/2, nu_B'], else 0.  Simoncelli:
    cos(pi/2 * log2(2 ||nu|| / nu_B')) on [nu_B'/4, nu_B'], else 0.
    Grid corners with ||nu|| > nu_B stay zero by construction.  With
    ``half`` only the half grid of the last axis is built.
    """
    _, norm = fourier_grid(dims, half)
    band_edge = NYQUIST / 2.0 ** (profile.level - 1)
    if profile.kind == "shannon":
        transfer = ((norm > band_edge / 2.0) & (norm <= band_edge)).astype(np.float64)
    else:
        inside = (norm >= band_edge / 4.0) & (norm <= band_edge)
        transfer = np.zeros(norm.shape, dtype=np.float64)
        transfer[inside] = np.cos(
            (math.pi / 2.0) * np.log2(2.0 * norm[inside] / band_edge)
        )
    if not transfer.any():
        raise ValueError(
            f"level {profile.level} pass band contains no grid frequency for "
            f"dims {tuple(dims)}"
        )
    return transfer


def nonseparable_b_map(image, profile: RadialProfile,
                       transfers: TransferCache | None = None,
                       ndim: int | None = None) -> np.ndarray:
    """Band-pass response map of ``profile`` computed directly in the
    Fourier domain, on the trailing ``ndim`` axes (all axes by default).

    The radial transfer is real and even, so it is applied on the half
    spectrum, built on the filtered axes' grid and broadcast over any
    leading (batch) axes.  A filter plan's cache ``transfers`` builds it once
    per grid.
    """
    image = np.asarray(image, dtype=np.float64)
    dims = image.shape if ndim is None else image.shape[image.ndim - ndim:]
    transfer = cached_transfer(transfers, ("radial", profile, dims),
                               lambda: radial_transfer(profile, dims, half=True))
    return convolve_fourier(image, transfer)
