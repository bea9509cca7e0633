"""Separable wavelet transforms and isotropic Fourier-domain wavelets.

Separable families are stored as decomposition filter pairs; the
high-pass comes from the low-pass through the quadrature-mirror
relation g_H[k] = (-1)^(k+1) g_L[M-1-k], the sign chosen so Haar comes
out as [-1/sqrt(2), 1/sqrt(2)].  The undecimated transform dilates the
kernels with the a-trous scheme (zeros between taps plus trailing
zeros, doubling the length per level); the decimated transform halves
the grid instead, keeping even-indexed samples.

Shannon and Simoncelli are radial band-pass profiles evaluated on the
Fourier grid; level j substitutes nu_B -> nu_B / 2^(j-1), so level 1
is the mother formula with nu_B = pi.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .convolve import convolve_fourier, convolve_separable, fourier_grid
from .rotinv import cascade, pooled_cascades

__all__ = [
    "WaveletFamily",
    "WAVELET_NAMES",
    "wavelet_family",
    "atrous_upsample",
    "swt_undecimated",
    "swt_rotation_pooled",
    "DecimatedLevel",
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


def _resolve_family(family) -> WaveletFamily:
    if isinstance(family, WaveletFamily):
        return family
    return wavelet_family(family)


def atrous_upsample(kernel, level: int) -> np.ndarray:
    """Dilate a kernel by 2^level: zeros between taps, zeros trailing."""
    g = np.asarray(kernel, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("kernel must be a non-empty 1-D array")
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


def _swt_stages(family, level: int, subband: str, ndim: int) -> list:
    """Per-axis a-trous stages of one undecimated subband.

    Levels 1..level-1 use the low-pass on every axis; the last level uses
    the requested letter, each stage dilated for its level.
    """
    fam = _resolve_family(family)
    letters = _check_subband(subband, ndim)
    if level < 1:
        raise ValueError("decomposition level must be >= 1")
    stage_lists = []
    for letter in letters:
        taps = (fam.low_pass,) * (level - 1) + (fam.low_pass if letter == "L" else fam.high_pass,)
        stage_lists.append([atrous_upsample(g, m) for m, g in enumerate(taps)])
    return stage_lists


def swt_undecimated(image, family, level: int, subband: str, boundary: str,
                    constant: float = 0.0) -> np.ndarray:
    """Stationary (undecimated) wavelet subband at the requested level.

    Levels 1..level-1 run the all-low path with a-trous kernels of each
    level; the final level applies the requested letters.  Output dims
    equal input dims.
    """
    image = np.asarray(image, dtype=np.float64)
    return cascade(image, _swt_stages(family, level, subband, image.ndim), boundary, constant)


def swt_rotation_pooled(image, family, level: int, subband: str,
                        pool_mode: str = "average", boundary: str = "mirror",
                        constant: float = 0.0) -> np.ndarray:
    """Pool the undecimated subband over all right-angle kernel rotations.

    Each rotation permutes and reverses the per-axis filter cascades as a
    whole, so the flipped a-trous stages are convolved level by level just
    like the unrotated transform.
    """
    image = np.asarray(image, dtype=np.float64)
    stages = _swt_stages(family, level, subband, image.ndim)
    return pooled_cascades(image, stages, pool_mode, boundary, constant)


@dataclass(frozen=True)
class DecimatedLevel:
    """One level of a decimated transform: subband letters -> maps."""

    level: int
    subbands: dict
    mask: np.ndarray | None = None


def _decimate(arr: np.ndarray) -> np.ndarray:
    return arr[tuple(slice(0, None, 2) for _ in range(arr.ndim))].copy()


def dwt_decimated(image, family, levels: int, boundary: str,
                  constant: float = 0.0, mask=None) -> tuple:
    """Mallat cascade: filter, keep even-indexed samples, recurse on LL...L.

    Every level yields all 2^D letter combinations at half the previous
    dims; the all-low map is the next level's input.  A region mask, if
    given, is decimated alongside so it stays aligned with the maps.
    """
    image = np.asarray(image, dtype=np.float64)
    fam = _resolve_family(family)
    if levels < 1:
        raise ValueError("decomposition level must be >= 1")
    factor = 2 ** levels
    if any(n % factor != 0 for n in image.shape):
        raise ValueError(
            f"image dims {image.shape} must be divisible by 2^levels = {factor}; "
            f"pad each axis to a multiple of {factor} first"
        )
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != image.shape:
            raise ValueError("mask dims must match image dims")

    bank = {"L": fam.low_pass, "H": fam.high_pass}
    out = []
    current = image
    for j in range(1, levels + 1):
        if mask is not None:
            mask = _decimate(mask)
        subbands = {}
        for combo in itertools.product("LH", repeat=image.ndim):
            letters = "".join(combo)
            kernels = tuple(bank[c] for c in combo)
            full = convolve_separable(current, kernels, boundary, constant)
            subbands[letters] = _decimate(full)
        out.append(DecimatedLevel(level=j, subbands=subbands, mask=mask))
        current = subbands["L" * image.ndim]
    return tuple(out)


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
        if self.level < 1:
            raise ValueError("radial profile level must be >= 1")


def radial_transfer(profile: RadialProfile, dims) -> np.ndarray:
    """Band-pass transfer values on the DFT-ordered Fourier grid.

    Shannon: 1 on (nu_B'/2, nu_B'], else 0.  Simoncelli:
    cos(pi/2 * log2(2 ||nu|| / nu_B')) on [nu_B'/4, nu_B'], else 0.
    Grid corners with ||nu|| > nu_B stay zero by construction.
    """
    _, norm = fourier_grid(dims)
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


def nonseparable_b_map(image, kind: str, level: int) -> np.ndarray:
    """Band-pass response map computed directly in the Fourier domain."""
    image = np.asarray(image, dtype=np.float64)
    transfer = radial_transfer(RadialProfile(kind=kind, level=level), image.shape)
    return convolve_fourier(image, transfer)
