"""Spatial and Fourier-domain convolution.

The spatial paths share one convention: for a kernel of width M per axis the
centre tap sits at index ``M // 2`` and the response at voxel ``k0`` is

    h[k0] = sum_k g[k] * f_ext[k0 - k]

with ``f_ext`` the boundary-extended image.  Padding uses a margin of
``M // 2`` per axis, which covers every tap for odd and even widths alike.
Accumulation is in 64-bit floats with a fixed summation order, so repeated
runs are bit-identical.

The Fourier path multiplies DFTs (Hadamard product), which implies periodise
boundary handling.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .boundary import pad

__all__ = [
    "convolve_full",
    "convolve_separable",
    "convolve_fourier",
    "fourier_grid",
    "kernel_to_transfer",
    "dft_to_centred",
    "centred_to_dft",
]

# Route dense spatial jobs above this many multiply-adds to the FFT under
# via="auto".  Derived from the cost crossover between direct accumulation
# and three FFT passes; deliberately conservative.
_AUTO_MAC_LIMIT = 1 << 28


def _as_float_or_complex(kernel: np.ndarray) -> np.ndarray:
    kernel = np.asarray(kernel)
    if not np.all(np.isfinite(kernel)):
        raise ValueError("kernel contains non-finite values")
    if np.iscomplexobj(kernel):
        return kernel.astype(np.complex128, copy=False)
    return kernel.astype(np.float64, copy=False)


def convolve_separable(image, kernels, boundary: str, constant: float = 0.0) -> np.ndarray:
    """Convolve with an outer-product kernel as successive 1-D passes.

    ``kernels`` holds one 1-D kernel per axis, applied in axis order (g1 along
    k1, then g2 along k2, then g3 along k3).  The whole halo, corners
    included, is imputed once up front, so the result matches dense
    convolution of the outer-product kernel for every boundary mode.
    """
    image = np.asarray(image, dtype=np.float64)
    if len(kernels) != image.ndim:
        raise ValueError(f"{len(kernels)} kernels for a {image.ndim}-D image")
    kernels = [_as_float_or_complex(np.atleast_1d(g)) for g in kernels]
    for g in kernels:
        if g.ndim != 1:
            raise ValueError("separable kernels must be one-dimensional")
    margins = [g.shape[0] // 2 for g in kernels]
    out = pad(image, margins, boundary, constant)
    if any(np.iscomplexobj(g) for g in kernels):
        out = out.astype(np.complex128)
    for axis, g in enumerate(kernels):
        shape = [1] * image.ndim
        shape[axis] = g.shape[0]
        out_shape = out.shape[:axis] + (image.shape[axis],) + out.shape[axis + 1:]
        out = _dense_valid(out, g.reshape(shape), out_shape)
    return out


def convolve_full(image, kernel, boundary: str, constant: float = 0.0,
                  via: str = "auto") -> np.ndarray:
    """Dense N-D convolution with explicit boundary handling.

    ``via`` selects the backend: "spatial" accumulates directly, "fourier"
    evaluates the same linear convolution through FFTs on the padded block
    (identical up to roundoff), "auto" picks by estimated cost.
    """
    image = np.asarray(image, dtype=np.float64)
    kernel = _as_float_or_complex(kernel)
    if kernel.ndim != image.ndim:
        raise ValueError(f"kernel ndim {kernel.ndim} does not match image ndim {image.ndim}")
    if via not in ("auto", "spatial", "fourier"):
        raise ValueError(f"unknown convolution route {via!r}")
    if via == "auto":
        macs = image.size * kernel.size
        via = "fourier" if macs > _AUTO_MAC_LIMIT else "spatial"

    margins = [m // 2 for m in kernel.shape]
    padded = pad(image, margins, boundary, constant)
    if via == "spatial":
        return _dense_valid(padded, kernel, image.shape)
    return _dense_valid_fft(padded, kernel, image.shape)


def _dense_valid(padded: np.ndarray, kernel: np.ndarray, out_shape) -> np.ndarray:
    flipped = kernel[tuple(slice(None, None, -1) for _ in kernel.shape)]
    windows = sliding_window_view(padded, kernel.shape)
    sel = []
    for n_out, m in zip(out_shape, kernel.shape):
        start = 2 * (m // 2) - m + 1
        sel.append(slice(start, start + n_out))
    windows = windows[tuple(sel)]
    letters = "ijkl"[: kernel.ndim]
    return np.einsum(f"...{letters},{letters}->...", windows, np.ascontiguousarray(flipped))


def _dense_valid_fft(padded: np.ndarray, kernel: np.ndarray, out_shape) -> np.ndarray:
    """Linear convolution of the padded block via circular FFT convolution.

    The margin absorbs the circular wrap, so the cropped interior matches the
    direct path.
    """
    out = np.fft.ifftn(np.fft.fftn(padded) * kernel_to_transfer(kernel, padded.shape))
    if not np.iscomplexobj(kernel):
        out = out.real
    crop = tuple(slice(m // 2, m // 2 + n) for m, n in zip(kernel.shape, out_shape))
    return np.ascontiguousarray(out[crop])


def fourier_grid(dims):
    """Per-axis angular frequency coordinates and the radial norm.

    Axis i is sampled with step 2*pi/N_i on [-pi, pi), returned in DFT index
    order (nu = 0 first).  The normalised Nyquist frequency is pi; corners of
    the grid exceed it in norm and are attenuated by radial profiles rather
    than here.  Each coordinate array is shaped for broadcasting; the radial
    norm has the full given shape.
    """
    dims = tuple(int(n) for n in dims)
    if any(n < 1 for n in dims):
        raise ValueError(f"dims must be >= 1, got {dims}")
    axes = []
    for i, n in enumerate(dims):
        nu = 2.0 * np.pi * np.fft.fftfreq(n)
        shape = [1] * len(dims)
        shape[i] = n
        axes.append(nu.reshape(shape))
    norm = np.sqrt(sum(nu**2 for nu in axes))
    return axes, norm


def dft_to_centred(arr: np.ndarray, axes=None) -> np.ndarray:
    """Reindex from DFT order (nu=0 first) to centred order (nu ascending)."""
    return np.fft.fftshift(arr, axes=axes)


def centred_to_dft(arr: np.ndarray, axes=None) -> np.ndarray:
    """Inverse of :func:`dft_to_centred`."""
    return np.fft.ifftshift(arr, axes=axes)


def kernel_to_transfer(kernel, dims) -> np.ndarray:
    """DFT of a spatial kernel embedded at the grid origin.

    The kernel is placed with its centre tap (index M//2 per axis) on voxel 0,
    wrapping negative offsets around, so that multiplication in the Fourier
    domain reproduces spatial convolution with periodise boundary without a
    phase ramp.
    """
    kernel = _as_float_or_complex(kernel)
    dims = tuple(int(n) for n in dims)
    if kernel.ndim != len(dims):
        raise ValueError("kernel and target grid dimensionality differ")
    if any(m > n for m, n in zip(kernel.shape, dims)):
        raise ValueError(f"kernel {kernel.shape} does not fit grid {dims}")
    buf = np.zeros(dims, dtype=np.complex128 if np.iscomplexobj(kernel) else np.float64)
    buf[tuple(slice(0, m) for m in kernel.shape)] = kernel
    buf = np.roll(buf, [-(m // 2) for m in kernel.shape], axis=range(kernel.ndim))
    return np.fft.fftn(buf)


def convolve_fourier(image, transfer) -> np.ndarray:
    """Filter by Hadamard product in the Fourier domain.

    Periodisation of the image content is implicit.  The real part of the
    inverse DFT is returned: for conjugate-symmetric transfer functions
    (real-valued point spread) it is the whole response, and for the odd
    Riesz orders it drops only the unpairable Nyquist residue.
    """
    image = np.asarray(image, dtype=np.float64)
    transfer = np.asarray(transfer, dtype=np.complex128)
    if transfer.shape != image.shape:
        raise ValueError(f"transfer dims {transfer.shape} do not match image dims {image.shape}")
    return np.fft.ifftn(np.fft.fftn(image) * transfer).real
