"""Spatial and Fourier-domain convolution.

The spatial paths share one convention: for a kernel of width M per axis the
centre tap sits at index ``M // 2`` and the response at voxel ``k0`` is

    h[k0] = sum_k g[k] * f_ext[k0 - k]

with ``f_ext`` the boundary-extended image.  Padding uses a margin of
``M // 2`` per axis, which covers every tap for odd and even widths alike.
Accumulation is in 64-bit floats with a fixed summation order, so repeated
runs are bit-identical.

Every function here filters the trailing axes of its input and leaves any
leading (batch) axes alone: a stack of k planes, shape (k, n1, n2), is
filtered plane by plane, with the bytes each plane would get on its own.
The number of filtered axes comes from the kernels (one 1-D kernel per
axis, or the dimensionality of a dense kernel or a transfer), or from an
explicit ``ndim`` where nothing else carries it; the padding gives the
batch axes a margin of 0.

The dense spatial path, :func:`convolve_full`, is the reference the other
routes are checked against; no library function calls it.

The Fourier path multiplies DFTs (Hadamard product), which implies periodise
boundary handling.  Every DFT in voxfilt goes through one helper here:
:func:`fft_forward` and :func:`fft_inverse`, on ``numpy.fft`` with explicit
trailing axes.  Spatial kernels reach it through one function,
:func:`convolve_bank`, the Gabor bank's route: it pads the image like the
spatial path, zero-fills the block up to :func:`fast_grid`'s 2^a 3^b 5^c
lengths (the circular wrap stays inside the margin on any grid at least as
large as the block, so the cropped result equals the spatial one up to
roundoff), fetches the transfers from the caller's cache, and crops each
axis of the inverse as soon as it is done.  A real kernel's transfer, and
the Fourier-domain filters' transfers on the image grid, are
conjugate-symmetric, so they are stored on the half grid of the last axis
and applied with real-input transforms.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .boundary import pad

__all__ = [
    "convolve_full",
    "convolve_separable",
    "convolve_laplacian",
    "laplacian_passes",
    "convolve_bank",
    "convolve_fourier",
    "fourier_grid",
    "half_shape",
    "fast_grid",
    "fft_forward",
    "fft_inverse",
    "kernel_to_transfer",
    "TransferCache",
    "cached_transfer",
]

def _fast_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c that is at least ``n`` (``n`` >= 1)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def fast_grid(shape) -> tuple:
    """Per axis, the smallest 2^a 3^b 5^c length that holds ``shape``."""
    return tuple(_fast_length(int(n)) for n in shape)


def half_shape(dims) -> tuple:
    """Shape of a half spectrum on ``dims``: the last axis keeps n // 2 + 1 bins."""
    dims = tuple(int(n) for n in dims)
    return dims[:-1] + (dims[-1] // 2 + 1,)


class TransferCache:
    """Transfers built once per key, for one filter plan and volume shape.

    A plan keeps one for its lifetime; :meth:`for_shape` empties it when the
    volume shape changes.  The slabs of one run, and runs of one plan, may
    execute on several threads: the first to ask for a missing key builds
    it while the others wait for it.
    """

    def __init__(self):
        self._shape = None
        self._built = {}
        self._lock = threading.Lock()

    def for_shape(self, shape):
        """Empty the cache when ``shape`` is not the volume shape it last served."""
        with self._lock:
            if shape != self._shape:
                self._built.clear()
                self._shape = shape

    def get(self, key, build):
        with self._lock:
            if key not in self._built:
                self._built[key] = build()
            return self._built[key]


def cached_transfer(transfers: TransferCache | None, key, build):
    """``build()``, kept in ``transfers`` under ``key`` when a cache is given.

    Without one nothing outlives the caller's use of the transfer, which is
    what a whole-volume op needs: keeping its full-grid transfers past the
    run raised peak memory.
    """
    return build() if transfers is None else transfers.get(key, build)


def _batch_margins(ndim: int, margins) -> tuple:
    """One margin per axis of an ``ndim``-D array whose trailing axes take
    ``margins``: the leading (batch) axes get 0."""
    margins = tuple(int(m) for m in margins)
    if len(margins) > ndim:
        raise ValueError(f"{len(margins)} filtered axes for a {ndim}-D image")
    return (0,) * (ndim - len(margins)) + margins


def fft_forward(block, grid, real: bool = False) -> np.ndarray:
    """DFT of the trailing ``len(grid)`` axes of ``block``, each zero-filled to
    ``grid`` at its high end; leading axes are a batch.

    With ``real`` the block must be real and only the half spectrum of the
    last axis is computed (:func:`half_shape`).
    """
    axes = tuple(range(-len(grid), 0))
    return (np.fft.rfftn if real else np.fft.fftn)(block, s=tuple(grid), axes=axes)


def fft_inverse(spectrum, grid, crop=None, real: bool = False) -> np.ndarray:
    """Inverse DFT on ``grid``, the trailing axes of ``spectrum``, kept only on
    the per-axis slices ``crop``; leading axes are a batch.

    The axes are inverted one at a time, in the order of ``numpy.fft``'s
    ``ifftn`` (last axis first) or, with ``real``, ``irfftn`` (the leading
    axes in order, then the real inverse of the last), and each axis is
    cropped as soon as it is done, so later axes transform only the rows
    that are kept.  Every row meets the arithmetic of the full inverse, so
    the result has the bytes of the full inverse cropped afterwards.  The
    axes up to the first crop, the first axis at least, are inverted in
    place: the function takes ownership of ``spectrum``, a complex array,
    and leaves it overwritten; pass a copy to keep it.
    """
    ndim = len(grid)

    def kept(out, axis):  # axis counts from the end, -ndim to -1
        return out if crop is None else out[(..., crop[axis]) + (slice(None),) * (-1 - axis)]

    out = spectrum
    for axis in range(-ndim, -1) if real else range(-1, -ndim - 1, -1):
        out = kept(np.fft.ifft(out, axis=axis, out=out if out is spectrum else None), axis)
    if real:
        out = kept(np.fft.irfft(out, n=grid[-1], axis=-1), -1)
    return out


def _as_float_or_complex(kernel: np.ndarray) -> np.ndarray:
    kernel = np.asarray(kernel)
    if not np.all(np.isfinite(kernel)):
        raise ValueError("kernel contains non-finite values")
    if np.iscomplexobj(kernel):
        return kernel.astype(np.complex128, copy=False)
    return kernel.astype(np.float64, copy=False)


def convolve_separable(image, kernels, boundary: str) -> np.ndarray:
    """Convolve with an outer-product kernel as successive 1-D passes.

    ``kernels`` holds one 1-D kernel per filtered axis, the trailing axes of
    ``image``, applied in axis order (g1 along k1, then g2 along k2, then g3
    along k3).  The whole halo, corners included, is imputed once up front,
    so the result matches dense convolution of the outer-product kernel for
    every boundary mode.
    """
    image = np.asarray(image, dtype=np.float64)
    if not 1 <= len(kernels) <= image.ndim:
        raise ValueError(f"{len(kernels)} kernels for a {image.ndim}-D image")
    kernels = [_as_float_or_complex(np.atleast_1d(g)) for g in kernels]
    for g in kernels:
        if g.ndim != 1:
            raise ValueError("separable kernels must be one-dimensional")
    shape = image.shape
    out = pad(image, _batch_margins(image.ndim, [g.shape[0] // 2 for g in kernels]), boundary)
    del image  # a temporary passed in is freed before the passes
    if any(np.iscomplexobj(g) for g in kernels):
        out = out.astype(np.complex128)
    for axis, g in zip(range(-len(kernels), 0), kernels):
        out = axis_pass(out, axis, g, shape[axis])
    return out


def laplacian_passes(ndim: int) -> int:
    """The one-axis passes :func:`convolve_laplacian` runs over ``ndim`` axes."""
    return 3 * ndim - 2


def convolve_laplacian(image, smooth, second, boundary: str,
                       ndim: int | None = None) -> np.ndarray:
    """Convolve with the sum over axes d of ``second`` along d and ``smooth``
    along every other axis, as 3D - 2 one-axis passes (:func:`laplacian_passes`).
    The D = ``ndim`` filtered axes are the trailing ones, all axes by default.

    This is how the Laplacian of a separable kernel factors (the LoG, with
    the factors of :func:`voxfilt.kernels.log_kernel_1d`).  The image is
    padded once, as for :func:`convolve_separable`, and the sum is built
    axis by axis from two running blocks: S, smoothed along every axis done
    so far, and L, the sum so far, with L <- second(S) + smooth(L) and
    S <- smooth(S) per axis (the last axis needs no S).  With M taps that
    is (3D - 2) M multiply-adds per voxel, 91 for the 13-tap 3-D LoG
    against 2,197 for its dense kernel.
    """
    image = np.asarray(image, dtype=np.float64)
    smooth, second = (_as_float_or_complex(np.atleast_1d(k)) for k in (smooth, second))
    if smooth.ndim != 1 or smooth.shape != second.shape:
        raise ValueError("the smoothing and second-derivative factors must be 1-D "
                         "kernels of one length")
    ndim = image.ndim if ndim is None else ndim
    padded = pad(image, _batch_margins(image.ndim, (smooth.shape[0] // 2,) * ndim), boundary)
    total = axis_pass(padded, -ndim, second, image.shape[-ndim])
    smoothed = axis_pass(padded, -ndim, smooth, image.shape[-ndim]) if ndim > 1 else None
    del padded
    for axis in range(1 - ndim, 0):
        # the old sum goes first, so that at most one old block is alive
        # while the next axis's blocks are built
        total = axis_pass(total, axis, smooth, image.shape[axis])
        total += axis_pass(smoothed, axis, second, image.shape[axis])
        smoothed = axis_pass(smoothed, axis, smooth, image.shape[axis]) if axis < -1 else None
    return total


def axis_pass(block, axis: int, kernel, size: int) -> np.ndarray:
    """One 1-D pass of a separable convolution: ``kernel`` along ``axis``.

    ``block`` is padded by ``len(kernel) // 2`` voxels on both sides of
    ``axis`` (negative counts from the end), which the pass consumes: the
    result has ``size`` voxels there and ``block``'s extent on every other axis.
    """
    axis %= block.ndim
    shape = [1] * block.ndim
    shape[axis] = kernel.shape[0]
    out_shape = block.shape[:axis] + (size,) + block.shape[axis + 1:]
    return _dense_valid(block, kernel.reshape(shape), out_shape)


def convolve_full(image, kernel, boundary: str) -> np.ndarray:
    """Dense N-D convolution with explicit boundary handling, accumulated
    directly in the spatial domain."""
    image = np.asarray(image, dtype=np.float64)
    kernel = _as_float_or_complex(kernel)
    if kernel.ndim != image.ndim:
        raise ValueError(f"kernel ndim {kernel.ndim} does not match image ndim {image.ndim}")
    margins = [m // 2 for m in kernel.shape]
    return _dense_valid(pad(image, margins, boundary), kernel, image.shape)


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


def convolve_bank(image, kernels, boundary: str, transfers: TransferCache | None = None):
    """Yield each kernel's response to ``image`` through FFTs, from one forward DFT.

    The ``kernels`` share one shape and are all real or all complex; they
    filter the trailing axes of ``image``, one per kernel axis.  The
    image is padded as on the spatial route, by M // 2 voxels per axis, and
    transformed on :func:`fast_grid` of the padded block: on the half grid
    for real kernels, with real responses, else on the whole grid, with
    complex ones.  Each kernel then costs one product with its transfer and
    one inverse DFT pruned to the image, whose first axis runs in place in
    the product (:func:`fft_inverse`); the padded block is dropped once it is transformed.  The
    transfers depend only on the kernels and the grid, so with a
    ``transfers`` cache they are built once per bank and grid
    (:func:`cached_transfer`); a filter plan's cache keeps them across its
    runs.  The entry is keyed by the identity of ``kernels`` and holds that
    object, so the identity cannot pass to another bank while the cache
    lives; mutate no bank in place.
    """
    image = np.asarray(image, dtype=np.float64)
    shape = np.shape(kernels[0])
    if any(np.shape(k) != shape for k in kernels):
        raise ValueError("the kernels of a bank must share one shape")
    margins = _batch_margins(image.ndim, [m // 2 for m in shape])
    dims = image.shape[image.ndim - len(shape):]
    real = not np.iscomplexobj(kernels[0])
    grid = fast_grid(n + 2 * (m // 2) for n, m in zip(dims, shape))
    _, bank = cached_transfer(transfers, ("bank", id(kernels), grid),
                              lambda: (kernels, [kernel_to_transfer(k, grid) for k in kernels]))
    # The spectrum travels in a list, so that the last kernel's product can
    # take over its memory and no frame holds a product across a yield.
    spectra = [fft_forward(pad(image, margins, boundary), grid, real)]
    crop = tuple(slice(m // 2, m // 2 + n) for m, n in zip(shape, dims))
    for position, transfer in enumerate(bank):
        if position < len(bank) - 1:
            spectra.append(spectra[0] * transfer)
        else:
            spectra[0] *= transfer
        yield fft_inverse(spectra.pop(), grid, crop, real)


def fourier_grid(dims, half: bool = False):
    """Per-axis angular frequency coordinates and the radial norm.

    Axis i is sampled with step 2*pi/N_i on [-pi, pi), returned in DFT index
    order (nu = 0 first).  The normalised Nyquist frequency is pi; corners of
    the grid exceed it in norm and are attenuated by radial profiles rather
    than here.  Each coordinate array is shaped for broadcasting; the radial
    norm has the full given shape, or with ``half`` the half-spectrum shape
    (:func:`half_shape`): the first N // 2 + 1 samples of the last axis, so
    every value equals the full grid's at the same index.
    """
    dims = tuple(int(n) for n in dims)
    if any(n < 1 for n in dims):
        raise ValueError(f"dims must be >= 1, got {dims}")
    kept = half_shape(dims) if half else dims
    axes = []
    for i, (n, k) in enumerate(zip(dims, kept)):
        nu = 2.0 * np.pi * np.fft.fftfreq(n)[:k]
        shape = [1] * len(dims)
        shape[i] = k
        axes.append(nu.reshape(shape))
    norm = np.sqrt(sum(nu**2 for nu in axes))
    return axes, norm


def kernel_to_transfer(kernel, dims) -> np.ndarray:
    """DFT of a spatial kernel embedded at the grid origin.

    The kernel is placed with its centre tap (index M//2 per axis) on voxel 0,
    wrapping negative offsets around, so that multiplication in the Fourier
    domain reproduces spatial convolution with periodise boundary without a
    phase ramp.  A real kernel's transfer is conjugate-symmetric and is
    returned on the half grid (:func:`half_shape`); a complex kernel's on
    the whole grid.
    """
    kernel = _as_float_or_complex(kernel)
    dims = tuple(int(n) for n in dims)
    if kernel.ndim != len(dims):
        raise ValueError("kernel and target grid dimensionality differ")
    if any(m > n for m, n in zip(kernel.shape, dims)):
        raise ValueError(f"kernel {kernel.shape} does not fit grid {dims}")
    buf = np.zeros(dims, dtype=np.complex128 if np.iscomplexobj(kernel) else np.float64)
    buf[np.ix_(*[(np.arange(m) - m // 2) % n for m, n in zip(kernel.shape, dims)])] = kernel
    return fft_forward(buf, dims, real=not np.iscomplexobj(kernel))


def convolve_fourier(image, transfer) -> np.ndarray:
    """Filter by Hadamard product in the Fourier domain.

    Periodisation of the image content is implicit.  ``transfer`` is given
    on the whole DFT grid of the image's trailing ``transfer.ndim`` axes or
    on its half grid (:func:`half_shape`), and broadcasts over the leading
    (batch) axes.
    On the whole grid the real part of the inverse DFT is returned: for
    conjugate-symmetric transfer functions (real-valued point spread) it is
    the whole response, and for the odd Riesz orders it drops only the
    unpairable Nyquist residue.  On the half grid the transfer is taken as
    conjugate-symmetric and applied with real-input transforms, which is
    the same response up to roundoff wherever the transfer is; when the
    last axis has at most two samples the two grids coincide and so do the
    two readings.
    """
    image = np.asarray(image, dtype=np.float64)
    transfer = np.asarray(transfer)
    if not 1 <= transfer.ndim <= image.ndim:
        raise ValueError(f"a {transfer.ndim}-D transfer cannot filter a {image.ndim}-D image")
    dims = image.shape[image.ndim - transfer.ndim:]
    real = transfer.shape != dims
    if real and transfer.shape != half_shape(dims):
        raise ValueError(f"transfer dims {transfer.shape} fit neither the grid {dims} "
                         f"nor its half grid {half_shape(dims)}")
    spectrum = fft_forward(image, dims, real)
    spectrum *= transfer
    out = fft_inverse(spectrum, dims, real=real)
    return out if real else out.real
