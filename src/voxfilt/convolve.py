"""Spatial and Fourier-domain convolution.

The spatial paths share one convention: for a kernel of width M per axis the
centre tap sits at index ``M // 2`` and the response at voxel ``k0`` is

    h[k0] = sum_k g[k] * f_ext[k0 - k]

with ``f_ext`` the boundary-extended image, read with a halo of ``M // 2``
voxels per axis, which covers every tap for odd and even widths alike.
Accumulation is in 64-bit floats with a fixed summation order, so repeated
runs are bit-identical.

:func:`convolve_separable` and :func:`convolve_laplacian` (and so
``rotinv.cascade``, Laws energy, the decimated wavelets and the structure
tensor's smoothing) run their passes on one slab engine,
:func:`_slab_passes`: slab by slab of planes, each with its halo.

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

import math
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .boundary import _window, pad

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


# Voxels per slab: planes of the first filtered axis, counted over the
# filtered axes, one plane at least (batch axes ride along whole).  The bytes
# do not depend on it; it bounds the passes' blocks, to 10 planes at 56^3.
_SLAB_VOXELS = 1 << 15


def _slab_passes(image, boundary: str, margins, passes, out=None) -> np.ndarray:
    """``passes`` (padded block to response) over ``image``, slab by slab of
    planes of its first filtered axis, with one halo per filtered axis in
    ``margins``.  A slab [start, stop) is read as planes [start - m, stop + m),
    padded on every other filtered axis (:func:`_window`), so each pass
    meets a whole-volume pad's extents, and bytes, on the axes it does not
    cut.  The responses go into ``out``, new by default; where ``out`` is
    ``image``, a slab is written back once no later slab reads its planes.
    """
    axis = image.ndim - len(margins)
    n, halo = image.shape[axis], margins[0]
    step = max(1, _SLAB_VOXELS // max(1, math.prod(image.shape[axis + 1:])))
    if step >= n and out is None:
        return passes(pad(image, _batch_margins(image.ndim, margins), boundary))
    image = np.ascontiguousarray(image)  # slab reads from another layout are slow
    windows = [(-m, k + m) for m, k in zip(_batch_margins(image.ndim, margins), image.shape)]
    waiting = []
    for start in range(0, n, step):
        stop = min(start + step, n)
        windows[axis] = (start - halo, stop + halo)
        waiting.append((start, stop, passes(_window(image, windows, boundary))))
        out = np.empty(image.shape, waiting[0][2].dtype) if out is None else out
        # later slabs read from stop - halo on, and past the axis end they
        # wrap or fold onto planes before halo or from n - 1 - halo on
        for slab in [w for w in waiting if out is not image or stop == n
                     or (halo <= w[0] and w[1] <= stop - halo)]:
            waiting.remove(slab)
            out[(slice(None),) * axis + (slice(slab[0], slab[1]),)] = slab[2]
    return out


def convolve_separable(image, kernels, boundary: str) -> np.ndarray:
    """Convolve with an outer-product kernel as successive 1-D passes.

    ``kernels`` holds one 1-D kernel per filtered axis, the trailing axes of
    ``image``, applied in axis order (g1 along k1, then g2 along k2, then g3
    along k3).  Each slab's whole halo, corners included, is imputed before
    its passes (:func:`_slab_passes`), so the result matches dense
    convolution of the outer-product kernel for every boundary mode.
    """
    return _separable(np.asarray(image, dtype=np.float64), kernels, boundary)


def _separable(image, kernels, boundary: str, out=None) -> np.ndarray:
    """:func:`convolve_separable` of a float64 ``image``; in place with
    ``out`` the image itself, C-contiguous, and real ``kernels``."""
    if not 1 <= len(kernels) <= image.ndim:
        raise ValueError(f"{len(kernels)} kernels for a {image.ndim}-D image")
    kernels = [_as_float_or_complex(np.atleast_1d(g)) for g in kernels]
    if any(g.ndim != 1 for g in kernels):
        raise ValueError("separable kernels must be one-dimensional")
    dtype = np.result_type(*kernels)

    def passes(block):
        block = block.astype(dtype, copy=False)  # complex kernels, complex blocks
        for axis, g in zip(range(-len(kernels), 0), kernels):
            block = axis_pass(block, axis, g)
        return block
    return _slab_passes(image, boundary, [g.shape[0] // 2 for g in kernels], passes, out)


def laplacian_passes(ndim: int) -> int:
    """The one-axis passes :func:`convolve_laplacian` runs over ``ndim`` axes."""
    return 3 * ndim - 2


def convolve_laplacian(image, smooth, second, boundary: str,
                       ndim: int | None = None) -> np.ndarray:
    """Convolve with the sum over axes d of ``second`` along d and ``smooth``
    along every other axis, as 3D - 2 one-axis passes (:func:`laplacian_passes`).
    The D = ``ndim`` filtered axes are the trailing ones, all axes by default.

    This is how the Laplacian of a separable kernel factors (the LoG, with
    the factors of :func:`voxfilt.kernels.log_kernel_1d`).  Each slab is
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

    def passes(padded):
        total = axis_pass(padded, -ndim, second)
        smoothed = axis_pass(padded, -ndim, smooth) if ndim > 1 else None
        for axis in range(1 - ndim, 0):
            # the old sum goes first, so that at most one old block is alive
            # while the next axis's blocks are built
            total = axis_pass(total, axis, smooth)
            total += axis_pass(smoothed, axis, second)
            smoothed = axis_pass(smoothed, axis, smooth) if axis < -1 else None
        return total
    return _slab_passes(image, boundary, (smooth.shape[0] // 2,) * ndim, passes)


def axis_pass(block, axis: int, kernel) -> np.ndarray:
    """One 1-D pass of a separable convolution: ``kernel`` along ``axis``.

    ``block`` is padded by ``len(kernel) // 2`` voxels on both sides of
    ``axis`` (negative counts from the end), which the pass consumes; the
    other axes keep their extent.
    """
    shape = [1] * block.ndim
    shape[axis] = kernel.shape[0]
    return _dense_valid(block, kernel.reshape(shape))


def convolve_full(image, kernel, boundary: str) -> np.ndarray:
    """Dense N-D convolution with explicit boundary handling, accumulated
    directly in the spatial domain."""
    image = np.asarray(image, dtype=np.float64)
    kernel = _as_float_or_complex(kernel)
    if kernel.ndim != image.ndim:
        raise ValueError(f"kernel ndim {kernel.ndim} does not match image ndim {image.ndim}")
    return _dense_valid(pad(image, [m // 2 for m in kernel.shape], boundary), kernel)


def _dense_valid(padded: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """``kernel`` over ``padded``, padded by M // 2 on both sides of each
    axis of M taps: an even kernel's first window starts one voxel in."""
    flipped = kernel[tuple(slice(None, None, -1) for _ in kernel.shape)]
    windows = sliding_window_view(padded, kernel.shape)[
        tuple(slice(1 - m % 2, None) for m in kernel.shape)]
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
