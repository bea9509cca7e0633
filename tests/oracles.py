"""Reference implementations used only by the test suite.

Everything here is written from first principles, independent of the library
code paths: boundary lookups fold or wrap indices step by step, convolution
loops over kernel taps, statistics go through explicit sorting.  Slow but
obviously correct.  The exceptions are :func:`mallat_pyramid`, which
composes the library's separable convolution into the full decimated
pyramid, so that one subband can be compared with it byte for byte, and
:func:`whole_array_statistics` and :func:`whole_array_diagnostics`, which
reduce the library's gathered ROI values one whole-array numpy call per
quantity, so that the leaf-by-leaf sums can be compared with them byte for
byte, :func:`resample_image_per_tap` and :func:`resample_mask_per_tap`,
the resamplers as they were before their passes reused buffers, built on
the library's taps, so that the buffered passes can be compared with them
byte for byte, and :func:`whole_volume_separable` and
:func:`whole_volume_laplacian`, the spatial passes as they ran before they
ran slab by slab: ``np.pad`` of the whole volume, then the library's
``axis_pass`` per axis, so that the slab engine can be compared with them
byte for byte.
"""

import itertools
import math

import numpy as np


def fold_index(k: int, n: int, mode: str) -> int:
    """Out-of-range index resolution by stepwise folding/wrapping."""
    if mode == "nearest":
        return min(max(k, 0), n - 1)
    if mode == "periodise":
        while k < 0:
            k += n
        while k >= n:
            k -= n
        return k
    if mode == "mirror":
        if n == 1:
            return 0
        while k < 0 or k > n - 1:
            if k < 0:
                k = -k
            if k > n - 1:
                k = 2 * (n - 1) - k
        return k
    raise ValueError(mode)


def ext_lookup(image: np.ndarray, idx: tuple, mode: str) -> float:
    """Extended-image value at an arbitrary integer index."""
    if mode == "constant":
        if any(k < 0 or k >= n for k, n in zip(idx, image.shape)):
            return 0.0
        return image[idx]
    src = tuple(fold_index(k, n, mode) for k, n in zip(idx, image.shape))
    return image[src]


def conv_brute(image: np.ndarray, kernel: np.ndarray, mode: str):
    """Direct per-voxel, per-tap convolution (python loops; tiny inputs only)."""
    image = np.asarray(image, dtype=np.float64)
    kernel = np.asarray(kernel)
    out = np.zeros(image.shape, dtype=kernel.dtype if np.iscomplexobj(kernel) else np.float64)
    centres = [m // 2 for m in kernel.shape]
    for k0 in np.ndindex(*image.shape):
        acc = 0.0
        for tap in np.ndindex(*kernel.shape):
            offset = tuple(t - c for t, c in zip(tap, centres))
            src = tuple(a - b for a, b in zip(k0, offset))
            acc = acc + kernel[tap] * ext_lookup(image, src, mode)
        out[k0] = acc
    return out


def conv_taploop(image: np.ndarray, kernel: np.ndarray, mode: str):
    """Tap-by-tap convolution with vectorised gathers.

    Same definition as :func:`conv_brute` (checked against it in the suite)
    but fast enough for 16^3-scale inputs.
    """
    image = np.asarray(image, dtype=np.float64)
    kernel = np.asarray(kernel)
    out = np.zeros(image.shape, dtype=np.complex128 if np.iscomplexobj(kernel) else np.float64)
    centres = [m // 2 for m in kernel.shape]
    grids = np.meshgrid(*[np.arange(n) for n in image.shape], indexing="ij", sparse=True)
    for tap in np.ndindex(*kernel.shape):
        w = kernel[tap]
        if w == 0:
            continue
        src_axes = []
        inside = np.ones((), dtype=bool)
        for axis, (g, t, c, n) in enumerate(zip(grids, tap, centres, image.shape)):
            src = g - (t - c)
            if mode == "constant":
                inside = inside & ((src >= 0) & (src < n))
                src = np.clip(src, 0, n - 1)
            else:
                src = np.array([fold_index(int(k), n, mode) for k in src.ravel()]).reshape(src.shape)
            src_axes.append(src)
        vals = image[tuple(src_axes)]
        if mode == "constant":
            vals = np.where(inside, vals, 0.0)
        out = out + w * vals
    return out

# numpy.pad's names of the four boundary modes
NUMPY_PAD_MODES = {"constant": "constant", "nearest": "edge", "periodise": "wrap",
                   "mirror": "reflect"}


def _whole_volume_pad(image, halos, boundary: str) -> np.ndarray:
    """``image`` padded by ``halos`` on its trailing axes in one ``np.pad`` call."""
    image = np.ascontiguousarray(image, dtype=np.float64)
    widths = [(0, 0)] * (image.ndim - len(halos)) + [(m, m) for m in halos]
    return np.pad(image, widths, NUMPY_PAD_MODES[boundary])


def _as_taps(g) -> np.ndarray:
    g = np.atleast_1d(np.asarray(g))
    return g.astype(np.complex128 if np.iscomplexobj(g) else np.float64)


def whole_volume_separable(image, kernels, boundary: str) -> np.ndarray:
    """``convolve_separable`` as one whole-volume pad, then one pass per axis."""
    from voxfilt.convolve import axis_pass

    kernels = [_as_taps(g) for g in kernels]
    out = _whole_volume_pad(image, [g.size // 2 for g in kernels], boundary)
    if any(np.iscomplexobj(g) for g in kernels):
        out = out.astype(np.complex128)
    for axis, g in zip(range(-len(kernels), 0), kernels):
        out = axis_pass(out, axis, g)
    return out


def whole_volume_laplacian(image, smooth, second, boundary: str, ndim=None) -> np.ndarray:
    """``convolve_laplacian`` as one whole-volume pad, then its 3D - 2 passes."""
    from voxfilt.convolve import axis_pass

    smooth, second = _as_taps(smooth), _as_taps(second)
    ndim = np.ndim(image) if ndim is None else ndim
    padded = _whole_volume_pad(image, (smooth.size // 2,) * ndim, boundary)
    total = axis_pass(padded, -ndim, second)
    smoothed = axis_pass(padded, -ndim, smooth)
    for axis in range(1 - ndim, 0):
        total = axis_pass(total, axis, smooth) + axis_pass(smoothed, axis, second)
        smoothed = axis_pass(smoothed, axis, smooth)
    return total


def mallat_pyramid(image: np.ndarray, low, high, levels: int, boundary: str) -> list:
    """The whole decimated (Mallat) pyramid: one {letters: map} dict per level.

    Every level filters its input with all 2^D low/high letter combinations
    through ``convolve_separable`` and keeps the even-indexed samples; the
    all-low map is the next level's input.  The library computes one
    subband of this at a time, so byte equality checks that shortcut.
    """
    from voxfilt.convolve import convolve_separable

    current = np.asarray(image, dtype=np.float64)
    bank = {"L": low, "H": high}
    out = []
    for _ in range(levels):
        subbands = {}
        for combo in itertools.product("LH", repeat=current.ndim):
            full = convolve_separable(current, [bank[c] for c in combo], boundary)
            subbands["".join(combo)] = full[(slice(None, None, 2),) * full.ndim].copy()
        out.append(subbands)
        current = subbands["L" * current.ndim]
    return out


_QCOS = (1, 0, -1, 0)
_QSIN = (0, 1, 0, -1)


def euler_matrix(quarters) -> np.ndarray:
    """Exact rotation matrix for an extrinsic Euler triple in quarter turns.

    First rotation about k3 (alpha), then k2 (beta), then k1 (gamma);
    the product R_alpha @ R_beta @ R_gamma acts on column vectors.
    """
    a, b, g = (int(q) % 4 for q in quarters)
    ca, sa = _QCOS[a], _QSIN[a]
    cb, sb = _QCOS[b], _QSIN[b]
    cg, sg = _QCOS[g], _QSIN[g]
    r_alpha = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
    r_beta = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    r_gamma = np.array([[1, 0, 0], [0, cg, -sg], [0, sg, cg]])
    return r_alpha @ r_beta @ r_gamma


def planar_matrix(quarter: int) -> np.ndarray:
    """Clockwise right-angle matrix [[c, s], [-s, c]] for one quarter count."""
    c, s = _QCOS[int(quarter) % 4], _QSIN[int(quarter) % 4]
    return np.array([[c, s], [-s, c]])


def rotate_grid(volume: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Rotate a cube about its centre: out[k] = volume[mat^-1 (k - c) + c].

    ``mat`` must be an integer orthogonal (signed permutation) matrix, so
    its inverse is its transpose and grid points map onto grid points.
    """
    volume = np.asarray(volume)
    n = volume.shape[0]
    if any(s != n for s in volume.shape):
        raise ValueError("grid rotation needs a cube")
    inv = np.asarray(mat).T
    centre = (n - 1) / 2.0
    idx = np.indices(volume.shape)
    src = np.tensordot(inv, idx - centre, axes=(1, 0)) + centre
    return volume[tuple(np.rint(src).astype(int))]


def whole_array_statistics(response, mask) -> dict:
    """The eighteen intensity statistics, each sum one whole-array
    ``np.mean`` or ``np.sum`` over an ROI-sized array of its terms."""
    from voxfilt.features import (_between_sorted, _masked_values, _percentile_sorted,
                                  _ratio_or_zero)

    x = _masked_values(response, mask)
    n = x.size
    mean = float(x.mean())
    p10, p25, median, p75, p90 = (_percentile_sorted(x, q) for q in (10.0, 25.0, 50.0, 75.0, 90.0))
    robust = _between_sorted(x, p10, p90)
    robust_mad = float(np.mean(np.abs(robust - robust.mean()))) if robust.size else 0.0
    energy = float(np.sum(x * x))
    centred = x - mean
    c2 = centred * centred
    variance = float(np.mean(c2))
    if variance > 0.0:
        skewness = float(np.mean(c2 * centred)) / variance**1.5
        kurtosis = float(np.mean(c2 * c2)) / variance**2 - 3.0
    else:
        skewness = kurtosis = 0.0
    return {
        "mean": mean,
        "variance": variance,
        "skewness": skewness,
        "excess_kurtosis": kurtosis,
        "median": median,
        "minimum": float(x[0]),
        "percentile_10": p10,
        "percentile_90": p90,
        "maximum": float(x[-1]),
        "interquartile_range": p75 - p25,
        "range": float(x[-1]) - float(x[0]),
        "mean_absolute_deviation": float(np.mean(np.abs(centred))),
        "robust_mean_absolute_deviation": robust_mad,
        "median_absolute_deviation": float(np.mean(np.abs(x - median))),
        "coefficient_of_variation":
            _ratio_or_zero(math.sqrt(variance), mean) if variance > 0.0 else 0.0,
        "quartile_coefficient_of_dispersion": _ratio_or_zero(p75 - p25, p75 + p25),
        "energy": energy,
        "root_mean_square": math.sqrt(energy / n),
    }


def whole_array_diagnostics(mask_before, mask_after, image_after) -> dict:
    """The five diagnostics, the ROI mean one whole-array ``np.mean``."""
    from voxfilt.features import _roi_values

    values = _roi_values(image_after, mask_after)
    if values.size:
        mean, high, low = float(values.mean()), float(values.max()), float(values.min())
    else:
        mean = high = low = math.nan
    return {
        "roi_voxels_before_interpolation": float(np.count_nonzero(mask_before)),
        "roi_voxels_after_resegmentation": float(values.size),
        "roi_intensity_mean": mean,
        "roi_intensity_max": high,
        "roi_intensity_min": low,
    }


def spline_prefilter_strided(data) -> np.ndarray:
    """Cubic B-spline coefficients on a mirror boundary, each axis's
    recursions run in place on a strided ``moveaxis`` view of one C-ordered
    copy."""
    z = math.sqrt(3.0) - 2.0
    coef = np.array(data, dtype=np.float64, order="C")
    for axis in range(coef.ndim):
        n = coef.shape[axis]
        if n == 1:
            continue
        c = np.moveaxis(coef, axis, 0)
        c *= (1.0 - z) * (1.0 - 1.0 / z)
        powers = [1.0]
        for _ in range(n - 1):
            powers.append(powers[-1] * z)
        w = powers[n - 1]
        start = c[0] + w * c[n - 1]
        for i in range(1, n - 1):
            start = start + powers[i] * (c[i] + w * c[n - 1 - i])
        c[0] = start / (1.0 - w * w)
        for i in range(1, n):
            c[i] += z * c[i - 1]
        c[n - 1] = (z * c[n - 2] + c[n - 1]) * z / (z * z - 1.0)
        for i in range(n - 2, -1, -1):
            c[i] = z * (c[i + 1] - c[i])
    return coef


def resample_image_per_tap(image, new_spacing, method: str) -> np.ndarray:
    """Resampled intensities, each tap's gathered plane and its product with
    the weights a new array; ``new_spacing`` differs from the image's."""
    from voxfilt.pipeline import _along, _axis_taps, _output_coordinates

    out_dims, coords = _output_coordinates(image.dims, image.spacing, new_spacing)
    if method == "trilinear":
        order, data = 1, np.ascontiguousarray(image.data)
    else:
        order, data = 3, spline_prefilter_strided(image.data)
    ndim = image.ndim
    for axis in sorted(range(ndim), key=lambda a: (out_dims[a] / image.dims[a], -a)):
        idx, weights = _axis_taps(coords[axis], image.dims[axis], order)
        out = np.take(data, idx[:, 0], axis=axis) * _along(weights[:, 0], axis, ndim)
        for k in range(1, order + 1):
            out += np.take(data, idx[:, k], axis=axis) * _along(weights[:, k], axis, ndim)
        data = out
    return np.asfortranarray(data)


def partial_volume_per_tap(membership, spacing, new_spacing) -> np.ndarray:
    """Trilinear partial volume of every output voxel, each corner's weight
    product ``((1 * w1) * w2) * w3`` formed whole and added in corner order;
    ``new_spacing`` differs from ``spacing``."""
    from voxfilt.pipeline import _along, _axis_taps, _output_coordinates

    out_dims, coords = _output_coordinates(membership.shape, spacing, new_spacing)
    ndim = membership.ndim
    taps = [_axis_taps(c, n, 1) for c, n in zip(coords, membership.shape)]
    corners = [membership.T]
    for axis, (idx, _) in enumerate(taps):
        corners = [np.take(c, idx[:, k], axis=ndim - 1 - axis) for c in corners for k in (0, 1)]
    fraction = np.zeros(out_dims[::-1])
    for combo, inside in zip(itertools.product((0, 1), repeat=ndim), corners):
        weight = 1.0
        for axis, k in enumerate(combo):
            weight = weight * _along(taps[axis][1][:, k], ndim - 1 - axis, ndim)
        np.add(fraction, weight, out=fraction, where=inside)
    return fraction.T


def resample_mask_per_tap(membership, spacing, new_spacing, threshold: float) -> np.ndarray:
    """Resampled membership: the per-tap partial volume at or above ``threshold``."""
    return partial_volume_per_tap(membership, spacing, new_spacing) >= threshold
