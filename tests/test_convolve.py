"""Convolution tests: oracle equivalence, fixtures, algebraic properties."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from voxfilt.boundary import BOUNDARY_MODES
from voxfilt.convolve import (
    TransferCache,
    _fast_length,
    convolve_bank,
    convolve_fourier,
    convolve_full,
    convolve_laplacian,
    convolve_separable,
    fast_grid,
    fft_forward,
    fft_inverse,
    fourier_grid,
    half_shape,
    kernel_to_transfer,
    laplacian_passes,
)
import voxfilt.convolve
from voxfilt.kernels import GaborParams, gabor_kernel, log_kernel, log_kernel_1d

from dispatch import digests_at_dispatch_levels
from oracles import conv_brute, conv_taploop, whole_volume_laplacian, whole_volume_separable


def test_oracles_agree_with_each_other():
    # the fast tap-loop oracle must reproduce the per-voxel brute force
    rng = np.random.default_rng(0)
    img = rng.normal(size=(6, 5))
    ker = rng.normal(size=(3, 3))
    for mode in BOUNDARY_MODES:
        np.testing.assert_allclose(conv_taploop(img, ker, mode),
                                   conv_brute(img, ker, mode), rtol=1e-13)


class TestConvolveFull:
    def test_impulse_replica(self):
        img = np.zeros((9, 9, 9))
        img[4, 4, 4] = 255.0
        rng = np.random.default_rng(1)
        ker = rng.normal(size=(3, 3, 3))
        out = convolve_full(img, ker, "constant")
        np.testing.assert_array_equal(out[3:6, 3:6, 3:6], ker * 255.0)
        assert out[0, 0, 0] == 0.0

    def test_constant_image_mean_kernel(self):
        img = np.full((7, 7), 4.25)
        ker = np.full((3, 3), 1.0 / 9.0)
        out = convolve_full(img, ker, "nearest")
        np.testing.assert_allclose(out, 4.25, rtol=1e-14)

    @pytest.mark.parametrize("mode", BOUNDARY_MODES)
    def test_against_brute_force_3d(self, mode):
        rng = np.random.default_rng(2)
        img = rng.normal(size=(16, 16, 16))
        ker = rng.normal(size=(3, 3, 3))
        out = convolve_full(img, ker, mode)
        ref = conv_taploop(img, ker, mode)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("mode", BOUNDARY_MODES)
    def test_against_brute_force_2d(self, mode):
        rng = np.random.default_rng(3)
        img = rng.normal(size=(11, 8))
        ker = rng.normal(size=(5, 3))
        np.testing.assert_allclose(convolve_full(img, ker, mode),
                                   conv_taploop(img, ker, mode), rtol=1e-12)

    def test_fourier_route_matches_spatial(self):
        rng = np.random.default_rng(4)
        img = rng.normal(size=(12, 10))
        ker = rng.normal(size=(5, 5))
        for mode in BOUNDARY_MODES:
            a = convolve_full(img, ker, mode)
            (b,) = convolve_bank(img, [ker], mode)
            np.testing.assert_allclose(a, b, atol=1e-11)

    def test_kernel_larger_than_image(self):
        # total index maps keep folding, no error
        rng = np.random.default_rng(5)
        img = rng.normal(size=(3, 3))
        ker = rng.normal(size=(7, 7))
        np.testing.assert_allclose(convolve_full(img, ker, "mirror"),
                                   conv_taploop(img, ker, "mirror"), rtol=1e-12)

    def test_nan_kernel_rejected(self):
        with pytest.raises(ValueError):
            convolve_full(np.zeros((4, 4)), np.array([[np.nan]]), "mirror")

    def test_complex_kernel(self):
        rng = np.random.default_rng(6)
        img = rng.normal(size=(8, 8))
        ker = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        out = convolve_full(img, ker, "mirror")
        assert np.iscomplexobj(out)
        np.testing.assert_allclose(out, conv_taploop(img, ker, "mirror"), rtol=1e-12)


class TestConvolveSeparable:
    def test_smoother_outer_product(self):
        g = np.array([1.0, 2.0, 1.0]) / np.sqrt(6.0)
        dense = np.outer(g, g)
        np.testing.assert_allclose(dense, np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]) / 6.0,
                                   rtol=1e-15)
        rng = np.random.default_rng(7)
        img = rng.normal(size=(10, 9))
        np.testing.assert_allclose(convolve_separable(img, [g, g], "mirror"),
                                   convolve_full(img, dense, "mirror"), atol=1e-12)

    @pytest.mark.parametrize("mode", BOUNDARY_MODES)
    @pytest.mark.parametrize("sizes", [(3, 3), (5, 3), (1, 5), (2, 4), (2, 3)])
    def test_matches_dense_2d(self, mode, sizes):
        # even kernel widths use the same centre rule M // 2
        rng = np.random.default_rng(hash(sizes) % 2**32)
        img = rng.normal(size=(13, 11))
        gs = [rng.normal(size=m) for m in sizes]
        dense = np.multiply.outer(gs[0], gs[1])
        got = convolve_separable(img, gs, mode)
        ref = convolve_full(img, dense, mode)
        np.testing.assert_allclose(got, ref, atol=1e-10)

    @pytest.mark.parametrize("mode", BOUNDARY_MODES)
    def test_matches_dense_3d(self, mode):
        rng = np.random.default_rng(8)
        img = rng.normal(size=(9, 8, 7))
        gs = [rng.normal(size=m) for m in (3, 5, 2)]
        dense = np.multiply.outer(np.multiply.outer(gs[0], gs[1]), gs[2])
        np.testing.assert_allclose(convolve_separable(img, gs, mode),
                                   convolve_full(img, dense, mode), atol=1e-10)
        # the summation order must not depend on the input's memory layout
        fortran = np.asfortranarray(img)
        assert convolve_separable(fortran, gs, mode).tobytes() == \
            convolve_separable(img, gs, mode).tobytes()
        assert convolve_full(fortran, dense, mode).tobytes() == \
            convolve_full(img, dense, mode).tobytes()

    def test_identity_kernel(self):
        rng = np.random.default_rng(9)
        img = rng.normal(size=(6, 6))
        np.testing.assert_array_equal(convolve_separable(img, [[1.0], [1.0]], "mirror"), img)

    def test_axis_count_mismatch(self):
        # fewer kernels than axes filter the trailing axes; more cannot fit
        with pytest.raises(ValueError):
            convolve_separable(np.zeros((4, 4)), [[1.0]] * 3, "mirror")
        with pytest.raises(ValueError):
            convolve_separable(np.zeros((4, 4)), [], "mirror")

    def test_pass_order_commutes(self):
        rng = np.random.default_rng(10)
        img = rng.normal(size=(12, 12))
        g1, g2 = rng.normal(size=5), rng.normal(size=3)
        a = convolve_separable(img, [g1, g2], "periodise")
        b = convolve_separable(convolve_separable(img, [g2, [1.0]], "periodise"),
                               [[1.0], [1.0]], "periodise")
        # apply g2 along k1 then g1 along... instead check direct swap identity:
        c = convolve_separable(convolve_separable(img, [[1.0], g2], "periodise"),
                               [g1, [1.0]], "periodise")
        d = convolve_separable(convolve_separable(img, [g1, [1.0]], "periodise"),
                               [[1.0], g2], "periodise")
        np.testing.assert_allclose(c, d, atol=1e-10)
        np.testing.assert_allclose(a, c, atol=1e-10)


class TestConvolveLaplacian:
    """The LoG's separable sum against its dense kernel on the spatial route."""

    @pytest.mark.parametrize("cutoff", [3.0, 4.0])
    @pytest.mark.parametrize("sigma", [0.7, 1.5, 2.5])
    @pytest.mark.parametrize("shape", [(11, 9, 7), (5, 14, 9), (13, 7), (9, 5)])
    @pytest.mark.parametrize("mode, fill",
                             [(m, 0.0) for m in BOUNDARY_MODES] + [("constant", 0.7)])
    def test_matches_dense_kernel(self, mode, fill, shape, sigma, cutoff):
        # odd, non-cubic shapes; with sigma 1.5 and cutoff 4 (M = 13, margin
        # 6) the 5-voxel axes are shorter than the margin.  The image is
        # lowered by ``fill``, so the zero halo steps up from it by ``fill``.
        image = np.random.default_rng(len(shape) + int(10 * sigma)).normal(size=shape) * 100
        image -= fill
        smooth, second = log_kernel_1d(sigma, cutoff)
        got = convolve_laplacian(image, smooth, second, mode)
        want = convolve_full(image, log_kernel(sigma, len(shape), cutoff), mode)
        assert got.shape == shape and got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("ndim, passes", [(1, 1), (2, 4), (3, 7)])
    def test_runs_3d_minus_2_passes_from_one_pad(self, monkeypatch, ndim, passes):
        calls = {"pad": 0, "pass": 0}
        originals = voxfilt.convolve.pad, voxfilt.convolve.axis_pass

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(voxfilt.convolve, "pad", counted("pad", originals[0]))
        monkeypatch.setattr(voxfilt.convolve, "axis_pass", counted("pass", originals[1]))
        smooth, second = log_kernel_1d(1.0)
        convolve_laplacian(np.ones((6, 5, 4)[:ndim]), smooth, second, "mirror")
        assert calls == {"pad": 1, "pass": passes} and laplacian_passes(ndim) == passes

    def test_factors_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            convolve_laplacian(np.zeros((6, 6)), np.ones(3), np.ones(5), "mirror")


class TestSlabEngine:
    """The slab engine against the whole-volume passes it replaced, bit for bit."""

    # (dims, taps, filtered axes); a 2-D image's leading axis is a batch
    @pytest.mark.parametrize("dims, taps, ndim", [
        ((12, 10, 9), 9, 3),
        ((3, 10, 11), 13, 3),
        ((10, 3, 11), 9, 3),
        ((11, 7, 6), 4, 3),
        ((40, 30, 30), 13, 3),
        ((5, 12, 10), 5, 2),
        ((4, 3, 9), 13, 2),
        ((1, 2, 1), 5, 3),
        ((6, 7, 1), 9, 3),
        ((3, 5, 1), 4, 2),
    ], ids=["halo-wider-than-slab", "halo-wider-than-axis", "halo-wider-than-later-axis",
            "even-taps", "two-default-slabs", "2d-batch-stack", "2d-batch-narrow-axis",
            "length-one-axes", "length-one-last-axis", "2d-length-one-last-axis"])
    @pytest.mark.parametrize("planes", [1, 2, None], ids=["1-plane", "2-planes", "default"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("mode", BOUNDARY_MODES)
    def test_matches_the_whole_volume_passes(self, dims, taps, ndim, planes, order, mode,
                                             monkeypatch):
        rng = np.random.default_rng(sum(dims) + taps)
        image = np.asarray(rng.normal(size=dims), order=order)
        kernels = [rng.normal(size=taps) for _ in range(ndim)]
        complex_kernels = [g + 1j * rng.normal(size=taps) for g in kernels]
        smooth, second = rng.normal(size=(2, taps))
        if planes is not None:
            plane = math.prod(dims[len(dims) - ndim + 1:])  # the filtered axes' voxels
            monkeypatch.setattr(voxfilt.convolve, "_SLAB_VOXELS", planes * plane)
        for g in (kernels, complex_kernels):
            assert convolve_separable(image, g, mode).tobytes() == \
                whole_volume_separable(image, g, mode).tobytes()
        assert convolve_laplacian(image, smooth, second, mode, ndim).tobytes() == \
            whole_volume_laplacian(image, smooth, second, mode, ndim).tobytes()

    def test_default_slabs_cut_the_volume(self):
        # the two-default-slabs case above must take more than one slab
        assert voxfilt.convolve._SLAB_VOXELS // (30 * 30) < 40


class TestConvolvePlanes:
    @pytest.mark.parametrize("mode", BOUNDARY_MODES)
    @pytest.mark.parametrize("shape", [(5, 5), (4, 6)], ids=["odd", "even"])
    def test_matches_per_plane_oracle(self, mode, shape):
        rng = np.random.default_rng(31)
        kernels = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2)]
        for plane in rng.normal(size=(3, 7, 6)):
            responses = list(convolve_bank(plane, kernels, mode))
            assert len(responses) == 2
            for kernel, response in zip(kernels, responses):
                want = conv_taploop(plane, kernel, mode)
                assert response.shape == plane.shape
                np.testing.assert_allclose(response, want, rtol=1e-12, atol=1e-12)


class TestConvolveBank:
    @pytest.mark.parametrize("mode", BOUNDARY_MODES)
    @pytest.mark.parametrize("shape", [(3, 5, 3), (4, 2, 6)], ids=["odd", "even"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_tap_loop_3d(self, mode, shape, kind):
        rng = np.random.default_rng(32)
        image = rng.normal(size=(7, 6, 8))
        kernels = [rng.normal(size=shape) for _ in range(2)]
        if kind == "complex":
            kernels = [k + 1j * rng.normal(size=shape) for k in kernels]
        responses = list(convolve_bank(image, kernels, mode))
        for kernel, response in zip(kernels, responses):
            assert np.iscomplexobj(response) == (kind == "complex")
            want = conv_taploop(image, kernel, mode)
            np.testing.assert_allclose(response, want, rtol=1e-12, atol=1e-12)

    def test_kernels_of_different_shapes_rejected(self):
        with pytest.raises(ValueError, match="share one shape"):
            list(convolve_bank(np.zeros((6, 6)), [np.ones((3, 3)), np.ones((3, 5))], "mirror"))

    def test_banks_sharing_a_cache_keep_their_own_transfers(self):
        # two banks with one kernel shape give one FFT grid; each must still
        # meet its own transfers when both go through one cache
        from voxfilt.kernels import log_kernel

        image = np.random.default_rng(35).normal(size=(20, 20))
        cache = TransferCache()
        (first,) = convolve_bank(image, [log_kernel(1.0, 2)], "mirror", transfers=cache)
        (second,) = convolve_bank(image, [2 * log_kernel(1.0, 2)], "mirror", transfers=cache)
        np.testing.assert_allclose(second, 2 * first, rtol=1e-12, atol=1e-12)

    def test_shared_cache_builds_once_per_grid_across_threads(self, monkeypatch):
        built = []
        original = voxfilt.convolve.kernel_to_transfer

        def counting(kernel, grid):
            built.append(tuple(grid))
            return original(kernel, grid)

        monkeypatch.setattr(voxfilt.convolve, "kernel_to_transfer", counting)
        rng = np.random.default_rng(34)
        kernels = [rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) for _ in range(3)]
        planes = [rng.normal(size=shape) for shape in ((8, 9), (11, 7)) * 6]
        cache = TransferCache()
        results = [None] * len(planes)

        def worker(index):
            results[index] = list(convolve_bank(planes[index], kernels, "mirror",
                                                transfers=cache))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(planes))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        # 8x9 and 11x7 padded by 2 give 12x13 -> 12x15 and 15x11 -> 15x12
        assert sorted(built) == [(12, 15)] * 3 + [(15, 12)] * 3
        for plane, got in zip(planes, results):
            uncached = list(convolve_bank(plane, kernels, "mirror"))
            assert [r.tobytes() for r in got] == [r.tobytes() for r in uncached]


def _rolled_transfer(kernel, grid):
    """A kernel's transfer built by zero-filling the grid and rolling it."""
    buf = np.zeros(grid, dtype=kernel.dtype)
    buf[tuple(slice(0, m) for m in kernel.shape)] = kernel
    buf = np.roll(buf, [-(m // 2) for m in kernel.shape], axis=range(kernel.ndim))
    return fft_forward(buf, grid, real=not np.iscomplexobj(kernel))


class TestConvolveBankBytes:
    """The bank's in-place steps keep the bytes of the plain product chain."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_out_of_place_chain(self, kind):
        rng = np.random.default_rng(36)
        image = rng.normal(size=(13, 10, 9)) * 100
        kernels = [rng.normal(size=(5, 3, 7)) for _ in range(3)]
        if kind == "complex":
            kernels = [k + 1j * rng.normal(size=k.shape) for k in kernels]
        real = kind == "real"
        padded = voxfilt.convolve.pad(image, [2, 1, 3], "nearest")
        grid = fast_grid(padded.shape)
        spectrum = fft_forward(padded, grid, real)
        crop = (slice(2, 15), slice(1, 11), slice(3, 12))
        for kernel, got in zip(kernels, convolve_bank(image, kernels, "nearest")):
            transfer = _rolled_transfer(kernel, grid)
            assert kernel_to_transfer(kernel, grid).tobytes() == transfer.tobytes()
            want = fft_inverse(spectrum * transfer, grid, crop, real)
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    def test_peak_memory(self):
        # one 13^3 LoG kernel at 56^3: 12.2x the float64 input with the padded
        # block held, a rolled transfer and an out-of-place product; 8.2x
        # without (bound: that plus 10%)
        image = np.random.default_rng(37).normal(size=(56, 56, 56))
        kernel = log_kernel(1.5, 3)
        list(convolve_bank(image, [kernel], "mirror"))
        tracemalloc.start()
        try:
            (out,) = convolve_bank(image, [kernel], "mirror")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9.0 * image.nbytes, peak / image.nbytes


class TestFFTHelper:
    def test_fast_length_matches_brute_force(self):
        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        for n in range(1, 1001):
            want = next(k for k in range(n, 2 * n + 1) if smooth(k))
            assert _fast_length(n) == want, n
        assert fast_grid((94, 68, 1)) == (96, 72, 1)

    @pytest.mark.parametrize("dims,widths", [
        ((20, 17), (5, 4)), ((9, 12, 10), (3, 6, 5)),
    ], ids=["2d", "3d"])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_pruned_inverse_is_full_inverse_cropped(self, dims, widths, real):
        # crops as a convolution with odd and even kernel widths keeps them
        rng = np.random.default_rng(41)
        crop = tuple(slice(m // 2, n - m // 2) for m, n in zip(widths, dims))
        block = rng.normal(size=dims)
        if real:
            spectrum = np.fft.rfftn(block)
            full = np.fft.irfftn(spectrum, s=dims, axes=range(len(dims)))
        else:
            spectrum = np.fft.fftn(block + 1j * rng.normal(size=dims))
            full = np.fft.ifftn(spectrum)
        # fft_inverse takes over its spectrum, so the first call gets a copy
        np.testing.assert_array_equal(fft_inverse(spectrum.copy(), dims, crop, real),
                                      full[crop])
        np.testing.assert_array_equal(fft_inverse(spectrum, dims, real=real), full)

    def test_forward_zero_fills_to_the_grid(self):
        rng = np.random.default_rng(42)
        block = rng.normal(size=(7, 9))
        filled = np.zeros((8, 10))
        filled[:7, :9] = block
        np.testing.assert_array_equal(fft_forward(block, (8, 10)), np.fft.fftn(filled))
        real = fft_forward(block, (8, 10), real=True)
        assert real.shape == half_shape((8, 10)) == (8, 6)
        np.testing.assert_array_equal(real, np.fft.rfftn(filled))

    def test_gabor_slice_on_fast_grid_matches_spatial(self):
        # a 64^2 slice padded by a 31^2 kernel's margin is 94^2, transformed on 96^2
        rng = np.random.default_rng(43)
        plane = rng.normal(size=(64, 64))
        kernel = gabor_kernel(GaborParams(sigma=2.5, wavelength=2.0, gamma=1.5, theta=0.4))
        assert kernel.shape == (31, 31)
        assert fast_grid(np.add(plane.shape, 30)) == (96, 96)
        (response,) = convolve_bank(plane, [kernel], "mirror")
        spatial = convolve_full(plane, kernel, "mirror")
        assert response.shape == plane.shape
        assert np.max(np.abs(response - spatial)) <= 1e-13 * np.max(np.abs(spatial))

    def test_real_kernel_transfer_is_the_half_spectrum(self):
        rng = np.random.default_rng(44)
        kernel = rng.normal(size=(3, 4))
        half = kernel_to_transfer(kernel, (8, 9))
        full = kernel_to_transfer(kernel.astype(complex), (8, 9))
        assert half.shape == (8, 5) and full.shape == (8, 9)
        np.testing.assert_allclose(half, full[:, :5], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dims", [(9, 8), (6, 7, 10), (5, 2), (4, 1)])
    def test_half_transfer_matches_full_transfer(self, dims):
        rng = np.random.default_rng(45)
        img = rng.normal(size=dims)
        kernel = rng.normal(size=tuple(min(3, n) for n in dims))
        full = kernel_to_transfer(kernel.astype(complex), dims)
        np.testing.assert_allclose(convolve_fourier(img, kernel_to_transfer(kernel, dims)),
                                   convolve_fourier(img, full), rtol=0, atol=1e-13)


def test_transfer_cache_builds_each_key_once_across_threads():
    cache = TransferCache()
    built = []
    seen = [[] for _ in range(8)]

    def build(key):
        built.append(key)
        return object()

    def worker(index):
        for i in range(300):
            key = (index + i) % 3
            seen[index].append((key, cache.get(key, lambda: build(key))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(built) == [0, 1, 2]
    first = {key: value for key, value in seen[0]}
    assert all(first[key] is value for pairs in seen for key, value in pairs)


_FFT_PROBE = """
import hashlib
import numpy as np
from voxfilt.convolve import fast_grid, fft_forward, fft_inverse
digest = hashlib.sha256()
rng = np.random.default_rng(46)
for dims, widths in (((94, 94), (31, 31)), ((72, 72), (61, 61)), ((23, 18, 20), (7, 6, 7))):
    block = rng.normal(size=dims)
    grid = fast_grid(dims)
    crop = tuple(slice(m // 2, n - m // 2) for m, n in zip(widths, dims))
    spectrum = fft_forward(block, grid)
    half = fft_forward(block, grid, real=True)
    for out in (spectrum, fft_inverse(spectrum.copy(), grid, crop), half,
                fft_inverse(half.copy(), grid, crop, real=True),
                fft_inverse(half.copy(), grid, real=True)):
        digest.update(out.tobytes())
print(digest.hexdigest())
"""


def test_fft_helper_does_not_depend_on_simd_dispatch():
    # forward, pruned-inverse and real transforms of the helper; the numpy
    # build's pocketfft SIMD code cannot be switched from a process here
    results = digests_at_dispatch_levels(_FFT_PROBE)
    assert {digest for _, digest in results} == {results[0][1]}, results


class TestConvolveFourier:
    def test_all_pass_identity(self):
        rng = np.random.default_rng(11)
        img = rng.normal(size=(8, 8, 8))
        out = convolve_fourier(img, np.ones((8, 8, 8), dtype=complex))
        np.testing.assert_allclose(out, img, atol=1e-10)

    def test_zero_transfer(self):
        img = np.ones((6, 6))
        np.testing.assert_allclose(convolve_fourier(img, np.zeros((6, 6))), 0.0, atol=1e-15)

    def test_matches_spatial_periodise(self):
        rng = np.random.default_rng(12)
        img = rng.normal(size=(32, 32, 32))
        ker = rng.normal(size=(5, 5, 5))
        transfer = kernel_to_transfer(ker, img.shape)
        a = convolve_fourier(img, transfer)
        b = convolve_full(img, ker, "periodise")
        assert np.max(np.abs(a - b)) < 1e-8

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            convolve_fourier(np.zeros((4, 4)), np.zeros((5, 5)))

    def test_non_symmetric_transfer_gives_modulus(self):
        # a pure one-sided frequency shift is not conjugate-symmetric; the
        # result is still the real part of the inverse DFT, never a modulus
        transfer = np.zeros((8, 8), dtype=complex)
        transfer[1, 0] = 1.0
        rng = np.random.default_rng(13)
        img = rng.normal(size=(8, 8))
        out = convolve_fourier(img, transfer)
        np.testing.assert_array_equal(out, np.fft.ifftn(np.fft.fftn(img) * transfer).real)


class TestFourierGrid:
    def test_n8_samples(self):
        axes, _ = fourier_grid((8,))
        expected = np.array([-np.pi + i * np.pi / 4 for i in range(8)])
        np.testing.assert_allclose(np.sort(axes[0].ravel()), expected, atol=1e-14)
        assert axes[0].ravel()[0] == 0.0  # DFT order

    def test_n1(self):
        axes, norm = fourier_grid((1,))
        assert axes[0].ravel()[0] == 0.0
        assert norm.ravel()[0] == 0.0

    def test_corner_norm_exceeds_nyquist(self):
        _, norm = fourier_grid((8, 8))
        corner = np.fft.fftshift(norm)[0, 0]
        np.testing.assert_allclose(corner, np.pi * np.sqrt(2.0), rtol=1e-14)
        assert corner > np.pi

    def test_reindex_round_trip(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(6, 7))
        np.testing.assert_array_equal(np.fft.ifftshift(np.fft.fftshift(a)), a)

    def test_step(self):
        axes, _ = fourier_grid((10, 4))
        vals = np.sort(axes[1].ravel())
        np.testing.assert_allclose(np.diff(vals), 2 * np.pi / 4, atol=1e-14)


class TestAlgebraicProperties:
    def test_linearity(self):
        rng = np.random.default_rng(15)
        f, g = rng.normal(size=(10, 10)), rng.normal(size=(10, 10))
        ker = rng.normal(size=(3, 3))
        lhs = convolve_full(2.0 * f + 3.0 * g, ker, "mirror")
        rhs = 2.0 * convolve_full(f, ker, "mirror") + 3.0 * convolve_full(g, ker, "mirror")
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_translation_equivariance_periodise(self):
        rng = np.random.default_rng(16)
        f = rng.normal(size=(12, 12))
        ker = rng.normal(size=(5, 3))
        shift = (3, 5)
        a = convolve_full(np.roll(f, shift, axis=(0, 1)), ker, "periodise")
        b = np.roll(convolve_full(f, ker, "periodise"), shift, axis=(0, 1))
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_separable_equals_full_many_random(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            dims = tuple(rng.integers(4, 17, size=2))
            sizes = tuple(rng.integers(1, 6, size=2))
            img = rng.normal(size=dims)
            gs = [rng.normal(size=m) for m in sizes]
            dense = np.multiply.outer(gs[0], gs[1])
            np.testing.assert_allclose(convolve_separable(img, gs, "mirror"),
                                       convolve_full(img, dense, "mirror"),
                                       atol=1e-10)
