"""Convolution tests: oracle equivalence, fixtures, algebraic properties."""

import numpy as np
import pytest

from voxfilt.boundary import BOUNDARY_MODES
from voxfilt.convolve import (
    centred_to_dft,
    convolve_fourier,
    convolve_full,
    convolve_separable,
    dft_to_centred,
    fourier_grid,
    kernel_to_transfer,
)

from oracles import conv_brute, conv_taploop


def test_oracles_agree_with_each_other():
    # the fast tap-loop oracle must reproduce the per-voxel brute force
    rng = np.random.default_rng(0)
    img = rng.normal(size=(6, 5))
    ker = rng.normal(size=(3, 3))
    for mode in BOUNDARY_MODES:
        np.testing.assert_allclose(conv_taploop(img, ker, mode, 1.5),
                                   conv_brute(img, ker, mode, 1.5), rtol=1e-13)


class TestConvolveFull:
    def test_impulse_replica(self):
        img = np.zeros((9, 9, 9))
        img[4, 4, 4] = 255.0
        rng = np.random.default_rng(1)
        ker = rng.normal(size=(3, 3, 3))
        out = convolve_full(img, ker, "constant", via="spatial")
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
        out = convolve_full(img, ker, mode, constant=0.7, via="spatial")
        ref = conv_taploop(img, ker, mode, constant=0.7)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("mode", BOUNDARY_MODES)
    def test_against_brute_force_2d(self, mode):
        rng = np.random.default_rng(3)
        img = rng.normal(size=(11, 8))
        ker = rng.normal(size=(5, 3))
        np.testing.assert_allclose(convolve_full(img, ker, mode, via="spatial"),
                                   conv_taploop(img, ker, mode), rtol=1e-12)

    def test_fourier_route_matches_spatial(self):
        rng = np.random.default_rng(4)
        img = rng.normal(size=(12, 10))
        ker = rng.normal(size=(5, 5))
        for mode in BOUNDARY_MODES:
            a = convolve_full(img, ker, mode, via="spatial")
            b = convolve_full(img, ker, mode, via="fourier")
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

    def test_bad_via(self):
        with pytest.raises(ValueError):
            convolve_full(np.zeros((4, 4)), np.ones((3, 3)), "mirror", via="warp")

    def test_complex_kernel(self):
        rng = np.random.default_rng(6)
        img = rng.normal(size=(8, 8))
        ker = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        out = convolve_full(img, ker, "mirror", via="spatial")
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
        got = convolve_separable(img, gs, mode, constant=0.3)
        ref = convolve_full(img, dense, mode, constant=0.3, via="spatial")
        np.testing.assert_allclose(got, ref, atol=1e-10)

    @pytest.mark.parametrize("mode", BOUNDARY_MODES)
    def test_matches_dense_3d(self, mode):
        rng = np.random.default_rng(8)
        img = rng.normal(size=(9, 8, 7))
        gs = [rng.normal(size=m) for m in (3, 5, 2)]
        dense = np.multiply.outer(np.multiply.outer(gs[0], gs[1]), gs[2])
        np.testing.assert_allclose(convolve_separable(img, gs, mode),
                                   convolve_full(img, dense, mode, via="spatial"), atol=1e-10)
        # the summation order must not depend on the input's memory layout
        fortran = np.asfortranarray(img)
        assert convolve_separable(fortran, gs, mode).tobytes() == \
            convolve_separable(img, gs, mode).tobytes()
        assert convolve_full(fortran, dense, mode, via="spatial").tobytes() == \
            convolve_full(img, dense, mode, via="spatial").tobytes()

    def test_identity_kernel(self):
        rng = np.random.default_rng(9)
        img = rng.normal(size=(6, 6))
        np.testing.assert_array_equal(convolve_separable(img, [[1.0], [1.0]], "mirror"), img)

    def test_axis_count_mismatch(self):
        with pytest.raises(ValueError):
            convolve_separable(np.zeros((4, 4)), [[1.0]], "mirror")

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
        b = convolve_full(img, ker, "periodise", via="spatial")
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
        corner = dft_to_centred(norm)[0, 0]
        np.testing.assert_allclose(corner, np.pi * np.sqrt(2.0), rtol=1e-14)
        assert corner > np.pi

    def test_reindex_round_trip(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(6, 7))
        np.testing.assert_array_equal(centred_to_dft(dft_to_centred(a)), a)

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
                                       convolve_full(img, dense, "mirror", via="spatial"),
                                       atol=1e-10)
