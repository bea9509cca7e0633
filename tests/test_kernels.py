"""Kernel builder tests: exact taps, size rules, derived constants."""

import math

import numpy as np
import pytest

from voxfilt.kernels import (
    GaborParams,
    LAWS_NAMES,
    gabor_kernel,
    gabor_response_modulus,
    gaussian_kernel_1d,
    laws_1d,
    laws_energy,
    log_kernel,
    log_kernel_1d,
    mean_kernel_1d,
    truncated_support,
)
from voxfilt.convolve import convolve_full
from voxfilt.pipeline import FilterConfig, plan_filter
from voxfilt.riesz import structure_tensor

from dispatch import digests_at_dispatch_levels


class TestMeanKernel:
    def test_3x3(self):
        k = np.multiply.outer(mean_kernel_1d(3), mean_kernel_1d(3))
        assert k.shape == (3, 3)
        np.testing.assert_allclose(k, 1.0 / 9.0, rtol=1e-15)

    def test_identity(self):
        np.testing.assert_array_equal(mean_kernel_1d(1), np.ones(1))

    def test_5_cubed(self):
        g = mean_kernel_1d(5)
        np.testing.assert_array_equal(g, np.full(5, 1.0 / 5.0))
        k = np.multiply.outer(np.multiply.outer(g, g), g)
        assert k.shape == (5, 5, 5)
        np.testing.assert_allclose(k, 1.0 / 125.0)

    def test_sums_to_one(self):
        for m in (1, 3, 5, 7):
            assert abs(mean_kernel_1d(m).sum() - 1.0) < np.finfo(float).eps * m

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            mean_kernel_1d(4)
        with pytest.raises(ValueError):
            mean_kernel_1d(0)


# the structure-tensor windows of the shipped and benchmarked grids, and more
_GAUSSIAN_SIGMAS = (0.5, 0.8, 1.0, 1.3, 1.5, 2.0, 2.5, 3.7)


class TestGaussianKernel:
    @pytest.mark.parametrize("sigma", _GAUSSIAN_SIGMAS)
    def test_taps_are_math_exp_samples(self, sigma):
        m = truncated_support(sigma, 4.0)
        samples = [math.exp(-(t * t) / (2.0 * sigma**2)) for t in range(-(m // 2), m // 2 + 1)]
        taps = gaussian_kernel_1d(sigma)
        assert taps.tobytes() == (np.array(samples) / np.sum(samples)).tobytes()
        np.testing.assert_array_equal(taps, taps[::-1])
        assert math.isclose(taps.sum(), 1.0, rel_tol=1e-15)


_GAUSSIAN_PROBE = f"""
import hashlib
from voxfilt.kernels import gaussian_kernel_1d
digest = hashlib.sha256()
for sigma in {_GAUSSIAN_SIGMAS!r}:
    digest.update(gaussian_kernel_1d(sigma).tobytes())
print(digest.hexdigest())
"""


def test_gaussian_taps_do_not_depend_on_simd_dispatch():
    # numpy's exp rounds differently per SIMD level; math.exp does not
    results = digests_at_dispatch_levels(_GAUSSIAN_PROBE)
    assert {digest for _, digest in results} == {results[0][1]}, results


class TestWidthCap:
    # twice NIfTI-1's longest axis plus one; past it a builder would fill one
    # Python float per tap (8e9 at sigma 1e9) before anything raised
    def test_support_up_to_the_cap(self):
        assert truncated_support(32767.4 / 4.0, 4.0) == 65535
        with pytest.raises(ValueError, match="gives over 65535 taps"):
            truncated_support(32767.5 / 4.0, 4.0)

    def test_support_beyond_the_cap(self):
        with pytest.raises(ValueError, match="gives over 65535 taps"):
            truncated_support(1e9, 4.0)

    @pytest.mark.parametrize("build", [
        lambda: gaussian_kernel_1d(1e9),
        lambda: log_kernel_1d(1e9),
        lambda: log_kernel(1e9, 3),
        lambda: structure_tensor([np.zeros((4, 4)), np.zeros((4, 4))], 1e9),
        lambda: GaborParams(sigma=1e9, wavelength=2.0).support,
    ], ids=["gaussian_kernel_1d", "log_kernel_1d", "log_kernel", "structure_tensor", "gabor"])
    def test_every_builder_refuses_before_building(self, build):
        with pytest.raises(ValueError, match="gives over 65535 taps"):
            build()


class TestGaborBankLimit:
    # 1 GiB of complex taps: one kernel of 8191^2 fits, one of 8193^2 does
    # not.  numpy's meshgrid, the first volume-sized step, is stubbed, so a
    # missing check fails here instead of allocating.
    @pytest.fixture(autouse=True)
    def no_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the kernel grid was built")
        monkeypatch.setattr(np, "meshgrid", refuse)

    @pytest.mark.parametrize("sigma, gamma", [(1024.0, 1.0), (8000.0, 1.0), (700.0, 1.5)])
    def test_oversized_kernel_is_refused_before_its_grid(self, sigma, gamma):
        params = GaborParams(sigma, 3.0, gamma)
        assert 16 * params.support ** 2 > 1 << 30
        with pytest.raises(ValueError, match=rf"sigma {sigma} and gamma {gamma} give 1 x "
                                             rf"{params.support} x {params.support} complex "
                                             r"taps, .* over the 1024 MiB a Gabor bank"):
            gabor_kernel(params)

    def test_largest_kernel_under_the_limit_reaches_its_grid(self):
        params = GaborParams(1023.7, 3.0)
        assert params.support == 8191
        with pytest.raises(AssertionError, match="grid was built"):
            gabor_kernel(params)


class TestScaleCheck:
    # a NaN compares false with everything, so each check asks for a positive
    # value; a NaN used to reach int() ("cannot convert float NaN to integer")
    # and a negative one gave a negative support
    _SIGMA = "sigma must be positive"
    _CUTOFF = "truncation parameter must be positive"
    _GABOR = "sigma, wavelength and gamma must all be positive"
    _THETA = "theta must be a finite number"

    @pytest.mark.parametrize("build,message", [
        (lambda: truncated_support(math.nan, 4.0), _SIGMA),
        (lambda: truncated_support(0.0, 4.0), _SIGMA),
        (lambda: truncated_support(-1.0, 4.0), _SIGMA),
        (lambda: truncated_support(2.0, math.nan), _CUTOFF),
        (lambda: truncated_support(2.0, 0.0), _CUTOFF),
        (lambda: truncated_support(2.0, -1.0), _CUTOFF),
        (lambda: gaussian_kernel_1d(math.nan), _SIGMA),
        (lambda: gaussian_kernel_1d(2.0, math.nan), _CUTOFF),
        (lambda: log_kernel_1d(math.nan), _SIGMA),
        (lambda: log_kernel_1d(2.0, math.nan), _CUTOFF),
        (lambda: log_kernel(math.nan, 2), _SIGMA),
        (lambda: structure_tensor([np.zeros((4, 4)), np.zeros((4, 4))], math.nan), _SIGMA),
        (lambda: GaborParams(math.nan, 2.0).support, _GABOR),
        (lambda: GaborParams(2.0, math.nan), _GABOR),
        (lambda: GaborParams(2.0, 2.0, gamma=math.nan), _GABOR),
        (lambda: GaborParams(2.0, 0.0), _GABOR),
        (lambda: GaborParams(2.0, 2.0, gamma=-1.0), _GABOR),
        # theta only turns the kernel, but a non-finite one made every tap NaN
        (lambda: GaborParams(2.0, 3.0, theta=math.nan), _THETA),
        (lambda: GaborParams(2.0, 3.0, theta=math.inf), _THETA),
        (lambda: GaborParams(2.0, 3.0, theta=-math.inf), _THETA),
    ], ids=["support-sigma-nan", "support-sigma-zero", "support-sigma-negative",
            "support-cutoff-nan", "support-cutoff-zero", "support-cutoff-negative",
            "gaussian-sigma-nan", "gaussian-cutoff-nan", "log-sigma-nan", "log-cutoff-nan",
            "log-kernel-sigma-nan", "structure-tensor-sigma-nan", "gabor-sigma-nan",
            "gabor-wavelength-nan", "gabor-gamma-nan", "gabor-wavelength-zero",
            "gabor-gamma-negative", "gabor-theta-nan", "gabor-theta-inf",
            "gabor-theta-negative-inf"])
    def test_refused_with_its_name(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestLogKernel:
    def test_size_rule(self):
        assert truncated_support(2.5, 4.0) == 21
        assert log_kernel(2.5, 3).shape == (21, 21, 21)

    def test_centre_tap_sigma1_2d(self):
        k = log_kernel(1.0, 2)
        np.testing.assert_allclose(k[k.shape[0] // 2, k.shape[1] // 2], -1.0 / np.pi, rtol=1e-14)

    @pytest.mark.parametrize("sigma,ndim", [(0.9, 2), (1.0, 2), (2.5, 2), (1.5, 3), (2.5, 3), (3.0, 3)])
    def test_sum_near_zero(self, sigma, ndim):
        # point sampling keeps the residual below 1e-3 for the benchmark
        # scale range; well below sigma ~ 0.9 voxels sampling error dominates
        k = log_kernel(sigma, ndim)
        assert abs(k.sum()) / np.abs(k).sum() < 1e-3

    def test_radial_symmetry(self):
        k = log_kernel(1.5, 3)
        np.testing.assert_array_equal(k, k.transpose(2, 0, 1))
        np.testing.assert_array_equal(k, k[::-1, :, :])
        np.testing.assert_array_equal(k, k[:, ::-1, :])

    def test_odd_size_always(self):
        for sigma in (0.3, 1.1, 2.5, 5.0):
            assert log_kernel(sigma, 2).shape[0] % 2 == 1

    @pytest.mark.parametrize("sigma", [0.7, 1.5, 2.5])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("cutoff", [3.0, 4.0])
    def test_sum_of_outer_products(self, sigma, ndim, cutoff):
        # the dense kernel is the sum over axes of h along the axis and g
        # along the others, and the continuous profile sampled directly
        g, h = log_kernel_1d(sigma, cutoff)
        outer = 0.0
        for axis in range(ndim):
            term = np.ones(())
            for other in range(ndim):
                term = np.multiply.outer(term, h if other == axis else g)
            outer = outer + term
        kernel = log_kernel(sigma, ndim, cutoff)
        scale = np.max(np.abs(kernel))
        assert np.max(np.abs(kernel - outer)) <= 1e-15 * scale
        offsets = np.arange(g.size) - g.size // 2
        r2 = sum(x**2 for x in np.meshgrid(*[offsets] * ndim, indexing="ij", sparse=True))
        profile = (-(ndim - r2 / sigma**2) / sigma**2 * np.exp(-r2 / (2.0 * sigma**2))
                   / (np.sqrt(2.0 * np.pi) * sigma) ** ndim)
        assert np.max(np.abs(kernel - profile)) <= 1e-15 * scale

    def test_factors(self):
        g, h = log_kernel_1d(1.5)
        assert g.shape == h.shape == (13,)
        np.testing.assert_array_equal(g, g[::-1])
        np.testing.assert_array_equal(h, h[::-1])
        assert g[6] == 1.0 / (np.sqrt(2.0 * np.pi) * 1.5)
        assert h[6] == pytest.approx(-g[6] / 1.5**2, rel=1e-15)
        np.testing.assert_allclose(g.sum(), 1.0, rtol=1e-4)  # truncated at 4 sigma

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            log_kernel(0.0, 2)
        with pytest.raises(ValueError):
            log_kernel_1d(-1.0)
        with pytest.raises(ValueError):
            log_kernel(1.0, 2, d=-1.0)


class TestLawsKernels:
    def test_printed_values(self):
        np.testing.assert_allclose(laws_1d("L3"), np.array([1, 2, 1]) / np.sqrt(6), rtol=1e-15)
        np.testing.assert_allclose(laws_1d("L5"), np.array([1, 4, 6, 4, 1]) / np.sqrt(70), rtol=1e-15)
        np.testing.assert_allclose(laws_1d("E3"), np.array([-1, 0, 1]) / np.sqrt(2), rtol=1e-15)
        np.testing.assert_allclose(laws_1d("E5"), np.array([-1, -2, 0, 2, 1]) / np.sqrt(10), rtol=1e-15)
        np.testing.assert_allclose(laws_1d("S3"), np.array([-1, 2, -1]) / np.sqrt(6), rtol=1e-15)
        np.testing.assert_allclose(laws_1d("S5"), np.array([-1, 0, 2, 0, -1]) / np.sqrt(6), rtol=1e-15)
        np.testing.assert_allclose(laws_1d("W5"), np.array([-1, 2, 0, -2, 1]) / np.sqrt(10), rtol=1e-15)
        np.testing.assert_allclose(laws_1d("R5"), np.array([1, -4, 6, -4, 1]) / np.sqrt(70), rtol=1e-15)

    def test_unit_norm(self):
        for name in LAWS_NAMES:
            assert abs(np.linalg.norm(laws_1d(name)) - 1.0) < 1e-12

    def test_zero_sum_texture_kernels(self):
        for name in ("E3", "E5", "S3", "S5", "W5", "R5"):
            assert abs(laws_1d(name).sum()) < 1e-12

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            laws_1d("Q5")


def _laws(image, kernels, boundary):
    """The planned Laws filter without rotation invariance, on the whole image."""
    plan = plan_filter(FilterConfig("laws", {"kernels": kernels}), (1.0,) * np.ndim(image),
                       "3d", boundary)
    return plan.run(image)


class TestLawsResponse:
    def test_impulse_outer_product(self):
        img = np.zeros((11, 11))
        img[5, 5] = 1.0
        out = _laws(img, "L5S5", "constant")
        np.testing.assert_allclose(out[3:8, 3:8], np.outer(laws_1d("L5"), laws_1d("S5")),
                                   atol=1e-15)

    def test_name_order_is_axis_order(self):
        img = np.zeros((11, 11))
        img[5, 5] = 1.0
        a = _laws(img, "L5S5", "constant")
        b = _laws(img, "S5L5", "constant")
        np.testing.assert_allclose(a, b.T, atol=1e-15)
        assert not np.allclose(a, b)

    def test_constant_image_zero_mean_kernel(self):
        img = np.full((8, 8), 3.7)
        out = _laws(img, "E5L5", "mirror")
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_matches_dense_outer_product(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(8, 8, 8))
        dense = np.multiply.outer(np.multiply.outer(laws_1d("L5"), laws_1d("E5")), laws_1d("E5"))
        np.testing.assert_allclose(_laws(img, "L5E5E5", "mirror"),
                                   convolve_full(img, dense, "mirror"), atol=1e-10)

    def test_axis_count_mismatch(self):
        with pytest.raises(ValueError):
            _laws(np.zeros((4, 4)), "L5", "mirror")


class TestLawsEnergy:
    def test_constant_magnitude(self):
        h = np.full((9, 9), -2.5)  # |h| = 2.5
        np.testing.assert_allclose(laws_energy(h, 3, "mirror"), 2.5, rtol=1e-13)

    def test_delta_zero(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(6, 6))
        np.testing.assert_array_equal(laws_energy(h, 0, "mirror"), np.abs(h))

    def test_matches_window_average(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(10, 10))
        delta = 2
        out = laws_energy(h, delta, "periodise")
        padded = np.pad(np.abs(h), delta, "wrap")
        k0 = (4, 7)
        window = padded[k0[0]:k0[0] + 2 * delta + 1, k0[1]:k0[1] + 2 * delta + 1]
        np.testing.assert_allclose(out[k0], window.mean(), rtol=1e-12)

    def test_bounded_by_max(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(12, 12))
        assert laws_energy(h, 4, "mirror").max() <= np.abs(h).max() + 1e-12

    def test_negative_delta(self):
        with pytest.raises(ValueError):
            laws_energy(np.zeros((4, 4)), -1, "mirror")


class TestGabor:
    def test_support_rule(self):
        assert GaborParams(sigma=5.0, wavelength=2.0, gamma=1.5).support == 61
        assert GaborParams(sigma=5.0, wavelength=2.0, gamma=1.0).support == 41
        assert GaborParams(sigma=5.0, wavelength=2.0, gamma=0.5).support == 41

    def test_centre_value(self):
        k = gabor_kernel(GaborParams(sigma=3.0, wavelength=4.0, gamma=1.5, theta=0.0))
        c = k.shape[0] // 2
        assert k[c, c] == 1.0 + 0.0j

    def test_zero_image(self):
        params = GaborParams(sigma=2.0, wavelength=3.0)
        out = gabor_response_modulus(np.zeros((16, 16)), params, "mirror")
        np.testing.assert_array_equal(out, 0.0)

    def test_impulse_gives_modulus_replica(self):
        params = GaborParams(sigma=1.5, wavelength=2.0, theta=0.7)
        img = np.zeros((31, 31))
        img[15, 15] = 2.0
        out = gabor_response_modulus(img, params, "constant")
        k = gabor_kernel(params)
        m = k.shape[0] // 2
        np.testing.assert_allclose(out[15 - m:15 + m + 1, 15 - m:15 + m + 1],
                                   np.abs(k) * 2.0, atol=1e-13)

    def test_conjugate_kernel_same_modulus(self):
        rng = np.random.default_rng(4)
        img = rng.normal(size=(20, 20))
        params = GaborParams(sigma=1.5, wavelength=3.0, gamma=1.2, theta=0.3)
        k = gabor_kernel(params)
        a = np.abs(convolve_full(img, k, "mirror"))
        b = np.abs(convolve_full(img, np.conj(k), "mirror"))
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_proper_rotation_flag_identical_kernel(self):
        # the proper rotation's second row (-sin, cos) only flips the sign of
        # a coordinate that enters squared, so it builds the same kernel
        params = GaborParams(sigma=2.0, wavelength=3.0, gamma=1.4, theta=0.9)
        m = params.support
        offs = np.arange(m) - m // 2
        k1, k2 = np.meshgrid(offs, offs, indexing="ij")
        c, s = np.cos(params.theta), np.sin(params.theta)
        kt1 = c * k1 + s * k2
        kt2 = -s * k1 + c * k2
        envelope = -(kt1**2 + params.gamma**2 * kt2**2) / (2.0 * params.sigma**2)
        proper = np.exp(envelope + 1j * 2.0 * np.pi * kt1 / params.wavelength)
        np.testing.assert_allclose(gabor_kernel(params), proper, atol=1e-15)

    def test_kernel_rotation_convention(self):
        # g_theta(k) equals g_0 evaluated at R_theta k, to fp precision
        theta = 0.73
        params = GaborParams(sigma=2.0, wavelength=4.0, gamma=1.4, theta=theta)
        k = gabor_kernel(params)
        m = k.shape[0] // 2
        offs = np.arange(k.shape[0]) - m
        k1, k2 = np.meshgrid(offs, offs, indexing="ij")
        c, s = np.cos(theta), np.sin(theta)
        kt1, kt2 = c * k1 + s * k2, s * k1 - c * k2
        expected = np.exp(-(kt1**2 + 1.4**2 * kt2**2) / 8.0 + 2j * np.pi * kt1 / 4.0)
        np.testing.assert_allclose(k, expected, atol=1e-14)

    def test_theta_independence_isotropic_input(self):
        # gamma=1: modulus response of a circularly symmetric input does not
        # depend on theta.  Exact (1e-6 and far below) at right angles where
        # the rotation maps the grid onto itself; ~1e-4 at arbitrary theta
        # from sampling the truncated kernel on a rotated lattice.
        n = 65
        x = np.arange(n) - n // 2
        r2 = x[:, None] ** 2 + x[None, :] ** 2
        img = np.exp(-r2 / (2.0 * (n / 6.0) ** 2))
        p0 = GaborParams(sigma=4.0, wavelength=8.0, gamma=1.0, theta=0.0)
        a = gabor_response_modulus(img, p0, "constant")
        for quarter in (1, 2, 3):
            p = GaborParams(sigma=4.0, wavelength=8.0, gamma=1.0, theta=quarter * np.pi / 2)
            b = gabor_response_modulus(img, p, "constant")
            np.testing.assert_allclose(np.rot90(b, quarter), a, atol=1e-6 * a.max())
        p_odd = GaborParams(sigma=4.0, wavelength=8.0, gamma=1.0, theta=0.41)
        c = gabor_response_modulus(img, p_odd, "constant")
        np.testing.assert_allclose(c[n // 2, n // 2], a[n // 2, n // 2], rtol=1e-4)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GaborParams(sigma=0.0, wavelength=1.0)
        with pytest.raises(ValueError):
            GaborParams(sigma=1.0, wavelength=-1.0)
        with pytest.raises(ValueError):
            gabor_response_modulus(np.zeros((4, 4, 4)), GaborParams(sigma=1, wavelength=1), "mirror")
