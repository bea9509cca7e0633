import math

import numpy as np
import pytest

from voxfilt.convolve import fourier_grid
from voxfilt.riesz import (
    StructureTensorField,
    align_order2,
    fourier_derivative,
    multinomial_coefficient,
    riesz_filtered_map,
    riesz_filtered_maps,
    riesz_index_count,
    riesz_indices,
    riesz_transfer,
    structure_tensor,
)
from voxfilt.wavelets import RadialProfile

from oracles import euler_matrix, rotate_grid


def _steer_brute(responses, tensors, select="largest"):
    """Per-voxel python reimplementation of the alignment rule."""
    dims = tensors.shape[:-2]
    ndim = tensors.shape[-1]
    out = np.zeros(dims)
    for idx in np.ndindex(*dims):
        t = tensors[idx]
        dev = t - np.trace(t) / ndim * np.eye(ndim)
        if np.linalg.norm(dev) <= 1e-8 * max(np.linalg.norm(t), 1e-300):
            u = np.zeros(ndim)
            u[0] = 1.0
        else:
            _, v = np.linalg.eigh(t)
            u = v[:, -1] if select == "largest" else v[:, 0]
        acc = 0.0
        for l in riesz_indices(2, ndim):
            denom = 1
            for p in l:
                denom *= math.factorial(p)
            coeff = math.sqrt(2.0 / denom)
            term = coeff
            for i, p in enumerate(l):
                term *= u[i] ** p
            acc += term * responses[l][idx]
        out[idx] = acc
    return out


class TestIndices:
    def test_order2_3d_has_six(self):
        idx = riesz_indices(2, 3)
        assert len(idx) == riesz_index_count(2, 3) == 6
        assert idx[0] == (2, 0, 0)
        assert set(idx) == {
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)
        }

    def test_order2_2d_has_three(self):
        assert riesz_indices(2, 2) == ((2, 0), (1, 1), (0, 2))

    @pytest.mark.parametrize("order,ndim", [(1, 2), (1, 3), (3, 2), (4, 3)])
    def test_count_formula(self, order, ndim):
        assert len(riesz_indices(order, ndim)) == riesz_index_count(order, ndim)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            riesz_indices(0, 3)

    def test_multinomial_coefficient(self):
        assert multinomial_coefficient((2, 0)) == pytest.approx(1.0)
        assert multinomial_coefficient((1, 1)) == pytest.approx(math.sqrt(2.0))
        assert multinomial_coefficient((1, 1, 0)) == pytest.approx(math.sqrt(2.0))


class TestRieszTransfer:
    def test_explicit_second_order_formula(self):
        dims = (8, 8, 8)
        axes, norm = fourier_grid(dims)
        t = riesz_transfer(dims, (0, 2, 0))
        with np.errstate(invalid="ignore"):
            want = -(axes[1] ** 2) * np.ones(dims) / norm**2
        want[0, 0, 0] = 0.0
        np.testing.assert_allclose(t, want, rtol=0, atol=1e-14)

    def test_first_order_all_pass(self):
        dims = (12, 10)
        total = np.zeros(dims)
        for axis in range(2):
            unit = tuple(1 if i == axis else 0 for i in range(2))
            total += np.abs(riesz_transfer(dims, unit)) ** 2
        _, norm = fourier_grid(dims)
        np.testing.assert_allclose(total[norm > 0], 1.0, rtol=0, atol=1e-12)
        assert total[0, 0] == 0.0

    def test_origin_zero(self):
        assert riesz_transfer((6, 6), (1, 1))[0, 0] == 0.0

    @pytest.mark.parametrize("l", [(1, 0), (2, 1), (0, 3)])
    def test_magnitude_bounded_by_coefficient(self, l):
        t = riesz_transfer((16, 16), l)
        assert np.max(np.abs(t)) <= multinomial_coefficient(l) + 1e-12

    def test_even_order_transfer_is_real(self):
        t = riesz_transfer((8, 8), (1, 1))
        np.testing.assert_allclose(t.imag, 0.0, atol=1e-15)

    @pytest.mark.parametrize("bad", [(0, 0), (1,), (-1, 2), (1, 1, 1)])
    def test_invalid_indices(self, bad):
        with pytest.raises(ValueError):
            riesz_transfer((8, 8), bad)


class TestFourierDerivative:
    def test_constant_derivative_zero(self):
        out = fourier_derivative(np.full((16, 16), 4.0), 0, 1)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_single_bin_sine(self):
        n = 32
        k = np.arange(n)
        nu = 2.0 * math.pi * 3.0 / n
        image = np.sin(nu * k)[:, None] * np.ones((1, n))
        got = fourier_derivative(image, 0, 1)
        want = nu * np.cos(nu * k)[:, None] * np.ones((1, n))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_orthogonal_axis_untouched(self):
        n = 16
        image = np.sin(2 * math.pi * 2 * np.arange(n) / n)[:, None] * np.ones((1, n))
        out = fourier_derivative(image, 1, 1)
        np.testing.assert_allclose(out, 0.0, atol=1e-10)

    def test_second_equals_first_twice(self):
        # Odd size: no Nyquist bin, so composing real-valued passes is lossless.
        rng = np.random.default_rng(0)
        image = rng.normal(size=(15, 15))
        once = fourier_derivative(fourier_derivative(image, 0, 1), 0, 1)
        twice = fourier_derivative(image, 0, 2)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            fourier_derivative(np.zeros((4, 4)), 2, 1)
        with pytest.raises(ValueError):
            fourier_derivative(np.zeros((4, 4)), 0, 0)


class TestRieszFilteredMap:
    def test_zero_image(self):
        out = riesz_filtered_map(np.zeros((8, 8)), RadialProfile("simoncelli", 1), (1, 1))
        np.testing.assert_array_equal(out, 0.0)
        assert out.dtype == np.float64

    def test_linear_in_image(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(12, 12))
        g = rng.normal(size=(12, 12))
        profile = RadialProfile("simoncelli", 1)
        lhs = riesz_filtered_map(2.0 * f - 3.0 * g, profile, (0, 2))
        rhs = (
            2.0 * riesz_filtered_map(f, profile, (0, 2))
            - 3.0 * riesz_filtered_map(g, profile, (0, 2))
        )
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_axis_swap_transposes(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(10, 10))
        profile = RadialProfile("shannon", 1)
        a = riesz_filtered_map(f.T, profile, (0, 2))
        b = riesz_filtered_map(f, profile, (2, 0))
        np.testing.assert_allclose(a, b.T, rtol=0, atol=1e-12)

    def test_plane_wave_oracle(self):
        # A single-bin wave makes the whole chain analytic: the response
        # must be -(u . nu)^2 / ||nu||^2 times the in-band wave.
        n = 16
        k = np.arange(n)
        nu0 = 2.0 * math.pi * 6.0 / n  # 3pi/4, inside (pi/2, pi]
        wave = np.sin(nu0 * k)[:, None] * np.ones((1, n))
        profile = RadialProfile("shannon", 1)
        h20 = riesz_filtered_map(wave, profile, (2, 0))
        h11 = riesz_filtered_map(wave, profile, (1, 1))
        h02 = riesz_filtered_map(wave, profile, (0, 2))
        np.testing.assert_allclose(h20, -wave, rtol=0, atol=1e-10)
        np.testing.assert_allclose(h11, 0.0, atol=1e-10)
        np.testing.assert_allclose(h02, 0.0, atol=1e-10)


class TestRieszFilteredMaps:
    @pytest.mark.parametrize("dims", [(9, 8), (7, 6, 8)])
    def test_each_map_matches_single_map(self, dims):
        image = np.random.default_rng(31).normal(size=dims)
        profile = RadialProfile("simoncelli", 1)
        indices = riesz_indices(2, len(dims))
        maps = riesz_filtered_maps(image, profile, indices)
        assert tuple(maps) == indices
        for l in indices:
            assert maps[l].tobytes() == riesz_filtered_map(image, profile, l).tobytes()

    def test_keys_are_integer_tuples(self):
        maps = riesz_filtered_maps(np.zeros((8, 8)), RadialProfile("shannon", 1), [[1.0, 1]])
        assert list(maps) == [(1, 1)]

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError, match="one entry per image axis"):
            riesz_filtered_maps(np.zeros((8, 8)), RadialProfile("shannon", 1), [(2, 0, 0)])


class TestStructureTensor:
    def test_constant_image_zero_tensors(self):
        field = structure_tensor(
            np.full((8, 8), 5.0), RadialProfile("shannon", 1), 1.0, 1.0
        )
        np.testing.assert_allclose(field.tensors, 0.0, atol=1e-12)
        assert field.dims == (8, 8)
        assert field.ndim == 2

    def test_single_axis_variation(self):
        n = 16
        wave = np.sin(2 * math.pi * 6 * np.arange(n) / n)
        image = wave[:, None, None] * np.ones((1, n, n))
        field = structure_tensor(image, RadialProfile("shannon", 1), 2.0, 2.0)
        t = field.tensors
        trace = np.trace(t, axis1=-2, axis2=-1)
        peak = trace.max()
        assert peak > 0
        for i in range(3):
            for j in range(3):
                if (i, j) != (0, 0):
                    assert np.max(np.abs(t[..., i, j])) < 1e-6 * peak

    def test_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        image = rng.normal(size=(12, 12))
        field = structure_tensor(image, RadialProfile("simoncelli", 1), 1.5, 1.0)
        t = field.tensors
        np.testing.assert_array_equal(t, np.swapaxes(t, -1, -2))
        eigenvalues = np.linalg.eigvalsh(t)
        assert eigenvalues.min() >= -1e-8 * max(eigenvalues.max(), 1e-300)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            structure_tensor(np.zeros((8, 8)), RadialProfile("shannon", 1), 0.0, 1.0)


def _constant_tensor_field(dims, u):
    u = np.asarray(u, dtype=np.float64)
    t = np.multiply.outer(u, u)
    tensors = np.broadcast_to(t, dims + t.shape).copy()
    return StructureTensorField(tensors=tensors, sigma_mm=1.0)


class TestAlignOrder2:
    def test_axis_aligned_steering_picks_component(self):
        dims = (5, 6)
        rng = np.random.default_rng(1)
        responses = {l: rng.normal(size=dims) for l in riesz_indices(2, 2)}
        along_k2 = align_order2(responses, _constant_tensor_field(dims, (0.0, 1.0)))
        np.testing.assert_allclose(along_k2, responses[(0, 2)], atol=1e-12)
        along_k1 = align_order2(responses, _constant_tensor_field(dims, (1.0, 0.0)))
        np.testing.assert_allclose(along_k1, responses[(2, 0)], atol=1e-12)

    def test_isotropic_tensor_falls_back_to_k1(self):
        dims = (4, 4)
        rng = np.random.default_rng(2)
        responses = {l: rng.normal(size=dims) for l in riesz_indices(2, 2)}
        tensors = np.broadcast_to(np.eye(2), dims + (2, 2)).copy()
        field = StructureTensorField(tensors=tensors, sigma_mm=1.0)
        out = align_order2(responses, field)
        np.testing.assert_allclose(out, responses[(2, 0)], atol=1e-12)

    def test_diagonal_steering_mixture(self):
        dims = (3, 3)
        rng = np.random.default_rng(3)
        responses = {l: rng.normal(size=dims) for l in riesz_indices(2, 2)}
        root_half = 1.0 / math.sqrt(2.0)
        out = align_order2(responses, _constant_tensor_field(dims, (root_half, root_half)))
        want = 0.5 * responses[(2, 0)] + root_half * responses[(1, 1)] + 0.5 * responses[(0, 2)]
        # sqrt(2) * u1 * u2 = sqrt(2)/2 on the cross term
        np.testing.assert_allclose(out, want, atol=1e-12)

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_matches_per_voxel_oracle(self, ndim):
        rng = np.random.default_rng(4)
        dims = (4, 5) if ndim == 2 else (3, 4, 3)
        responses = {l: rng.normal(size=dims) for l in riesz_indices(2, ndim)}
        g = rng.normal(size=dims + (ndim, ndim))
        tensors = g @ np.swapaxes(g, -1, -2)
        field = StructureTensorField(tensors=tensors, sigma_mm=1.0)
        for select in ("largest", "smallest"):
            got = align_order2(responses, field, select=select)
            want = _steer_brute(responses, tensors, select=select)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_plane_wave_steered_value(self):
        # Diagonal wave: steering along the wave vector reproduces the
        # full (negated) band response; steering across it gives zero.
        n = 16
        k1 = np.arange(n)[:, None]
        k2 = np.arange(n)[None, :]
        nu0 = 2.0 * math.pi * 3.0 / n
        wave = np.sin(nu0 * (k1 + k2))
        profile = RadialProfile("shannon", 1)
        responses = {
            l: riesz_filtered_map(wave, profile, l) for l in riesz_indices(2, 2)
        }
        root_half = 1.0 / math.sqrt(2.0)
        along = align_order2(
            responses, _constant_tensor_field((n, n), (root_half, root_half))
        )
        np.testing.assert_allclose(along, -wave, rtol=0, atol=1e-9)
        across = align_order2(
            responses, _constant_tensor_field((n, n), (root_half, -root_half))
        )
        np.testing.assert_allclose(across, 0.0, atol=1e-9)

    def test_incomplete_set_rejected(self):
        dims = (4, 4)
        responses = {(2, 0): np.zeros(dims), (0, 2): np.zeros(dims)}
        with pytest.raises(ValueError, match="incomplete"):
            align_order2(responses, _constant_tensor_field(dims, (1.0, 0.0)))

    def test_unexpected_index_rejected(self):
        dims = (4, 4)
        responses = {l: np.zeros(dims) for l in riesz_indices(2, 2)}
        responses[(3, 0)] = np.zeros(dims)
        with pytest.raises(ValueError, match="unexpected"):
            align_order2(responses, _constant_tensor_field(dims, (1.0, 0.0)))

    def test_dim_mismatch_rejected(self):
        responses = {l: np.zeros((4, 4)) for l in riesz_indices(2, 2)}
        with pytest.raises(ValueError, match="dims"):
            align_order2(responses, _constant_tensor_field((5, 5), (1.0, 0.0)))

    def test_bad_select_rejected(self):
        dims = (4, 4)
        responses = {l: np.zeros(dims) for l in riesz_indices(2, 2)}
        with pytest.raises(ValueError, match="select"):
            align_order2(responses, _constant_tensor_field(dims, (1.0, 0.0)),
                         select="middle")


def _aligned_map(image, profile, sigma_mm, spacing):
    responses = {
        l: riesz_filtered_map(image, profile, l)
        for l in riesz_indices(2, image.ndim)
    }
    field = structure_tensor(image, profile, sigma_mm, spacing)
    return align_order2(responses, field)


class TestAlignedRotationInvariance:
    def test_right_angle_invariance_on_shell(self):
        n = 16
        axis = np.arange(n) - (n - 1) / 2.0
        r = np.sqrt(
            axis[:, None, None] ** 2
            + axis[None, :, None] ** 2
            + axis[None, None, :] ** 2
        )
        shell = np.exp(-((r - 5.0) ** 2) / 4.0)
        profile = RadialProfile("simoncelli", 1)
        reference = _aligned_map(shell, profile, 2.0, 2.0)
        scale = np.max(np.abs(reference))
        interior = (slice(3, n - 3),) * 3
        for quarters in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 2, 1)]:
            mat = euler_matrix(quarters)
            turned = _aligned_map(rotate_grid(shell, mat), profile, 2.0, 2.0)
            back = rotate_grid(turned, mat.T)
            diff = np.max(np.abs(back[interior] - reference[interior]))
            assert diff <= 1e-3 * scale
