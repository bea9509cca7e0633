import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import voxfilt.convolve
import voxfilt.riesz
from voxfilt.convolve import convolve_fourier, convolve_separable, fourier_grid
from voxfilt.pipeline import FilterConfig, plan_filter
from voxfilt.riesz import (
    align_order2,
    multinomial_coefficient,
    riesz_filtered_map,
    riesz_filtered_maps,
    riesz_indices,
    riesz_transfer,
    structure_tensor,
)
from voxfilt.wavelets import RadialProfile, radial_transfer

from dispatch import digests_at_dispatch_levels
from oracles import euler_matrix, rotate_grid


def _steer_brute(responses, tensors):
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
            u = v[:, -1]
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
        assert len(idx) == math.comb(2 + 3 - 1, 3 - 1) == 6
        assert idx[0] == (2, 0, 0)
        assert set(idx) == {
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)
        }

    def test_order2_2d_has_three(self):
        assert riesz_indices(2, 2) == ((2, 0), (1, 1), (0, 2))

    @pytest.mark.parametrize("order,ndim", [(1, 2), (1, 3), (3, 2), (4, 3)])
    def test_count_formula(self, order, ndim):
        # (L+D-1 choose D-1) distinct operators of a given order
        assert len(riesz_indices(order, ndim)) == math.comb(order + ndim - 1, ndim - 1)

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

    @pytest.mark.parametrize("bad", [(0.9, 1.2), (True, 1), (1, "1")])
    def test_fractional_or_bool_entries_rejected(self, bad):
        # int() would read (0.9, 1.2) as (0, 1) and True as 1
        with pytest.raises(ValueError, match="must be an integer"):
            riesz_transfer((8, 8), bad)


def fourier_derivative(image, axis, order):
    """Spectral derivative along one axis: fourier_grid's frequencies give the
    transfer (j nu_axis)^order, which convolve_fourier applies."""
    axes, _ = fourier_grid(image.shape)
    return convolve_fourier(image, np.broadcast_to((1j * axes[axis]) ** order, image.shape))


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
        pairs = list(riesz_filtered_maps(image, profile, indices))
        assert tuple(l for l, _ in pairs) == indices
        for l, m in pairs:
            assert m.tobytes() == riesz_filtered_map(image, profile, l).tobytes()

    @pytest.mark.parametrize("dims", [(9, 8), (7, 6, 8)])
    def test_each_run_of_one_order_shares_one_grid(self, monkeypatch, dims):
        # orders 1, 2, 1: three runs, so three grids, each dropped after its
        # run's last transfer, and every map the bytes of its own transfer's
        built = []
        norm_power = voxfilt.riesz._norm_power

        def counted(*args):
            grid = norm_power(*args)
            built.append(weakref.ref(grid[1]))
            return grid

        monkeypatch.setattr(voxfilt.riesz, "_norm_power", counted)
        image = np.random.default_rng(35).normal(size=dims)
        profile = RadialProfile("simoncelli", 1)
        first, second = riesz_indices(1, len(dims)), riesz_indices(2, len(dims))
        pairs = riesz_filtered_maps(image, profile, first + second + first[:1])
        maps = [next(pairs) for _ in first]
        assert len(built) == 1 and built[0]() is None
        maps += list(pairs)
        assert len(built) == 3 and all(ref() is None for ref in built)
        monkeypatch.setattr(voxfilt.riesz, "_norm_power", norm_power)
        for l, m in maps:
            assert m.tobytes() == riesz_filtered_map(image, profile, l).tobytes(), l

    def test_each_map_owns_its_data(self):
        image = np.random.default_rng(32).normal(size=(6, 7, 8))
        indices = riesz_indices(2, 3) + riesz_indices(1, 3)
        pairs = list(riesz_filtered_maps(image, RadialProfile("simoncelli", 1), indices))
        assert tuple(l for l, _ in pairs) == indices
        for l, m in pairs:
            assert m.dtype == np.float64
            assert m.flags.owndata and m.base is None, l

    def test_keys_are_integer_tuples(self):
        pairs = riesz_filtered_maps(np.zeros((8, 8)), RadialProfile("shannon", 1), [[1.0, 1]])
        assert [l for l, _ in pairs] == [(1, 1)]

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError, match="one entry per image axis"):
            riesz_filtered_maps(np.zeros((8, 8)), RadialProfile("shannon", 1), [(2, 0, 0)])

    def test_each_inverse_runs_when_its_pair_is_taken(self, monkeypatch):
        inverses = []
        inverse = voxfilt.riesz.fft_inverse
        monkeypatch.setattr(voxfilt.riesz, "fft_inverse",
                            lambda *args, **kwargs: inverses.append(1) or inverse(*args, **kwargs))
        image = np.random.default_rng(34).normal(size=(6, 7, 8))
        pairs = riesz_filtered_maps(image, RadialProfile("simoncelli", 1), riesz_indices(2, 3))
        assert inverses == []
        next(pairs)
        assert len(inverses) == 1
        assert len(list(pairs)) == 5 and len(inverses) == 6

    @pytest.mark.parametrize("kind", ["shannon", "simoncelli"])
    def test_half_spectrum_matches_full_spectrum(self, kind):
        # 56 is even on a leading axis, so its Nyquist plane is in play; the
        # full-spectrum reference is the real part of the complex inverse
        dims = (55, 56, 57)
        image = np.random.default_rng(33).normal(size=dims)
        profile = RadialProfile(kind, 1)
        indices = riesz_indices(1, 3) + riesz_indices(2, 3)
        band = np.fft.fftn(image) * radial_transfer(profile, dims)
        for l, m in riesz_filtered_maps(image, profile, indices):
            ref = np.fft.ifftn(band * riesz_transfer(dims, l)).real
            assert np.max(np.abs(m - ref)) <= 1e-13 * np.max(np.abs(ref)), l

    def test_half_grid_transfers_are_the_full_ones_cut(self):
        for dims in ((8, 9), (7, 6, 10)):
            h = dims[-1] // 2 + 1
            for l in riesz_indices(1, len(dims)) + riesz_indices(3, len(dims)):
                np.testing.assert_array_equal(riesz_transfer(dims, l, half=True),
                                              riesz_transfer(dims, l)[..., :h])
            profile = RadialProfile("simoncelli", 1)
            np.testing.assert_array_equal(radial_transfer(profile, dims, half=True),
                                          radial_transfer(profile, dims)[..., :h])


def _gradients(image, profile):
    return [m for _, m in riesz_filtered_maps(image, profile, riesz_indices(1, image.ndim))]


def _pack(full):
    """Full symmetric tensors dims + (D, D) as structure_tensor's packed
    components: the upper triangle, row by row, each a new dims array."""
    rows, cols = np.triu_indices(full.shape[-1])
    return [np.ascontiguousarray(full[..., i, j]) for i, j in zip(rows, cols)]


def _unpack(components, ndim):
    full = np.empty(components[0].shape + (ndim, ndim))
    for component, i, j in zip(components, *np.triu_indices(ndim)):
        full[..., i, j] = full[..., j, i] = component
    return full


class TestStructureTensor:
    def test_constant_image_zero_tensors(self):
        gradients = _gradients(np.full((8, 8), 5.0), RadialProfile("shannon", 1))
        tensors = structure_tensor(gradients, 1.0)
        np.testing.assert_allclose(tensors, 0.0, atol=1e-12)
        assert [t.shape for t in tensors] == [(8, 8)] * 3

    def test_stores_each_distinct_product_once(self):
        rng = np.random.default_rng(9)
        gradients = [rng.normal(size=(6, 5, 4)) for _ in range(3)]
        window = (voxfilt.riesz.gaussian_kernel_1d(1.0),) * 3
        want = [convolve_separable(gradients[i] * gradients[j], window, "periodise")
                for i, j in zip(*np.triu_indices(3))]
        tensors = structure_tensor(gradients, 1.0)
        assert [t.shape for t in tensors] == [(6, 5, 4)] * 6
        for got, smoothed in zip(tensors, want):
            assert got.flags.c_contiguous and got.tobytes() == smoothed.tobytes()

    def test_single_axis_variation(self):
        n = 16
        wave = np.sin(2 * math.pi * 6 * np.arange(n) / n)
        image = wave[:, None, None] * np.ones((1, n, n))
        t = _unpack(structure_tensor(_gradients(image, RadialProfile("shannon", 1)), 1.0), 3)
        trace = np.trace(t, axis1=-2, axis2=-1)
        peak = trace.max()
        assert peak > 0
        for i in range(3):
            for j in range(3):
                if (i, j) != (0, 0):
                    assert np.max(np.abs(t[..., i, j])) < 1e-6 * peak

    # (dims, filtered axes, slab planes): 9 taps (sigma 1) have a halo of 4
    # planes; a 2-D stack's leading axis is a batch.  The components are
    # smoothed in place, slab by slab, by convolve_separable's engine
    @pytest.mark.parametrize("dims, ndim, planes", [
        ((12, 10, 9), 3, 1),
        ((3, 10, 11), 3, 1),
        ((10, 3, 11), 3, 2),
        ((11, 7, 6), 3, 4),
        ((5, 12, 10), 2, 3),
        ((4, 3, 9), 2, 2),
    ], ids=["halo-wider-than-slab", "halo-wider-than-axis", "halo-wider-than-later-axis",
            "short-last-slab", "2d-batch-stack", "2d-batch-narrow-axis"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_slab_smoothing_is_the_whole_volume_call(self, dims, ndim, planes, order,
                                                     monkeypatch):
        rng = np.random.default_rng(sum(dims) + planes)
        gradients = [np.asarray(rng.normal(size=dims), order=order) for _ in range(ndim)]
        window = (voxfilt.riesz.gaussian_kernel_1d(1.0),) * ndim
        assert window[0].shape == (9,)
        want = [convolve_separable(gradients[i] * gradients[j], window, "periodise")
                for i, j in zip(*np.triu_indices(ndim))]
        plane = math.prod(dims[len(dims) - ndim + 1:])  # the filtered axes' voxels
        monkeypatch.setattr(voxfilt.convolve, "_SLAB_VOXELS", planes * plane)
        got = structure_tensor(gradients, 1.0)
        assert [t.tobytes() for t in got] == [t.tobytes() for t in want]

    @pytest.mark.parametrize("dims, ndim", [((6, 7, 1), 3), ((3, 9, 1), 2)],
                             ids=["3d", "2d-batch"])
    def test_length_one_last_axis_is_the_whole_volume_call(self, dims, ndim):
        # a halo taken per pass left the last axis unpadded, and einsum then
        # summed the axis before it as the contiguous one
        rng = np.random.default_rng(sum(dims))
        gradients = [rng.normal(size=dims) for _ in range(ndim)]
        window = (voxfilt.riesz.gaussian_kernel_1d(1.0),) * ndim
        want = [convolve_separable(gradients[i] * gradients[j], window, "periodise")
                for i, j in zip(*np.triu_indices(ndim))]
        got = structure_tensor(gradients, 1.0)
        assert [t.tobytes() for t in got] == [t.tobytes() for t in want]

    def test_a_map_given_twice_is_squared_once(self):
        g = np.random.default_rng(10).normal(size=(9, 8))
        want = convolve_separable(g * g, (voxfilt.riesz.gaussian_kernel_1d(1.0),) * 2,
                                  "periodise")
        for t in structure_tensor([g, g], 1.0):
            assert t.tobytes() == want.tobytes()

    def test_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        image = rng.normal(size=(12, 12))
        t = _unpack(structure_tensor(_gradients(image, RadialProfile("simoncelli", 1)), 1.5), 2)
        eigenvalues = np.linalg.eigvalsh(t)
        assert eigenvalues.min() >= -1e-8 * max(eigenvalues.max(), 1e-300)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            structure_tensor([np.zeros((8, 8))] * 2, 0.0)

    @pytest.mark.parametrize("count", [1, 3])
    def test_one_gradient_per_axis(self, count):
        with pytest.raises(ValueError, match="one gradient map per axis"):
            structure_tensor([np.zeros((8, 8))] * count, 1.0)


def _constant_tensor_field(dims, u):
    u = np.asarray(u, dtype=np.float64)
    t = np.multiply.outer(u, u)
    return _pack(np.broadcast_to(t, dims + t.shape))


class TestAlignOrder2:
    def test_a_component_given_twice_is_overwritten_once(self):
        # the direction is written over the first two components in 2-D
        rng = np.random.default_rng(11)
        responses = [(l, rng.normal(size=(6, 5))) for l in riesz_indices(2, 2)]
        t = rng.normal(size=(6, 5))
        want = align_order2(responses, [t.copy(), t.copy(), t.copy()])
        assert align_order2(responses, [t, t, t]).tobytes() == want.tobytes()

    def test_axis_aligned_steering_picks_component(self):
        dims = (5, 6)
        rng = np.random.default_rng(1)
        responses = {l: rng.normal(size=dims) for l in riesz_indices(2, 2)}
        along_k2 = align_order2(responses.items(), _constant_tensor_field(dims, (0.0, 1.0)))
        np.testing.assert_allclose(along_k2, responses[(0, 2)], atol=1e-12)
        along_k1 = align_order2(responses.items(), _constant_tensor_field(dims, (1.0, 0.0)))
        np.testing.assert_allclose(along_k1, responses[(2, 0)], atol=1e-12)

    def test_isotropic_tensor_falls_back_to_k1(self):
        dims = (4, 4)
        rng = np.random.default_rng(2)
        responses = {l: rng.normal(size=dims) for l in riesz_indices(2, 2)}
        out = align_order2(responses.items(), _pack(np.broadcast_to(np.eye(2), dims + (2, 2))))
        np.testing.assert_allclose(out, responses[(2, 0)], atol=1e-12)

    def test_diagonal_steering_mixture(self):
        dims = (3, 3)
        rng = np.random.default_rng(3)
        responses = {l: rng.normal(size=dims) for l in riesz_indices(2, 2)}
        root_half = 1.0 / math.sqrt(2.0)
        out = align_order2(responses.items(), _constant_tensor_field(dims, (root_half, root_half)))
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
        got = align_order2(responses.items(), _pack(tensors))
        np.testing.assert_allclose(got, _steer_brute(responses, tensors), rtol=0, atol=1e-10)

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
            responses.items(), _constant_tensor_field((n, n), (root_half, root_half))
        )
        np.testing.assert_allclose(along, -wave, rtol=0, atol=1e-9)
        across = align_order2(
            responses.items(), _constant_tensor_field((n, n), (root_half, -root_half))
        )
        np.testing.assert_allclose(across, 0.0, atol=1e-9)

    def test_incomplete_set_rejected(self):
        dims = (4, 4)
        responses = {(2, 0): np.zeros(dims), (0, 2): np.zeros(dims)}
        with pytest.raises(ValueError, match="incomplete"):
            align_order2(responses.items(), _constant_tensor_field(dims, (1.0, 0.0)))

    def test_unexpected_index_rejected(self):
        dims = (4, 4)
        responses = {l: np.zeros(dims) for l in riesz_indices(2, 2)}
        responses[(3, 0)] = np.zeros(dims)
        with pytest.raises(ValueError, match="unexpected"):
            align_order2(responses.items(), _constant_tensor_field(dims, (1.0, 0.0)))

    # each case's message names the offending index
    @pytest.mark.parametrize("indices, message", [
        (((2.5, -0.5), (1, 1), (0, 2)), r"\(2\.5, -0\.5\) entry must be an integer"),
        (((1, 1), (2, 0), (0, 2)), r"out of order: got \(1, 1\)"),
        (((2, 0), (1, 1)), r"incomplete, missing \[\(0, 2\)\]"),
        (((2, 0), (1, 1), (0, 2), (0, 2)), r"unexpected response index \(0, 2\)"),
    ], ids=["non-integral", "out-of-order", "missing", "extra"])
    def test_bad_pair_rejected(self, indices, message):
        with pytest.raises(ValueError, match=message):
            align_order2([(l, np.zeros((4, 4))) for l in indices],
                         _constant_tensor_field((4, 4), (1.0, 0.0)))

    def test_dim_mismatch_rejected(self):
        responses = {l: np.zeros((4, 4)) for l in riesz_indices(2, 2)}
        with pytest.raises(ValueError, match="dims"):
            align_order2(responses.items(), _constant_tensor_field((5, 5), (1.0, 0.0)))

    def test_one_dimensional_field_rejected(self):
        # volumes are 2-D or 3-D, so no filter plan aligns a 1-D field
        response = np.random.default_rng(5).normal(size=7)
        with pytest.raises(ValueError, match="1-D"):
            align_order2([((2,), response)], _pack(np.full((7, 1, 1), 3.0)))

    def test_more_than_three_axes_rejected(self):
        responses = {l: np.zeros((2,) * 4) for l in riesz_indices(2, 4)}
        with pytest.raises(ValueError, match="4-D"):
            align_order2(responses.items(), _pack(np.zeros((2,) * 4 + (4, 4))))

    # each component's shape: 4 components are the upper triangle of no
    # square tensor, and the components of one tensor field share one grid
    @pytest.mark.parametrize("shape", [[(4, 4)] * 4, [(4, 4), (4, 4), (4, 5)]])
    def test_non_square_tensors_rejected(self, shape):
        responses = {l: np.zeros((4, 4)) for l in riesz_indices(2, 2)}
        with pytest.raises(ValueError, match="D\\(D\\+1\\)/2 components of one shape"):
            align_order2(responses.items(), [np.zeros(s) for s in shape])

    def test_unpacked_tensors_rejected(self):
        responses = {l: np.zeros((4, 4)) for l in riesz_indices(2, 2)}
        with pytest.raises(ValueError, match="packed tensors"):
            align_order2(responses.items(), np.zeros((4, 4, 2, 2)))


def _repeated_top_tensors():
    """Exact tensors with eigenvalues (2, 2, 1): diag(2, 2, 1) and
    2I - w w'/2 for w = (1, 1, 0), under every axis permutation and sign flip."""
    bases = (np.diag([2.0, 2.0, 1.0]),
             np.array([[1.5, -0.5, 0.0], [-0.5, 1.5, 0.0], [0.0, 0.0, 2.0]]))
    for base in bases:
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                turn = np.eye(3)[list(perm)] * np.array(signs)[:, None]
                yield turn @ base @ turn.T


def _documented_pick(t):
    """The documented rule: r x e_k for the largest row r of T - 2I (first on
    ties) and the axis k of r's smallest-magnitude entry (first on ties)."""
    rows = t - 2.0 * np.eye(3)
    r = rows[int(np.argmax(np.sum(rows * rows, axis=1)))]
    return np.cross(r, np.eye(3)[int(np.argmin(np.abs(r)))])


class TestRepeatedTopEigenvalue:
    def test_pick_follows_the_documented_rule(self):
        tensors = np.array(list(_repeated_top_tensors()))  # 96 exact tensors
        responses = {l: np.random.default_rng(6).normal(size=len(tensors))
                     for l in riesz_indices(2, 3)}
        got = align_order2(responses.items(), _pack(tensors))
        for k, t in enumerate(tensors):
            u = _documented_pick(t)
            np.testing.assert_array_equal(t @ u, 2.0 * u)  # a top eigenvector
            assert np.any(u != 0.0)
            want = sum(multinomial_coefficient(l) * np.prod(u ** np.array(l)) * responses[l][k]
                       for l in riesz_indices(2, 3)) / (u @ u)
            assert got[k] == pytest.approx(want, rel=1e-14, abs=1e-14), t

    def test_diag_221_steers_along_the_second_axis(self):
        responses = {l: np.random.default_rng(7).normal(size=(3, 2)) for l in riesz_indices(2, 3)}
        out = align_order2(responses.items(),
                           _pack(np.broadcast_to(np.diag([2.0, 2.0, 1.0]), (3, 2, 3, 3))))
        assert out.tobytes() == responses[(0, 2, 0)].tobytes()


def _psd_field(dims, ndim, seed):
    rng = np.random.default_rng(seed)
    responses = {l: rng.normal(size=dims) for l in riesz_indices(2, ndim)}
    g = rng.normal(size=dims + (ndim, ndim))
    return responses, np.einsum("...ij,...kj->...ik", g, g)


class TestAgainstEigenSolver:
    # measured max |got - ref| / max |ref|: 4.7e-16 (128^2) and 6.0e-15 (24^3)
    @pytest.mark.parametrize("dims", [(128, 128), (24, 24, 24)])
    def test_matches_eigh_oracle_within_recorded_bound(self, dims):
        responses, tensors = _psd_field(dims, len(dims), 40)
        got = align_order2(responses.items(), _pack(tensors))
        ref = _steer_brute(responses, tensors)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dims", [(37, 41), (13, 11, 9)])
    def test_bytes_do_not_depend_on_block_size(self, dims, monkeypatch):
        # align_order2 overwrites its components, so each call packs anew
        responses, tensors = _psd_field(dims, len(dims), 41)
        whole = align_order2(responses.items(), _pack(tensors))
        assert math.prod(dims) % 100 and math.prod(dims) < voxfilt.riesz._BLOCK_VOXELS
        monkeypatch.setattr(voxfilt.riesz, "_BLOCK_VOXELS", 100)
        assert align_order2(responses.items(), _pack(tensors)).tobytes() == whole.tobytes()

def _aligned_map(image):
    filt = FilterConfig("riesz", {"wavelet": "simoncelli", "level": 1, "l": [2, 0, 0],
                                  "align": True, "sigma_tensor_mm": 2.0})
    return plan_filter(filt, (2.0, 2.0, 2.0), "3d", "periodise").run(image)


def test_aligned_op_peak_memory():
    # the 11.B op (maps -> tensor -> align) at 56^3 spans several alignment
    # blocks; with whole-field eigh the peak was 48.0x the float64 input,
    # with full D x D tensors 23.2x, with packed tensors 20.2x, with the
    # order-2 maps folded as they stream from the spectrum 16.4x, with
    # direction blocks of 8192 voxels 13.9x, with the tensor products
    # smoothed in place and the steering folded in place 11.7x, with the
    # squares in the gradients' memory, the components smoothed slab by
    # slab in place, the direction written over them and the steering
    # folded in blocks 8.24x, with each slab padded on every filtered axis
    # by convolve_separable's engine 8.26x (bound: 8.24x plus under 10%)
    image = np.random.default_rng(42).normal(size=(56, 56, 56))
    filt = FilterConfig("riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0],
                                  "align": True, "sigma_tensor_mm": 1.0})
    plan = plan_filter(filt, (1.0, 1.0, 1.0), "3d", "periodise")
    assert image.size > 5 * voxfilt.riesz._BLOCK_VOXELS
    tracemalloc.start()
    try:
        plan.run(image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.0 * image.nbytes, peak / image.nbytes


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
        reference = _aligned_map(shell)
        scale = np.max(np.abs(reference))
        interior = (slice(3, n - 3),) * 3
        for quarters in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 2, 1)]:
            mat = euler_matrix(quarters)
            turned = _aligned_map(rotate_grid(shell, mat))
            back = rotate_grid(turned, mat.T)
            diff = np.max(np.abs(back[interior] - reference[interior]))
            assert diff <= 1e-3 * scale


_TRANSFER_PROBE = """
import hashlib
import numpy as np
from voxfilt.riesz import riesz_transfer
digest = hashlib.sha256()
for dims, l in (((12, 10, 9), (3, 0, 0)), ((12, 10, 9), (1, 2, 1)),
                ((12, 10, 9), (0, 4, 0)), ((14, 11), (2, 1))):
    digest.update(riesz_transfer(dims, l).tobytes())
print(digest.hexdigest())
"""


def test_transfer_does_not_depend_on_simd_dispatch():
    # orders 3 and 4: numpy's real ** rounds differently per SIMD level
    results = digests_at_dispatch_levels(_TRANSFER_PROBE)
    assert {digest for _, digest in results} == {results[0][1]}, results


_ALIGNED_PROBE = """
import hashlib
import numpy as np
from voxfilt.riesz import align_order2, riesz_indices, structure_tensor
digest = hashlib.sha256()
rng = np.random.default_rng(12)
for dims in ((128, 96), (14, 13, 9)):
    gradients = [rng.normal(size=dims) for _ in dims]
    responses = [(l, rng.normal(size=dims)) for l in riesz_indices(2, len(dims))]
    digest.update(align_order2(responses, structure_tensor(gradients, 1.0)).tobytes())
print(digest.hexdigest())
"""


def test_alignment_does_not_depend_on_dispatch_or_blas_core():
    # tensor and steering of the aligned op on a seeded slice and volume (the
    # band-pass before them still takes log2, which depends on the dispatch
    # level).  A LAPACK eigen-solver's bytes change with the OpenBLAS core
    # type; the closed-form and Newton directions use no BLAS or LAPACK.
    results = digests_at_dispatch_levels(_ALIGNED_PROBE, core_types=True)
    assert len(results) == 9
    assert {digest for _, digest in results} == {results[0][1]}, results
