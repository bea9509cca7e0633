import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import voxfilt.wavelets
from voxfilt.convolve import convolve_separable, fourier_grid
from voxfilt.pipeline import FilterConfig, plan_filter
from voxfilt.wavelets import (
    RadialProfile,
    WAVELET_NAMES,
    atrous_upsample,
    dwt_decimated,
    nonseparable_b_map,
    radial_transfer,
    swt_rotation_pooled,
    swt_undecimated,
    wavelet_family,
)

from oracles import conv_taploop, mallat_pyramid

ROOT2 = math.sqrt(2.0)

# number of vanishing moments per family
_FAMILIES = [("haar", 1), ("db2", 2), ("db3", 3)]


class TestFamilies:
    def test_names(self):
        assert set(WAVELET_NAMES) == {"haar", "db2", "db3"}

    def test_haar_printed_values(self):
        fam = wavelet_family("haar")
        np.testing.assert_array_equal(fam.low_pass, [1 / ROOT2, 1 / ROOT2])
        np.testing.assert_array_equal(fam.high_pass, [-1 / ROOT2, 1 / ROOT2])

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown wavelet"):
            wavelet_family("sym4")

    @pytest.mark.parametrize("name,p", _FAMILIES)
    def test_filter_lengths(self, name, p):
        fam = wavelet_family(name)
        assert fam.low_pass.size == fam.high_pass.size == 2 * p

    @pytest.mark.parametrize("name,p", _FAMILIES)
    def test_low_pass_sum_is_root2(self, name, p):
        assert wavelet_family(name).low_pass.sum() == pytest.approx(ROOT2, abs=1e-12)

    @pytest.mark.parametrize("name,p", _FAMILIES)
    def test_high_pass_zero_mean_unit_norm(self, name, p):
        hi = wavelet_family(name).high_pass
        assert abs(hi.sum()) < 1e-12
        assert np.dot(hi, hi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name,p", _FAMILIES)
    def test_double_shift_orthonormality(self, name, p):
        # These inner products pin the published tap values: any typo in
        # a coefficient breaks them.
        lo = wavelet_family(name).low_pass
        for shift in range(0, lo.size, 2):
            want = 1.0 if shift == 0 else 0.0
            got = np.dot(lo[: lo.size - shift], lo[shift:])
            assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("name,p", _FAMILIES)
    def test_high_pass_vanishing_moments(self, name, p):
        hi = wavelet_family(name).high_pass
        k = np.arange(hi.size, dtype=np.float64)
        for moment in range(p):
            assert abs(np.dot(k**moment, hi)) < 1e-8

    @pytest.mark.parametrize("name,p", _FAMILIES)
    def test_low_high_orthogonal(self, name, p):
        fam = wavelet_family(name)
        assert abs(np.dot(fam.low_pass, fam.high_pass)) < 1e-12


class TestAtrousUpsample:
    def test_haar_high_pass_level_1(self):
        got = atrous_upsample(wavelet_family("haar").high_pass, 1)
        np.testing.assert_array_equal(got, [-1 / ROOT2, 0.0, 1 / ROOT2, 0.0])

    def test_haar_high_pass_level_2(self):
        got = atrous_upsample(wavelet_family("haar").high_pass, 2)
        np.testing.assert_array_equal(
            got, [-1 / ROOT2, 0, 0, 0, 1 / ROOT2, 0, 0, 0]
        )

    def test_level_0_identity(self):
        np.testing.assert_array_equal(atrous_upsample([1.0, 2.0, 3.0], 0), [1, 2, 3])

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            atrous_upsample([1.0, 1.0], -1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            atrous_upsample([], 1)

    @given(
        st.lists(st.floats(-8, 8, allow_nan=False), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=4),
    )
    def test_length_and_tap_placement(self, taps, level):
        g = np.array(taps)
        out = atrous_upsample(g, level)
        step = 2**level
        assert out.size == g.size * step
        np.testing.assert_array_equal(out[::step], g)
        holes = np.ones(out.size, dtype=bool)
        holes[::step] = False
        assert not out[holes].any()


class TestUndecimated:
    def test_level1_is_plain_separable_convolution(self):
        rng = np.random.default_rng(0)
        image = rng.normal(size=(12, 10))
        fam = wavelet_family("db2")
        got = swt_undecimated(image, "db2", 1, "LH", "mirror")
        want = convolve_separable(image, (fam.low_pass, fam.high_pass), "mirror")
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("name,p", _FAMILIES)
    def test_constant_image_all_low_gain(self, name, p):
        image = np.full((8, 8), 3.0)
        got = swt_undecimated(image, name, 1, "LL", "mirror")
        np.testing.assert_allclose(got, np.full((8, 8), 6.0), rtol=0, atol=1e-10)

    def test_constant_3d_all_low_gain(self):
        image = np.full((6, 6, 6), 1.0)
        got = swt_undecimated(image, "haar", 1, "LLL", "periodise")
        np.testing.assert_allclose(got, np.full_like(image, ROOT2**3), atol=1e-10)

    @pytest.mark.parametrize("name,p", _FAMILIES)
    @pytest.mark.parametrize("subband", ["HL", "LH", "HH"])
    def test_constant_image_high_subbands_vanish(self, name, p, subband):
        image = np.full((9, 9), 7.0)
        got = swt_undecimated(image, name, 1, subband, "mirror")
        np.testing.assert_allclose(got, 0.0, atol=1e-12)

    def test_letters_follow_axis_order(self):
        fam = wavelet_family("haar")
        image = np.zeros((8, 8))
        image[4, 4] = 1.0
        lh = swt_undecimated(image, "haar", 1, "LH", "periodise")
        want = convolve_separable(image, (fam.low_pass, fam.high_pass), "periodise")
        np.testing.assert_allclose(lh, want, atol=1e-12)
        hl = swt_undecimated(image, "haar", 1, "HL", "periodise")
        assert not np.allclose(lh, hl)

    @pytest.mark.parametrize("boundary", ["periodise", "mirror", "constant"])
    def test_level2_matches_dilated_cascade_oracle(self, boundary):
        rng = np.random.default_rng(4)
        image = rng.normal(size=(16, 16, 16))
        fam = wavelet_family("haar")
        low0 = fam.low_pass
        dense_low = np.multiply.outer(np.multiply.outer(low0, low0), low0)
        smoothed = conv_taploop(image, dense_low, boundary)
        lo1 = atrous_upsample(fam.low_pass, 1)
        hi1 = atrous_upsample(fam.high_pass, 1)
        dense_lhh = np.multiply.outer(np.multiply.outer(lo1, hi1), hi1)
        want = conv_taploop(smoothed, dense_lhh, boundary)
        got = swt_undecimated(image, "haar", 2, "LHH", boundary)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_output_dims_preserved(self):
        image = np.zeros((7, 9, 11))
        out = swt_undecimated(image, "db3", 2, "HHH", "mirror")
        assert out.shape == (7, 9, 11)

    @pytest.mark.parametrize("subband", ["L", "LHL", "XY", "lq"])
    def test_invalid_subband_rejected(self, subband):
        with pytest.raises(ValueError, match="subband"):
            swt_undecimated(np.zeros((4, 4)), "haar", 1, subband, "mirror")

    def test_level_below_one_rejected(self):
        with pytest.raises(ValueError):
            swt_undecimated(np.zeros((4, 4)), "haar", 0, "LL", "mirror")


_LETTERS_2D = ("LL", "LH", "HL", "HH")


class TestDecimated:
    def test_three_level_shapes(self):
        image = np.zeros((16, 16, 16))
        for level, n in ((1, 8), (2, 4), (3, 2)):
            for combo in itertools.product("LH", repeat=3):
                got = dwt_decimated(image, "haar", level, "".join(combo), "periodise")
                assert got.shape == (n, n, n)

    def test_impulse_even_coordinate_single_hh_coefficient(self):
        image = np.zeros((12, 12))
        image[4, 4] = 255.0
        hh = dwt_decimated(image, "haar", 1, "HH", "periodise")
        nz = np.argwhere(hh != 0)
        assert nz.shape == (1, 2)
        assert abs(hh[tuple(nz[0])]) == pytest.approx(255.0 / 2.0, abs=1e-12)

    def test_constant_image_detail_subbands_vanish(self):
        image = np.full((8, 8), 42.0)
        for level in (1, 2):
            for letters in ("LH", "HL", "HH"):
                sub = dwt_decimated(image, "db2", level, letters, "periodise")
                np.testing.assert_allclose(sub, 0.0, atol=1e-10)

    def test_all_low_feeds_next_level(self):
        rng = np.random.default_rng(9)
        image = rng.normal(size=(16, 16))
        low = dwt_decimated(image, "haar", 1, "LL", "mirror")
        for letters in _LETTERS_2D:
            np.testing.assert_allclose(
                dwt_decimated(image, "haar", 2, letters, "mirror"),
                dwt_decimated(low, "haar", 1, letters, "mirror"),
                atol=1e-12,
            )

    def test_non_divisible_dims_error_hints_padding(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            dwt_decimated(np.zeros((12, 12)), "haar", 3, "LL", "periodise")

    @pytest.mark.parametrize("name", ["haar", "db2"])
    def test_level1_transform_matrix_is_orthonormal(self, name):
        # Perfect reconstruction on 8x8 with periodic wrap: the stacked
        # subband coefficients of the basis images form an orthonormal
        # matrix, so its transpose inverts the transform.
        n = 8
        cols = []
        for i in range(n * n):
            basis = np.zeros(n * n)
            basis[i] = 1.0
            coeffs = np.concatenate(
                [dwt_decimated(basis.reshape(n, n), name, 1, s, "periodise").ravel()
                 for s in _LETTERS_2D]
            )
            cols.append(coeffs)
        a = np.stack(cols, axis=1)
        np.testing.assert_allclose(a.T @ a, np.eye(n * n), rtol=0, atol=1e-10)

        rng = np.random.default_rng(13)
        x = rng.normal(size=n * n)
        np.testing.assert_allclose(a.T @ (a @ x), x, rtol=0, atol=1e-10)

    def test_level_below_one_rejected(self):
        with pytest.raises(ValueError):
            dwt_decimated(np.zeros((8, 8)), "haar", 0, "LL", "periodise")

    @pytest.mark.parametrize("boundary", ["constant", "nearest", "periodise", "mirror"])
    @pytest.mark.parametrize("shape", [(16, 24), (8, 16, 24)], ids=["2d", "3d"])
    def test_subband_equals_the_mallat_pyramid_bytes(self, boundary, shape):
        image = np.random.default_rng(31).normal(size=shape)
        constant = 2.5 if boundary == "constant" else 0.0
        fam = wavelet_family("db3")
        pyramid = mallat_pyramid(image, fam.low_pass, fam.high_pass, 3, boundary, constant)
        for level, subbands in enumerate(pyramid, start=1):
            for letters, want in subbands.items():
                got = dwt_decimated(image, "db3", level, letters, boundary, constant)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (level, letters)

    @pytest.mark.parametrize("shape,subband", [((16, 16), "HL"), ((8, 16, 8), "LHH")],
                             ids=["2d", "3d"])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_planned_transform_runs_one_convolution_per_level(self, monkeypatch, shape,
                                                             subband, level):
        calls = []

        def counting(*args):
            calls.append(args)
            return convolve_separable(*args)

        monkeypatch.setattr(voxfilt.wavelets, "convolve_separable", counting)
        filt = FilterConfig("wavelet", {"wavelet": "db2", "level": level, "subband": subband,
                                        "decimated": True})
        out = plan_filter(filt, (1.0,) * len(shape), "3d").run(np.ones(shape))
        assert out.shape == tuple(n // 2 ** level for n in shape)
        assert len(calls) == level


def _norm_grid(dims):
    return fourier_grid(dims)[1]


class TestRadialTransfer:
    def test_profile_validation(self):
        with pytest.raises(ValueError, match="kind"):
            RadialProfile("meyer", 1)
        with pytest.raises(ValueError, match="level"):
            RadialProfile("shannon", 0)

    @pytest.mark.parametrize("level", [1.5, True, "1"])
    def test_fractional_or_bool_level_rejected(self, level):
        # a level of 1.5 would put the band edge at nu_B / sqrt(2)
        with pytest.raises(ValueError, match="must be an integer"):
            RadialProfile("shannon", level)

    def test_simoncelli_unity_at_half_band(self):
        t = radial_transfer(RadialProfile("simoncelli", 1), (8,))
        # index 2 on an 8-grid sits at pi/2 exactly
        assert t[2] == pytest.approx(1.0, abs=1e-14)

    def test_simoncelli_zero_at_band_edges(self):
        t = radial_transfer(RadialProfile("simoncelli", 1), (8,))
        assert t[4] == pytest.approx(0.0, abs=1e-14)  # nu = pi
        assert t[1] == pytest.approx(0.0, abs=1e-14)  # nu = pi/4

    def test_shannon_membership(self):
        t8 = radial_transfer(RadialProfile("shannon", 1), (8,))
        assert t8[3] == 1.0  # 0.75 pi inside (pi/2, pi]
        assert t8[4] == 1.0  # pi itself included
        assert t8[2] == 0.0  # pi/2 excluded (strict)
        t10 = radial_transfer(RadialProfile("shannon", 1), (10,))
        assert t10[2] == 0.0  # 0.4 pi below the band

    def test_shannon_level_two_band(self):
        t = radial_transfer(RadialProfile("shannon", 2), (8,))
        assert t[2] == 1.0  # pi/2 is the top of band 2
        assert t[1] == 0.0  # pi/4 excluded
        assert t[3] == 0.0

    def test_corner_frequencies_zero(self):
        for kind in ("shannon", "simoncelli"):
            t = radial_transfer(RadialProfile(kind, 1), (8, 8))
            assert t[4, 4] == 0.0  # norm pi*sqrt(2) > nu_B

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError, match="no grid frequency"):
            radial_transfer(RadialProfile("shannon", 20), (8, 8, 8))

    def test_shannon_levels_partition_the_grid(self):
        dims = (16, 16)
        norm = _norm_grid(dims)
        cover = np.zeros(dims)
        level = 1
        while True:
            try:
                cover += radial_transfer(RadialProfile("shannon", level), dims)
            except ValueError:
                break
            level += 1
        inside = (norm > 0) & (norm <= math.pi)
        np.testing.assert_array_equal(cover[inside], 1.0)
        np.testing.assert_array_equal(cover[~inside], 0.0)

    def test_simoncelli_consecutive_bands_tile_energy(self):
        dims = (16, 16)
        norm = _norm_grid(dims)
        total = np.zeros(dims)
        for level in (1, 2, 3):
            total += radial_transfer(RadialProfile("simoncelli", level), dims) ** 2
        probe = (norm >= math.pi / 8) & (norm <= math.pi / 2)
        np.testing.assert_allclose(total[probe], 1.0, rtol=0, atol=1e-12)


class TestBMap:
    def test_zero_image(self):
        out = nonseparable_b_map(np.zeros((8, 8)), RadialProfile("simoncelli", 1))
        np.testing.assert_array_equal(out, 0.0)
        assert out.dtype == np.float64

    def test_constant_image_killed(self):
        out = nonseparable_b_map(np.full((8, 8, 8), 11.0), RadialProfile("shannon", 1))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)
        out = nonseparable_b_map(np.full((8, 8), 11.0), RadialProfile("simoncelli", 2))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_in_band_spectrum_reproduced(self):
        # A spectrum that lives where the Shannon transfer is 1 passes
        # through unchanged.
        dims = (16, 16)
        norm = _norm_grid(dims)
        spectrum = ((norm > math.pi / 2) & (norm <= math.pi)).astype(np.float64)
        image = np.fft.ifftn(spectrum).real
        out = nonseparable_b_map(image, RadialProfile("shannon", 1))
        np.testing.assert_allclose(out, image, rtol=0, atol=1e-8)

    def test_dim_match_is_automatic(self):
        out = nonseparable_b_map(np.zeros((6, 8, 10)), RadialProfile("simoncelli", 1))
        assert out.shape == (6, 8, 10)


class TestRotationPooled:
    def test_identity_rotation_is_plain_subband(self):
        rng = np.random.default_rng(0)
        image = rng.normal(size=(12, 12))
        from voxfilt.rotinv import equivariant_cascades

        fam = wavelet_family("db2")
        stages = [[fam.low_pass], [fam.high_pass]]
        elements, labels = equivariant_cascades(stages)
        assert labels[0] == 0.0
        got = convolve_separable(
            image, [axis_stages[0] for axis_stages in elements[0]], "mirror"
        )
        want = swt_undecimated(image, "db2", 1, "LH", "mirror")
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_level1_matches_single_kernel_set(self):
        from voxfilt.rotinv import equivariant_cascades, pool

        rng = np.random.default_rng(1)
        image = rng.normal(size=(10, 14))
        fam = wavelet_family("db3")
        kernel_set, _ = equivariant_cascades([[fam.low_pass], [fam.high_pass]])
        responses = [
            convolve_separable(image, [g for (g,) in element], "mirror")
            for element in kernel_set
        ]
        want = pool(responses, "average")
        got = swt_rotation_pooled(image, "db3", 1, "LH", "average", "mirror")
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("level", [1, 2])
    def test_pooled_map_rotation_invariant_2d(self, level):
        from oracles import planar_matrix, rotate_grid

        rng = np.random.default_rng(2)
        image = rng.integers(-6, 7, size=(9, 9)).astype(np.float64)
        base = swt_rotation_pooled(image, "haar", level, "LH", "average", "periodise")
        scale = np.max(np.abs(base))
        for quarter in (1, 2, 3):
            mat = planar_matrix(quarter)
            turned = swt_rotation_pooled(
                rotate_grid(image, mat), "haar", level, "LH", "average", "periodise"
            )
            np.testing.assert_allclose(
                turned, rotate_grid(base, mat), rtol=0, atol=1e-12 * scale
            )

    def test_pooled_map_rotation_invariant_3d_db3(self):
        from oracles import euler_matrix, rotate_grid

        rng = np.random.default_rng(3)
        image = rng.normal(size=(8, 8, 8))
        base = swt_rotation_pooled(image, "db3", 2, "HHH", "average", "mirror")
        for quarters in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 3)]:
            mat = euler_matrix(quarters)
            turned = swt_rotation_pooled(
                rotate_grid(image, mat), "db3", 2, "HHH", "average", "mirror"
            )
            scale = np.max(np.abs(base))
            assert np.max(np.abs(turned - rotate_grid(base, mat))) <= 1e-10 * scale

    def test_max_pooling_mode(self):
        rng = np.random.default_rng(4)
        image = rng.normal(size=(10, 10))
        avg = swt_rotation_pooled(image, "db2", 1, "LH", "average", "mirror")
        top = swt_rotation_pooled(image, "db2", 1, "LH", "max", "mirror")
        assert np.all(top >= avg - 1e-12)

    def test_cascade_validation(self):
        from voxfilt.rotinv import equivariant_cascades

        with pytest.raises(ValueError, match="same non-zero"):
            equivariant_cascades([[np.ones(3)], []])
        with pytest.raises(ValueError, match="2 or 3"):
            equivariant_cascades([[np.ones(3)]])
        with pytest.raises(ValueError):
            swt_rotation_pooled(np.zeros((4, 4)), "haar", 0, "LH")
