import os

import numpy as np
import pytest

from voxfilt.features import intensity_statistics
from voxfilt.image import RoiMask, VolumeImage, create_image
from voxfilt.kernels import laws_energy, mean_kernel_1d
from voxfilt.convolve import convolve_separable
from voxfilt.pipeline import (
    FilterConfig,
    ProcessingConfig,
    apply_filter,
    load_config,
    plan_filter,
    resample_image,
    resample_mask,
    resegment,
    round_intensities,
    run_configuration,
)


def _volume(data, spacing=(2.0, 2.0, 2.0)):
    data = np.asarray(data, dtype=np.float64)
    return create_image(data.shape, spacing[: data.ndim], data)


class TestResampleImage:
    def test_identity_grid_is_exact(self):
        rng = np.random.default_rng(0)
        image = _volume(rng.normal(size=(5, 6, 7)))
        out = resample_image(image, (2.0, 2.0, 2.0), "tricubic")
        np.testing.assert_array_equal(out.data, image.data)

    def test_output_dims_round_up(self):
        image = _volume(np.zeros((4, 5, 6)))
        out = resample_image(image, (1.0, 1.0, 1.0), "trilinear")
        assert out.dims == (8, 10, 12)
        assert out.spacing == (1.0, 1.0, 1.0)
        out = resample_image(image, (3.0, 3.0, 3.0), "trilinear")
        assert out.dims == (3, 4, 4)

    def test_constant_reproduced(self):
        image = _volume(np.full((4, 4, 4), 3.25))
        for method in ("trilinear", "tricubic"):
            out = resample_image(image, (1.0, 1.0, 1.0), method)
            np.testing.assert_allclose(out.data, 3.25, rtol=0, atol=1e-10)

    def test_trilinear_reproduces_ramp_inside(self):
        n = 8
        k = np.arange(n, dtype=np.float64)
        ramp = (
            2.0 * k[:, None, None]
            + 3.0 * k[None, :, None]
            + 0.5 * k[None, None, :]
            + 1.0
        ) * np.ones((n, n, n))
        image = _volume(ramp)
        out = resample_image(image, (1.0, 1.0, 1.0), "trilinear")
        # Output voxel i maps to input coordinate 0.5*i - 0.25.
        coord = 0.5 * np.arange(out.dims[0]) - 0.25
        inside = slice(2, -2)
        want = (
            2.0 * coord[inside, None, None]
            + 3.0 * coord[None, inside, None]
            + 0.5 * coord[None, None, inside]
            + 1.0
        )
        np.testing.assert_allclose(
            out.data[inside, inside, inside], want, rtol=0, atol=1e-9
        )

    def test_tricubic_reproduces_ramp_deep_inside(self):
        # The cubic spline prefilter is recursive, so the kink the mirror
        # extension puts at each face leaks inward with geometric decay.
        # Far from the faces the ramp comes back exactly.
        n = 48
        ramp = np.broadcast_to(
            2.0 * np.arange(n, dtype=np.float64)[:, None, None] + 1.0, (n, 4, 4)
        ).copy()
        image = _volume(ramp)
        out = resample_image(image, (1.0, 1.0, 1.0), "tricubic")
        coord = 0.5 * np.arange(out.dims[0]) - 0.25
        inside = slice(40, -40)
        want = np.broadcast_to(
            2.0 * coord[inside, None, None] + 1.0, (coord[inside].size, 8, 8)
        )
        np.testing.assert_allclose(out.data[inside], want, rtol=0, atol=1e-9)

    def test_bad_method(self):
        image = _volume(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError, match="interpolation"):
            resample_image(image, (1.0, 1.0, 1.0), "nearest")

    def test_bad_spacing(self):
        image = _volume(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError):
            resample_image(image, (1.0, -1.0, 1.0), "trilinear")
        with pytest.raises(ValueError):
            resample_image(image, (1.0, 1.0), "trilinear")


class TestResampleMask:
    def test_all_true_and_all_false(self):
        for fill in (True, False):
            mask = RoiMask(np.full((4, 4, 4), fill))
            out = resample_mask(mask, (2.0, 2.0, 2.0), (1.0, 1.0, 1.0))
            assert out.dims == (8, 8, 8)
            assert np.all(out.membership == fill)

    def test_half_value_is_included(self):
        # Downsampling 4 voxels at 2 mm to 3 mm puts output voxel 1 at input
        # coordinate 1.5, halfway between the last true and first false
        # voxel of a half-space mask: fraction exactly 0.5, kept by >=.
        membership = np.zeros((4, 4, 4), dtype=bool)
        membership[:2] = True
        out = resample_mask(RoiMask(membership), (2.0, 2.0, 2.0), (3.0, 3.0, 3.0))
        assert out.dims == (3, 3, 3)
        assert out.membership[1, 1, 1]
        assert out.membership[0, 1, 1]
        assert not out.membership[2, 1, 1]

    def test_threshold_override(self):
        membership = np.zeros((4, 4, 4), dtype=bool)
        membership[:2] = True
        out = resample_mask(
            RoiMask(membership), (2.0, 2.0, 2.0), (3.0, 3.0, 3.0), threshold=0.6
        )
        assert not out.membership[1, 1, 1]

    def test_identity_grid(self):
        membership = np.zeros((3, 3, 3), dtype=bool)
        membership[1, 1, 1] = True
        out = resample_mask(RoiMask(membership), (2.0, 2.0, 2.0), (2.0, 2.0, 2.0))
        np.testing.assert_array_equal(out.membership, membership)
        assert out.kind == "morphological"


class TestRoundIntensities:
    def test_half_away_from_zero(self):
        image = _volume(np.array([[[0.5, -0.5], [2.0, 2.49]], [[-2.5, 1.5], [0.0, -0.49]]]))
        out = round_intensities(image)
        np.testing.assert_array_equal(
            out.data,
            np.array([[[1.0, -1.0], [2.0, 2.0]], [[-3.0, 2.0], [0.0, -0.0]]]),
        )


class TestResegment:
    def test_inclusive_bounds(self):
        image = _volume(np.array([[[-1000.0, 400.0], [-1000.5, 400.5]]]))
        mask = RoiMask(np.ones((1, 2, 2), dtype=bool))
        out = resegment(mask, image, (-1000, 400))
        np.testing.assert_array_equal(
            out.membership, np.array([[[True, True], [False, False]]])
        )
        assert out.kind == "intensity"

    def test_none_range_keeps_mask(self):
        membership = np.zeros((2, 2, 2), dtype=bool)
        membership[0] = True
        image = _volume(np.full((2, 2, 2), 1e9))
        out = resegment(RoiMask(membership), image, None)
        np.testing.assert_array_equal(out.membership, membership)
        assert out.kind == "intensity"

    def test_morphological_mask_untouched(self):
        membership = np.ones((2, 2, 2), dtype=bool)
        mask = RoiMask(membership)
        image = _volume(np.full((2, 2, 2), 1e9))
        resegment(mask, image, (0.0, 1.0))
        assert np.all(mask.membership)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        image = _volume(rng.normal(scale=500.0, size=(4, 4, 4)))
        mask = RoiMask(np.ones((4, 4, 4), dtype=bool))
        once = resegment(mask, image, (-1000, 400))
        twice = resegment(once, image, (-1000, 400))
        np.testing.assert_array_equal(once.membership, twice.membership)

    def test_empty_stays_empty(self):
        image = _volume(np.zeros((2, 2, 2)))
        out = resegment(RoiMask(np.zeros((2, 2, 2), dtype=bool)), image, (-1, 1))
        assert out.voxel_count == 0


class TestPlanFilter:
    def test_log_summary_uses_filtered_axes(self):
        filt = FilterConfig("log", {"sigma_mm": 1.5})
        plan = plan_filter(filt, (1.0, 1.0, 3.0), "2d")
        assert plan.kind == "log"
        assert plan.summary == "log filter: sigma 1.5 voxels, kernel size 13"
        with pytest.raises(ValueError, match="isotropic"):
            plan_filter(filt, (1.0, 1.0, 3.0), "3d")

    def test_run_matches_apply_filter(self):
        rng = np.random.default_rng(21)
        image = _volume(rng.normal(size=(7, 6, 5)))
        filt = FilterConfig(
            "laws", {"kernels": "L5E5E5", "rotation_invariance": True, "energy_delta": 1}
        )
        plan = plan_filter(filt, image.spacing, "3d")
        np.testing.assert_array_equal(plan.run(image.data), apply_filter(image, filt, "3d"))

    def test_gabor_plan_runs_on_slices(self):
        filt = FilterConfig(
            "gabor", {"sigma_vox": 2.0, "lambda_vox": 3.0, "orthogonal_planes": True}
        )
        plan = plan_filter(filt, (2.0, 2.0, 2.0), "3d")
        assert plan.summary.startswith("gabor filter: sigma 2 voxels, wavelength 3 voxels")
        assert plan.run(np.zeros((9, 9))).shape == (9, 9)
        with pytest.raises(ValueError, match="isotropic"):
            plan_filter(filt, (1.0, 1.0, 2.0), "3d")

    def test_rotation_invariant_gabor_needs_dtheta(self):
        filt = FilterConfig(
            "gabor", {"sigma_vox": 2.0, "lambda_vox": 3.0, "rotation_invariance": True}
        )
        with pytest.raises(ValueError, match="dtheta"):
            plan_filter(filt, (1.0, 1.0, 1.0), "2d")

    def test_route_is_not_a_filter_parameter(self):
        filt = FilterConfig("log", {"sigma_vox": 1.0, "via": "spatial"})
        with pytest.raises(ValueError, match="unknown parameters"):
            plan_filter(filt, (1.0, 1.0, 1.0), "3d")


class TestApplyFilter:
    def test_mode_validation(self):
        image = _volume(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError, match="mode"):
            apply_filter(image, FilterConfig("none"), "4d")

    def test_2d_slices_are_independent(self):
        rng = np.random.default_rng(2)
        plane = rng.normal(size=(8, 8))
        image = _volume(np.repeat(plane[:, :, None], 5, axis=2))
        out = apply_filter(image, FilterConfig("mean", {"support": 3}), "2d")
        for idx in range(1, 5):
            np.testing.assert_array_equal(out[:, :, idx], out[:, :, 0])

    def test_2d_matches_manual_slice_filtering(self):
        rng = np.random.default_rng(3)
        image = _volume(rng.normal(size=(6, 6, 4)))
        out = apply_filter(image, FilterConfig("mean", {"support": 3}), "2d")
        g = mean_kernel_1d(3)
        for idx in range(4):
            want = convolve_separable(image.data[:, :, idx], (g, g), "mirror")
            np.testing.assert_array_equal(out[:, :, idx], want)

    def test_3d_mean(self):
        rng = np.random.default_rng(4)
        image = _volume(rng.normal(size=(6, 6, 6)))
        out = apply_filter(image, FilterConfig("mean", {"support": 3}), "3d")
        g = mean_kernel_1d(3)
        want = convolve_separable(image.data, (g, g, g), "mirror")
        np.testing.assert_array_equal(out, want)

    def test_threads_do_not_change_results(self):
        rng = np.random.default_rng(5)
        image = _volume(rng.normal(size=(8, 8, 6)))
        filt = FilterConfig("log", {"sigma_mm": 3.0})
        serial = apply_filter(image, filt, "2d", threads=1)
        threaded = apply_filter(image, filt, "2d", threads=4)
        np.testing.assert_array_equal(serial, threaded)
        # every shipped 2-D configuration: response bytes and feature tuple
        image = _volume(rng.normal(loc=-100.0, scale=300.0, size=(12, 11, 5)))
        mask = RoiMask(np.ones(image.dims, dtype=bool))
        names = sorted(n for n in os.listdir(TestShippedConfigs._DIR) if n.endswith(".A.yaml"))
        assert len(names) == 11
        for name in names:
            _, config = load_config(os.path.join(TestShippedConfigs._DIR, name))
            serial, _, serial_features = run_configuration(image, mask, config, threads=1)
            threaded, _, threaded_features = run_configuration(image, mask, config, threads=2)
            assert threaded.data.tobytes() == serial.data.tobytes(), name
            assert threaded_features == serial_features, name

    def test_laws_mode_mismatch(self):
        image = _volume(np.zeros((4, 4, 4)))
        filt = FilterConfig("laws", {"kernels": "L5E5E5"})
        with pytest.raises(ValueError, match="kernels"):
            apply_filter(image, filt, "2d")

    def test_laws_energy_chain(self):
        rng = np.random.default_rng(6)
        image = _volume(rng.normal(size=(6, 6, 6)))
        filt = FilterConfig(
            "laws",
            {"kernels": "L5E5E5", "rotation_invariance": True, "pool": "max",
             "energy_delta": 2},
        )
        out = apply_filter(image, filt, "3d")
        assert out.shape == (6, 6, 6)
        assert np.all(out >= 0.0)

    def test_gabor_3d_requires_orthogonal_planes(self):
        image = _volume(np.zeros((4, 4, 4)))
        filt = FilterConfig("gabor", {"sigma_mm": 4.0, "lambda_mm": 2.0})
        with pytest.raises(ValueError, match="orthogonal_planes"):
            apply_filter(image, filt, "3d")

    def test_gabor_2d_runs(self):
        rng = np.random.default_rng(7)
        image = _volume(rng.normal(size=(8, 8, 3)))
        filt = FilterConfig(
            "gabor",
            {"sigma_mm": 6.0, "lambda_mm": 4.0, "gamma": 1.5,
             "rotation_invariance": True, "dtheta": np.pi / 4},
        )
        out = apply_filter(image, filt, "2d")
        assert out.shape == (8, 8, 3)
        assert np.all(out >= 0.0)

    def test_wavelet_subband_mode_mismatch(self):
        image = _volume(np.zeros((4, 4, 4)))
        filt = FilterConfig("wavelet", {"family": "db3", "level": 1, "subband": "LLH"})
        with pytest.raises(ValueError, match="subband"):
            apply_filter(image, filt, "2d")

    def test_riesz_index_mode_mismatch(self):
        image = _volume(np.zeros((4, 4, 4)))
        filt = FilterConfig("riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0]})
        with pytest.raises(ValueError, match="entries"):
            apply_filter(image, filt, "2d")

    def test_unknown_parameter_rejected(self):
        image = _volume(np.zeros((4, 4, 4)))
        filt = FilterConfig("mean", {"support": 3, "sigma_mm": 1.0})
        with pytest.raises(ValueError, match="unknown parameters"):
            apply_filter(image, filt, "3d")

    def test_anisotropic_log_rejected(self):
        image = _volume(np.zeros((4, 4, 4)), spacing=(1.0, 1.0, 3.0))
        filt = FilterConfig("log", {"sigma_mm": 1.5})
        with pytest.raises(ValueError, match="isotropic"):
            apply_filter(image, filt, "3d")

    def test_voxel_unit_sigma_equals_converted_physical(self):
        rng = np.random.default_rng(13)
        image = _volume(rng.normal(size=(8, 8, 8)))
        by_mm = apply_filter(image, FilterConfig("log", {"sigma_mm": 3.0}), "3d")
        by_vox = apply_filter(image, FilterConfig("log", {"sigma_vox": 1.5}), "3d")
        np.testing.assert_array_equal(by_mm, by_vox)

    def test_voxel_units_work_on_anisotropic_grids(self):
        rng = np.random.default_rng(14)
        image = _volume(rng.normal(size=(8, 8, 8)), spacing=(1.0, 1.0, 3.0))
        out = apply_filter(image, FilterConfig("log", {"sigma_vox": 1.5}), "3d")
        assert out.shape == (8, 8, 8)

    def test_mixed_units_rejected(self):
        image = _volume(np.zeros((8, 8, 3)))
        filt = FilterConfig("gabor", {"sigma_mm": 5.0, "lambda_vox": 1.0})
        with pytest.raises(ValueError, match="mixes physical and voxel units"):
            apply_filter(image, filt, "2d")

    def test_missing_unit_parameter(self):
        image = _volume(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError, match="sigma_mm or sigma_vox"):
            apply_filter(image, FilterConfig("log", {"cutoff": 4.0}), "3d")

    def test_wavelet_dispatch_matches_library_call(self):
        from voxfilt.wavelets import swt_rotation_pooled, swt_undecimated

        rng = np.random.default_rng(9)
        image = _volume(rng.normal(size=(8, 8, 8)))
        plain = apply_filter(
            image,
            FilterConfig("wavelet", {"family": "db2", "level": 2, "subband": "LLH"}),
            "3d",
        )
        np.testing.assert_array_equal(
            plain, swt_undecimated(image.data, "db2", 2, "LLH", "mirror")
        )
        pooled = apply_filter(
            image,
            FilterConfig(
                "wavelet",
                {"family": "db2", "level": 1, "subband": "LLH",
                 "rotation_invariance": True, "pool": "average"},
            ),
            "3d",
        )
        np.testing.assert_array_equal(
            pooled, swt_rotation_pooled(image.data, "db2", 1, "LLH", "average")
        )

    def test_nonseparable_dispatch_matches_library_call(self):
        from voxfilt.wavelets import nonseparable_b_map

        rng = np.random.default_rng(10)
        image = _volume(rng.normal(size=(8, 8, 8)))
        out = apply_filter(
            image,
            FilterConfig("nonseparable", {"wavelet": "simoncelli", "level": 2}),
            "3d",
        )
        np.testing.assert_array_equal(
            out, nonseparable_b_map(image.data, "simoncelli", 2)
        )

    def test_riesz_dispatch_matches_library_call(self):
        from voxfilt.riesz import RadialProfile, riesz_filtered_map

        rng = np.random.default_rng(11)
        image = _volume(rng.normal(size=(8, 8, 8)))
        out = apply_filter(
            image,
            FilterConfig("riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0]}),
            "3d",
        )
        want = riesz_filtered_map(
            image.data, RadialProfile("simoncelli", 1), (0, 2, 0)
        )
        np.testing.assert_array_equal(out, want)

    def test_riesz_aligned_dispatch_matches_library_chain(self):
        from voxfilt.riesz import (
            RadialProfile,
            align_order2,
            riesz_filtered_map,
            riesz_indices,
            structure_tensor,
        )

        rng = np.random.default_rng(12)
        image = _volume(rng.normal(size=(8, 8, 8)))
        out = apply_filter(
            image,
            FilterConfig(
                "riesz",
                {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0],
                 "align": True, "sigma_tensor_mm": 2.0},
            ),
            "3d",
        )
        profile = RadialProfile("simoncelli", 1)
        responses = {
            l: riesz_filtered_map(image.data, profile, l)
            for l in riesz_indices(2, 3)
        }
        field = structure_tensor(image.data, profile, 2.0, image.spacing)
        want = align_order2(responses, field)
        np.testing.assert_array_equal(out, want)

    def test_riesz_aligned_3d_takes_two_forward_ffts(self, monkeypatch):
        calls = []
        fftn = np.fft.fftn

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return fftn(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fftn", counting)
        image = _volume(np.random.default_rng(12).normal(size=(8, 8, 8)))
        apply_filter(
            image,
            FilterConfig("riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0],
                                   "align": True, "sigma_tensor_mm": 2.0}),
            "3d",
        )
        # one spectrum for the six order-2 maps, one inside structure_tensor
        assert calls == [(8, 8, 8), (8, 8, 8)]

    @pytest.mark.parametrize("kind,params", [
        ("nonseparable", {"wavelet": "simoncelli", "level": 1}),
        ("riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0]}),
        ("riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0], "align": True,
                   "sigma_tensor_mm": 2.0}),
    ], ids=["nonseparable", "riesz", "riesz-aligned"])
    def test_fourier_domain_filters_need_isotropic_axes(self, kind, params):
        image = _volume(np.random.default_rng(15).normal(size=(8, 8, 4)),
                        spacing=(1.0, 1.0, 3.0))
        with pytest.raises(ValueError, match="needs isotropic voxel spacing"):
            apply_filter(image, FilterConfig(kind, params), "3d")
        planar = dict(params, l=[0, 2]) if kind == "riesz" else params
        assert apply_filter(image, FilterConfig(kind, planar), "2d").shape == (8, 8, 4)

    @pytest.mark.parametrize("kind,params,stem", [
        ("nonseparable", {"wavelet": "simoncelli", "level": 1},
         "nonseparable filter: simoncelli B map level 1"),
        ("riesz", {"wavelet": "shannon", "level": 2, "l": [1, 1, 0]},
         "riesz filter: shannon level 2 l (1, 1, 0)"),
        ("riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0], "align": True,
                   "sigma_tensor_vox": 1.5},
         "riesz filter: simoncelli level 1 l (0, 2, 0), aligned with structure tensor "
         "sigma 3 mm"),
    ], ids=["nonseparable", "riesz", "riesz-aligned"])
    def test_fourier_domain_summary_names_applied_boundary(self, kind, params, stem):
        filt = FilterConfig(kind, params)
        plan = plan_filter(filt, (2.0, 2.0, 2.0), "3d", "periodise")
        assert plan.summary == f"{stem}, boundary periodise"
        for requested in ("mirror", "constant", "nearest"):
            plan = plan_filter(filt, (2.0, 2.0, 2.0), "3d", requested)
            assert plan.summary == f"{stem}, boundary periodise (requested {requested})"

    def test_riesz_align_requires_tensor_scale(self):
        image = _volume(np.zeros((4, 4, 4)))
        filt = FilterConfig(
            "riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0], "align": True}
        )
        with pytest.raises(ValueError, match="sigma_tensor_mm"):
            apply_filter(image, filt, "3d")


class TestRunConfiguration:
    def _ct_like(self, dims=(10, 10, 6)):
        rng = np.random.default_rng(8)
        data = rng.normal(loc=-200.0, scale=300.0, size=dims)
        image = _volume(data)
        membership = np.zeros(dims, dtype=bool)
        membership[2:-2, 2:-2, 1:-1] = True
        return image, RoiMask(membership)

    def test_config_a_none_features_are_plain_statistics(self):
        image, mask = self._ct_like()
        config = ProcessingConfig(
            mode="2d",
            filter=FilterConfig("none"),
            reseg_range=(-1000.0, 400.0),
        )
        response, intensity_mask, features = run_configuration(image, mask, config)
        np.testing.assert_array_equal(response.data, image.data)
        want_mask = mask.membership & (image.data >= -1000) & (image.data <= 400)
        np.testing.assert_array_equal(intensity_mask.membership, want_mask)
        want = intensity_statistics(image.data, want_mask)
        got = {f.name: f.value for f in features}
        for fv in want:
            assert got[fv.name] == fv.value

    def test_diagnostics_reflect_masks(self):
        image, mask = self._ct_like()
        config = ProcessingConfig(
            mode="3d",
            filter=FilterConfig("none"),
            reseg_range=(-1000.0, 400.0),
        )
        _, intensity_mask, features = run_configuration(image, mask, config)
        got = {f.name: f.value for f in features}
        assert got["roi_voxels_before_interpolation"] == mask.voxel_count
        assert got["roi_voxels_after_resegmentation"] == intensity_mask.voxel_count

    def test_empty_roi_error(self):
        image, mask = self._ct_like()
        config = ProcessingConfig(
            mode="3d",
            filter=FilterConfig("none"),
            reseg_range=(5000.0, 6000.0),
        )
        with pytest.raises(ValueError, match="empty ROI"):
            run_configuration(image, mask, config)

    def test_config_b_resamples_and_rounds(self):
        image, mask = self._ct_like(dims=(8, 8, 8))
        config = ProcessingConfig(
            mode="3d",
            filter=FilterConfig("mean", {"support": 5}),
            resample_spacing_mm=(1.0, 1.0, 1.0),
            image_interpolation="tricubic",
            rounding=True,
            reseg_range=(-1000.0, 400.0),
        )
        response, intensity_mask, _ = run_configuration(image, mask, config)
        assert response.dims == (16, 16, 16)
        assert response.spacing == (1.0, 1.0, 1.0)
        assert intensity_mask.dims == (16, 16, 16)

    def test_workflow_order_filter_after_resample(self):
        image, mask = self._ct_like(dims=(8, 8, 8))
        config = ProcessingConfig(
            mode="3d",
            filter=FilterConfig("mean", {"support": 3}),
            resample_spacing_mm=(1.0, 1.0, 1.0),
            image_interpolation="trilinear",
        )
        response, _, _ = run_configuration(image, mask, config)
        resampled = resample_image(image, (1.0, 1.0, 1.0), "trilinear")
        g = mean_kernel_1d(3)
        want = convolve_separable(resampled.data, (g,) * 3, "mirror")
        np.testing.assert_array_equal(response.data, want)
        # The reversed order (filter, then resample) gives a different map.
        filtered_first = resample_image(
            VolumeImage(
                np.asfortranarray(convolve_separable(image.data, (g,) * 3, "mirror")),
                image.spacing,
            ),
            (1.0, 1.0, 1.0),
            "trilinear",
        )
        assert np.max(np.abs(filtered_first.data - response.data)) > 1e-3

    def test_laws_full_chain_matches_manual(self):
        image, mask = self._ct_like(dims=(8, 8, 8))
        config = ProcessingConfig(
            mode="3d",
            filter=FilterConfig(
                "laws",
                {"kernels": "L5E5E5", "rotation_invariance": True, "pool": "max",
                 "energy_delta": 2},
            ),
            reseg_range=(-1000.0, 400.0),
        )
        response, _, _ = run_configuration(image, mask, config)
        from voxfilt.kernels import laws_1d
        from voxfilt.rotinv import equivariant_set_3d, pool

        kernel_set = equivariant_set_3d(laws_1d("L5"), laws_1d("E5"), laws_1d("E5"))
        pooled = pool(
            [convolve_separable(image.data, ks, "mirror") for ks in kernel_set], "max"
        )
        want = laws_energy(pooled, 2, "mirror")
        np.testing.assert_array_equal(response.data, want)

    def test_mask_dim_mismatch(self):
        image, _ = self._ct_like()
        bad_mask = RoiMask(np.ones((3, 3, 3), dtype=bool))
        config = ProcessingConfig(mode="3d", filter=FilterConfig("none"))
        with pytest.raises(ValueError, match="dims"):
            run_configuration(image, bad_mask, config)


class TestProcessingConfigValidation:
    def test_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ProcessingConfig(mode="1d", filter=FilterConfig("none"))

    def test_boundary(self):
        with pytest.raises(ValueError, match="boundary"):
            ProcessingConfig(mode="3d", filter=FilterConfig("none"), boundary="wrap")

    def test_filter_kind(self):
        with pytest.raises(ValueError, match="filter kind"):
            FilterConfig("sobel")

    def test_inverted_range(self):
        with pytest.raises(ValueError, match="inverted"):
            ProcessingConfig(
                mode="3d", filter=FilterConfig("none"), reseg_range=(400, -1000)
            )


class TestLoadConfig:
    def test_full_round_trip(self, tmp_path):
        text = """\
test_id: 4.B
mode: 3d
boundary: mirror
resample:
  spacing_mm: [1.0, 1.0, 1.0]
  image_interpolation: tricubic
  mask_threshold: 0.5
  rounding: true
resegment_hu: [-1000, 400]
filter:
  kind: laws
  kernels: L5E5E5
  rotation_invariance: true
  pool: max
  energy_delta: 7
"""
        path = tmp_path / "test.yaml"
        path.write_text(text)
        test_id, config = load_config(path)
        assert test_id == "4.B"
        assert config.mode == "3d"
        assert config.resample_spacing_mm == (1.0, 1.0, 1.0)
        assert config.rounding is True
        assert config.reseg_range == (-1000.0, 400.0)
        assert config.filter.kind == "laws"
        assert config.filter.params["kernels"] == "L5E5E5"
        assert config.filter.params["energy_delta"] == 7

    def test_minimal_config(self, tmp_path):
        path = tmp_path / "min.yaml"
        path.write_text("test_id: 1.A\nmode: 2d\nfilter:\n  kind: none\n")
        test_id, config = load_config(path)
        assert test_id == "1.A"
        assert config.resample_spacing_mm is None
        assert config.rounding is False
        assert config.reseg_range is None

    def test_missing_filter(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("mode: 2d\n")
        with pytest.raises(ValueError, match="filter"):
            load_config(path)

    def test_missing_kind(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("mode: 2d\nfilter:\n  support: 5\n")
        with pytest.raises(ValueError, match="kind"):
            load_config(path)

    def test_resample_without_spacing(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "mode: 3d\nresample:\n  rounding: true\nfilter:\n  kind: none\n"
        )
        with pytest.raises(ValueError, match="resample block is missing the 'spacing_mm'"):
            load_config(path)

    @pytest.mark.parametrize("text,match", [
        ("mode: 3d\nresegment_HU: [-1000, 400]\nfilter:\n  kind: none\n",
         r"unknown key 'resegment_HU'; did you mean 'resegment_hu'\?"),
        ("mode: 3d\nboundry: periodise\nfilter:\n  kind: none\n",
         r"unknown key 'boundry'; did you mean 'boundary'\?"),
        ("mode: 3d\nresample:\n  spacing_mm: [1, 1, 1]\n  interpolation: trilinear\n"
         "filter:\n  kind: none\n",
         r"the resample block has unknown key 'interpolation'; "
         r"did you mean 'image_interpolation'\?"),
        ("mode: 3d\nnotes: x\nfilter:\n  kind: none\n",
         r"unknown key 'notes'; expected one of"),
    ], ids=["top-level", "top-level-boundary", "resample", "no-close-match"])
    def test_unknown_key_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_config(path)

    def test_resample_not_a_mapping(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("mode: 3d\nresample: [1.0, 1.0, 1.0]\nfilter:\n  kind: none\n")
        with pytest.raises(ValueError, match="resample block must be a mapping"):
            load_config(path)


class TestShippedConfigs:
    _DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

    def _load(self, tid):
        return load_config(os.path.join(self._DIR, f"{tid}.yaml"))

    def test_all_twenty_two_present_and_parse(self):
        names = sorted(os.listdir(self._DIR))
        assert len(names) == 22
        for name in names:
            tid, config = load_config(os.path.join(self._DIR, name))
            assert name == f"{tid}.yaml"
            assert config.mode == ("2d" if tid.endswith(".A") else "3d")
            assert config.boundary == "mirror"
            assert config.reseg_range == (-1000.0, 400.0)
            if tid.endswith(".B"):
                assert config.resample_spacing_mm == (1.0, 1.0, 1.0)
                assert config.image_interpolation == "tricubic"
                assert config.rounding is True
            else:
                assert config.resample_spacing_mm is None

    @pytest.mark.parametrize(
        "tid,kind,checks",
        [
            ("1.A", "none", {}),
            ("2.B", "mean", {"support": 5}),
            ("3.A", "log", {"sigma_mm": 1.5, "cutoff": 4.0}),
            ("4.A", "laws", {"kernels": "L5E5", "pool": "max", "energy_delta": 7}),
            ("4.B", "laws", {"kernels": "L5E5E5", "pool": "max", "energy_delta": 7}),
            ("5.A", "gabor", {"sigma_mm": 5.0, "lambda_mm": 2.0, "gamma": 1.5,
                              "pool": "average"}),
            ("5.B", "gabor", {"orthogonal_planes": True}),
            ("6.A", "wavelet", {"family": "db3", "level": 1, "subband": "LH"}),
            ("6.B", "wavelet", {"family": "db3", "level": 1, "subband": "LLH"}),
            ("7.B", "wavelet", {"family": "db3", "level": 2, "subband": "HHH",
                                "pool": "average"}),
            ("8.A", "nonseparable", {"wavelet": "simoncelli", "level": 1}),
            ("9.B", "nonseparable", {"wavelet": "simoncelli", "level": 2}),
            ("10.A", "riesz", {"l": [0, 2]}),
            ("10.B", "riesz", {"l": [0, 2, 0]}),
            ("11.B", "riesz", {"l": [0, 2, 0], "align": True, "sigma_tensor_mm": 1.0}),
        ],
    )
    def test_table_rows(self, tid, kind, checks):
        _, config = self._load(tid)
        assert config.filter.kind == kind
        for key, value in checks.items():
            assert config.filter.params[key] == value

    def test_gabor_orientation_step(self):
        _, config = self._load("5.A")
        assert config.filter.params["dtheta"] == pytest.approx(np.pi / 8, abs=0, rel=1e-15)
        assert config.filter.params["rotation_invariance"] is True
