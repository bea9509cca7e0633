import collections
import dataclasses
import hashlib
import itertools
import math
import os
import pickle
import re
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
import yaml
from scipy import ndimage

import voxfilt.convolve
import voxfilt.image
import voxfilt.pipeline
import voxfilt.riesz

from voxfilt.features import intensity_statistics
from voxfilt.image import RoiMask, VolumeImage, create_image, round_half_away
from voxfilt.boundary import BOUNDARY_MODES
from voxfilt.kernels import GaborParams, gabor_kernel, laws_energy, log_kernel, mean_kernel_1d
from voxfilt.convolve import convolve_full, convolve_separable, kernel_to_transfer
from voxfilt.pipeline import (
    FILTER_PARAMETERS,
    FilterConfig,
    ProcessingConfig,
    apply_filter,
    _axis_taps,
    _output_coordinates,
    _spline_prefilter,
    load_config,
    plan_filter,
    resample_image,
    resample_mask,
    resegment,
    round_intensities,
    run_configuration,
)
from voxfilt.rotinv import gabor_orientation_set, pool

from dispatch import digests_at_dispatch_levels


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_spacing(self, bad):
        # unchecked, a NaN fails inside the grid arithmetic, naming no
        # spacing, and an infinite one gives an empty grid
        image = _volume(np.zeros((4, 4, 4)))
        for method in ("trilinear", "tricubic"):
            with pytest.raises(ValueError, match="positive finite resampling spacing"):
                resample_image(image, (bad, 1.0, 1.0), method)


class TestResampleMask:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_spacing(self, bad):
        mask = RoiMask(np.ones((4, 4, 4), dtype=bool))
        with pytest.raises(ValueError, match="positive finite resampling spacing"):
            resample_mask(mask, (2.0, 2.0, 2.0), (2.0, bad, 2.0))
        with pytest.raises(ValueError, match="positive finite resampling spacing"):
            resample_mask(mask, (2.0, 2.0, 2.0), (2.0, 2.0))

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

    @pytest.mark.parametrize("dims,spacing,new_spacing", [
        ((9, 8, 5), (2.0, 2.0, 2.0), (1.0, 1.0, 1.0)),
        ((10, 7, 6), (0.7, 0.9, 3.0), (1.0, 1.0, 1.0)),
        ((12, 9), (1.0, 1.7), (0.6, 2.3)),
    ])
    def test_result_is_built_fortran_ordered(self, monkeypatch, dims, spacing, new_spacing):
        # the membership reaches RoiMask F-contiguous, so RoiMask copies nothing
        import voxfilt.pipeline

        passed = []

        class Recording(RoiMask):
            def __post_init__(self):
                passed.append(self.membership.flags.f_contiguous)
                super().__post_init__()

        monkeypatch.setattr(voxfilt.pipeline, "RoiMask", Recording)
        membership = np.random.default_rng(31).uniform(size=dims) < 0.5
        out = resample_mask(RoiMask(membership), spacing, new_spacing)
        assert passed == [True]
        assert out.membership.flags.f_contiguous

    def test_identity_grid(self):
        membership = np.zeros((3, 3, 3), dtype=bool)
        membership[1, 1, 1] = True
        out = resample_mask(RoiMask(membership), (2.0, 2.0, 2.0), (2.0, 2.0, 2.0))
        np.testing.assert_array_equal(out.membership, membership)


def _meshgrid_oracle(data, coords, order):
    """The former resampling call: map_coordinates over the full meshgrid."""
    mesh = np.meshgrid(*coords, indexing="ij")
    return ndimage.map_coordinates(np.asarray(data, dtype=np.float64), np.stack(mesh),
                                   order=order, mode="mirror")


# (dims, spacing, new spacing): up- and down-sampling, anisotropic grids,
# axes of length 1 and 2, a 2-D image and an axis whose spacing is kept.
_GRIDS = [
    ((6, 7, 5), (2.0, 2.0, 2.0), (1.0, 1.0, 1.0)),
    ((12, 11, 9), (1.0, 1.0, 1.0), (2.5, 1.7, 3.0)),
    ((9, 10, 7), (1.5, 1.5, 2.5), (0.7, 2.1, 1.3)),
    ((14, 12, 6), (0.7, 0.7, 3.0), (1.0, 1.0, 1.0)),
    ((1, 2, 5), (1.0, 1.0, 1.0), (0.4, 0.3, 0.7)),
    ((2, 1, 4), (1.2, 2.0, 0.9), (0.5, 0.5, 2.0)),
    ((12, 9), (1.0, 1.7), (0.6, 2.3)),
    ((8, 9, 6), (1.0, 1.3, 2.0), (1.0, 0.9, 1.1)),
]


class TestSeparableResample:
    @pytest.mark.parametrize("dims,spacing,new_spacing", _GRIDS)
    @pytest.mark.parametrize("method,order", [("trilinear", 1), ("tricubic", 3)])
    def test_image_matches_meshgrid_oracle(self, dims, spacing, new_spacing, method, order):
        data = np.random.default_rng(len(dims) * 100 + dims[0]).normal(100.0, 300.0, dims)
        out = resample_image(create_image(dims, spacing, data), new_spacing, method)
        out_dims, coords = _output_coordinates(dims, spacing, new_spacing)
        want = _meshgrid_oracle(data, coords, order)
        assert out.dims == out_dims == want.shape
        assert out.data.flags.f_contiguous
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-14 * scale)

    @pytest.mark.parametrize("dims,spacing,new_spacing", _GRIDS)
    def test_mask_bytes_equal_meshgrid_oracle(self, dims, spacing, new_spacing):
        # Besides 0.3, 0.5 and 1.0, thresholds equal to partial volumes the
        # oracle produces: a fraction one ulp off would move its voxel across.
        rng = np.random.default_rng(dims[0] * 10 + dims[-1])
        _, coords = _output_coordinates(dims, spacing, new_spacing)
        for fill in (0.3, 0.6, 0.9):
            membership = rng.uniform(size=dims) < fill
            fraction = _meshgrid_oracle(membership, coords, 1)
            values = np.unique(fraction[(fraction > 0.0) & (fraction <= 1.0)])
            picked = rng.choice(values, size=min(4, values.size), replace=False)
            for threshold in (0.3, 0.5, 1.0, *picked):
                out = resample_mask(RoiMask(membership), spacing, new_spacing, threshold)
                want = np.asfortranarray(fraction >= threshold)
                assert out.membership.tobytes() == want.tobytes(), threshold
                assert out.membership.flags.f_contiguous

    @pytest.mark.parametrize("order", [1, 3])
    def test_axis_taps_are_map_coordinates_own(self, order):
        # In 1-D the tap sum is map_coordinates' sum term for term, so the
        # indices and weights must reproduce it bit for bit, folds included.
        rng = np.random.default_rng(order)
        for n in range(1, 9):
            data = rng.normal(size=n)
            # divided by 3 so the fractions use every mantissa bit
            coord = rng.uniform(-4.5, 3.0 * n + 1.5, size=64) / 3.0
            coef = ndimage.spline_filter(data, order=3, mode="mirror") if order == 3 else data
            idx, weights = _axis_taps(coord, n, order)
            got = coef[idx[:, 0]] * weights[:, 0]
            for k in range(1, order + 1):
                got += coef[idx[:, k]] * weights[:, k]
            want = ndimage.map_coordinates(data, coord[None], order=order, mode="mirror")
            assert got.tobytes() == want.tobytes(), n

    def test_rounded_ct_noise_matches_oracle(self):
        # CT-like noise as the benchmark draws it, 28^3 at 2 mm onto 1 mm:
        # roundoff must not push a resampled value across a .5 boundary.
        flips, nearest = 0, 1.0
        for input_set in range(16):
            rng = np.random.default_rng([input_set, 0])
            data = np.rint(5.0 * np.clip(rng.normal(127.0, 48.0, (28, 28, 28)), 0.0, 255.0)
                           - 600.0)
            out = resample_image(create_image(data.shape, (2.0,) * 3, data), (1.0,) * 3,
                                 "tricubic")
            _, coords = _output_coordinates(data.shape, (2.0,) * 3, (1.0,) * 3)
            want = _meshgrid_oracle(data, coords, 3)
            flips += int(np.count_nonzero(round_half_away(out.data) != round_half_away(want)))
            nearest = min(nearest, float(np.min(np.abs(np.abs(want % 1.0) - 0.5))))
        print(f"rounded voxels flipped: {flips}; nearest value to a .5 boundary: {nearest:.3g}")
        assert flips == 0


_RESAMPLE_PROBE = """
import hashlib, sys
import numpy as np
from voxfilt.image import create_image
from voxfilt.pipeline import resample_image
data = np.random.default_rng(5).normal(100.0, 300.0, (13, 11, 9))
image = create_image(data.shape, (1.5, 1.5, 2.5), data)
digest = hashlib.sha256()
for method in ("tricubic", "trilinear"):
    digest.update(resample_image(image, (0.7, 2.1, 1.3), method).data.tobytes())
print(digest.hexdigest())
"""


def test_resampling_does_not_depend_on_simd_dispatch():
    results = digests_at_dispatch_levels(_RESAMPLE_PROBE)
    assert {digest for _, digest in results} == {results[0][1]}, results


def _scipy_prefilter(data):
    return ndimage.spline_filter(data, order=3, mode="mirror", output=np.float64)


class TestSplinePrefilter:
    # 1-D and 2-D inputs, axes of length 1, 2 and 3, an int16 and a
    # Fortran-ordered input
    _INPUTS = [
        ("28^3", lambda rng: rng.normal(size=(28, 28, 28))),
        ("5x1x3", lambda rng: rng.normal(size=(5, 1, 3))),
        ("2x7x4", lambda rng: rng.normal(size=(2, 7, 4))),
        ("3x2x1", lambda rng: rng.normal(100.0, 300.0, size=(3, 2, 1))),
        ("1-D", lambda rng: rng.normal(size=17)),
        ("1-D n=2", lambda rng: rng.normal(size=2)),
        ("1-D n=1", lambda rng: rng.normal(size=1)),
        ("2-D", lambda rng: rng.normal(size=(12, 3))),
        ("int16", lambda rng: rng.integers(-1000, 1400, size=(9, 6, 5)).astype(np.int16)),
        ("fortran", lambda rng: np.asfortranarray(rng.normal(-200.0, 300.0, size=(11, 8, 6)))),
    ]

    @pytest.mark.parametrize("name,make", _INPUTS, ids=[n for n, _ in _INPUTS])
    def test_matches_scipy(self, name, make):
        data = make(np.random.default_rng(list(name.encode())))
        want = _scipy_prefilter(data)
        got = _spline_prefilter(data)
        assert got.dtype == np.float64 and got.shape == data.shape
        assert got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=0, atol=4e-15 * np.max(np.abs(want)))

    def test_input_is_left_unchanged(self):
        for layout in (np.ascontiguousarray, np.asfortranarray):
            data = layout(np.random.default_rng(3).normal(size=(6, 5, 4)))
            before = data.copy(order="K")
            _spline_prefilter(data)
            assert data.tobytes() == before.tobytes()
            assert data.flags.f_contiguous == before.flags.f_contiguous


_PREFILTER_PROBE = """
import hashlib
import numpy as np
from voxfilt.pipeline import _spline_prefilter
digest = hashlib.sha256()
rng = np.random.default_rng(9)
for shape in ((28, 28, 28), (5, 1, 3), (2, 7, 4), (17,)):
    digest.update(_spline_prefilter(rng.normal(100.0, 300.0, shape)).tobytes())
print(digest.hexdigest())
"""


def test_prefilter_does_not_depend_on_simd_dispatch():
    results = digests_at_dispatch_levels(_PREFILTER_PROBE)
    assert {digest for _, digest in results} == {results[0][1]}, results


def _check_input():
    data = np.random.default_rng(101).normal(size=(14, 13, 9)) * 300.0 - 200.0
    image = create_image(data.shape, (1.5, 1.5, 2.5), data)
    return image, RoiMask(np.ones(image.dims, dtype=bool))


def _b_config_inputs():
    # the check input, and the volumetric benchmark's CT noise (input set 0)
    rng = np.random.default_rng([0, 0])
    ct = np.rint(5.0 * np.clip(rng.normal(127.0, 48.0, (28, 28, 28)), 0.0, 255.0) - 600.0)
    return [("check", _check_input()[0]), ("ct", create_image(ct.shape, (2.0, 2.0, 2.0), ct))]


def test_b_config_bytes_do_not_depend_on_the_prefilter(monkeypatch):
    # Rounding absorbs the roundoff between the numpy prefilter and scipy's.
    names = sorted(n for n in os.listdir(TestShippedConfigs._DIR) if n.endswith(".B.yaml"))
    configs = [(n, load_config(os.path.join(TestShippedConfigs._DIR, n))[1]) for n in names]
    configs = [(n, c) for n, c in configs if c.image_interpolation == "tricubic"]
    assert len(configs) == 11
    for label, image in _b_config_inputs():
        mask = RoiMask(np.ones(image.dims, dtype=bool))
        for name, config in configs:
            with monkeypatch.context() as patch:
                patch.setattr(voxfilt.pipeline, "_spline_prefilter", _scipy_prefilter)
                want, want_mask, want_features = run_configuration(image, mask, config)
            got, got_mask, got_features = run_configuration(image, mask, config)
            assert got.data.tobytes() == want.data.tobytes(), (label, name)
            assert got_mask.membership.tobytes() == want_mask.membership.tobytes(), (label, name)
            assert repr(got_features) == repr(want_features), (label, name)


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

    def test_none_range_keeps_mask(self):
        membership = np.zeros((2, 2, 2), dtype=bool)
        membership[0] = True
        image = _volume(np.full((2, 2, 2), 1e9))
        out = resegment(RoiMask(membership), image, None)
        np.testing.assert_array_equal(out.membership, membership)

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

    @pytest.mark.parametrize("value_range", [(math.nan, 400.0), (-1000.0, math.nan)],
                             ids=["nan-low", "nan-high"])
    def test_nan_bound_is_rejected(self, value_range):
        # tested only for low > high, a NaN bound gave an empty mask without an error
        image = _volume(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match=r"^resegment_hu must be a range neither "
                                             r"inverted nor NaN, got \["):
            resegment(RoiMask(np.ones((2, 2, 2), dtype=bool)), image, value_range)


class TestPlanFilter:
    def test_log_summary_uses_filtered_axes(self):
        filt = FilterConfig("log", {"sigma_mm": 1.5})
        plan = plan_filter(filt, (1.0, 1.0, 3.0), "2d")
        assert plan.summary == ("log filter: sigma 1.5 voxels, kernel size 13, "
                                "separable route (4 one-axis passes)")
        with pytest.raises(ValueError, match="isotropic"):
            plan_filter(filt, (1.0, 1.0, 3.0), "3d")

    @pytest.mark.parametrize("spacing", [(1.0, 1.0), (1.0, 1.0, 1.0, 1.0)])
    def test_2d_mode_needs_three_spacing_entries(self, spacing):
        with pytest.raises(ValueError, match="2d mode filters the slices of a 3-D volume"):
            plan_filter(FilterConfig("mean", {"support": 3}), spacing, "2d")

    def test_3d_run_rejects_a_volume_of_other_dimensionality(self):
        plan = plan_filter(FilterConfig("log", {"sigma_vox": 1.0}), (1.0, 1.0), "3d")
        assert plan.run(np.zeros((8, 8))).shape == (8, 8)
        with pytest.raises(ValueError, match="planned on 2-D spacing .* 3-D volume"):
            plan.run(np.zeros((8, 8, 8)))

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
        assert plan.run(np.zeros((9, 9, 9))).shape == (9, 9, 9)
        with pytest.raises(ValueError, match="isotropic"):
            plan_filter(filt, (1.0, 1.0, 2.0), "3d")

    def test_gabor_kernels_built_once_per_orientation(self, monkeypatch):
        import voxfilt.kernels
        import voxfilt.pipeline

        built = []

        def counting_kernel(params):
            built.append(params.theta)
            return gabor_kernel(params)

        monkeypatch.setattr(voxfilt.kernels, "gabor_kernel", counting_kernel)
        monkeypatch.setattr(voxfilt.pipeline, "gabor_kernel", counting_kernel, raising=False)
        filt = FilterConfig("gabor", {
            "sigma_vox": 2.0, "lambda_vox": 3.0, "gamma": 1.5, "rotation_invariance": True,
            "dtheta": np.pi / 8, "pool": "average", "orthogonal_planes": True,
        })
        image = _volume(np.random.default_rng(22).normal(size=(9, 8, 7)))
        out = apply_filter(image, filt, "3d", threads=2)
        assert out.shape == (9, 8, 7)
        assert built == [i * np.pi / 8 for i in range(8)]

    @pytest.mark.parametrize("dims,plane_shapes", [((9, 9, 9), 1), ((9, 8, 7), 3)],
                             ids=["cube", "box"])
    def test_gabor_transfers_built_once_per_plane_shape(self, monkeypatch, dims,
                                                        plane_shapes):
        import voxfilt.convolve

        grids = []

        def counting_transfer(kernel, grid):
            grids.append(tuple(grid))
            return kernel_to_transfer(kernel, grid)

        monkeypatch.setattr(voxfilt.convolve, "kernel_to_transfer", counting_transfer)
        filt = FilterConfig("gabor", {
            "sigma_vox": 1.0, "lambda_vox": 3.0, "rotation_invariance": True,
            "dtheta": np.pi / 4, "orthogonal_planes": True,
        })
        volume = np.random.default_rng(23).normal(size=dims)
        reference = None
        for first_threads in (1, 3):
            # built on a plan's first run; later runs reuse the plan's transfers
            plan = plan_filter(filt, (1.0, 1.0, 1.0), "3d")
            grids.clear()
            first = plan.run(volume, first_threads)
            assert len(grids) == 4 * plane_shapes
            assert len(set(grids)) == plane_shapes
            reference = first if reference is None else reference
            assert first.tobytes() == reference.tobytes()
            for threads in (1, 3):
                grids.clear()
                assert plan.run(volume, threads).tobytes() == first.tobytes()
                assert grids == []

    @pytest.mark.parametrize("params,built_per_shape", [
        ({"kind": "nonseparable", "wavelet": "shannon", "level": 1}, 1),
        ({"kind": "riesz", "wavelet": "simoncelli", "level": 1, "l": [1, 1]}, 2),
        ({"kind": "riesz", "wavelet": "shannon", "level": 1, "l": [0, 2], "align": True,
          "sigma_tensor_vox": 1.0}, 1 + 5),
    ], ids=["nonseparable", "riesz", "riesz-aligned"])
    def test_fourier_domain_transfers_built_once_per_slice_shape(self, monkeypatch, params,
                                                                 built_per_shape):
        import voxfilt.riesz
        import voxfilt.wavelets

        built = []

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                built.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(voxfilt.wavelets, "radial_transfer")
        counting(voxfilt.riesz, "radial_transfer")
        counting(voxfilt.riesz, "riesz_transfer")
        params = dict(params)
        filt = FilterConfig(params.pop("kind"), params)
        volume = np.random.default_rng(24).normal(size=(8, 9, 5))
        reference = None
        for first_threads in (1, 3):
            # built on a plan's first run; later runs reuse the plan's transfers
            plan = plan_filter(filt, (1.0, 1.0, 3.0), "2d")
            built.clear()
            first = plan.run(volume, first_threads)
            assert len(built) == built_per_shape
            reference = first if reference is None else reference
            np.testing.assert_array_equal(first, reference)
            for threads in (1, 3):
                built.clear()
                assert plan.run(volume, threads).tobytes() == first.tobytes()
                assert built == []

    def test_a_new_volume_shape_rebuilds_once_and_drops_the_old_one(self, monkeypatch):
        import voxfilt.convolve

        built = []

        def counting_transfer(kernel, grid):
            transfer = kernel_to_transfer(kernel, grid)
            built.append(weakref.ref(transfer))
            return transfer

        monkeypatch.setattr(voxfilt.convolve, "kernel_to_transfer", counting_transfer)
        filt = FilterConfig("gabor", {"sigma_vox": 1.0, "lambda_vox": 3.0, "theta": 0.4})
        plan = plan_filter(filt, (1.0, 1.0, 3.0), "2d")
        rng = np.random.default_rng(26)
        small, large = rng.normal(size=(8, 9, 3)), rng.normal(size=(10, 7, 3))
        kept = []
        for volume in (small, large, small):
            built.clear()
            first = plan.run(volume)
            assert len(built) == 1
            assert all(ref() is None for ref in kept)  # the previous shape's transfer is gone
            kept = list(built)
            assert plan.run(volume, 2).tobytes() == first.tobytes()
            assert len(built) == 1 and built[0]() is not None

    @pytest.mark.parametrize("threads", [1, 2])
    def test_2d_identity_copies_the_volume_without_slabs(self, monkeypatch, threads):
        def no_slabs(*args):
            raise AssertionError("the identity went through map_slices")

        monkeypatch.setattr(voxfilt.pipeline, "map_slices", no_slabs)
        volume = np.asfortranarray(np.random.default_rng(25).normal(size=(8, 9, 5)))
        out = plan_filter(FilterConfig("none", {}), (1.0, 1.0, 3.0), "2d").run(volume, threads)
        np.testing.assert_array_equal(out, volume)
        assert out.flags.f_contiguous and not np.shares_memory(out, volume)

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    def test_run_checks_threads_and_volume(self, mode):
        plan = plan_filter(FilterConfig("mean", {"support": 3}), (1.0, 1.0, 1.0), mode)
        with pytest.raises(ValueError, match="thread count"):
            plan.run(np.zeros((5, 5, 5)), threads=0)
        if mode == "2d":
            with pytest.raises(ValueError, match="3-D volume of slices"):
                plan.run(np.zeros((5, 5)))

    def test_rotation_invariant_gabor_needs_dtheta(self):
        filt = FilterConfig(
            "gabor", {"sigma_vox": 2.0, "lambda_vox": 3.0, "rotation_invariance": True}
        )
        with pytest.raises(ValueError, match="dtheta"):
            plan_filter(filt, (1.0, 1.0, 1.0), "2d")

    @pytest.mark.parametrize("boundary", ["mirror", "nearest", "periodise"])
    def test_constant_without_constant_boundary_rejected(self, boundary):
        filt = FilterConfig("mean", {"support": 3})
        with pytest.raises(ValueError, match="boundary_constant 2.5 applies only with "
                                             "boundary constant"):
            plan_filter(filt, (1.0, 1.0, 1.0), "3d", boundary, 2.5)
        with pytest.raises(ValueError, match="boundary_constant"):
            apply_filter(_volume(np.zeros((4, 4, 4))), filt, "3d", boundary, 2.5)
        assert plan_filter(filt, (1.0, 1.0, 1.0), "3d", "constant", 2.5).run(
            np.zeros((4, 4, 4)))[0, 0, 0] == pytest.approx(2.5 * 19 / 27)

    def test_route_is_not_a_filter_parameter(self):
        filt = FilterConfig("log", {"sigma_vox": 1.0, "via": "spatial"})
        with pytest.raises(ValueError, match="unknown parameters"):
            plan_filter(filt, (1.0, 1.0, 1.0), "3d")


def _spatial_gabor(volume, bank, pool_mode, boundary, constant):
    """Per-slice reference: the spatial route of convolve_full, pooled in bank order."""
    out = np.empty(volume.shape)
    for i in range(volume.shape[2]):
        out[:, :, i] = pool([np.abs(convolve_full(volume[:, :, i], k, boundary, constant))
                             for k in bank], pool_mode)
    return out


def _refuse_convolve_full(monkeypatch, what):
    """Make every voxfilt module's convolve_full raise."""
    original = voxfilt.convolve.convolve_full

    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} took the convolve_full route")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "voxfilt" and getattr(module, "convolve_full", None) is original:
            monkeypatch.setattr(module, "convolve_full", refuse)


class TestLogRoute:
    """The LoG plan runs as separable passes, never as its dense kernel."""

    @pytest.mark.parametrize("mode, passes", [("2d", 4), ("3d", 7)])
    def test_separable_passes_only(self, monkeypatch, mode, passes):
        _refuse_convolve_full(monkeypatch, "the LoG")
        calls = []
        original = voxfilt.convolve.axis_pass
        monkeypatch.setattr(voxfilt.convolve, "axis_pass",
                            lambda *args: calls.append(args[1]) or original(*args))
        plan = plan_filter(FilterConfig("log", {"sigma_vox": 1.5}), (1.0, 1.0, 1.0), mode)
        assert plan.summary.endswith(f"separable route ({passes} one-axis passes)")
        volume = np.random.default_rng(27).normal(size=(9, 8, 7))
        assert plan.run(volume).shape == (9, 8, 7)
        # in 2-D mode the 7 planes fit one slab, which is filtered as a stack
        assert len(calls) == passes

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    @pytest.mark.parametrize("boundary, constant", [("mirror", 0.0), ("constant", 0.7)])
    def test_matches_dense_kernel(self, mode, boundary, constant):
        volume = np.random.default_rng(28).normal(size=(11, 9, 6)) * 100
        plan = plan_filter(FilterConfig("log", {"sigma_vox": 1.2, "cutoff": 3.0}),
                           (1.0, 1.0, 1.0), mode, boundary, constant)
        got = plan.run(volume)
        if mode == "3d":
            want = convolve_full(volume, log_kernel(1.2, 3, 3.0), boundary, constant)
        else:
            kernel = log_kernel(1.2, 2, 3.0)
            want = np.stack([convolve_full(volume[:, :, i], kernel, boundary, constant)
                             for i in range(6)], axis=2)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_op_peak_memory(self):
        # the 3.B op at 56^3: the dense 13^3 kernel through the FFT peaked at
        # 12.2x the float64 input, the separable passes at 4.74x (bound: that
        # plus 10%)
        image = np.random.default_rng(42).normal(size=(56, 56, 56))
        plan = plan_filter(FilterConfig("log", {"sigma_mm": 1.5, "cutoff": 4.0}),
                           (1.0, 1.0, 1.0), "3d", "mirror")
        tracemalloc.start()
        try:
            plan.run(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.2 * image.nbytes, peak / image.nbytes


_LOG_CONFIG_PROBE = """
import hashlib, os, sys
import numpy as np
from voxfilt.image import RoiMask, create_image
from voxfilt.pipeline import load_config, run_configuration
data = np.random.default_rng(101).normal(size=(14, 13, 9)) * 300.0 - 200.0
image = create_image(data.shape, (1.5, 1.5, 2.5), data)
mask = RoiMask(np.ones(image.dims, dtype=bool))
digest = hashlib.sha256()
for name in ("3.A", "3.B"):
    _, config = load_config(os.path.join(sys.argv[1], name + ".yaml"))
    response, _, features = run_configuration(image, mask, config)
    digest.update(np.ascontiguousarray(response.data).tobytes())
    digest.update(repr(features).encode())
print(digest.hexdigest())
"""


def test_log_configs_do_not_depend_on_simd_dispatch():
    # 3.A and 3.B response and feature bytes on the check input: the taps are
    # math.exp samples and the passes are real multiply-adds
    configs = os.path.join(os.path.dirname(__file__), "..", "configs")
    results = digests_at_dispatch_levels(_LOG_CONFIG_PROBE, configs)
    assert {digest for _, digest in results} == {results[0][1]}, results


class TestGaborRoute:
    """The Gabor plan's per-slice FFT route against per-slice spatial convolution."""

    @staticmethod
    def _case(sigma, wavelength, gamma, dtheta, pool_mode, mode):
        params = {"sigma_vox": sigma, "lambda_vox": wavelength, "gamma": gamma,
                  "rotation_invariance": True, "dtheta": dtheta, "pool": pool_mode}
        if mode == "3d":
            params["orthogonal_planes"] = True
        bank = [gabor_kernel(GaborParams(sigma, wavelength, gamma, theta))
                for theta in gabor_orientation_set(dtheta)]
        return FilterConfig("gabor", params), bank

    @staticmethod
    def _assert_close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("pool_mode", ["max", "average"])
    @pytest.mark.parametrize("dims", [(9, 7, 3), (8, 10, 4)], ids=["odd", "even"])
    @pytest.mark.parametrize("boundary,constant",
                             [(m, 0.0) for m in BOUNDARY_MODES] + [("constant", 0.7)])
    def test_2d_mode_matches_spatial_route(self, boundary, constant, dims, pool_mode):
        filt, bank = self._case(1.5, 3.0, 1.2, np.pi / 4, pool_mode, "2d")
        assert bank[0].shape == (15, 15)
        volume = np.random.default_rng(24).normal(loc=0.5, size=dims)
        got = plan_filter(filt, (1.0, 1.0, 1.0), "2d", boundary, constant).run(volume)
        self._assert_close(got, _spatial_gabor(volume, bank, pool_mode, boundary, constant))

    @pytest.mark.parametrize("pool_mode", ["max", "average"])
    @pytest.mark.parametrize("boundary,constant", [("mirror", 0.0), ("constant", 0.7)])
    def test_orthogonal_planes_match_spatial_route(self, boundary, constant, pool_mode):
        # 5.B's kernel (61 taps) on slices smaller than the kernel, three plane shapes
        filt, bank = self._case(5.0, 2.0, 1.5, np.pi / 4, pool_mode, "3d")
        assert bank[0].shape == (61, 61)
        volume = np.random.default_rng(25).normal(loc=0.5, size=(12, 10, 9))
        got = plan_filter(filt, (1.0, 1.0, 1.0), "3d", boundary, constant).run(volume, 2)
        want = np.zeros(volume.shape)
        for axis in (2, 1, 0):
            stack = np.moveaxis(volume, axis, 2)
            want += np.moveaxis(_spatial_gabor(stack, bank, pool_mode, boundary, constant),
                                2, axis)
        self._assert_close(got, want / 3.0)

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    def test_never_calls_convolve_full(self, monkeypatch, mode):
        _refuse_convolve_full(monkeypatch, "Gabor")
        filt, _ = self._case(2.0, 3.0, 1.0, np.pi / 2, "average", mode)
        plan = plan_filter(filt, (1.0, 1.0, 1.0), mode)
        assert "FFT route" in plan.summary
        assert plan.run(np.ones((6, 6, 6)), 2).shape == (6, 6, 6)

    def test_orthogonal_planes_response_is_fortran_ordered(self):
        # 5.B's parameters; the run_configuration image it feeds is Fortran-ordered,
        # so an F-ordered response needs no layout copy there
        filt, _ = self._case(5.0, 2.0, 1.5, np.pi / 8, "average", "3d")
        volume = np.random.default_rng(26).normal(size=(7, 6, 5))
        assert plan_filter(filt, (1, 1, 1), "3d").run(volume).flags.f_contiguous


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

    def test_threads_do_not_change_results(self, monkeypatch):
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
        names.append("5.B.yaml")  # orthogonal plane stacks
        # slabs of 1 plane, of 3 planes (5 = 3 + 2), and the whole stack in one
        planes = {"1 plane": 12 * 11, "3 planes": 3 * 12 * 11, "whole stack": 10**9}
        for name in names:
            _, config = load_config(os.path.join(TestShippedConfigs._DIR, name))
            serial, _, serial_features = run_configuration(image, mask, config, threads=1)
            for slab, voxels in planes.items():
                monkeypatch.setattr(voxfilt.image, "_SLAB_VOXELS", voxels)
                # three threads share the slabs unevenly
                for threads in (1, 2, 3):
                    threaded, _, threaded_features = run_configuration(image, mask, config,
                                                                       threads=threads)
                    assert threaded.data.tobytes() == serial.data.tobytes(), (name, slab, threads)
                    assert threaded_features == serial_features, (name, slab, threads)
            monkeypatch.undo()

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

    def test_orthogonal_planes_rejected_in_2d(self):
        filt = FilterConfig("gabor", {"sigma_vox": 2.0, "lambda_vox": 3.0,
                                      "orthogonal_planes": True})
        with pytest.raises(ValueError, match="orthogonal_planes applies only in mode 3d"):
            plan_filter(filt, (1.0, 1.0, 1.0), "2d")
        filt = FilterConfig("gabor", {"sigma_vox": 2.0, "lambda_vox": 3.0,
                                      "orthogonal_planes": False})
        assert plan_filter(filt, (1.0, 1.0, 1.0), "2d").summary == plan_filter(
            FilterConfig("gabor", {"sigma_vox": 2.0, "lambda_vox": 3.0}), (1.0, 1.0, 1.0),
            "2d").summary

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
        from voxfilt.wavelets import RadialProfile, nonseparable_b_map

        rng = np.random.default_rng(10)
        image = _volume(rng.normal(size=(8, 8, 8)))
        out = apply_filter(
            image,
            FilterConfig("nonseparable", {"wavelet": "simoncelli", "level": 2}),
            "3d",
        )
        np.testing.assert_array_equal(
            out, nonseparable_b_map(image.data, RadialProfile("simoncelli", 2))
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

    @staticmethod
    def _aligned_chain(data, sigma_vox):
        from voxfilt.riesz import (
            RadialProfile,
            align_order2,
            riesz_filtered_map,
            riesz_indices,
            structure_tensor,
        )

        # every map from its own forward DFT, one index at a time
        profile = RadialProfile("simoncelli", 1)
        responses = [(l, riesz_filtered_map(data, profile, l))
                     for l in riesz_indices(2, data.ndim)]
        gradients = [riesz_filtered_map(data, profile, l) for l in riesz_indices(1, data.ndim)]
        return align_order2(responses, structure_tensor(gradients, sigma_vox))

    def test_riesz_aligned_dispatch_matches_library_chain(self):
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
        np.testing.assert_array_equal(out, self._aligned_chain(image.data, 1.0))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_riesz_aligned_slices_match_one_map_at_a_time(self, threads):
        # an 11.A-style stack: l (0, 2), 1 mm tensor scale on a 1 mm grid
        data = np.random.default_rng(14).normal(size=(20, 17, 5))
        filt = FilterConfig("riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2],
                                      "align": True, "sigma_tensor_mm": 1.0})
        out = plan_filter(filt, (1.0, 1.0, 3.0), "2d", "mirror").run(data, threads)
        want = np.stack([self._aligned_chain(data[:, :, k], 1.0) for k in range(5)], axis=2)
        assert out.tobytes() == want.tobytes()

    def test_riesz_aligned_volume_matches_one_map_at_a_time(self):
        data = np.random.default_rng(16).normal(size=(56, 56, 56))
        assert data.size >= 5 * voxfilt.riesz._BLOCK_VOXELS
        filt = FilterConfig("riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0],
                                      "align": True, "sigma_tensor_mm": 1.0})
        out = plan_filter(filt, (1.0, 1.0, 1.0), "3d", "mirror").run(data)
        assert out.tobytes() == self._aligned_chain(data, 1.0).tobytes()

    def test_riesz_aligned_voxel_sigma_is_used_as_given(self):
        # 1.5 voxels on a 0.7 mm grid must not pass through millimetres,
        # where 1.5 * 0.7 / 0.7 rounds to 1.4999999999999998
        data = np.random.default_rng(13).normal(size=(8, 8, 8))
        filt = FilterConfig("riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0],
                                      "align": True, "sigma_tensor_vox": 1.5})
        plan = plan_filter(filt, (0.7, 0.7, 0.7), "3d", "periodise")
        assert "sigma 1.5 voxels" in plan.summary
        np.testing.assert_array_equal(plan.run(data), self._aligned_chain(data, 1.5))

    def test_riesz_aligned_3d_takes_one_forward_fft(self, monkeypatch):
        calls = []

        def counting(transform):
            def wrapper(*args, **kwargs):
                calls.append(np.shape(args[0]))
                return transform(*args, **kwargs)
            return wrapper

        # forward transforms of either kind: the maps run on the half spectrum
        for name in ("fftn", "rfftn"):
            monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
        image = _volume(np.random.default_rng(12).normal(size=(8, 8, 8)))
        apply_filter(
            image,
            FilterConfig("riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0],
                                   "align": True, "sigma_tensor_mm": 2.0}),
            "3d",
        )
        # one spectrum for the six order-2 maps and the three gradients
        assert calls == [(8, 8, 8)]
        calls.clear()
        apply_filter(
            _volume(image.data[:, :, :3]),
            FilterConfig("riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2],
                                   "align": True, "sigma_tensor_mm": 2.0}),
            "2d",
        )
        # one stacked spectrum for the slab of three planes
        assert calls == [(3, 8, 8)]

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

    @pytest.mark.parametrize("l", [[0, 2000, 0], [1000, 1000, 0], [0, 0, 65], [65, 0]])
    def test_riesz_order_is_bounded(self, l):
        # unbounded, [0, 2000, 0] runs to an all-NaN map and [1000, 1000, 0]
        # to an OverflowError in the multinomial coefficient
        filt = FilterConfig("riesz", {"wavelet": "simoncelli", "level": 1, "l": l})
        spacing = (2.0,) * 3
        with pytest.raises(ValueError, match=r"\bl\b.*order 1 <= \|l\| <= 64"):
            plan_filter(filt, spacing, "3d" if len(l) == 3 else "2d", "periodise")

    def test_riesz_orders_up_to_the_bound_plan_and_run(self):
        image = _volume(np.random.default_rng(16).normal(size=(8, 8, 8)))
        for l in ([1, 0, 0], [0, 2, 0], [0, 0, 64], [20, 22, 22]):
            filt = FilterConfig("riesz", {"wavelet": "simoncelli", "level": 1, "l": l})
            assert np.isfinite(apply_filter(image, filt, "3d", "periodise")).all(), l

    @pytest.mark.parametrize("kind,params,stem", [
        ("nonseparable", {"wavelet": "simoncelli", "level": 1},
         "nonseparable filter: simoncelli B map level 1"),
        ("riesz", {"wavelet": "shannon", "level": 2, "l": [1, 1, 0]},
         "riesz filter: shannon level 2 l (1, 1, 0)"),
        ("riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0], "align": True,
                   "sigma_tensor_vox": 1.5},
         "riesz filter: simoncelli level 1 l (0, 2, 0), aligned with structure tensor "
         "sigma 1.5 voxels, kernel size 13"),
    ], ids=["nonseparable", "riesz", "riesz-aligned"])
    def test_fourier_domain_summary_names_applied_boundary(self, kind, params, stem):
        filt = FilterConfig(kind, params)
        plan = plan_filter(filt, (2.0, 2.0, 2.0), "3d", "periodise")
        assert plan.summary == f"{stem}, boundary periodise"
        for requested in ("mirror", "constant", "nearest"):
            plan = plan_filter(filt, (2.0, 2.0, 2.0), "3d", requested)
            assert plan.summary == f"{stem}, boundary periodise (requested {requested})"

    @pytest.mark.parametrize("kind,params", [
        ("nonseparable", {"wavelet": "simoncelli", "level": 1}),
        ("riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0]}),
        ("riesz", {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0], "align": True,
                   "sigma_tensor_mm": 2.0}),
    ], ids=["nonseparable", "riesz", "riesz-aligned"])
    def test_fourier_domain_filters_reject_a_boundary_constant(self, kind, params):
        # they periodise, so a constant would leave the response unchanged
        with pytest.raises(ValueError, match="boundary_constant 5.0 would be ignored"):
            plan_filter(FilterConfig(kind, params), (1.0, 1.0, 1.0), "3d", "constant", 5.0)

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

    def test_statistics_read_the_fortran_ordered_response(self, monkeypatch):
        # a 3-D mean filter returns a C-ordered array; the statistics get the
        # response's Fortran copy, the one the caller receives
        import voxfilt.pipeline

        seen = []

        def recording(data, membership):
            seen.append(data)
            return intensity_statistics(data, membership)

        monkeypatch.setattr(voxfilt.pipeline, "intensity_statistics", recording)
        image, mask = self._ct_like()
        config = ProcessingConfig(mode="3d", filter=FilterConfig("mean", {"support": 3}))
        response, _, _ = run_configuration(image, mask, config)
        (data,) = seen
        assert data is response.data
        assert data.flags.f_contiguous

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
        from voxfilt.rotinv import equivariant_cascades, pool

        kernel_set, _ = equivariant_cascades([[laws_1d("L5")], [laws_1d("E5")], [laws_1d("E5")]])
        pooled = pool(
            [convolve_separable(image.data, [g for (g,) in element], "mirror")
             for element in kernel_set], "max"
        )
        want = laws_energy(pooled, 2, "mirror")
        np.testing.assert_array_equal(response.data, want)

    @pytest.mark.parametrize("config", [
        ProcessingConfig(mode="2d", filter=FilterConfig("none"),
                         reseg_range=(-1000.0, 400.0)),
        ProcessingConfig(mode="3d", filter=FilterConfig("mean", {"support": 3}),
                         resample_spacing_mm=(1.0, 1.0, 1.0),
                         image_interpolation="trilinear", rounding=True,
                         reseg_range=(-1000.0, 400.0)),
    ], ids=["2d-none", "3d-resampled-mean"])
    def test_features_do_not_depend_on_mask_layout(self, config):
        image, mask = self._ct_like(dims=(9, 8, 7))
        membership = mask.membership.copy()
        membership[3, 2:5, 1] = False
        features = [
            [repr(f.value) for f in run_configuration(image, RoiMask(layout(membership)),
                                                      config)[2]]
            for layout in (np.ascontiguousarray, np.asfortranarray)
        ]
        assert features[0] == features[1]

    def test_mask_dim_mismatch(self):
        image, _ = self._ct_like()
        bad_mask = RoiMask(np.ones((3, 3, 3), dtype=bool))
        config = ProcessingConfig(mode="3d", filter=FilterConfig("none"))
        with pytest.raises(ValueError, match="dims"):
            run_configuration(image, bad_mask, config)

    def test_bad_filter_fails_before_resampling(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return resample_image(*args)

        monkeypatch.setattr(voxfilt.pipeline, "resample_image", counting)
        image, mask = self._ct_like(dims=(8, 8, 8))
        config = ProcessingConfig(mode="3d",
                                  filter=FilterConfig("log", {"sigma_mm": 1.0, "support": 3}),
                                  resample_spacing_mm=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="unknown parameters"):
            run_configuration(image, mask, config)
        assert calls == []

    def test_2d_mode_on_a_2d_image_fails_before_resampling(self, monkeypatch):
        calls = []
        monkeypatch.setattr(voxfilt.pipeline, "resample_image", lambda *a: calls.append(a))
        image = VolumeImage(np.zeros((8, 8)), (1.0, 1.0))
        config = ProcessingConfig(mode="2d", filter=FilterConfig("mean", {"support": 3}),
                                  resample_spacing_mm=(0.5, 0.5))
        with pytest.raises(ValueError, match=r"2d mode filters the slices of a 3-D volume, "
                                             r"so it needs 3 spacing entries, got \(0.5, 0.5\)"):
            run_configuration(image, RoiMask(np.ones((8, 8), dtype=bool)), config)
        assert calls == []

    def test_plan_checks_the_resampled_grid_against_the_image(self):
        config = ProcessingConfig(mode="3d", filter=FilterConfig("none"),
                                  resample_spacing_mm=(1.0, 1.0))
        with pytest.raises(ValueError, match=r"needs one entry per image axis \(3\)"):
            config.plan((2.0, 2.0, 2.0))
        assert config.plan((2.0, 2.0)).summary == "none filter: identity"

    def test_plan_sees_the_resampled_grid(self):
        config = ProcessingConfig(mode="3d", filter=FilterConfig("log", {"sigma_mm": 2.0}),
                                  resample_spacing_mm=(0.5, 0.5, 0.5))
        assert config.plan((2.0, 2.0, 2.0)).summary.startswith("log filter: sigma 4 voxels")


def _digests(result):
    response, _, features = result
    return (hashlib.sha256(np.ascontiguousarray(response.data).tobytes()).hexdigest(),
            hashlib.sha256(repr(features).encode()).hexdigest())


class TestSavedPlan:
    """A configuration keeps the plan for its last grid, and a plan its
    transfers for the last volume shape it mapped over planes."""

    _GABOR = {"sigma_mm": 1.5, "lambda_mm": 3.0, "theta": 0.3}

    @staticmethod
    def _count_plans(monkeypatch):
        grids = []

        def counting(filt, spacing, *args):
            grids.append(tuple(spacing))
            return plan_filter(filt, spacing, *args)

        monkeypatch.setattr(voxfilt.pipeline, "plan_filter", counting)
        return grids

    def test_one_config_plans_once_per_grid(self, monkeypatch):
        grids = self._count_plans(monkeypatch)
        image, mask = _check_input()
        config = ProcessingConfig(mode="2d", filter=FilterConfig("gabor", self._GABOR))
        first = run_configuration(image, mask, config)
        assert _digests(run_configuration(image, mask, config)) == _digests(first)
        assert grids == [(1.5, 1.5, 2.5)]
        # an A config plans on the image's grid: another spacing replaces the plan
        plan = config.plan(image.spacing)
        assert config.plan((2.0, 2.0, 2.5)) is not plan
        assert config.plan(image.spacing) is not plan
        assert grids == [(1.5, 1.5, 2.5), (2.0, 2.0, 2.5), (1.5, 1.5, 2.5)]
        # a resampling config plans on its own grid, whatever the image's
        grids.clear()
        resampled = ProcessingConfig(mode="3d", filter=FilterConfig("mean", {"support": 3}),
                                     resample_spacing_mm=(1.0, 1.0, 1.0))
        assert resampled.plan((1.5, 1.5, 2.5)) is resampled.plan((2.0, 2.0, 2.0))
        assert grids == [(1.0, 1.0, 1.0)]

    def test_copies_start_without_a_saved_plan(self, monkeypatch):
        grids = self._count_plans(monkeypatch)
        config = ProcessingConfig(mode="2d", filter=FilterConfig("gabor", self._GABOR))
        plan = config.plan((1.0, 1.0, 2.0))
        for copy in (dataclasses.replace(config), pickle.loads(pickle.dumps(config))):
            assert copy == config
            assert copy.plan((1.0, 1.0, 2.0)) is not plan
        assert config.plan((1.0, 1.0, 2.0)) is plan
        assert len(grids) == 3

    def test_a_filter_keeps_its_plan_across_apply_filter_calls(self, monkeypatch):
        grids = self._count_plans(monkeypatch)
        filt = FilterConfig("mean", {"support": 3})
        data = np.random.default_rng(29).normal(size=(6, 5, 4))
        first = apply_filter(_volume(data, (1.0, 1.0, 1.0)), filt, "3d")
        again = apply_filter(_volume(data, (1.0, 1.0, 1.0)), filt, "3d")
        assert again.tobytes() == first.tobytes()
        assert len(grids) == 1
        # a new spacing, mode, boundary or constant replans, once
        variants = [((2.0, 2.0, 2.0), "3d"), ((1.0, 1.0, 1.0), "2d"),
                    ((1.0, 1.0, 1.0), "3d", "nearest"), ((1.0, 1.0, 1.0), "3d", "constant", 2.5)]
        for count, (spacing, *args) in enumerate(variants, start=2):
            for _ in range(2):
                apply_filter(_volume(data, spacing), filt, *args)
            assert len(grids) == count
        plan = filt.plan((1.0, 1.0, 1.0), "3d", "constant", 2.5)
        copy = pickle.loads(pickle.dumps(filt))
        assert copy == filt and copy.plan((1.0, 1.0, 1.0), "3d", "constant", 2.5) is not plan
        assert len(grids) == 6

    def test_editing_the_params_dict_after_a_run_changes_nothing(self):
        params = dict(self._GABOR)
        config = ProcessingConfig(mode="2d", filter=FilterConfig("gabor", params))
        image, mask = _check_input()
        first = run_configuration(image, mask, config)
        summary = config.plan(image.spacing).summary
        params.update(sigma_mm=2.5, theta=1.0)
        assert _digests(run_configuration(image, mask, config)) == _digests(first)
        assert config.plan(image.spacing).summary == summary
        assert config.filter.params == self._GABOR

    @pytest.mark.parametrize("threads", [1, 2])
    def test_repeated_runs_keep_every_config_bytes(self, threads):
        image, mask = _check_input()
        names = sorted(os.listdir(TestShippedConfigs._DIR))
        assert len(names) == 22
        for name in names:
            path = os.path.join(TestShippedConfigs._DIR, name)
            want = _digests(run_configuration(image, mask, load_config(path)[1], threads))
            config = load_config(path)[1]
            for _ in range(2):
                assert _digests(run_configuration(image, mask, config, threads)) == want, name

    def test_one_plan_runs_from_several_threads(self, monkeypatch):
        # more Python threads than cores, switching often, all on one shape
        built = collections.Counter()

        def counting_transfer(kernel, grid):
            built[tuple(grid), kernel.tobytes()] += 1
            return kernel_to_transfer(kernel, grid)

        filt = FilterConfig("gabor", {"sigma_vox": 1.0, "lambda_vox": 3.0,
                                      "rotation_invariance": True, "dtheta": np.pi / 4})
        volume = np.random.default_rng(28).normal(size=(9, 8, 6))
        serial = plan_filter(filt, (1.0, 1.0, 3.0), "2d").run(volume)
        class SlowCache(voxfilt.convolve.TransferCache):
            def __init__(self):  # widens the window between finding no cache and storing one
                time.sleep(0.01)
                super().__init__()

        monkeypatch.setattr(voxfilt.convolve, "kernel_to_transfer", counting_transfer)
        monkeypatch.setattr(voxfilt.pipeline, "TransferCache", SlowCache)
        plan = plan_filter(filt, (1.0, 1.0, 3.0), "2d")
        count = 4
        barrier = threading.Barrier(count)
        results = [None] * count

        def work(slot):
            barrier.wait(timeout=60)
            results[slot] = plan.run(volume, 2)

        workers = [threading.Thread(target=work, args=(slot,)) for slot in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert [r.tobytes() for r in results] == [serial.tobytes()] * count
        assert len(built) == 4 and set(built.values()) == {1}


class TestNonFiniteVoxels:
    """A VolumeImage built directly skips create_image's check, so every
    filter path checks the volume it is handed: a NaN voxel used to leave
    the intensity mask silently and turn responses and features NaN."""

    @staticmethod
    def _image(bad):
        data = np.random.default_rng(1).normal(size=(10, 10, 6)) * 300.0 - 200.0
        data[4, 5, 3] = bad
        return VolumeImage(np.asfortranarray(data), (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_run_configuration_rejects_2d(self, bad):
        _, config = load_config(os.path.join(TestShippedConfigs._DIR, "2.A.yaml"))
        mask = RoiMask(np.ones((10, 10, 6), dtype=bool))
        with pytest.raises(ValueError, match=r"^1 of 600 voxels are not finite \(NaN or inf"):
            run_configuration(self._image(bad), mask, config)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_run_configuration_rejects_3d_before_resampling(self, bad, monkeypatch):
        # 2.B's tricubic prefilter would carry the bad voxel to every voxel of
        # its 1 mm grid, and the run would then fail as an empty ROI instead
        _, config = load_config(os.path.join(TestShippedConfigs._DIR, "2.B.yaml"))
        image = VolumeImage(self._image(bad).data, (2.0, 2.0, 2.0))
        mask = RoiMask(np.ones((10, 10, 6), dtype=bool))
        calls = []
        monkeypatch.setattr(voxfilt.pipeline, "resample_image", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=r"^1 of 600 voxels are not finite"):
            run_configuration(image, mask, config)
        assert calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("mode", ["2d", "3d"])
    def test_apply_filter_and_plan_run_reject(self, bad, mode):
        image = self._image(bad)
        filt = FilterConfig("mean", {"support": 3})
        with pytest.raises(ValueError, match=r"^1 of 600 voxels are not finite"):
            apply_filter(image, filt, mode)
        plan = plan_filter(filt, image.spacing, mode)
        with pytest.raises(ValueError, match=r"^1 of 600 voxels are not finite"):
            plan.run(image.data, threads=2)

    def test_plan_run_rejects_a_bare_2d_plane(self):
        plane = np.zeros((10, 10))
        plane[0, 0] = np.inf
        plan = plan_filter(FilterConfig("log", {"sigma_vox": 1.0}), (1.0, 1.0), "3d")
        with pytest.raises(ValueError, match=r"^1 of 100 voxels are not finite"):
            plan.run(plane)


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

    def test_every_field_but_the_filter_is_a_table_setting(self):
        # so a new field cannot bypass the checks of _CONFIG
        fields = {f.name for f in dataclasses.fields(ProcessingConfig)} - {"filter"}
        assert fields == {name for name, _ in voxfilt.pipeline._CONFIG.values()}

    def test_choices_are_read_in_any_case(self):
        config = ProcessingConfig(mode="3D", filter=FilterConfig("Mean", {"support": 3}),
                                  boundary="Periodise", image_interpolation="TriLinear")
        assert (config.mode, config.filter.kind, config.boundary,
                config.image_interpolation) == ("3d", "mean", "periodise", "trilinear")

    def test_open_resegmentation_range_is_kept(self):
        config = ProcessingConfig(mode="3d", filter=FilterConfig("none"),
                                  reseg_range=(-np.inf, np.inf))
        assert config.reseg_range == (-np.inf, np.inf)


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

    @pytest.mark.parametrize("line", ["test_id:\n", "test_id: null\n", ""],
                             ids=["empty", "null", "missing"])
    def test_null_or_missing_test_id_is_empty(self, tmp_path, line):
        path = tmp_path / "c.yaml"
        path.write_text(line + "mode: 2d\nfilter:\n  kind: none\n")
        assert load_config(path)[0] == ""

    @pytest.mark.parametrize("value,loaded", [("1.10", "1.1"), ("7", "7"), ("true", "True")])
    def test_non_string_test_id_is_rejected(self, tmp_path, value, loaded):
        path = tmp_path / "c.yaml"
        path.write_text(f"test_id: {value}\nmode: 2d\nfilter:\n  kind: none\n")
        with pytest.raises(ValueError, match=f"test_id must be a string, got {loaded}; "
                                             "put it in quotes"):
            load_config(path)
        path.write_text(f"test_id: '{value}'\nmode: 2d\nfilter:\n  kind: none\n")
        assert load_config(path)[0] == value

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

    @pytest.mark.parametrize("value", ['"false"', '"true"', "1", "0", "null"])
    def test_rounding_must_be_a_bool(self, tmp_path, value):
        # a quoted "false" is a non-empty string and used to turn rounding on
        path = tmp_path / "bad.yaml"
        path.write_text("mode: 3d\nresample:\n  spacing_mm: [1, 1, 1]\n"
                        f"  rounding: {value}\nfilter:\n  kind: none\n")
        with pytest.raises(ValueError, match="rounding must be true or false, got"):
            load_config(path)

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path, monkeypatch):
        path = tmp_path / "min.yaml"
        path.write_text("mode: 2d\nfilter:\n  kind: mean\n  support: 3\n")
        _, config = load_config(path)
        assert config == ProcessingConfig(mode="2d", filter=FilterConfig("mean", {"support": 3}))
        # the defaults live in ProcessingConfig alone: load_config passes only the
        # keys the file holds
        passed = []
        monkeypatch.setattr(voxfilt.pipeline, "ProcessingConfig",
                            lambda **fields: passed.append(sorted(fields)))
        load_config(path)
        assert passed == [["filter", "mode"]]

    @pytest.mark.parametrize("key,value", [("image_interpolation", "trilinear"),
                                           ("mask_threshold", 0.25)])
    def test_resample_option_without_spacing_rejected(self, tmp_path, key, value):
        path = tmp_path / "bad.yaml"
        path.write_text(f"mode: 3d\nresample:\n  spacing_mm: null\n  {key}: {value}\n"
                        "filter:\n  kind: none\n")
        with pytest.raises(ValueError, match=f"resample block's {key} applies only with a "
                                             "spacing_mm"):
            load_config(path)

    def test_rounding_without_spacing_accepted(self, tmp_path):
        path = tmp_path / "round.yaml"
        path.write_text("mode: 3d\nresample:\n  spacing_mm: null\n  rounding: true\n"
                        "filter:\n  kind: none\n")
        _, config = load_config(path)
        assert config.rounding is True and config.resample_spacing_mm is None

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
            config.plan((1.0, 1.0, 1.0))  # every shipped Riesz order is within the bound

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

    # Minimal valid filters: together a kind's rows give every key of its table.
    _VALID = {
        "none": [{}],
        "mean": [{"support": 3}],
        "log": [{"sigma_mm": 2.0, "cutoff": 4.0}, {"sigma_vox": 1.0}],
        "laws": [{"kernels": "L5E5E5", "rotation_invariance": True, "pool": "max",
                  "energy_delta": 1}],
        "gabor": [{"sigma_mm": 4.0, "lambda_mm": 4.0, "gamma": 1.5, "theta": 0.5,
                   "orthogonal_planes": True},
                  {"sigma_vox": 2.0, "lambda_vox": 2.0, "rotation_invariance": True,
                   "dtheta": np.pi / 4, "pool": "max", "orthogonal_planes": True}],
        "wavelet": [{"family": "haar", "level": 1, "subband": "LLH",
                     "rotation_invariance": True, "pool": "max"},
                    {"family": "haar", "level": 1, "subband": "LLH", "decimated": True}],
        "nonseparable": [{"wavelet": "simoncelli", "level": 1}],
        "riesz": [{"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0], "align": True,
                   "sigma_tensor_mm": 2.0},
                  {"wavelet": "simoncelli", "level": 1, "l": [0, 2, 0], "align": True,
                   "sigma_tensor_vox": 1.0}],
    }
    _MALFORMED = (None, True, False, 0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, 1e300,
                  "x", [], {})

    def test_each_malformed_filter_value_fails_cleanly(self, tmp_path):
        # Every key of every kind's parameter table, set to each malformed value on a
        # valid filter, raises a ValueError naming the key (never an OverflowError,
        # ZeroDivisionError or TypeError) or plans with no nan or inf in its summary.
        tables = {kind: set(keys) for kind, (_, keys) in voxfilt.pipeline._PLANNERS.items()}
        assert {kind: set().union(*rows) for kind, rows in self._VALID.items()} == tables
        for kind, rows in self._VALID.items():
            for row in rows:
                plan_filter(FilterConfig(kind, row), (2.0, 2.0, 2.0), "3d")
                for key, value in itertools.product(row, self._MALFORMED):
                    filt = FilterConfig(kind, {**row, key: value})
                    try:
                        summary = plan_filter(filt, (2.0, 2.0, 2.0), "3d").summary
                    except ValueError as exc:
                        assert re.search(rf"\b{key}\b", str(exc)), (kind, key, value, exc)
                        continue
                    assert "nan" not in summary and "inf" not in summary, (kind, key, value)
        # every configuration setting set to each malformed value raises a ValueError
        # naming the key, or loads; a resample key sits in a block with a spacing
        path = tmp_path / "bad.yaml"
        for key, value in itertools.product(voxfilt.pipeline._CONFIG, self._MALFORMED):
            block, _, name = key.rpartition(".")
            raw = {"mode": "3d", "filter": {"kind": "none"}}
            if block:
                raw[block] = {"spacing_mm": [1, 1, 1], name: value}
            else:
                raw[name] = value
            path.write_text(yaml.safe_dump(raw))
            try:
                load_config(path)
            except ValueError as exc:
                assert re.search(rf"\b{name}\b", str(exc)), (key, value, exc)
        # a YAML value of the wrong type gives a ValueError, never a TypeError, and a
        # kind that is not a filter's name never plans (null used to read as "none")
        for name in sorted(os.listdir(self._DIR)):
            with open(os.path.join(self._DIR, name)) as handle:
                raw = yaml.safe_load(handle)
            for key in raw["filter"]:
                for value in (None, 2, [], "x", {}):
                    path.write_text(yaml.safe_dump({**raw, "filter": {**raw["filter"],
                                                                      key: value}}))
                    try:
                        load_config(path)[1].plan((2.0, 2.0, 2.0))
                    except ValueError:
                        continue
                    assert key != "kind", (name, value)

    def test_readme_names_every_filter_parameter(self):
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as handle:
            readme = handle.read()
        keys = (*FILTER_PARAMETERS, *voxfilt.pipeline._CONFIG)
        assert [key for key in keys if f"`{key}`" not in readme] == []

    @pytest.mark.parametrize("kind", sorted(_VALID))
    def test_unknown_boundary_is_rejected_before_planning(self, monkeypatch, kind):
        # the Fourier-domain filters used to plan and run with it, logging "boundary
        # periodise (requested bogus)", and the spatial ones failed only inside pad
        image = _volume(np.zeros((8, 8, 8)))
        rows = [FilterConfig(kind, row) for row in self._VALID[kind]]
        for filt in rows:
            plan_filter(filt, image.spacing, "3d", "Periodise")
        planner, specs = voxfilt.pipeline._PLANNERS[kind]
        monkeypatch.setitem(voxfilt.pipeline._PLANNERS, kind, (None, specs))
        for filt in rows:
            for call in (lambda: plan_filter(filt, image.spacing, "3d", "bogus"),
                         lambda: apply_filter(image, filt, "3d", "bogus")):
                with pytest.raises(ValueError, match=r"^boundary must be one of "
                                                     r"\('constant', .*\), got 'bogus'$"):
                    call()

    def test_unknown_keys_of_two_types_are_named(self):
        filt = FilterConfig("mean", {"support": 3, 3: "x", "a": 1})
        with pytest.raises(ValueError, match=r"unknown parameters \[3, 'a'\]"):
            plan_filter(filt, (1.0, 1.0, 1.0), "3d")
