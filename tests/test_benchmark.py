import math

import numpy as np
import pytest

from voxfilt.benchmark import (
    CONSENSUS_LEVELS,
    PHANTOM_KINDS,
    compare_maps,
    consensus,
    consensus_level,
    generate_phantom,
)
from voxfilt.image import VolumeImage

from oracles import euler_matrix, rotate_grid


class TestPhantomBasics:
    @pytest.mark.parametrize("kind", PHANTOM_KINDS)
    def test_range_dims_spacing(self, kind):
        phantom = generate_phantom(kind, seed=7)
        want_dims = (32, 48, 64) if kind == "orientation" else (64, 64, 64)
        assert phantom.dims == want_dims
        assert phantom.spacing == (2.0, 2.0, 2.0)
        assert phantom.data.dtype == np.float64
        assert phantom.data.min() >= 0.0
        assert phantom.data.max() <= 255.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown phantom kind"):
            generate_phantom("cube")

    def test_empty(self):
        assert not np.any(generate_phantom("empty").data)

    def test_impulse(self):
        data = generate_phantom("impulse").data
        nonzero = np.argwhere(data != 0.0)
        assert nonzero.shape == (1, 3)
        assert tuple(nonzero[0]) == (32, 32, 32)
        assert data[32, 32, 32] == 255.0


class TestCheckerboard:
    def test_binary_values(self):
        data = generate_phantom("checkerboard").data
        assert set(np.unique(data)) == {0.0, 255.0}

    def test_cube_layout(self):
        data = generate_phantom("checkerboard").data
        assert np.all(data[:16, :16, :16] == 255.0)
        assert np.all(data[16:32, :16, :16] == 0.0)
        assert np.all(data[16:32, 16:32, :16] == 255.0)


class TestNoise:
    def test_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            generate_phantom("noise")

    def test_deterministic(self):
        a = generate_phantom("noise", seed=11).data
        b = generate_phantom("noise", seed=11).data
        np.testing.assert_array_equal(a, b)
        c = generate_phantom("noise", seed=12).data
        assert np.any(a != c)

    def test_moments(self):
        data = generate_phantom("noise", seed=5).data
        assert abs(data.mean() - 127.0) < 1.0
        assert abs(data.std() - 48.0) < 1.0


class TestSphere:
    def test_no_directionality(self):
        data = generate_phantom("sphere").data
        for quarters in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 3)]:
            turned = rotate_grid(data, euler_matrix(quarters))
            np.testing.assert_array_equal(turned, data)

    def test_hull_membership(self):
        data = generate_phantom("sphere").data
        # (39, 31, 31) sits 7.53 voxels from the centre: on the radius-8 hull.
        assert data[39, 31, 31] == 255.0
        # The exact centre is far from every hull.
        assert data[31, 31, 31] == 0.0
        assert data[32, 32, 32] == 0.0


class TestPatterns:
    def test_pattern1_perpendicular_cross(self):
        data = generate_phantom("pattern1").data
        assert np.all(data[:, 32, 32] == 255.0)
        assert np.all(data[32, :, 32] == 255.0)
        assert np.all(data[32, 32, :] == 255.0)
        assert np.count_nonzero(data) == 3 * 64 - 2

    def test_pattern2_parallel(self):
        data = generate_phantom("pattern2").data
        for off in (-16, 0, 16):
            assert np.all(data[32 + off, 32 + off, :] == 255.0)
        assert np.count_nonzero(data) == 3 * 64

    def test_pattern3_mixed(self):
        data = generate_phantom("pattern3").data
        assert np.all(data[16, 32, :] == 255.0)
        assert np.all(data[48, 32, :] == 255.0)
        assert np.all(data[:, 32, 32] == 255.0)
        assert np.count_nonzero(data) == 3 * 64 - 2


class TestOrientation:
    def test_corner_values(self):
        data = generate_phantom("orientation").data
        assert data[0, 0, 0] == 0.0
        assert data[31, 47, 63] == 141.0
        assert data.max() == 141.0

    def test_monotone_along_axes(self):
        data = generate_phantom("orientation").data
        assert np.all(np.diff(data, axis=0) > 0)
        assert np.all(np.diff(data, axis=1) > 0)
        assert np.all(np.diff(data, axis=2) > 0)

    def test_index_sum(self):
        data = generate_phantom("orientation").data
        assert data[3, 10, 20] == 33.0


class TestCompareMaps:
    def test_identical(self):
        a = np.arange(27.0).reshape(3, 3, 3)
        diff, passing, fraction = compare_maps(a, a, 0.0)
        assert fraction == 1.0
        assert np.all(passing)
        np.testing.assert_array_equal(diff, 0.0)

    def test_single_voxel_mismatch(self):
        ref = generate_phantom("empty").data.copy()
        cand = ref.copy()
        cand[1, 2, 3] = 5.0
        _, _, fraction = compare_maps(cand, ref, 1e-6)
        assert fraction == pytest.approx(1.0 - 1.0 / 262144)

    def test_everything_fails_at_zero_tolerance(self):
        ref = np.zeros((4, 4))
        cand = np.ones((4, 4))
        _, passing, fraction = compare_maps(cand, ref, 0.0)
        assert fraction == 0.0
        assert not np.any(passing)

    def test_relative_term(self):
        ref = np.full((2, 2), 100.0)
        cand = np.full((2, 2), 101.0)
        assert compare_maps(cand, ref, 0.0, relative=0.01)[2] == 1.0
        assert compare_maps(cand, ref, 0.0, relative=0.009)[2] == 0.0

    def test_accepts_volume_images(self):
        phantom = generate_phantom("impulse")
        _, _, fraction = compare_maps(phantom, phantom, 0.0)
        assert fraction == 1.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            compare_maps(np.zeros((3, 3)), np.zeros((4, 4)), 0.0)

    def test_negative_tolerance(self):
        # NaN passes a "< 0" check, but compares false with every difference
        for tolerance, relative in [(-1.0, 0.0), (0.0, -1.0), (math.nan, 0.0), (0.0, math.nan)]:
            with pytest.raises(ValueError, match="tolerances must be non-negative"):
                compare_maps(np.zeros((2, 2)), np.zeros((2, 2)), tolerance, relative)


class TestConsensusLevel:
    @pytest.mark.parametrize(
        "matching,total,level,valid",
        [
            (4, 6, "moderate", True),
            (2, 3, "weak", False),
            (10, 12, "very strong", True),
            (3, 6, "moderate", False),
            (3, 5, "moderate", True),
            (6, 9, "strong", True),
            (9, 9, "strong", True),
            (0, 4, "weak", False),
        ],
    )
    def test_cases(self, matching, total, level, valid):
        assert consensus_level(matching, total) == (level, valid)

    def test_exhaustive_sweep(self):
        for total in range(1, 16):
            for matching in range(total + 1):
                level, valid = consensus_level(matching, total)
                if matching < 3:
                    want = "weak"
                elif matching <= 5:
                    want = "moderate"
                elif matching <= 9:
                    want = "strong"
                else:
                    want = "very strong"
                assert level == want
                assert level in CONSENSUS_LEVELS
                assert valid == (want != "weak" and 2 * matching > total)

    def test_errors(self):
        with pytest.raises(ValueError):
            consensus_level(0, 0)
        with pytest.raises(ValueError):
            consensus_level(5, 4)
        with pytest.raises(ValueError):
            consensus_level(-1, 4)


class TestConsensus:
    def test_empty_list(self):
        with pytest.raises(ValueError, match="at least one"):
            consensus([])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            consensus([np.zeros((2, 2)), np.zeros((3, 3))])

    def test_two_submissions(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 2.0)
        report = consensus([a, b])
        np.testing.assert_array_equal(report.centroid, 1.0)
        assert report.distances[0] == report.distances[1] == pytest.approx(4.0)
        assert report.submission_count == 2

    def test_identical_submissions(self):
        base = np.arange(16.0).reshape(4, 4)
        report = consensus([base] * 5)
        np.testing.assert_array_equal(report.centroid, base)
        np.testing.assert_array_equal(report.distances, 0.0)
        assert not np.any(report.outliers)
        assert report.level == "moderate"
        assert report.valid

    def test_single_submission(self):
        base = np.ones((3, 3))
        report = consensus([base])
        np.testing.assert_array_equal(report.centroid, base)
        np.testing.assert_array_equal(report.distances, [0.0])

    def test_outlier_flagging(self):
        rng = np.random.default_rng(0)
        maps = [rng.normal(0.0, 0.01, size=(6, 6)) for _ in range(9)]
        maps.append(np.full((6, 6), 50.0))
        report = consensus(maps)
        assert report.outliers[-1]
        assert not np.any(report.outliers[:-1])
        assert report.level == "strong"
        assert report.valid

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        maps = [rng.normal(size=(5, 5)) for _ in range(8)]
        a = consensus(maps)
        b = consensus(maps)
        np.testing.assert_array_equal(a.centroid, b.centroid)
        np.testing.assert_array_equal(a.distances, b.distances)

    def test_accepts_volume_images(self):
        phantoms = [generate_phantom("impulse"), generate_phantom("empty")]
        report = consensus(phantoms)
        assert isinstance(report.centroid, np.ndarray)
        assert report.centroid[32, 32, 32] == pytest.approx(127.5)
