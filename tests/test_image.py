"""Volume container, unit conversion and interior-region tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from voxfilt.image import (
    VolumeImage,
    RoiMask,
    create_image,
    interior_region,
    map_slices,
    physical_to_voxel,
)


class TestCreateImage:
    def test_zero_image(self):
        img = create_image((2, 2, 1), (1, 1, 1), [0, 0, 0, 0])
        assert img.dims == (2, 2, 1)
        assert np.all(img.data == 0)

    def test_phantom_geometry(self):
        img = create_image((64, 64, 64), (2, 2, 2), np.zeros(64**3))
        assert img.dims == (64, 64, 64)
        assert img.spacing == (2.0, 2.0, 2.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            create_image((2, 2), (1, 1), [1.0, 2.0, 3.0])

    def test_flat_data_unravelled_k1_fastest(self):
        # first two flat values must end up adjacent along k1
        img = create_image((2, 2), (1, 1), [10, 20, 30, 40])
        assert img.data[0, 0] == 10
        assert img.data[1, 0] == 20
        assert img.data[0, 1] == 30

    def test_storage_k1_fastest(self):
        img = create_image((4, 3, 2), (1, 1, 1), np.arange(24))
        assert img.data.flags.f_contiguous

    def test_round_trip_exact(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=60)
        img = create_image((5, 4, 3), (1, 1, 1), vals)
        np.testing.assert_array_equal(img.data.ravel(order="F"), vals)

    def test_immutable(self):
        img = create_image((2, 2), (1, 1), [1, 2, 3, 4])
        with pytest.raises(ValueError):
            img.data[0, 0] = 9

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            create_image((2, 2), (1, 0), [1, 2, 3, 4])


class TestPhysicalToVoxel:
    def test_millimetres_over_spacing(self):
        assert physical_to_voxel(5.0, 2.0) == 2.5

    def test_unit_spacing(self):
        assert physical_to_voxel(3.0, 1.0) == 3.0
        assert physical_to_voxel(1.5, 1.0) == 1.5

    def test_per_axis(self):
        np.testing.assert_allclose(physical_to_voxel(6.0, (1.0, 2.0, 3.0)), [6.0, 3.0, 2.0])

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            physical_to_voxel(1.0, 0.0)
        with pytest.raises(ValueError):
            physical_to_voxel(1.0, -2.0)

    @given(st.floats(0.01, 1e3), st.floats(0.01, 1e3))
    def test_round_trip(self, x, s):
        assert physical_to_voxel(x * s, s) == pytest.approx(x, rel=1e-15)


class TestInteriorRegion:
    def test_margin_zero_all_true(self):
        assert interior_region((4, 4, 4), 0).all()

    def test_margin_one_count(self):
        mask = interior_region((4, 4, 4), 1)
        assert mask.sum() == 8
        assert mask[1, 1, 1] and not mask[0, 1, 1]

    def test_margin_too_large(self):
        with pytest.raises(ValueError):
            interior_region((4, 4, 4), 2)

    def test_per_axis_margin(self):
        mask = interior_region((6, 4), (2, 1))
        assert mask.sum() == 2 * 2


class TestRoiMask:
    def test_requires_boolean(self):
        with pytest.raises(ValueError):
            RoiMask(np.zeros((2, 2)))

    def test_voxel_count(self):
        m = RoiMask(interior_region((4, 4, 4), 1), kind="morphological")
        assert m.voxel_count == 8


class TestWithData:
    def test_same_grid(self):
        img = create_image((2, 3), (1, 2), np.arange(6))
        other = img.with_data(np.ones((2, 3)))
        assert other.spacing == img.spacing
        assert np.all(other.data == 1)

    def test_shape_mismatch(self):
        img = create_image((2, 3), (1, 2), np.arange(6))
        with pytest.raises(ValueError):
            img.with_data(np.ones((3, 2)))


class TestMapSlices:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_rejects_shape_changing_op(self, threads):
        # a (k1, 1) result would broadcast into the slice if it were not checked
        with pytest.raises(ValueError, match="slice dimensions"):
            map_slices(np.zeros((4, 3, 2)), lambda s: s[:, :1], threads)
