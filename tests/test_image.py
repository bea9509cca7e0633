"""Volume container, ROI mask, rounding and slice-mapping tests."""

import decimal
import types
from concurrent import futures

import numpy as np
import pytest

import voxfilt.image
from voxfilt.image import (
    VolumeImage,
    RoiMask,
    create_image,
    map_slices,
    round_half_away,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_spacing_rejected(self, bad):
        # "s <= 0" let both through
        with pytest.raises(ValueError, match=r"^spacing must be one positive finite voxel "
                                             r"spacing per axis \(3 axes\)"):
            VolumeImage(np.zeros((2, 2, 2)), (bad, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxels_rejected(self, bad):
        data = np.zeros((3, 3, 3))
        data[0, 1, 2] = bad
        data[2, 2, 0] = np.nan
        with pytest.raises(ValueError, match=r"2 of 27 voxels are not finite"):
            create_image(data.shape, (1, 1, 1), data)


class TestRoiMask:
    def test_requires_boolean(self):
        with pytest.raises(ValueError):
            RoiMask(np.zeros((2, 2)))

    def test_voxel_count(self):
        membership = np.zeros((4, 4, 4), dtype=bool)
        membership[1:3, 1:3, 1:3] = True
        m = RoiMask(membership)
        assert m.voxel_count == 8

    @pytest.mark.parametrize("dims", [(5, 4), (5, 4, 3)])
    def test_membership_stored_fortran_ordered(self, dims):
        membership = np.random.default_rng(3).uniform(size=dims) < 0.5
        assert membership.flags.c_contiguous
        m = RoiMask(membership)
        assert m.membership.flags.f_contiguous
        np.testing.assert_array_equal(m.membership, membership)
        assert RoiMask(m.membership).membership is m.membership


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


class TestRoundHalfAway:
    # values next to a half, integers where adding 0.5 would round, and halves
    _HARD = [0.49999999999999994, 0.5, 1.4999999999999998, 1.5, 2.5, 2.0**51 + 0.5,
             2.0**52 - 0.5, 2.0**52 + 1, 2.0**53 - 1, 2.0**53, 1e-300, 0.0, -0.0, 7.25, 1e300]

    def test_matches_decimal_half_up(self):
        values = self._HARD + [-v for v in self._HARD]
        got = round_half_away(np.array(values))
        with decimal.localcontext() as context:
            context.prec = 400
            one = decimal.Decimal(1)
            want = [float(decimal.Decimal(v).quantize(one, rounding=decimal.ROUND_HALF_UP))
                    for v in values]
        assert got.tolist() == want

    def test_negative_zero_gives_positive_zero(self):
        assert not np.signbit(round_half_away(np.array([-0.0]))).any()

    def test_non_finite_values_stay(self):
        got = round_half_away(np.array([np.inf, -np.inf, np.nan]))
        assert got[0] == np.inf and got[1] == -np.inf and np.isnan(got[2])


class TestMapSlices:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_rejects_shape_changing_op(self, threads):
        # a (k, k1, 1) result would broadcast into the slab if it were not checked
        with pytest.raises(ValueError, match="slice dimensions"):
            map_slices(np.zeros((4, 3, 2)), lambda s: s[:, :, :1], threads)

    @pytest.mark.parametrize("planes", [None, 1, 3])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_call_per_slab(self, monkeypatch, planes, threads):
        # 128 x 128 x 32: 32 / (planes per slab) calls, each on a C-ordered
        # float64 stack of consecutive planes, written back at its own indices
        if planes is not None:
            monkeypatch.setattr(voxfilt.image, "_SLAB_VOXELS", planes * 128 * 128)
        per_slab = voxfilt.image._SLAB_VOXELS // (128 * 128)
        volume = np.asfortranarray(np.arange(128 * 128 * 32, dtype=np.int32)
                                   .reshape(128, 128, 32))
        calls = []

        def op(stack):
            assert stack.flags.c_contiguous and stack.dtype == np.float64
            calls.append(stack.shape)
            return -stack

        out = map_slices(volume, op, threads)
        assert len(calls) == -(-32 // per_slab)
        assert sorted(calls, reverse=True) == [(per_slab, 128, 128)] * (32 // per_slab) + (
            [(32 % per_slab, 128, 128)] if 32 % per_slab else [])
        assert out.flags.f_contiguous
        np.testing.assert_array_equal(out, -volume)

    @pytest.mark.parametrize("threads,slabs,helpers", [(64, 1, 0), (64, 3, 2), (2, 3, 1),
                                                       (1, 3, 0)])
    def test_submits_no_more_helpers_than_other_slabs(self, monkeypatch, threads, slabs,
                                                      helpers):
        submitted, widths = [], []

        class StandIn:
            """Runs each submitted helper inline, so no thread starts."""

            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn):
                submitted.append(fn)
                future = futures.Future()
                future.set_result(fn())
                return future

        monkeypatch.setattr(voxfilt.image, "futures",
                            types.SimpleNamespace(ThreadPoolExecutor=StandIn))
        monkeypatch.setattr(voxfilt.image, "_SLAB_VOXELS", 4 * 3)  # one plane per slab
        volume = np.random.default_rng(30).normal(size=(4, 3, slabs))
        out = map_slices(volume, lambda stack: 2.0 * stack, threads)
        assert len(submitted) == helpers and widths == [max(1, helpers)]
        np.testing.assert_array_equal(out, 2.0 * volume)

    def test_default_slab_is_four_planes_of_128_squared(self):
        assert voxfilt.image._SLAB_VOXELS == 4 * 128 * 128

    def test_slab_holds_one_plane_at_least(self, monkeypatch):
        monkeypatch.setattr(voxfilt.image, "_SLAB_VOXELS", 1)
        calls = []
        map_slices(np.zeros((4, 3, 2)), lambda s: calls.append(s.shape) or s, 1)
        assert calls == [(1, 4, 3)] * 2
