import gzip
import struct

import numpy as np
import pytest

from voxfilt.image import create_image
from voxfilt.nifti import (
    NiftiDatatypeError,
    NiftiMagicError,
    NiftiTruncatedError,
    read_nifti,
    write_nifti,
)


def _random_image(rng, dims=(16, 16, 16), spacing=(2.0, 2.0, 2.0), dtype=np.float32):
    data = rng.normal(size=dims).astype(dtype).astype(np.float64)
    return create_image(dims, spacing, data)


class TestRoundTrip:
    def test_f32_voxel_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        image = _random_image(rng)
        path = tmp_path / "vol.nii"
        write_nifti(image, path, "f32")
        back, view = read_nifti(path)
        np.testing.assert_array_equal(back.data, image.data)
        assert back.spacing == (2.0, 2.0, 2.0)
        assert view.dims == (16, 16, 16)
        assert view.datatype == 16

    def test_f64_lossless(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(5, 6, 7))
        image = create_image((5, 6, 7), (1.0, 0.9765625, 3.0), data)
        path = tmp_path / "vol.nii"
        write_nifti(image, path, "f64")
        back, view = read_nifti(path)
        np.testing.assert_array_equal(back.data, data)
        assert back.spacing == (1.0, 0.9765625, 3.0)
        assert view.datatype == 64

    @pytest.mark.parametrize("datatype,code", [("u8", 2), ("i16", 4), ("i32", 8)])
    def test_integer_types_preserved_exactly(self, tmp_path, datatype, code):
        rng = np.random.default_rng(2)
        lo, hi = {"u8": (0, 256), "i16": (-5000, 5000), "i32": (-70000, 70000)}[datatype]
        data = rng.integers(lo, hi, size=(8, 8, 8)).astype(np.float64)
        image = create_image((8, 8, 8), (2.0, 2.0, 2.0), data)
        path = tmp_path / "vol.nii"
        write_nifti(image, path, datatype)
        back, view = read_nifti(path)
        np.testing.assert_array_equal(back.data, data)
        assert view.datatype == code

    def test_two_dimensional_image(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(9, 11)).astype(np.float32).astype(np.float64)
        image = create_image((9, 11), (0.5, 0.5), data)
        path = tmp_path / "slice.nii"
        write_nifti(image, path, "f32")
        back, view = read_nifti(path)
        assert back.dims == (9, 11)
        np.testing.assert_array_equal(back.data, data)

    def test_fortran_order_payload(self, tmp_path):
        # Voxel (1, 0, 0) must be the second element on disk.
        data = np.zeros((3, 3, 3))
        data[1, 0, 0] = 7.0
        image = create_image((3, 3, 3), (1.0, 1.0, 1.0), data)
        path = tmp_path / "vol.nii"
        write_nifti(image, path, "f64")
        raw = path.read_bytes()
        values = np.frombuffer(raw[352:], dtype="<f8")
        assert values[1] == 7.0
        assert np.count_nonzero(values) == 1

    def test_read_result_matches_library_conventions(self, tmp_path):
        rng = np.random.default_rng(4)
        image = _random_image(rng, dims=(4, 5, 6))
        path = tmp_path / "vol.nii"
        write_nifti(image, path, "f32")
        back, _ = read_nifti(path)
        assert back.data.dtype == np.float64
        assert back.data.flags.f_contiguous
        assert not back.data.flags.writeable


class TestGzip:
    def test_gzip_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        image = _random_image(rng)
        path = tmp_path / "vol.nii.gz"
        write_nifti(image, path, "f32")
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        back, _ = read_nifti(path)
        np.testing.assert_array_equal(back.data, image.data)

    def test_gzip_output_is_reproducible(self, tmp_path):
        rng = np.random.default_rng(6)
        image = _random_image(rng)
        first = tmp_path / "a.nii.gz"
        second = tmp_path / "b.nii.gz"
        write_nifti(image, first, "f32")
        write_nifti(image, second, "f32")
        assert first.read_bytes() == second.read_bytes()

    def test_gzip_detected_by_content_not_name(self, tmp_path):
        rng = np.random.default_rng(7)
        image = _random_image(rng, dims=(4, 4, 4))
        gz = tmp_path / "vol.nii.gz"
        write_nifti(image, gz, "f32")
        renamed = tmp_path / "vol.nii"
        renamed.write_bytes(gz.read_bytes())
        back, _ = read_nifti(renamed)
        np.testing.assert_array_equal(back.data, image.data)


class TestScaling:
    def _patched(self, tmp_path, slope, inter):
        data = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        image = create_image((2, 2, 2), (1.0, 1.0, 1.0), data)
        path = tmp_path / "vol.nii"
        write_nifti(image, path, "i16")
        raw = bytearray(path.read_bytes())
        struct.pack_into("<2f", raw, 112, slope, inter)
        path.write_bytes(bytes(raw))
        return path, data

    def test_slope_and_intercept_applied(self, tmp_path):
        path, data = self._patched(tmp_path, 2.5, -1000.0)
        back, view = read_nifti(path)
        np.testing.assert_allclose(back.data, data * 2.5 - 1000.0, rtol=0, atol=1e-12)
        assert view.scl_slope == 2.5
        assert view.scl_inter == -1000.0

    def test_zero_slope_means_unscaled(self, tmp_path):
        # a zero or non-finite slope leaves the data unscaled and the
        # intercept unused, whatever its value
        for slope, inter in [(0.0, 0.0), (0.0, 5.0), (float("nan"), 0.0),
                             (float("inf"), 3.0), (0.0, float("inf"))]:
            path, data = self._patched(tmp_path, slope, inter)
            back, _ = read_nifti(path)
            np.testing.assert_array_equal(back.data, data)

    @pytest.mark.parametrize("inter", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_intercept_rejected(self, tmp_path, inter):
        path, _ = self._patched(tmp_path, 2.0, inter)
        with pytest.raises(NiftiMagicError, match="scl_inter"):
            read_nifti(path)

    def test_round_on_load(self, tmp_path):
        data = np.array([[[0.5, -0.5], [2.49, -2.5]], [[1.0, 0.0], [3.5, -0.49]]])
        image = create_image((2, 2, 2), (1.0, 1.0, 1.0), data)
        path = tmp_path / "vol.nii"
        write_nifti(image, path, "f64")
        back, _ = read_nifti(path, round_values=True)
        np.testing.assert_array_equal(
            back.data,
            np.array([[[1.0, -1.0], [2.0, -3.0]], [[1.0, 0.0], [4.0, -0.0]]]),
        )


class TestErrors:
    def _valid_file(self, tmp_path):
        rng = np.random.default_rng(8)
        image = _random_image(rng, dims=(4, 4, 4))
        path = tmp_path / "vol.nii"
        write_nifti(image, path, "f32")
        return path

    def test_truncated_header(self, tmp_path):
        path = self._valid_file(tmp_path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(NiftiTruncatedError):
            read_nifti(path)

    def test_truncated_payload(self, tmp_path):
        path = self._valid_file(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 40])
        with pytest.raises(NiftiTruncatedError, match="payload"):
            read_nifti(path)

    def test_dims_inconsistent_with_payload(self, tmp_path):
        path = self._valid_file(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<8h", raw, 40, 3, 4, 4, 400, 1, 1, 1, 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiTruncatedError):
            read_nifti(path)

    def test_bad_magic(self, tmp_path):
        path = self._valid_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[344:348] = b"xxxx"
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiMagicError, match="magic"):
            read_nifti(path)

    def test_not_nifti_at_all(self, tmp_path):
        path = tmp_path / "noise.nii"
        path.write_bytes(b"\x07\x00\x00\x00" + b"\x00" * 400)
        with pytest.raises(NiftiMagicError):
            read_nifti(path)

    def test_nifti2_rejected_distinctly(self, tmp_path):
        path = tmp_path / "vol2.nii"
        path.write_bytes(struct.pack("<i", 540) + b"\x00" * 600)
        with pytest.raises(NiftiMagicError, match="NIfTI-2"):
            read_nifti(path)

    def test_pair_magic_rejected(self, tmp_path):
        path = self._valid_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[344:348] = b"ni1\x00"
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiMagicError, match="pair"):
            read_nifti(path)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_vox_offset(self, tmp_path, value):
        path = self._valid_file(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 108, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiMagicError, match="vox_offset"):
            read_nifti(path)

    @pytest.mark.parametrize("axis,value", [(1, float("inf")), (3, float("nan")),
                                            (2, float("-inf"))])
    def test_non_finite_pixdim(self, tmp_path, axis, value):
        path = self._valid_file(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 76 + 4 * axis, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiMagicError, match=rf"pixdim\[{axis}\]"):
            read_nifti(path)

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_negative_pixdim(self, tmp_path, axis):
        path = self._valid_file(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 76 + 4 * axis, -2.0)
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiMagicError, match=rf"pixdim\[{axis}\] -2.0 is negative"):
            read_nifti(path)

    def test_zero_pixdim_reads_as_one_mm(self, tmp_path):
        path = self._valid_file(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 80, 0.0)
        path.write_bytes(bytes(raw))
        back, _ = read_nifti(path)
        assert back.spacing == (1.0, 2.0, 2.0)

    def test_unsupported_datatype(self, tmp_path):
        path = self._valid_file(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<2h", raw, 70, 128, 24)
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiDatatypeError, match="128"):
            read_nifti(path)

    def test_bitpix_mismatch(self, tmp_path):
        path = self._valid_file(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<2h", raw, 70, 16, 64)
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiDatatypeError, match="bitpix"):
            read_nifti(path)

    def test_write_unknown_datatype(self, tmp_path):
        rng = np.random.default_rng(9)
        image = _random_image(rng, dims=(4, 4, 4))
        with pytest.raises(NiftiDatatypeError, match="u16"):
            write_nifti(image, tmp_path / "vol.nii", "u16")

    def test_unwritable_path(self, tmp_path):
        rng = np.random.default_rng(10)
        image = _random_image(rng, dims=(4, 4, 4))
        with pytest.raises(OSError):
            write_nifti(image, tmp_path / "missing" / "vol.nii", "f32")


class TestEndianAndOrientation:
    def test_big_endian_file(self, tmp_path):
        data = np.arange(24, dtype=np.float32).reshape((2, 3, 4), order="F")
        header = bytearray(348)
        struct.pack_into(">i", header, 0, 348)
        struct.pack_into(">8h", header, 40, 3, 2, 3, 4, 1, 1, 1, 1)
        struct.pack_into(">2h", header, 70, 16, 32)
        struct.pack_into(">8f", header, 76, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0)
        struct.pack_into(">f", header, 108, 352.0)
        struct.pack_into(">2f", header, 112, 1.0, 0.0)
        header[344:348] = b"n+1\x00"
        payload = data.astype(">f4").tobytes(order="F")
        path = tmp_path / "be.nii"
        path.write_bytes(bytes(header) + b"\x00" * 4 + payload)
        back, view = read_nifti(path)
        np.testing.assert_array_equal(back.data, data.astype(np.float64))
        assert back.spacing == (2.0, 2.0, 2.0)

    def test_orientation_block_round_trips(self, tmp_path):
        rng = np.random.default_rng(11)
        image = _random_image(rng, dims=(4, 4, 4))
        path = tmp_path / "vol.nii"
        write_nifti(image, path, "f32")
        raw = bytearray(path.read_bytes())
        struct.pack_into("<2h", raw, 252, 0, 1)
        struct.pack_into("<4f", raw, 280, 0.0, 0.0, -2.0, 10.0)
        path.write_bytes(bytes(raw))
        _, view = read_nifti(path)
        assert len(view.orientation) == 76
        assert struct.unpack_from("<2h", view.orientation, 0) == (0, 1)

        copied = tmp_path / "copy.nii"
        write_nifti(image, copied, "f32", orientation=view.orientation)
        _, again = read_nifti(copied)
        assert again.orientation == view.orientation

    def test_orientation_block_length_checked(self, tmp_path):
        rng = np.random.default_rng(12)
        image = _random_image(rng, dims=(4, 4, 4))
        with pytest.raises(ValueError, match="76"):
            write_nifti(image, tmp_path / "vol.nii", "f32", orientation=b"abc")

    def test_trailing_singleton_dims_squeezed(self, tmp_path):
        path = self._four_dim_file(tmp_path)
        back, view = read_nifti(path)
        assert back.dims == (3, 3, 3)
        assert view.dims == (3, 3, 3)

    @staticmethod
    def _four_dim_file(tmp_path):
        image = create_image((3, 3, 3), (1.0, 1.0, 1.0), np.zeros((3, 3, 3)))
        path = tmp_path / "vol4.nii"
        write_nifti(image, path, "f32")
        raw = bytearray(path.read_bytes())
        struct.pack_into("<8h", raw, 40, 4, 3, 3, 3, 1, 1, 1, 1)
        path.write_bytes(bytes(raw))
        return path
