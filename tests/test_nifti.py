import dataclasses
import gzip
import math
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from voxfilt.image import VolumeImage, create_image
from voxfilt.nifti import (
    DATATYPE_CODES,
    NiftiDatatypeError,
    NiftiError,
    NiftiMagicError,
    NiftiTruncatedError,
    read_nifti,
    write_nifti,
)


def _random_image(rng, dims=(16, 16, 16), spacing=(2.0, 2.0, 2.0), dtype=np.float32):
    data = rng.normal(size=dims).astype(dtype).astype(np.float64)
    return create_image(dims, spacing, data)


def _rle_gzip(raw):
    """``raw`` as earlier writers framed it: one zlib stream, level 6, Z_RLE."""
    deflate = zlib.compressobj(6, zlib.DEFLATED, 16 + zlib.MAX_WBITS, 8, zlib.Z_RLE)
    return deflate.compress(raw) + deflate.flush()


def _stored_gzip(raw):
    """``raw`` as one gzip member built from the specs (RFC 1952, RFC 1951):
    deflate, no flags, mtime 0, XFL 0, OS 255; stored blocks of 65535
    bytes, only the last one shorter and final; CRC-32 and ISIZE."""
    blocks = [raw[start : start + 65535] for start in range(0, len(raw), 65535)]
    body = b"".join(
        bytes([index == len(blocks) - 1]) + struct.pack("<HH", len(block), 0xFFFF - len(block))
        + block for index, block in enumerate(blocks))
    trailer = struct.pack("<II", zlib.crc32(raw), len(raw) % 2**32)
    return b"\x1f\x8b\x08\x00" + b"\x00\x00\x00\x00" + b"\x00\xff" + body + trailer


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

    def test_gzip_payload_is_the_plain_file(self, tmp_path):
        # the gzip member holds the plain file's bytes, whatever reads it
        rng = np.random.default_rng(8)
        image = _random_image(rng)
        plain = tmp_path / "vol.nii"
        packed = tmp_path / "vol.nii.gz"
        write_nifti(image, plain, "f32")
        write_nifti(image, packed, "f32")
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()

    def test_gzip_header_has_no_timestamp_and_a_fixed_os_byte(self, tmp_path):
        # deflate, no flags, mtime 0, no extra flags, OS 255 (unknown), for any data
        data = np.random.default_rng(11).integers(0, 9, size=(4, 4, 4)).astype(np.float64)
        for datatype in ("u8", "f32"):
            path = tmp_path / f"{datatype}.nii.gz"
            write_nifti(create_image((4, 4, 4), (2.0, 2.0, 2.0), data), path, datatype)
            assert path.read_bytes()[:10] == b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"

    @pytest.mark.parametrize("dims", [(4, 4, 4), (9, 11), (64, 64, 40)])
    def test_gzip_file_is_the_stored_stream_of_the_plain_file(self, tmp_path, dims):
        # the payload goes out in slices; the file equals the spec-built stream
        image = _random_image(np.random.default_rng(12), dims=dims, spacing=(2.0,) * len(dims))
        plain = tmp_path / "vol.nii"
        packed = tmp_path / "vol.nii.gz"
        write_nifti(image, plain, "f32")
        write_nifti(image, packed, "f32")
        assert packed.read_bytes() == _stored_gzip(plain.read_bytes())

    def test_file_of_two_whole_blocks_ends_on_the_second(self, tmp_path):
        # 352 + 2 x 65359 = 131070 bytes: two full blocks, the second final,
        # and no empty block after it
        data = np.random.default_rng(14).integers(0, 256, size=(14, 9337)).astype(np.float64)
        image = create_image(data.shape, (1.0, 1.0), data)
        plain = tmp_path / "vol.nii"
        packed = tmp_path / "vol.nii.gz"
        write_nifti(image, plain, "u8")
        write_nifti(image, packed, "u8")
        raw, stream = plain.read_bytes(), packed.read_bytes()
        assert len(raw) == 131070
        assert stream == _stored_gzip(raw)
        assert len(stream) == 10 + 2 * (5 + 65535) + 8
        assert stream[10] == 0 and stream[10 + 5 + 65535] == 1
        back, _ = read_nifti(packed)
        np.testing.assert_array_equal(back.data, data)

    @pytest.mark.parametrize("datatype", ["u8", "f32"])
    def test_run_length_deflate_files_still_read(self, tmp_path, datatype):
        # files from the earlier Z_RLE writer read back voxel-identical
        data = np.random.default_rng(15).integers(0, 200, size=(20, 18, 7)).astype(np.float64)
        data[::3] = 0.0
        image = create_image(data.shape, (1.0, 1.5, 2.5), data)
        plain = tmp_path / "vol.nii"
        write_nifti(image, plain, datatype)
        old = tmp_path / "old.nii.gz"
        old.write_bytes(_rle_gzip(plain.read_bytes()))
        back, view = read_nifti(old)
        np.testing.assert_array_equal(back.data, data)
        assert back.spacing == (1.0, 1.5, 2.5)
        assert view.datatype == DATATYPE_CODES[datatype]

    @pytest.mark.parametrize("datatype", sorted(DATATYPE_CODES))
    def test_every_datatype_reads_back_from_gzip(self, tmp_path, datatype):
        data = np.random.default_rng(13).integers(0, 200, size=(20, 18, 7)).astype(np.float64)
        data[::3] = 0.0  # runs, as in masks
        image = create_image(data.shape, (1.0, 1.5, 2.5), data)
        plain = tmp_path / "vol.nii"
        packed = tmp_path / "vol.nii.gz"
        write_nifti(image, plain, datatype)
        write_nifti(image, packed, datatype)
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
        back, view = read_nifti(packed)
        np.testing.assert_array_equal(back.data, data)
        assert back.spacing == (1.0, 1.5, 2.5)
        assert view.datatype == DATATYPE_CODES[datatype]

    @pytest.mark.parametrize("name", ["vol.nii", "vol.nii.gz"])
    def test_write_holds_one_copy_of_the_payload(self, tmp_path, name):
        # The cast volume is the only full copy: no bytes copy, no header
        # concatenation, no whole-payload compressor output.
        image = _random_image(np.random.default_rng(9), dims=(64, 64, 64))
        payload = 64**3 * 4
        tracemalloc.start()
        try:
            write_nifti(image, tmp_path / name, "f32")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * payload, f"peak {peak / payload:.2f}x the payload"

    @pytest.mark.parametrize("name", ["vol.nii", "vol.nii.gz"])
    def test_read_holds_no_copy_of_the_payload(self, tmp_path, name):
        # Beside the float64 result, a read holds the file bytes and the
        # non-finite check's mask, and no second copy of the payload.
        data = np.random.default_rng(10).integers(-1000, 1000, size=(64, 64, 64))
        write_nifti(create_image(data.shape, (1.0, 1.0, 1.0), data), tmp_path / name, "i16")
        payload = 64**3 * 2
        tracemalloc.start()
        try:
            read_nifti(tmp_path / name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - 64**3 * 8
        assert extra < 2 * payload, f"{extra / payload:.2f}x the payload beside the result"

    @pytest.mark.parametrize("gz", [False, True], ids=["nii", "nii.gz"])
    def test_read_holds_only_what_the_header_describes(self, tmp_path, gz):
        # 120 payload bytes followed by 20 MB of zeros read in under 1 MiB
        image, _ = _read_small(tmp_path, _fuzz_base(tmp_path) + bytes(20 << 20), gz)
        assert image.dims == _FUZZ_DIMS

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

    @pytest.mark.parametrize("name", ["vol.nii", "vol.nii.gz"])
    def test_non_finite_voxels_rejected(self, tmp_path, name):
        path = tmp_path / "vol.nii"
        write_nifti(create_image((4, 4, 4), (1, 1, 1), np.zeros(64)), path, "f32")
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 352 + 4 * 5, float("nan"))
        struct.pack_into("<f", raw, 352 + 4 * 40, float("-inf"))
        target = tmp_path / name
        target.write_bytes(gzip.compress(bytes(raw)) if name.endswith(".gz") else bytes(raw))
        with pytest.raises(NiftiError, match=r"vol\.nii.*2 of 64 voxels are not finite"):
            read_nifti(target)

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

    def test_subnormal_pixdim_is_below_the_spacing_floor(self, tmp_path):
        # 1e-40 is a float32 subnormal: finite and positive, so the header
        # checks pass it, and the spacing rule of the image built from it refuses it
        path = self._valid_file(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 84, 1e-40)
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match=re.escape(f"{path}: spacing must be one positive "
                                                       "finite voxel spacing per axis (3 axes), "
                                                       "from 1.175e-38 to 3.403e+38 mm")):
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

    @pytest.mark.parametrize("datatype,bad,limits", [
        ("u8", -5.0, "[0, 255]"),
        ("u8", 256.0, "[0, 255]"),
        ("u8", float("nan"), "[0, 255]"),
        ("i16", 70000.0, "[-32768, 32767]"),
        ("i16", float("-inf"), "[-32768, 32767]"),
    ])
    def test_integer_write_rejects_unrepresentable_values(self, tmp_path, datatype, bad,
                                                           limits):
        data = np.zeros((4, 4, 4))
        data[1, 2, 3] = bad
        # create_image rejects NaN and inf; a bare VolumeImage can still hold them
        image = VolumeImage(np.asfortranarray(data), (2.0, 2.0, 2.0))
        path = tmp_path / "vol.nii"
        with pytest.raises(NiftiDatatypeError, match=re.escape(
                f"{datatype} holds finite values in {limits}")):
            write_nifti(image, path, datatype)
        assert not path.exists()
        data[1, 2, 3] = 254.75 if datatype == "u8" else -32767.5
        write_nifti(create_image(data.shape, (2.0, 2.0, 2.0), data), path, datatype)
        back, _ = read_nifti(path)
        assert back.data[1, 2, 3] == np.trunc(data[1, 2, 3])

    @pytest.mark.parametrize("name", ["vol.nii", "vol.nii.gz"])
    @pytest.mark.parametrize("bad", [1e39, -1e39, float("inf"), float("nan")])
    def test_f32_write_rejects_values_beyond_its_range(self, tmp_path, name, bad):
        # the cast would store inf, which read_nifti refuses
        data = np.full((4, 4, 4), bad)
        image = VolumeImage(np.asfortranarray(data), (2.0, 2.0, 2.0))
        path = tmp_path / name
        with pytest.raises(NiftiDatatypeError, match=re.escape(
                "f32 holds finite values in [-3.4028234663852886e+38, 3.4028234663852886e+38]; "
                f"the volume spans [{bad:g}, {bad:g}]")):
            write_nifti(image, path, "f32")
        assert not path.exists()
        if math.isfinite(bad):
            write_nifti(image, path, "f64")
            back, _ = read_nifti(path)
            np.testing.assert_array_equal(back.data, data)
        else:
            with pytest.raises(NiftiDatatypeError, match="f64 holds finite values"):
                write_nifti(image, path, "f64")

    @pytest.mark.parametrize("name", ["vol.nii", "vol.nii.gz"])
    def test_f32_write_keeps_its_largest_values(self, tmp_path, name):
        top = float(np.finfo(np.float32).max)
        data = np.array([[[-top, top], [0.0, 1.0]]])
        write_nifti(create_image(data.shape, (1.0, 1.0, 1.0), data), tmp_path / name, "f32")
        back, _ = read_nifti(tmp_path / name)
        np.testing.assert_array_equal(back.data, data)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_spacing_never_reaches_the_writer(self, tmp_path, bad):
        # an image with a NaN spacing used to be written with a pixdim that
        # read_nifti refuses
        image = create_image((4, 4, 4), (2.0, 2.0, 2.0), np.zeros(64))
        path = tmp_path / "vol.nii"
        for make in (lambda: VolumeImage(image.data, (bad, 2.0, 2.0)),
                     lambda: dataclasses.replace(image, spacing=(2.0, bad, 2.0))):
            with pytest.raises(ValueError, match="spacing must be one positive finite"):
                write_nifti(make(), path)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["vol.nii", "vol.nii.gz"])
    @pytest.mark.parametrize("dims", [(40000, 1, 1), (2, 32768)])
    def test_axis_longer_than_an_int16_dim_is_a_writer_error(self, tmp_path, name, dims):
        # struct.error, not a ValueError, used to escape from packing the header
        image = VolumeImage(np.zeros(dims, order="F"), (1.0,) * len(dims))
        path = tmp_path / name
        with pytest.raises(NiftiError, match=re.escape(
                f"dims {dims} exceed the 32767 voxels per axis of NIfTI-1")):
            write_nifti(image, path)
        assert not path.exists()
        edge = VolumeImage(np.zeros((32767, 1, 1), order="F"), (1.0, 1.0, 1.0))
        write_nifti(edge, path)
        assert read_nifti(path)[0].dims == (32767, 1, 1)

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


# A valid 3 x 4 x 5 i16 file (120 payload bytes) that the fuzz tests damage.
_FUZZ_DIMS = (3, 4, 5)
_BITPIX = {2: 8, 4: 16, 8: 32, 16: 32, 64: 64}
_fuzz = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _fuzz_base(tmp_path) -> bytes:
    image = create_image(_FUZZ_DIMS, (1.0, 1.0, 2.0), np.arange(60.0) - 30.0)
    write_nifti(image, tmp_path / "base.nii", "i16")
    return (tmp_path / "base.nii").read_bytes()


def _patched(raw, fmt, offset, *values) -> bytes:
    out = bytearray(raw)
    struct.pack_into(fmt, out, offset, *values)
    return bytes(out)


def _read_small(tmp_path, raw, gz):
    """read_nifti on ``raw`` (gzipped if asked), allocating at most 1 MiB."""
    path = tmp_path / ("fuzz.nii.gz" if gz else "fuzz.nii")
    path.write_bytes(gzip.compress(raw, mtime=0) if gz else raw)
    tracemalloc.start()
    try:
        return read_nifti(path)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 20, f"read allocated {peak} bytes for a {len(raw)}-byte file"


class TestFuzzedHeaders:
    """Damaged or lying files raise a NiftiError and never cost a large allocation."""

    @_fuzz
    @given(st.data(), st.booleans())
    def test_truncated_file(self, tmp_path, data, gz):
        raw = _fuzz_base(tmp_path)
        if gz:  # cut the compressed stream itself; gzip is detected by content
            raw = gzip.compress(raw, mtime=0)
        with pytest.raises(NiftiTruncatedError):
            _read_small(tmp_path, raw[: data.draw(st.integers(0, len(raw) - 1))], False)

    @_fuzz
    @given(st.integers(-(2**31), 2**31 - 1), st.booleans())
    def test_lying_sizeof_hdr(self, tmp_path, value, gz):
        if value in (348, struct.unpack("<i", struct.pack(">i", 348))[0]):
            return  # the true size, in either byte order
        raw = _patched(_fuzz_base(tmp_path), "<i", 0, value)
        with pytest.raises(NiftiMagicError):
            _read_small(tmp_path, raw, gz)

    @_fuzz
    @given(st.floats(width=32) | st.floats(340.0, 360.0, width=32), st.booleans())
    def test_lying_vox_offset(self, tmp_path, value, gz):
        raw = _patched(_fuzz_base(tmp_path), "<f", 108, value)
        if math.isfinite(value) and round(value) == 352:
            image, _ = _read_small(tmp_path, raw, gz)
            assert image.dims == _FUZZ_DIMS
        else:
            with pytest.raises(NiftiError):
                _read_small(tmp_path, raw, gz)

    @_fuzz
    @given(st.lists(st.integers(-(2**15), 2**15 - 1), min_size=8, max_size=8),
           st.booleans())
    def test_lying_dim(self, tmp_path, dim, gz):
        raw = _patched(_fuzz_base(tmp_path), "<8h", 40, *dim)
        claimed = list(dim[1 : 1 + dim[0]]) if 1 <= dim[0] <= 7 else []
        while len(claimed) > 3 and claimed[-1] == 1:
            claimed.pop()
        fits = (len(claimed) in (2, 3) and min(claimed) >= 1
                and math.prod(claimed) <= math.prod(_FUZZ_DIMS))
        if fits:
            image, _ = _read_small(tmp_path, raw, gz)
            assert image.dims == tuple(claimed)
        else:
            with pytest.raises(NiftiError):
                _read_small(tmp_path, raw, gz)

    @_fuzz
    @given(st.lists(st.integers(1, 2**15 - 1), min_size=2, max_size=3), st.booleans())
    def test_oversized_dims_claim(self, tmp_path, dims, gz):
        if math.prod(dims) <= math.prod(_FUZZ_DIMS):
            return  # the file holds enough bytes for this claim
        raw = _patched(_fuzz_base(tmp_path), "<8h", 40, len(dims), *dims,
                       *([1] * (7 - len(dims))))
        with pytest.raises(NiftiTruncatedError, match="payload"):
            _read_small(tmp_path, raw, gz)

    @_fuzz
    @given(st.integers(-(2**15), 2**15 - 1), st.integers(-(2**15), 2**15 - 1),
           st.booleans())
    def test_bitpix_datatype_mismatch(self, tmp_path, datatype, bitpix, gz):
        if _BITPIX.get(datatype) == bitpix:
            return  # a consistent pair
        raw = _patched(_fuzz_base(tmp_path), "<2h", 70, datatype, bitpix)
        with pytest.raises(NiftiDatatypeError):
            _read_small(tmp_path, raw, gz)
