"""Reading and writing volumes in the single-file NIfTI-1 format.

Only the fields that affect voxel data are interpreted: dimensions,
voxel spacing, datatype, and the scl_slope/scl_inter value scaling.
Scaling follows the NIfTI-1 rule: values become value * scl_slope +
scl_inter only when scl_slope is nonzero; a zero or non-finite slope means
unscaled data and the intercept is ignored, while a used slope with a
non-finite intercept is an error.  A negative or non-finite pixdim on a
used axis is an error; a zero pixdim reads as 1 mm.
The orientation block is carried through as opaque bytes so that
response maps written next to an input keep its patient alignment.
Gzip compression is detected from the stream itself, not the filename.
"""

from __future__ import annotations

import contextlib
import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .image import _MAX_AXIS_VOXELS, VolumeImage, _owned_image

__all__ = [
    "NiftiError",
    "NiftiMagicError",
    "NiftiDatatypeError",
    "NiftiTruncatedError",
    "NiftiHeaderView",
    "DATATYPE_CODES",
    "read_nifti",
    "write_nifti",
]


class NiftiError(ValueError):
    """Base class for NIfTI parsing and writing failures."""


class NiftiMagicError(NiftiError):
    """The file is not a single-file NIfTI-1 image."""


class NiftiDatatypeError(NiftiError):
    """The voxel datatype is outside the supported set."""


class NiftiTruncatedError(NiftiError):
    """The file ends before the header or payload is complete."""


_HEADER_SIZE = 348
_NIFTI2_HEADER_SIZE = 540
_VOX_OFFSET = 352.0
_MAGIC_SINGLE = b"n+1\x00"
_MAGIC_PAIR = b"ni1\x00"
_GZIP_MAGIC = b"\x1f\x8b"
_PIECE_BYTES = 1 << 16
# gzip member header: deflate, no flags, mtime 0, no extra flags, OS unknown
_GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"
_STORED_BLOCK = 0xFFFF  # the largest stored deflate block

# NIfTI-1 datatype codes for the supported voxel types.
DATATYPE_CODES = {
    "u8": 2,
    "i16": 4,
    "i32": 8,
    "f32": 16,
    "f64": 64,
}

_CODE_TO_DTYPE = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    8: np.dtype(np.int32),
    16: np.dtype(np.float32),
    64: np.dtype(np.float64),
}

# qform/sform block: codes, quaternion, offsets and affine rows.
_ORIENTATION_SLICE = slice(252, 328)


@dataclass(frozen=True)
class NiftiHeaderView:
    """Decoded header fields plus the untouched orientation block."""

    dims: tuple
    pixdim: tuple
    datatype: int
    scl_slope: float
    scl_inter: float
    orientation: bytes


@contextlib.contextmanager
def _opened(path):
    """The file as a byte stream, inflated when gzipped.

    A gzip stream is read to its end on exit, a piece at a time, so its
    check sum covers the whole file and a stream that is cut or corrupt
    after the payload is still an error.
    """
    with open(path, "rb") as handle:
        gzipped = handle.read(2) == _GZIP_MAGIC
        handle.seek(0)
        if not gzipped:
            yield handle
            return
        try:
            with gzip.GzipFile(fileobj=handle, mode="rb") as stream:
                yield stream
                while stream.read(_PIECE_BYTES):
                    pass
        except EOFError:
            raise NiftiTruncatedError(f"{path}: gzip stream ends early") from None
        except (gzip.BadGzipFile, zlib.error) as exc:
            raise NiftiError(f"{path}: corrupt gzip stream ({exc})") from None


def _read_upto(stream, size) -> bytes:
    """At most ``size`` bytes, fewer where the stream ends.  They are read a
    piece at a time, so a size that a header claims costs no more memory
    than the file holds."""
    pieces = []
    while size > 0:
        piece = stream.read(min(size, _PIECE_BYTES))
        if not piece:
            break
        pieces.append(piece)
        size -= len(piece)
    return b"".join(pieces)


def _parse_header(path, raw):
    """The checked header as (view, byte order, payload offset)."""
    if len(raw) < 4:
        raise NiftiTruncatedError(f"{path}: file too short for a NIfTI header")
    for endian in ("<", ">"):
        (sizeof_hdr,) = struct.unpack_from(endian + "i", raw, 0)
        if sizeof_hdr == _HEADER_SIZE:
            break
        if sizeof_hdr == _NIFTI2_HEADER_SIZE:
            raise NiftiMagicError(
                f"{path}: NIfTI-2 file; only NIfTI-1 is supported"
            )
    else:
        raise NiftiMagicError(f"{path}: not a NIfTI-1 file")
    if len(raw) < _HEADER_SIZE:
        raise NiftiTruncatedError(f"{path}: header truncated at {len(raw)} bytes")

    magic = raw[344:348]
    if magic == _MAGIC_PAIR:
        raise NiftiMagicError(
            f"{path}: two-file NIfTI pairs are not supported; use a .nii/.nii.gz"
        )
    if magic != _MAGIC_SINGLE:
        raise NiftiMagicError(f"{path}: bad magic bytes {magic!r}")

    dim = struct.unpack_from(endian + "8h", raw, 40)
    ndim = dim[0]
    if not 1 <= ndim <= 7:
        raise NiftiMagicError(f"{path}: invalid dimension count {ndim}")
    dims = list(dim[1 : 1 + ndim])
    while len(dims) > 3 and dims[-1] == 1:
        dims.pop()
    if len(dims) not in (2, 3) or any(n < 1 for n in dims):
        raise NiftiMagicError(f"{path}: unsupported image dimensions {tuple(dims)}")
    dims = tuple(int(n) for n in dims)

    (datatype, bitpix) = struct.unpack_from(endian + "2h", raw, 70)
    dtype = _CODE_TO_DTYPE.get(datatype)
    if dtype is None:
        raise NiftiDatatypeError(f"{path}: unsupported datatype code {datatype}")
    if bitpix != 8 * dtype.itemsize:
        raise NiftiDatatypeError(
            f"{path}: bitpix {bitpix} disagrees with datatype code {datatype}"
        )

    pixdim = struct.unpack_from(endian + "8f", raw, 76)
    for axis in range(1, 1 + len(dims)):
        if not math.isfinite(pixdim[axis]):
            raise NiftiMagicError(f"{path}: pixdim[{axis}] {pixdim[axis]} is not finite")
        if pixdim[axis] < 0:
            raise NiftiMagicError(f"{path}: pixdim[{axis}] {pixdim[axis]} is negative")
    spacing = tuple(float(p) if p > 0 else 1.0 for p in pixdim[1 : 1 + len(dims)])
    (vox_offset,) = struct.unpack_from(endian + "f", raw, 108)
    if not math.isfinite(vox_offset):
        raise NiftiMagicError(f"{path}: vox_offset {vox_offset} is not finite")
    offset = int(round(vox_offset))
    if offset < _VOX_OFFSET:  # the 348-byte header plus the 4-byte extension flag
        raise NiftiMagicError(f"{path}: vox_offset {vox_offset} inside the header")
    scl_slope, scl_inter = struct.unpack_from(endian + "2f", raw, 112)
    view = NiftiHeaderView(
        dims=dims,
        pixdim=spacing,
        datatype=int(datatype),
        scl_slope=float(scl_slope),
        scl_inter=float(scl_inter),
        orientation=bytes(raw[_ORIENTATION_SLICE]),
    )
    return view, endian, offset


def read_nifti(path):
    """Load a NIfTI-1 file as (VolumeImage, NiftiHeaderView).

    Intensities are promoted to double precision with scl_slope and
    scl_inter applied (a slope of 0 or a non-finite slope means unscaled),
    and otherwise read as stored: only a configuration's rounding step
    rounds them.  A NaN or infinite voxel, stored or produced by the
    scaling, is an error naming their count.
    Only the file's bytes up to the end of the payload that the header
    describes are held in memory.
    """
    with _opened(path) as stream:
        view, endian, offset = _parse_header(path, stream.read(_HEADER_SIZE))
        dims = view.dims
        dtype = _CODE_TO_DTYPE[view.datatype]
        count = math.prod(dims)
        nbytes = count * dtype.itemsize
        start = offset - _HEADER_SIZE
        rest = _read_upto(stream, start + nbytes)
    held = max(0, len(rest) - start)
    if held < nbytes:
        raise NiftiTruncatedError(
            f"{path}: payload holds {held} bytes, {nbytes} expected "
            f"for dims {dims}"
        )
    # A view into the file bytes: the float64 conversion is the only copy.
    values = np.frombuffer(rest, dtype.newbyteorder(endian), count, start)
    data = values.astype(np.float64).reshape(dims, order="F")
    scl_slope, scl_inter = view.scl_slope, view.scl_inter
    if scl_slope != 0.0 and math.isfinite(scl_slope):
        if not math.isfinite(scl_inter):
            raise NiftiMagicError(f"{path}: scl_inter {scl_inter} is not finite")
        if scl_slope != 1.0 or scl_inter != 0.0:
            data = data * scl_slope + scl_inter
    try:  # data is this function's own array, so it is frozen, not copied
        image = _owned_image(dims, view.pixdim, data)
    except ValueError as exc:  # non-finite voxels, or a pixdim below the spacing floor
        raise NiftiError(f"{path}: {exc}") from None
    return image, view


def write_nifti(image: VolumeImage, path, datatype: str = "f32",
                orientation: bytes = None) -> None:
    """Write a single-file NIfTI-1 image (.nii, or .nii.gz when gzipped).

    ``datatype`` is one of u8/i16/i32/f32/f64; values are cast without
    rescaling, so integer types expect integer-valued data.  A value that
    is not finite, or that the cast would take outside the type's finite
    range (for f32, beyond about 3.4e38), or an axis longer than the int16
    dims hold, is an error, so every file written reads back.  A 76-byte
    ``orientation`` block from a previously read header is embedded verbatim.

    Gzip output is framed here, not by zlib: a fixed 10-byte header
    (``1f 8b 08 00``, mtime 0, XFL 0, OS 255), then the plain .nii file
    (header, extension, payload) cut into stored deflate blocks of 65535
    bytes, of which only the last, which carries BFINAL, may be shorter,
    then the CRC-32 and the size modulo 2^32.  Every file byte is thus a
    function of the volume alone, on any machine and with any zlib build,
    and identical volumes give identical files.  Nothing is compressed: the
    file is the plain file's size plus 5 bytes per block and 18 of framing.
    """
    code = DATATYPE_CODES.get(datatype)
    if code is None:
        raise NiftiDatatypeError(
            f"unsupported datatype {datatype!r}; expected one of "
            f"{sorted(DATATYPE_CODES)}"
        )
    dtype = _CODE_TO_DTYPE[code]
    low, high = float(np.min(image.data)), float(np.max(image.data))
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        fits = info.min <= low and high <= info.max  # NaN fails both
    else:
        info = np.finfo(dtype)
        with np.errstate(over="ignore"):  # the cast is monotone: test its ends
            fits = bool(np.isfinite(dtype.type(low)) and np.isfinite(dtype.type(high)))
    if not fits:
        raise NiftiDatatypeError(
            f"datatype {datatype} holds finite values in [{info.min}, {info.max}]; "
            f"the volume spans [{low:g}, {high:g}]"
        )
    dims = image.dims
    if max(dims) > _MAX_AXIS_VOXELS:
        raise NiftiError(f"dims {dims} exceed the {_MAX_AXIS_VOXELS} voxels per axis of NIfTI-1")
    ndim = len(dims)

    header = bytearray(_HEADER_SIZE)
    struct.pack_into("<i", header, 0, _HEADER_SIZE)
    struct.pack_into("<8h", header, 40, ndim, *dims, *([1] * (7 - ndim)))
    struct.pack_into("<2h", header, 70, code, 8 * dtype.itemsize)
    struct.pack_into("<8f", header, 76, 1.0, *image.spacing, *([1.0] * (7 - ndim)))
    struct.pack_into("<f", header, 108, _VOX_OFFSET)
    struct.pack_into("<2f", header, 112, 1.0, 0.0)
    header[123] = 2  # spatial units: millimetres
    if orientation is not None:
        if len(orientation) != 76:
            raise ValueError("orientation block must be the 76 bytes read back")
        header[_ORIENTATION_SLICE] = orientation
    header[344:348] = _MAGIC_SINGLE

    # The transpose of a Fortran-ordered array is C-contiguous, so the
    # payload is a byte view of the cast volume.  The gzip blocks are slices
    # of that view, so the cast volume stays the only whole copy.
    payload = memoryview(np.ascontiguousarray(np.asarray(image.data, dtype=dtype).T)).cast("B")
    header += b"\x00\x00\x00\x00"  # empty extension block up to vox_offset

    path = str(path)
    with open(path, "wb") as handle:
        if not path.endswith(".gz"):
            handle.write(header)
            handle.write(payload)
            return
        head, size = len(header), len(header) + len(payload)
        handle.write(_GZIP_HEADER)
        for start in range(0, size, _STORED_BLOCK):
            stop = min(start + _STORED_BLOCK, size)
            handle.write(struct.pack("<BHH", stop == size, stop - start, (stop - start) ^ 0xFFFF))
            if start == 0:
                handle.write(header)
            handle.write(payload[max(start - head, 0) : stop - head])
        crc = zlib.crc32(payload, zlib.crc32(header))
        handle.write(struct.pack("<2I", crc, size & 0xFFFFFFFF))
