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

import gzip
import math
import struct
from dataclasses import dataclass

import numpy as np

from .image import VolumeImage, create_image, round_half_away

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


def _read_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        head = handle.read(2)
        handle.seek(0)
        if head == _GZIP_MAGIC:
            with gzip.GzipFile(fileobj=handle) as stream:
                return stream.read()
        return handle.read()


def read_nifti(path, round_values: bool = False):
    """Load a NIfTI-1 file as (VolumeImage, NiftiHeaderView).

    Intensities are promoted to double precision with scl_slope and
    scl_inter applied (a slope of 0 or a non-finite slope means unscaled).  ``round_values``
    additionally rounds half away from zero, for masks and images whose
    integer nature was lost in an earlier conversion.
    """
    raw = _read_bytes(path)
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
    if offset < _HEADER_SIZE:
        raise NiftiMagicError(f"{path}: vox_offset {vox_offset} inside the header")
    scl_slope, scl_inter = struct.unpack_from(endian + "2f", raw, 112)

    count = int(np.prod(dims))
    nbytes = count * dtype.itemsize
    payload = raw[offset : offset + nbytes]
    if len(payload) < nbytes:
        raise NiftiTruncatedError(
            f"{path}: payload holds {len(payload)} bytes, {nbytes} expected "
            f"for dims {dims}"
        )
    values = np.frombuffer(payload, dtype=dtype.newbyteorder(endian))
    data = values.astype(np.float64).reshape(dims, order="F")
    if scl_slope != 0.0 and math.isfinite(scl_slope):
        if not math.isfinite(scl_inter):
            raise NiftiMagicError(f"{path}: scl_inter {scl_inter} is not finite")
        if scl_slope != 1.0 or scl_inter != 0.0:
            data = data * scl_slope + scl_inter
    if round_values:
        data = round_half_away(data)

    view = NiftiHeaderView(
        dims=dims,
        pixdim=spacing,
        datatype=int(datatype),
        scl_slope=float(scl_slope),
        scl_inter=float(scl_inter),
        orientation=bytes(raw[_ORIENTATION_SLICE]),
    )
    return create_image(dims, spacing, data), view


def write_nifti(image: VolumeImage, path, datatype: str = "f32",
                orientation: bytes = None) -> None:
    """Write a single-file NIfTI-1 image (.nii, or .nii.gz when gzipped).

    ``datatype`` is one of u8/i16/i32/f32/f64; values are cast without
    rescaling, so integer types expect integer-valued data.  A 76-byte
    ``orientation`` block from a previously read header is embedded
    verbatim.  Gzip output carries no timestamp, so identical volumes
    produce identical files.
    """
    code = DATATYPE_CODES.get(datatype)
    if code is None:
        raise NiftiDatatypeError(
            f"unsupported datatype {datatype!r}; expected one of "
            f"{sorted(DATATYPE_CODES)}"
        )
    dtype = _CODE_TO_DTYPE[code]
    dims = image.dims
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

    payload = np.asarray(image.data, dtype=dtype).tobytes(order="F")
    body = bytes(header) + b"\x00\x00\x00\x00" + payload

    path = str(path)
    if path.endswith(".gz"):
        with open(path, "wb") as handle:
            with gzip.GzipFile(filename="", mode="wb", fileobj=handle,
                               mtime=0) as stream:
                stream.write(body)
    else:
        with open(path, "wb") as handle:
            handle.write(body)
