"""Digital test phantoms and response-map comparison analytics.

The nine phantoms each probe one aspect of a filtering chain: ``empty`` and
``impulse`` expose the raw kernel, ``checkerboard`` stresses edges,
``noise`` has no structure, ``sphere`` has no preferred direction, the three
``pattern`` volumes introduce controlled directionality and ``orientation``
reveals axis order mistakes.  All volumes are 8-bit-range intensities on an
isotropic 2 mm grid.

The exact geometry of the checkerboard, sphere and pattern phantoms is only
published as image files, not as formulas.  The generators below use simple
documented defaults (cube edge 16, hulls at radii 8/16/24/31, axis-aligned
lines).  When official phantom files are available they take precedence over
these defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import VolumeImage, create_image

__all__ = [
    "PHANTOM_KINDS",
    "PHANTOM_SPACING_MM",
    "generate_phantom",
    "compare_maps",
    "ConsensusReport",
    "consensus",
    "CONSENSUS_LEVELS",
    "consensus_level",
]

PHANTOM_KINDS = (
    "empty",
    "impulse",
    "checkerboard",
    "noise",
    "sphere",
    "pattern1",
    "pattern2",
    "pattern3",
    "orientation",
)

PHANTOM_SPACING_MM = 2.0

_CUBE_DIMS = (64, 64, 64)
_CENTRE_INDEX = 32
_CHECKER_EDGE = 16
_HULL_RADII = (8.0, 16.0, 24.0, 31.0)
_HULL_HALF_WIDTH = 0.5
_LINE_OFFSET = 16
_NOISE_MEAN = 127.0
_NOISE_SD = 48.0


def _index_grids(dims):
    return np.indices(dims, dtype=np.float64)


def generate_phantom(kind, seed=None) -> VolumeImage:
    """Generate one of the nine test phantoms.

    ``seed`` is required for (and only used by) the noise phantom.
    """
    if kind not in PHANTOM_KINDS:
        raise ValueError(f"unknown phantom kind {kind!r}, expected one of {PHANTOM_KINDS}")

    dims = (32, 48, 64) if kind == "orientation" else _CUBE_DIMS
    spacing = (PHANTOM_SPACING_MM,) * 3
    data = np.zeros(dims)

    if kind == "empty":
        pass
    elif kind == "impulse":
        data[_CENTRE_INDEX, _CENTRE_INDEX, _CENTRE_INDEX] = 255.0
    elif kind == "checkerboard":
        k1, k2, k3 = np.indices(dims)
        even = (k1 // _CHECKER_EDGE + k2 // _CHECKER_EDGE + k3 // _CHECKER_EDGE) % 2 == 0
        data[even] = 255.0
    elif kind == "noise":
        if seed is None:
            raise ValueError("the noise phantom needs an explicit seed")
        rng = np.random.default_rng(seed)
        data = np.clip(rng.normal(_NOISE_MEAN, _NOISE_SD, size=dims), 0.0, 255.0)
    elif kind == "sphere":
        # Four concentric 1-voxel-thick hulls about the geometric centre of
        # the grid (31.5 in each axis, so the hulls stay symmetric).
        centre = (np.asarray(dims, dtype=np.float64) - 1.0) / 2.0
        k1, k2, k3 = _index_grids(dims)
        radius = np.sqrt(
            (k1 - centre[0]) ** 2 + (k2 - centre[1]) ** 2 + (k3 - centre[2]) ** 2
        )
        for r in _HULL_RADII:
            data[np.abs(radius - r) <= _HULL_HALF_WIDTH] = 255.0
    elif kind == "pattern1":
        # Three perpendicular lines crossing at the centre voxel.
        c = _CENTRE_INDEX
        data[:, c, c] = 255.0
        data[c, :, c] = 255.0
        data[c, c, :] = 255.0
    elif kind == "pattern2":
        # Three parallel lines along k3.
        c = _CENTRE_INDEX
        for off in (-_LINE_OFFSET, 0, _LINE_OFFSET):
            data[c + off, c + off, :] = 255.0
    elif kind == "pattern3":
        # Two parallel lines along k3 plus one perpendicular line along k1.
        c = _CENTRE_INDEX
        data[c - _LINE_OFFSET, c, :] = 255.0
        data[c + _LINE_OFFSET, c, :] = 255.0
        data[:, c, c] = 255.0
    elif kind == "orientation":
        k1, k2, k3 = _index_grids(dims)
        data = k1 + k2 + k3

    return create_image(dims, spacing, data)


def _map_values(volume) -> np.ndarray:
    if isinstance(volume, VolumeImage):
        return np.asarray(volume.data, dtype=np.float64)
    return np.asarray(volume, dtype=np.float64)


def compare_maps(candidate, reference, tolerance, relative: float = 0.0):
    """Voxel-wise comparison of a candidate response map against a reference.

    Returns ``(diff, passing, fraction)`` where ``diff = |candidate -
    reference|``, ``passing = diff <= tolerance + relative * |reference|``
    and ``fraction`` is the passing voxel share.
    """
    cand = _map_values(candidate)
    ref = _map_values(reference)
    if cand.shape != ref.shape:
        raise ValueError(f"map dims differ: {cand.shape} vs {ref.shape}")
    if not (tolerance >= 0 and relative >= 0):  # NaN is no tolerance either
        raise ValueError("tolerances must be non-negative")
    diff = np.abs(cand - ref)
    passing = diff <= tolerance + relative * np.abs(ref)
    fraction = float(np.count_nonzero(passing)) / passing.size
    return diff, passing, fraction


CONSENSUS_LEVELS = ("weak", "moderate", "strong", "very strong")


def consensus_level(matching_team_count, total_count):
    """Grade agreement between submissions and test its validity.

    Returns ``(level, valid)``.  The level depends on absolute counts
    (fewer than three matches is weak, three to five moderate, six to nine
    strong, ten or more very strong); validity additionally demands an
    absolute majority of matching teams.
    """
    matching = int(matching_team_count)
    total = int(total_count)
    if total <= 0:
        raise ValueError(f"total team count must be positive, got {total}")
    if matching < 0:
        raise ValueError(f"matching team count must be non-negative, got {matching}")
    if matching > total:
        raise ValueError(f"matching teams ({matching}) exceed total ({total})")
    if matching < 3:
        level = "weak"
    elif matching <= 5:
        level = "moderate"
    elif matching <= 9:
        level = "strong"
    else:
        level = "very strong"
    valid = level != "weak" and matching / total > 0.5
    return level, valid


@dataclass(frozen=True)
class ConsensusReport:
    """Summary of a set of submitted response maps.

    ``level``/``valid`` grade the consensus, counting non-outlier
    submissions as matching.
    """

    centroid: np.ndarray
    distances: np.ndarray
    outliers: np.ndarray
    level: str
    valid: bool

    @property
    def submission_count(self) -> int:
        return self.distances.size


def consensus(submissions) -> ConsensusReport:
    """Pool submitted response maps into a consensus report.

    The centroid is the voxel-wise mean.  Submissions are flagged as
    outliers with the 1.5 IQR boxplot rule on their Euclidean distances to
    the centroid.
    """
    maps = [_map_values(s) for s in submissions]
    if not maps:
        raise ValueError("need at least one submission")
    dims = maps[0].shape
    for i, m in enumerate(maps):
        if m.shape != dims:
            raise ValueError(f"submission {i} has dims {m.shape}, expected {dims}")

    stacked = np.stack([m.reshape(-1) for m in maps])
    centroid_flat = stacked.mean(axis=0)
    centred = stacked - centroid_flat
    distances = np.sqrt(np.einsum("ij,ij->i", centred, centred))

    # Only the upper fence matters: a submission unusually close to the
    # centroid agrees with it, it is not discrepant.
    q1, q3 = np.percentile(distances, [25.0, 75.0])
    outliers = distances > q3 + 1.5 * (q3 - q1)

    matching = int(np.count_nonzero(~outliers))
    level, valid = consensus_level(matching, len(maps))
    return ConsensusReport(centroid=centroid_flat.reshape(dims), distances=distances,
                           outliers=outliers, level=level, valid=valid)
