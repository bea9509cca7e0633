"""Workload definitions: generated inputs and the fixed operation list of each.

One operation runs one ``configs/*.yaml`` file on one generated volume.  A
pass runs every operation of a workload once, in list order.  Why each
workload exists is recorded in NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import dataclasses
from dataclasses import dataclass

import numpy as np

# Inputs are selected by ``seed % INPUT_SETS``; reference/ holds the outputs
# of every input set, so each run is checked against recorded values.
INPUT_SETS = 16


@dataclass(frozen=True)
class Volume:
    name: str
    dims: tuple
    spacing: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    volumes: tuple
    ops: tuple  # (config id, volume name) in pass order
    route: str  # "cli": voxfilt run in-process, "library": run_configuration
    threads: int
    # Seconds one pass took, calibrations included, when the benchmark was
    # defined (2-core x86-64 VM); sets how many passes fill a run.
    pass_seconds: float
    # Run an untimed threads=1 pass whose bytes every timed pass must match.
    single_thread_check: bool = False

    def volume(self, name):
        return next(v for v in self.volumes if v.name == name)


_VOL_CONFIGS = ("1.B", "2.B", "3.B", "4.B", "6.B", "7.B", "8.B", "9.B", "10.B", "11.B")
_SLICE_CONFIGS = ("1.A", "2.A", "3.A", "4.A", "6.A", "7.A", "8.A", "9.A", "10.A", "11.A")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="volumetric",
            volumes=(Volume("ct", (28, 28, 28), (2.0, 2.0, 2.0)),),
            ops=tuple((c, "ct") for c in _VOL_CONFIGS),
            route="cli",
            threads=1,
            pass_seconds=5.3,
        ),
        Workload(
            name="planar-gabor",
            volumes=(
                Volume("stack", (64, 64, 4), (2.0, 2.0, 2.0)),
                Volume("cube", (6, 6, 6), (2.0, 2.0, 2.0)),
            ),
            ops=(("5.A", "stack"), ("5.B", "cube")),
            route="library",
            threads=1,
            pass_seconds=1.1,
        ),
        Workload(
            name="slices-2d",
            volumes=(Volume("ct", (128, 128, 32), (1.0, 1.0, 3.0)),),
            ops=tuple((c, "ct") for c in _SLICE_CONFIGS),
            route="library",
            threads=2,
            pass_seconds=2.6,
            single_thread_check=True,
        ),
    )
}


def shrink(workload: Workload, factor: int) -> Workload:
    """The same workload on volumes ``factor`` times smaller per axis (smoke tests)."""
    volumes = tuple(
        Volume(v.name, tuple(max(4, n // factor) for n in v.dims), v.spacing)
        for v in workload.volumes
    )
    return dataclasses.replace(workload, volumes=volumes)


def ct_volume(volume: Volume, input_set: int, index: int) -> np.ndarray:
    """CT-like noise: N(127, 48) clipped to [0, 255], mapped to 5x - 600 HU, rounded."""
    rng = np.random.default_rng([input_set, index])
    x = np.clip(rng.normal(127.0, 48.0, size=volume.dims), 0.0, 255.0)
    return np.rint(5.0 * x - 600.0)


def expected_dims(volume: Volume, config) -> tuple:
    """Grid dims after the configuration's resampling (pipeline's rounding-up rule)."""
    if config.resample_spacing_mm is None:
        return volume.dims
    return tuple(
        math.ceil(n * s / t)
        for n, s, t in zip(volume.dims, volume.spacing, config.resample_spacing_mm)
    )


class Prepared:
    """Inputs of one workload for one input set, ready to run.

    For the CLI route the inputs are gzip NIfTI files (image i16, mask u8)
    under ``workdir``; for the library route they are in-memory images with
    pre-loaded configurations.
    """

    def __init__(self, workload: Workload, input_set: int, workdir: str, voxfilt):
        self.workload = workload
        self.voxfilt = voxfilt
        self.workdir = workdir
        self.config_paths = {c: os.path.join("configs", f"{c}.yaml") for c, _ in workload.ops}
        self.configs = {c: voxfilt.load_config(p)[1] for c, p in self.config_paths.items()}
        self.images, self.masks, self.files = {}, {}, {}
        os.makedirs(workdir, exist_ok=True)
        for index, volume in enumerate(workload.volumes):
            data = ct_volume(volume, input_set, index)
            image = voxfilt.create_image(volume.dims, volume.spacing, data)
            mask = voxfilt.RoiMask(np.ones(volume.dims, dtype=bool))
            self.images[volume.name], self.masks[volume.name] = image, mask
            if workload.route == "cli":
                image_path = os.path.join(workdir, f"{volume.name}_image.nii.gz")
                mask_path = os.path.join(workdir, f"{volume.name}_mask.nii.gz")
                voxfilt.write_nifti(image, image_path, "i16")
                voxfilt.write_nifti(image.with_data(mask.membership), mask_path, "u8")
                self.files[volume.name] = (image_path, mask_path)

    def run(self, op, threads):
        """Run one operation: the call into voxfilt that callers time."""
        config_id, volume_name = op
        if self.workload.route == "cli":
            image_path, mask_path = self.files[volume_name]
            argv = ["run", self.config_paths[config_id], "--image", image_path,
                    "--mask", mask_path, "--out-dir", self._out_dir(),
                    "--threads", str(threads)]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.voxfilt.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"voxfilt run {config_id} exited {code}: {sink.getvalue()}")
            return None
        return self.voxfilt.run_configuration(
            self.images[volume_name], self.masks[volume_name], self.configs[config_id],
            threads,
        )

    def collect(self, op, result):
        """Response data, feature names and values, and the output bytes to hash."""
        config_id, _ = op
        if self.workload.route == "cli":
            out = self._out_dir()
            paths = [os.path.join(out, f"{config_id}_{suffix}")
                     for suffix in ("response.nii.gz", "features.csv", "features.json")]
            blobs = []
            for path in paths:
                with open(path, "rb") as handle:
                    blobs.append(handle.read())
            response, _ = self.voxfilt.read_nifti(paths[0])
            rows = json.loads(blobs[2].decode())
            names = [r["name"] for r in rows]
            return response.data, names, [float(r["value"]) for r in rows], blobs
        response, _, features = result
        data = response.data
        values = [f.value for f in features]
        return (data, [f.name for f in features], values,
                [data.tobytes(order="F"), repr(values).encode()])

    def _out_dir(self):
        return os.path.join(self.workdir, "out")

