"""Command-line front end: phantoms, filtering, configuration runs, reports.

Physical-unit flags end in -mm, voxel-unit flags in -vox; an invocation
may use one unit system only.  The resolved filter plan (voxel-unit
parameters and kernel sizes) is logged to stderr so two implementations
can be compared at the parameter level before diffing response maps.
VOXFILT_THREADS sets the default --threads value; the thread count never
changes results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .benchmark import PHANTOM_KINDS, compare_maps, consensus, generate_phantom
from .boundary import BOUNDARY_MODES
from .features import (
    diagnostics,
    intensity_statistics,
    write_feature_csv,
    write_feature_json,
)
from .image import RoiMask, VolumeImage, round_half_away
from .nifti import DATATYPE_CODES, read_nifti, write_nifti
from .pipeline import (
    FILTER_KINDS,
    FilterConfig,
    apply_filter,
    load_config,
    plan_filter,
    run_configuration,
)
from .wavelets import RADIAL_KINDS, WAVELET_NAMES, dwt_decimated

__all__ = ["main"]

_THREADS_ENV = "VOXFILT_THREADS"
_DATATYPES = tuple(sorted(DATATYPE_CODES))
_INTEGER_DATATYPES = ("u8", "i16", "i32")


def _default_threads() -> int:
    raw = os.environ.get(_THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _load_image(path, round_values=False):
    if not os.path.exists(path):
        raise FileNotFoundError(f"{path}: file not found")
    return read_nifti(path, round_values=round_values)


def _load_mask(path):
    image, _ = _load_image(path)
    return RoiMask(np.asfortranarray(image.data >= 0.5))


def _log(message):
    print(message, file=sys.stderr)


# argparse destinations that are filter parameters of the same name; flags
# not given stay out of the dict, so the filter's own validation reports misuse.
_PARAM_NAMES = (
    "support", "sigma_mm", "sigma_vox", "cutoff", "kernels", "energy_delta",
    "lambda_mm", "lambda_vox", "gamma", "theta", "dtheta", "orthogonal_planes",
    "rotation_invariance", "pool", "level", "subband", "align",
    "sigma_tensor_mm", "sigma_tensor_vox",
)


def _gather_filter_params(args) -> dict:
    params = {}
    for name in _PARAM_NAMES:
        value = getattr(args, name, None)
        if value is not None and value is not False:
            params[name] = value
    wavelet = getattr(args, "wavelet", None)
    if wavelet is not None:
        params["family" if args.filter == "wavelet" else "wavelet"] = wavelet
    riesz = getattr(args, "riesz", None)
    if riesz:
        try:
            params["l"] = [int(v) for v in riesz.split(",")]
        except ValueError:
            raise ValueError(
                f"--riesz expects comma-separated integers like 0,2,0; got {riesz!r}"
            ) from None
    return params


def cmd_phantom(args) -> int:
    image = generate_phantom(args.kind, seed=args.seed)
    if args.datatype in _INTEGER_DATATYPES:
        image = image.with_data(round_half_away(image.data))
    write_nifti(image, args.out, args.datatype)
    data = image.data
    print(
        f"{args.out}: {args.kind} phantom, dims {image.dims}, spacing "
        f"{image.spacing} mm, min {data.min():g}, max {data.max():g}"
    )
    return 0


def cmd_filter(args) -> int:
    image, view = _load_image(args.image, args.round_on_load)
    filt = FilterConfig(args.filter, _gather_filter_params(args))

    if args.decimated:
        if args.filter != "wavelet":
            raise ValueError("--decimated applies to the wavelet filter only")
        if args.mode != "3d":
            raise ValueError("the decimated transform runs on the full volume; use --mode 3d")
        for flag in ("wavelet", "level", "subband"):
            if getattr(args, flag) is None:
                raise ValueError(f"the decimated transform needs --{flag}")
        level = args.level
        levels = dwt_decimated(image.data, args.wavelet, level, args.boundary,
                               args.boundary_constant)
        subband = args.subband.upper()
        maps = levels[level - 1].subbands
        if subband not in maps:
            raise ValueError(
                f"unknown subband {subband!r}; level {level} holds {sorted(maps)}"
            )
        spacing = tuple(s * 2.0**level for s in image.spacing)
        _log(
            f"decimated {args.wavelet} level {level} {subband}: dims "
            f"{maps[subband].shape}, spacing {spacing} mm"
        )
        response = VolumeImage(np.asfortranarray(maps[subband]), spacing)
    else:
        plan = plan_filter(filt, image.spacing, args.mode, args.boundary,
                           args.boundary_constant)
        _log(plan.summary)
        data = apply_filter(
            image, filt, args.mode, args.boundary, args.boundary_constant, args.threads
        )
        response = image.with_data(data)

    orientation = view.orientation if response.dims == image.dims else None
    write_nifti(response, args.out, args.datatype, orientation=orientation)
    data = response.data
    print(
        f"{args.out}: dims {response.dims}, min {data.min():.6g}, "
        f"max {data.max():.6g}, mean {data.mean():.6g}"
    )
    return 0


def cmd_run(args) -> int:
    test_id, config = load_config(args.config)
    image, view = _load_image(args.image, args.round_on_load)
    mask = _load_mask(args.mask)
    plan = plan_filter(config.filter, config.resample_spacing_mm or image.spacing,
                       config.mode, config.boundary, config.boundary_constant)
    _log(plan.summary)

    response, intensity_mask, features = run_configuration(
        image, mask, config, args.threads
    )

    stem = test_id or "run"
    os.makedirs(args.out_dir, exist_ok=True)
    map_path = os.path.join(args.out_dir, f"{stem}_response.nii.gz")
    csv_path = os.path.join(args.out_dir, f"{stem}_features.csv")
    json_path = os.path.join(args.out_dir, f"{stem}_features.json")
    same_grid = response.dims == image.dims and response.spacing == image.spacing
    write_nifti(response, map_path, args.datatype,
                orientation=view.orientation if same_grid else None)
    write_feature_csv(csv_path, stem, features)
    write_feature_json(json_path, stem, features)

    print(
        f"{stem}: response dims {response.dims}, spacing {response.spacing} mm, "
        f"ROI voxels {intensity_mask.voxel_count}"
    )
    print(f"wrote {map_path}")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0


def cmd_features(args) -> int:
    image, _ = _load_image(args.image, args.round_on_load)
    mask = _load_mask(args.mask)
    values = diagnostics(mask.membership, mask.membership, image.data)
    values = values + intensity_statistics(image.data, mask.membership)
    if str(args.out).endswith(".json"):
        write_feature_json(args.out, args.test_id, values)
    else:
        write_feature_csv(args.out, args.test_id, values)
    print(f"wrote {args.out} ({len(values)} features)")
    return 0


def cmd_compare(args) -> int:
    candidate, _ = _load_image(args.candidate)
    reference, _ = _load_image(args.reference)
    diff, _, fraction = compare_maps(candidate, reference, args.tolerance, args.relative)
    status = "PASS" if fraction == 1.0 else "FAIL"
    print(
        f"{status}: {fraction:.6f} of voxels within tolerance, "
        f"max abs diff {float(diff.max()):.6g}"
    )
    return 0 if fraction == 1.0 else 1


def cmd_consensus(args) -> int:
    volumes = [_load_image(path)[0] for path in args.maps]
    report = consensus(volumes)
    for path, distance, flagged in zip(args.maps, report.distances, report.outliers):
        marker = "  OUTLIER" if flagged else ""
        print(f"{path}: distance {float(distance):.6g}{marker}")
    matching = report.submission_count - int(np.count_nonzero(report.outliers))
    verdict = "valid" if report.valid else "not valid"
    print(
        f"consensus: {report.level} ({matching} of {report.submission_count} "
        f"matching), {verdict}"
    )
    if args.out:
        payload = {
            "level": report.level,
            "valid": bool(report.valid),
            "submissions": [
                {
                    "path": str(path),
                    "distance": float(distance),
                    "outlier": bool(flagged),
                    "coordinates": [float(c) for c in coords],
                }
                for path, distance, flagged, coords in zip(
                    args.maps, report.distances, report.outliers, report.coordinates
                )
            ],
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


def _add_io_flags(parser, datatype_default="f32"):
    parser.add_argument("--datatype", default=datatype_default, choices=_DATATYPES,
                        help="voxel datatype for written volumes")
    parser.add_argument("--round-on-load", action="store_true",
                        help="round intensities to integers right after reading")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxfilt",
        description="convolutional filtering of 2-D/3-D volumes with benchmark plumbing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a test phantom volume")
    p.add_argument("kind", choices=PHANTOM_KINDS)
    p.add_argument("--out", "-o", required=True, help="output .nii/.nii.gz path")
    p.add_argument("--seed", type=int, help="RNG seed (required for the noise phantom)")
    p.add_argument("--datatype", default="u8", choices=_DATATYPES)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("filter", help="filter one volume and write the response map")
    p.add_argument("image", help="input .nii/.nii.gz volume")
    p.add_argument("--out", "-o", required=True, help="output response map path")
    p.add_argument("--filter", required=True, choices=FILTER_KINDS)
    p.add_argument("--mode", default="3d", choices=("2d", "3d"),
                   help="slice-wise or volumetric filtering")
    p.add_argument("--boundary", default="mirror", choices=tuple(BOUNDARY_MODES))
    p.add_argument("--boundary-constant", type=float, default=0.0)
    p.add_argument("--threads", type=int, default=_default_threads())
    _add_io_flags(p)
    g = p.add_argument_group("filter parameters (unused flags are rejected)")
    g.add_argument("--support", type=int, help="mean filter size in voxels")
    g.add_argument("--sigma-mm", type=float)
    g.add_argument("--sigma-vox", type=float)
    g.add_argument("--cutoff", type=float, help="LoG truncation in multiples of sigma")
    g.add_argument("--kernels", help="Laws kernel string, e.g. L5E5E5")
    g.add_argument("--energy-delta", type=int, help="Laws energy pooling distance")
    g.add_argument("--lambda-mm", type=float)
    g.add_argument("--lambda-vox", type=float)
    g.add_argument("--gamma", type=float, help="Gabor spatial aspect ratio")
    g.add_argument("--theta", type=float, help="Gabor orientation in radians")
    g.add_argument("--dtheta", type=float, help="orientation step for --rotinv")
    g.add_argument("--orthogonal-planes", action="store_true",
                   help="average Gabor responses over the three plane stacks")
    g.add_argument("--rotinv", action="store_true", dest="rotation_invariance",
                   help="pool over the right-angle rotation set")
    g.add_argument("--pool", choices=("max", "average"))
    g.add_argument("--wavelet", choices=tuple(sorted(set(WAVELET_NAMES) | set(RADIAL_KINDS))))
    g.add_argument("--level", type=int)
    g.add_argument("--subband", help="letter per axis, e.g. LLH")
    g.add_argument("--decimated", action="store_true",
                   help="decimated transform (halves dims per level; default stationary)")
    g.add_argument("--riesz", help="Riesz index, comma-separated, e.g. 0,2,0")
    g.add_argument("--align", action="store_true",
                   help="steer the order-2 Riesz set by the structure tensor")
    g.add_argument("--sigma-tensor-mm", type=float)
    g.add_argument("--sigma-tensor-vox", type=float)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("run", help="run a benchmark configuration file")
    p.add_argument("config", help="configuration .yaml")
    p.add_argument("--image", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int, default=_default_threads())
    _add_io_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("features", help="aggregate intensity statistics over a mask")
    p.add_argument("image")
    p.add_argument("--mask", required=True)
    p.add_argument("--out", "-o", required=True, help=".csv or .json output path")
    p.add_argument("--test-id", default="")
    p.add_argument("--round-on-load", action="store_true")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("compare", help="diff a response map against a reference")
    p.add_argument("candidate")
    p.add_argument("reference")
    p.add_argument("--tolerance", type=float, required=True)
    p.add_argument("--relative", type=float, default=0.0,
                   help="extra allowance as a fraction of the reference magnitude")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("consensus", help="centroid/outlier report over submitted maps")
    p.add_argument("maps", nargs="+")
    p.add_argument("--out", "-o", help="optional JSON report path")
    p.set_defaults(func=cmd_consensus)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
