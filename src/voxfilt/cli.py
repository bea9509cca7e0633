"""Command-line front end: phantoms, filtering, configuration runs, reports.

Physical-unit flags end in -mm, voxel-unit flags in -vox; an invocation
may use one unit system only.  The filter's flags pass the one key check
before the image is read, and its errors name flags (--dtheta needs
--rotinv).  The resolved plan's summary (every parameter in voxels, the
boundary and the route) is logged to stderr so two implementations can be
compared at the parameter level before diffing response maps.
VOXFILT_THREADS sets the default --threads value (a positive integer); the
thread count never changes results.  Images are read as stored: only a
configuration's rounding step and `phantom`'s integer writes round.  A
response on the input's grid keeps the input's orientation block.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .benchmark import PHANTOM_KINDS, compare_maps, consensus, generate_phantom
from .features import (
    diagnostics,
    intensity_statistics,
    write_feature_csv,
    write_feature_json,
)
from .image import RoiMask, VolumeImage, round_half_away
from .nifti import DATATYPE_CODES, read_nifti, write_nifti
from .pipeline import (
    _PLANNERS,
    FILTER_PARAMETERS,
    FilterConfig,
    _check_keys,
    load_config,
    plan_filter,
    run_configuration,
)

__all__ = ["main"]

_THREADS_ENV = "VOXFILT_THREADS"
_DATATYPES = tuple(sorted(DATATYPE_CODES))
_INTEGER_DATATYPES = ("u8", "i16", "i32")


def _default_threads() -> int:
    raw = os.environ.get(_THREADS_ENV, "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"{_THREADS_ENV} must be a positive integer, got {raw!r}")
    return threads


def _load_image(path):
    if not os.path.exists(path):
        raise FileNotFoundError(f"{path}: file not found")
    return read_nifti(path)


def _load_mask(path, image):
    """The mask at ``path``, which must lie on ``image``'s grid as read."""
    mask, _ = _load_image(path)
    if (mask.dims, mask.spacing) != (image.dims, image.spacing):
        raise ValueError(f"mask {path} has dims {mask.dims} and spacing {mask.spacing} mm; "
                         f"the image has dims {image.dims} and spacing {image.spacing} mm")
    membership = mask.data >= 0.5
    membership.flags.writeable = False  # built here, so RoiMask need not copy it
    return RoiMask(membership)


def _write_response(response, path, datatype, image, view):
    """Write a response map, keeping the input's orientation block on the input's grid."""
    same_grid = (response.dims, response.spacing) == (image.dims, image.spacing)
    write_nifti(response, path, datatype, orientation=view.orientation if same_grid else None)


def _log(message):
    print(message, file=sys.stderr)


# filter parameters whose flag is not the key with dashes
_FLAG_OF = {"l": "--riesz", "rotation_invariance": "--rotinv"}


def _flag(key):
    return _FLAG_OF.get(key, "--" + key.replace("_", "-"))


def _gather_filter_params(args) -> dict:
    """The filter parameters given by flag, as given: plan_filter types them
    as it types a configuration file's.  Flags not given stay out of the
    dict."""
    params = {}
    for key in FILTER_PARAMETERS:
        value = getattr(args, _flag(key)[2:].replace("-", "_"))
        if value is not None and value is not False:
            params[key] = value
    riesz = params.pop("l", None)
    if riesz is not None:
        try:
            params["l"] = [int(v) for v in riesz.split(",")]
        except ValueError:
            raise ValueError(
                f"--riesz expects comma-separated integers like 0,2,0; got {riesz!r}"
            ) from None
    return params


def cmd_phantom(args) -> int:
    if args.seed is not None and args.kind != "noise":
        raise ValueError(f"--seed applies only to the noise phantom, not {args.kind}")
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
    filt = FilterConfig(args.filter, _gather_filter_params(args))
    _check_keys(filt.params, _PLANNERS[filt.kind][1], f"{filt.kind} filter", _flag)
    image, view = _load_image(args.image)
    plan = plan_filter(filt, image.spacing, args.mode, args.boundary)
    _log(plan.summary)
    data = np.asfortranarray(plan.run(image.data, args.threads), dtype=np.float64)
    # a decimated response covers the same extent with n // m times the spacing
    spacing = tuple(s * (n // m) for s, n, m in zip(image.spacing, image.dims, data.shape))
    response = VolumeImage(data, spacing)
    _write_response(response, args.out, args.datatype, image, view)
    print(
        f"{args.out}: dims {response.dims}, min {data.min():.6g}, "
        f"max {data.max():.6g}, mean {data.mean():.6g}"
    )
    return 0


def cmd_run(args) -> int:
    test_id, config = load_config(args.config)
    image, view = _load_image(args.image)
    mask = _load_mask(args.mask, image)
    _log(config.plan(image.spacing).summary)
    response, intensity_mask, features = run_configuration(image, mask, config, args.threads)

    stem = test_id or "run"
    os.makedirs(args.out_dir, exist_ok=True)
    map_path = os.path.join(args.out_dir, f"{stem}_response.nii.gz")
    csv_path = os.path.join(args.out_dir, f"{stem}_features.csv")
    json_path = os.path.join(args.out_dir, f"{stem}_features.json")
    _write_response(response, map_path, args.datatype, image, view)
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
    image, _ = _load_image(args.image)
    mask = _load_mask(args.mask, image)
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
        rows = zip(args.maps, report.distances, report.outliers)
        submissions = [{"path": str(path), "distance": float(distance), "outlier": bool(flagged)}
                       for path, distance, flagged in rows]
        payload = {"level": report.level, "valid": bool(report.valid), "submissions": submissions}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: built on first use, never changed
    afterwards, and each ``parse_args`` call returns a new namespace."""
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
    p.add_argument("--filter", required=True, help=f"filter kind: {', '.join(_PLANNERS)}")
    p.add_argument("--mode", default="3d", help="2d (slice-wise) or 3d (volumetric)")
    p.add_argument("--boundary", default="mirror")
    p.add_argument("--threads", type=int)
    p.add_argument("--datatype", default="f32", choices=_DATATYPES,
                   help="voxel datatype for the response map")
    # one flag per key of the parameter table: a switch for a bool, else a
    # number or text that plan_filter types, as it types a configuration file's
    g = p.add_argument_group("filter parameters (unused flags are rejected)")
    for key, kinds in FILTER_PARAMETERS.items():
        value_type = _PLANNERS[kinds[0]][1][key].type
        kind_help = f"applies to: {', '.join(kinds)}"
        if value_type is bool:
            g.add_argument(_flag(key), action="store_true", help=kind_help)
        else:
            g.add_argument(_flag(key), type=float if value_type in (int, float) else str,
                           help=kind_help)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("run", help="run a benchmark configuration file")
    p.add_argument("config", help="configuration .yaml")
    p.add_argument("--image", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int)
    p.add_argument("--datatype", default="f32", choices=_DATATYPES,
                   help="voxel datatype for the response map")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("features", help="aggregate intensity statistics over a mask")
    p.add_argument("image")
    p.add_argument("--mask", required=True)
    p.add_argument("--out", "-o", required=True, help=".csv or .json output path")
    p.add_argument("--test-id", default="")
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
        if hasattr(args, "threads"):
            # checked before any file is read or anything is logged
            if args.threads is None:
                args.threads = _default_threads()
            elif args.threads < 1:
                raise ValueError(f"--threads must be a positive integer, got {args.threads}")
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation it could not make; a bare one is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
