"""The byte ledger: digests of all 22 configurations on the check input.

voxfilt promises that a configuration writes the same bytes on every run.
``tests/digests.json`` pins them.  Per configuration it holds the SHA-256 of
the response bytes and of the feature tuple's ``repr`` on the check input
(14 x 13 x 9 at 1.5 x 1.5 x 2.5 mm, normal x 300 - 200, seed 101), once with
its full mask and once with a partial one: the voxels within 7.5 mm of the
grid centre.  For the partial mask the intensity-mask bytes are hashed too,
since only a partial mask reaches the resampler's partial volumes.

Entries are keyed by numpy version, then by SIMD dispatch level
(``tests/dispatch.py``), each level with the numpy features it enabled.  A
configuration that hashes the same at every level is stored once, under
``all levels``, so the file shows which configurations still depend on the
level.  ``test_ledger.py::test_byte_ledger`` runs the 22 configurations at
the default level, at threads 1 and 2, and compares.

Record the installed numpy's entries at the three levels with::

    python tests/ledger.py --record

A change that moves bytes re-records the ledger in the same change, and
lists each moved configuration with its max relative difference.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dispatch import _DISPATCH_LEVELS, run_probe  # noqa: E402
from voxfilt.image import RoiMask, create_image  # noqa: E402
from voxfilt.pipeline import load_config, run_configuration  # noqa: E402

HERE = Path(__file__).resolve().parent
LEDGER = HERE / "digests.json"
CONFIGS = HERE.parent / "configs"
THREADS = (1, 2)
ALL_LEVELS = "all levels"
RECORD = "python tests/ledger.py --record"

# runs in a fresh interpreter; its first line is the digests as JSON
_PROBE = f"""
import json, sys
sys.path.insert(0, {str(HERE)!r})
import ledger
print(json.dumps(ledger.digests(int(t) for t in sys.argv[1:])))
"""


def numpy_key() -> str:
    return f"numpy {np.__version__}"


def check_inputs():
    """The check input, its full mask and the partial mask (306 of 1638 voxels)."""
    data = np.random.default_rng(101).normal(size=(14, 13, 9)) * 300.0 - 200.0
    image = create_image(data.shape, (1.5, 1.5, 2.5), data)
    offsets = [(np.arange(n) - (n - 1) / 2.0) * s for n, s in zip(image.dims, image.spacing)]
    grid = np.meshgrid(*offsets, indexing="ij")
    partial = grid[0] ** 2 + grid[1] ** 2 + grid[2] ** 2 <= 7.5**2
    return image, RoiMask(np.ones(image.dims, dtype=bool)), RoiMask(partial)


def config_names() -> list:
    names = (name[: -len(".yaml")] for name in os.listdir(CONFIGS) if name.endswith(".yaml"))
    return sorted(names, key=lambda n: (int(n.split(".")[0]), n))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(threads=THREADS) -> dict:
    """thread count -> configuration -> mask -> what -> SHA-256, computed here."""
    image, full, partial = check_inputs()
    configs = {name: load_config(CONFIGS / f"{name}.yaml")[1] for name in config_names()}
    out = {}
    for count in threads:
        out[str(count)] = table = {}
        for name, config in configs.items():
            table[name] = {}
            for label, mask in (("full", full), ("partial", partial)):
                response, intensity_mask, features = run_configuration(image, mask, config,
                                                                       count)
                entry = {"response": _sha(response.data.tobytes()),
                         "features": _sha(repr(features).encode())}
                if label == "partial":
                    entry["mask"] = _sha(intensity_mask.membership.tobytes())
                table[name][label] = entry
    return out


def probe(disabled=None) -> tuple:
    """``digests()`` in a fresh interpreter at one dispatch level; returns
    them and the numpy features that were enabled."""
    line, features, _ = run_probe(_PROBE, *THREADS, disabled=disabled)
    return json.loads(line), features


def expected(entry: dict, features: str):
    """The digests an entry records for the level that enabled ``features``,
    or None when no recorded level did."""
    for level, enabled in entry["features"].items():
        if enabled == features:
            return {**entry[ALL_LEVELS], **entry[level]}
    return None


def mismatches(got: dict, want: dict) -> list:
    """``configuration mask what`` for every digest of ``got`` that is not ``want``'s."""
    return [f"{name} {label} {what}"
            for name in sorted(set(got) | set(want), key=config_names().index)
            for label in ("full", "partial")
            for what in ("response", "features", "mask")
            if got.get(name, {}).get(label, {}).get(what)
            != want.get(name, {}).get(label, {}).get(what)]


def record() -> dict:
    """Run the probe at the three dispatch levels and write the installed
    numpy's entry; the threads must agree at every level."""
    levels, features = {}, {}
    for level, disabled in _DISPATCH_LEVELS:
        by_threads, features[level] = probe(disabled)
        first = by_threads[str(THREADS[0])]
        for count, table in by_threads.items():
            moved = mismatches(table, first)
            if moved:
                raise RuntimeError(f"{level}: threads {count} moved {moved}; nothing recorded")
        levels[level] = first
    default = levels[_DISPATCH_LEVELS[0][0]]
    same = [name for name in default if all(table[name] == default[name]
                                            for table in levels.values())]
    entry = {"features": features, ALL_LEVELS: {name: default[name] for name in same}}
    for level, table in levels.items():
        entry[level] = {name: d for name, d in table.items() if name not in same}
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    ledger[numpy_key()] = entry
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="write the installed numpy's entries at the three dispatch levels")
    if not parser.parse_args(argv).record:
        parser.error("nothing to do; the check is test_ledger.py::test_byte_ledger")
    entry = record()
    level_bound = sorted(set(entry) - {"features", ALL_LEVELS})
    print(f"{LEDGER}: {numpy_key()}, {len(entry[ALL_LEVELS])} configurations at all levels, "
          + ", ".join(f"{len(entry[level])} at {level}" for level in level_bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
