"""Record the reference outputs the checker compares every run against.

    python3 perfbench/record.py [workload ...]

Runs one pass of each workload on every input set and writes
``reference/<workload>.json``.  Re-record only when a change is meant to
alter results, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # noqa: I001  (pins BLAS threads before numpy loads)
from workloads import INPUT_SETS, WORKLOADS, Prepared


def record(name, voxfilt):
    workload = WORKLOADS[name]
    input_sets, names = {}, None
    for input_set in range(INPUT_SETS):
        workdir = os.path.join(run.ROOT, ".perfbench_work", f"record-{name}-{os.getpid()}")
        try:
            prepared = Prepared(workload, input_set, workdir, voxfilt)
            results = run.run_pass(prepared, workload.threads)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for r in results:
            if r.error is not None:
                raise SystemExit(f"{name} input set {input_set} {r.op[0]}: {r.error}")
        input_sets[str(input_set)] = {r.op[0]: r.summary for r in results}
        names = results[0].names
    path = os.path.join(run.REFERENCE_DIR, f"{name}.json")
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"feature_names": names, "input_sets": input_sets}, handle,
                  separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {path}")


def main(argv):
    os.chdir(run.ROOT)
    voxfilt = run.import_voxfilt()
    for name in argv or sorted(WORKLOADS):
        record(name, voxfilt)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
