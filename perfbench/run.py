"""voxfilt benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload volumetric --seed 3 --seconds 30 --trace 0

Run it from the root of a voxfilt checkout; it imports voxfilt from
``src/`` and reads ``configs/``.  With ``--trace 0`` it reports the
end-to-end metrics of untraced passes; with ``--trace 1`` it runs one
untraced and one traced pass and reports the per-layer metrics of the
traced one.  The last line of standard output is one JSON object; a longer
report (environment, per-operation times, failures, traffic profile) goes to
``.perfbench_out/``.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread, fixed before numpy loads, so voxfilt's own slice
# threads never compete with library threads (eigh in Riesz alignment).
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import checker  # noqa: E402
from calibrate import Calibration  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import INPUT_SETS, WORKLOADS, Prepared, expected_dims  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
SETUP_PROBES = 7
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
PROBE_TIMEOUT_S = 120
OVERRUN = 1.3  # stop timing after this many times --seconds


def import_voxfilt():
    """Import voxfilt from this checkout's ``src/``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not (os.path.isfile(os.path.join(src, "voxfilt", "__init__.py"))
            and os.path.isdir(os.path.join(ROOT, "configs"))):
        raise SystemExit(f"perfbench: no voxfilt checkout (src/voxfilt, configs/) at {ROOT}")
    sys.path.insert(0, src)
    import voxfilt
    import voxfilt.cli  # noqa: F401  (the CLI route calls voxfilt.cli.main)

    if not os.path.abspath(voxfilt.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported voxfilt from {voxfilt.__file__}, not {src}")
    return voxfilt


def load_reference(workload_name, input_set):
    path = os.path.join(REFERENCE_DIR, f"{workload_name}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)["input_sets"].get(str(input_set), {})


@dataclass
class OpResult:
    op: tuple  # (config id, volume name)
    seconds: float
    cpu_s: float
    summary: dict | None  # checker.summarize() of the outputs
    names: list | None  # feature names
    error: str | None  # traceback when the operation raised
    # host-speed factor around the operation (calibrate.py); 1.0 when uncalibrated
    scale: float = 1.0
    calibration: dict | None = None  # kernel seconds measured after the operation


def _cpu_now():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(prepared, threads, tracer=None, calibration=None):
    """Run every operation once; only the call into voxfilt is timed.

    With a ``calibration``, each operation's scale is the mean of the factors
    measured just before and just after it.
    """
    results = []
    for op in prepared.workload.ops:
        before = calibration.factor if calibration is not None else None
        if tracer is not None:
            tracer.begin_operation(op[0])
            tracer.active = True
        error = result = None
        cpu0, t0 = _cpu_now(), time.perf_counter()
        try:
            result = prepared.run(op, threads)
        except Exception:  # an operation that raises is a counted failure
            error = traceback.format_exc(limit=3)
        seconds, cpu_s = time.perf_counter() - t0, _cpu_now() - cpu0
        if tracer is not None:
            tracer.active = False
        scale, kernel_s = 1.0, None
        if calibration is not None:
            scale = (before + calibration.measure()) / 2
            kernel_s = calibration.seconds
        summary = names = None
        if error is None:
            try:
                data, names, values, blobs = prepared.collect(op, result)
                summary = checker.summarize(data, values, blobs)
            except Exception:
                error = traceback.format_exc(limit=3)
        results.append(OpResult(op, seconds, cpu_s, summary, names, error, scale, kernel_s))
    if tracer is not None:
        tracer.finish()
    return results


class Verdicts:
    """Checks each timed operation; counts failures and byte changes."""

    def __init__(self, prepared, reference, voxfilt, single_thread=None):
        self.prepared, self.reference, self.voxfilt = prepared, reference, voxfilt
        self.single_thread = single_thread or {}
        self.first_digest = {}
        self.attempted = self.failed = 0
        self.failures, self.byte_changes = [], set()

    def check(self, results):
        for r in results:
            self.attempted += 1
            problems = self._problems(r)
            if problems:
                self.failed += 1
                self.failures.append({"op": r.op[0], "problems": problems})

    def _problems(self, r):
        if r.error is not None:
            return [r.error]
        config_id, volume = r.op
        dims = expected_dims(self.prepared.workload.volume(volume),
                             self.prepared.configs[config_id])
        ref = self.reference.get(config_id)
        if ref is None:
            return [f"no reference recorded for {config_id}"]
        problems, changed = checker.compare(self.voxfilt.compare_maps, r.names, ref,
                                            r.summary, dims)
        if changed:
            self.byte_changes.add(config_id)
        digest = r.summary["sha256"]
        first = self.first_digest.setdefault(config_id, digest)
        if digest != first:
            problems.append("output bytes differ between passes of one run")
        single = self.single_thread.get(config_id)
        if single is not None and digest != single:
            problems.append("output bytes differ from the threads=1 pass")
        return problems


def tail(samples):
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def setup_probe(workload_name, seed, calibration):
    """Set-up in a fresh interpreter: imports, inputs, input files, configs.

    Returns the wall time divided by the calibration factors around it.
    """
    before = calibration.factor
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    seconds = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return seconds / ((before + calibration.measure()) / 2)


def environment(args, workload, input_set):
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "workload": workload.name,
        "seed": args.seed,
        "input_set": input_set,
        "route": workload.route,
        "threads": workload.threads,
        "volumes": [{"name": v.name, "dims": list(v.dims), "spacing_mm": list(v.spacing)}
                    for v in workload.volumes],
        "operations": [f"{c} on {v}" for c, v in workload.ops],
    }


def end_to_end(results, passes, setup_samples):
    """End-to-end metrics; every time is divided by its operation's scale."""
    seconds = [r.seconds / r.scale for r in results]
    by_op = {}
    for r, s in zip(results, seconds):
        by_op.setdefault(r.op, []).append(s)
    voxels = sum(math.prod(r.summary["dims"]) for r in results if r.summary)
    tail_value, percentile, count = tail(seconds)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "mvox_per_s": (voxels / 1e6 / sum(seconds), "Mvox/s"),
        # median over the pass's operations of each one's median time: the
        # pooled median would sit in the gap between two configs' clusters
        "op_s_p50": (statistics.median(statistics.median(v) for v in by_op.values()), "s"),
        "op_s_tail": (tail_value, "s"),
        "cpu_s": (sum(r.cpu_s / r.scale for r in results) / passes, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    scales = [r.scale for r in results]
    notes = {"tail_percentile": percentile, "samples": count, "passes": passes,
             "setup_samples_s": setup_samples,
             "scale_median": statistics.median(scales),
             "scale_range": [min(scales), max(scales)],
             "uncalibrated_op_s_p50": statistics.median(
                 statistics.median(r.seconds for r in results if r.op == op) for op in by_op)}
    return metrics, notes


def per_layer(tracer, traced, untraced):
    """Per-layer metrics of the traced pass; ``untraced`` passes give the overhead."""
    total, own, top, op_seconds = tracer.layer_times()
    counts = tracer.counts
    traced_s = sum(r.seconds for r in traced)
    untraced_s = sum(r.seconds for r in untraced) * len(traced) / len(untraced)

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    covered = sum(end - start for start, end in top)
    m = {
        "nifti.read_s": (total["nifti.read"], "s"),
        "nifti.read_calls": (counts["nifti.read_calls"], "count"),
        "nifti.read_mb": (counts["nifti.read_bytes"] / 1e6, "MB"),
        "nifti.write_s": (total["nifti.write"], "s"),
        "nifti.write_calls": (counts["nifti.write_calls"], "count"),
        "nifti.write_mb": (counts["nifti.write_bytes"] / 1e6, "MB"),
        "cli.main_s": (total["cli.main"], "s"),
        "cli.self_s": (own["cli.main"], "s"),
        "pipeline.run_configuration_s": (total["pipeline.run_configuration"], "s"),
        "pipeline.resample_s": (total["pipeline.resample"], "s"),
        "pipeline.resample_mvox": (counts["pipeline.resample_voxels"] / 1e6, "Mvox"),
        "pipeline.resegment_s": (total["pipeline.resegment"], "s"),
        "pipeline.apply_filter_s": (total["pipeline.apply_filter"], "s"),
        "pipeline.apply_filter_self_s": (own["pipeline.apply_filter"], "s"),
        "convolve.full_calls": (counts["convolve.full_calls"], "count"),
        "convolve.full_s": (total["convolve.full"], "s"),
        "convolve.full_self_s": (own["convolve.full"], "s"),
        "convolve.full_gmac": (counts["convolve.full_macs"] / 1e9, "GMAC"),
        "convolve.separable_calls": (counts["convolve.separable_calls"], "count"),
        "convolve.separable_s": (total["convolve.separable"], "s"),
        "convolve.separable_self_s": (own["convolve.separable"], "s"),
        "convolve.separable_gmac": (counts["convolve.separable_macs"] / 1e9, "GMAC"),
        "convolve.separable_distinct_ratio":
            (ratio("convolve.separable.distinct", "convolve.separable_calls"), "ratio"),
        "boundary.pad_calls": (counts["boundary.pad_calls"], "count"),
        "boundary.pad_s": (total["boundary.pad"], "s"),
        "boundary.pad_mb": (counts["boundary.pad_bytes"] / 1e6, "MB"),
        "convolve.fourier_calls": (counts["convolve.fourier_calls"], "count"),
        "convolve.fourier_s": (total["convolve.fourier"], "s"),
        "fft.forward_calls": (counts["fft.forward_calls"], "count"),
        "fft.inverse_calls": (counts["fft.inverse_calls"], "count"),
        "fft.s": (total["fft"], "s"),
        "fft.mpoints": (counts["fft.points"] / 1e6, "Mpoint"),
        "fft.forward_distinct_ratio": (ratio("fft.forward.distinct", "fft.forward_calls"), "ratio"),
        "kernels.gabor_calls": (counts["kernels.gabor_calls"], "count"),
        "kernels.gabor_self_s": (own["kernels.gabor"], "s"),
        "kernels.laws_energy_s": (total["kernels.laws_energy"], "s"),
        "rotinv.pool_calls": (counts["rotinv.pool_calls"], "count"),
        "rotinv.pool_s": (total["rotinv.pool"], "s"),
        "rotinv.plane_average_self_s": (own["rotinv.plane_average"], "s"),
        "wavelets.swt_s": (total["wavelets.swt"], "s"),
        "wavelets.bmap_s": (total["wavelets.bmap"], "s"),
        "wavelets.radial_transfer_calls": (counts["wavelets.radial_transfer_calls"], "count"),
        "wavelets.radial_transfer_s": (total["wavelets.radial_transfer"], "s"),
        "riesz.filtered_map_calls": (counts["riesz.filtered_map_calls"], "count"),
        "riesz.filtered_map_self_s": (own["riesz.filtered_map"], "s"),
        "riesz.structure_tensor_self_s": (own["riesz.structure_tensor"], "s"),
        "riesz.align_s": (total["riesz.align"], "s"),
        "features.statistics_s": (total["features.statistics"], "s"),
        "features.statistics_mvox": (counts["features.statistics_voxels"] / 1e6, "Mvox"),
        "features.diagnostics_s": (total["features.diagnostics"], "s"),
        "features.export_s": (total["features.export"], "s"),
        "trace.coverage": (covered / traced_s, "ratio"),
        "trace.overhead": (traced_s / untraced_s - 1.0, "ratio"),
    }
    traffic = [
        {"call": key[0], "shapes": [list(s) if isinstance(s, tuple) else s for s in key[1:]],
         "count": n}
        for key, n in sorted(tracer.traffic.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    ]
    per_operation = {label: {"counts": counts_of_op, "seconds": dict(op_seconds[label])}
                     for label, counts_of_op in tracer.per_operation.items()}
    return m, {"traffic": traffic, "per_operation": per_operation,
               "traced_s": traced_s, "untraced_s": untraced_s}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    voxfilt = import_voxfilt()
    workload = WORKLOADS[args.workload]
    input_set = args.seed % INPUT_SETS
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload.name}-{os.getpid()}")
    try:
        prepared = Prepared(workload, input_set, workdir, voxfilt)
        if args.setup_only:
            return 0
        report = run_workload(args, voxfilt, workload, input_set, prepared)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    summary = {k: report[k] for k in ("correct", "attempted", "failed")}
    print(f"perfbench {workload.name} seed {args.seed}: {json.dumps(report['notes'])}; "
          f"byte changes vs reference: {report['byte_changes'] or 'none'}; "
          f"failures: {report['failures'] or 'none'}; report {path}", file=sys.stderr)
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()}
    print(json.dumps(summary))
    return 0


def run_workload(args, voxfilt, workload, input_set, prepared):
    reference = load_reference(workload.name, input_set)
    single = None
    if workload.single_thread_check:
        single = {r.op[0]: r.summary["sha256"] for r in run_pass(prepared, 1) if r.summary}
    verdicts = Verdicts(prepared, reference, voxfilt, single)
    report = {"environment": environment(args, workload, input_set)}
    if args.trace:
        # untraced, traced, untraced: the overhead compares the traced pass
        # with the mean of the two around it
        before = run_pass(prepared, workload.threads)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(prepared, workload.threads, tracer)
        finally:
            tracer.uninstall()
        after = run_pass(prepared, workload.threads)
        results = before + traced + after
        verdicts.check(results)
        metrics, notes = per_layer(tracer, traced, before + after)
        report["traffic"] = notes.pop("traffic")
        report["per_operation"] = notes.pop("per_operation")
    else:
        calibration = Calibration()
        setup_samples = [setup_probe(workload.name, args.seed, calibration)
                         for _ in range(SETUP_PROBES)]
        # A fixed pass count per --seconds keeps the sample count, and so the
        # tail's rank, the same in every run and on every commit.
        passes = max(math.ceil((TAIL_BEYOND + 1) / len(workload.ops)),
                     round(args.seconds / workload.pass_seconds))
        results, started = [], time.perf_counter()
        for done in range(1, passes + 1):
            batch = run_pass(prepared, workload.threads, calibration=calibration)
            verdicts.check(batch)
            results += batch
            if time.perf_counter() - started > OVERRUN * args.seconds:
                passes = done  # far slower than at definition: stay inside the time limit
                break
        metrics, notes = end_to_end(results, passes, setup_samples)
    report.update({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
        "notes": notes,
        "byte_changes": sorted(verdicts.byte_changes),
        "failures": verdicts.failures,
        "operations": [{"op": r.op[0], "seconds": r.seconds, "cpu_s": r.cpu_s,
                        "scale": r.scale, "calibration_s": r.calibration}
                       for r in results],
    })
    return report


if __name__ == "__main__":
    sys.exit(main())
