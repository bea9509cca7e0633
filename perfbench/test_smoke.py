"""Smoke tests of the benchmark itself, on inputs a quarter of the real size per axis.

    python3 -m pytest -q perfbench/test_smoke.py

They check that every metric in BENCHMARK.json is printed by name with its
unit, that count metrics repeat exactly between traced runs, and that the
checker fails a response offset beyond its tolerance but not one within it.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

import checker
import record
import run
import workloads

SMALL_SETS = 2
COUNT_UNITS = {"count", "GMAC", "MB", "Mvox", "Mpoint"}

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """Quarter-size workloads with their own freshly recorded references."""
    patch = pytest.MonkeyPatch()
    shrunk = {name: workloads.shrink(w, 4) for name, w in workloads.WORKLOADS.items()}
    patch.setattr(run, "WORKLOADS", shrunk)
    patch.setattr(record, "WORKLOADS", shrunk)
    patch.setattr(run, "INPUT_SETS", SMALL_SETS)
    patch.setattr(record, "INPUT_SETS", SMALL_SETS)
    patch.setattr(run, "REFERENCE_DIR", str(tmp_path_factory.mktemp("reference")))
    patch.setattr(run, "SETUP_PROBES", 1)
    with redirect_stdout(io.StringIO()):
        record.main([])
    yield shrunk
    patch.undo()


def bench(workload, trace, seed=1):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                         "--trace", str(trace)]) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(small, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["volumetric", "slices-2d"])
def test_counts_repeat_exactly(small, workload):
    first, second = bench(workload, 1)["metrics"], bench(workload, 1)["metrics"]
    counts = [name for name, m in first.items()
              if m["unit"] in COUNT_UNITS or name.endswith("_ratio")]
    assert "convolve.separable_calls" in counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


@pytest.mark.parametrize("relative, fails", [(1e-9, True), (1e-14, False)])
def test_checker_fails_offset_beyond_tolerance(small, monkeypatch, relative, fails):
    collect = workloads.Prepared.collect

    def offset_collect(self, op, result):
        data, names, values, blobs = collect(self, op, result)
        scale = float(abs(data).max())
        return data + relative * scale, names, values, blobs

    monkeypatch.setattr(workloads.Prepared, "collect", offset_collect)
    result = bench("planar-gabor", 0)
    assert result["attempted"] >= 1
    assert result["failed"] == (result["attempted"] if fails else 0)
    assert result["correct"] is not fails


def test_tolerance_is_roundoff_sized():
    assert 1.7e-14 < checker.RTOL <= 1e-11
