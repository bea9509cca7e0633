"""The byte ledger (``tests/ledger.py``): every configuration keeps its
recorded response, feature and intensity-mask bytes."""

import json

import numpy as np
import pytest

import ledger
import voxfilt.pipeline
from voxfilt.pipeline import load_config, run_configuration


def test_byte_ledger():
    recorded = json.loads(ledger.LEDGER.read_text())
    key = ledger.numpy_key()
    assert key in recorded, (f"{ledger.LEDGER.name} has no entry {key!r} (it holds "
                             f"{sorted(recorded)}); record one with `{ledger.RECORD}`")
    by_threads, features = ledger.probe()
    want = ledger.expected(recorded[key], features)
    assert want is not None, (f"{ledger.LEDGER.name} has no level of {key!r} with the numpy "
                              f"features {features!r}; record one with `{ledger.RECORD}`")
    assert sorted(want) == sorted(ledger.config_names())
    for threads, got in by_threads.items():
        moved = ledger.mismatches(got, want)
        assert not moved, (f"threads {threads}: bytes moved in {moved}; a change that moves "
                           f"bytes re-records with `{ledger.RECORD}` and lists each moved "
                           "configuration with its max relative difference")


def test_check_inputs():
    image, full, partial = ledger.check_inputs()
    assert image.dims == (14, 13, 9) and image.spacing == (1.5, 1.5, 2.5)
    assert full.voxel_count == 1638 and partial.voxel_count == 306


@pytest.mark.parametrize("name", [n for n in ledger.config_names() if n.endswith(".B")])
def test_partial_mask_reaches_partial_volumes(monkeypatch, name):
    # a full mask never does, so without the partial one no digest would pin them
    image, full, partial = ledger.check_inputs()
    config = load_config(ledger.CONFIGS / f"{name}.yaml")[1]
    calls = []
    original = voxfilt.pipeline._partial_volume

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(voxfilt.pipeline, "_partial_volume", counted)
    run_configuration(image, full, config)
    assert not calls
    _, intensity_mask, _ = run_configuration(image, partial, config)
    assert calls and np.any(intensity_mask.membership)


def test_mismatches_name_what_moved():
    table = {name: {"full": {"response": "r", "features": "f"},
                    "partial": {"response": "r", "features": "f", "mask": "m"}}
             for name in ledger.config_names()}
    moved = {name: {label: dict(entry) for label, entry in masks.items()}
             for name, masks in table.items() if name != "1.A"}
    moved["9.B"]["partial"]["mask"] = "x"
    assert ledger.mismatches(table, table) == []
    assert ledger.mismatches(moved, table) == [
        "1.A full response", "1.A full features", "1.A partial response",
        "1.A partial features", "1.A partial mask", "9.B partial mask"]
