"""The README's parameter and settings tables name exactly the keys of the
two tables in ``voxfilt.pipeline``, so a key cannot ship undocumented and a
deleted key cannot stay documented."""

import pathlib
import re

import pytest

from voxfilt.pipeline import _CONFIG, _PLANNERS

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _table(header):
    """The cells of each body row of the README table under ``header``."""
    lines = [line.strip() for line in README.read_text().splitlines()]
    start = lines.index(header) + 2  # the header and its |---| rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _keys(cell):
    return re.findall(r"`([a-z_.]+)`", cell)


def test_filter_parameter_table_names_every_key_of_the_planners():
    rows = _table("| Filter | Key | Type and domain | Default |")
    documented = []
    for kinds, keys, *_ in rows:
        keys = _keys(keys)
        for key in keys:
            if key.endswith("_mm"):  # a scale's two units share one row
                assert key[:-3] + "_vox" in keys, (kinds, key)
        documented += [(kind, key) for kind in kinds.split(", ") for key in keys]
    assert len(documented) == len(set(documented)), "a key is documented twice"
    assert set(documented) == {(kind, key) for kind, (_, specs) in _PLANNERS.items()
                               for key in specs}


def test_settings_table_names_every_key_and_field_of_the_config_table():
    rows = _table("| Key | `ProcessingConfig` field | Type and domain | Default |")
    documented = {_keys(key)[0]: _keys(field)[0] for key, field, *_ in rows}
    assert len(documented) == len(rows), "a setting is documented twice"
    assert documented == {key: name for key, (name, _) in _CONFIG.items()}


def test_table_reader_sees_a_missing_row(monkeypatch, tmp_path):
    text = README.read_text()
    row = "| log | `cutoff` | positive finite number | 4.0 |"
    assert row in text
    monkeypatch.setitem(globals(), "README", tmp_path / "README.md")
    (tmp_path / "README.md").write_text(text.replace(row + "\n", ""))
    with pytest.raises(AssertionError):
        test_filter_parameter_table_names_every_key_of_the_planners()
