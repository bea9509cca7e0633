"""Boundary extension tests: exact halo fixtures and index-map properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxfilt.boundary import BOUNDARY_MODES, pad

from oracles import NUMPY_PAD_MODES, ext_lookup, fold_index

SIGNAL = np.array([1.0, 2.0, 3.0])


def _layouts(a):
    """The same values as a C-ordered, an F-ordered and a strided array."""
    strided = np.zeros(tuple(2 * n for n in a.shape), dtype=a.dtype)
    strided[tuple(slice(None, None, 2) for _ in a.shape)] = a
    return (np.ascontiguousarray(a), np.asfortranarray(a),
            strided[tuple(slice(None, None, 2) for _ in a.shape)])


def _source_index(k, n: int, mode: str):
    """The source index that ``pad`` puts at index ``k`` (a scalar or an
    array) of an ``n``-voxel axis, read off a padded ramp that starts at 1;
    -1 where the constant mode fills with zeros."""
    k = np.asarray(k)
    margin = int(np.abs(k).max()) + n
    return pad(np.arange(n) + 1.0, margin, mode)[k + margin].astype(int) - 1


class TestPadFixtures:
    """The four 1-D halos for [1, 2, 3] with margin 2."""

    def test_constant_zero(self):
        np.testing.assert_array_equal(pad(SIGNAL, 2, "constant"),
                                      [0, 0, 1, 2, 3, 0, 0])

    def test_nearest(self):
        np.testing.assert_array_equal(pad(SIGNAL, 2, "nearest"),
                                      [1, 1, 1, 2, 3, 3, 3])

    def test_mirror(self):
        np.testing.assert_array_equal(pad(SIGNAL, 2, "mirror"),
                                      [3, 2, 1, 2, 3, 2, 1])

    def test_periodise(self):
        np.testing.assert_array_equal(pad(SIGNAL, 2, "periodise"),
                                      [2, 3, 1, 2, 3, 1, 2])


class TestExtendedIndex:
    """The index map of the extension, as ``pad`` realises it."""

    def test_mirror_left(self):
        assert _source_index(-1, 3, "mirror") == 1

    def test_periodise_wrap(self):
        assert _source_index(3, 3, "periodise") == 0

    def test_nearest_clamp(self):
        assert _source_index(5, 3, "nearest") == 2

    def test_constant_sentinel(self):
        assert _source_index(-1, 3, "constant") == -1
        assert _source_index(1, 3, "constant") == 1

    def test_inside_identity(self):
        for mode in BOUNDARY_MODES:
            np.testing.assert_array_equal(_source_index(np.arange(5), 5, mode), np.arange(5))

    @given(st.integers(-200, 200), st.integers(1, 12),
           st.sampled_from(["nearest", "periodise", "mirror"]))
    def test_matches_stepwise_folding(self, k, n, mode):
        assert _source_index(k, n, mode) == fold_index(k, n, mode)

    @given(st.integers(-200, 200), st.integers(1, 12))
    def test_periodise_period(self, k, n):
        assert _source_index(k, n, "periodise") == _source_index(k + n, n, "periodise")

    @given(st.integers(-200, 200), st.integers(2, 12))
    def test_mirror_face_symmetry(self, k, n):
        # reflection about index 0 and about index n-1
        assert _source_index(-k, n, "mirror") == _source_index(k, n, "mirror")
        assert _source_index(n - 1 + k, n, "mirror") == _source_index(n - 1 - k, n, "mirror")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            pad(SIGNAL, 1, "taper")


class TestPadProperties:
    def test_margin_zero_identity(self):
        rng = np.random.default_rng(0)
        for a in _layouts(rng.normal(size=(4, 5))):
            for mode in BOUNDARY_MODES:
                out = pad(a, 0, mode)
                assert out.flags.c_contiguous and not np.shares_memory(out, a)
                np.testing.assert_array_equal(out, a)

    @pytest.mark.parametrize("mode", BOUNDARY_MODES)
    def test_interior_preserved(self, mode):
        rng = np.random.default_rng(1)
        for a in _layouts(rng.normal(size=(5, 4, 3))):
            out = pad(a, (2, 1, 3), mode)
            assert out.shape == (9, 6, 9)
            assert out.flags.c_contiguous
            np.testing.assert_array_equal(out[2:7, 1:5, 3:6], a)

    @pytest.mark.parametrize("mode,np_mode", [
        ("mirror", "reflect"),
        ("nearest", "edge"),
        ("periodise", "wrap"),
    ])
    def test_matches_numpy_pad(self, mode, np_mode):
        rng = np.random.default_rng(2)
        for a in _layouts(rng.normal(size=(6, 5))):
            out = pad(a, (3, 2), mode)
            assert out.flags.c_contiguous
            np.testing.assert_array_equal(out, np.pad(a, [(3, 3), (2, 2)], np_mode))

    @pytest.mark.parametrize("mode", BOUNDARY_MODES)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 1), (1, 4), (3, 2, 4)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_is_numpy_pad(self, shape, kind, mode):
        # margins from 0 to past the axis length, whatever the layout
        rng = np.random.default_rng(len(shape))
        a = rng.normal(size=shape) + (1j * rng.normal(size=shape) if kind == "complex" else 0)
        margins = [[m] * len(shape) for m in range(7)] + [list(range(len(shape), 0, -1)),
                                                          [0] * (len(shape) - 1) + [5]]
        for layout in _layouts(a):
            for margin in margins:
                out = pad(layout, margin, mode)
                want = np.pad(a, [(m, m) for m in margin], NUMPY_PAD_MODES[mode])
                assert out.flags.c_contiguous and out.dtype == a.dtype
                assert out.tobytes() == np.ascontiguousarray(want).tobytes(), margin

    def test_margin_exceeding_size(self):
        # index maps are total, so folding/wrapping repeats as needed
        a = np.array([4.0, 9.0])
        np.testing.assert_array_equal(pad(a, 5, "periodise"),
                                      np.pad(a, 5, "wrap"))
        np.testing.assert_array_equal(pad(a, 5, "mirror"),
                                      np.pad(a, 5, "reflect"))
        np.testing.assert_array_equal(pad(a, 4, "nearest"),
                                      np.pad(a, 4, "edge"))

    def test_mirror_palindromic_at_faces(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=7)
        m = 4
        out = pad(a, m, "mirror")
        for j in range(1, m + 1):
            assert out[m - j] == out[m + j]          # face at index 0
            assert out[m + 6 - j] == out[m + 6 + j]  # face at index n-1

    @given(st.integers(1, 9), st.integers(0, 6), st.sampled_from(BOUNDARY_MODES))
    @settings(max_examples=60)
    def test_pad_consistent_with_extended_index(self, n, margin, mode):
        rng = np.random.default_rng(n * 31 + margin)
        a = rng.normal(size=n)
        out = pad(a, margin, mode)
        for pos in range(out.size):
            assert out[pos] == ext_lookup(a, (pos - margin,), mode)
