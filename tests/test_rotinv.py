import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voxfilt.image
import voxfilt.rotinv
from voxfilt.convolve import convolve_full, convolve_separable
from voxfilt.kernels import laws_1d
from voxfilt.rotinv import (
    PooledCascade,
    cascade,
    equivariant_cascades,
    flip_1d,
    gabor_orientation_set,
    oddify,
    orthogonal_plane_average,
    pool,
)
from voxfilt.wavelets import _swt_stages, wavelet_family

from dispatch import digests_at_dispatch_levels
from oracles import euler_matrix, planar_matrix, rotate_grid

ROOT2 = math.sqrt(2.0)
HAAR_LO = np.array([1.0, 1.0]) / ROOT2
HAAR_HI = np.array([-1.0, 1.0]) / ROOT2

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


def impulse(dims, value=255.0):
    img = np.zeros(dims)
    img[tuple(n // 2 for n in dims)] = value
    return img


def checkerboard(dims, cube=4, value=255.0):
    idx = np.indices(dims)
    parity = sum(a // cube for a in idx) % 2
    return np.where(parity == 0, value, 0.0)


class TestFlipOddify:
    def test_flip_worked_example(self):
        np.testing.assert_array_equal(
            flip_1d([1, 2, 3, 4, 0]), [0, 4, 3, 2, 1]
        )

    def test_flip_palindrome_unchanged(self):
        np.testing.assert_array_equal(flip_1d([1, 2, 1]), [1, 2, 1])

    def test_flip_single_tap(self):
        np.testing.assert_array_equal(flip_1d([7.0]), [7.0])

    @given(st.lists(finite, min_size=1, max_size=9))
    def test_flip_is_involution(self, taps):
        g = np.array(taps, dtype=np.float64)
        np.testing.assert_array_equal(flip_1d(flip_1d(g)), g)

    @pytest.mark.parametrize("bad", [np.ones((2, 2)), []])
    def test_flip_rejects_non_vectors(self, bad):
        with pytest.raises(ValueError):
            flip_1d(bad)

    def test_oddify_haar_highpass(self):
        np.testing.assert_array_equal(
            oddify(HAAR_HI), [-1.0 / ROOT2, 1.0 / ROOT2, 0.0]
        )

    def test_oddify_worked_example(self):
        np.testing.assert_array_equal(oddify([1, 2, 3, 4]), [1, 2, 3, 4, 0])

    def test_oddify_odd_length_unchanged(self):
        np.testing.assert_array_equal(oddify([5, 6, 7]), [5, 6, 7])

    @given(st.lists(finite, min_size=1, max_size=8))
    def test_oddify_idempotent_and_odd(self, taps):
        once = oddify(taps)
        assert once.size % 2 == 1
        np.testing.assert_array_equal(oddify(once), once)


def _rotated_response(image, base, mat, boundary):
    """Image-rotation route: rotate, filter with the base kernel, rotate back."""
    turned = rotate_grid(image, mat)
    filtered = convolve_separable(turned, base, boundary)
    return rotate_grid(filtered, mat.T)


def _label_quarters(label):
    if np.isscalar(label):
        return round(label / (math.pi / 2.0))
    return tuple(round(a / (math.pi / 2.0)) for a in label)


def _single_stage(element):
    """One rotated kernel per axis from a one-stage cascade element."""
    return tuple(g for (g,) in element)


class TestEquivariantSet2D:
    def test_element_count_and_labels(self):
        elements, labels = equivariant_cascades([[[1, 2, 3]], [[4, 5, 6]]])
        assert len(elements) == 4
        assert labels == (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)

    def test_identity_element(self):
        elements, _ = equivariant_cascades([[[1, 2, 3]], [[4, 5, 6]]])
        np.testing.assert_array_equal(elements[0][0][0], [1, 2, 3])
        np.testing.assert_array_equal(elements[0][1][0], [4, 5, 6])

    def test_quarter_turn_element(self):
        elements, _ = equivariant_cascades([[[1, 2, 3]], [[4, 5, 6]]])
        np.testing.assert_array_equal(elements[1][0][0], [6, 5, 4])
        np.testing.assert_array_equal(elements[1][1][0], [1, 2, 3])

    def test_even_kernels_get_zero_appended(self):
        elements, _ = equivariant_cascades([[[1, 2]], [[3, 4]]])
        for element in elements:
            for g in _single_stage(element):
                assert g.size == 3

    def test_palindromic_equal_kernels_collapse(self):
        elements, _ = equivariant_cascades([[[1, 2, 1]], [[1, 2, 1]]])
        for element in elements:
            kernels = _single_stage(element)
            np.testing.assert_array_equal(kernels[0], [1, 2, 1])
            np.testing.assert_array_equal(kernels[1], [1, 2, 1])

    def test_generic_elements_pairwise_distinct(self):
        elements, _ = equivariant_cascades([[[1, 2, 3]], [[4, 5, 7]]])
        seen = [np.concatenate(_single_stage(k)) for k in elements]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(seen[i], seen[j])

    @pytest.mark.parametrize("boundary", ["constant", "nearest", "periodise", "mirror"])
    @pytest.mark.parametrize(
        "image", [impulse((9, 9)), checkerboard((12, 12), cube=3)],
        ids=["impulse", "checkerboard"],
    )
    def test_matches_image_rotation_exactly(self, image, boundary):
        elements, labels = equivariant_cascades([[HAAR_LO], [HAAR_HI]])
        base = (oddify(HAAR_LO), oddify(HAAR_HI))
        for element, label in zip(elements, labels):
            mat = planar_matrix(_label_quarters(label))
            lhs = convolve_separable(image, _single_stage(element), boundary)
            rhs = _rotated_response(image, base, mat, boundary)
            np.testing.assert_array_equal(lhs, rhs)

    def test_matches_image_rotation_random_image(self):
        rng = np.random.default_rng(11)
        image = rng.integers(-40, 40, size=(10, 10)).astype(np.float64)
        elements, labels = equivariant_cascades([[[1, 2, 3]], [[1, -1, 0]]])
        base = (np.array([1.0, 2, 3]), np.array([1.0, -1, 0]))
        for element, label in zip(elements, labels):
            mat = planar_matrix(_label_quarters(label))
            lhs = convolve_separable(image, _single_stage(element), "periodise")
            rhs = _rotated_response(image, base, mat, "periodise")
            np.testing.assert_array_equal(lhs, rhs)


class TestEquivariantSet3D:
    def test_element_count(self):
        elements, _ = equivariant_cascades([[[1, 2, 3]], [[4, 5, 6]], [[7, 8, 9]]])
        assert len(elements) == 24

    def test_identity_element_first(self):
        elements, labels = equivariant_cascades([[[1, 2, 3]], [[4, 5, 6]], [[7, 8, 9]]])
        assert labels[0] == (0.0, 0.0, 0.0)
        for got, want in zip(_single_stage(elements[0]), ([1, 2, 3], [4, 5, 6], [7, 8, 9])):
            np.testing.assert_array_equal(got, want)

    def test_named_table_row(self):
        elements, labels = equivariant_cascades([[[1, 2, 3]], [[4, 5, 6]], [[7, 8, 9]]])
        i = labels.index((0.0, math.pi / 2, 0.0))
        np.testing.assert_array_equal(elements[i][0][0], [9, 8, 7])
        np.testing.assert_array_equal(elements[i][1][0], [4, 5, 6])
        np.testing.assert_array_equal(elements[i][2][0], [1, 2, 3])

    def test_palindromic_equal_kernels_collapse(self):
        elements, _ = equivariant_cascades([[[1, 2, 1]], [[1, 2, 1]], [[1, 2, 1]]])
        for element in elements:
            for g in _single_stage(element):
                np.testing.assert_array_equal(g, [1, 2, 1])

    def test_generic_elements_pairwise_distinct(self):
        elements, _ = equivariant_cascades([[[1, 2, 3]], [[4, 5, 7]], [[8, 10, 13]]])
        seen = [np.concatenate(_single_stage(k)) for k in elements]
        for i in range(24):
            for j in range(i + 1, 24):
                assert not np.array_equal(seen[i], seen[j])

    def test_labels_enumerate_the_rotation_group(self):
        _, labels = equivariant_cascades([[[1, 2, 3]], [[4, 5, 6]], [[7, 8, 9]]])
        mats = [euler_matrix(_label_quarters(lbl)) for lbl in labels]
        for m in mats:
            assert round(np.linalg.det(m)) == 1
            np.testing.assert_array_equal(m @ m.T, np.eye(3, dtype=int))
        keys = {tuple(m.ravel()) for m in mats}
        assert len(keys) == 24

    @pytest.mark.parametrize("boundary", ["constant", "periodise", "mirror"])
    @pytest.mark.parametrize(
        "image", [impulse((9, 9, 9)), checkerboard((8, 8, 8), cube=2)],
        ids=["impulse", "checkerboard"],
    )
    def test_matches_image_rotation_exactly(self, image, boundary):
        elements, labels = equivariant_cascades([[HAAR_LO], [HAAR_HI], [HAAR_LO]])
        base = (oddify(HAAR_LO), oddify(HAAR_HI), oddify(HAAR_LO))
        for element, label in zip(elements, labels):
            mat = euler_matrix(_label_quarters(label))
            lhs = convolve_separable(image, _single_stage(element), boundary)
            rhs = _rotated_response(image, base, mat, boundary)
            np.testing.assert_array_equal(lhs, rhs)

    def test_matches_image_rotation_random_integer_image(self):
        rng = np.random.default_rng(5)
        image = rng.integers(0, 30, size=(7, 7, 7)).astype(np.float64)
        g1, g2, g3 = [1.0, 2, 3], [1.0, -1, 0], [2.0, 0, 1]
        elements, labels = equivariant_cascades([[g1], [g2], [g3]])
        base = tuple(np.asarray(g) for g in (g1, g2, g3))
        for element, label in zip(elements, labels):
            mat = euler_matrix(_label_quarters(label))
            lhs = convolve_separable(image, _single_stage(element), "mirror")
            rhs = _rotated_response(image, base, mat, "mirror")
            np.testing.assert_array_equal(lhs, rhs)


class TestPool:
    def test_singleton_identity(self):
        m = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(pool([m], "max"), m)
        np.testing.assert_array_equal(pool([m], "average"), m)

    def test_sign_pair_max_is_abs(self):
        m = np.array([[1.0, -2.0], [-3.0, 4.0]])
        np.testing.assert_array_equal(pool([m, -m], "max"), np.abs(m))

    def test_average_matches_mean(self):
        rng = np.random.default_rng(3)
        maps = [rng.normal(size=(4, 5)) for _ in range(7)]
        np.testing.assert_allclose(
            pool(maps, "average"), np.mean(maps, axis=0), rtol=0, atol=1e-12
        )

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            pool([], "max")
        with pytest.raises(ValueError, match="empty"):
            pool(iter([]), "average")

    @pytest.mark.parametrize("mode", ["max", "average"])
    def test_generator_input_matches_list_bytes(self, mode):
        rng = np.random.default_rng(4)
        maps = [rng.normal(size=(4, 5, 3)) for _ in range(6)]
        seen = []

        def stream():
            for m in maps:
                seen.append(len(seen))
                yield m

        out = pool(stream(), mode)
        assert out.tobytes() == pool(maps, mode).tobytes()
        assert seen == list(range(6))
        # the first map seeds the result but is not modified in place
        np.testing.assert_array_equal(maps[0], np.random.default_rng(4).normal(size=(4, 5, 3)))

    @pytest.mark.parametrize("mode", ["max", "average"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_keeps_the_memory_order_of_the_first_map(self, mode, order):
        first = np.asarray(np.random.default_rng(8).normal(size=(4, 5, 3)), order=order)
        out = pool([first, np.ones((4, 5, 3))], mode)
        assert out.flags[f"{order}_CONTIGUOUS"]
        np.testing.assert_array_equal(out, pool([first.copy(order="C"), np.ones((4, 5, 3))], mode))

    def test_generator_shape_checked_as_maps_arrive(self):
        def stream():
            yield np.zeros((2, 2))
            yield np.zeros((3, 2))
            raise AssertionError("pool read past the mismatched map")

        with pytest.raises(ValueError, match="share dimensions"):
            pool(stream(), "max")

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pool([np.zeros((2, 2)), np.zeros((3, 2))], "average")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            pool([np.zeros((2, 2))], "median")

    def _pooled_map(self, image, mode):
        elements, _ = equivariant_cascades([[[1.0, 2, 3]], [[1.0, -1, 0]], [[2.0, 0, 1]]])
        maps = [convolve_separable(image, _single_stage(k), "periodise") for k in elements]
        return pool(maps, mode)

    @pytest.mark.parametrize("mode", ["max", "average"])
    def test_pooled_map_right_angle_equivariance(self, mode):
        # Integer taps and voxels keep every sum exact, so the group
        # symmetry survives floating point untouched.
        rng = np.random.default_rng(19)
        image = rng.integers(0, 50, size=(8, 8, 8)).astype(np.float64)
        for quarters in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 3, 1)]:
            mat = euler_matrix(quarters)
            turned = rotate_grid(image, mat)
            lhs = self._pooled_map(turned, mode)
            rhs = rotate_grid(self._pooled_map(image, mode), mat)
            np.testing.assert_array_equal(lhs, rhs)

    def test_average_pool_equals_averaged_kernel(self):
        rng = np.random.default_rng(7)
        image = rng.normal(size=(10, 10, 10))
        g1, g2, g3 = [0.25, 0.5, 0.25], [-1.0, 0, 1.0], [0.4, 0.2, 0.4]
        elements, _ = equivariant_cascades([[g1], [g2], [g3]])
        maps = [convolve_separable(image, _single_stage(k), "periodise") for k in elements]
        pooled = pool(maps, "average")
        dense = np.zeros((3, 3, 3))
        for a, b, c in map(_single_stage, elements):
            dense += np.multiply.outer(np.multiply.outer(a, b), c)
        dense /= len(elements)
        direct = convolve_full(image, dense, "periodise")
        np.testing.assert_allclose(pooled, direct, rtol=0, atol=1e-10)
        regrouped = PooledCascade([[g1], [g2], [g3]], "average", "periodise")(image)
        np.testing.assert_allclose(regrouped, direct, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("family, subband",
                             [("db3", "HHH"), ("db2", "LH"), ("haar", "HL"), ("db3", "HH")])
    def test_two_level_average_equals_averaged_composite_kernel(self, family, subband):
        # With wrap padding every rotation's two-level cascade is one circular
        # convolution with its per-axis composite kernels (stage 1 * stage 2),
        # so the pooled average is one convolution with their average: an
        # oracle that shares no grouping with PooledCascade.
        ndim = len(subband)
        stages = _swt_stages(family, 2, subband, ndim)
        image = np.random.default_rng(17).normal(size=(10, 11, 9)[:ndim]) * 100
        elements, _ = equivariant_cascades(stages)
        dense = 0.0
        for element in elements:
            composite = [np.convolve(first, second) for first, second in element]
            kernel = composite[0]
            for factor in composite[1:]:
                kernel = np.multiply.outer(kernel, factor)
            dense = dense + kernel
        direct = convolve_full(image, dense / len(elements), "periodise")
        pooled = PooledCascade(stages, "average", "periodise")(image)
        assert np.max(np.abs(pooled - direct)) <= 1e-12 * np.max(np.abs(direct))


_DB3 = wavelet_family("db3")


def _laws_stages(text):
    return [[laws_1d(text[i : i + 2])] for i in range(0, len(text), 2)]


# (name, per-axis stage lists) of every grouping case: symmetric,
# antisymmetric and neither stages, equal axis lists, mixed lengths, cascades
_STAGE_SETS = {
    "L5E5E5": _laws_stages("L5E5E5"),
    "L3E5S5": _laws_stages("L3E5S5"),
    "W5E3L5": _laws_stages("W5E3L5"),
    "S5S5S5": _laws_stages("S5S5S5"),
    "L5E5": _laws_stages("L5E5"),
    "E3R5": _laws_stages("E3R5"),
    "db3-LLH-1": _swt_stages("db3", 1, "LLH", 3),
    "db3-HHH-2": _swt_stages("db3", 2, "HHH", 3),
    "haar-LH-1": _swt_stages("haar", 1, "LH", 2),
    "db2-LH-2": _swt_stages("db2", 2, "LH", 2),
    "haar-HL-2": _swt_stages("haar", 2, "HL", 2),
    "db3-LH-1": _swt_stages("db3", 1, "LH", 2),
    "db3-HH-2": _swt_stages("db3", 2, "HH", 2),
    # three distinct stages, neither symmetric nor antisymmetric on two axes,
    # so the regrouped average keeps terms with reversed-difference factors
    "db3-L-H-L5": [[_DB3.low_pass], [_DB3.high_pass], [laws_1d("L5")]],
    # an antisymmetric stage before the last level, whose sign the groups
    # carry through the next level's pad
    "E5L5-L5E5": [[laws_1d("E5"), laws_1d("L5")], [laws_1d("L5"), laws_1d("E5")]],
}

# (boundary, fill): the image is lowered by fill, so the zero halo of the
# constant boundary steps up from it by fill
_BOUNDARIES = [("mirror", 0.0), ("nearest", 0.0), ("periodise", 0.0), ("constant", 0.0),
               ("constant", -7.25)]


class TestPooledCascade:
    """Grouped pooling against running every rotation's cascade in table order."""

    @pytest.mark.parametrize("mode", ["max", "average"])
    @pytest.mark.parametrize("boundary, fill", _BOUNDARIES)
    @pytest.mark.parametrize("name", list(_STAGE_SETS))
    def test_matches_naive_pool(self, name, boundary, fill, mode):
        stages = _STAGE_SETS[name]
        image = np.random.default_rng(len(name)).normal(size=(9, 8, 7)[: len(stages)]) * 100
        image -= fill
        responses = [cascade(image, element, boundary)
                     for element in equivariant_cascades(stages)[0]]
        want = pool(responses, mode)
        got = PooledCascade(stages, mode, boundary)(image)
        if mode == "max":
            # exact; |h| = max(h, -h) may differ from the table order in the
            # sign of exact zeros only
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
        else:
            # the groups sum in another order; antisymmetric Laws averages are
            # zero, so the bound is set by the single-rotation responses
            scale = max(np.max(np.abs(h)) for h in responses)
            assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_cancelling_average_is_exactly_zero(self):
        image = np.random.default_rng(5).normal(size=(9, 8, 7))
        out = PooledCascade(_STAGE_SETS["L5E5E5"], "average", "mirror")(image)
        assert not np.any(out)

    @staticmethod
    def _counted_call(stages, mode, monkeypatch):
        """Build and call a PooledCascade; returns it and its (passes, pads)."""
        counts = {"pad": 0, "pass": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(voxfilt.rotinv, "pad", counted("pad", voxfilt.rotinv.pad))
        monkeypatch.setattr(voxfilt.rotinv, "axis_pass",
                            counted("pass", voxfilt.rotinv.axis_pass))
        pooled = PooledCascade(stages, mode, "mirror")
        pooled(np.random.default_rng(6).normal(size=(10,) * len(stages)))
        assert pooled.passes == counts["pass"]
        return pooled, (counts["pass"], counts["pad"])

    # max pooling walks the trie: (stage set, rotation groups, 1-D passes,
    # pads) per call; every rotation as its own cascade takes rotations x
    # axes x levels passes and rotations x levels pads
    @pytest.mark.parametrize("name, groups, passes, pads", [
        ("L5E5E5", 3, 8, 1),      # 4.B: 72 passes, 24 pads one rotation at a time
        ("db3-LLH-1", 24, 40, 1),  # 72 and 24
        ("db3-HHH-2", 8, 38, 9),   # 144 and 48
        ("L5E5", 2, 4, 1),         # 4.A: 8 and 4
        ("db3-LH-1", 4, 8, 1),     # 8 and 4
        ("db3-HH-2", 4, 14, 5),    # 16 and 8
    ])
    def test_work_count(self, name, groups, passes, pads, monkeypatch):
        pooled, work = self._counted_call(_STAGE_SETS[name], "max", monkeypatch)
        assert (pooled.leaves, *work) == (groups, passes, pads)

    # the average with linear padding runs the regrouped terms or the
    # rotation groups, whichever takes fewer passes (the terms on a tie):
    # (stage set, leaves, 1-D passes, pads) per call
    @pytest.mark.parametrize("name, leaves, passes, pads", [
        ("L5E5E5", 0, 0, 0),      # cancels: every term holds a zero kernel
        ("db3-LLH-1", 3, 8, 1),   # 6.B: 40 passes in the trie
        ("db3-HHH-2", 1, 12, 9),  # 7.B: 38 passes and 9 pads in the trie
        ("L5E5", 0, 0, 0),
        ("db3-LH-1", 4, 8, 1),    # 6.A: the trie's 8 passes and 1 pad, a tie
        ("db3-HH-2", 1, 8, 6),    # 7.A: 14 passes and 5 pads in the trie
        # the trie: the terms take 32 passes and 24 pads
        ("db2-LH-2", 4, 14, 5),
        ("haar-HL-2", 4, 14, 5),
        ("E5L5-L5E5", 2, 8, 3),
    ])
    def test_average_work_count(self, name, leaves, passes, pads, monkeypatch):
        pooled, work = self._counted_call(_STAGE_SETS[name], "average", monkeypatch)
        assert (pooled.leaves, *work) == (leaves, passes, pads)

    def test_grouping_is_built_once(self, monkeypatch):
        pooled = PooledCascade(_STAGE_SETS["db3-HHH-2"], "max", "mirror")
        monkeypatch.setattr(voxfilt.rotinv, "equivariant_cascades", None)
        image = np.random.default_rng(7).normal(size=(6, 7, 8))
        assert pooled(image).tobytes() == pooled(image).tobytes()

    def test_wrong_dimensionality_rejected(self):
        with pytest.raises(ValueError, match="3-D cascade"):
            PooledCascade(_STAGE_SETS["L5E5E5"], "max", "mirror")(np.zeros((5, 5)))

    def test_bad_pool_mode_rejected(self):
        with pytest.raises(ValueError, match="pool mode"):
            PooledCascade(_STAGE_SETS["L5E5"], "median", "mirror")


_POOLED_PROBE = """
import hashlib
import numpy as np
from voxfilt.kernels import laws_1d
from voxfilt.rotinv import PooledCascade
from voxfilt.wavelets import _swt_stages
from voxfilt.wavelets import wavelet_family
rng = np.random.default_rng(13)
volume, plane = rng.normal(size=(12, 12, 12)) * 100, rng.normal(size=(16, 15)) * 100
db3 = wavelet_family("db3")
digest = hashlib.sha256()
for stages in ([[laws_1d(k)] for k in ("L5", "E5", "E5")], _swt_stages("db3", 1, "LLH", 3),
               _swt_stages("db3", 2, "HHH", 3), _swt_stages("db3", 1, "LH", 2),
               _swt_stages("db3", 2, "HH", 2)):
    for mode in ("max", "average"):
        image = volume if len(stages) == 3 else plane
        digest.update(PooledCascade(stages, mode, "mirror")(image).tobytes())
for stages in ([[laws_1d(k)] for k in ("L3", "E5", "S5")],
               [[db3.low_pass], [db3.high_pass], [laws_1d("L5")]]):
    digest.update(PooledCascade(stages, "average", "mirror")(volume).tobytes())
print(digest.hexdigest())
"""


def test_pooled_cascades_do_not_depend_on_simd_dispatch():
    # the 4.B, 6.B, 7.B, 6.A and 7.A stage sets, both pools, and two more
    # averages: L3E5S5, whose terms all drop, and one that keeps terms with
    # reversed-difference factors
    results = digests_at_dispatch_levels(_POOLED_PROBE)
    assert {digest for _, digest in results} == {results[0][1]}, results


class TestGaborOrientationSet:
    def test_eighth_turn_gives_eight(self):
        thetas = gabor_orientation_set(math.pi / 8)
        assert len(thetas) == 8
        np.testing.assert_allclose(thetas, [i * math.pi / 8 for i in range(8)])

    def test_half_turn_step_single_orientation(self):
        assert gabor_orientation_set(math.pi) == [0.0]

    def test_quarter_turn_enumeration(self):
        np.testing.assert_allclose(
            gabor_orientation_set(math.pi / 4),
            [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4],
        )

    @pytest.mark.parametrize("bad", [0.7, 0.0, -math.pi / 4, math.nan, 2 * math.pi])
    def test_invalid_steps_rejected(self, bad):
        with pytest.raises(ValueError):
            gabor_orientation_set(bad)

    @pytest.mark.parametrize("step", [1e-300, 5e-324, math.pi / 361])
    def test_orientation_count_is_bounded(self, step):
        # 1e-300 passes the divisibility test and used to list about 3e300 angles
        with pytest.raises(ValueError, match="dtheta .* gives more than 360 orientations"):
            gabor_orientation_set(step)
        assert len(gabor_orientation_set(math.pi / 360)) == 360


class TestOrthogonalPlaneAverage:
    def test_identity_op(self):
        rng = np.random.default_rng(2)
        vol = rng.normal(size=(4, 5, 6))
        np.testing.assert_allclose(
            orthogonal_plane_average(vol, lambda s: s), vol, rtol=0, atol=1e-15
        )

    def test_linear_op_scales(self):
        vol = np.arange(24.0).reshape(2, 3, 4)
        out = orthogonal_plane_average(vol, lambda s: 2.0 * s)
        np.testing.assert_allclose(out, 2.0 * vol, rtol=0, atol=1e-15)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            orthogonal_plane_average(np.zeros((4, 4)), lambda s: s)

    def test_rejects_shape_changing_op(self):
        with pytest.raises(ValueError):
            orthogonal_plane_average(np.zeros((4, 4, 4)), lambda s: s[:, :2, :2])

    @pytest.mark.parametrize("planes", [1, 2, 100])
    def test_op_gets_stacks_of_each_plane_orientation(self, monkeypatch, planes):
        # every op call is one slab: a C-ordered (k, n1, n2) stack of planes
        monkeypatch.setattr(voxfilt.image, "_SLAB_VOXELS", planes * 4 * 5)
        calls = []

        def op(stack):
            assert stack.flags.c_contiguous
            calls.append(stack.shape)
            return stack

        vol = np.random.default_rng(3).normal(size=(4, 5, 6))
        np.testing.assert_allclose(orthogonal_plane_average(vol, op), vol, rtol=0, atol=1e-15)
        planes_by_stack = {(4, 5): 6, (4, 6): 5, (5, 6): 4}
        assert {shape[1:] for shape in calls} == set(planes_by_stack)
        for plane, count in planes_by_stack.items():
            assert sum(k for k, *rest in calls if tuple(rest) == plane) == count

    def test_spherical_input_planes_agree_at_centre(self):
        n = 17
        axis = np.arange(n) - n // 2
        r2 = (
            axis[:, None, None] ** 2
            + axis[None, :, None] ** 2
            + axis[None, None, :] ** 2
        )
        vol = np.exp(-r2 / 18.0)

        box = np.ones(5) / 5.0

        def smooth(sl):
            return convolve_separable(sl, (box, box), "mirror")

        averaged = orthogonal_plane_average(vol, smooth)
        centre = (n // 2,) * 3
        single_plane = smooth(vol[:, :, n // 2])[n // 2, n // 2]
        assert averaged[centre] == pytest.approx(single_plane, abs=1e-6)
