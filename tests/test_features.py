import json
import math
import tracemalloc

import numpy as np
import pytest

from voxfilt.features import (
    FEATURE_IDS,
    FeatureValue,
    _between_sorted,
    _percentile_sorted,
    _tree_sums,
    diagnostics,
    format_3sig,
    intensity_statistics,
    write_feature_csv,
    write_feature_json,
)
from voxfilt import features
from voxfilt.image import RoiMask

from dispatch import digests_at_dispatch_levels
from oracles import whole_array_diagnostics, whole_array_statistics


def _pct_brute(sorted_values, q):
    n = len(sorted_values)
    rank = q / 100.0 * (n - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    return sorted_values[lo] + frac * (sorted_values[hi] - sorted_values[lo])


def _stats_brute(values):
    """Pure-python reference built on sorted lists and fsum."""
    s = sorted(float(v) for v in values)
    n = len(s)
    mean = math.fsum(s) / n
    variance = math.fsum((v - mean) ** 2 for v in s) / n
    if variance > 0.0:
        skewness = (math.fsum((v - mean) ** 3 for v in s) / n) / variance**1.5
        kurtosis = (math.fsum((v - mean) ** 4 for v in s) / n) / variance**2 - 3.0
    else:
        skewness = 0.0
        kurtosis = 0.0
    p10 = _pct_brute(s, 10.0)
    p25 = _pct_brute(s, 25.0)
    median = _pct_brute(s, 50.0)
    p75 = _pct_brute(s, 75.0)
    p90 = _pct_brute(s, 90.0)
    robust = [v for v in s if p10 <= v <= p90]
    robust_mean = math.fsum(robust) / len(robust)
    energy = math.fsum(v * v for v in s)
    if variance > 0.0:
        cov = math.sqrt(variance) / mean if mean != 0.0 else math.inf
    else:
        cov = 0.0
    return {
        "mean": mean,
        "variance": variance,
        "skewness": skewness,
        "excess_kurtosis": kurtosis,
        "median": median,
        "minimum": s[0],
        "percentile_10": p10,
        "percentile_90": p90,
        "maximum": s[-1],
        "interquartile_range": p75 - p25,
        "range": s[-1] - s[0],
        "mean_absolute_deviation": math.fsum(abs(v - mean) for v in s) / n,
        "robust_mean_absolute_deviation": math.fsum(
            abs(v - robust_mean) for v in robust
        ) / len(robust),
        "median_absolute_deviation": math.fsum(abs(v - median) for v in s) / n,
        "coefficient_of_variation": cov,
        "quartile_coefficient_of_dispersion": (p75 - p25) / (p75 + p25)
        if p75 + p25 != 0.0
        else 0.0,
        "energy": energy,
        "root_mean_square": math.sqrt(energy / n),
    }


def _as_dict(features):
    return {f.name: f.value for f in features}


class TestAggregateMean:
    """The ROI mean, as the intensity statistics report it."""

    def test_constant(self):
        mask = np.ones((3, 3), dtype=bool)
        assert _as_dict(intensity_statistics(np.full((3, 3), 4.5), mask))["mean"] == 4.5

    def test_simple_values(self):
        data = np.array([[1.0, 2.0], [3.0, 99.0]])
        mask = np.array([[True, True], [True, False]])
        assert _as_dict(intensity_statistics(data, mask))["mean"] == pytest.approx(2.0)

    def test_empty_mask(self):
        with pytest.raises(ValueError, match="empty ROI"):
            intensity_statistics(np.ones((2, 2)), np.zeros((2, 2), dtype=bool))

    def test_non_boolean_mask(self):
        with pytest.raises(ValueError, match="boolean"):
            intensity_statistics(np.ones((2, 2)), np.ones((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            intensity_statistics(np.ones((2, 2)), np.ones((3, 3), dtype=bool))


def _signed_zeros():
    """Values in {-1, 0, 1} where a random half of the zeros are -0.0."""
    data = np.random.default_rng(0).integers(-1, 2, (8, 8, 8)).astype(float)
    zeros = np.random.default_rng(1).permutation(np.flatnonzero(data == 0.0))
    data.flat[zeros[:zeros.size // 2]] = -0.0
    return data


class TestIntensityStatistics:
    def test_ids_and_order(self):
        mask = np.ones((2, 2), dtype=bool)
        feats = intensity_statistics(np.ones((2, 2)), mask)
        assert [(f.ibsi_id, f.name) for f in feats] == list(FEATURE_IDS)

    def test_hand_example(self):
        data = np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 2)
        got = _as_dict(intensity_statistics(data, np.ones((2, 2), dtype=bool)))
        assert got["mean"] == 2.5
        assert got["variance"] == 1.25
        assert got["median"] == 2.5
        assert got["range"] == 3.0
        assert got["energy"] == 30.0
        assert got["root_mean_square"] == pytest.approx(math.sqrt(7.5))

    def test_constant_region_degenerate_rules(self):
        data = np.full((3, 3), 7.0)
        got = _as_dict(intensity_statistics(data, np.ones((3, 3), dtype=bool)))
        assert got["mean"] == 7.0
        assert got["variance"] == 0.0
        assert got["skewness"] == 0.0
        assert got["excess_kurtosis"] == 0.0
        assert got["minimum"] == got["maximum"] == 7.0
        assert got["range"] == 0.0
        assert got["coefficient_of_variation"] == 0.0
        assert got["energy"] == 9 * 49.0
        assert got["root_mean_square"] == 7.0

    def test_percentile_fixture(self):
        data = np.arange(10.0, 101.0, 10.0).reshape(1, 10)
        got = _as_dict(intensity_statistics(data, np.ones((1, 10), dtype=bool)))
        assert got["percentile_10"] == pytest.approx(19.0)
        assert got["percentile_90"] == pytest.approx(91.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(scale=10.0, size=(7, 6, 5))
        mask = rng.uniform(size=(7, 6, 5)) < 0.4
        mask.flat[rng.integers(mask.size)] = True
        got = _as_dict(intensity_statistics(data, mask))
        want = _stats_brute(data[mask])
        for name, value in want.items():
            assert got[name] == pytest.approx(value, rel=1e-9, abs=1e-12), name

    def test_scale_equivariance(self):
        rng = np.random.default_rng(42)
        data = rng.normal(loc=3.0, size=(6, 6))
        mask = np.ones((6, 6), dtype=bool)
        alpha = 2.75
        base = _as_dict(intensity_statistics(data, mask))
        scaled = _as_dict(intensity_statistics(alpha * data, mask))
        degree_one = (
            "mean", "median", "minimum", "percentile_10", "percentile_90",
            "maximum", "interquartile_range", "range", "mean_absolute_deviation",
            "robust_mean_absolute_deviation", "median_absolute_deviation",
            "root_mean_square",
        )
        for name in degree_one:
            assert scaled[name] == pytest.approx(alpha * base[name], rel=1e-10)
        for name in ("variance", "energy"):
            assert scaled[name] == pytest.approx(alpha**2 * base[name], rel=1e-10)
        for name in (
            "skewness", "excess_kurtosis", "coefficient_of_variation",
            "quartile_coefficient_of_dispersion",
        ):
            assert scaled[name] == pytest.approx(base[name], rel=1e-10, abs=1e-12)

    def test_enumeration_order_bitwise_irrelevant(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(5, 8))
        mask = rng.uniform(size=(5, 8)) < 0.5
        mask[0, 0] = True
        # -0.0 == 0.0, so a sort keeps whichever zero came first (the pair,
        # on every sort kernel) or either one (the 8^3 fixture, depending on
        # the kernel numpy dispatches to)
        zeros = _signed_zeros()
        pair = np.array([[1.0, -0.0, 2.0], [0.0, 3.0, 4.0]])
        cases = {"normal": (data, mask),
                 "signed-zeros": (zeros, np.ones(zeros.shape, dtype=bool)),
                 "signed-zero-pair": (pair, np.ones(pair.shape, dtype=bool))}
        for case, (data, mask) in cases.items():
            a = intensity_statistics(data, mask)
            b = intensity_statistics(data.T.copy(), mask.T.copy())
            for fa, fb in zip(a, b):
                assert repr(fa.value) == repr(fb.value), (case, fa.name)

    def test_signed_zeros_read_as_positive(self):
        data = _signed_zeros()
        mask = np.ones(data.shape, dtype=bool)
        got = _as_dict(intensity_statistics(data, mask))
        assert repr(got["median"]) == "0.0"
        assert got["minimum"] == -1.0 and got["maximum"] == 1.0
        negative = np.full((3, 3), -0.0)
        stats = intensity_statistics(negative, np.ones((3, 3), dtype=bool))
        assert all(repr(f.value) == "0.0" for f in stats), stats
        extremes = diagnostics(negative > 0, np.ones((3, 3), dtype=bool), negative)
        assert [repr(f.value) for f in extremes[2:]] == ["0.0"] * 3

    @pytest.mark.parametrize("dims", [(9, 7), (9, 7, 5)])
    def test_memory_layout_bitwise_irrelevant(self, dims):
        rng = np.random.default_rng(14)
        data = rng.normal(scale=30.0, size=dims)
        data[data < -20.0] = -0.0
        mask = rng.uniform(size=dims) < 0.6
        mask.flat[0] = True
        layouts = (np.ascontiguousarray, np.asfortranarray)
        results = {
            (as_data.__name__, as_mask.__name__): [
                repr(f.value) for f in intensity_statistics(as_data(data), as_mask(mask))
                + diagnostics(mask, as_mask(mask), as_data(data))]
            for as_data in layouts for as_mask in layouts
        }
        first = next(iter(results.values()))
        assert all(got == first for got in results.values()), results

    def test_energy_rms_identity(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(6, 7))
        mask = rng.uniform(size=(6, 7)) < 0.6
        mask[3, 3] = True
        got = _as_dict(intensity_statistics(data, mask))
        count = int(np.count_nonzero(mask))
        assert got["energy"] == pytest.approx(
            count * got["root_mean_square"] ** 2, rel=1e-10
        )

    def test_accepts_roi_mask(self):
        mask = RoiMask(np.ones((2, 2), dtype=bool))
        feats = intensity_statistics(np.full((2, 2), 3.0), mask)
        assert _as_dict(feats)["mean"] == 3.0

    def test_empty_mask(self):
        with pytest.raises(ValueError, match="empty ROI"):
            intensity_statistics(np.ones((2, 2)), np.zeros((2, 2), dtype=bool))


_QUANTILES = (10.0, 25.0, 50.0, 75.0, 90.0)


def _sorted_cases():
    rng = np.random.default_rng(12)
    yield "n1", np.array([3.5])
    yield "n1-negative", np.array([-0.0])
    yield "n2", np.array([-1.0, 4.0])
    yield "n3", np.array([0.1, 0.2, 0.7])
    yield "constant", np.full(17, 2.25)
    yield "ties", np.sort(np.repeat([1.0, 2.0, 2.0, 5.0], [3, 4, 1, 6]))
    yield "negative", np.sort(-np.abs(rng.normal(scale=40.0, size=101)))
    yield "integer-valued", np.sort(np.round(rng.normal(scale=300.0, size=1000)))
    yield "small-integers", np.sort(rng.integers(-3, 4, size=64).astype(np.float64))
    for n in (5, 10, 11, 99, 12345):
        yield f"normal-{n}", np.sort(rng.normal(loc=-2.0, scale=1e3, size=n))


class TestSortedHelpers:
    @pytest.mark.parametrize("case", list(_sorted_cases()), ids=lambda c: c[0])
    def test_percentile_is_numpys_bitwise(self, case):
        _, x = case
        for q in _QUANTILES:
            got = np.float64(_percentile_sorted(x, q))
            assert got.tobytes() == np.percentile(x, q).tobytes(), q

    @pytest.mark.parametrize("case", list(_sorted_cases()), ids=lambda c: c[0])
    def test_robust_slice_is_the_mask_selection(self, case):
        _, x = case
        p10, p90 = _percentile_sorted(x, 10.0), _percentile_sorted(x, 90.0)
        want = x[(x >= p10) & (x <= p90)]
        assert _between_sorted(x, p10, p90).tobytes() == want.tobytes()
        # edges that sit on tied values keep every copy, or none
        for low, high in ((x[0], x[-1]), (x[x.size // 2], x[x.size // 2])):
            want = x[(x >= low) & (x <= high)]
            assert _between_sorted(x, low, high).tobytes() == want.tobytes()

    def test_statistics_match_numpy_percentiles(self):
        rng = np.random.default_rng(13)
        data = np.round(rng.normal(scale=50.0, size=(9, 8, 7)))
        mask = rng.uniform(size=data.shape) < 0.7
        got = _as_dict(intensity_statistics(data, mask))
        x = np.sort(data[mask])
        p10, p25, p50, p75, p90 = np.percentile(x, _QUANTILES)
        assert (got["percentile_10"], got["median"], got["percentile_90"]) == (p10, p50, p90)
        assert got["interquartile_range"] == p75 - p25
        robust = x[(x >= p10) & (x <= p90)]
        assert got["robust_mean_absolute_deviation"] == float(
            np.mean(np.abs(robust - robust.mean())))


def _leaf_cases():
    """(name, map, mask): ROIs from one voxel to several leaves of every
    leaf size tested, on full, sparse and single-voxel masks."""
    rng = np.random.default_rng(31)

    def scaled(shape, low, high):
        return rng.normal(size=shape) * 10.0 ** rng.uniform(low, high, size=shape)

    yield "one-voxel", np.array([[2.5]]), np.ones((1, 1), dtype=bool)
    for dims in ((5,), (127,), (128,), (129,), (1000,), (1001,), (2017,)):
        yield f"full-{dims[0]}", rng.normal(loc=-40.0, scale=300.0, size=dims), None
    for dims in ((40, 40, 12), (64, 48, 48)):
        data = scaled(dims, -3.0, 3.0)
        yield f"full-{math.prod(dims)}", data, None
        yield f"sparse-{math.prod(dims)}", data, rng.uniform(size=dims) < 0.1
        single = np.zeros(dims, dtype=bool)
        single[3, 5, 7] = True
        yield f"single-voxel-{math.prod(dims)}", data, single
    yield "constant", np.full((30, 30, 20), -7.25), None
    yield "mixed-scales", scaled((40, 30, 20), -12.0, 12.0), None
    yield "integers", np.round(rng.normal(scale=500.0, size=(33, 31, 17))), None
    zeros = rng.integers(-1, 2, size=(32, 32, 24)).astype(float)
    zeros[rng.uniform(size=zeros.shape) < 0.5] *= -1.0  # -0.0 for half the zeros
    assert np.signbit(zeros[zeros == 0.0]).any() and not np.signbit(zeros[zeros == 0.0]).all()
    yield "signed-zeros", zeros, None
    mixed = scaled((36, 36, 36), -6.0, 6.0)
    yield "sparse-mixed-scales", mixed, rng.uniform(size=mixed.shape) < 0.35


class TestLeafTree:
    """The sums follow numpy's pairwise-sum tree leaf by leaf, so every
    feature keeps the bytes of one whole-array numpy reduction."""

    @pytest.mark.parametrize("leaf", [128, 1000, features._LEAF])
    def test_tree_is_add_reduce_bitwise(self, monkeypatch, leaf):
        # values over 60 orders of magnitude: any other order of additions
        # changes the bits of most of these sums
        monkeypatch.setattr(features, "_LEAF", leaf)
        rng = np.random.default_rng(leaf)
        n = 2 * leaf + 18
        x = rng.normal(size=n) * np.exp(rng.uniform(-70.0, 70.0, size=n))
        lengths = list(range(n)) + [int(k) for k in rng.integers(n, 40 * leaf, size=4)]
        x = np.concatenate([x, rng.normal(size=max(lengths) - n) * 1e20])
        for k in lengths:
            (got,) = _tree_sums(x[:k], lambda piece: (np.add.reduce(piece),))
            assert np.float64(got).tobytes() == np.add.reduce(x[:k]).tobytes(), k

    @pytest.mark.parametrize("leaf", [128, 1000, features._LEAF])
    def test_features_match_whole_array_reference(self, monkeypatch, leaf):
        monkeypatch.setattr(features, "_LEAF", leaf)
        for name, data, mask in _leaf_cases():
            if mask is None:
                mask = np.ones(data.shape, dtype=bool)
            want = {**whole_array_diagnostics(mask, mask, data),
                    **whole_array_statistics(data, mask)}
            got = diagnostics(mask, mask, data) + intensity_statistics(data, mask)
            assert [f.name for f in got] == list(want), name
            for f in got:
                assert repr(f.value) == repr(want[f.name]), (name, f.name)


_PROBE = """
import hashlib, sys
import numpy as np
from voxfilt.features import diagnostics, intensity_statistics
arrays = np.load(sys.argv[1])
data, mask = arrays["data"], arrays["mask"]
features = intensity_statistics(data, mask) + diagnostics(mask, mask, data)
values = tuple(f.value for f in features)
print(hashlib.sha256(repr(values).encode()).hexdigest())
"""


def test_statistics_do_not_depend_on_simd_dispatch(tmp_path):
    # Computed with centred**4, this fixture's excess kurtosis changed at the
    # AVX2 level; with products it does not.
    data = np.random.default_rng(0).normal(size=(40, 40, 20))
    k = np.indices(data.shape)
    mask = ((k[0] - 19.5) ** 2 + (k[1] - 19.5) ** 2 + (k[2] - 9.5) ** 2) < 15.0**2
    fixture = tmp_path / "fixture.npz"
    np.savez(fixture, data=data, mask=mask)
    results = digests_at_dispatch_levels(_PROBE, fixture)
    assert {digest for _, digest in results} == {results[0][1]}, results


def test_statistics_peak_memory():
    # 128 x 128 x 32 map, 80% ROI: the gathered values and one leaf-sized
    # scratch buffer hold 1.08x the ROI's float64 bytes (one ROI-sized
    # scratch array held 2.0x, a new array per statistic 4.0x)
    rng = np.random.default_rng(15)
    data = np.asfortranarray(rng.normal(size=(128, 128, 32)))
    mask = RoiMask(rng.uniform(size=data.shape) < 0.8)
    roi_bytes = mask.voxel_count * 8
    tracemalloc.start()
    try:
        intensity_statistics(data, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * roi_bytes, peak / roi_bytes


class TestDiagnostics:
    def test_counts_and_intensities(self):
        before = np.ones((4, 4), dtype=bool)
        after = np.zeros((4, 4), dtype=bool)
        after[1:3, 1:3] = True
        image = np.arange(16.0).reshape(4, 4)
        vals = {f.name: f.value for f in diagnostics(before, after, image)}
        assert vals["roi_voxels_before_interpolation"] == 16.0
        assert vals["roi_voxels_after_resegmentation"] == 4.0
        assert vals["roi_intensity_mean"] == pytest.approx(
            np.mean([5.0, 6.0, 9.0, 10.0])
        )
        assert vals["roi_intensity_max"] == 10.0
        assert vals["roi_intensity_min"] == 5.0

    def test_noop_pipeline_counts_equal(self):
        mask = np.ones((3, 3), dtype=bool)
        vals = {f.name: f.value for f in diagnostics(mask, mask, np.ones((3, 3)))}
        assert (
            vals["roi_voxels_before_interpolation"]
            == vals["roi_voxels_after_resegmentation"]
        )

    def test_empty_final_mask_flags_intensities(self):
        before = np.ones((2, 2), dtype=bool)
        after = np.zeros((2, 2), dtype=bool)
        vals = {f.name: f.value for f in diagnostics(before, after, np.ones((2, 2)))}
        assert vals["roi_voxels_after_resegmentation"] == 0.0
        assert math.isnan(vals["roi_intensity_mean"])
        assert math.isnan(vals["roi_intensity_max"])
        assert math.isnan(vals["roi_intensity_min"])

    def test_full_cube_count(self):
        mask = np.ones((64, 64, 64), dtype=bool)
        vals = {f.name: f.value for f in diagnostics(mask, mask, np.zeros(mask.shape))}
        assert vals["roi_voxels_before_interpolation"] == 262144.0


class TestExport:
    def test_format_3sig(self):
        assert format_3sig(1234.5) == "1.23e+03"
        assert format_3sig(0.012345) == "0.0123"
        assert format_3sig(2.0) == "2"
        assert format_3sig(math.nan) == "nan"

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "out.csv"
        feats = [FeatureValue("Q4LE", "mean", 2.5)]
        write_feature_csv(path, "1.A", feats)
        lines = path.read_text().splitlines()
        assert lines[0] == "test_id,ibsi_id,name,value,value_3sig"
        assert lines[1] == "1.A,Q4LE,mean,2.5,2.5"

    def test_csv_bytes_stable(self, tmp_path):
        feats = intensity_statistics(
            np.arange(9.0).reshape(3, 3), np.ones((3, 3), dtype=bool)
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_feature_csv(a, "2.B", feats)
        write_feature_csv(b, "2.B", feats)
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        feats = [FeatureValue("N8CA", "energy", 30.0), FeatureValue("", "roi_intensity_mean", 1.0)]
        write_feature_json(path, "3.A", feats)
        rows = json.loads(path.read_text())
        assert rows[0] == {
            "test_id": "3.A",
            "ibsi_id": "N8CA",
            "name": "energy",
            "value": "30.0",
            "value_3sig": "30",
        }
        assert rows[1]["ibsi_id"] == ""
