"""Acceptance checks: one test per numbered criterion.

Each test prints a single ``criterion NN: PASS/FAIL`` line with the
measured numbers before asserting, so a verbose run (``pytest
tests/test_acceptance.py -v -s``) reads as a checklist.
"""

import functools
import math
import os
import time

import numpy as np

from voxfilt.benchmark import consensus_level, generate_phantom
from voxfilt.boundary import BOUNDARY_MODES, pad
from voxfilt.cli import main as cli_main
from voxfilt.convolve import (
    convolve_fourier,
    convolve_full,
    convolve_separable,
    fourier_grid,
    kernel_to_transfer,
)
from voxfilt.features import FEATURE_IDS, intensity_statistics
from voxfilt.image import create_image
from voxfilt.kernels import (
    laws_1d,
    laws_energy,
    log_kernel,
    truncated_support,
)
from voxfilt.nifti import write_nifti
from voxfilt.pipeline import FilterConfig, load_config, plan_filter
from voxfilt.riesz import riesz_indices, riesz_transfer
from voxfilt.rotinv import equivariant_cascades, oddify
from voxfilt.wavelets import RadialProfile, atrous_upsample, radial_transfer, wavelet_family

from oracles import euler_matrix, planar_matrix, rotate_grid

CONFIG_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "configs"))


def _line(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {detail}")


def _outer(parts):
    return functools.reduce(np.multiply.outer, [np.asarray(p, dtype=np.float64) for p in parts])


def test_criterion_01_separable_matches_dense():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for trial in range(200):
        ndim = 2 if trial % 2 == 0 else 3
        dims = tuple(int(n) for n in rng.integers(3, 17, size=ndim))
        sizes = tuple(int(m) for m in rng.integers(1, 6, size=ndim))
        image = rng.normal(size=dims)
        parts = tuple(rng.normal(size=m) for m in sizes)
        mode = BOUNDARY_MODES[int(rng.integers(0, len(BOUNDARY_MODES)))]
        constant = float(rng.normal()) if mode == "constant" else 0.0
        got = convolve_separable(image, parts, mode, constant=constant)
        want = convolve_full(image, _outer(parts), mode, constant=constant)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _line(1, ok, f"separable vs dense on 200 random pairs, max abs diff {worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_fourier_matches_spatial_periodise():
    rng = np.random.default_rng(202)
    image = rng.normal(size=(32, 32, 32))
    kernels = {
        "mean": np.full((5, 5, 5), 1.0 / 5**3),
        "log": log_kernel(2.5, 3),
        "laws L5E5E5": _outer((laws_1d("L5"), laws_1d("E5"), laws_1d("E5"))),
    }
    start = time.monotonic()
    worst = 0.0
    for kernel in kernels.values():
        spatial = convolve_full(image, kernel, "periodise")
        spectral = convolve_fourier(image, kernel_to_transfer(kernel, image.shape))
        worst = max(worst, float(np.max(np.abs(spectral - spatial))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    names = ", ".join(kernels)
    _line(2, ok, f"fourier vs spatial ({names}), max abs diff {worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_03_boundary_fixtures():
    image = np.array([1.0, 2.0, 3.0])
    expected = {
        "constant": [0.0, 0.0, 1.0, 2.0, 3.0, 0.0, 0.0],
        "nearest": [1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0],
        "periodise": [2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0],
        "mirror": [3.0, 2.0, 1.0, 2.0, 3.0, 2.0, 1.0],
    }
    results = {mode: pad(image, 2, mode, constant=0.0) for mode in expected}
    ok = all(np.array_equal(results[mode], expected[mode]) for mode in expected)
    mirror_repeats_edge = results["mirror"][1] == 2.0 and results["mirror"][2] == 1.0
    _line(3, ok and mirror_repeats_edge,
          "four 1-D halos exact; mirror keeps the boundary pixel")
    for mode in expected:
        np.testing.assert_array_equal(results[mode], expected[mode])
    assert mirror_repeats_edge


def test_criterion_04_log_conformance():
    sigma = 5.0 / 2.0
    m = truncated_support(sigma, 4.0)
    kernel = log_kernel(sigma, 3, 4.0)
    sum_ratio = abs(float(kernel.sum())) / float(np.abs(kernel).sum())

    phantom = generate_phantom("impulse")
    response = convolve_full(phantom.data, kernel, "constant")
    half = m // 2
    window = tuple(slice(32 - half, 32 + half + 1) for _ in range(3))
    expected = np.zeros_like(response)
    expected[window] = 255.0 * kernel
    replica_exact = np.array_equal(response, expected)

    ok = sigma == 2.5 and m == 21 and kernel.shape == (21, 21, 21) \
        and sum_ratio < 1e-3 and replica_exact
    _line(4, ok, f"sigma {sigma} vox, M {m}, |sum|/L1 {sum_ratio:.2e}, impulse replica exact {replica_exact}")
    assert sigma == 2.5
    assert m == 21
    assert kernel.shape == (21, 21, 21)
    assert sum_ratio < 1e-3
    assert replica_exact


def test_criterion_05_laws_kernels_and_energy():
    expected = {
        "L3": np.array([1.0, 2.0, 1.0]) / math.sqrt(6.0),
        "E3": np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0),
        "S3": np.array([-1.0, 2.0, -1.0]) / math.sqrt(6.0),
        "L5": np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / math.sqrt(70.0),
        "E5": np.array([-1.0, -2.0, 0.0, 2.0, 1.0]) / math.sqrt(10.0),
        "S5": np.array([-1.0, 0.0, 2.0, 0.0, -1.0]) / math.sqrt(6.0),
        "W5": np.array([-1.0, 2.0, 0.0, -2.0, 1.0]) / math.sqrt(10.0),
        "R5": np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / math.sqrt(70.0),
    }
    tap_err = max(float(np.max(np.abs(laws_1d(name) - want)))
                  for name, want in expected.items())
    norm_err = max(abs(float(np.linalg.norm(laws_1d(name))) - 1.0) for name in expected)
    mean_err = max(abs(float(laws_1d(name).sum()))
                   for name in expected if name[0] != "L")

    # Constant-magnitude field with alternating signs: the energy map must
    # return the magnitude itself (mean of |h| over the (2*7+1)^3 window).
    level = 3.25
    k1, k2, k3 = np.indices((40, 40, 40))
    signs = np.where((k1 + k2 + k3) % 2 == 0, 1.0, -1.0)
    energy = laws_energy(level * signs, 7, "mirror")
    energy_err = float(np.max(np.abs(energy - level))) / level

    ok = tap_err <= 1e-12 and norm_err <= 1e-12 and mean_err <= 1e-12 \
        and energy_err <= 1e-12
    _line(5, ok, f"eight kernels tap err {tap_err:.1e}, norm err {norm_err:.1e}, "
                 f"E/S/W/R mean err {mean_err:.1e}, energy err {energy_err:.1e}")
    assert tap_err <= 1e-12
    assert norm_err <= 1e-12
    assert mean_err <= 1e-12
    assert energy_err <= 1e-12


def test_criterion_06_atrous_haar_fixtures():
    root = 1.0 / math.sqrt(2.0)
    high = wavelet_family("haar").high_pass
    level1_ok = np.array_equal(high, np.array([-root, root]))
    level2 = atrous_upsample(high, 1)
    level2_ok = level2.shape == (4,) and np.array_equal(
        level2, np.array([-root, 0.0, root, 0.0])
    )
    _line(6, level1_ok and level2_ok,
          "haar high-pass level 1 and dilated level 2 exact, trailing zero kept")
    assert level1_ok
    assert level2_ok


def test_criterion_07_filter_flip_equals_image_rotation():
    # Exact voxel identity needs sums whose rounding cannot depend on tap
    # order: the Haar pair has two nonzero taps per kernel (floating
    # addition commutes), and the integer bank keeps every product and
    # partial sum exactly representable on the 0/255 phantoms.
    haar = wavelet_family("haar")
    banks = (
        (haar.low_pass, haar.high_pass, haar.low_pass),
        ([1.0, 4.0, 6.0, 4.0, 1.0], [-1.0, -2.0, 0.0, 2.0, 1.0],
         [1.0, -4.0, 6.0, -4.0, 1.0]),
    )
    impulse3 = generate_phantom("impulse").data
    checker3 = generate_phantom("checkerboard").data

    start = time.monotonic()
    checked = 0
    for g1, g2, g3 in banks:
        set2, labels2 = equivariant_cascades([[g1], [g2]])
        base2 = (oddify(g1), oddify(g2))
        assert len(set2) == 4
        for image in (impulse3[:, :, 32], checker3[:, :, 0]):
            for element, label in zip(set2, labels2):
                mat = planar_matrix(round(label / (math.pi / 2.0)))
                lhs = convolve_separable(image, [g for (g,) in element], "mirror")
                turned = rotate_grid(image, mat)
                rhs = rotate_grid(convolve_separable(turned, base2, "mirror"), mat.T)
                np.testing.assert_array_equal(lhs, rhs)
                checked += 1

        set3, labels3 = equivariant_cascades([[g1], [g2], [g3]])
        base3 = (oddify(g1), oddify(g2), oddify(g3))
        assert len(set3) == 24
        for image in (impulse3, checker3):
            for element, label in zip(set3, labels3):
                mat = euler_matrix(tuple(round(a / (math.pi / 2.0)) for a in label))
                lhs = convolve_separable(image, [g for (g,) in element], "mirror")
                turned = rotate_grid(image, mat)
                rhs = rotate_grid(convolve_separable(turned, base3, "mirror"), mat.T)
                np.testing.assert_array_equal(lhs, rhs)
                checked += 1

    elapsed = time.monotonic() - start
    ok = checked == 112 and elapsed < 30.0
    _line(7, ok, f"{checked} set elements voxel-identical across both routes, {elapsed:.1f} s")
    assert checked == 112
    assert elapsed < 30.0


def test_criterion_08_riesz_all_pass_identity():
    dims = (32, 32, 32)
    total = np.zeros(dims)
    for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        total += np.abs(riesz_transfer(dims, unit)) ** 2
    _, norm = fourier_grid(dims)
    nonzero = norm > 0.0
    worst = float(np.max(np.abs(total[nonzero] - 1.0)))
    origin_zero = total[0, 0, 0] == 0.0
    count = len(riesz_indices(2, 3))
    ok = worst <= 1e-12 and origin_zero and count == 6
    _line(8, ok, f"sum |R_i|^2 off by {worst:.1e} at nonzero freqs, "
                 f"order-2 3-D set has {count} elements")
    assert worst <= 1e-12
    assert origin_zero
    assert count == 6


def test_criterion_09_radial_transfer_checks():
    dims = (32, 32, 32)
    simoncelli = radial_transfer(RadialProfile("simoncelli", 1), dims)
    # Axis bins 8/16/4 sit at ||nu|| = pi/2 (band centre), pi and pi/4
    # (band edges).
    centre_one = simoncelli[8, 0, 0] == 1.0
    edge_err = max(abs(float(simoncelli[16, 0, 0])), abs(float(simoncelli[4, 0, 0])))

    _, norm = fourier_grid(dims)
    active = np.zeros(dims)
    for level in range(1, 6):
        active += radial_transfer(RadialProfile("shannon", level), dims)
    covered = (norm > 0.0) & (norm <= math.pi)
    partition_ok = np.array_equal(active == 1.0, covered) and set(np.unique(active)) <= {0.0, 1.0}

    ok = centre_one and edge_err <= 1e-12 and partition_ok
    _line(9, ok, f"simoncelli centre 1, edges {edge_err:.1e}; shannon bands "
                 "cover each in-range frequency exactly once")
    assert centre_one
    assert edge_err <= 1e-12
    assert partition_ok


def test_criterion_10_aligned_riesz_right_angle_invariance():
    phantom = generate_phantom("sphere")
    filt = FilterConfig("riesz", {"wavelet": "simoncelli", "level": 1, "l": [2, 0, 0],
                                  "align": True, "sigma_tensor_mm": 2.0})
    aligned = plan_filter(filt, phantom.spacing, "3d", "periodise").run
    start = time.monotonic()
    reference = aligned(phantom.data)
    scale = float(np.max(np.abs(reference)))
    interior = tuple(slice(8, n - 8) for n in phantom.dims)
    worst = 0.0
    for quarters in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        mat = euler_matrix(quarters)
        turned = aligned(rotate_grid(phantom.data, mat))
        back = rotate_grid(turned, mat.T)
        worst = max(worst, float(np.max(np.abs(back[interior] - reference[interior]))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-3 * scale and elapsed < 60.0
    _line(10, ok, f"aligned map moves by {worst / scale:.2e} of peak under "
                  f"quarter turns, {elapsed:.1f} s")
    assert worst <= 1e-3 * scale
    assert elapsed < 60.0


def test_criterion_11_phantom_conformance():
    impulse = generate_phantom("impulse")
    empty = generate_phantom("empty")
    noise = generate_phantom("noise", seed=2021)
    orientation = generate_phantom("orientation")

    impulse_ok = impulse.dims == (64, 64, 64) and impulse.spacing == (2.0, 2.0, 2.0) \
        and impulse.data[32, 32, 32] == 255.0 and np.count_nonzero(impulse.data) == 1
    empty_ok = empty.dims == (64, 64, 64) and not empty.data.any()
    mean = float(noise.data.mean())
    sd = float(noise.data.std())
    noise_ok = abs(mean - 127.0) <= 1.0 and abs(sd - 48.0) <= 1.0 \
        and noise.data.min() >= 0.0 and noise.data.max() <= 255.0
    orientation_ok = orientation.dims == (32, 48, 64) \
        and orientation.data[0, 0, 0] == 0.0 and orientation.data.min() == 0.0 \
        and orientation.data[31, 47, 63] == 141.0 and orientation.data.max() == 141.0

    ok = impulse_ok and empty_ok and noise_ok and orientation_ok
    _line(11, ok, f"impulse/empty/orientation constants hold, noise mean {mean:.2f} sd {sd:.2f}")
    assert impulse_ok
    assert empty_ok
    assert noise_ok
    assert orientation_ok


def _brute_percentile(s, q):
    rank = (q / 100.0) * (len(s) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (rank - lo) * (s[hi] - s[lo])


def _brute_ratio(numerator, denominator):
    if denominator == 0.0:
        return 0.0 if numerator == 0.0 else math.inf * math.copysign(1.0, numerator)
    return numerator / denominator


def _brute_statistics(values):
    s = sorted(float(v) for v in values)
    n = len(s)
    mean = math.fsum(s) / n
    variance = math.fsum((v - mean) ** 2 for v in s) / n
    if variance > 0.0:
        skewness = (math.fsum((v - mean) ** 3 for v in s) / n) / variance**1.5
        kurtosis = (math.fsum((v - mean) ** 4 for v in s) / n) / variance**2 - 3.0
        cov = _brute_ratio(math.sqrt(variance), mean)
    else:
        skewness = 0.0
        kurtosis = 0.0
        cov = 0.0
    p10 = _brute_percentile(s, 10.0)
    p25 = _brute_percentile(s, 25.0)
    median = _brute_percentile(s, 50.0)
    p75 = _brute_percentile(s, 75.0)
    p90 = _brute_percentile(s, 90.0)
    subset = [v for v in s if p10 <= v <= p90]
    if subset:
        sub_mean = math.fsum(subset) / len(subset)
        robust_mad = math.fsum(abs(v - sub_mean) for v in subset) / len(subset)
    else:
        robust_mad = 0.0
    energy = math.fsum(v * v for v in s)
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
        "robust_mean_absolute_deviation": robust_mad,
        "median_absolute_deviation": math.fsum(abs(v - median) for v in s) / n,
        "coefficient_of_variation": cov,
        "quartile_coefficient_of_dispersion": _brute_ratio(p75 - p25, p75 + p25),
        "energy": energy,
        "root_mean_square": math.sqrt(energy / n),
    }


def test_criterion_12_feature_oracle():
    rng = np.random.default_rng(1212)
    names = [name for _, name in FEATURE_IDS]
    worst = 0.0
    for _ in range(100):
        dims = tuple(int(n) for n in rng.integers(3, 9, size=3))
        scale = 10.0 ** float(rng.integers(-3, 4))
        values = rng.normal(loc=float(rng.normal()) * scale, scale=scale, size=dims)
        mask = rng.random(size=dims) < 0.5
        if mask.sum() < 2:
            mask.flat[:2] = True
        want = _brute_statistics(values[mask])
        got = {f.name: f.value for f in intensity_statistics(values, mask)}
        assert sorted(got) == sorted(names)
        for name in names:
            diff = abs(got[name] - want[name])
            rel = diff / max(abs(want[name]), abs(got[name]), 1e-300)
            if diff != 0.0:
                worst = max(worst, rel)
            assert rel <= 1e-9, (name, got[name], want[name])

    constant = {f.name: f.value for f in intensity_statistics(
        np.full((4, 4, 4), 7.5), np.ones((4, 4, 4), dtype=bool))}
    degenerate_ok = (
        constant["variance"] == 0.0 and constant["skewness"] == 0.0
        and constant["excess_kurtosis"] == 0.0
        and constant["coefficient_of_variation"] == 0.0
        and constant["quartile_coefficient_of_dispersion"] == 0.0
        and constant["robust_mean_absolute_deviation"] == 0.0
        and constant["mean"] == 7.5
    )
    _line(12, degenerate_ok, f"18 statistics vs brute force on 100 volumes, "
                             f"worst rel diff {worst:.1e}; constant-region rules hold")
    assert degenerate_ok


def test_criterion_13_consensus_thresholds():
    checked = 0
    for total in range(1, 16):
        for matching in range(0, total + 1):
            level, valid = consensus_level(matching, total)
            if matching < 3:
                want_level = "weak"
            elif matching <= 5:
                want_level = "moderate"
            elif matching <= 9:
                want_level = "strong"
            else:
                want_level = "very strong"
            want_valid = want_level != "weak" and matching / total > 0.5
            assert level == want_level, (matching, total, level)
            assert valid == want_valid, (matching, total, valid)
            checked += 1
    _line(13, True, f"level thresholds and majority rule hold on all {checked} "
                    "(matching, total) pairs up to 15")
    assert checked == 135


def _ct_like_fixture(tmp_path):
    rng = np.random.default_rng(1234)
    k1, k2, k3 = np.indices((48, 48, 48), dtype=np.float64)
    data = (
        -250.0
        + 180.0 * np.sin(2.0 * np.pi * k1 / 9.0) * np.cos(2.0 * np.pi * k2 / 11.0)
        + 140.0 * np.cos(2.0 * np.pi * k3 / 7.0)
        + rng.normal(scale=60.0, size=(48, 48, 48))
    )
    data = np.clip(data, -1000.0, 600.0).astype(np.float32).astype(np.float64)
    image = create_image((48, 48, 48), (2.0, 2.0, 2.0), data)
    membership = (
        ((k1 - 23.5) / 16.0) ** 2 + ((k2 - 23.5) / 14.0) ** 2 + ((k3 - 23.5) / 12.0) ** 2
    ) <= 1.0
    mask = create_image((48, 48, 48), (2.0, 2.0, 2.0), membership.astype(np.float64))
    image_path = os.path.join(tmp_path, "ct.nii.gz")
    mask_path = os.path.join(tmp_path, "mask.nii.gz")
    write_nifti(image, image_path, datatype="f32")
    write_nifti(mask, mask_path, datatype="u8")
    return image_path, mask_path


def test_criterion_14_end_to_end_determinism(tmp_path):
    start = time.monotonic()
    image_path, mask_path = _ct_like_fixture(str(tmp_path))
    config = os.path.join(CONFIG_DIR, "4.B.yaml")
    names = ("4.B_response.nii.gz", "4.B_features.csv", "4.B_features.json")
    outputs = []
    for run, threads in enumerate(("1", "1", "4")):
        out_dir = os.path.join(str(tmp_path), f"run{run}")
        code = cli_main([
            "run", config, "--image", image_path, "--mask", mask_path,
            "--out-dir", out_dir, "--threads", threads,
        ])
        assert code == 0
        outputs.append({name: open(os.path.join(out_dir, name), "rb").read()
                        for name in names})
    repeat_ok = all(outputs[0][name] == outputs[1][name] for name in names)
    threads_ok = all(outputs[0][name] == outputs[2][name] for name in names)
    elapsed = time.monotonic() - start
    ok = repeat_ok and threads_ok and elapsed < 120.0
    _line(14, ok, f"config 4.B outputs byte-identical across repeats and "
                  f"--threads 1/4, {elapsed:.1f} s")
    assert repeat_ok
    assert threads_ok
    assert elapsed < 120.0


def _mismatch(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_criterion_15_metamorphic_invariances():
    # Every shipped config's filter, planned at 1 mm with periodise, on a seeded
    # 24^3 volume.  Doubling the input doubles the response bit for bit.  A
    # periodic roll commutes bit for bit on the spatial routes and within
    # round-off on the Fourier ones.  A quarter turn in each plane of the
    # filtered axes commutes.  The unaligned Riesz filters (10.x) are
    # directional: a turn of (k1, k2) maps their l = (0, 2) component to the
    # (2, 0) one, checked against that component's plan, and their even order
    # commutes with every axis flip.  Each bound is ten times the largest
    # mismatch measured on its route, as a fraction of the response maximum,
    # and a bound of 0 asks for the same bytes: every relation that holds bit
    # for bit today, the identity's turns and 2d mode's slice-axis moves too.
    volume = np.random.default_rng(15).normal(size=(24, 24, 24))
    roll_bounds = {"gabor": 6.6e-15, "nonseparable": 6.6e-15, "riesz": 6.6e-15}
    shift = (5, 3, 7)
    start = time.process_time()
    failures, checked = [], 0
    names = sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".yaml"))
    assert len(names) == 22
    for name in names:
        tid, config = load_config(os.path.join(CONFIG_DIR, name))
        kind, params, mode = config.filter.kind, config.filter.params, config.mode
        directional = kind == "riesz" and not params.get("align")

        def plan(**change):
            return plan_filter(FilterConfig(kind, {**params, **change}), (1.0, 1.0, 1.0), mode,
                               "periodise").run

        run = plan()
        want = run(volume)
        rolled = np.roll(run(np.roll(volume, shift, (0, 1, 2))), [-s for s in shift], (0, 1, 2))
        cases = [("x2", run(2.0 * volume), 2.0 * want, 0.0),
                 ("roll", rolled, want,
                  {"11.A": 4.7e-14, "11.B": 2.0e-13}.get(tid, roll_bounds.get(kind, 0.0)))]
        planes = [(0, 1), (0, 2), (1, 2)] if mode == "3d" else [(0, 1)]
        for plane in planes:
            turned_run = run
            if directional:
                l = list(params["l"])
                l[plane[0]], l[plane[1]] = l[plane[1]], l[plane[0]]
                turned_run = plan(l=l)
            turned = np.rot90(turned_run(np.rot90(volume, 1, plane)), -1, plane)
            cases.append((f"turn {plane}", turned, want, 0.0 if kind == "none" else
                          4.3e-13 if tid.startswith("11.") else 7.4e-15))
        if directional:
            cases += [(f"flip {axis}", np.flip(run(np.flip(volume, axis)), axis), want,
                       0.0 if mode == "2d" and axis == 2 else 6.2e-15) for axis in range(3)]
        for check, got, expected, bound in cases:
            exact = got.tobytes() == expected.tobytes()
            if not (exact if bound == 0.0 else _mismatch(got, expected) <= bound):
                failures.append((tid, check, _mismatch(got, expected), bound))
            checked += 1
    elapsed = time.process_time() - start
    ok = not failures and elapsed < 2.0
    _line(15, ok, f"{checked} metamorphic checks on {len(names)} configs, {len(failures)} failed, "
                  f"{elapsed:.2f} s CPU")
    assert failures == []
    assert elapsed < 2.0
