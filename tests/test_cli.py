import argparse
import json
import math
import os
import struct

import numpy as np
import pytest
import yaml

import voxfilt.cli
import voxfilt.pipeline
from voxfilt.cli import _default_threads, main
from voxfilt.image import create_image
from voxfilt.kernels import mean_kernel_1d
from voxfilt.convolve import convolve_separable
from voxfilt.nifti import read_nifti, write_nifti
from voxfilt.pipeline import FilterConfig, plan_filter
from voxfilt.wavelets import dwt_decimated


def _write_volume(path, data, spacing=(2.0, 2.0, 2.0), datatype="f32"):
    data = np.asarray(data, dtype=np.float64)
    if datatype == "f32":
        data = data.astype(np.float32).astype(np.float64)
    write_nifti(create_image(data.shape, spacing, data), path, datatype)
    return data


class TestPhantomCommand:
    def test_impulse_phantom_written(self, tmp_path, capsys):
        out = tmp_path / "impulse.nii.gz"
        assert main(["phantom", "impulse", "--out", str(out)]) == 0
        image, view = read_nifti(out)
        assert image.dims == (64, 64, 64)
        assert image.spacing == (2.0, 2.0, 2.0)
        assert image.data[32, 32, 32] == 255.0
        assert np.count_nonzero(image.data) == 1
        assert view.datatype == 2
        assert "impulse phantom" in capsys.readouterr().out

    def test_noise_needs_seed(self, tmp_path, capsys):
        out = tmp_path / "noise.nii.gz"
        assert main(["phantom", "noise", "--out", str(out)]) == 1
        assert "seed" in capsys.readouterr().err

    def test_seed_rejected_for_other_phantoms(self, tmp_path, capsys):
        out = tmp_path / "sphere.nii.gz"
        assert main(["phantom", "sphere", "--out", str(out), "--seed", "3"]) == 1
        err = capsys.readouterr().err
        assert err == "error: --seed applies only to the noise phantom, not sphere\n"
        assert not out.exists()

    def test_noise_u8_is_integer_valued(self, tmp_path):
        out = tmp_path / "noise.nii.gz"
        assert main(["phantom", "noise", "--out", str(out), "--seed", "7"]) == 0
        image, _ = read_nifti(out)
        assert np.all(image.data == np.floor(image.data))
        assert image.data.min() >= 0.0 and image.data.max() <= 255.0


class TestFilterCommand:
    def test_mean_filter_matches_library(self, tmp_path):
        rng = np.random.default_rng(0)
        src = tmp_path / "in.nii"
        data = _write_volume(src, rng.normal(size=(8, 8, 8)))
        out = tmp_path / "out.nii"
        code = main([
            "filter", str(src), "--out", str(out), "--filter", "mean",
            "--support", "3", "--datatype", "f64",
        ])
        assert code == 0
        response, _ = read_nifti(out)
        g = mean_kernel_1d(3)
        np.testing.assert_array_equal(
            response.data, convolve_separable(data, (g, g, g), "mirror")
        )

    def test_log_reports_effective_voxel_parameters(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        src = tmp_path / "in.nii"
        _write_volume(src, rng.normal(size=(8, 8, 8)))
        out = tmp_path / "out.nii"
        code = main([
            "filter", str(src), "--out", str(out), "--filter", "log",
            "--sigma-mm", "5.0",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "sigma_vox 2.5," in err
        assert "kernel size 21" in err

    def test_plans_the_filter_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_plan(*args, **kwargs):
            calls.append(args[0])
            return plan_filter(*args, **kwargs)

        monkeypatch.setattr(voxfilt.cli, "plan_filter", counting_plan)
        monkeypatch.setattr(voxfilt.pipeline, "plan_filter", counting_plan)
        src = tmp_path / "in.nii"
        _write_volume(src, np.random.default_rng(14).normal(size=(6, 6, 4)))
        code = main([
            "filter", str(src), "--out", str(tmp_path / "o.nii"), "--filter", "mean",
            "--mode", "2d", "--support", "3",
        ])
        assert code == 0
        assert calls == [FilterConfig("mean", {"support": 3})]

    def test_missing_file(self, tmp_path, capsys):
        code = main([
            "filter", str(tmp_path / "absent.nii"), "--out", str(tmp_path / "o.nii"),
            "--filter", "mean", "--support", "3",
        ])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_mixed_units_hard_error(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        src = tmp_path / "in.nii"
        _write_volume(src, rng.normal(size=(8, 8, 4)))
        code = main([
            "filter", str(src), "--out", str(tmp_path / "o.nii"), "--filter", "gabor",
            "--mode", "2d", "--sigma-mm", "5.0", "--lambda-vox", "1.0",
        ])
        assert code == 1
        assert "mixes physical and voxel units" in capsys.readouterr().err

    def test_oversized_gabor_bank_fails_cleanly(self, tmp_path, monkeypatch, capsys):
        # 64001^2 complex taps, 61 GiB; the kernel builder is stubbed to refuse,
        # so a missing check fails here instead of allocating
        def refuse(params):
            raise AssertionError("a Gabor kernel was built")

        monkeypatch.setattr(voxfilt.pipeline, "gabor_kernel", refuse)
        src = tmp_path / "in.nii"
        _write_volume(src, np.zeros((6, 6, 4)))
        code = main([
            "filter", str(src), "--out", str(tmp_path / "o.nii"), "--filter", "gabor",
            "--mode", "2d", "--sigma-vox", "8000", "--lambda-vox", "3",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gabor filter sigma and gamma give 1 x 64001 x 64001 "
                              "complex taps") and err.count("\n") == 1, err
        assert not (tmp_path / "o.nii").exists()

    def test_irrelevant_flag_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        src = tmp_path / "in.nii"
        _write_volume(src, rng.normal(size=(6, 6, 6)))
        code = main([
            "filter", str(src), "--out", str(tmp_path / "o.nii"), "--filter", "mean",
            "--support", "3", "--sigma-mm", "1.0",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: mean filter has unknown key --sigma-mm; expected one of [--support] "
            "(--sigma-mm applies to: log, gabor)\n")

    def test_wavelet_rotinv_runs(self, tmp_path):
        rng = np.random.default_rng(4)
        src = tmp_path / "in.nii"
        _write_volume(src, rng.normal(size=(8, 8, 8)))
        out = tmp_path / "out.nii.gz"
        code = main([
            "filter", str(src), "--out", str(out), "--filter", "wavelet",
            "--wavelet", "db3", "--level", "1", "--subband", "LLH", "--rotinv",
        ])
        assert code == 0
        response, _ = read_nifti(out)
        assert response.dims == (8, 8, 8)

    def test_decimated_halves_dims_and_doubles_spacing(self, tmp_path):
        rng = np.random.default_rng(5)
        src = tmp_path / "in.nii"
        _write_volume(src, rng.normal(size=(8, 8, 8)))
        out = tmp_path / "out.nii"
        code = main([
            "filter", str(src), "--out", str(out), "--filter", "wavelet",
            "--wavelet", "db2", "--level", "1", "--subband", "LLL", "--decimated",
        ])
        assert code == 0
        response, _ = read_nifti(out)
        assert response.dims == (4, 4, 4)
        assert response.spacing == (4.0, 4.0, 4.0)

    def test_decimated_wavelet_only(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        src = tmp_path / "in.nii"
        _write_volume(src, rng.normal(size=(8, 8, 8)))
        code = main([
            "filter", str(src), "--out", str(tmp_path / "o.nii"), "--filter", "mean",
            "--support", "3", "--decimated",
        ])
        assert code == 1
        assert "wavelet" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,owners", [
        (["--filter", "log", "--sigma-vox", "1", "--support", "3"],
         "log filter has unknown key --support; expected one of [--sigma-mm, --sigma-vox, "
         "--cutoff] (--support applies to: mean)"),
        (["--filter", "mean", "--support", "3", "--pool", "max"],
         "mean filter has unknown key --pool; expected one of [--support] "
         "(--pool applies to: laws, gabor, wavelet)"),
    ], ids=["support-on-log", "pool-on-mean"])
    def test_unknown_parameter_names_the_kinds_taking_it(self, tmp_path, capsys,
                                                         argv, owners):
        src = tmp_path / "in.nii"
        _write_volume(src, np.random.default_rng(15).normal(size=(6, 6, 6)))
        code = main(["filter", str(src), "--out", str(tmp_path / "o.nii"), *argv])
        assert code == 1
        assert capsys.readouterr().err == f"error: {owners}\n"
        assert not (tmp_path / "o.nii").exists()

    @pytest.mark.parametrize("argv,flags", [
        (["--filter", "wavelet", "--level", "1", "--subband", "LLL"],
         "wavelet filter is missing key --wavelet"),
        (["--filter", "riesz", "--wavelet", "simoncelli", "--level", "1"],
         "riesz filter is missing key --riesz"),
    ], ids=["wavelet-family", "riesz-index"])
    def test_missing_parameter_names_its_flag(self, tmp_path, capsys, argv, flags):
        src = tmp_path / "in.nii"
        _write_volume(src, np.random.default_rng(19).normal(size=(6, 6, 6)))
        code = main(["filter", str(src), "--out", str(tmp_path / "o.nii"), *argv])
        assert code == 1
        assert capsys.readouterr().err == f"error: {flags}\n"
        assert not (tmp_path / "o.nii").exists()

    def test_switched_parameter_is_required_only_with_its_switch(self, tmp_path, capsys):
        # --dtheta is needed with --rotinv and refused without it
        src = tmp_path / "in.nii"
        _write_volume(src, np.random.default_rng(22).normal(size=(6, 6, 6)))
        gabor = ["filter", str(src), "--out", str(tmp_path / "o.nii"), "--filter", "gabor",
                 "--mode", "2d", "--sigma-vox", "1", "--lambda-vox", "2"]
        assert main([*gabor, "--rotinv"]) == 1
        assert capsys.readouterr().err == ("error: gabor filter is missing key --dtheta "
                                           "(required with --rotinv)\n")
        assert not (tmp_path / "o.nii").exists()
        assert main(gabor) == 0
        assert ", theta 0.0, rotation_invariance false; kernel size" in capsys.readouterr().err

    def test_decimated_logs_its_plan_before_the_transform(self, tmp_path, capsys,
                                                          monkeypatch):
        events = []
        original_log, original_dwt = voxfilt.cli._log, voxfilt.pipeline.dwt_decimated

        def logging(message):
            events.append(("log", message))
            original_log(message)

        def transform(*args, **kwargs):
            events.append(("dwt", None))
            return original_dwt(*args, **kwargs)

        monkeypatch.setattr(voxfilt.cli, "_log", logging)
        monkeypatch.setattr(voxfilt.pipeline, "dwt_decimated", transform)
        src = tmp_path / "in.nii"
        _write_volume(src, np.random.default_rng(16).normal(size=(8, 8, 8)))
        code = main([
            "filter", str(src), "--out", str(tmp_path / "o.nii"), "--filter", "wavelet",
            "--wavelet", "haar", "--level", "2", "--subband", "LLH", "--decimated",
        ])
        assert code == 0
        summary = ("wavelet filter: mode 3d, boundary mirror, wavelet haar, level 2, subband LLH, "
                   "rotation_invariance false, decimated true; decimated by 4 per axis")
        assert events == [("log", summary), ("dwt", None)]
        assert summary in capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("extra,message", [
        (["--rotinv"], "no rotation-invariant form"),
        (["--rotinv", "--pool", "max"], "no rotation-invariant form"),
        (["--pool", "max"], "wavelet filter key --pool applies only with --rotinv; drop it"),
        (["--sigma-mm", "3"], "wavelet filter has unknown key --sigma-mm; expected one of "
                              "[--wavelet, --level, --subband, --rotinv, --pool, --decimated] "
                              "(--sigma-mm applies to: log, gabor)"),
        (["--mode", "2d"], "use mode 3d"),
    ], ids=["rotinv", "rotinv-pool", "pool", "sigma-mm", "mode-2d"])
    def test_decimated_rejects_other_options_before_logging(self, tmp_path, capsys,
                                                            extra, message):
        src = tmp_path / "in.nii"
        _write_volume(src, np.random.default_rng(17).normal(size=(8, 8, 8)))
        out = tmp_path / "o.nii"
        code = main([
            "filter", str(src), "--out", str(out), "--filter", "wavelet", "--wavelet", "haar",
            "--level", "1", "--subband", "LLL", "--decimated", *extra,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "wavelet filter:" not in err
        assert not out.exists()

    @pytest.mark.parametrize("level", [1, 2])
    def test_decimated_matches_library_transform(self, tmp_path, level):
        spacing = (1.0, 1.5, 2.5)
        src = tmp_path / "in.nii"
        data = _write_volume(src, np.random.default_rng(18).normal(size=(8, 12, 4)), spacing)
        out = tmp_path / "o.nii"
        code = main([
            "filter", str(src), "--out", str(out), "--filter", "wavelet", "--wavelet", "db2",
            "--level", str(level), "--subband", "HLH", "--decimated", "--datatype", "f64",
        ])
        assert code == 0
        response, _ = read_nifti(out)
        expected = dwt_decimated(data, "db2", level, "HLH", "mirror")
        assert response.data.shape == expected.shape
        assert response.data.tobytes() == np.asfortranarray(expected).tobytes()
        assert response.spacing == tuple(s * 2**level for s in spacing)

    def test_bad_riesz_string(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        src = tmp_path / "in.nii"
        _write_volume(src, rng.normal(size=(6, 6, 6)))
        code = main([
            "filter", str(src), "--out", str(tmp_path / "o.nii"), "--filter", "riesz",
            "--wavelet", "simoncelli", "--level", "1", "--riesz", "0;2;0",
        ])
        assert code == 1
        assert "comma-separated integers" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [["none"], ["riesz", "--wavelet", "simoncelli",
                                                 "--level", "1"]], ids=lambda k: k[0])
    def test_empty_riesz_string(self, tmp_path, capsys, kind):
        # a given --riesz is parsed even when empty, not dropped as if absent
        src = tmp_path / "in.nii"
        _write_volume(src, np.random.default_rng(7).normal(size=(6, 6, 6)))
        out = tmp_path / "o.nii"
        code = main(["filter", str(src), "--out", str(out), "--filter", *kind, "--riesz", ""])
        assert code == 1
        assert "comma-separated integers" in capsys.readouterr().err
        assert not out.exists()

    def test_gabor_on_anisotropic_grid_fails_before_logging(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        src = tmp_path / "in.nii"
        _write_volume(src, rng.normal(size=(6, 6, 6)), spacing=(1.0, 1.0, 2.0))
        code = main([
            "filter", str(src), "--out", str(tmp_path / "o.nii"), "--filter", "gabor",
            "--mode", "3d", "--sigma-vox", "2", "--lambda-vox", "3",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "needs isotropic voxel spacing" in err
        assert "gabor filter:" not in err
        assert not (tmp_path / "o.nii").exists()

    def test_flag_values_are_read_as_in_a_configuration_file(self, tmp_path, capsys):
        # any case and integral floats, as a YAML file may give them; argparse's
        # choices and int types used to reject these with exit 2
        src = tmp_path / "in.nii"
        _write_volume(src, np.random.default_rng(20).normal(size=(8, 8, 8)))
        written = []
        for argv in (["wavelet", "--wavelet", "db2", "--level", "1", "--mode", "3d",
                      "--boundary", "mirror", "--pool", "max"],
                     ["WAVELET", "--wavelet", "DB2", "--level", "1.0", "--mode", "3D",
                      "--boundary", "Mirror", "--pool", "MAX"]):
            out = tmp_path / f"o{len(written)}.nii"
            assert main(["filter", str(src), "--out", str(out), "--subband", "LLH", "--rotinv",
                         "--filter", *argv]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        summaries = capsys.readouterr().err.splitlines()
        assert summaries[0] == summaries[1] == (
            "wavelet filter: mode 3d, boundary mirror, wavelet db2, level 1, subband LLH, "
            "rotation_invariance true, pool max, decimated false; pooled over rotations "
            "(40 one-axis passes)")

    @pytest.mark.parametrize("argv,summary", [
        (["--filter", "wavelet", "--wavelet", "DB2", "--level", "1", "--subband", "LLH"],
         "wavelet filter: mode 3d, boundary mirror, wavelet db2, level 1, subband LLH, "),
        (["--filter", "nonseparable", "--wavelet", "simoncelli", "--level", "1"],
         "nonseparable filter: mode 3d, boundary mirror, wavelet simoncelli, level 1; "),
    ], ids=["wavelet", "nonseparable"])
    def test_wavelet_flag_sets_each_kinds_wavelet(self, tmp_path, capsys, argv, summary):
        src = tmp_path / "in.nii"
        _write_volume(src, np.random.default_rng(23).normal(size=(8, 8, 8)))
        out = tmp_path / "o.nii"
        assert main(["filter", str(src), "--out", str(out), *argv]) == 0
        assert capsys.readouterr().err.startswith(summary)
        assert out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["--filter", "mean", "--support", "3.5"],
         "error: mean filter support must be an integer, got 3.5\n"),
        (["--filter", "mean", "--support", "3", "--mode", "4d"],
         "error: mode must be one of ('2d', '3d'), got '4d'\n"),
        (["--filter", "bogus"], "error: filter kind must be one of ('none', "),
    ], ids=["support", "mode", "filter"])
    def test_bad_flag_value_exits_1_naming_its_key(self, tmp_path, capsys, argv, message):
        src = tmp_path / "in.nii"
        _write_volume(src, np.random.default_rng(21).normal(size=(6, 6, 6)))
        out = tmp_path / "o.nii"
        assert main(["filter", str(src), "--out", str(out), *argv]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_filter_flags_and_parameters_map_one_to_one(self):
        # every filter parameter is settable by a flag of the filter-parameter
        # group, and every flag there sets the same one filter parameter
        # whatever --filter names
        from voxfilt.pipeline import FILTER_KINDS, FILTER_PARAMETERS

        parser = voxfilt.cli._build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        (group,) = (g for g in sub.choices["filter"]._action_groups
                    if g.title.startswith("filter parameters"))

        def gathered(*argv):
            args = parser.parse_args(["filter", "in.nii", "-o", "out.nii", *argv])
            return set(voxfilt.cli._gather_filter_params(args))

        reached = set()
        for action in group._group_actions:
            value = [] if action.nargs == 0 else [action.choices[0] if action.choices else "1"]
            gathers = {frozenset(gathered("--filter", kind, action.option_strings[0], *value))
                       for kind in FILTER_KINDS}
            assert len(gathers) == 1, action.option_strings
            (params,) = gathers
            assert len(params) == 1 and params <= set(FILTER_PARAMETERS), action.option_strings
            reached |= params
        assert reached == set(FILTER_PARAMETERS)
        assert set(voxfilt.cli._FLAG_OF) == {"l", "rotation_invariance"}

    @pytest.mark.parametrize("flag", ["--via=spatial", "--undecimated", "--orthogonal-planes",
                                      "--boundary-constant=0"])
    def test_removed_flags_rejected(self, tmp_path, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "filter", str(tmp_path / "in.nii"), "--out", str(tmp_path / "o.nii"),
                "--filter", "log", "--sigma-vox", "1", flag,
            ])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_orientation_carried_to_response(self, tmp_path):
        import struct

        rng = np.random.default_rng(8)
        src = tmp_path / "in.nii"
        _write_volume(src, rng.normal(size=(6, 6, 6)))
        raw = bytearray(src.read_bytes())
        struct.pack_into("<2h", raw, 252, 0, 1)
        struct.pack_into("<4f", raw, 280, -2.0, 0.0, 0.0, 5.0)
        src.write_bytes(bytes(raw))
        out = tmp_path / "out.nii"
        code = main([
            "filter", str(src), "--out", str(out), "--filter", "mean", "--support", "3",
        ])
        assert code == 0
        _, view = read_nifti(out)
        assert struct.unpack_from("<2h", view.orientation, 0) == (0, 1)


class TestFeaturesCommand:
    def _fixture(self, tmp_path):
        rng = np.random.default_rng(9)
        src = tmp_path / "in.nii"
        data = _write_volume(src, rng.normal(size=(6, 6, 6)))
        membership = np.zeros((6, 6, 6))
        membership[1:5, 1:5, 1:5] = 1.0
        mask = tmp_path / "mask.nii"
        _write_volume(mask, membership, datatype="u8")
        return src, mask, data, membership.astype(bool)

    def test_csv_output(self, tmp_path, capsys):
        src, mask, data, member = self._fixture(tmp_path)
        out = tmp_path / "features.csv"
        code = main([
            "features", str(src), "--mask", str(mask), "--out", str(out),
            "--test-id", "1.A",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "test_id,ibsi_id,name,value,value_3sig"
        assert len(lines) == 1 + 5 + 18
        mean_row = [l for l in lines if ",Q4LE,mean," in l][0]
        assert mean_row.split(",")[3] == repr(float(np.mean(data[member])))

    def test_json_output(self, tmp_path):
        src, mask, _, _ = self._fixture(tmp_path)
        out = tmp_path / "features.json"
        assert main(["features", str(src), "--mask", str(mask), "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 23
        assert {"test_id", "ibsi_id", "name", "value", "value_3sig"} <= set(rows[0])

    def test_mask_on_another_grid_rejected(self, tmp_path, capsys):
        src, mask, _, _ = self._fixture(tmp_path)
        _write_volume(mask, np.ones((6, 6, 6)), spacing=(1.0, 1.0, 1.0), datatype="u8")
        out = tmp_path / "features.csv"
        assert main(["features", str(src), "--mask", str(mask), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "spacing (1.0, 1.0, 1.0)" in err
        assert "spacing (2.0, 2.0, 2.0)" in err
        assert not out.exists()


class TestCompareCommand:
    def test_pass_and_fail(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(6, 6, 6))
        a = tmp_path / "a.nii"
        b = tmp_path / "b.nii"
        c = tmp_path / "c.nii"
        _write_volume(a, data)
        _write_volume(b, data)
        shifted = data.copy()
        shifted[3, 3, 3] += 1.0
        _write_volume(c, shifted)

        assert main(["compare", str(a), str(b), "--tolerance", "1e-6"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["compare", str(a), str(c), "--tolerance", "1e-6"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_relative_allowance(self, tmp_path, capsys):
        a = tmp_path / "a.nii"
        b = tmp_path / "b.nii"
        _write_volume(a, np.full((4, 4, 4), 100.0))
        _write_volume(b, np.full((4, 4, 4), 101.0))
        assert main(["compare", str(a), str(b), "--tolerance", "1e-6"]) == 1
        capsys.readouterr()
        assert main([
            "compare", str(a), str(b), "--tolerance", "1e-6", "--relative", "0.02",
        ]) == 0

    @pytest.mark.parametrize("flags", [["--tolerance", "nan"],
                                       ["--tolerance", "0", "--relative", "nan"]])
    def test_nan_tolerance_rejected(self, tmp_path, capsys, flags):
        # a map compared with itself must not FAIL under a tolerance of NaN
        a = tmp_path / "a.nii"
        _write_volume(a, np.full((4, 4, 4), 1.0))
        assert main(["compare", str(a), str(a)] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tolerances must be non-negative\n"


class TestConsensusCommand:
    def test_report(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(5, 5, 5))
        paths = []
        for i in range(3):
            path = tmp_path / f"team{i}.nii"
            _write_volume(path, base + 1e-6 * rng.normal(size=base.shape))
            paths.append(str(path))
        far = tmp_path / "team3.nii"
        _write_volume(far, base + 50.0)
        paths.append(str(far))

        out = tmp_path / "report.json"
        code = main(["consensus", *paths, "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "OUTLIER" in printed
        report = json.loads(out.read_text())
        assert report["level"] == "moderate"
        assert report["valid"] is True
        assert [row["outlier"] for row in report["submissions"]] == [
            False, False, False, True,
        ]
        assert all(set(row) == {"path", "distance", "outlier"} for row in report["submissions"])


class TestRunCommand:
    def _fixture(self, tmp_path, mode="2d"):
        rng = np.random.default_rng(12)
        data = rng.normal(loc=-100.0, scale=250.0, size=(10, 10, 6))
        src = tmp_path / "ct.nii"
        _write_volume(src, data)
        membership = np.zeros((10, 10, 6))
        membership[2:8, 2:8, 1:5] = 1.0
        mask = tmp_path / "mask.nii"
        _write_volume(mask, membership, datatype="u8")
        config = tmp_path / "config.yaml"
        config.write_text(
            "test_id: T\n"
            f"mode: {mode}\n"
            "boundary: mirror\n"
            "resegment_hu: [-1000, 400]\n"
            "filter:\n"
            "  kind: mean\n"
            "  support: 3\n"
        )
        return src, mask, config

    def test_outputs_written(self, tmp_path, capsys):
        src, mask, config = self._fixture(tmp_path)
        out_dir = tmp_path / "results"
        code = main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "T_response.nii.gz").exists()
        assert (out_dir / "T_features.csv").exists()
        assert (out_dir / "T_features.json").exists()
        response, _ = read_nifti(out_dir / "T_response.nii.gz")
        assert response.dims == (10, 10, 6)
        lines = (out_dir / "T_features.csv").read_text().splitlines()
        assert lines[0] == "test_id,ibsi_id,name,value,value_3sig"
        assert all(line.startswith("T,") for line in lines[1:])

    def test_threads_do_not_change_bytes(self, tmp_path):
        src, mask, config = self._fixture(tmp_path)
        first = tmp_path / "r1"
        second = tmp_path / "r2"
        assert main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(first), "--threads", "1",
        ]) == 0
        assert main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(second), "--threads", "4",
        ]) == 0
        for name in ("T_response.nii.gz", "T_features.csv", "T_features.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_logs_plan_on_resampled_grid(self, tmp_path, capsys):
        src, mask, _ = self._fixture(tmp_path)
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "3.B.yaml")
        code = main([
            "run", config, "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert ("log filter: mode 3d, boundary mirror, sigma_vox 1.5, cutoff 4.0; kernel size "
                "13, separable route (7 one-axis passes)") in err.splitlines()

    def test_logs_pooling_of_laws_filter(self, tmp_path, capsys):
        src, mask, _ = self._fixture(tmp_path)
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "4.B.yaml")
        code = main([
            "run", config, "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert ("laws filter: mode 3d, boundary mirror, kernels L5E5E5, rotation_invariance "
                "true, pool max, energy_delta 7; pooled over rotations (11 one-axis passes)") in err

    # Parameters that are wrong whatever the image: each must stop the run
    # before the plan is logged or the image is resampled.
    _BAD_FILTERS = {
        "laws-pool": ({"kind": "laws", "kernels": "L5E5E5", "rotation_invariance": True,
                       "pool": "maximum"}, "pool must be one of"),
        "wavelet-subband": ({"kind": "wavelet", "wavelet": "db2", "level": 1,
                             "subband": "LLX"}, "subband"),
        "wavelet-level": ({"kind": "wavelet", "wavelet": "db2", "level": 0,
                           "subband": "LLH"}, "level must be >= 1"),
        "nonseparable-level": ({"kind": "nonseparable", "wavelet": "simoncelli",
                                "level": 0}, "level must be >= 1"),
        "riesz-order-0": ({"kind": "riesz", "wavelet": "simoncelli", "level": 1,
                           "l": [0, 0, 0]}, "order"),
        "riesz-negative": ({"kind": "riesz", "wavelet": "simoncelli", "level": 1,
                            "l": [0, -1, 3]}, "non-negative"),
        "gabor-pool": ({"kind": "gabor", "sigma_mm": 2.0, "lambda_mm": 2.0,
                        "rotation_invariance": True, "dtheta": math.pi / 4,
                        "pool": "median"}, "pool must be one of"),
        "laws-energy-delta": ({"kind": "laws", "kernels": "L5E5E5", "energy_delta": -2},
                              "energy_delta"),
        "laws-string-flag": ({"kind": "laws", "kernels": "L5E5E5",
                              "rotation_invariance": "false"}, "true or false"),
        # integer parameters: a fraction or a bool is not silently truncated
        "mean-fractional-support": ({"kind": "mean", "support": 3.7}, "must be an integer"),
        "mean-bool-support": ({"kind": "mean", "support": True}, "must be an integer"),
        "wavelet-fractional-level": ({"kind": "wavelet", "wavelet": "db2", "level": 1.5,
                                      "subband": "LLH"}, "must be an integer"),
        "nonseparable-fractional-level": ({"kind": "nonseparable", "wavelet": "simoncelli",
                                           "level": 1.5}, "must be an integer"),
        "riesz-fractional-level": ({"kind": "riesz", "wavelet": "simoncelli", "level": 2.5,
                                    "l": [0, 2, 0]}, "must be an integer"),
        "riesz-fractional-index": ({"kind": "riesz", "wavelet": "simoncelli", "level": 1,
                                    "l": [0, 1.5, 0]}, "must be an integer"),
        "laws-fractional-delta": ({"kind": "laws", "kernels": "L5E5E5", "energy_delta": 1.5},
                                  "must be an integer"),
        # parameters that their switch would ignore
        "gabor-theta-rotinv": ({"kind": "gabor", "sigma_mm": 2.0, "lambda_mm": 2.0,
                                "rotation_invariance": True, "dtheta": math.pi / 4,
                                "theta": 0.3},
                               "gabor filter key 'theta' applies only without "
                               "'rotation_invariance'; drop it"),
        "gabor-dtheta-alone": ({"kind": "gabor", "sigma_mm": 2.0, "lambda_mm": 2.0,
                                "dtheta": math.pi / 4},
                               "gabor filter key 'dtheta' applies only with "
                               "'rotation_invariance'; drop it"),
        "gabor-pool-alone": ({"kind": "gabor", "sigma_mm": 2.0, "lambda_mm": 2.0,
                              "pool": "max"},
                             "gabor filter key 'pool' applies only with "
                             "'rotation_invariance'; drop it"),
        "laws-pool-alone": ({"kind": "laws", "kernels": "L5E5E5", "pool": "average"},
                            "laws filter key 'pool' applies only with "
                            "'rotation_invariance'; drop it"),
        "wavelet-pool-alone": ({"kind": "wavelet", "wavelet": "db2", "level": 1,
                                "subband": "LLH", "pool": "max",
                                "rotation_invariance": False},
                               "wavelet filter key 'pool' applies only with "
                               "'rotation_invariance'; drop it"),
        "riesz-tensor-mm-alone": ({"kind": "riesz", "wavelet": "simoncelli", "level": 1,
                                   "l": [0, 2, 0], "sigma_tensor_mm": 1.0},
                                  "riesz filter key 'sigma_tensor_mm' applies only with "
                                  "'align'; drop it"),
        "riesz-tensor-vox-alone": ({"kind": "riesz", "wavelet": "simoncelli", "level": 1,
                                    "l": [0, 2, 0], "align": False, "sigma_tensor_vox": 1.0},
                                   "riesz filter key 'sigma_tensor_vox' applies only with "
                                   "'align'; drop it"),
        # float parameters: a bool or a string is not read as a number
        "log-bool-sigma": ({"kind": "log", "sigma_mm": True}, "sigma_mm must be a number"),
        "log-string-cutoff": ({"kind": "log", "sigma_mm": 2.0, "cutoff": "3"},
                              "cutoff must be a number"),
        "gabor-bool-gamma": ({"kind": "gabor", "sigma_mm": 2.0, "lambda_mm": 2.0,
                              "gamma": True},
                             "gamma must be a number"),
        # kernels past the 65535-tap cap, named by the keys that size them
        "log-width": ({"kind": "log", "sigma_vox": 9000},
                      "log filter sigma and cutoff give a kernel wider than 65535 taps"),
        "gabor-width": ({"kind": "gabor", "sigma_vox": 6000, "lambda_vox": 3.0, "gamma": 1.5},
                        "gabor filter sigma and gamma give a kernel wider than 65535 taps"),
        "riesz-width": ({"kind": "riesz", "wavelet": "simoncelli", "level": 1, "l": [0, 2, 0],
                         "align": True, "sigma_tensor_vox": 9000},
                        "riesz filter sigma_tensor give a kernel wider than 65535 taps"),
        # the Gabor layout, which 3-D mode decides, is no key
        "gabor-orthogonal-planes": ({"kind": "gabor", "sigma_vox": 2.0, "lambda_vox": 3.0,
                                     "orthogonal_planes": True},
                                    "gabor filter has unknown key 'orthogonal_planes'"),
        # the wavelet filter names its wavelet as every other kind does
        "wavelet-family": ({"kind": "wavelet", "family": "db3", "level": 1, "subband": "LLH"},
                           "wavelet filter has unknown key 'family'"),
        # a tensor scale that the smoothing cannot use
        "riesz-tensor-mm-zero": ({"kind": "riesz", "wavelet": "simoncelli", "level": 1,
                                  "l": [0, 2, 0], "align": True, "sigma_tensor_mm": 0},
                                 "sigma_tensor_mm must be a positive finite number"),
        "riesz-tensor-vox-negative": ({"kind": "riesz", "wavelet": "simoncelli", "level": 1,
                                       "l": [0, 2, 0], "align": True, "sigma_tensor_vox": -1},
                                      "sigma_tensor_vox must be a positive finite number"),
    }

    @pytest.mark.parametrize("case", sorted(_BAD_FILTERS))
    def test_bad_filter_parameter_fails_before_logging(self, tmp_path, monkeypatch, capsys,
                                                       case):
        block, message = self._BAD_FILTERS[case]
        filt = FilterConfig(block["kind"], {k: v for k, v in block.items() if k != "kind"})
        with pytest.raises(ValueError, match=message):
            plan_filter(filt, (2.0, 2.0, 2.0), "3d")
        calls = []
        monkeypatch.setattr(voxfilt.pipeline, "resample_image", lambda *a: calls.append(a))
        src, mask, config = self._fixture(tmp_path)
        config.write_text(yaml.safe_dump({
            "test_id": "T", "mode": "3d", "resample": {"spacing_mm": [1.0, 1.0, 1.0]},
            "filter": block,
        }))
        code = main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1, err
        assert "filter:" not in err
        assert calls == [] and not (tmp_path / "r").exists()

    # Non-finite and degenerate filter values: each names its key before the plan is
    # logged or the image is resampled (they used to overflow, divide by zero, fail
    # to convert NaN to an integer, or plan a "wavelength nan" filter).
    _RIESZ = {"kind": "riesz", "wavelet": "simoncelli", "level": 1, "l": [0, 2, 0],
              "align": True}
    _GABOR = {"kind": "gabor", "sigma_vox": 2.0, "lambda_vox": 3.0}
    _NON_FINITE = {
        "log-sigma-inf": ({"kind": "log", "sigma_mm": math.inf}, "sigma_mm"),
        "log-sigma-tiny": ({"kind": "log", "sigma_mm": 1e-300}, "sigma_mm"),
        "log-sigma-nan": ({"kind": "log", "sigma_mm": math.nan}, "sigma_mm"),
        "log-cutoff-inf": ({"kind": "log", "sigma_mm": 2.0, "cutoff": math.inf}, "cutoff"),
        "riesz-tensor-nan": ({**_RIESZ, "sigma_tensor_vox": math.nan}, "sigma_tensor_vox"),
        "riesz-tensor-inf": ({**_RIESZ, "sigma_tensor_vox": math.inf}, "sigma_tensor_vox"),
        "gabor-lambda-nan": ({**_GABOR, "lambda_vox": math.nan}, "lambda_vox"),
        "gabor-theta-nan": ({**_GABOR, "theta": math.nan}, "theta"),
        "gabor-gamma-inf": ({**_GABOR, "gamma": math.inf}, "gamma"),
        "gabor-dtheta-tiny": ({**_GABOR, "rotation_invariance": True, "dtheta": 1e-300},
                              "dtheta"),
        "wavelet-level-huge": ({"kind": "wavelet", "wavelet": "haar", "level": 1e300,
                                "subband": "LLH"}, "level"),
    }

    @pytest.mark.parametrize("case", sorted(_NON_FINITE))
    def test_non_finite_value_fails_before_logging(self, tmp_path, monkeypatch, capsys, case):
        calls = []
        monkeypatch.setattr(voxfilt.pipeline, "resample_image", lambda *a: calls.append(a))
        block, key = self._NON_FINITE[case]
        src, mask, config = self._fixture(tmp_path)
        config.write_text(yaml.safe_dump({"test_id": "T", "mode": "3d",
                                          "resample": {"spacing_mm": [1.0, 1.0, 1.0]},
                                          "filter": block}))
        code = main(["run", str(config), "--image", str(src), "--mask", str(mask),
                     "--out-dir", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert key in err and "filter:" not in err
        assert calls == [] and not (tmp_path / "r").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--filter", "log", "--sigma-vox", "nan"],
         "log filter sigma_vox must be a positive finite number, got nan"),
    ], ids=["sigma-vox"])
    def test_filter_rejects_nan_before_logging(self, tmp_path, capsys, flags, message):
        src, _, _ = self._fixture(tmp_path)
        out = tmp_path / "o.nii"
        assert main(["filter", str(src), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_spacing_count_checked_before_logging(self, tmp_path, capsys):
        src, mask, config = self._fixture(tmp_path)
        _write_volume(src, np.random.default_rng(19).normal(size=(8, 8, 8)))
        _write_volume(mask, np.ones((8, 8, 8)), datatype="u8")
        config.write_text(yaml.safe_dump({
            "test_id": "T", "mode": "3d", "resample": {"spacing_mm": [1, 1]},
            "filter": {"kind": "log", "sigma_mm": 1.0},
        }))
        code = main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "one entry per image axis (3)" in err
        assert "log filter:" not in err
        assert not (tmp_path / "r").exists()

    def test_decimated_wavelet_rejected_by_run(self, tmp_path, capsys):
        src, mask, config = self._fixture(tmp_path)
        config.write_text(yaml.safe_dump({
            "test_id": "T", "mode": "3d",
            "filter": {"kind": "wavelet", "wavelet": "haar", "level": 1, "subband": "LLL",
                       "decimated": True},
        }))
        code = main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "run it with voxfilt filter" in err
        assert "filter:" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["filter", "run"])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_bad_thread_count_fails_before_reading(self, tmp_path, monkeypatch, capsys,
                                                   command, threads):
        src, mask, _ = self._fixture(tmp_path)
        ran = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                ran.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(voxfilt.cli, "read_nifti",
                            recording("read_nifti", voxfilt.cli.read_nifti))
        monkeypatch.setattr(voxfilt.pipeline, "resample_image",
                            recording("resample_image", voxfilt.pipeline.resample_image))
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "3.B.yaml")
        argv = {
            "filter": ["filter", str(src), "--out", str(tmp_path / "o.nii"),
                       "--filter", "mean", "--support", "3"],
            "run": ["run", config, "--image", str(src), "--mask", str(mask),
                    "--out-dir", str(tmp_path / "r")],
        }[command]
        assert main(argv + ["--threads", threads]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --threads must be a positive integer, got {threads}\n"
        assert ran == []
        assert not (tmp_path / "r").exists() and not (tmp_path / "o.nii").exists()

    @pytest.mark.parametrize("dims, spacing, grid", [
        ((10, 10, 6), (1.0, 1.0, 1.0), "dims (10, 10, 6) and spacing (1.0, 1.0, 1.0)"),
        ((10, 10, 5), (2.0, 2.0, 2.0), "dims (10, 10, 5) and spacing (2.0, 2.0, 2.0)"),
    ], ids=["spacing", "dims"])
    def test_mask_on_another_grid_fails_before_planning(self, tmp_path, capsys, dims,
                                                        spacing, grid):
        src, mask, config = self._fixture(tmp_path)
        _write_volume(mask, np.ones(dims), spacing=spacing, datatype="u8")
        code = main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"has {grid} mm" in err
        assert "the image has dims (10, 10, 6) and spacing (2.0, 2.0, 2.0) mm" in err
        assert "filter:" not in err
        assert not (tmp_path / "r").exists()

    def test_run_plans_once(self, tmp_path, monkeypatch):
        src, mask, _ = self._fixture(tmp_path)
        plans = []
        original = voxfilt.pipeline.plan_filter

        def counting(*args, **kwargs):
            plans.append(args[0].kind)
            return original(*args, **kwargs)

        monkeypatch.setattr(voxfilt.pipeline, "plan_filter", counting)
        monkeypatch.setattr(voxfilt.cli, "plan_filter", counting)
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "3.B.yaml")
        assert main(["run", config, "--image", str(src), "--mask", str(mask),
                     "--out-dir", str(tmp_path / "r")]) == 0
        assert plans == ["log"]

    @pytest.mark.parametrize("block", [
        "resample:\n  rounding: true\n",
        "resample: [1.0, 1.0, 1.0]\n",
        "resample:\n  spacing_mm: null\n  image_interpolation: trilinear\n",
        "resample:\n  spacing_mm: null\n  mask_threshold: 0.25\n",
    ])
    def test_malformed_resample_block_fails_cleanly(self, tmp_path, capsys, block):
        src, mask, config = self._fixture(tmp_path)
        config.write_text("test_id: T\nmode: 3d\n" + block + "filter:\n  kind: none\n")
        code = main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the resample block")
        assert "Traceback" not in err

    @pytest.mark.parametrize("block,key", [
        ("resample:\n  spacing_mm: 1.0\n", "spacing_mm"),
        ("resegment_hu: -1000\n", "resegment_hu"),
        ("resample:\n  spacing_mm: [1, 1, 1]\n  mask_threshold: true\n", "mask_threshold"),
        ("resample:\n  spacing_mm: [.nan, 1, 1]\n", "spacing_mm"),
        ("resample:\n  spacing_mm: [1, .inf, 1]\n", "spacing_mm"),
        ("resegment_hu: [.nan, 400]\n", "resegment_hu"),
        ("resegment_hu: [-1000, .nan]\n", "resegment_hu"),
        # beyond float32, write_nifti's struct.pack raised OverflowError at the end
        ("resample:\n  spacing_mm: [1.0e+39, 1, 1]\n", "spacing_mm"),
    ], ids=["scalar-spacing", "scalar-range", "bool-threshold", "nan-spacing", "inf-spacing",
            "nan-low", "nan-high", "float32-overflow-spacing"])
    def test_malformed_config_value_fails_cleanly(self, tmp_path, capsys, block, key):
        src, mask, config = self._fixture(tmp_path)
        config.write_text("test_id: T\nmode: 3d\n" + block + "filter:\n  kind: none\n")
        code = main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key} must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    @pytest.mark.parametrize("text,where", [
        ("test_id: T\nmode: 3d\nfilter:\n  kind: mean\n  support: [3\n", "line 6, column 1"),
        ("test_id: T\nmode: 3d\nfilter: kind: mean\n", "line 3, column 13"),
        ("test_id: T\nmode: 3d\nfilter:\n  kind: *mean\n", "line 4, column 9"),
    ], ids=["unclosed-list", "nested-mapping", "undefined-alias"])
    def test_yaml_syntax_error_fails_cleanly(self, tmp_path, monkeypatch, capsys, loader,
                                             text, where):
        # yaml's own errors used to escape main as a traceback
        if not hasattr(yaml, loader):
            pytest.skip(f"PyYAML was built without {loader}")
        monkeypatch.setattr(voxfilt.pipeline, "_YAML_LOADER", getattr(yaml, loader))
        src, mask, config = self._fixture(tmp_path)
        config.write_text(text)
        code = main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: configuration file {config} is not valid YAML: ")
        assert err.endswith(f" at {where}\n") and err.count("\n") == 1, err
        assert not (tmp_path / "r").exists()

    def test_grid_beyond_nifti_dims_fails_cleanly(self, tmp_path, capsys):
        # numpy used to fail allocating the grid with an error naming no key
        src, mask, config = self._fixture(tmp_path)
        config.write_text("test_id: T\nmode: 3d\nresample:\n  spacing_mm: [1.0e-30, 2, 2]\n"
                          "filter:\n  kind: none\n")
        code = main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: resampling dims (10, 10, 6) from spacing "
                                  "(2.0, 2.0, 2.0) mm to (1e-30, 2.0, 2.0) mm gives dims (")
        assert err[-1].endswith("more than the 32767 voxels per axis NIfTI-1 can store")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("text,key,got", [
        ("mode: null\nfilter:\n  kind: none\n", "mode", "None"),
        ("mode: 2\nfilter:\n  kind: none\n", "mode", "2"),
        ("mode: 3d\nfilter:\n  kind: 7\n", "filter kind", "7"),
    ], ids=["null-mode", "int-mode", "int-kind"])
    def test_config_value_is_named_as_yaml_wrote_it(self, tmp_path, capsys, text, key, got):
        # str(mode).lower() used to report null as 'none' and 2 as '2'
        src, mask, config = self._fixture(tmp_path)
        config.write_text("test_id: T\n" + text)
        code = main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be one of (") and err.count("\n") == 1, err
        assert err.endswith(f"), got {got}\n"), err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("offset,field", [(80, "pixdim[1]"), (108, "vox_offset")])
    def test_non_finite_header_fails_cleanly(self, tmp_path, capsys, offset, field):
        src, mask, _ = self._fixture(tmp_path)
        raw = bytearray(src.read_bytes())
        struct.pack_into("<f", raw, offset, float("inf"))
        src.write_bytes(bytes(raw))
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "3.B.yaml")
        code = main([
            "run", config, "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("offset,value,field", [
        (80, -2.0, "pixdim[1] -2.0 is negative"),
        (116, float("inf"), "scl_inter inf is not finite"),
    ], ids=["pixdim", "scl_inter"])
    def test_misread_header_fields_fail_cleanly(self, tmp_path, capsys, offset, value, field):
        src, mask, _ = self._fixture(tmp_path)
        raw = bytearray(src.read_bytes())
        struct.pack_into("<f", raw, offset, value)
        src.write_bytes(bytes(raw))
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "1.A.yaml")
        code = main([
            "run", config, "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("test_id", ["../escaped", "sub/T", "sub\\T", ".", "..", "a\0b"])
    def test_test_id_cannot_leave_out_dir(self, tmp_path, monkeypatch, capsys, test_id):
        src, mask, config = self._fixture(tmp_path)
        config.write_text(yaml.safe_dump({"test_id": test_id, "mode": "3d",
                                          "filter": {"kind": "none"}}))
        reads = []
        monkeypatch.setattr(voxfilt.cli, "read_nifti", lambda *a, **k: reads.append(a))
        before = sorted(tmp_path.rglob("*"))
        code = main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: test_id ") and "path separator" in err
        assert reads == []
        assert sorted(tmp_path.rglob("*")) == before

    def test_null_test_id_names_the_files_run(self, tmp_path, capsys):
        src, mask, config = self._fixture(tmp_path)
        config.write_text("test_id:\nmode: 3d\nfilter:\n  kind: none\n")
        assert main(["run", str(config), "--image", str(src), "--mask", str(mask),
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert sorted(os.listdir(tmp_path / "out")) == [
            "run_features.csv", "run_features.json", "run_response.nii.gz"]

    @pytest.mark.parametrize("test_id", ["1.10", "7", "true"])
    def test_non_string_test_id_asks_for_quotes(self, tmp_path, monkeypatch, capsys, test_id):
        src, mask, config = self._fixture(tmp_path)
        config.write_text(f"test_id: {test_id}\nmode: 3d\nfilter:\n  kind: none\n")
        reads = []
        monkeypatch.setattr(voxfilt.cli, "read_nifti", lambda *a, **k: reads.append(a))
        assert main(["run", str(config), "--image", str(src), "--mask", str(mask),
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: test_id must be a string") and "quotes" in err
        assert reads == [] and not (tmp_path / "out").exists()

    def test_scalar_riesz_index_fails_cleanly(self, tmp_path, capsys):
        src, mask, config = self._fixture(tmp_path)
        config.write_text("test_id: T\nmode: 2d\nfilter:\n  kind: riesz\n"
                          "  wavelet: simoncelli\n  level: 1\n  l: 2\n")
        assert main(["run", str(config), "--image", str(src), "--mask", str(mask),
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: riesz index l must be a list of integers, got 2\n"

    def test_removed_boundary_constant_key_fails_before_any_work(self, tmp_path, monkeypatch,
                                                                 capsys):
        # the constant boundary pads with zeros, so the key is refused even at 0
        calls = []
        monkeypatch.setattr(voxfilt.pipeline, "resample_image", lambda *a: calls.append(a))
        src, mask, config = self._fixture(tmp_path)
        config.write_text(yaml.safe_dump({"test_id": "T", "mode": "3d", "boundary": "constant",
                                          "boundary_constant": 0.0,
                                          "resample": {"spacing_mm": [1.0, 1.0, 1.0]},
                                          "filter": {"kind": "mean", "support": 3}}))
        code = main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "unknown key 'boundary_constant'" in err
        assert calls == [] and not (tmp_path / "r").exists()

    def test_misspelt_config_key_fails_cleanly(self, tmp_path, capsys):
        src, mask, config = self._fixture(tmp_path)
        config.write_text(
            "test_id: T\nmode: 3d\nresegment_HU: [-1000, 400]\nfilter:\n  kind: none\n"
        )
        code = main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "did you mean 'resegment_hu'?" in err
        assert not (tmp_path / "r").exists()

    def test_logs_boundary_of_fourier_domain_filter(self, tmp_path, capsys):
        src, mask, _ = self._fixture(tmp_path)
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "8.B.yaml")
        code = main([
            "run", config, "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert ("nonseparable filter: mode 3d, boundary mirror, wavelet simoncelli, level 1; "
                "Fourier-domain route, applied boundary periodise") in err

    def test_empty_roi_fails_cleanly(self, tmp_path, capsys):
        src, mask, config = self._fixture(tmp_path)
        config.write_text(
            "test_id: T\nmode: 3d\nresegment_hu: [90000, 90001]\n"
            "filter:\n  kind: none\n"
        )
        code = main([
            "run", str(config), "--image", str(src), "--mask", str(mask),
            "--out-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        assert "empty ROI" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["filter", "run"])
    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_invalid_env_var_fails_cleanly(self, tmp_path, monkeypatch, capsys, command,
                                           value):
        src, mask, config = self._fixture(tmp_path)
        monkeypatch.setenv("VOXFILT_THREADS", value)
        argv = {
            "filter": ["filter", str(src), "--out", str(tmp_path / "o.nii"),
                       "--filter", "mean", "--support", "3"],
            "run": ["run", str(config), "--image", str(src), "--mask", str(mask),
                    "--out-dir", str(tmp_path / "r")],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: VOXFILT_THREADS must be a positive integer")
        assert "Traceback" not in err
        assert main(argv + ["--threads", "2"]) == 0


class TestParser:
    def test_two_calls_build_the_parser_once_and_share_no_arguments(self, tmp_path, capsys):
        voxfilt.cli._build_parser.cache_clear()
        assert main(["phantom", "noise", "--seed", "3", "-o", str(tmp_path / "a.nii")]) == 0
        # a --seed left over from the first call would make this an error
        assert main(["phantom", "impulse", "-o", str(tmp_path / "b.nii")]) == 0
        info = voxfilt.cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert capsys.readouterr().err == ""
        first = voxfilt.cli._build_parser().parse_args(["phantom", "noise", "--seed", "3",
                                                        "-o", "a.nii"])
        second = voxfilt.cli._build_parser().parse_args(["phantom", "impulse", "-o", "b.nii"])
        assert first is not second and first.seed == 3 and second.seed is None


class TestThreadDefaults:
    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("VOXFILT_THREADS", "3")
        assert _default_threads() == 3

    @pytest.mark.parametrize("value", ["lots", "0", "-2", ""])
    def test_invalid_env_var_rejected(self, monkeypatch, value):
        monkeypatch.setenv("VOXFILT_THREADS", value)
        with pytest.raises(ValueError, match="VOXFILT_THREADS must be a positive integer"):
            _default_threads()

    def test_unset_default_is_one(self, monkeypatch):
        monkeypatch.delenv("VOXFILT_THREADS", raising=False)
        assert _default_threads() == 1
