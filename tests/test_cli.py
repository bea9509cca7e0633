import json
import os
import struct

import numpy as np
import pytest

from voxfilt.cli import _default_threads, main
from voxfilt.image import create_image
from voxfilt.kernels import mean_kernel_1d
from voxfilt.convolve import convolve_separable
from voxfilt.nifti import read_nifti, write_nifti


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
        assert "sigma 2.5 voxels" in err
        assert "kernel size 21" in err

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

    def test_irrelevant_flag_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        src = tmp_path / "in.nii"
        _write_volume(src, rng.normal(size=(6, 6, 6)))
        code = main([
            "filter", str(src), "--out", str(tmp_path / "o.nii"), "--filter", "mean",
            "--support", "3", "--sigma-mm", "1.0",
        ])
        assert code == 1
        assert "unknown parameters" in capsys.readouterr().err

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

    def test_gabor_on_anisotropic_grid_fails_before_logging(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        src = tmp_path / "in.nii"
        _write_volume(src, rng.normal(size=(6, 6, 6)), spacing=(1.0, 1.0, 2.0))
        code = main([
            "filter", str(src), "--out", str(tmp_path / "o.nii"), "--filter", "gabor",
            "--mode", "3d", "--orthogonal-planes", "--sigma-vox", "2", "--lambda-vox", "3",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "needs isotropic voxel spacing" in err
        assert "gabor filter:" not in err
        assert not (tmp_path / "o.nii").exists()

    @pytest.mark.parametrize("flag", ["--via=spatial", "--undecimated"])
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
        assert "log filter: sigma 1.5 voxels, kernel size 13" in err.splitlines()

    @pytest.mark.parametrize("block", [
        "resample:\n  rounding: true\n",
        "resample: [1.0, 1.0, 1.0]\n",
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
        assert ("nonseparable filter: simoncelli B map level 1, "
                "boundary periodise (requested mirror)") in err

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


class TestThreadDefaults:
    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("VOXFILT_THREADS", "3")
        assert _default_threads() == 3

    def test_invalid_env_var_falls_back(self, monkeypatch):
        monkeypatch.setenv("VOXFILT_THREADS", "lots")
        assert _default_threads() == 1

    def test_unset_default_is_one(self, monkeypatch):
        monkeypatch.delenv("VOXFILT_THREADS", raising=False)
        assert _default_threads() == 1
