"""End-to-end tests of the command line interface.

Everything runs in-process through cli.main so exit codes and stdout are
asserted directly; one test shells out to the installed entry point.
"""

import concurrent.futures
import json
import shutil
import subprocess

import numpy as np
import pytest

from capft import calibration, dataio, flight
from capft.cli import main
from capft.sensor_model import default_sensor_params


def read_lines(path):
    return path.read_text().splitlines()


def data_rows(path):
    # metadata lines start with '#', then one header line
    lines = [ln for ln in read_lines(path) if not ln.startswith("#")]
    return lines[1:]


def corrupt_model(fitted, tmp_path, field, value):
    """Copy of the fitted model with the first entry of one field replaced."""
    payload = json.loads((fitted / "model.json").read_text())
    row = payload[field][0] if field == "matrix" else payload[field]
    row[0] = value
    path = tmp_path / "bad_model.json"
    path.write_text(json.dumps(payload))  # json writes NaN and Infinity tokens
    return path


NON_FINITE_MODEL = [("matrix", float("nan")), ("baseline", float("inf"))]


@pytest.fixture(scope="module")
def noisy_dir(tmp_path_factory):
    """Three short default-noise trials plus tare; shared by calibrate tests."""
    out = tmp_path_factory.mktemp("noisy")
    rc = main(["generate", "--scenario", "full_range", "--trials", "3",
               "--duration", "6.0", "--seed", "1", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def fitted(tmp_path_factory, noisy_dir):
    """calibrate --mode both artifacts: model.json, model_shear_only.json, report."""
    out = tmp_path_factory.mktemp("fitted")
    rc = main(["calibrate", str(noisy_dir), "--mode", "both",
               "--model", str(out / "model.json"),
               "--report", str(out / "report.json")])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def protocol_dir(tmp_path_factory):
    """Full-protocol noiseless generation: 11 trials of 35 s at 360 Hz."""
    out = tmp_path_factory.mktemp("protocol")
    scenario = dataio.scenario_to_dict(dataio.full_range_scenario(seed=0))
    scenario["name"] = "clean_full"
    scenario["noise_enabled"] = False
    scenario["drift_enabled"] = False
    sc_path = out / "scenario.json"
    sc_path.write_text(json.dumps(scenario))
    rc = main(["generate", "--scenario-file", str(sc_path), "--trials", "11",
               "--duration", "35.0", "--seed", "77", "--jobs", "2",
               "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def track_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("track")
    rc = main(["fly", "--scenario", "track_sine", "--bypass-sensor",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    return out


class TestGenerate:
    def test_writes_logs_and_manifest(self, noisy_dir):
        names = sorted(p.name for p in noisy_dir.glob("*.csv"))
        assert names == ["tare.csv", "trial_00.csv", "trial_01.csv", "trial_02.csv"]
        manifest = json.loads((noisy_dir / "manifest.json").read_text())
        assert manifest["base_seed"] == 1
        assert manifest["trials"] == 3
        assert sorted(manifest["files"]) == names
        for digest in manifest["files"].values():
            assert len(digest) == 64
            int(digest, 16)

    def test_manifest_hashes_match_files(self, noisy_dir):
        from hashlib import sha256
        manifest = json.loads((noisy_dir / "manifest.json").read_text())
        for name, digest in manifest["files"].items():
            assert sha256((noisy_dir / name).read_bytes()).hexdigest() == digest

    def test_protocol_row_counts(self, protocol_dir):
        trials = sorted(protocol_dir.glob("trial_*.csv"))
        assert len(trials) == 11
        for path in trials:
            assert len(data_rows(path)) == 12600
        # tare is a short rest capture, not a full trial
        assert len(data_rows(protocol_dir / "tare.csv")) == 720

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["generate", "--trials", "2", "--duration", "2.0", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("trial_00.csv", "trial_01.csv", "tare.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path):
        args = ["generate", "--trials", "3", "--duration", "2.0", "--seed", "4"]
        a, b = tmp_path / "serial", tmp_path / "parallel"
        assert main(args + ["--jobs", "1", "--out", str(a)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()

    def test_zero_trials_is_usage_error(self, tmp_path, capsys):
        rc = main(["generate", "--trials", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert "trials" in capsys.readouterr().err

    def test_unknown_scenario_is_usage_error(self, tmp_path):
        rc = main(["generate", "--scenario", "bogus", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("duration", ["inf", "nan", "1e307", "0.001"])
    def test_degenerate_duration_is_data_error(self, tmp_path, capsys, duration):
        # inf and nan are not finite, 1e307 s overflows the sample count and
        # 0.001 s at 360 Hz rounds to zero samples
        out = tmp_path / "out"
        rc = main(["generate", "--trials", "1", "--duration", duration, "--out", str(out)])
        assert rc == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_is_usage_error(self, tmp_path, capsys, jobs):
        rc = main(["generate", "--trials", "1", "--duration", "1.0", "--jobs", jobs,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, named", [
        ("pillars", "height", float("nan"), "height"),
        ("cdc", "noise_sigma_counts", float("nan"), "noise"),
        ("geometry", "eps_pillar", -50.0, "permittivities"),
    ])
    def test_bad_sensor_params_is_simulation_error(self, tmp_path, capsys, section, key, value,
                                                   named):
        params = default_sensor_params().to_dict()
        params[section][key] = value
        p_path = tmp_path / "sensor.json"
        p_path.write_text(json.dumps(params))
        out = tmp_path / "out"
        rc = main(["generate", "--trials", "1", "--duration", "1.0",
                   "--sensor-params", str(p_path), "--out", str(out)])
        assert rc == 5
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_capped_at_log_count(self, tmp_path, monkeypatch):
        # a stand-in pool records its size and runs the jobs in this process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        rc = main(["generate", "--trials", "2", "--duration", "0.5", "--jobs", "64",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert sizes == [3]  # two trials plus the tare log
        assert len(list(tmp_path.glob("*.csv"))) == 3

    def test_out_falls_back_to_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAPFT_OUT", str(tmp_path / "envout"))
        rc = main(["generate", "--trials", "1", "--duration", "1.0", "--seed", "2"])
        assert rc == 0
        assert (tmp_path / "envout" / "trial_00.csv").exists()

    def test_no_out_anywhere_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.delenv("CAPFT_OUT", raising=False)
        rc = main(["generate", "--trials", "1", "--duration", "1.0"])
        assert rc == 2
        assert "CAPFT_OUT" in capsys.readouterr().err


class TestCalibrate:
    def test_both_mode_writes_two_models(self, fitted):
        model, comp = calibration.load_model(fitted / "model.json")
        assert model.mode == "full"
        assert comp is None
        shear, _ = calibration.load_model(fitted / "model_shear_only.json")
        assert shear.mode == "shear_only"
        assert shear.matrix.shape == (6, 16)

    def test_report_structure(self, fitted):
        report = json.loads((fitted / "report.json").read_text())
        assert report["axes"] == ["Fx", "Fy", "Fz", "Mx", "My", "Mz"]
        assert set(report["modes"]) == {"full", "shear_only"}
        for block in report["modes"].values():
            assert len(block["test_rmse"]) == 6
            assert len(block["test_r_squared"]) == 6

    def test_full_beats_shear_only_on_fz(self, fitted):
        report = json.loads((fitted / "report.json").read_text())
        fz = calibration.AXIS_NAMES.index("Fz")
        assert report["modes"]["full"]["test_rmse"][fz] \
            <= report["modes"]["shear_only"]["test_rmse"][fz]

    def test_prints_per_axis_table(self, noisy_dir, tmp_path, capsys):
        rc = main(["calibrate", str(noisy_dir), "--model", str(tmp_path / "m.json")])
        assert rc == 0
        out = capsys.readouterr().out
        for axis in calibration.AXIS_NAMES:
            assert axis in out
        assert "rmse" in out and "R^2" in out

    def test_noiseless_pipeline_quality(self, protocol_dir, tmp_path):
        rc = main(["calibrate", str(protocol_dir),
                   "--model", str(tmp_path / "clean.json"),
                   "--report", str(tmp_path / "clean_report.json")])
        assert rc == 0
        report = json.loads((tmp_path / "clean_report.json").read_text())
        r2 = report["modes"]["full"]["test_r_squared"]
        # Linear axes are essentially exact.  Fz carries the residual of the
        # constant-volume stiffening curve that a quadratic feature set cannot
        # fully absorb, so its ceiling sits lower; see the quality gates below.
        assert r2[0] > 0.9999 and r2[1] > 0.9999
        assert min(r2) > 0.995

    def test_missing_dir_no_partial_model(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        rc = main(["calibrate", str(tmp_path / "nope"), "--model", str(model_path)])
        assert rc == 3
        assert not model_path.exists()
        assert "error" in capsys.readouterr().err

    def test_single_trial_rejected(self, tmp_path, capsys):
        rc = main(["generate", "--trials", "1", "--duration", "1.0",
                   "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        rc = main(["calibrate", str(tmp_path), "--model", str(tmp_path / "m.json")])
        assert rc == 4
        assert "two trials" in capsys.readouterr().err

    def test_too_few_samples_reports_minimum(self, tmp_path, capsys):
        # 0.05 s at 360 Hz leaves 18 training frames, below the 24 features
        rc = main(["generate", "--trials", "2", "--duration", "0.05",
                   "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        rc = main(["calibrate", str(tmp_path), "--model", str(tmp_path / "m.json")])
        assert rc == 4
        assert "at least 24" in capsys.readouterr().err


class TestEvaluate:
    def test_metrics_and_predictions(self, fitted, noisy_dir, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        rc = main(["evaluate", str(noisy_dir / "trial_02.csv"),
                   "--model", str(fitted / "model.json"),
                   "--predictions", str(preds)])
        assert rc == 0
        assert "rmse" in capsys.readouterr().out
        lines = read_lines(preds)
        assert lines[0] == ("t,ref_Fx,ref_Fy,ref_Fz,ref_Mx,ref_My,ref_Mz,"
                            "pred_Fx,pred_Fy,pred_Fz,pred_Mx,pred_My,pred_Mz")
        assert len(lines) == 1 + round(6.0 * 360.0)
        first = [float(v) for v in lines[1].split(",")]
        assert len(first) == 13
        assert np.isfinite(first).all()

    def test_predictions_track_reference(self, fitted, noisy_dir, tmp_path):
        preds = tmp_path / "preds.csv"
        main(["evaluate", str(noisy_dir / "trial_02.csv"),
              "--model", str(fitted / "model.json"), "--predictions", str(preds)])
        table = np.loadtxt(preds, delimiter=",", skiprows=1)
        ref, pred = table[:, 1:7], table[:, 7:13]
        rmse = np.sqrt(np.mean((ref - pred) ** 2, axis=0))
        assert rmse[:3].max() < 1.0
        assert rmse[3:].max() < 5.0  # moments in mN*m

    def test_missing_model_is_model_error(self, noisy_dir, tmp_path):
        rc = main(["evaluate", str(noisy_dir / "trial_00.csv"),
                   "--model", str(tmp_path / "absent.json")])
        assert rc == 4

    @pytest.mark.parametrize("field, value", NON_FINITE_MODEL)
    def test_non_finite_model_is_model_error(self, fitted, noisy_dir, tmp_path, capsys,
                                             field, value):
        rc = main(["evaluate", str(noisy_dir / "trial_00.csv"),
                   "--model", str(corrupt_model(fitted, tmp_path, field, value))])
        assert rc == 4
        assert f"non-finite {field}" in capsys.readouterr().err

    def test_missing_log_is_data_error(self, fitted, tmp_path):
        rc = main(["evaluate", str(tmp_path / "absent.csv"),
                   "--model", str(fitted / "model.json")])
        assert rc == 3


class TestTempSweep:
    def test_default_drift_compensation(self, tmp_path, capsys):
        rc = main(["temp-sweep", "--seed", "5", "--out", str(tmp_path)])
        assert rc == 0
        assert "compensated max" in capsys.readouterr().out
        table = np.loadtxt(tmp_path / "ablation.csv", delimiter=",", skiprows=1)
        t, temp, raw, comp = table.T
        assert comp.max() < 0.4
        # raw error grows with distance from the 25 degC tare point;
        # the hot end reads far worse than the near-reference plateaus
        near_ref = raw[np.abs(temp - 25.0) < 0.5]
        hot = raw[temp >= temp.max() - 0.5]
        assert hot.mean() > 3.0 * max(near_ref.mean(), 0.05)
        assert raw.max() > comp.max()
        model, comp_model = calibration.load_model(tmp_path / "model_with_comp.json")
        assert comp_model is not None

    def test_zero_drift_both_traces_small(self, tmp_path):
        params = default_sensor_params().to_dict()
        params["drift"]["alpha"] = [0.0] * 12
        params["drift"]["beta"] = [0.0] * 12
        p_path = tmp_path / "params.json"
        p_path.write_text(json.dumps(params))
        rc = main(["temp-sweep", "--sensor-params", str(p_path),
                   "--seed", "5", "--out", str(tmp_path)])
        assert rc == 0
        table = np.loadtxt(tmp_path / "ablation.csv", delimiter=",", skiprows=1)
        raw, comp = table[:, 2], table[:, 3]
        assert raw.max() < 0.35
        assert comp.max() < 0.35

    def test_strong_drift_fit_quality(self, tmp_path):
        # 3% per 10 degC on every channel, pure linear
        params = default_sensor_params().to_dict()
        params["drift"]["alpha"] = [0.003] * 12
        params["drift"]["beta"] = [0.0] * 12
        p_path = tmp_path / "params.json"
        p_path.write_text(json.dumps(params))
        rc = main(["temp-sweep", "--sensor-params", str(p_path),
                   "--seed", "5", "--out", str(tmp_path)])
        assert rc == 0
        _, comp = calibration.load_model(tmp_path / "model_with_comp.json")
        assert min(comp.r_squared) > 0.999

    def test_ablation_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["temp-sweep", "--seed", "6", "--out", str(a)]) == 0
        assert main(["temp-sweep", "--seed", "6", "--out", str(b)]) == 0
        assert (a / "ablation.csv").read_bytes() == (b / "ablation.csv").read_bytes()
        assert (a / "model_with_comp.json").read_bytes() \
            == (b / "model_with_comp.json").read_bytes()


class TestFly:
    def test_track_sine_bypass_summary(self, track_run):
        summary = json.loads((track_run / "summary.json").read_text())
        assert summary["scenario"] == "track_sine"
        assert summary["hold_entered"] is True
        assert summary["saturated"] is False
        assert summary["hold_time"] >= 11.9
        assert summary["rms_error"] <= 0.18

    def test_trace_csv_shape(self, track_run):
        lines = read_lines(track_run / "trace.csv")
        assert lines[0] == flight.TRACE_COLUMNS
        assert len(lines) > 300
        widths = {len(ln.split(",")) for ln in lines}
        assert widths == {len(flight.TRACE_COLUMNS.split(","))}

    def test_trace_deterministic(self, track_run, tmp_path):
        rc = main(["fly", "--scenario", "track_sine", "--bypass-sensor",
                   "--seed", "0", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "trace.csv").read_bytes() \
            == (track_run / "trace.csv").read_bytes()
        assert (tmp_path / "summary.json").read_bytes() \
            == (track_run / "summary.json").read_bytes()

    def test_deploy_two_press_story(self, tmp_path):
        rc = main(["fly", "--scenario", "deploy_package", "--bypass-sensor",
                   "--seed", "0", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        res = summary["residuals"]
        weight = 0.095 * 9.81
        assert len(res) == 3
        assert res[0] == pytest.approx(weight, abs=0.02)
        assert res[1] == pytest.approx(weight, abs=0.02)
        assert res[2] < 0.1
        peaks = summary["press_peaks"]
        assert len(peaks) == 2
        assert peaks[0] < 4.0 < peaks[1]
        assert summary["payload_attached"] is False
        assert summary["success"] is True

    def test_full_stack_requires_model(self, tmp_path, capsys):
        rc = main(["fly", "--scenario", "track_sine", "--out", str(tmp_path)])
        assert rc == 4
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", NON_FINITE_MODEL)
    def test_non_finite_model_is_model_error(self, fitted, tmp_path, capsys, field, value):
        rc = main(["fly", "--scenario", "track_sine",
                   "--model", str(corrupt_model(fitted, tmp_path, field, value)),
                   "--out", str(tmp_path / "out")])
        assert rc == 4
        assert f"non-finite {field}" in capsys.readouterr().err

    def test_unreachable_surface_is_simulation_fault(self, tmp_path, capsys):
        cfg = flight.config_to_dict(flight.default_config("track_sine"))
        cfg["env"]["surface_z"] = 3.0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["fly", "--scenario", "track_sine", "--bypass-sensor",
                   "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 5
        assert "error" in capsys.readouterr().err

    def test_config_scenario_mismatch(self, tmp_path):
        cfg = flight.config_to_dict(flight.default_config("deploy_package"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["fly", "--scenario", "track_sine", "--bypass-sensor",
                   "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 2

    def test_zero_duration_gives_header_only_trace(self, tmp_path):
        cfg = {"scenario": "deploy_package", "settle_time": 0.0,
               "measure_time": 0.0, "env": {"payload_mass": 0.0}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["fly", "--scenario", "deploy_package", "--bypass-sensor",
                   "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 0
        lines = read_lines(tmp_path / "trace.csv")
        assert lines == [flight.TRACE_COLUMNS]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["success"] is True


class TestMisc:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_params_describe(self, capsys):
        assert main(["params", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "illustrative" in out
        assert "pillars" in out

    def test_params_output_is_valid_json(self, capsys):
        assert main(["params"]) == 0
        params = json.loads(capsys.readouterr().out)
        loaded = default_sensor_params().from_dict(params)
        assert loaded.hash() == default_sensor_params().hash()

    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("capft")
        assert exe is not None, "console script not installed"
        proc = subprocess.run([exe, "params"], capture_output=True, text=True)
        assert proc.returncode == 0
        json.loads(proc.stdout)
