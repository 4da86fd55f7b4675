"""End-to-end tests of the command line interface.

Everything runs in-process through cli.main so exit codes and stdout are
asserted directly; one test shells out to the installed entry point.
"""

import concurrent.futures
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import capft
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


def overflowing_model(fitted, tmp_path):
    """Copy of the fitted model with every matrix entry 1e307: finite, but
    its estimates overflow."""
    payload = json.loads((fitted / "model.json").read_text())
    payload["matrix"] = [[1e307] * len(row) for row in payload["matrix"]]
    path = tmp_path / "huge_model.json"
    path.write_text(json.dumps(payload))
    return path


def run_cli_guarded(args, seconds=30.0, **env):
    """The CLI in a child process, killed (TimeoutExpired) if it outlives the guard;
    env adds to or overrides this process's environment."""
    path = [str(Path(capft.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run([sys.executable, "-m", "capft.cli", *args], capture_output=True,
                          text=True, timeout=seconds,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env))


# an ASCII locale that Python neither coerces to C.UTF-8 nor overrides with UTF-8 mode
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


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

    def test_extreme_temperature_is_simulation_error(self, tmp_path, capsys):
        # 1e200 degC overflows the drift scale; the counts must not wrap to
        # int64's minimum and surface as a data error
        scenario = dataio.scenario_to_dict(dataio.full_range_scenario(duration=1.0))
        scenario["temp_start"] = scenario["temp_end"] = 1e200
        sc_path = tmp_path / "hot.json"
        sc_path.write_text(json.dumps(scenario))
        rc = main(["generate", "--scenario-file", str(sc_path), "--trials", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == 5
        assert "count range" in capsys.readouterr().err

    def test_below_absolute_zero_is_data_error(self, tmp_path, capsys):
        scenario = dataio.scenario_to_dict(dataio.full_range_scenario(duration=1.0))
        scenario["temp_end"] = -300.0
        sc_path = tmp_path / "cold.json"
        sc_path.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        rc = main(["generate", "--scenario-file", str(sc_path), "--trials", "1",
                   "--out", str(out)])
        assert rc == 3
        assert "Scenario.temp_end -300.0 degC is below absolute zero" in capsys.readouterr().err
        assert not out.exists()

    def test_non_ascii_name_under_ascii_locale(self, tmp_path):
        # logs are UTF-8 whatever the locale: a child under an ASCII locale
        # writes the bytes this process writes
        scenario = dataio.scenario_to_dict(dataio.full_range_scenario(duration=0.5))
        scenario["name"] = "caf\u00e9"
        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json.dumps(scenario, ensure_ascii=False), encoding="utf-8")
        args = ["generate", "--scenario-file", str(sc_path), "--trials", "1", "--seed", "3"]
        utf8, ascii_ = tmp_path / "utf8", tmp_path / "ascii"
        assert main(args + ["--out", str(utf8)]) == 0
        proc = run_cli_guarded(args + ["--out", str(ascii_)], **ASCII_LOCALE)
        assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in utf8.iterdir())
        assert names == sorted(p.name for p in ascii_.iterdir())
        for name in names:
            assert (ascii_ / name).read_bytes() == (utf8 / name).read_bytes(), name
        assert (utf8 / "trial_00.csv").read_bytes().startswith("# name=caf\u00e9_00\n".encode())

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

    def test_non_ascii_name_under_ascii_locale(self, tmp_path):
        # the held-out trial's name is printed escaped, so an ASCII stdout takes it
        scenario = dataio.scenario_to_dict(dataio.full_range_scenario(duration=0.5))
        scenario["name"] = "caf\u00e9"
        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json.dumps(scenario, ensure_ascii=False), encoding="utf-8")
        logs = tmp_path / "logs"
        assert main(["generate", "--scenario-file", str(sc_path), "--trials", "2",
                     "--seed", "3", "--out", str(logs)]) == 0
        model_path = tmp_path / "m.json"
        proc = run_cli_guarded(["calibrate", str(logs), "--model", str(model_path)],
                               **ASCII_LOCALE)
        assert proc.returncode == 0, proc.stderr
        assert "test trial 'caf\\xe9_01':" in proc.stdout
        assert model_path.exists()

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

    @pytest.mark.parametrize("ridge", ["nan", "inf"])
    def test_non_finite_ridge_writes_no_model(self, noisy_dir, tmp_path, capsys, ridge):
        model_path = tmp_path / "m.json"
        rc = main(["calibrate", str(noisy_dir), "--mode", "both", "--ridge", ridge,
                   "--model", str(model_path)])
        assert rc == 4
        assert "ridge must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("predictions", [False, True])
    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_non_finite_estimate_is_model_error(self, fitted, noisy_dir, tmp_path, capsys,
                                                predictions):
        out = tmp_path / "preds.csv"
        rc = main(["evaluate", str(noisy_dir / "trial_00.csv"),
                   "--model", str(overflowing_model(fitted, tmp_path)),
                   *(["--predictions", str(out)] if predictions else [])])
        assert rc == 4
        assert "model estimate is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_log_is_data_error(self, fitted, tmp_path):
        rc = main(["evaluate", str(tmp_path / "absent.csv"),
                   "--model", str(fitted / "model.json")])
        assert rc == 3

    def test_undecodable_log_is_data_error(self, fitted, noisy_dir, tmp_path, capsys):
        lines = (noisy_dir / "trial_00.csv").read_bytes().split(b"\n")
        lines[0] = b"# name=\xff"  # not UTF-8
        log = tmp_path / "bad.csv"
        log.write_bytes(b"\n".join(lines))
        rc = main(["evaluate", str(log), "--model", str(fitted / "model.json")])
        assert rc == 3
        assert f"cannot read log {log}: " in capsys.readouterr().err


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

    @pytest.mark.parametrize("flag", ["--temp-start", "--temp-end"])
    def test_below_absolute_zero_is_data_error(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        rc = main(["temp-sweep", flag, "-300", "--out", str(out)])
        assert rc == 3
        field = flag[2:].replace("-", "_")
        assert f"Scenario.{field} -300.0 degC is below absolute zero" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_non_finite_estimate_is_model_error(self, fitted, tmp_path, capsys):
        rc = main(["fly", "--scenario", "track_sine",
                   "--model", str(overflowing_model(fitted, tmp_path)),
                   "--out", str(tmp_path / "out")])
        assert rc == 4
        assert "model estimate is not finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unreachable_surface_is_simulation_fault(self, tmp_path, capsys):
        cfg = flight.config_to_dict(flight.default_config("track_sine"))
        cfg["env"]["surface_z"] = 3.0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["fly", "--scenario", "track_sine", "--bypass-sensor",
                   "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 5
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, code, message", [
        # the controller never ticks again, so only the plant-step budget ends it
        ("control_hz", 1e-9, 5, "no controller tick since the 2.5s deadline"),
        # tick 1 falls at 1 / 5e-324 = inf: past the budget, not a crash
        ("control_hz", 5e-324, 5, "no controller tick since the 2.5s deadline"),
        # one sensing tick at t=0, then none: the search never sees the surface
        ("sensor_hz", 5e-324, 5, "no contact by t=7.05s"),
        # the sensing loop would never catch up with plant time
        ("sensor_hz", 1e308, 2, "must not exceed 1/plant_dt"),
    ])
    def test_rate_probe_ends_within_guard(self, tmp_path, key, value, code, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "track_sine", key: value}))
        proc = run_cli_guarded(["fly", "--scenario", "track_sine", "--bypass-sensor",
                                "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert proc.returncode == code
        assert message in proc.stderr

    @pytest.mark.parametrize("section, key, value", [
        ("plant", "mass", math.nan),
        ("env", "contact_stiffness", math.nan),
        ("env", "surface_z", math.inf),
        ("machine", "k_i", -math.inf),
        ("gains", "kp_free", [[math.nan, 0.0, 0.0], [0.0, 7.0, 0.0], [0.0, 0.0, 9.0]]),
        ("seq", "lateral", [0.0, math.nan]),
        ("seq", "grace", math.nan),
        ("profile", "amplitude", math.inf),
        (None, "press_forces", [0.7, math.nan]),
        (None, "residual_threshold", math.nan),
        (None, "max_engage_time", math.inf),
    ])
    def test_non_finite_config_is_usage_error(self, tmp_path, capsys, section, key, value):
        cfg = flight.config_to_dict(flight.default_config("track_sine"))
        (cfg if section is None else cfg[section])[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))  # json writes NaN and Infinity tokens
        rc = main(["fly", "--scenario", "track_sine", "--bypass-sensor",
                   "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f".{key} must be finite" in capsys.readouterr().err

    def test_degenerate_command_is_simulation_fault(self, tmp_path, capsys):
        # a retreat far below the start asks for a force with no upward part,
        # after the engagement has run
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "track_sine", "retreat_z": -5.0}))
        out = tmp_path / "out"
        rc = main(["fly", "--scenario", "track_sine", "--bypass-sensor",
                   "--config", str(cfg_path), "--out", str(out)])
        assert rc == 5
        assert "hover at t=18.2s: no commanded attitude: " in capsys.readouterr().err
        assert not out.exists()

    def test_config_scenario_mismatch(self, tmp_path):
        cfg = flight.config_to_dict(flight.default_config("deploy_package"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["fly", "--scenario", "track_sine", "--bypass-sensor",
                   "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 2

    def test_seed_from_config_unless_given(self, fitted, tmp_path):
        # sensed flight draws sensor noise from the seed; bypass flight draws none
        short = {"scenario": "track_sine", "settle_time": 0.3, "measure_time": 0.6,
                 "machine": {"hold_duration": 0.5}}
        plain, seeded = tmp_path / "plain.json", tmp_path / "seeded.json"
        plain.write_text(json.dumps(short))
        seeded.write_text(json.dumps({**short, "seed": 5}))

        def trace(config, *seed):
            out = tmp_path / f"{config.stem}{''.join(seed)}"
            assert main(["fly", "--scenario", "track_sine", "--model",
                         str(fitted / "model.json"), "--config", str(config), *seed,
                         "--out", str(out)]) == 0
            return (out / "trace.csv").read_bytes()

        from_config = trace(seeded)
        assert from_config == trace(plain, "--seed", "5")
        assert from_config != trace(plain)  # seed 0
        assert trace(seeded, "--seed", "7") == trace(plain, "--seed", "7") != from_config

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

    @pytest.mark.parametrize("key, value, message", [
        ("settle_time", -0.1, "SimConfig.settle_time must not be negative"),
        ("measure_time", -1.0, "SimConfig.measure_time must not be negative"),
        ("rms_settle", -0.5, "SimConfig.rms_settle must not be negative"),
        ("residual_threshold", -0.01, "SimConfig.residual_threshold must not be negative"),
        ("max_engage_time", 0.0, "SimConfig.max_engage_time must be positive"),
        ("max_engage_time", -3.0, "SimConfig.max_engage_time must be positive"),
    ])
    def test_bad_mission_duration_is_usage_error(self, tmp_path, capsys, key, value, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "deploy_package", key: value}))
        rc = main(["fly", "--scenario", "deploy_package", "--bypass-sensor",
                   "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, code, message", [
        # 1 / 5e-324 is inf, so no step count or rate fits the step
        ({"plant_dt": 5e-324}, 2, "SimConfig.plant_dt 5e-324 is too small"),
        # deadlines whose plant step count overflows a float
        ({"max_engage_time": 1e308}, 5, "engagement deadline t=1e+308s is too far"),
        ({"settle_time": 1e308}, 5, "hover deadline t=1e+308s is too far"),
    ], ids=["plant_dt", "max_engage_time", "settle_time"])
    def test_step_count_overflow_is_reported(self, tmp_path, capsys, config, code, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "track_sine", **config}))
        rc = main(["fly", "--scenario", "track_sine", "--bypass-sensor",
                   "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("plant_dt", [1e-300, 9e-6])
    def test_tiny_plant_dt_is_usage_error(self, tmp_path, plant_dt):
        # rejected before flight: such a step would run a mission for hours
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "track_sine", "plant_dt": plant_dt}))
        proc = run_cli_guarded(["fly", "--scenario", "track_sine", "--bypass-sensor",
                                "--config", str(cfg_path), "--out", str(tmp_path / "out")],
                               seconds=10.0)
        assert proc.returncode == 2
        assert f"SimConfig.plant_dt {plant_dt!r} is too small" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("forces, message", [
        ([-1.0], "SimConfig.press_forces[0] must be positive, got -1.0"),
        ([0.7, 0.0], "SimConfig.press_forces[1] must be positive, got 0.0"),
    ], ids=["negative", "zero"])
    def test_non_positive_press_force_is_usage_error(self, tmp_path, capsys, forces, message):
        # rejected before flight, not after the first hover phases
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "deploy_package", "press_forces": forces}))
        rc = main(["fly", "--scenario", "deploy_package", "--bypass-sensor",
                   "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # Bypass flight draws no random numbers and calls no BLAS routine, so
    # these bytes hold for every seed and numpy build.  Sensed flight is not
    # pinned: predict's gemv sums in the BLAS kernel's order.
    BYPASS_DIGESTS = {
        "track_sine": (
            "2465c12d5a7e8953189e9d22a051b9d3797d13cd5d3a0626848280a032aeb0b1",
            "ad75db113f8a173753eb79094ed66d24526756e9ae3538c6ce0fdc4e7ca6f1c6",
            "6b039605e9feeeed5addfeb2e8e3543a2ce73295de2bc21a11db919b019e8547"),
        "deploy_package": (
            "78efad860333e333351e62db189750c8c6c5c11c8ccf89ef4085fca8b953bf1b",
            "cb4114ba7b9c07ac9db7404748b38d42674ff754eaef445cb02a53f4779ba024",
            "fd2d5ad3bc72e70ce33c89cb921c5eaea42daf0e4054eafbe1294393bda7afb3"),
    }

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("scenario", sorted(BYPASS_DIGESTS))
    def test_bypass_outputs_pinned(self, tmp_path, capsys, scenario, seed):
        rc = main(["fly", "--scenario", scenario, "--bypass-sensor", "--seed", str(seed),
                   "--out", str(tmp_path)])
        assert rc == 0
        got = tuple(hashlib.sha256(data).hexdigest() for data in (
            (tmp_path / "trace.csv").read_bytes(), (tmp_path / "summary.json").read_bytes(),
            capsys.readouterr().out.encode()))
        assert got == self.BYPASS_DIGESTS[scenario]


def json_input_command(flag, path, out):
    """A CLI run that reads path through flag and writes under out."""
    if flag in ("--sensor-params", "--scenario-file"):
        return ["generate", "--trials", "1", "--duration", "1.0", flag, str(path),
                "--out", str(out)]
    bypass = [] if flag == "--model" else ["--bypass-sensor"]
    return ["fly", "--scenario", "track_sine", *bypass, flag, str(path), "--out", str(out)]


class TestJsonInputs:
    @pytest.mark.parametrize("flag, code", [
        ("--sensor-params", 3), ("--scenario-file", 3), ("--config", 3), ("--model", 4)])
    @pytest.mark.parametrize("content", [None, b'{"name": "\xe9t\xe9"}'],
                             ids=["directory", "latin-1"])
    def test_unreadable_file(self, tmp_path, capsys, flag, code, content):
        path = tmp_path / "in.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        out = tmp_path / "out"
        assert main(json_input_command(flag, path, out)) == code
        assert f"cannot read {path}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, code", [
        ("--sensor-params", 5), ("--scenario-file", 3), ("--config", 2), ("--model", 4)])
    def test_integer_too_large_for_a_float(self, fitted, tmp_path, capsys, flag, code):
        huge = 10 ** 400
        if flag == "--sensor-params":
            data = default_sensor_params().to_dict()
            data["pillars"]["height"] = huge
        elif flag == "--scenario-file":
            data = dataio.scenario_to_dict(dataio.full_range_scenario(duration=1.0))
            data["duration"] = huge
        elif flag == "--config":
            data = {"scenario": "track_sine", "plant": {"mass": huge}}
        else:
            data = json.loads((fitted / "model.json").read_text())
            data["ridge"] = huge
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(json_input_command(flag, path, out)) == code
        assert "too large for a float" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["components", "temp_steps"])
    def test_scenario_count_beyond_the_samples(self, tmp_path, capsys, field):
        data = dataio.scenario_to_dict(dataio.full_range_scenario(duration=1.0))
        data[field] = 10 ** 400
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(json_input_command("--scenario-file", path, out)) == 3
        assert f"{field} must lie in" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_model_format_version_not_the_integer_1(self, fitted, tmp_path, capsys, version):
        data = json.loads((fitted / "model.json").read_text())
        data["format_version"] = version
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(json_input_command("--model", path, out)) == 4
        assert "unsupported model format version" in capsys.readouterr().err
        assert not out.exists()


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
