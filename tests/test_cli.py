"""End-to-end tests of the command line interface.

Everything runs in-process through cli.main so exit codes and stdout are
asserted directly; one test shells out to the installed entry point.
"""

import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import capft
from capft import calibration, dataio, flight
from capft.cli import main
from capft.sensor_model import (CdcConfig, DriftModel, PillarModel, SensorGeometry, SensorParams,
                                 default_sensor_params)
from test_json_inputs import INPUTS, JSON_VALUES, as_json, key_paths, with_edit


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


def run_cli_guarded(args, seconds=30.0, address_space=None, **env):
    """The CLI in a child process, killed (TimeoutExpired) if it outlives the guard
    and, given address_space, unable to map more than that many bytes; env adds to
    or overrides this process's environment."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    path = [str(Path(capft.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run([sys.executable, "-m", "capft.cli", *args], capture_output=True,
                          text=True, timeout=seconds,
                          preexec_fn=None if address_space is None else cap_memory,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env))


@contextlib.contextmanager
def within_seconds(seconds):
    """Fail the test if the block is still running after seconds (wall clock)."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def edited_sensor_params(tmp_path, section, key, value):
    """A sensor parameter file: the defaults with one field replaced."""
    params = asdict(default_sensor_params())
    params[section][key] = value
    path = tmp_path / "sensor.json"
    path.write_text(json.dumps(params))
    return path


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
    scenario = asdict(dataio.full_range_scenario(seed=0))
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

    def test_stale_log_in_out_is_data_error(self, tmp_path, capsys, monkeypatch):
        # calibrate trains on every trial_*.csv in a directory, so a run with
        # fewer trials must not leave an earlier run's extra logs beside its own
        out = tmp_path / "st"
        args = ["generate", "--duration", "0.1", "--out", str(out)]
        assert main([*args, "--trials", "4", "--seed", "3"]) == 0
        before = {p: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(dataio, "generate_trial", lambda *a: pytest.fail(
                "a trial was simulated before the stale log was found"))
            assert main([*args, "--trials", "2", "--seed", "9"]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {out / 'trial_02.csv'} is not a log of "
                                             "this run; remove it or choose another --out"]
        assert captured.out == "" and {p: p.read_bytes() for p in out.iterdir()} == before
        # a run that declares every log in --out replaces them all
        assert main([*args, "--trials", "4", "--seed", "9"]) == 0
        assert json.loads((out / "manifest.json").read_text())["base_seed"] == 9
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in before)
        assert all((out / "trial_00.csv").read_bytes() != data for data in before.values())

    def test_jobs_do_not_change_output(self, tmp_path):
        args = ["generate", "--trials", "3", "--duration", "2.0", "--seed", "4"]
        a, b = tmp_path / "serial", tmp_path / "parallel"
        assert main(args + ["--jobs", "1", "--out", str(a)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()

    def test_generate_logs_pinned(self, tmp_path):
        # the logs' bytes, fixed across commits: a faster writer must not move them
        assert main(["generate", "--trials", "2", "--duration", "2", "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        files = json.loads((tmp_path / "manifest.json").read_text())["files"]
        assert files == {
            "tare.csv": "f61eecadff9ead6c8d1958477a85d84bdd4a2546b6fc13f6290fafd3534cf140",
            "trial_00.csv": "f0ec23152bbbafc7f3dd61ffdd6c487a93e51227ffb56c409d757c1be419a8c2",
            "trial_01.csv": "74cc1a5fb0ccc903495a08c28f8b5154d66fe391b6e16705b588cf1f8a87dbac"}
        for name, digest in files.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_zero_trials_is_usage_error(self, tmp_path, capsys):
        rc = main(["generate", "--trials", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert "trials" in capsys.readouterr().err

    def test_non_integer_trials_is_usage_error_naming_the_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["generate", "--trials", "abc", "--out", str(out)]) == 2
        assert "argument --trials: expected an integer from 1 to 100, got 'abc'" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_trial_ceiling_keeps_the_held_out_trial_last(self, tmp_path, capsys):
        # calibrate holds out the last trial log in name order; at 101 trials
        # trial_100.csv would sort before trial_11.csv and hide the last one
        out = tmp_path / "out"
        args = ["generate", "--duration", "0.05", "--out", str(out)]
        assert main([*args, "--trials", "101"]) == 2
        assert "argument --trials: expected an integer from 1 to 100, got '101'" \
            in capsys.readouterr().err
        assert not out.exists()
        assert main([*args, "--trials", "100"]) == 0
        report = tmp_path / "report.json"
        assert main(["calibrate", str(out), "--model", str(tmp_path / "model.json"),
                     "--report", str(report)]) == 0
        assert json.loads(report.read_text())["test_trial"] == "full_range_99"

    def test_huge_trial_count_is_usage_error_before_any_path(self, tmp_path):
        # one output path per trial: 1e9 of them would need far more than the
        # 2 GiB the child may map, so the ceiling must hold before main builds them
        out = tmp_path / "out"
        proc = run_cli_guarded(["generate", "--trials", "1000000000", "--out", str(out)],
                               address_space=2 << 30, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines()[-1] == ("capft generate: error: argument --trials: "
                                                "expected an integer from 1 to 100, "
                                                "got '1000000000'")
        assert not out.exists()

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

    def test_sample_count_above_the_ceiling_is_data_error(self, tmp_path):
        # 1e7 s at 360 Hz would ask generate for about 27 GiB: the child may map
        # 2 GiB, with one BLAS thread, so a missing bound fails fast instead
        out = tmp_path / "out"
        proc = run_cli_guarded(["generate", "--trials", "1", "--duration", "1e7",
                                "--out", str(out)], address_space=2 << 30,
                               OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 3, proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == 1 and "above the ceiling of 1000000" in err[0], proc.stderr
        assert err[0].startswith("error: ")
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
        # a stiffness at zero compression of 0 or inf, which the compression
        # solve divides by: the pillar area underflows, the squat-pillar
        # shape factor overflows
        ("pillars", "radius", 1e-300, "stiffness at zero compression"),
        ("pillars", "radius", 1e300, "stiffness at zero compression"),
        ("pillars", "height", 1e-300, "stiffness at zero compression"),
        ("pillars", "ring_counts", default_sensor_params().pillars.ring_counts[:-1],
         "ring radii and counts must be equal-length, non-empty"),
        ("pillars", "ring_radii", (-1e-3, *default_sensor_params().pillars.ring_radii[1:]),
         "ring radii and counts must be positive"),
        ("drift", "reference_temp", -500.0,
         "DriftModel.reference_temp -500.0 degC is below absolute zero"),
    ])
    def test_bad_sensor_params_is_simulation_error(self, tmp_path, capsys, section, key, value,
                                                   named):
        out = tmp_path / "out"
        rc = main(["generate", "--trials", "1", "--duration", "1.0", "--sensor-params",
                   str(edited_sensor_params(tmp_path, section, key, value)), "--out", str(out)])
        assert rc == 5
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_extreme_temperature_is_simulation_error(self, tmp_path, capsys):
        # 1e200 degC overflows the drift scale; the counts must not wrap to
        # int64's minimum and surface as a data error
        scenario = asdict(dataio.full_range_scenario(duration=1.0))
        scenario["temp_start"] = scenario["temp_end"] = 1e200
        sc_path = tmp_path / "hot.json"
        sc_path.write_text(json.dumps(scenario))
        rc = main(["generate", "--scenario-file", str(sc_path), "--trials", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == 5
        assert "count range" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, code", [
        ("cdc", "gain_counts_per_farad", 1e300, 5),  # counts past int64
        ("geometry", "normal_electrode_area", 1e300, 5),
        ("pillars", "youngs_modulus", 1e-4, 3),  # trial corners beyond the stroke
    ])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failure_leaves_no_out(self, tmp_path, capsys, section, key, value, code, jobs):
        # these fail after --out is made: a directory the command made goes,
        # one that was already there stays
        args = ["generate", "--trials", "1", "--duration", "2", "--jobs", jobs,
                "--sensor-params", str(edited_sensor_params(tmp_path, section, key, value))]
        made = tmp_path / "made"
        assert main([*args, "--out", str(made / "nested" / "out")]) == code
        assert not made.exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main([*args, "--out", str(kept)]) == code
        assert kept.is_dir()
        assert capsys.readouterr().err.count("error:") == 2

    def test_below_absolute_zero_is_data_error(self, tmp_path, capsys):
        scenario = asdict(dataio.full_range_scenario(duration=1.0))
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
        scenario = asdict(dataio.full_range_scenario(duration=0.5))
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
        scenario = asdict(dataio.full_range_scenario(duration=0.5))
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

    def test_missing_tare_is_data_error_and_writes_no_model(self, tmp_path, capsys):
        logs = tmp_path / "logs"
        assert main(["generate", "--trials", "2", "--duration", "0.5", "--seed", "3",
                     "--out", str(logs)]) == 0
        (logs / "tare.csv").unlink()
        capsys.readouterr()
        model_path = tmp_path / "m.json"
        assert main(["calibrate", str(logs), "--model", str(model_path)]) == 3
        assert capsys.readouterr().err == f"error: missing tare.csv in {logs}\n"
        assert not model_path.exists()

    def test_one_trial_is_a_model_error_and_writes_no_model(self, tmp_path, capsys):
        # a tare log and one trial leave nothing to hold out
        logs = tmp_path / "logs"
        assert main(["generate", "--trials", "1", "--duration", "0.5", "--seed", "3",
                     "--out", str(logs)]) == 0
        assert sorted(p.name for p in logs.glob("*.csv")) == ["tare.csv", "trial_00.csv"]
        capsys.readouterr()
        model_path = tmp_path / "m.json"
        rc = main(["calibrate", str(logs), "--model", str(model_path)])
        assert rc == 4
        assert "need at least two trials" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("bad", ["report_dir", "model_dir", "shear_only_dir",
                                     "report_no_parent", "model_no_parent"])
    def test_unwritable_output_writes_nothing(self, noisy_dir, tmp_path, capsys, monkeypatch,
                                              bad):
        # every output path is checked before the first fit, so no model,
        # report or metrics table is left behind
        monkeypatch.setattr(calibration, "fit", lambda *a, **k: pytest.fail(
            "fit ran before the output paths were checked"))
        paths = {"--model": tmp_path / "m.json", "--report": tmp_path / "r.json"}
        flag = "--report" if bad.startswith("report") else "--model"
        if bad.endswith("no_parent"):
            paths[flag] = named = tmp_path / "absent" / paths[flag].name
        else:
            named = tmp_path / ("m_shear_only.json" if bad == "shear_only_dir" else "taken")
            named.mkdir()
            paths[flag] = paths[flag] if bad == "shear_only_dir" else named
        before = sorted(tmp_path.iterdir())
        rc = main(["calibrate", str(noisy_dir), "--mode", "both",
                   "--model", str(paths["--model"]), "--report", str(paths["--report"])])
        assert rc == 3
        captured = capsys.readouterr()
        assert str(named) in captured.err and captured.out == ""
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("clash", [
        "report_is_model", "report_is_shear_only", "report_is_tare", "model_is_trial",
        "model_is_tare", "shear_only_links_to_model", "shear_only_links_to_tare",
        "report_hard_links_to_trial"])
    def test_output_naming_another_path_writes_nothing(self, noisy_dir, tmp_path, capsys,
                                                       clash):
        # an output that names an input, or another output, fails before any
        # fit: the same path, the same resolved path or the same file
        data = tmp_path / "data"
        shutil.copytree(noisy_dir, data)
        model, report = tmp_path / "m.json", tmp_path / "r.json"
        shear_only = tmp_path / "m_shear_only.json"
        if clash == "report_is_model":
            report, other = model, model
        elif clash == "report_is_shear_only":
            report, other = shear_only, shear_only
        elif clash == "report_is_tare":
            report, other = data / "tare.csv", data / "tare.csv"
        elif clash == "model_is_trial":
            model, other = data / "trial_01.csv", data / "trial_01.csv"
        elif clash == "model_is_tare":
            model, other = data / "tare.csv", data / "tare.csv"
        elif clash == "shear_only_links_to_model":
            shear_only.write_text("")
            model.symlink_to(shear_only)
            other = model
        elif clash == "shear_only_links_to_tare":
            shear_only.symlink_to(data / "tare.csv")
            other = data / "tare.csv"
        else:
            os.link(data / "trial_00.csv", report)
            other = data / "trial_00.csv"
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        rc = main(["calibrate", str(data), "--mode", "both",
                   "--model", str(model), "--report", str(report)])
        assert rc == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: output path ")
        assert err[0].endswith(f"names the same file as {other}") and captured.out == ""
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

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

    def test_log_of_only_metadata_is_data_error(self, fitted, tmp_path, capsys):
        log = tmp_path / "meta.csv"
        log.write_text("# name=meta\n# seed=1\n", encoding="utf-8")
        preds = tmp_path / "preds.csv"
        assert main(["evaluate", str(log), "--model", str(fitted / "model.json"),
                     "--predictions", str(preds)]) == 3
        assert capsys.readouterr().err == f"error: {log}: line 3: missing header row\n"
        assert not preds.exists()

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
    def test_non_finite_estimate_is_model_error(self, fitted, noisy_dir, tmp_path, capsys,
                                                predictions):
        out = tmp_path / "preds.csv"
        rc = main(["evaluate", str(noisy_dir / "trial_00.csv"),
                   "--model", str(overflowing_model(fitted, tmp_path)),
                   *(["--predictions", str(out)] if predictions else [])])
        assert rc == 4
        assert "model estimate is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_predictions_fail_before_any_metric(self, fitted, noisy_dir, tmp_path,
                                                            capsys):
        rc = main(["evaluate", str(noisy_dir / "trial_00.csv"),
                   "--model", str(fitted / "model.json"),
                   "--predictions", str(tmp_path / "missing" / "preds.csv")])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "missing" in err[0]

    @pytest.mark.parametrize("clash", ["log", "model", "hard_link_to_log"])
    def test_predictions_naming_an_input_writes_nothing(self, fitted, noisy_dir, tmp_path,
                                                         capsys, clash):
        log, model = tmp_path / "trial.csv", tmp_path / "model.json"
        shutil.copyfile(noisy_dir / "trial_00.csv", log)
        shutil.copyfile(fitted / "model.json", model)
        preds = {"log": log, "model": model, "hard_link_to_log": tmp_path / "preds.csv"}[clash]
        if clash == "hard_link_to_log":
            os.link(log, preds)
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        rc = main(["evaluate", str(log), "--model", str(model), "--predictions", str(preds)])
        assert rc == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        other = model if clash == "model" else log
        assert err == [f"error: output path {preds} names the same file as {other}"]
        assert captured.out == ""
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_applies_the_model_files_compensator(self, fitted, tmp_path, capsys):
        # a log 10 degC off the drift reference, scored by the same model with
        # and without the compensator temp-sweep fits
        params = default_sensor_params()
        log = tmp_path / "hot.csv"
        trial = dataio.generate_trial(replace(
            dataio.full_range_scenario(duration=4.0, seed=8), temp_start=35.0, temp_end=35.0),
            params)
        dataio.write_log(trial, log)
        assert main(["temp-sweep", "--model", str(fitted / "model.json"), "--seed", "3",
                     "--out", str(tmp_path / "sweep")]) == 0
        with_comp = tmp_path / "sweep" / "model_with_comp.json"
        model, comp = calibration.load_model(with_comp)
        assert comp is not None
        capsys.readouterr()

        def force_rmse(model_path, preds):
            assert main(["evaluate", str(log), "--model", str(model_path),
                         "--predictions", str(preds)]) == 0
            table = np.loadtxt(preds, delimiter=",", skiprows=1)
            err = table[:, 7:10] - table[:, 1:4]
            return math.sqrt(np.mean(np.sum(err * err, axis=1))), table[:, 7:13]

        raw_rmse, _ = force_rmse(fitted / "model.json", tmp_path / "raw.csv")
        capsys.readouterr()
        comp_rmse, preds = force_rmse(with_comp, tmp_path / "comp.csv")
        out = capsys.readouterr().out.splitlines()
        assert comp_rmse < raw_rmse
        counts = calibration.compensate_counts(trial.counts, trial.temperature, comp)
        metrics = calibration.evaluate(model, counts, trial.wrench)
        assert out[1:] == ["  " + line for line in metrics.summary_lines()]
        assert comp_rmse == pytest.approx(math.hypot(*metrics.rmse[:3]), rel=1e-12)
        assert np.array_equal(preds, calibration.predict_counts(model, counts).T)

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
        params = asdict(default_sensor_params())
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
        params = asdict(default_sensor_params())
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

    @pytest.mark.parametrize("start, end", [(25.0, 27.0), (30.0, 25.5)])
    @pytest.mark.parametrize("with_model", [False, True], ids=["quick-model", "model"])
    def test_narrow_span_is_data_error_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       fitted, start, end, with_model):
        # the drift fit needs a 5 degC span: checked before the quick model
        # is fitted or the sweep simulated, and blamed on the flags, not a model
        out = tmp_path / "out"
        model = ["--model", str(fitted / "model.json")] if with_model else []
        monkeypatch.setattr(dataio, "generate_trial", lambda *a: pytest.fail(
            "a trial was simulated before the span was checked"))
        rc = main(["temp-sweep", *model, "--temp-start", str(start), "--temp-end", str(end),
                   "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: --temp-start {start!r} and --temp-end {end!r} span less than the "
            "5 degC the drift fit needs"]
        assert captured.out == ""
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
        out = tmp_path / "nomodel"
        rc = main(["fly", "--scenario", "track_sine", "--out", str(out)])
        assert rc == 4
        assert "--model" in capsys.readouterr().err
        assert not out.exists()

    def test_bypass_with_model_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["fly", "--scenario", "track_sine", "--bypass-sensor",
                   "--model", str(tmp_path / "absent.json"), "--out", str(out)])
        assert rc == 2
        err = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert len(err) == 1 and "--model" in err[0] and "--bypass-sensor" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("field, value", NON_FINITE_MODEL)
    def test_non_finite_model_is_model_error(self, fitted, tmp_path, capsys, field, value):
        rc = main(["fly", "--scenario", "track_sine",
                   "--model", str(corrupt_model(fitted, tmp_path, field, value)),
                   "--out", str(tmp_path / "out")])
        assert rc == 4
        assert f"non-finite {field}" in capsys.readouterr().err

    def test_non_finite_estimate_is_model_error(self, fitted, tmp_path, capsys):
        rc = main(["fly", "--scenario", "track_sine",
                   "--model", str(overflowing_model(fitted, tmp_path)),
                   "--out", str(tmp_path / "out")])
        assert rc == 4
        assert "model estimate is not finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unreachable_surface_is_simulation_fault(self, tmp_path, capsys):
        cfg = asdict(flight.default_config("track_sine"))
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
        cfg = asdict(flight.default_config("track_sine"))
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

    @pytest.mark.parametrize("scenario", ["track_sine", "deploy_package"])
    def test_measure_hover_with_nothing_to_average_is_simulation_fault(
            self, tmp_path, capsys, scenario):
        # at 20 Hz the last tick of a 0.5 s measure hover falls at 0.45 s,
        # before the window from 0.5 s on whose sensed force it averages
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": scenario, "measure_time": 0.5}))
        out = tmp_path / "out"
        rc = main(["fly", "--scenario", scenario, "--bypass-sensor",
                   "--config", str(cfg_path), "--out", str(out)])
        assert rc == 5
        assert "measure hover at t=2.0s: no controller tick after the 0.5s settling window " \
            "of measure_time=0.5s" in capsys.readouterr().err
        assert not out.exists()

    def test_config_scenario_mismatch(self, tmp_path):
        cfg = asdict(flight.default_config("deploy_package"))
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

    def test_negative_config_seed_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "track_sine", "seed": -4}))
        rc = main(["fly", "--scenario", "track_sine", "--bypass-sensor",
                   "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "SimConfig.seed must be non-negative, got -4" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    STEPS = "over 10,000,000 plant steps of 0.001 s: lower settle_time, measure_time, " \
        "max_engage_time"
    TICKS = "over 1,000,000 controller ticks at 1000.0 Hz: lower settle_time, measure_time, " \
        "max_engage_time, or control_hz"

    # Each is rejected before flight and leaves no --out behind, under a guard
    # far shorter than the run it would be.
    @pytest.mark.parametrize("config, code, message", [
        # 1 / 5e-324 is inf, so no step count or rate fits the step
        ({"plant_dt": 5e-324}, 2, "SimConfig.plant_dt 5e-324 is too small"),
        # missions whose plant step count overflows a float
        ({"max_engage_time": 1e308}, 2, f"plans 1e+308 s of flight, {STEPS}"),
        ({"settle_time": 1e308}, 2, f"plans 1e+308 s of flight, {STEPS}"),
        # missions of about 1e12 plant steps, which would run for days
        ({"settle_time": 1e9}, 2, STEPS),
        ({"measure_time": 1e9}, 2, STEPS),
        ({"max_engage_time": 1e9}, 2, STEPS),
        # each phase is within its budget, but the presses add up: where the
        # payload never sticks a press takes about 11 simulated seconds, so
        # 100,000 of them would run for about half an hour
        ({"scenario": "deploy_package", "press_forces": [0.7] * 200,
          "env": {"adhesion_threshold": 1e9}}, 2,
         f"plans 13325.5 s of flight, {STEPS} or the number of press_forces, or raise plant_dt"),
        # 9,077 s at 1 kHz: about nine million trace rows, or 7 GB
        ({"control_hz": 1000.0, "settle_time": 9000.0}, 2, f"plans 9077 s of flight, {TICKS}"),
    ], ids=["plant_dt", "max_engage_time", "settle_time", "settle_time_1e9",
            "measure_time_1e9", "max_engage_time_1e9", "press_forces_200",
            "control_hz_1000_settle_time_9000"])
    def test_step_count_overflow_is_reported(self, tmp_path, capsys, config, code, message):
        config = {"scenario": "track_sine", **config}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        with within_seconds(1.0):
            rc = main(["fly", "--scenario", config["scenario"], "--bypass-sensor",
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

    @pytest.mark.parametrize("frequency_hz", [1e308, 2e307])
    def test_overflowing_profile_phase_is_usage_error(self, tmp_path, capsys, frequency_hz):
        # rejected before flight, not as a fault in the engagement's setpoint
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "track_sine",
                                        "profile": {"frequency_hz": frequency_hz}}))
        rc = main(["fly", "--scenario", "track_sine", "--bypass-sensor",
                   "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "SimConfig.profile.frequency_hz" in capsys.readouterr().err
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

    # Bypass flight draws no random numbers and calls no BLAS routine: the
    # controller sums its gain products on Python floats in one fixed order.
    # So these bytes hold for every seed, numpy build and BLAS kernel, gains
    # off the diagonal included.  Sensed flight is not pinned: predict's gemv
    # sums in the BLAS kernel's order.
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


@pytest.fixture(scope="module")
def cli_inputs(fitted, tmp_path_factory):
    """name: (complete data of a JSON input, the command that reads it from a
    path and writes to out), each run short: a 2 s trial or short phases."""
    log = tmp_path_factory.mktemp("short") / "trial.csv"
    dataio.write_log(dataio.generate_trial(dataio.full_range_scenario(duration=2.0, seed=5),
                                           default_sensor_params()), log)
    model = json.loads((fitted / "model.json").read_text())
    model["temp_compensator"] = INPUTS["model"][0]["temp_compensator"]
    config = asdict(flight.default_config("track_sine"))
    config.update(settle_time=0.3, measure_time=0.6)
    config["machine"]["hold_duration"] = 0.5
    return {
        "params": (as_json(asdict(default_sensor_params())), lambda path, out: [
            "generate", "--trials", "1", "--duration", "2", "--sensor-params", path,
            "--out", out]),
        "scenario": (INPUTS["scenario"][0], lambda path, out: [
            "generate", "--trials", "1", "--scenario-file", path, "--out", out]),
        "config": (as_json(config), lambda path, out: [
            "fly", "--scenario", "track_sine", "--bypass-sensor", "--config", path,
            "--out", out]),
        "model": (model, lambda path, out: [
            "evaluate", str(log), "--model", path, "--predictions", out]),
    }


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
            data = asdict(default_sensor_params())
            data["pillars"]["height"] = huge
        elif flag == "--scenario-file":
            data = asdict(dataio.full_range_scenario(duration=1.0))
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
        data = asdict(dataio.full_range_scenario(duration=1.0))
        data[field] = 10 ** 400
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(json_input_command("--scenario-file", path, out)) == 3
        assert f"{field} must lie in" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "fly"])
    def test_pillar_count_too_large_for_a_float(self, tmp_path, capsys, command):
        data = as_json(asdict(default_sensor_params()))
        data["pillars"]["ring_counts"][0] = 10 ** 400
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        argv = json_input_command("--sensor-params", path, out) if command == "generate" \
            else ["fly", "--scenario", "track_sine", "--bypass-sensor", "--sensor-params",
                  str(path), "--out", str(out)]
        assert main(argv) == 5
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: PillarModel.ring_counts total is too large for a float"]
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a\nb", "a\rb", " lead", "trail ", "tab\t", "\ud800"],
                             ids=["newline", "return", "leading", "trailing", "tab", "surrogate"])
    def test_scenario_name_that_breaks_its_log(self, tmp_path, capsys, name):
        # a metadata line must load back as written: one line, stripped, UTF-8
        data = asdict(dataio.full_range_scenario(duration=1.0))
        data["name"] = name
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(json_input_command("--scenario-file", path, out)) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: Scenario.name {name!r} must be")
        assert not out.exists()

    @pytest.mark.parametrize("flag, code, key, value, message", [
        ("--sensor-params", 5, "radius", 1e-300,
         "error: pillar height 0.000127 and radius 1e-300 give a stiffness at zero compression"),
        ("--scenario-file", 3, "band_hz", 5.0, "error: excitation band must lie in (0, 2] Hz"),
        ("--scenario-file", 3, "band_Hz", 1.0,
         "error: bad scenario structure: unknown key 'band_Hz' in Scenario"),
    ], ids=["sensor-range", "scenario-range", "scenario-structure"])
    def test_range_error_keeps_its_own_message(self, tmp_path, capsys, flag, code, key, value,
                                               message):
        # a well-formed file with an out-of-range value is not a structural fault
        if flag == "--sensor-params":
            data = asdict(default_sensor_params())
            data["pillars"][key] = value
        else:
            data = asdict(dataio.full_range_scenario(duration=1.0))
            data[key] = value
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(json_input_command(flag, path, out)) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
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

    @pytest.mark.parametrize("name", ["config", "model", "params", "scenario"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_one_edit_runs_to_a_documented_exit(self, cli_inputs, name, data):
        """One field of an input set to any JSON value: the command that reads
        it exits 0, 2, 3, 4 or 5, prints one error line on failure and leaves
        no output behind."""
        plain, command = cli_inputs[name]
        path = data.draw(st.sampled_from(sorted(key_paths(plain))), label="path")
        edited = with_edit(plain, path, data.draw(JSON_VALUES, label="value"))
        if name == "scenario":
            # a longer trial runs for seconds and takes up to 1 GB at the
            # sample ceiling, which test_sample_count_above_the_ceiling_is_data_error
            # checks under a memory cap
            try:
                samples = dataio.scenario_from_dict(edited).sample_count
            except dataio.ScenarioRangeError:
                samples = 0
            assume(samples <= 36_000)
        if name == "config":
            # the mission ceilings bound an accepted config's run, where a
            # timing would only sample it
            try:
                cfg = flight.config_from_dict(edited)
            except ValueError:
                cfg = None
            if cfg is not None:
                assert cfg.budget_s / cfg.plant_dt <= flight.MAX_MISSION_STEPS
                assert cfg.budget_s * cfg.control_hz <= flight.MAX_MISSION_TICKS
        with tempfile.TemporaryDirectory() as tmp:
            src, out = Path(tmp) / "in.json", Path(tmp) / "out"
            src.write_text(json.dumps(edited))
            err = io.StringIO()
            before = src.read_bytes()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    within_seconds(30.0):  # a hang guard; these runs take under 3 s
                rc = main(command(str(src), str(out)))
            assert rc in (0, 2, 3, 4, 5)
            assert src.read_bytes() == before
            if rc:
                lines = err.getvalue().splitlines()
                assert len([ln for ln in lines if ln.startswith("error: ")]) == 1, lines
                assert not out.exists()


# command: (its arguments, the input flags it reads and the output names it
# declares under --out, or, for a command that names its outputs by flag, the
# logs it reads and the output flags)
DECLARED_FILES = {
    "generate": (["generate", "--trials", "1", "--duration", "0.5"],
                 ["--sensor-params", "--scenario-file"],
                 ["trial_00.csv", "tare.csv", "manifest.json"]),
    "temp-sweep": (["temp-sweep"], ["--model", "--sensor-params"],
                   ["model_with_comp.json", "ablation.csv"]),
    "fly": (["fly", "--scenario", "track_sine"], ["--model", "--config", "--sensor-params"],
            ["trace.csv", "summary.json"]),
    "calibrate": (["calibrate"], ["trial_00.csv", "trial_01.csv", "trial_02.csv", "tare.csv"],
                  ["--model", "--report"]),
    "evaluate": (["evaluate"], ["log", "--model"], ["--predictions"]),
}


class TestDeclaredFiles:
    @pytest.mark.parametrize("command", sorted(DECLARED_FILES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_an_output_naming_an_input_writes_nothing(self, fitted, noisy_dir, command, data):
        """One input of a command at one of the output paths it declares,
        spelled as given or through '..': exit 3 before any work, one error
        line naming both paths, and every file left as it was."""
        argv, inputs, outputs = DECLARED_FILES[command]
        source = data.draw(st.sampled_from(inputs), label="input")
        target = data.draw(st.sampled_from(outputs), label="output")
        detour = data.draw(st.booleans(), label="through ..")
        contents = {
            "--sensor-params": json.dumps(asdict(default_sensor_params())).encode(),
            "--scenario-file": json.dumps(INPUTS["scenario"][0]).encode(),
            "--config": json.dumps(asdict(flight.default_config("track_sine"))).encode(),
            "--model": (fitted / "model.json").read_bytes(),
            "log": (noisy_dir / "trial_00.csv").read_bytes(),
        }
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            if command in ("calibrate", "evaluate"):
                data_dir = root / "data"
                shutil.copytree(noisy_dir, data_dir)
                files = {"log": data_dir / "trial_00.csv", "--model": root / "model.json"}
                files["--model"].write_bytes(contents["--model"])
                path = files.get(source, data_dir / source)
                flags = {"--model": str(root / "m.json"), "--report": str(root / "r.json")}
                if command == "evaluate":
                    argv = [*argv, str(files["log"])]
                    flags = {"--model": str(files["--model"])}
                else:
                    argv = [*argv, str(data_dir)]
                output = path.parent / ".." / path.parent.name / path.name if detour else path
                flags[target] = str(output)
            else:
                out = root / "out"
                out.mkdir()
                output = out / target
                output.write_bytes(contents[source])
                path = root / ".." / root.name / "out" / target if detour else output
                bypass = command == "fly" and source != "--model"
                flags = {source: str(path), "--out": str(out)}
                argv = [*argv, *(["--bypass-sensor"] if bypass else [])]
            before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
            stdout, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err), \
                    within_seconds(60.0):
                rc = main([*argv, *(arg for item in flags.items() for arg in item)])
            assert rc == 3
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert str(output) in lines[0] and str(path) in lines[0]
            assert stdout.getvalue() == ""
            assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before


class TestMisc:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    @pytest.mark.parametrize("command", [
        ["generate", "--trials", "1", "--duration", "0.05"],
        ["temp-sweep"],
        ["fly", "--scenario", "track_sine", "--bypass-sensor"],
    ], ids=["generate", "temp-sweep", "fly"])
    def test_negative_seed_is_usage_error_naming_the_flag(self, tmp_path, capsys, command):
        rc = main([*command, "--seed", "-1", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "argument --seed: expected a non-negative integer, got '-1'" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_params_describe(self, capsys):
        assert main(["params", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "illustrative" in out
        # the schema notes before the JSON defaults are written by hand, so
        # each field of every section must be named there too
        notes = out.split("\n{", 1)[0]
        for cls in (SensorParams, PillarModel, SensorGeometry, DriftModel, CdcConfig):
            for f in fields(cls):
                assert re.search(rf"\b{f.name}\b", notes), f"{cls.__name__}.{f.name}"

    def test_params_output_is_valid_json(self, capsys):
        assert main(["params"]) == 0
        params = json.loads(capsys.readouterr().out)
        loaded = default_sensor_params().from_dict(params)
        assert loaded.hash() == default_sensor_params().hash()

    @pytest.mark.parametrize("command", ["fly", "evaluate", "evaluate --predictions",
                                         "temp-sweep", "evaluate, compensator"])
    def test_overflowing_model_exits_4_with_warnings_as_errors(self, fitted, noisy_dir,
                                                                tmp_path, command):
        # PYTHONWARNINGS=error is python -W error: an overflow warning would
        # be raised as an exception and end the run with exit 1
        out, log = str(tmp_path / "out"), str(noisy_dir / "trial_00.csv")
        argv = {"fly": ["fly", "--scenario", "track_sine", "--out", out],
                "evaluate": ["evaluate", log],
                "evaluate --predictions": ["evaluate", log, "--predictions", out],
                "temp-sweep": ["temp-sweep", "--out", out],
                "evaluate, compensator": ["evaluate", log, "--predictions", out]}[command]
        model = overflowing_model(fitted, tmp_path)
        if command == "evaluate, compensator":
            # a finite model whose compensator's drift overflows at the log's
            # temperature, 1e308 degC from its reference
            payload = json.loads((fitted / "model.json").read_text())
            payload["temp_compensator"] = dict(INPUTS["model"][0]["temp_compensator"],
                                               reference_temp=1e308)
            model.write_text(json.dumps(payload))
        proc = run_cli_guarded(argv + ["--model", str(model)], PYTHONWARNINGS="error")
        assert proc.returncode == 4, proc.stderr
        assert ("temp_compensator drift is not finite at " if command == "evaluate, compensator"
                else "model estimate is not finite") in proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("command", ["generate --out", "temp-sweep --out", "fly --out",
                                         "calibrate --model", "calibrate --report",
                                         "evaluate --predictions"])
    def test_unwritable_output_path_is_data_error(self, fitted, noisy_dir, tmp_path, capsys,
                                                  command):
        # --out names an existing file; the other flags name a directory
        taken_file, taken_dir = tmp_path / "taken.txt", tmp_path / "taken"
        taken_file.write_text("")
        taken_dir.mkdir()
        model, log = str(fitted / "model.json"), str(noisy_dir / "trial_00.csv")
        argv = {
            "generate --out": ["generate", "--trials", "1", "--duration", "1.0",
                               "--out", str(taken_file)],
            "temp-sweep --out": ["temp-sweep", "--model", model, "--out", str(taken_file)],
            "fly --out": ["fly", "--scenario", "track_sine", "--bypass-sensor",
                          "--out", str(taken_file)],
            "calibrate --model": ["calibrate", str(noisy_dir), "--model", str(taken_dir)],
            "calibrate --report": ["calibrate", str(noisy_dir), "--model",
                                   str(tmp_path / "m.json"), "--report", str(taken_dir)],
            "evaluate --predictions": ["evaluate", log, "--model", model,
                                       "--predictions", str(taken_dir)],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "taken" in err[0]

    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("capft")
        assert exe is not None, "console script not installed"
        proc = subprocess.run([exe, "params"], capture_output=True, text=True)
        assert proc.returncode == 0
        json.loads(proc.stdout)
