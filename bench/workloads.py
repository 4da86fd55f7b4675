"""The benchmark's workloads: the CLI commands each runs and the checks its
outputs must pass.  README.md says why each workload exists."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Fixed calibration model for sensor-in-the-loop flight, so calibration
# numerics cannot move the flight workloads.  Made with `capft generate
# --scenario full_range --trials 11 --duration 35 --seed 7` then `capft
# calibrate --mode both` (the full-mode model).
MODEL = Path(__file__).with_name("model.json")
MODEL_SHA256 = "fb431c29f8672fdfc674301f7a1b4b18c383782ea022073d69425564f7a75d31"

TRIALS = 11
TRIAL_ROWS = 35 * 360  # 35 s at 360 Hz
# Tracking-rms ceilings from the acceptance suite (test_09).
TRACK_RMS_LIMIT = {"bypass": 0.18, "sensed": 0.30}


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int, Path], list[tuple[str, list[str]]]]
    # commands whose times are reported as cmd1_s and cmd2_s
    cmd1: str
    cmd2: str
    # per-layer counts a traced run must see as > 0, and as exactly 0
    nonzero: tuple[str, ...]
    zero: tuple[str, ...]
    sensing: str | None = None  # "bypass" or "sensed" for flight workloads


def _calib_commands(seed: int, out: Path) -> list[tuple[str, list[str]]]:
    data, model = out / "data", out / "model.json"
    return [
        ("generate", ["generate", "--scenario", "full_range", "--trials", str(TRIALS),
                      "--duration", "35", "--seed", str(seed), "--jobs", "1",
                      "--out", str(data)]),
        ("calibrate", ["calibrate", str(data), "--mode", "both", "--model", str(model),
                       "--report", str(out / "report.json")]),
        ("evaluate", ["evaluate", str(data / f"trial_{TRIALS - 1:02d}.csv"),
                      "--model", str(model), "--predictions", str(out / "preds.csv")]),
        ("temp_sweep", ["temp-sweep", "--model", str(model), "--seed", str(seed),
                        "--out", str(out / "sweep")]),
    ]


def _flight_commands(sensing: str) -> Callable[[int, Path], list[tuple[str, list[str]]]]:
    source = ["--bypass-sensor"] if sensing == "bypass" else ["--model", str(MODEL)]

    def commands(seed: int, out: Path) -> list[tuple[str, list[str]]]:
        return [(name, ["fly", "--scenario", scenario, *source, "--seed", str(seed),
                        "--out", str(out / scenario)])
                for name, scenario in (("fly_track", "track_sine"),
                                       ("fly_deploy", "deploy_package"))]
    return commands


_FLIGHT_NONZERO = ("flight.step_plant.calls", "controller.ticks", "core.vec3.count")
_BULK = ("sensor_model.sample_trajectory.calls", "dataio.write_log.bytes",
         "dataio.load_log.rows", "calibration.fit.samples")

WORKLOADS = {w.name: w for w in (
    Workload("calib_session", _calib_commands, "generate", "calibrate",
             nonzero=_BULK + ("calibration.predict.calls", "sensor_model.frame.count"),
             zero=("flight.step_plant.calls", "sensor_model.sample.calls",
                   "controller.ticks")),
    Workload("flight_sensed", _flight_commands("sensed"), "fly_track", "fly_deploy",
             nonzero=_FLIGHT_NONZERO + ("sensor_model.sample.calls",
                                        "calibration.predict.calls"),
             zero=_BULK, sensing="sensed"),
    Workload("flight_bypass", _flight_commands("bypass"), "fly_track", "fly_deploy",
             nonzero=_FLIGHT_NONZERO,
             zero=_BULK + ("sensor_model.sample.calls", "calibration.predict.calls",
                           "sensor_model.frame.count"),
             sensing="bypass"),
)}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_inputs(workload: Workload) -> None:
    """Refuse to run sensed flight on a model other than the recorded one."""
    if workload.sensing == "sensed" and sha256_file(MODEL) != MODEL_SHA256:
        raise SystemExit(f"{MODEL} does not match its recorded digest {MODEL_SHA256}")


def _check_generate(out: Path, workload: Workload) -> list[str]:
    data = out / "data"
    files = json.loads((data / "manifest.json").read_text())["files"]
    problems = [] if len(files) == TRIALS + 1 else [f"manifest lists {len(files)} logs"]
    problems += [f"{name} does not match its manifest digest"
                 for name, digest in files.items() if sha256_file(data / name) != digest]
    return problems


def _check_calibrate(out: Path, workload: Workload) -> list[str]:
    modes = json.loads((out / "report.json").read_text())["modes"]
    return [f"{mode} test rmse not finite: {modes[mode]['test_rmse']}"
            for mode in ("full", "shear_only")
            if len(modes[mode]["test_rmse"]) != 6
            or not all(math.isfinite(v) for v in modes[mode]["test_rmse"])]


def _check_evaluate(out: Path, workload: Workload) -> list[str]:
    lines = (out / "preds.csv").read_text().splitlines()
    values = [float(cell) for line in lines[1:] for cell in line.split(",")]
    problems = [] if len(lines) == TRIAL_ROWS + 1 else [f"{len(lines) - 1} prediction rows"]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite prediction")
    return problems


def _check_temp_sweep(out: Path, workload: Workload) -> list[str]:
    rows = [line.split(",") for line in
            (out / "sweep" / "ablation.csv").read_text().splitlines()[1:]]
    raw = max(float(r[2]) for r in rows)
    comp = max(float(r[3]) for r in rows)
    saved = json.loads((out / "sweep" / "model_with_comp.json").read_text())
    problems = [] if "temp_compensator" in saved else ["model lacks temp_compensator"]
    if not comp < raw:
        problems.append(f"compensation did not help: max |F| error {comp} vs raw {raw}")
    return problems


def _check_fly_track(out: Path, workload: Workload) -> list[str]:
    s = json.loads((out / "track_sine" / "summary.json").read_text())
    limit = TRACK_RMS_LIMIT[workload.sensing]
    problems = [] if s["hold_entered"] else ["HOLD never entered"]
    if not s["rms_error"] <= limit:
        problems.append(f"tracking rms {s['rms_error']} N above {limit} N")
    if workload.sensing == "bypass" and s["saturated"]:
        problems.append("thrust saturated")
    return problems


def _check_fly_deploy(out: Path, workload: Workload) -> list[str]:
    s = json.loads((out / "deploy_package" / "summary.json").read_text())
    return [] if s["success"] else [f"deployment failed: {s}"]


_CHECKS = {"generate": _check_generate, "calibrate": _check_calibrate,
           "evaluate": _check_evaluate, "temp_sweep": _check_temp_sweep,
           "fly_track": _check_fly_track, "fly_deploy": _check_fly_deploy}


def check(command: str, out: Path, workload: Workload) -> list[str]:
    """Quality gates on one command's outputs; an empty list means it passed."""
    try:
        return _CHECKS[command](out, workload)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
