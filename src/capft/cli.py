"""Command line front end.

Subcommands cover the full workflow: generate synthetic trials, calibrate
a count-to-wrench model, evaluate it on held-out logs, characterize and
compensate thermal drift, and fly the closed-loop contact missions.

Exit codes: 0 success, 2 usage, 3 data error, 4 model error, 5 simulation
fault.  All outputs are deterministic for a given seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from dataclasses import asdict, replace
from hashlib import sha256
from pathlib import Path
from typing import Sequence

import numpy as np

from . import calibration, dataio, flight
from .calibration import CalibrationError
from .controller import SurfaceNotFoundError
from .core import InputFileError, read_json, write_lines
from .dataio import LogFormatError, ScenarioRangeError
from .flight import SimulationFault
from .sensor_model import CapacitanceFrame, SensorParams, SensorRangeError, default_sensor_params

# trial_00 ... trial_99: two-digit names sort in the order generate writes
# them, so calibrate holds out the last trial generated
MAX_TRIALS = 100

_SCENARIO_BUILDERS = {
    "full_range": dataio.full_range_scenario,
    "small_range": dataio.small_range_scenario,
}


def _child_seed(base: int, index: int) -> int:
    """Stable per-trial seed; independent of how many workers run."""
    return int(np.random.SeedSequence((base, index)).generate_state(1)[0])


def _load_sensor_params(path: str | None) -> SensorParams:
    return default_sensor_params() if path is None else SensorParams.from_dict(read_json(path))


def _sha256_file(path: Path) -> str:
    return sha256(path.read_bytes()).hexdigest()


def _generate_one(scenario: dataio.Scenario, params: SensorParams,
                  out_path: Path) -> tuple[str, str]:
    """Worker for parallel generation; module level so it pickles."""
    dataio.write_log(dataio.generate_trial(scenario, params), out_path)
    return out_path.name, _sha256_file(out_path)


def _integer(wanted: str, low: int, high: float = math.inf):
    """An argparse type for an integer from low to high, so a bad value is a
    usage error naming the flag, raised before main makes any path."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value
    return parse


_seed = _integer("a non-negative integer", 0)


def _given(*paths: str | None) -> list[Path]:
    """The paths of the optional file flags that were given."""
    return [Path(p) for p in paths if p is not None]


def _check_output_files(outputs: Sequence[Path], inputs: Sequence[Path]) -> None:
    """Raise OSError naming the first output path that is a directory, whose
    parent directory does not exist, or that names an input or an earlier
    output (the same resolved path, or the same existing file), so a command
    fails before it writes anything.  Each path is resolved once, so the
    check is linear in the number of paths."""
    first: dict = {}  # a resolved path, or an existing file's (device, inode): its first path
    for i, path in enumerate([*inputs, *outputs]):
        if i >= len(inputs):
            if path.is_dir():
                raise IsADirectoryError(f"output path {path} is a directory")
            if not path.parent.is_dir():
                raise FileNotFoundError(f"parent directory of output path {path} does not exist")
        keys = [path.resolve()]
        if path.exists():
            stat = path.stat()
            keys.append((stat.st_dev, stat.st_ino))
        for key in keys:
            if i >= len(inputs) and key in first:
                raise FileExistsError(f"output path {path} names the same file as {first[key]}")
            first.setdefault(key, path)


def _write_json(path: str | Path, payload: dict) -> None:
    write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


def cmd_generate(args: argparse.Namespace, outputs: Sequence[Path]) -> int:
    params = _load_sensor_params(args.sensor_params)
    if args.scenario_file is not None:
        base = dataio.scenario_from_dict(read_json(args.scenario_file))
    else:
        base = _SCENARIO_BUILDERS[args.scenario](duration=args.duration, seed=args.seed)
    *logs, manifest_path = outputs
    stale = sorted(set(manifest_path.parent.glob("trial_*.csv")).difference(logs))
    if stale:  # calibrate reads every trial log in the directory
        raise FileExistsError(f"{stale[0]} is not a log of this run; remove it or choose "
                              "another --out")
    scenarios = [replace(base, name=f"{base.name}_{i:02d}", seed=_child_seed(args.seed, i))
                 for i in range(args.trials)]
    scenarios.append(dataio.no_load_scenario(seed=_child_seed(args.seed, args.trials)))
    jobs = (scenarios, [params] * len(logs), logs)
    workers = min(args.jobs, len(logs))
    if workers > 1:
        import concurrent.futures  # here, not at the top: it loads logging too
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_generate_one, *jobs))
    else:
        results = list(map(_generate_one, *jobs))
    manifest = {
        "scenario": asdict(base),
        "sensor_params_hash": params.hash(),
        "base_seed": args.seed,
        "trials": args.trials,
        "files": {name: digest for name, digest in sorted(results)},
    }
    _write_json(manifest_path, manifest)
    print(f"wrote {len(results)} logs + manifest to {manifest_path.parent}")
    return 0


def _load_trial_dir(path: Path) -> tuple[list[dataio.Trial], dataio.Trial]:
    trial_files = sorted(path.glob("trial_*.csv"))
    if not trial_files:
        raise LogFormatError(f"no trial_*.csv files in {path}")
    tare_file = path / "tare.csv"
    if not tare_file.exists():
        raise LogFormatError(f"missing tare.csv in {path}")
    return [dataio.load_log(p) for p in trial_files], dataio.load_log(tare_file)


def _training_set(tare_trial: dataio.Trial, train: Sequence[dataio.Trial]) -> tuple:
    """fit's counts, wrenches and baseline: the train trials, tared on the no-load trial."""
    return (np.concatenate([t.counts for t in train]), np.concatenate([t.wrench for t in train]),
            calibration.tare(tare_trial.counts))


def _load_split(path: Path) -> tuple:
    """calibrate's training counts, wrenches, baseline and held-out trial; the parsed
    training logs are freed when it returns, before any fit."""
    trials, tare_trial = _load_trial_dir(path)
    if len(trials) < 2:
        raise CalibrationError("need at least two trials (train + held-out test)")
    train, test = dataio.split(trials)
    return (*_training_set(tare_trial, train), test)


def _calibrate_files(args: argparse.Namespace, out: Path | None) -> tuple[list, list]:
    """The data directory's logs in; one model per fitted mode, then the report, out."""
    data, model = Path(args.data), Path(args.model)
    models = [model, model.with_name(model.stem + "_shear_only" + model.suffix)]
    return ([*data.glob("trial_*.csv"), data / "tare.csv"],
            models[:2 if args.mode == "both" else 1] + _given(args.report))


def cmd_calibrate(args: argparse.Namespace, outputs: Sequence[Path]) -> int:
    modes = ("full", "shear_only") if args.mode == "both" else (args.mode,)
    out_paths = dict(zip(modes, outputs))
    counts, wrenches, baseline, test = _load_split(Path(args.data))
    report = {"axes": list(calibration.AXIS_NAMES), "test_trial": test.name, "modes": {}}
    for mode in modes:
        model = calibration.fit(counts, wrenches, baseline, mode=mode, ridge=args.ridge)
        calibration.save_model(model, out_paths[mode])
        test_metrics = calibration.evaluate(model, test.counts, test.wrench)
        print(f"fitted mode={model.mode} ridge={model.ridge:.3e} "
              f"on {len(counts)} samples, test trial {test.name!a}:")
        for line in test_metrics.summary_lines():
            print("  " + line)
        report["modes"][mode] = {
            "ridge": model.ridge,
            "train_rmse": list(model.train_rmse),
            "test_rmse": list(test_metrics.rmse),
            "test_r_squared": list(test_metrics.r_squared),
        }
    if args.report is not None:
        _write_json(outputs[-1], report)
    return 0


def cmd_evaluate(args: argparse.Namespace, outputs: Sequence[Path]) -> int:
    model, comp = calibration.load_model(args.model)
    trial = dataio.load_log(args.log)
    counts = trial.counts if comp is None else calibration.compensate_counts(
        trial.counts, trial.temperature, comp)
    metrics = calibration.evaluate(model, counts, trial.wrench)
    print(f"evaluated {args.log} ({len(trial)} samples):")
    for line in metrics.summary_lines():
        print("  " + line)
    if outputs:
        header = "t," + ",".join(f"ref_{a}" for a in calibration.AXIS_NAMES) \
                 + "," + ",".join(f"pred_{a}" for a in calibration.AXIS_NAMES)
        lines = [header]
        for c, t, w in zip(counts.tolist(), trial.t.tolist(), trial.wrench.tolist()):
            pred = calibration.predict(model, CapacitanceFrame.from_counts(c)).as_tuple()
            lines.append(",".join(map(repr, (t, *w, *pred))))
        write_lines(outputs[0], lines)
    return 0


def _quick_model(params: SensorParams, seed: int) -> calibration.CalibrationModel:
    """Self-contained calibration used when no model file is supplied."""
    tare_trial = dataio.generate_trial(
        dataio.no_load_scenario(seed=_child_seed(seed, 100)), params)
    trials = [dataio.generate_trial(
        dataio.full_range_scenario(name=f"cal_{i}", duration=10.0,
                                   seed=_child_seed(seed, 101 + i)), params)
        for i in range(3)]
    return calibration.fit(*_training_set(tare_trial, trials))


def cmd_temp_sweep(args: argparse.Namespace, outputs: Sequence[Path]) -> int:
    params = _load_sensor_params(args.sensor_params)
    scenario = dataio.temp_sweep_scenario(seed=_child_seed(args.seed, 200),
                                          temp_start=args.temp_start, temp_end=args.temp_end)
    if abs(args.temp_end - args.temp_start) < calibration.MIN_TEMP_SPAN:
        raise ScenarioRangeError(
            f"--temp-start {args.temp_start!r} and --temp-end {args.temp_end!r} span less "
            f"than the {calibration.MIN_TEMP_SPAN:g} degC the drift fit needs")
    if args.model is not None:
        model, _ = calibration.load_model(args.model)
    else:
        model = _quick_model(params, args.seed)
    sweep = dataio.generate_trial(scenario, params)
    comp = calibration.fit_temp_baseline(sweep.counts, sweep.temperature,
                                         params.drift.reference_temp)
    pred_raw = calibration.predict_counts(model, sweep.counts)
    pred_comp = calibration.predict_counts(
        model, calibration.compensate_counts(sweep.counts, sweep.temperature, comp))
    f_raw = np.linalg.norm(pred_raw[:3], axis=0)
    f_comp = np.linalg.norm(pred_comp[:3], axis=0)
    model_path, ablation_path = outputs
    calibration.save_model(model, model_path, comp=comp)
    lines = ["t,T,f_err_raw,f_err_comp"]
    for t, temp, fr, fc in zip(sweep.t.tolist(), sweep.temperature.tolist(),
                               f_raw.tolist(), f_comp.tolist()):
        lines.append(f"{t!r},{temp!r},{fr!r},{fc!r}")
    write_lines(ablation_path, lines)
    r2 = comp.r_squared
    print(f"baseline fit R^2 per channel: min {min(r2):.5f}, max {max(r2):.5f}")
    print(f"no-load |F| error over {args.temp_start:.1f}..{args.temp_end:.1f} degC: "
          f"raw max {f_raw.max():.3f} N, compensated max {f_comp.max():.3f} N")
    return 0


def cmd_fly(args: argparse.Namespace, outputs: Sequence[Path]) -> int:
    params = _load_sensor_params(args.sensor_params)
    if args.config is not None:
        cfg = flight.config_from_dict(read_json(args.config))
        if cfg.scenario != args.scenario:
            raise ValueError(f"config scenario {cfg.scenario!r} does not match "
                             f"requested {args.scenario!r}")
    else:
        cfg = flight.default_config(args.scenario)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.model is None and not args.bypass_sensor:
        raise CalibrationError("sensor-in-the-loop flight requires --model")
    stack = None if args.bypass_sensor else flight.SensingStack(
        params, calibration.load_model(args.model)[0])
    rows, summary = flight.run_mission(cfg, stack)
    trace_path, summary_path = outputs
    write_lines(trace_path, flight.rows_to_csv_lines(rows))
    if cfg.scenario == "track_sine":
        print(f"hold {summary.hold_time:.1f}s, force tracking rms "
              f"{summary.rms_error:.3f} N, saturated={summary.saturated}")
    else:
        res = ", ".join(f"{r:.3f}" for r in summary.residuals)
        print(f"residuals [{res}] N, presses {len(summary.press_peaks)}, "
              f"payload_attached={summary.payload_attached}, success={summary.success}")
    _write_json(summary_path, {"scenario": cfg.scenario, **asdict(summary)})
    return 0


def cmd_params(args: argparse.Namespace, outputs: Sequence[Path]) -> int:
    params = default_sensor_params()
    if args.describe:
        print("sensor parameter file schema (JSON):")
        print("  pillars: youngs_modulus Pa, height m, radius m,")
        print("           ring_radii m list, ring_counts list")
        print("  geometry: nominal_gap m, quadrant_x/quadrant_y m (4 each),")
        print("            normal_electrode_area m^2, shear_overlap_area m^2,")
        print("            finger_pitch m, pillar_fill_fraction, eps_pillar, eps_air")
        print("  drift: alpha 1/degC and beta 1/degC^2 (12 each), reference_temp degC")
        print("  cdc: gain_counts_per_farad, noise_sigma_counts, lag_corner_hz or null")
        print("every key is required; an unknown key or a wrong JSON type is rejected")
        print("defaults below are illustrative, not measurements of a physical device:")
    print(json.dumps(asdict(params), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="capft", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate excitation trials to CSV logs")
    p.add_argument("--scenario", choices=sorted(_SCENARIO_BUILDERS), default="full_range")
    p.add_argument("--scenario-file", help="JSON scenario overriding --scenario")
    p.add_argument("--trials", type=_integer(f"an integer from 1 to {MAX_TRIALS}", 1, MAX_TRIALS),
                   default=11)
    p.add_argument("--duration", type=float, default=35.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--jobs", type=_integer("a positive integer", 1), default=1)
    p.add_argument("--sensor-params", help="JSON sensor parameter file")
    p.add_argument("--out", help="output directory (default: $CAPFT_OUT)")
    p.set_defaults(func=cmd_generate, files=lambda args, out: (
        _given(args.sensor_params, args.scenario_file),
        [out / f"trial_{i:02d}.csv" for i in range(args.trials)]
        + [out / "tare.csv", out / "manifest.json"]))

    p = sub.add_parser("calibrate", help="fit a count-to-wrench model from logs")
    p.add_argument("data", help="directory with trial_*.csv and tare.csv")
    p.add_argument("--mode", choices=("full", "shear_only", "both"), default="full")
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--model", required=True, help="output model JSON path")
    p.add_argument("--report", help="optional JSON metric report path")
    p.set_defaults(func=cmd_calibrate, files=_calibrate_files)

    p = sub.add_parser("evaluate", help="score a model against a trial log")
    p.add_argument("log")
    p.add_argument("--model", required=True)
    p.add_argument("--predictions", help="optional predicted-vs-reference CSV path")
    p.set_defaults(func=cmd_evaluate, files=lambda args, out: (
        _given(args.log, args.model), _given(args.predictions)))

    p = sub.add_parser("temp-sweep", help="characterize and compensate thermal drift")
    p.add_argument("--model", help="existing model JSON; a quick one is fitted if omitted")
    p.add_argument("--sensor-params")
    p.add_argument("--temp-start", type=float, default=20.0)
    p.add_argument("--temp-end", type=float, default=30.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="output directory (default: $CAPFT_OUT)")
    p.set_defaults(func=cmd_temp_sweep, files=lambda args, out: (
        _given(args.model, args.sensor_params),
        [out / "model_with_comp.json", out / "ablation.csv"]))

    p = sub.add_parser("fly", help="closed-loop contact mission")
    p.add_argument("--scenario", choices=("track_sine", "deploy_package"), required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--bypass-sensor", action="store_true",
                   help="feed true contact force to the controller")
    g.add_argument("--model", help="calibration model for sensor-in-the-loop flight")
    p.add_argument("--config", help="JSON simulation config")
    p.add_argument("--sensor-params")
    p.add_argument("--seed", type=_seed,
                   help="overrides the config's seed (default: the config's, else 0)")
    p.add_argument("--out", help="output directory (default: $CAPFT_OUT)")
    p.set_defaults(func=cmd_fly, files=lambda args, out: (
        _given(args.model, args.config, args.sensor_params),
        [out / "trace.csv", out / "summary.json"]))

    p = sub.add_parser("params", help="print the default sensor parameter file")
    p.add_argument("--describe", action="store_true", help="prefix with schema notes")
    p.set_defaults(func=cmd_params, files=lambda args, out: ([], []))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    made: list[Path] = []  # the directories made for --out, outermost last
    code = 1  # the exit code of an uncaught exception
    try:
        out = None
        if "out" in args:  # --out, else CAPFT_OUT, made before the declared files are checked
            out = args.out if args.out is not None else os.environ.get("CAPFT_OUT") or None
            if out is None:
                raise ValueError("--out is required (or set CAPFT_OUT)")
            out = Path(out)
            made.extend(p for p in (out, *out.parents) if not p.exists())
            out.mkdir(parents=True, exist_ok=True)
        inputs, outputs = args.files(args, out)
        _check_output_files(outputs, inputs)
        code = args.func(args, outputs)
    # each error class maps to its documented exit code
    except (LogFormatError, ScenarioRangeError, InputFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 4
    except (SimulationFault, SurfaceNotFoundError, SensorRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 5
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    finally:
        if code and made:  # a failed command leaves no output
            shutil.rmtree(made[-1], ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
