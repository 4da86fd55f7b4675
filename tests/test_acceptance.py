"""Acceptance gate: the end-to-end claims this package must uphold.

Each test prints one PASS line when its claim holds (run with -s to see
them); a failure shows up as the usual pytest FAILED line.  Numbers here
are frozen hand calculations or measured tolerances, never recomputed
from the code under test.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from capft import calibration, dataio, flight
from capft.calibration import expand_features
from capft.cli import main
from capft.controller import (
    MachineState,
    ThrustMachine,
    ThrustMachineParams,
    thrust_step,
)
from capft.core import Wrench
from capft.sensor_model import (
    CapacitanceFrame,
    capacitances,
    default_sensor_params,
    effective_modulus,
    parallel_plate_capacitance,
)


def ok(n: int, label: str) -> None:
    print(f"[{n:2d}/11] PASS  {label}")


@pytest.fixture(scope="module")
def protocol():
    """Full calibration protocol on default noise: 10 train + 1 test trials
    of 35 s at 360 Hz, plus a rest capture for taring."""
    t0 = time.perf_counter()
    params = default_sensor_params()
    trials = [dataio.generate_trial(
        dataio.full_range_scenario(name=f"trial_{i:02d}", duration=35.0, seed=1100 + i),
        params) for i in range(11)]
    tare_trial = dataio.generate_trial(dataio.no_load_scenario(seed=1199), params)
    baseline = calibration.tare(tare_trial.counts)
    train, test = dataio.split(trials)
    counts = np.concatenate([t.counts for t in train])
    wrenches = np.concatenate([t.wrench for t in train])
    model = calibration.fit(counts, wrenches, baseline)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(params=params, baseline=baseline, model=model,
                           test=test, elapsed=elapsed)


def test_01_pillar_modulus_closed_form():
    t0 = time.perf_counter()
    # E (1 + 0.5 / eta^2) by hand at E = 2 MPa:
    #   eta = 1      -> 2e6 * 1.5 = 3.0e6
    #   eta = 2.54   -> 2e6 * (1 + 0.5/6.4516) = 2155000.31000062
    #   eta -> inf   -> bulk value recovered
    assert effective_modulus(2.0e6, 1.0) == pytest.approx(3.0e6, rel=1e-9)
    assert effective_modulus(2.0e6, 2.54) == pytest.approx(2155000.31000062, rel=1e-9)
    assert effective_modulus(2.0e6, 1.0e8) == pytest.approx(2.0e6, rel=1e-9)
    assert time.perf_counter() - t0 < 1.0
    ok(1, "pillar modulus closed form")


def test_02_single_column_capacitance():
    # eps0 * 3 * 1 mm^2 / 127 um = 0.2092 pF
    c = parallel_plate_capacitance(3.0, 1.0e-6, 127.0e-6)
    assert c == pytest.approx(0.2092e-12, rel=1e-3)
    ok(2, "single column capacitance")


def test_03_working_principle_sign_matrix():
    t0 = time.perf_counter()
    params = default_sensor_params()
    g = params.geometry
    c0 = capacitances(Wrench.zero(), params)
    scale = None

    def deltas(w):
        return capacitances(w, params) - c0

    def flat(values, ref):
        assert np.abs(values).max() < 1e-6 * ref

    def pair_splits(dc):
        # (X1-X2, X3-X4, Y1-Y2, Y3-Y4)
        return np.array([dc[4] - dc[5], dc[6] - dc[7], dc[8] - dc[9], dc[10] - dc[11]])

    # Fz: every normal channel rises, no shear pair splits
    dc = deltas(Wrench(0, 0, 1.0, 0, 0, 0))
    scale = np.abs(dc).max()
    assert (dc[:4] > 0).all()
    flat(pair_splits(dc), scale)

    # Mx / My: normal channels split two-up two-down, grouped by the
    # quadrant coordinate the moment tilts about
    for w, coord in ((Wrench(0, 0, 0, 5e-3, 0, 0), g.quadrant_y),
                     (Wrench(0, 0, 0, 0, 5e-3, 0), g.quadrant_x)):
        dn = deltas(w)[:4]
        signs = np.sign(dn)
        assert sorted(signs) == [-1.0, -1.0, 1.0, 1.0]
        grouped = {s: {signs[i] for i in range(4) if np.sign(coord[i]) == s}
                   for s in (-1.0, 1.0)}
        assert len(grouped[-1.0]) == 1 and len(grouped[1.0]) == 1
        assert grouped[-1.0] != grouped[1.0]

    # Fx: X pairs split in opposite directions, normal and Y channels flat
    dc = deltas(Wrench(1.0, 0, 0, 0, 0, 0))
    ref = np.abs(dc).max()
    flat(dc[:4], ref)
    flat(dc[8:], ref)
    assert (dc[4] > 0) != (dc[5] > 0)
    assert (dc[6] > 0) != (dc[7] > 0)

    # Fy: mirror image on the Y pairs
    dc = deltas(Wrench(0, 1.0, 0, 0, 0, 0))
    ref = np.abs(dc).max()
    flat(dc[:4], ref)
    flat(dc[4:8], ref)
    assert (dc[8] > 0) != (dc[9] > 0)
    assert (dc[10] > 0) != (dc[11] > 0)

    # Mz: every shear pair splits, normal channels stay flat
    dc = deltas(Wrench(0, 0, 0, 0, 0, 5e-3))
    ref = np.abs(dc).max()
    flat(dc[:4], ref)
    splits = pair_splits(dc)
    assert (np.abs(splits) > 0.1 * np.abs(splits).max()).all()

    assert time.perf_counter() - t0 < 5.0
    ok(3, "working principle sign matrix")


def test_04_calibration_recovery(protocol):
    # Exact recovery: noiseless targets from a known quadratic map must come
    # back through fit() in agreement with the pseudoinverse solution
    rng = np.random.default_rng(42)
    a_true = rng.normal(scale=0.01, size=(6, 24))
    baseline = np.full(12, 1000.0)
    frames = []
    for i in range(600):
        counts = [int(v) for v in rng.integers(900, 1100, 12)]
        frames.append(CapacitanceFrame(counts=tuple(counts)))
    x = np.column_stack([expand_features(f.counts, baseline, "full") for f in frames])
    y = a_true @ x
    wrenches = [Wrench(*y[:, i]) for i in range(y.shape[1])]
    model = calibration.fit(np.array([f.counts for f in frames]),
                            np.array([w.as_tuple() for w in wrenches]), baseline, ridge=0.0)
    a_pinv = y @ np.linalg.pinv(x)
    np.testing.assert_allclose(model.matrix, a_pinv, rtol=1e-6, atol=1e-12)

    # Full protocol at default noise: every axis above 0.99
    metrics = calibration.evaluate(protocol.model, protocol.test.counts,
                                   protocol.test.wrench)
    assert min(metrics.r_squared) > 0.99
    assert protocol.elapsed < 30.0
    ok(4, "calibration recovery and protocol fit quality")


def test_05_shear_only_ablation_trend():
    params = default_sensor_params()
    axes = [calibration.AXIS_NAMES.index(a) for a in ("Fz", "Mx", "My")]
    wins = 0
    for s in range(10):
        trials = [dataio.generate_trial(
            dataio.small_range_scenario(name=f"abl_{s}_{i}", duration=10.0,
                                        seed=5000 + 10 * s + i), params)
            for i in range(3)]
        tare_trial = dataio.generate_trial(
            dataio.no_load_scenario(seed=5900 + s), params)
        baseline = calibration.tare(tare_trial.counts)
        train, test = dataio.split(trials)
        counts = np.concatenate([t.counts for t in train])
        wrenches = np.concatenate([t.wrench for t in train])
        rmse = {}
        for mode in ("full", "shear_only"):
            model = calibration.fit(counts, wrenches, baseline, mode=mode)
            rmse[mode] = calibration.evaluate(model, test.counts, test.wrench).rmse
        if all(rmse["full"][i] < rmse["shear_only"][i] for i in axes):
            wins += 1
    assert wins >= 9
    ok(5, f"normal channels improve Fz/Mx/My ({wins}/10 seeds)")


def test_06_temperature_compensation(protocol):
    sweep = dataio.generate_trial(
        dataio.temp_sweep_scenario(seed=1300), protocol.params)
    comp = calibration.fit_temp_baseline(sweep.counts, sweep.temperature,
                                         protocol.params.drift.reference_temp)
    assert min(comp.r_squared) > 0.999
    force_errors = []
    for c in calibration.compensate_counts(sweep.counts, sweep.temperature, comp).tolist():
        w = calibration.predict(protocol.model, CapacitanceFrame.from_counts(c))
        force_errors.append(np.hypot(np.hypot(w.fx, w.fy), w.fz))
    assert max(force_errors) < 0.4
    ok(6, "temperature drift fit and compensation")


def test_07_normal_equation_optimality(protocol):
    models = [protocol.model]
    params = default_sensor_params()
    trials = [dataio.generate_trial(
        dataio.small_range_scenario(name=f"ne_{i}", duration=8.0, seed=700 + i),
        params) for i in range(2)]
    tare_trial = dataio.generate_trial(dataio.no_load_scenario(seed=799), params)
    baseline = calibration.tare(tare_trial.counts)
    counts = np.concatenate([t.counts for t in trials])
    wrenches = np.concatenate([t.wrench for t in trials])
    for mode in ("full", "shear_only"):
        models.append(calibration.fit(counts, wrenches, baseline, mode=mode))
    for model in models:
        assert model.normal_eq_residual < 1e-6
    ok(7, "normal equation residual orthogonality")


def test_08_thrust_machine_transcript():
    # binary-friendly constants make every hand step exact
    m = ThrustMachine(params=ThrustMachineParams(
        delta_f=0.01, k_p=0.5, k_i=0.4, k_d=0.016, hold_duration=0.375,
        contact_deadband=0.2, max_thrust=1.0))
    f_dc = 1.0
    # free flight passes the outer-loop command through
    assert thrust_step(m, 0.5, 0.0, f_dc, 0.0) == 0.5
    assert m.state is MachineState.FREE
    # contact above the deadband: transition tick still passes through
    assert thrust_step(m, 0.5, 0.25, f_dc, 0.125) == 0.5
    assert m.state is MachineState.SEARCH
    # ramp by delta_f per tick until the contact force reaches the target
    assert thrust_step(m, 0.5, 0.5, f_dc, 0.25) == pytest.approx(0.51, abs=1e-15)
    assert thrust_step(m, 0.5, 1.0, f_dc, 0.375) == pytest.approx(0.52, abs=1e-15)
    assert m.state is MachineState.HOLD
    assert m.f_hold == pytest.approx(0.52, abs=1e-15)
    # PID about the latched thrust: e = 0.25 then -0.125 then 0 at dt = 0.125
    assert thrust_step(m, 0.5, 1.25, f_dc, 0.5) == pytest.approx(0.6895, abs=1e-12)
    assert thrust_step(m, 0.5, 0.875, f_dc, 0.625) == pytest.approx(0.41575, abs=1e-12)
    assert thrust_step(m, 0.5, 1.0, f_dc, 0.75) == pytest.approx(0.54225, abs=1e-12)
    assert m.done and not m.saturated
    ok(8, "thrust state machine hand transcript")


def test_09_force_tracking(protocol):
    cfg = flight.default_config("track_sine", seed=0)
    t0 = time.perf_counter()
    _, summary = flight.simulate_track_sine(cfg, None)
    bypass_elapsed = time.perf_counter() - t0
    assert summary.hold_entered and not summary.saturated
    assert summary.rms_error <= 0.18
    assert bypass_elapsed < 60.0

    t0 = time.perf_counter()
    _, summary_full = flight.simulate_track_sine(
        cfg, flight.SensingStack(params=protocol.params, model=protocol.model))
    full_elapsed = time.perf_counter() - t0
    assert summary_full.hold_entered
    assert summary_full.rms_error <= 0.30
    assert full_elapsed < 60.0
    ok(9, f"force tracking rms {summary.rms_error:.3f} N bypass / "
          f"{summary_full.rms_error:.3f} N full stack")


def test_10_package_deployment_story():
    cfg = flight.default_config("deploy_package", seed=0)
    rows, summary = flight.simulate_deploy(cfg, None)
    weight = 0.095 * 9.81
    assert len(summary.residuals) == 3
    assert summary.residuals[0] == pytest.approx(weight, abs=0.02)
    assert summary.residuals[1] == pytest.approx(weight, abs=0.02)
    assert summary.residuals[2] < cfg.residual_threshold
    assert len(summary.press_peaks) == 2
    assert summary.press_peaks[0] < cfg.env.adhesion_threshold < summary.press_peaks[1]
    assert summary.success and not summary.payload_attached
    # the payload releases exactly once and never re-attaches
    attached = [r.payload_attached for r in rows]
    assert attached[0] is True and attached[-1] is False
    flips = sum(1 for a, b in zip(attached, attached[1:]) if a != b)
    assert flips == 1
    ok(10, "two press deployment narrative")


def test_11_byte_identical_pipeline(tmp_path):
    def run(out):
        out.mkdir()
        assert main(["generate", "--trials", "2", "--duration", "2.0",
                     "--seed", "8", "--out", str(out / "data")]) == 0
        assert main(["calibrate", str(out / "data"), "--mode", "both",
                     "--model", str(out / "model.json"),
                     "--report", str(out / "report.json")]) == 0
        assert main(["temp-sweep", "--seed", "8", "--out", str(out / "sweep")]) == 0
        assert main(["fly", "--scenario", "track_sine", "--bypass-sensor",
                     "--seed", "8", "--out", str(out / "track")]) == 0
        assert main(["fly", "--scenario", "deploy_package", "--bypass-sensor",
                     "--seed", "8", "--out", str(out / "deploy")]) == 0

    a, b = tmp_path / "a", tmp_path / "b"
    run(a)
    run(b)
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files, "pipeline produced no files"
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    ok(11, f"byte identical pipeline ({len(files)} files)")
