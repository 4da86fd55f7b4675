"""Closed-loop contact flight simulation against an overhead surface.

The vehicle is a point mass with first-order attitude tracking; thrust
acts along the body z axis.  A compliant tip (the sensor plus an optional
payload riding on it) extends tip_offset above the body origin and meets
a rigid horizontal surface from below; the surface normal points down at
the vehicle, so pressing up compresses the sensor.  Contact follows a
spring/damper law, and an attached payload sticks to the surface once the
press force exceeds the adhesion threshold.

Rates are decoupled: the plant integrates at 1 kHz, the sensor samples at
360 Hz and the controller runs at 20 Hz, with zero-order holds between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .calibration import CalibrationModel, predict
from .controller import (
    ForceProfile,
    GainSet,
    MachineState,
    SetpointSequence,
    ThrustMachine,
    ThrustMachineParams,
    commanded_orientation,
    desired_force,
    desired_normalized_thrust,
    search_trajectory,
    thrust_step,
    tracking_errors,
)
from .core import GRAVITY, UnitQuaternion, Vec3, Wrench, ZERO3, slerp
from .sensor_model import SaturationError, SensorParams, sample

G_MAG = 9.81


class SimulationFault(RuntimeError):
    """The closed-loop run cannot proceed (timeout, missing model, ...)."""


class SensedRangeFault(SimulationFault):
    """The sensing stack saturated during flight."""


@dataclass(frozen=True)
class PlantParams:
    mass: float = 0.65  # kg, vehicle without payload
    k_f: float = 0.05  # normalized thrust per N
    tau_att: float = 0.05  # s, first-order attitude tracking constant
    max_thrust_hat: float = 1.0

    def __post_init__(self) -> None:
        if min(self.mass, self.k_f, self.tau_att, self.max_thrust_hat) <= 0.0:
            raise ValueError("plant parameters must be positive")


@dataclass(frozen=True)
class ContactEnv:
    """Overhead surface, compliant tip and optional payload."""

    surface_z: float = 1.5  # m, height of the surface the tip presses against
    contact_stiffness: float = 500.0  # N/m
    contact_damping: float = 30.0  # N*s/m, acts only while approaching
    tip_offset: float = 0.15  # m above the body origin
    payload_mass: float = 0.0  # kg riding on the sensor
    adhesion_threshold: float = 4.0  # N of press force that sticks the payload

    def __post_init__(self) -> None:
        if self.contact_stiffness <= 0.0 or self.contact_damping < 0.0:
            raise ValueError("contact stiffness must be positive, damping non-negative")
        if self.payload_mass < 0.0 or self.adhesion_threshold <= 0.0:
            raise ValueError("payload mass non-negative, adhesion threshold positive")

    @property
    def payload_weight(self) -> float:
        return self.payload_mass * G_MAG


@dataclass(frozen=True)
class FlightState:
    p: Vec3
    v: Vec3
    q: UnitQuaternion
    payload_attached: bool
    t: float


@dataclass(frozen=True)
class Command:
    f_cmd_hat: float
    q_cmd: UnitQuaternion


def contact_force(state: FlightState, env: ContactEnv) -> float:
    """Press force between tip and surface, newtons, zero when separated."""
    penetration = state.p.z + env.tip_offset - env.surface_z
    if penetration <= 0.0:
        return 0.0
    closing = max(0.0, state.v.z)  # damping resists approach only
    return max(0.0, env.contact_stiffness * penetration + env.contact_damping * closing)


def step_plant(state: FlightState, cmd: Command, params: PlantParams, env: ContactEnv,
               dt: float) -> FlightState:
    """One semi-implicit integration step of the vehicle.

    Attitude relaxes toward the command first, thrust acts along the
    updated body z, and velocity is integrated before position.  A payload
    sticks to the surface (detaches from the vehicle, permanently) when the
    press force exceeds the adhesion threshold.
    """
    if not 0.0 < dt <= 0.01:
        raise ValueError(f"plant step dt {dt!r} outside (0, 0.01]")
    alpha = 1.0 - math.exp(-dt / params.tau_att)
    q_new = slerp(state.q, cmd.q_cmd, alpha)
    w, x, y, z = q_new.w, q_new.x, q_new.y, q_new.z
    thrust_hat = min(max(cmd.f_cmd_hat, 0.0), params.max_thrust_hat)
    thrust = thrust_hat / params.k_f
    f_c = contact_force(state, env)
    attached = state.payload_attached
    mass = params.mass + (env.payload_mass if attached else 0.0)
    # thrust along body z (third column of quat_to_basis), gravity, and the
    # surface reaction, whose normal (0, 0, -1) pushes the vehicle down; the
    # sums keep the order of the Vec3 reference step in the tests, bit for bit
    s = thrust / mass
    ax = 2.0 * (x * z + w * y) * s + GRAVITY.x
    ay = 2.0 * (y * z - w * x) * s + GRAVITY.y
    az = (1.0 - 2.0 * (x * x + y * y)) * s + GRAVITY.z - f_c / mass
    if attached and f_c > env.adhesion_threshold:
        attached = False
    v, p = state.v, state.p
    vx, vy, vz = v.x + ax * dt, v.y + ay * dt, v.z + az * dt
    return FlightState(p=Vec3(p.x + vx * dt, p.y + vy * dt, p.z + vz * dt),
                       v=Vec3(vx, vy, vz), q=q_new, payload_attached=attached,
                       t=state.t + dt)


@dataclass
class SensingStack:
    """Sensor-in-the-loop contact force estimation, or a truth bypass."""

    params: SensorParams
    model: CalibrationModel | None = None
    bypass: bool = False

    def __post_init__(self) -> None:
        if not self.bypass and self.model is None:
            raise SimulationFault("sensor-in-the-loop mode requires a calibration model")


def sense(state: FlightState, env: ContactEnv, stack: SensingStack, rng,
          timestamp: float = 0.0) -> float:
    """Magnitude of the force the sensor reports at its mounting point.

    The true load is the press force plus the weight of an attached
    payload, both compressing the sensor along its normal axis.
    """
    true_force = contact_force(state, env)
    if state.payload_attached:
        true_force += env.payload_weight
    if stack.bypass:
        return true_force
    w = Wrench(0.0, 0.0, true_force, 0.0, 0.0, 0.0)
    try:
        frame = sample(w, stack.params.drift.reference_temp, stack.params, rng,
                       timestamp=timestamp)
    except SaturationError as exc:
        raise SensedRangeFault(f"sensor saturated at {true_force:.2f} N: {exc}") from exc
    est = predict(stack.model, frame)
    # compressive contact assumed: the normal-axis reading carries the load
    return abs(est.fz)


@dataclass(frozen=True)
class TraceRow:
    """One controller-tick snapshot appended to the flight log."""

    t: float
    p: Vec3
    v: Vec3
    q: UnitQuaternion
    f_oc: float  # raw sensed force magnitude, N
    f_dc: float  # desired contact force, N (0 outside engagements)
    f_cmd_hat: float
    machine_state: str
    payload_attached: bool


TRACE_COLUMNS = ("t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,"
                 "f_oc,f_dc,f_cmd_hat,machine_state,payload_attached")


@dataclass(frozen=True)
class SimConfig:
    """Everything one closed-loop run needs, minus the sensing stack."""

    scenario: str  # "track_sine" or "deploy_package"
    plant: PlantParams = field(default_factory=PlantParams)
    env: ContactEnv = field(default_factory=ContactEnv)
    gains: GainSet = field(default_factory=lambda: GainSet.from_diagonals(
        (7.0, 7.0, 9.0), (5.0, 5.0, 6.0), (7.0, 7.0, 2.5), (5.0, 5.0, 3.5)))
    machine: ThrustMachineParams = field(default_factory=ThrustMachineParams)
    seq: SetpointSequence = field(default_factory=SetpointSequence)
    profile: ForceProfile = field(default_factory=lambda: ForceProfile(2.0, 0.8, 0.5))
    press_forces: tuple[float, ...] = (0.7, 5.0)
    residual_threshold: float = 0.3  # N of hover-sensed force that means "still loaded"
    plant_dt: float = 0.001
    control_hz: float = 20.0
    sensor_hz: float = 360.0
    settle_time: float = 1.5
    measure_time: float = 2.0
    retreat_z: float = 1.05
    rms_settle: float = 1.0  # s of HOLD excluded from the tracking metric
    max_engage_time: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scenario not in ("track_sine", "deploy_package"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if not 0.0 < self.plant_dt <= 0.01:
            raise ValueError("plant_dt must lie in (0, 0.01]")
        if self.control_hz <= 0.0 or self.sensor_hz <= 0.0:
            raise ValueError("rates must be positive")


@dataclass(frozen=True)
class TrackingSummary:
    hold_entered: bool
    hold_time: float
    rms_error: float
    saturated: bool


@dataclass(frozen=True)
class DeploySummary:
    residuals: tuple[float, ...]  # hover-sensed force before/between/after presses
    press_peaks: tuple[float, ...]  # max true press force per engagement
    payload_attached: bool
    success: bool


class _Engine:
    """Shared plant/sensor/controller scheduling for mission phases."""

    def __init__(self, cfg: SimConfig, stack: SensingStack):
        self.cfg = cfg
        self.stack = stack
        self.rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5EB5)))
        lat = cfg.seq.lateral
        self.state = FlightState(
            p=Vec3(lat[0], lat[1], cfg.seq.z_low), v=ZERO3, q=UnitQuaternion.identity(),
            payload_attached=cfg.env.payload_mass > 0.0, t=0.0)
        self.k = 0
        self.ks = 0
        self.kc = 0
        self.f_raw = 0.0
        hover = cfg.plant.k_f * cfg.plant.mass * G_MAG
        self.cmd = Command(f_cmd_hat=hover, q_cmd=UnitQuaternion.identity())
        self.rows: list[TraceRow] = []
        self.peak_contact = 0.0

    @property
    def t(self) -> float:
        return self.k * self.cfg.plant_dt

    def run(self, control: Callable[[float], tuple[Command, float, str]],
            done: Callable[[], bool], deadline: float, what: str) -> None:
        """Advance until done() holds at a controller tick; fault past deadline."""
        cfg = self.cfg
        while True:
            t = self.t
            while self.ks / cfg.sensor_hz <= t + 1e-12:
                ts = self.ks / cfg.sensor_hz
                self.f_raw = sense(self.state, cfg.env, self.stack, self.rng, timestamp=ts)
                self.ks += 1
            if self.kc / cfg.control_hz <= t + 1e-12:
                if done():
                    return
                if t > deadline:
                    raise SimulationFault(f"{what} still running at t={t:.1f}s deadline")
                cmd, f_dc, label = control(t)
                self.cmd = cmd
                self.rows.append(TraceRow(
                    t=t, p=self.state.p, v=self.state.v, q=self.state.q,
                    f_oc=self.f_raw, f_dc=f_dc, f_cmd_hat=cmd.f_cmd_hat,
                    machine_state=label, payload_attached=self.state.payload_attached))
                self.kc += 1
            self.state = step_plant(self.state, self.cmd, cfg.plant, cfg.env, cfg.plant_dt)
            self.peak_contact = max(self.peak_contact, contact_force(self.state, cfg.env))
            self.k += 1

    def _position_command(self, p_des: Vec3, v_des: Vec3) -> Command:
        cfg = self.cfg
        e_p, e_v = tracking_errors(self.state.p, self.state.v, p_des, v_des)
        f_des = desired_force(e_p, e_v, cfg.gains, cfg.plant.mass, MachineState.FREE)
        q_cmd = commanded_orientation(f_des, UnitQuaternion.identity())
        f_hat = desired_normalized_thrust(f_des, self.state.q, cfg.plant.k_f)
        f_hat = min(max(f_hat, 0.0), cfg.plant.max_thrust_hat)
        return Command(f_cmd_hat=f_hat, q_cmd=q_cmd)

    def hover(self, z_target: float, duration: float, collect_after: float | None = None
              ) -> float:
        """Station-keep at z_target; optionally average sensed force late in the phase."""
        cfg = self.cfg
        t0 = self.t
        samples: list[float] = []
        lat = cfg.seq.lateral
        p_des = Vec3(lat[0], lat[1], z_target)

        def control(t: float) -> tuple[Command, float, str]:
            if collect_after is not None and t - t0 >= collect_after:
                samples.append(self.f_raw)
            return self._position_command(p_des, ZERO3), 0.0, MachineState.FREE.value

        self.run(control, lambda: self.t - t0 >= duration, t0 + duration + 1.0, "hover")
        return float(np.mean(samples)) if samples else 0.0

    def engage(self, profile: ForceProfile, residual_baseline: float
               ) -> tuple[ThrustMachine, list[tuple[float, float]], bool]:
        """One surface engagement; returns the machine, HOLD error pairs, saturation."""
        cfg = self.cfg
        machine = ThrustMachine(params=cfg.machine)
        t0 = self.t
        hold_errors: list[tuple[float, float]] = []
        saturated = False

        def control(t: float) -> tuple[Command, float, str]:
            nonlocal saturated
            rel = t - t0
            p_des, v_des, q_des = search_trajectory(rel, cfg.seq, machine)
            kp_state = machine.state
            e_p, e_v = tracking_errors(self.state.p, self.state.v, p_des, v_des)
            f_des = desired_force(e_p, e_v, cfg.gains, cfg.plant.mass, kp_state)
            q_cmd = commanded_orientation(f_des, q_des)
            f_des_hat = desired_normalized_thrust(f_des, self.state.q, cfg.plant.k_f)
            f_adj = max(0.0, self.f_raw - residual_baseline)
            hold_time = rel - machine.t_hold_start \
                if machine.state is MachineState.HOLD else 0.0
            f_dc = profile.value(hold_time)
            f_cmd = thrust_step(machine, f_des_hat, f_adj, f_dc, rel)
            saturated = saturated or machine.saturated
            if machine.state is MachineState.HOLD:
                hold_errors.append((rel - machine.t_hold_start, f_adj - f_dc))
            return Command(f_cmd_hat=f_cmd, q_cmd=q_cmd), f_dc, machine.state.value

        self.peak_contact = 0.0
        self.run(control, lambda: machine.done, t0 + cfg.max_engage_time, "engagement")
        return machine, hold_errors, saturated


def simulate_track_sine(cfg: SimConfig, stack: SensingStack
                        ) -> tuple[list[TraceRow], TrackingSummary]:
    """Engage the surface and track the sinusoidal contact-force profile."""
    eng = _Engine(cfg, stack)
    eng.hover(cfg.seq.z_low, cfg.settle_time)
    baseline = eng.hover(cfg.seq.z_low, cfg.measure_time, collect_after=0.5)
    machine, hold_errors, saturated = eng.engage(cfg.profile, baseline)
    eng.hover(cfg.retreat_z, 2.0)
    held = [(ht, err) for ht, err in hold_errors if ht >= cfg.rms_settle]
    if held:
        rms = float(np.sqrt(np.mean([err * err for _, err in held])))
    else:
        rms = float("nan")
    summary = TrackingSummary(
        hold_entered=machine.state is MachineState.HOLD,
        hold_time=hold_errors[-1][0] if hold_errors else 0.0,
        rms_error=rms, saturated=saturated)
    return eng.rows, summary


def simulate_deploy(cfg: SimConfig, stack: SensingStack
                    ) -> tuple[list[TraceRow], DeploySummary]:
    """Press the payload against the surface until it sticks, then verify.

    The hover residual before each press estimates the payload weight still
    carried; presses stop once it drops below the residual threshold.
    """
    eng = _Engine(cfg, stack)
    eng.hover(cfg.seq.z_low, cfg.settle_time)
    residuals = [eng.hover(cfg.seq.z_low, cfg.measure_time, collect_after=0.5)]
    peaks: list[float] = []
    for press in cfg.press_forces:
        if residuals[-1] <= cfg.residual_threshold:
            break
        eng.engage(ForceProfile(offset=press), residuals[-1])
        peaks.append(eng.peak_contact)
        eng.hover(cfg.retreat_z, 2.5)
        residuals.append(eng.hover(cfg.retreat_z, cfg.measure_time, collect_after=0.5))
    attached = eng.state.payload_attached
    success = (not attached) and residuals[-1] <= cfg.residual_threshold
    return eng.rows, DeploySummary(
        residuals=tuple(residuals), press_peaks=tuple(peaks),
        payload_attached=attached, success=success)


def run_mission(cfg: SimConfig, stack: SensingStack):
    """Dispatch on cfg.scenario; returns (rows, summary)."""
    if cfg.scenario == "track_sine":
        return simulate_track_sine(cfg, stack)
    return simulate_deploy(cfg, stack)


def default_config(scenario: str, bypass: bool = True, seed: int = 0) -> SimConfig:
    """Baseline mission setups; all values are illustrative tuning, not
    measurements of any physical vehicle."""
    if scenario == "track_sine":
        return SimConfig(
            scenario=scenario, seed=seed,
            env=ContactEnv(payload_mass=0.0),
            machine=ThrustMachineParams(hold_duration=12.0),
            profile=ForceProfile(2.0, 0.8, 0.5))
    if scenario == "deploy_package":
        return SimConfig(
            scenario=scenario, seed=seed,
            env=ContactEnv(payload_mass=0.095),
            machine=ThrustMachineParams(hold_duration=3.0),
            profile=ForceProfile(0.7))
    raise ValueError(f"unknown scenario {scenario!r}")


def config_to_dict(cfg: SimConfig) -> dict:
    g = cfg.gains
    return {
        "scenario": cfg.scenario,
        "plant": {"mass": cfg.plant.mass, "k_f": cfg.plant.k_f,
                  "tau_att": cfg.plant.tau_att, "max_thrust_hat": cfg.plant.max_thrust_hat},
        "env": {"surface_z": cfg.env.surface_z,
                "contact_stiffness": cfg.env.contact_stiffness,
                "contact_damping": cfg.env.contact_damping,
                "tip_offset": cfg.env.tip_offset,
                "payload_mass": cfg.env.payload_mass,
                "adhesion_threshold": cfg.env.adhesion_threshold},
        "gains": {name: [[float(v) for v in row] for row in getattr(g, name)]
                  for name in ("kp_free", "kv_free", "kp_contact", "kv_contact")},
        "machine": {"delta_f": cfg.machine.delta_f, "k_p": cfg.machine.k_p,
                    "k_i": cfg.machine.k_i, "k_d": cfg.machine.k_d,
                    "hold_duration": cfg.machine.hold_duration,
                    "contact_deadband": cfg.machine.contact_deadband,
                    "max_thrust": cfg.machine.max_thrust},
        "seq": {"lateral": list(cfg.seq.lateral), "z_low": cfg.seq.z_low,
                "z_high": cfg.seq.z_high, "search_speed": cfg.seq.search_speed,
                "grace": cfg.seq.grace},
        "profile": {"offset": cfg.profile.offset, "amplitude": cfg.profile.amplitude,
                    "frequency_hz": cfg.profile.frequency_hz},
        "press_forces": list(cfg.press_forces),
        "residual_threshold": cfg.residual_threshold,
        "plant_dt": cfg.plant_dt, "control_hz": cfg.control_hz,
        "sensor_hz": cfg.sensor_hz, "settle_time": cfg.settle_time,
        "measure_time": cfg.measure_time, "retreat_z": cfg.retreat_z,
        "rms_settle": cfg.rms_settle, "max_engage_time": cfg.max_engage_time,
        "seed": cfg.seed,
    }


def config_from_dict(data: dict) -> SimConfig:
    try:
        base = default_config(str(data["scenario"]))
        plant = replace(base.plant, **{k: float(v) for k, v in data.get("plant", {}).items()})
        env = replace(base.env, **{k: float(v) for k, v in data.get("env", {}).items()})
        gains = base.gains
        if "gains" in data:
            gains = GainSet(**{name: np.array(data["gains"][name], dtype=float)
                               for name in ("kp_free", "kv_free", "kp_contact", "kv_contact")})
        mach = base.machine
        if "machine" in data:
            mach = replace(mach, **{k: float(v) for k, v in data["machine"].items()})
        seq = base.seq
        if "seq" in data:
            s = dict(data["seq"])
            lateral = tuple(float(v) for v in s.pop("lateral", base.seq.lateral))
            seq = replace(seq, lateral=lateral, **{k: float(v) for k, v in s.items()})
        prof = base.profile
        if "profile" in data:
            prof = ForceProfile(**{k: float(v) for k, v in data["profile"].items()})
        return replace(
            base, plant=plant, env=env, gains=gains, machine=mach, seq=seq, profile=prof,
            press_forces=tuple(float(v) for v in data.get("press_forces", base.press_forces)),
            residual_threshold=float(data.get("residual_threshold", base.residual_threshold)),
            plant_dt=float(data.get("plant_dt", base.plant_dt)),
            control_hz=float(data.get("control_hz", base.control_hz)),
            sensor_hz=float(data.get("sensor_hz", base.sensor_hz)),
            settle_time=float(data.get("settle_time", base.settle_time)),
            measure_time=float(data.get("measure_time", base.measure_time)),
            retreat_z=float(data.get("retreat_z", base.retreat_z)),
            rms_settle=float(data.get("rms_settle", base.rms_settle)),
            max_engage_time=float(data.get("max_engage_time", base.max_engage_time)),
            seed=int(data.get("seed", base.seed)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad simulation config: {exc}") from exc


def rows_to_csv_lines(rows: Sequence[TraceRow]) -> list[str]:
    """Render trace rows with full-precision floats, header included."""
    lines = [TRACE_COLUMNS]
    for r in rows:
        cells = [repr(r.t)]
        cells += [repr(v) for v in r.p.as_tuple()]
        cells += [repr(v) for v in r.v.as_tuple()]
        cells += [repr(r.q.w), repr(r.q.x), repr(r.q.y), repr(r.q.z)]
        cells += [repr(r.f_oc), repr(r.f_dc), repr(r.f_cmd_hat)]
        cells += [r.machine_state, "1" if r.payload_attached else "0"]
        lines.append(",".join(cells))
    return lines
