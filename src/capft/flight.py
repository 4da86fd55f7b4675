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

A reading only replaces the force the controller reads at its next tick, so
the engine senses only the read ticks: the last sensing tick at or before
each control tick.  The sensing ticks between are never computed: they draw
no read noise and cannot fault.  On seed 11 the two sensed missions make 951
readings where the sensor clock ticks 17,084 times.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .calibration import CalibrationModel, predict
from .controller import (
    ForceProfile,
    GainSet,
    MachineState,
    SetpointSequence,
    ThrustMachine,
    ThrustMachineParams,
    ZeroDesiredForceError,
    commanded_orientation,
    desired_force,
    desired_normalized_thrust,
    search_trajectory,
    thrust_step,
    tracking_errors,
)
from .core import (GRAVITY, GRAVITY_MAG, LEVEL_QUAT, DegenerateOrientationError, Vec3, Wrench,
                   ZERO3, body_z, check_finite, check_finite_fields, from_plain, slerp_quat,
                   snap_unit_quat)
from .sensor_model import SaturationError, SensorParams, sample

# Simulated seconds a phase may run past its deadline without a controller tick.
_STEP_BUDGET_S = 10.0
# Seconds past its duration at which a hover's deadline falls.
_HOVER_SLACK_S = 1.0
# Seconds of the retreat hover that follows each engagement.
_RETREAT_S = {"track_sine": 2.0, "deploy_package": 2.5}
# The most plant steps and controller ticks a mission may plan, every phase's
# budget included (SimConfig.budget_s): the shipped missions plan 78,500 and
# 158,500 steps.  The Python step loop runs ten million steps in seconds,
# and a million ticks' trace rows take about 0.8 GB, near the 1 GB that
# dataio.MAX_SAMPLES samples take to generate.
MAX_MISSION_STEPS = 10_000_000
MAX_MISSION_TICKS = 1_000_000
# The smallest plant step a mission takes, s: a minute of flight is then six
# million steps, where a much smaller step would run a mission for hours.
MIN_PLANT_DT = 1e-5


class SimulationFault(RuntimeError):
    """The closed-loop run cannot proceed (timeout, no commanded attitude, ...)."""


class SensedRangeFault(SimulationFault):
    """The sensing stack saturated during flight."""


@dataclass(frozen=True)
class PlantParams:
    mass: float = 0.65  # kg, vehicle without payload
    k_f: float = 0.05  # normalized thrust per N
    tau_att: float = 0.05  # s, first-order attitude tracking constant
    max_thrust_hat: float = 1.0

    def __post_init__(self) -> None:
        check_finite_fields(self)
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
        check_finite_fields(self)
        if self.contact_stiffness <= 0.0 or self.contact_damping < 0.0:
            raise ValueError("contact stiffness must be positive, damping non-negative")
        if self.payload_mass < 0.0 or self.adhesion_threshold <= 0.0:
            raise ValueError("payload mass non-negative, adhesion threshold positive")

    @property
    def payload_weight(self) -> float:
        return self.payload_mass * GRAVITY_MAG


class FlightState(NamedTuple):
    """Vehicle state between plant steps, as floats.

    px..pz is the position (m) and vx..vz the velocity (m/s), world frame.
    q is the attitude, a unit (w, x, y, z) quaternion as core.snap_unit_quat
    returns it: the engine builds only such states, and no input file sets
    an attitude.  step_plant steps from q unchanged, and the controller and
    the trace read it as it is.  The state keeps no time: the engine's step
    index is the clock.
    """

    px: float
    py: float
    pz: float
    vx: float
    vy: float
    vz: float
    q: tuple[float, float, float, float]
    payload_attached: bool


@dataclass(frozen=True)
class Command:
    f_cmd_hat: float
    q_cmd: tuple[float, float, float, float]  # unit (w, x, y, z), as snap_unit_quat returns it


def press_force(pz: float, vz: float, env: ContactEnv) -> float:
    """Press force between tip and surface, newtons, zero when separated,
    for a body at height pz rising at vz.  Never negative, never -0.0."""
    penetration = pz + env.tip_offset - env.surface_z
    if penetration <= 0.0:
        return 0.0
    closing = vz if vz > 0.0 else 0.0  # damping resists approach only
    f = env.contact_stiffness * penetration + env.contact_damping * closing
    return f if f > 0.0 else 0.0  # max(0.0, f) without the builtin call


_bits4 = struct.Struct("4d").pack  # an attitude, or (px, py, vx, vy)
_settle_key = struct.Struct("9d").pack  # a state's q, the command's q and alpha

# The key of the last step_plant call that ended at a fixed point of its
# command: from a state whose q, command and alpha have these bits, every
# step gives q again.  Packed bits, so -0.0 and 0.0 differ.
_settled: bytes | None = None


def step_plant(state: FlightState, cmd: Command, params: PlantParams, env: ContactEnv,
               dt: float, steps: int = 1) -> tuple[FlightState, float, float]:
    """steps semi-implicit integration steps of the vehicle under one command.

    Each step relaxes the attitude toward the command first, thrust acts
    along the updated body z, and velocity is integrated before position.
    A payload sticks to the surface (detaches from the vehicle, permanently)
    when the press force exceeds the adhesion threshold.  Returns the last
    state, the largest press force among the states the steps produced and
    the last state's press force; n calls of one step give the same states
    bit for bit.

    state.q must be a unit quaternion as core.snap_unit_quat returns it
    (see FlightState); each step snaps slerp's result, so every state this
    returns holds one.  Once a step's attitude has the bits of the one it
    started from, every later step under the same command and alpha
    repeats it, so the remaining steps keep it and its body z instead of
    slerping.  The fixed point carries over to the next call through the
    one-key memo _settled, which serves every plant call of the shipped
    missions after a process's first.  If that attitude's body z has x and y
    components of +-0.0, x and y accelerate by exactly +0.0 at any finite
    thrust per kilogram, so once a step gives back px, py, vx and vy bit for
    bit, the remaining steps keep them and integrate z alone: on the shipped
    missions, which fly level, every step after each call's first.
    """
    global _settled
    if not 0.0 < dt <= 0.01:
        raise ValueError(f"plant step dt {dt!r} outside (0, 0.01]")
    if steps < 1:
        raise ValueError(f"plant steps {steps!r} must be at least 1")
    alpha = 1.0 - math.exp(-dt / params.tau_att)
    q_cmd = cmd.q_cmd
    thrust = min(max(cmd.f_cmd_hat, 0.0), params.max_thrust_hat) / params.k_f
    adhesion = env.adhesion_threshold
    gx, gy, gz = GRAVITY
    px, py, pz, vx, vy, vz, q, attached = state
    hit = settled = _settle_key(*q, *q_cmd, alpha) == _settled
    if hit:
        bx, by, bz = body_z(*q)
    f_c = press_force(pz, vz, env)
    mass = params.mass + (env.payload_mass if attached else 0.0)
    s = thrust / mass
    peak = 0.0  # press forces are never negative
    free = math.isfinite(thrust / params.mass)  # s stays finite if the payload detaches
    lateral = True  # x and y not yet at a fixed point
    for _ in range(steps):
        if not settled:
            start = _bits4(*q)
            q = snap_unit_quat(*slerp_quat(q, q_cmd, alpha))
            settled = _bits4(*q) == start
            bx, by, bz = body_z(*q)
        # thrust along body z, gravity, and the surface reaction, whose normal
        # (0, 0, -1) pushes the vehicle down; the sums keep the order of the
        # Vec3 reference step in the tests, bit for bit
        if lateral:
            # at a settled attitude whose body z has x and y of +-0.0, x and y
            # accelerate by +0.0 at any finite s, so a step that gives back
            # their bits is repeated by every later one
            before = settled and bx == 0.0 and by == 0.0 and free and _bits4(px, py, vx, vy)
            vx, vy = vx + (bx * s + gx) * dt, vy + (by * s + gy) * dt
            px, py = px + vx * dt, py + vy * dt
            lateral = not before or _bits4(px, py, vx, vy) != before
            xy = px + py + vx + vy  # non-finite if any of them is
        az = bz * s + gz - f_c / mass
        if attached and f_c > adhesion:
            attached = False
            mass = params.mass
            s = thrust / mass
        vz = vz + az * dt
        pz = pz + vz * dt
        if not math.isfinite(xy + pz + vz):
            check_finite("Vec3", px, py, pz, vx, vy, vz)  # what building p, then v, would raise
        f_c = press_force(pz, vz, env)
        if f_c > peak:
            peak = f_c
    if settled and not hit:
        _settled = _settle_key(*q, *q_cmd, alpha)
    return FlightState(px, py, pz, vx, vy, vz, q, attached), peak, f_c


@dataclass(frozen=True)
class SensingStack:
    """Sensor-in-the-loop contact force estimation: the sensor and its calibration
    model.  A flight without one (None) reads the true contact force."""

    params: SensorParams
    model: CalibrationModel


def sensor_load(state: FlightState, press: float, env: ContactEnv) -> float:
    """The true load on the sensor, newtons: the press force plus the weight
    of an attached payload, both compressing it along its normal axis."""
    return press + env.payload_weight if state.payload_attached else press


def sense(state: FlightState, press: float, env: ContactEnv, stack: SensingStack | None,
          rng) -> float:
    """Magnitude of the force the sensor reports at its mounting point.

    press is the state's press force, press_force(state.pz, state.vz, env),
    which step_plant returns with the state.  A sensed reading draws
    twelve normals from rng; with no stack it is the true load, and rng is
    None.  _Engine.run calls this only at read ticks.
    """
    true_force = sensor_load(state, press, env)
    if stack is None:
        return true_force
    w = Wrench(0.0, 0.0, true_force, 0.0, 0.0, 0.0)
    try:
        frame = sample(w, stack.params.drift.reference_temp, stack.params, rng)
    except SaturationError as exc:
        raise SensedRangeFault(f"sensor saturated at {true_force:.2f} N: {exc}") from exc
    est = predict(stack.model, frame)
    # compressive contact assumed: the normal-axis reading carries the load
    return abs(est.fz)


class TraceRow(NamedTuple):
    """One controller-tick snapshot appended to the flight log: the tick's
    time and the state it saw, with what the controller read and issued."""

    t: float
    state: FlightState
    f_oc: float  # raw sensed force magnitude, N
    f_dc: float  # desired contact force, N (0 outside engagements)
    f_cmd_hat: float
    machine_state: str

    @property
    def payload_attached(self) -> bool:
        return self.state.payload_attached


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
        check_finite_fields(self)
        if self.scenario not in ("track_sine", "deploy_package"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if not 0.0 < self.plant_dt <= 0.01:
            raise ValueError(f"SimConfig.plant_dt must lie in (0, 0.01], got {self.plant_dt!r}")
        if self.plant_dt < MIN_PLANT_DT:
            raise ValueError(f"SimConfig.plant_dt {self.plant_dt!r} is too small: "
                             f"a mission steps at least {MIN_PLANT_DT:g} s at a time")
        if self.control_hz <= 0.0 or self.sensor_hz <= 0.0:
            raise ValueError("rates must be positive")
        # the engine takes at most one sensing and one control tick per plant step
        if max(self.control_hz, self.sensor_hz) > 1.0 / self.plant_dt:
            raise ValueError(f"control_hz and sensor_hz must not exceed 1/plant_dt "
                             f"= {1.0 / self.plant_dt:g} Hz")
        for name in ("settle_time", "measure_time", "rms_settle", "residual_threshold"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"SimConfig.{name} must not be negative, "
                                 f"got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"SimConfig.seed must be non-negative, got {self.seed!r}")
        if self.max_engage_time <= 0.0:
            raise ValueError(f"SimConfig.max_engage_time must be positive, "
                             f"got {self.max_engage_time!r}")
        # the longest hold an engagement evaluates the profile at: HOLD ends
        # at the first control tick hold_duration in, and control ticks are
        # less than two periods apart (one period plus a plant step)
        hold = min(self.max_engage_time, self.machine.hold_duration + 2.0 / self.control_hz)
        if not math.isfinite(2.0 * math.pi * self.profile.frequency_hz * hold):
            raise ValueError(f"SimConfig.profile.frequency_hz {self.profile.frequency_hz!r} "
                             f"overflows the profile's phase within a {hold:g} s hold")
        for i, press in enumerate(self.press_forces):
            if press <= 0.0:
                raise ValueError(f"SimConfig.press_forces[{i}] must be positive, got {press!r}")
        names = "settle_time, measure_time, max_engage_time" + (
            "" if self.scenario == "track_sine" else " or the number of press_forces")
        budget = self.budget_s
        if not budget / self.plant_dt <= MAX_MISSION_STEPS:  # inf too
            raise ValueError(f"SimConfig plans {budget:g} s of flight, over {MAX_MISSION_STEPS:,} "
                             f"plant steps of {self.plant_dt!r} s: lower {names}, "
                             f"or raise plant_dt")
        if not budget * self.control_hz <= MAX_MISSION_TICKS:
            raise ValueError(f"SimConfig plans {budget:g} s of flight, over {MAX_MISSION_TICKS:,} "
                             f"controller ticks at {self.control_hz!r} Hz: lower {names}, "
                             f"or control_hz")

    @property
    def budget_s(self) -> float:
        """Simulated seconds the mission may run at most: the sum of its
        phases' deadlines plus _STEP_BUDGET_S each, as _Engine.run budgets them."""
        def hover(duration: float) -> float:
            return duration + _HOVER_SLACK_S + _STEP_BUDGET_S
        engage = self.max_engage_time + _STEP_BUDGET_S + hover(_RETREAT_S[self.scenario])
        lead = hover(self.settle_time) + hover(self.measure_time)
        if self.scenario == "track_sine":
            return lead + engage
        return lead + sum(engage + hover(self.measure_time) for _ in self.press_forces)


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


def _due_step(j: int, hz: float, dt: float, k: int, stop: int) -> int:
    """The first plant step from k on at which tick j of a hz clock is due.

    Tick j is due at step n when j / hz <= n * dt + 1e-12, and once due it
    stays due as n grows.  Returns stop + 1 when no step up to stop is due,
    which covers a tick time of inf.
    """
    tick = j / hz
    if not tick <= stop * dt + 1e-12:
        return stop + 1
    # the floor's rounding error is far below one step, so it never passes the answer
    n = max(k, math.floor((tick - 1e-12) / dt))
    while not tick <= n * dt + 1e-12:
        n += 1
    return n


def _last_due(hz: float, dt: float, n: int) -> int:
    """The last tick of a hz clock due at plant step n: the largest j with
    j / hz <= n * dt + 1e-12."""
    limit = n * dt + 1e-12
    # the floor's rounding error is far below one tick, so it never falls short
    j = math.floor(limit * hz) + 1
    while not j / hz <= limit:
        j -= 1
    return j


class _Engine:
    """Shared plant/sensor/controller scheduling for mission phases.

    rng, the read-noise generator, is None for a truth flight (no stack), which never draws."""

    def __init__(self, cfg: SimConfig, stack: SensingStack | None):
        self.cfg = cfg
        self.stack = stack
        self.rng = None if stack is None else np.random.default_rng(
            np.random.SeedSequence((cfg.seed, 0x5EB5)))
        lat = cfg.seq.lateral
        self.state = FlightState(  # at rest and level
            lat[0], lat[1], cfg.seq.z_low, 0.0, 0.0, 0.0, LEVEL_QUAT,
            payload_attached=cfg.env.payload_mass > 0.0)
        self.press = press_force(self.state.pz, self.state.vz, cfg.env)  # kept current with state
        self.k = 0
        self.ks = 0
        self.kc = 0
        self.f_raw = 0.0
        hover = cfg.plant.k_f * cfg.plant.mass * GRAVITY_MAG
        self.cmd = Command(f_cmd_hat=hover, q_cmd=LEVEL_QUAT)
        self.rows: list[TraceRow] = []
        self.peak_contact = 0.0

    @property
    def t(self) -> float:
        return self.k * self.cfg.plant_dt

    def run(self, control: Callable[[float], tuple[Command, float, str]],
            done: Callable[[], bool], deadline: float, what: str) -> None:
        """Advance until done() holds at a controller tick; fault past deadline.

        Controller ticks check done() and the deadline.  The plant steps are
        budgeted too, to _STEP_BUDGET_S past the deadline: a run whose
        controller ticks too rarely to see the deadline faults there, and one
        ticking at least that often reaches its deadline tick first.
        SimConfig bounds the budgets of all phases together.
        Each tick's step is computed once, when the tick before it fires.

        A reading only sets f_raw, which the controller reads at its ticks,
        so only the read ticks are sensed: the last sensing tick at or before
        each control tick.  From each stop the plant runs in one step_plant
        call to the next read tick, control tick or the step budget, and the
        sensing ticks on the way are never computed: they draw no read noise
        and cannot fault.  A sensed flight draws twelve normals per read tick
        and nothing else.
        """
        cfg = self.cfg
        hz, dt = cfg.sensor_hz, cfg.plant_dt
        stop = math.ceil((deadline + _STEP_BUDGET_S) / dt) + 2  # the first step past the budget
        next_sense = _due_step(self.ks, hz, dt, self.k, stop)
        next_control = _due_step(self.kc, cfg.control_hz, dt, self.k, stop)
        while True:
            k = self.k
            t = k * dt
            # a read tick: the last sensing tick due here, read by a control tick by stop
            if next_sense == k and next_control <= stop:
                self.f_raw = sense(self.state, self.press, cfg.env, self.stack, self.rng)
                self.ks = _last_due(hz, dt, k) + 1
                next_sense = _due_step(self.ks, hz, dt, k + 1, stop)
            if next_control == k:
                if done():
                    return
                if t > deadline:
                    raise SimulationFault(f"{what} still running at t={t:.1f}s deadline")
                try:
                    cmd, f_dc, label = control(t)
                except (DegenerateOrientationError, ZeroDesiredForceError) as exc:
                    raise SimulationFault(
                        f"{what} at t={t:.1f}s: no commanded attitude: {exc}") from exc
                self.cmd = cmd
                self.rows.append(TraceRow(t, self.state, self.f_raw, f_dc, cmd.f_cmd_hat, label))
                self.kc += 1
                # one control tick per step: the next one is due from step k + 1
                next_control = _due_step(self.kc, cfg.control_hz, dt, k + 1, stop)
            if k >= stop:
                raise SimulationFault(f"{what} still running at t={t:.1f}s: no controller "
                                      f"tick since the {deadline:.1f}s deadline")
            end = min(next_control, stop)
            if next_sense <= next_control <= stop:  # stop first at the control tick's read tick
                end = next_sense = _due_step(_last_due(hz, dt, end), hz, dt, next_sense, stop)
            self.state, peak, self.press = step_plant(self.state, self.cmd, cfg.plant, cfg.env,
                                                      dt, end - k)
            self.peak_contact = max(self.peak_contact, peak)
            self.k = end

    def _outer_loop(self, p_des: Vec3, v_des: Vec3, gain_state: MachineState
                    ) -> tuple[tuple[float, float, float, float], float]:
        """Commanded attitude and unclamped normalized thrust toward a setpoint."""
        cfg = self.cfg
        s = self.state
        e_p, e_v = tracking_errors(Vec3(s.px, s.py, s.pz), Vec3(s.vx, s.vy, s.vz), p_des, v_des)
        f_des = desired_force(e_p, e_v, cfg.gains, cfg.plant.mass, gain_state)
        return (commanded_orientation(f_des),
                desired_normalized_thrust(f_des, s.q, cfg.plant.k_f))

    def hover(self, z_target: float, duration: float, collect_after: float | None = None
              ) -> float:
        """Station-keep at z_target; optionally average sensed force late in the phase.

        A measuring hover (collect_after given) of positive duration with no
        controller tick from collect_after on faults: there is no force to
        average.  One of zero duration measures nothing and reads 0 N.
        """
        cfg = self.cfg
        t0 = self.t
        samples: list[float] = []
        lat = cfg.seq.lateral
        p_des = Vec3(lat[0], lat[1], z_target)

        def control(t: float) -> tuple[Command, float, str]:
            if collect_after is not None and t - t0 >= collect_after:
                samples.append(self.f_raw)
            q_cmd, f_hat = self._outer_loop(p_des, ZERO3, MachineState.FREE)
            f_hat = min(max(f_hat, 0.0), cfg.plant.max_thrust_hat)
            return Command(f_cmd_hat=f_hat, q_cmd=q_cmd), 0.0, MachineState.FREE.value

        self.run(control, lambda: self.t - t0 >= duration, t0 + duration + _HOVER_SLACK_S, "hover")
        if samples or collect_after is None or duration == 0.0:
            return float(np.mean(samples)) if samples else 0.0
        raise SimulationFault(f"measure hover at t={self.t:.1f}s: no controller tick after the "
                              f"{collect_after:g}s settling window of measure_time={duration!r}s, "
                              f"so no sensed force to average")

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
            p_des, v_des = search_trajectory(rel, cfg.seq, machine)
            q_cmd, f_des_hat = self._outer_loop(p_des, v_des, machine.state)
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


def simulate_track_sine(cfg: SimConfig, stack: SensingStack | None
                        ) -> tuple[list[TraceRow], TrackingSummary]:
    """Engage the surface and track the sinusoidal contact-force profile."""
    eng = _Engine(cfg, stack)
    eng.hover(cfg.seq.z_low, cfg.settle_time)
    baseline = eng.hover(cfg.seq.z_low, cfg.measure_time, collect_after=0.5)
    machine, hold_errors, saturated = eng.engage(cfg.profile, baseline)
    eng.hover(cfg.retreat_z, _RETREAT_S[cfg.scenario])
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


def simulate_deploy(cfg: SimConfig, stack: SensingStack | None
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
        eng.hover(cfg.retreat_z, _RETREAT_S[cfg.scenario])
        residuals.append(eng.hover(cfg.retreat_z, cfg.measure_time, collect_after=0.5))
    attached = eng.state.payload_attached
    success = (not attached) and residuals[-1] <= cfg.residual_threshold
    return eng.rows, DeploySummary(
        residuals=tuple(residuals), press_peaks=tuple(peaks),
        payload_attached=attached, success=success)


def run_mission(cfg: SimConfig, stack: SensingStack | None):
    """Dispatch on cfg.scenario; returns (rows, summary); a None stack flies on the true force."""
    if cfg.scenario == "track_sine":
        return simulate_track_sine(cfg, stack)
    return simulate_deploy(cfg, stack)


def default_config(scenario: str, seed: int = 0) -> SimConfig:
    """Baseline mission setups; all values are illustrative tuning, not
    measurements of any physical vehicle."""
    if scenario == "track_sine":
        return SimConfig(scenario=scenario, seed=seed,
                         machine=ThrustMachineParams(hold_duration=12.0))
    if scenario == "deploy_package":
        return SimConfig(scenario=scenario, seed=seed, env=ContactEnv(payload_mass=0.095))
    raise ValueError(f"unknown scenario {scenario!r}")


def config_from_dict(data: dict) -> SimConfig:
    """Config from a mapping overlaid on default_config(data["scenario"]): a
    missing key, nested ones included, keeps the scenario default."""
    try:
        return from_plain(SimConfig, data, base=default_config(data["scenario"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad simulation config: {exc}") from exc


def rows_to_csv_lines(rows: Sequence[TraceRow]) -> list[str]:
    """Render trace rows with full-precision floats, header included."""
    lines = [TRACE_COLUMNS]
    for t, s, f_oc, f_dc, f_cmd_hat, machine_state in rows:
        cells = [repr(v) for v in (t, *s[:6], *s.q, f_oc, f_dc, f_cmd_hat)]
        cells += [machine_state, "1" if s.payload_attached else "0"]
        lines.append(",".join(cells))
    return lines
