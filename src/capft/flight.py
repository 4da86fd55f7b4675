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
each control tick.  The unread ticks between are drawn, not sensed: a sensed
run draws their read noise in one call once it has checked that none of
them could have saturated the sensor, left the count range or overflowed
the model's estimate, and senses them in full where one could.  Traces,
summaries, the random stream and every fault equal those of sensing every
tick.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass, field
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
from .sensor_model import (NUM_CHANNELS, SaturationError, SensorParams, SensorRangeError,
                           capacitances, count_at_reference, sample)

# Simulated seconds a phase may run past its deadline without a controller tick.
_STEP_BUDGET_S = 10.0
# The smallest plant step a mission takes, s: a minute of flight is then six
# million steps, where a much smaller step would run a mission for hours.
MIN_PLANT_DT = 1e-5
# The most sensing readings one plant stretch skips, which bounds the noise a
# stretch draws at once when the controller ticks rarely.
_MAX_UNREAD = 1024


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
    qw..qz are the attitude's components as core.slerp_quat returns them,
    before core.snap_unit_quat makes them a unit quaternion.  So q, which
    snaps them, gives the attitude bit for bit, where keeping the snapped
    components would not: snapping them again changes the last bits of some
    quaternions.  The plant steps on the floats; p and v build Vec3s for
    the controller, and q is the (w, x, y, z) tuple that the controller and
    the trace read.  Under a held command the attitude reaches a bit-exact
    fixed point (a level hover does on its first step), after which
    step_plant keeps qw..qz as they are without slerping again.  The state
    keeps no time: the engine's step index is the clock.
    """

    px: float
    py: float
    pz: float
    vx: float
    vy: float
    vz: float
    qw: float
    qx: float
    qy: float
    qz: float
    payload_attached: bool

    @property
    def p(self) -> Vec3:
        return Vec3(self.px, self.py, self.pz)

    @property
    def v(self) -> Vec3:
        return Vec3(self.vx, self.vy, self.vz)

    @property
    def q(self) -> tuple[float, float, float, float]:
        return snap_unit_quat(self.qw, self.qx, self.qy, self.qz)


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
    closing = max(0.0, vz)  # damping resists approach only
    return max(0.0, env.contact_stiffness * penetration + env.contact_damping * closing)


_quat_bits = struct.Struct("4d").pack
_settle_key = struct.Struct("9d").pack  # a state's q, the command's q and alpha

# The attitude of the last step_plant call that ended at a fixed point of its
# command, as (key, (q_new, bx, by, bz)): from a state whose q, command and
# alpha have the key's bits, every step gives q_new and the body-z factors
# bx, by, bz again.  Keyed by packed bits, so -0.0 and 0.0 differ.  One
# tuple, so a reader never sees a key with another attitude's values.
_settled: tuple = (None, ())


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

    Once a step's snapped attitude has the bits of the one it started from,
    every later step under the same command and alpha repeats it, so the
    remaining steps reuse its attitude and body z instead of slerping.  The
    fixed point carries over to the next call through a one-slot memo,
    which serves every plant call of the shipped missions after a process's
    first.
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
    gx, gy, gz = GRAVITY.x, GRAVITY.y, GRAVITY.z
    px, py, pz, vx, vy, vz, qw, qx, qy, qz, attached = state
    memo_key, memo = _settled
    hit = settled = _settle_key(qw, qx, qy, qz, *q_cmd, alpha) == memo_key
    if hit:
        q_new, bx, by, bz = memo
    else:
        snapped = snap_unit_quat(qw, qx, qy, qz)
    f_c = press_force(pz, vz, env)
    mass = params.mass + (env.payload_mass if attached else 0.0)
    s = thrust / mass
    peak = 0.0  # press forces are never negative
    for _ in range(steps):
        if not settled:
            q_new = slerp_quat(snapped, q_cmd, alpha)
            # the snapped attitude, which the next step starts from
            q = snap_unit_quat(*q_new)
            settled = _quat_bits(*q) == _quat_bits(*snapped)
            snapped = q
            bx, by, bz = body_z(*q)
        # thrust along body z, gravity, and the surface reaction, whose normal
        # (0, 0, -1) pushes the vehicle down; the sums keep the order of the
        # Vec3 reference step in the tests, bit for bit
        ax = bx * s + gx
        ay = by * s + gy
        az = bz * s + gz - f_c / mass
        if attached and f_c > adhesion:
            attached = False
            mass = params.mass
            s = thrust / mass
        vx, vy, vz = vx + ax * dt, vy + ay * dt, vz + az * dt
        px, py, pz = px + vx * dt, py + vy * dt, pz + vz * dt
        if not math.isfinite(px + py + pz + vx + vy + vz):
            check_finite("Vec3", px, py, pz, vx, vy, vz)  # what building p, then v, would raise
        f_c = press_force(pz, vz, env)
        if f_c > peak:
            peak = f_c
    if settled and not hit:
        _settled = _settle_key(*q_new, *q_cmd, alpha), (q_new, bx, by, bz)
    return FlightState(px, py, pz, vx, vy, vz, *q_new, attached), peak, f_c


@dataclass
class SensingStack:
    """Sensor-in-the-loop contact force estimation, or a truth bypass."""

    params: SensorParams
    model: CalibrationModel | None = None
    bypass: bool = False

    def __post_init__(self) -> None:
        if not self.bypass and self.model is None:
            raise SimulationFault("sensor-in-the-loop mode requires a calibration model")


def sensor_load(state: FlightState, press: float, env: ContactEnv) -> float:
    """The true load on the sensor, newtons: the press force plus the weight
    of an attached payload, both compressing it along its normal axis."""
    return press + env.payload_weight if state.payload_attached else press


def sense(state: FlightState, press: float, env: ContactEnv, stack: SensingStack,
          rng) -> float:
    """Magnitude of the force the sensor reports at its mounting point.

    press is the state's press force, press_force(state.pz, state.vz, env),
    which step_plant returns with the state.  A sensed reading draws
    NUM_CHANNELS normals from rng; a bypassed one draws none.  The engine
    calls this only for the readings it must compute (see _Engine.run).
    """
    true_force = sensor_load(state, press, env)
    if stack.bypass:
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
        if self.max_engage_time <= 0.0:
            raise ValueError(f"SimConfig.max_engage_time must be positive, "
                             f"got {self.max_engage_time!r}")
        for i, press in enumerate(self.press_forces):
            if press <= 0.0:
                raise ValueError(f"SimConfig.press_forces[{i}] must be positive, got {press!r}")


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


def _last_due(j_max: int, hz: float, dt: float, n: int) -> int:
    """The last tick of a hz clock due at plant step n, up to tick j_max:
    the largest j <= j_max with j / hz <= n * dt + 1e-12."""
    limit = n * dt + 1e-12
    # the floor's rounding error is far below one tick, so it never falls short
    j = j_max if not limit * hz < j_max else math.floor(limit * hz) + 1
    while not j / hz <= limit:
        j -= 1
    return j


class _Engine:
    """Shared plant/sensor/controller scheduling for mission phases."""

    def __init__(self, cfg: SimConfig, stack: SensingStack):
        self.cfg = cfg
        self.stack = stack
        self.rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5EB5)))
        lat = cfg.seq.lateral
        self.state = FlightState(  # at rest and level
            lat[0], lat[1], cfg.seq.z_low, 0.0, 0.0, 0.0, *LEVEL_QUAT,
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
        # What a skipped sensed reading must stay below (see run): the largest
        # load a full reading has succeeded on, the largest channel
        # capacitance just above it, and the model's largest absolute row sum
        # and baseline entry, which bound its estimate.
        self.f_ok = -math.inf
        self.cap_ok = math.inf
        if not stack.bypass:
            model = stack.model
            self.row_sum = max(sum(map(abs, row)) for row in model.matrix.tolist())
            self.baseline_max = max(map(abs, model.baseline.tolist()))

    @property
    def t(self) -> float:
        return self.k * self.cfg.plant_dt

    def run(self, control: Callable[[float], tuple[Command, float, str]],
            done: Callable[[], bool], deadline: float, what: str) -> None:
        """Advance until done() holds at a controller tick; fault past deadline.

        Controller ticks check done() and the deadline.  The plant steps are
        budgeted too, to _STEP_BUDGET_S past the deadline: a run whose
        controller ticks too rarely to see the deadline faults there, and one
        ticking at least that often reaches its deadline tick first.  A
        deadline too far off to count in plant steps faults before any step.
        Each tick's step is computed once, when the tick before it fires.

        A reading only sets f_raw, which the controller reads at its ticks,
        so a sensing tick is read when the next sensing tick falls after the
        next control tick, and unread otherwise.  From each stop the plant
        runs in one step_plant call to the next read tick (or control tick,
        or the step budget), where the reading is sensed in full; the unread
        ticks on the way, at most _MAX_UNREAD, are skipped together.
        Bypassed, an unread reading draws nothing and cannot fault, so
        skipping it is free.  Sensed, _skip draws the unread readings' noise
        in one call, which leaves the generator where their draws would, and
        checks that none of them could have faulted.  Where one could, the
        engine re-runs the plant to the next sensing tick and senses that
        in full.  Every output, the generator's state and every fault (type,
        message and tick) equal those of sensing every tick.
        """
        cfg = self.cfg
        hz, dt = cfg.sensor_hz, cfg.plant_dt
        budget = (deadline + _STEP_BUDGET_S) / dt
        if budget == math.inf:
            raise SimulationFault(f"{what} deadline t={deadline:g}s is too far to count "
                                  f"in plant steps of {dt!r}s")
        stop = math.ceil(budget) + 2  # the first step past the budget
        next_sense = _due_step(self.ks, hz, dt, self.k, stop)
        next_control = _due_step(self.kc, cfg.control_hz, dt, self.k, stop)
        while True:
            k = self.k
            t = k * dt
            while next_sense == k:  # more than one sensing tick may fall on a step
                self._read()
                self.ks += 1
                next_sense = _due_step(self.ks, hz, dt, k, stop)
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
            n, unread = end - k, 0
            if next_sense <= end:
                # sensed in full: the last sensing tick by end, which the
                # control tick at end reads
                last = _last_due(self.ks + _MAX_UNREAD, hz, dt, end)
                unread = last - self.ks
                n = _due_step(last, hz, dt, next_sense, stop) - k
            plant = self._skip(n, unread) if unread else None
            if plant is not None:
                self.ks += unread
                next_sense = k + n
            else:
                if unread:  # one could fault: sense the next tick in full
                    n = next_sense - k
                plant = step_plant(self.state, self.cmd, cfg.plant, cfg.env, dt, n)
            self.state, peak, self.press = plant
            self.peak_contact = max(self.peak_contact, peak)
            self.k = k + n

    def _read(self) -> None:
        """Sense this tick in full; a sensed reading's load raises f_ok."""
        self.f_raw = sense(self.state, self.press, self.cfg.env, self.stack, self.rng)
        if self.stack.bypass:
            return
        load = sensor_load(self.state, self.press, self.cfg.env)
        if not load > self.f_ok:
            return
        # pure normal loads: every channel's capacitance rises with the load,
        # and the margin covers the last bits of the compression solve
        above = Wrench(0.0, 0.0, load + 1e-6 * max(1.0, load), 0.0, 0.0, 0.0)
        try:
            caps = capacitances(above, self.stack.params)
        except SensorRangeError:
            return
        self.f_ok, self.cap_ok = load, float(caps.max())

    def _skip(self, n: int, unread: int) -> tuple[FlightState, float, float] | None:
        """step_plant's n steps to a read tick past unread sensing ticks, or
        None where an unread reading could have faulted.

        Sensed, the unread readings' noise is drawn.  Their loads are at
        most the stretch's peak (plus the payload if attached at its start),
        and a load at most f_ok neither saturates nor gives capacitances
        above cap_ok, so the drawn noise bounds their counts and the model's
        row sums their estimates.  None leaves the generator as it was.
        """
        cfg = self.cfg
        if self.stack.bypass:
            return step_plant(self.state, self.cmd, cfg.plant, cfg.env, cfg.plant_dt, n)
        try:
            plant = step_plant(self.state, self.cmd, cfg.plant, cfg.env, cfg.plant_dt, n)
        except ValueError:  # a non-finite state; a reading on the way may fault first
            return None
        if not sensor_load(self.state, plant[1], cfg.env) <= self.f_ok:
            return None
        saved = self.rng.bit_generator.state
        noise = self.rng.normal(size=NUM_CHANNELS * unread)
        try:
            top = count_at_reference(self.cap_ok, float(noise.max()), self.stack.params.cdc)
        except SensorRangeError:
            top = math.inf
        # bounds every tared count, and each feature is a tared count or its
        # square; twice the bound covers the product's rounding
        tared = top + self.baseline_max
        if math.isfinite(2.0 * self.row_sum * max(tared, tared * tared)):
            return plant
        self.rng.bit_generator.state = saved
        return None

    def _outer_loop(self, p_des: Vec3, v_des: Vec3, gain_state: MachineState
                    ) -> tuple[tuple[float, float, float, float], float]:
        """Commanded attitude and unclamped normalized thrust toward a setpoint."""
        cfg = self.cfg
        e_p, e_v = tracking_errors(self.state.p, self.state.v, p_des, v_des)
        f_des = desired_force(e_p, e_v, cfg.gains, cfg.plant.mass, gain_state)
        return (commanded_orientation(f_des),
                desired_normalized_thrust(f_des, self.state.q, cfg.plant.k_f))

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
            q_cmd, f_hat = self._outer_loop(p_des, ZERO3, MachineState.FREE)
            f_hat = min(max(f_hat, 0.0), cfg.plant.max_thrust_hat)
            return Command(f_cmd_hat=f_hat, q_cmd=q_cmd), 0.0, MachineState.FREE.value

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


def default_config(scenario: str, seed: int = 0) -> SimConfig:
    """Baseline mission setups; all values are illustrative tuning, not
    measurements of any physical vehicle."""
    if scenario == "track_sine":
        return SimConfig(scenario=scenario, seed=seed,
                         machine=ThrustMachineParams(hold_duration=12.0))
    if scenario == "deploy_package":
        return SimConfig(scenario=scenario, seed=seed, env=ContactEnv(payload_mass=0.095),
                         profile=ForceProfile(0.7))
    raise ValueError(f"unknown scenario {scenario!r}")


def config_to_dict(cfg: SimConfig) -> dict:
    data = asdict(cfg)
    data["gains"] = {name: m.tolist() for name, m in data["gains"].items()}
    return data


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
