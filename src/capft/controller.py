"""Contact-force flight control: outer loop force/attitude commands and the
thrust state machine that manages surface engagement.

The machine has three states.  FREE passes the position controller's
thrust through while watching the sensed contact force; SEARCH ramps
thrust by a fixed increment per tick until the sensed force reaches the
desired contact force; HOLD latches the ramped thrust as a feedforward
term and runs a PID on the force error for a fixed dwell, after which the
engagement is complete.  All thrust quantities are normalized (dimension
less) commands; forces are newtons.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DegenerateOrientationError,
    GRAVITY,
    Vec3,
    body_z,
    check_finite_fields,
    quat_from_columns,
    unit3,
)

MIN_DESIRED_FORCE = 0.1  # N, below this the commanded attitude is undefined


class ZeroDesiredForceError(ValueError):
    """Desired force too small to define a thrust direction."""


class SurfaceNotFoundError(RuntimeError):
    """Search band exhausted without making contact."""


class MachineState(enum.Enum):
    FREE = "FREE"
    SEARCH = "SEARCH"
    HOLD = "HOLD"


Row3 = tuple[float, float, float]
Gain = tuple[Row3, Row3, Row3]  # a 3x3 matrix as three rows of floats


@dataclass(frozen=True)
class GainSet:
    """Position/velocity gain pairs for out-of-contact and in-contact flight."""

    kp_free: Gain
    kv_free: Gain
    kp_contact: Gain
    kv_contact: Gain

    def __post_init__(self) -> None:
        for name in ("kp_free", "kv_free", "kp_contact", "kv_contact"):
            m = np.array(getattr(self, name), dtype=float)
            if m.shape != (3, 3):
                raise ValueError(f"{name} must be 3x3")
            if not np.isfinite(m).all():
                raise ValueError(f"GainSet.{name} must be finite")
            if not np.allclose(m, m.T):
                raise ValueError(f"{name} must be symmetric")
            if np.any(np.linalg.eigvalsh(m) <= 0.0):
                raise ValueError(f"{name} must be positive definite")

    @classmethod
    def from_diagonals(cls, kp_free, kv_free, kp_contact, kv_contact) -> "GainSet":
        return cls(*(tuple(map(tuple, np.diag(np.asarray(d, dtype=float)).tolist())) for d in
                     (kp_free, kv_free, kp_contact, kv_contact)))


def tracking_errors(p_obs: Vec3, v_obs: Vec3, p_des: Vec3, v_des: Vec3) -> tuple[Vec3, Vec3]:
    """Position and velocity errors, observed minus desired."""
    return p_obs - p_des, v_obs - v_des


def select_gains(state: MachineState, gains: GainSet) -> tuple[Gain, Gain]:
    """Out-of-contact gains in FREE, in-contact gains otherwise."""
    if state is MachineState.FREE:
        return gains.kp_free, gains.kv_free
    return gains.kp_contact, gains.kv_contact


def desired_force(e_p: Vec3, e_v: Vec3, gains: GainSet, mass: float,
                  state: MachineState) -> Vec3:
    """World-frame force request from the PD position law plus gravity offload.

    Each component is -kp @ e_p - kv @ e_v - mass * GRAVITY summed as BLAS's
    gemv sums it: left to right, each row's sum started from +0.0, so a zero
    result has the sign numpy gives it.
    """
    kp, kv = select_gains(state, gains)
    ex, ey, ez = e_p.x, e_p.y, e_p.z
    vx, vy, vz = e_v.x, e_v.y, e_v.z
    return Vec3(*[(0.0 + (-a * ex + -b * ey + -c * ez)) - (0.0 + (d * vx + e * vy + h * vz))
                  - mass * g for (a, b, c), (d, e, h), g in zip(kp, kv, GRAVITY)])


def commanded_orientation(f_des: Vec3) -> tuple[float, float, float, float]:
    """Attitude, as (w, x, y, z), whose body z points along the desired force.

    The commanded y axis is the thrust direction crossed into the level x
    axis; the x axis follows from the level z axis and is then
    re-orthonormalized against the other two so the result is a proper
    rotation even when the level and commanded z axes disagree.
    """
    fx, fy, fz = f_des.x, f_des.y, f_des.z
    n = math.sqrt(fx * fx + fy * fy + fz * fz)
    if n <= MIN_DESIRED_FORCE:
        raise ZeroDesiredForceError(f"desired force norm {n:.3e} N too small")
    s = 1.0 / n
    zx, zy, zz = fx * s, fy * s, fz * s
    # z x (1, 0, 0), then y x (0, 0, 1): the products by 0.0 stay, as they
    # set the sign of a zero component
    yx, yy, yz = unit3(zy * 0.0 - zz * 0.0, zz - zx * 0.0, zx * 0.0 - zy)
    rx, ry, rz = yy - yz * 0.0, yz * 0.0 - yx, yx * 0.0 - yy * 0.0
    dz = rx * zx + ry * zy + rz * zz
    dy = rx * yx + ry * yy + rz * yz
    ox, oy, oz = rx - zx * dz - yx * dy, ry - zy * dz - yy * dy, rz - zz * dz - yz * dy
    handed = rx * (yy * zz - yz * zy) + ry * (yz * zx - yx * zz) + rz * (yx * zy - yy * zx)
    if math.sqrt(ox * ox + oy * oy + oz * oz) <= 1e-8 or handed <= 0.0:
        raise DegenerateOrientationError("commanded frame collapsed or left-handed")
    return quat_from_columns(unit3(ox, oy, oz), (yx, yy, yz), (zx, zy, zz))


def desired_normalized_thrust(f_des: Vec3, q_obs: tuple[float, float, float, float],
                              k_f: float) -> float:
    """Project the force request onto the current body z and normalize."""
    if k_f <= 0.0:
        raise ValueError("thrust constant k_f must be positive")
    bx, by, bz = body_z(*q_obs)
    return k_f * (f_des.x * bx + f_des.y * by + f_des.z * bz)


@dataclass(frozen=True)
class ThrustMachineParams:
    """Tuning for the engagement state machine.

    Defaults are simulation-tuned, not measured hardware values.  The HOLD
    update adds k*(f_oc - f_dc) terms to the latched thrust, and pressing
    up against an overhead surface means more thrust gives more contact
    force, so stabilizing gains are negative under this error convention.
    """

    delta_f: float = 0.006  # normalized thrust increment per SEARCH tick
    k_p: float = -0.01  # normalized thrust per N
    k_i: float = -0.9  # normalized thrust per N*s
    k_d: float = -0.0005  # normalized thrust per N/s
    hold_duration: float = 3.0  # s in HOLD before the engagement completes
    contact_deadband: float = 0.2  # N, sensed force that counts as contact
    max_thrust: float = 1.0  # normalized command ceiling

    def __post_init__(self) -> None:
        check_finite_fields(self)
        if self.delta_f <= 0.0 or self.hold_duration <= 0.0 or self.max_thrust <= 0.0:
            raise ValueError("delta_f, hold_duration and max_thrust must be positive")
        if self.contact_deadband < 0.0:
            raise ValueError("contact deadband must be non-negative")


@dataclass
class ThrustMachine:
    """Mutable engagement state; one instance per engagement attempt."""

    params: ThrustMachineParams = field(default_factory=ThrustMachineParams)
    state: MachineState = MachineState.FREE
    f_cmd: float = 0.0  # last issued normalized thrust
    f_hold: float = 0.0  # latched feedforward at HOLD entry
    integral: float = 0.0
    e_prev: float = 0.0
    t_prev: float = 0.0
    t_hold_start: float = 0.0
    done: bool = False
    saturated: bool = False


def thrust_step(machine: ThrustMachine, f_des_hat: float, f_oc: float, f_dc: float,
                t: float) -> float:
    """Advance the engagement machine one controller tick.

    Mutates the machine in place and returns the clamped normalized thrust
    command.  Transition rules:

      FREE   -> output f_des_hat; enter SEARCH once f_oc exceeds the
                contact deadband.
      SEARCH -> ramp the previous command by delta_f; once f_oc >= f_dc,
                latch the ramped value as f_hold, zero the PID memory and
                enter HOLD.
      HOLD   -> output f_hold plus PID on (f_oc - f_dc); after
                hold_duration seconds the engagement is flagged done.

    Time must advance strictly between HOLD ticks so the PID dt is
    positive.
    """
    p = machine.params
    if machine.done:
        raise RuntimeError("engagement already complete; reset the machine")
    if not (math.isfinite(f_oc) and math.isfinite(f_dc) and math.isfinite(f_des_hat)):
        raise ValueError("non-finite input to thrust_step")

    if machine.state is MachineState.FREE:
        cmd = f_des_hat
        if f_oc > p.contact_deadband:
            machine.state = MachineState.SEARCH
    elif machine.state is MachineState.SEARCH:
        cmd = machine.f_cmd + p.delta_f
        if f_oc >= f_dc:
            machine.f_hold = cmd
            machine.integral = 0.0
            machine.e_prev = 0.0
            machine.t_prev = t
            machine.t_hold_start = t
            machine.state = MachineState.HOLD
    else:  # HOLD
        dt = t - machine.t_prev
        if dt <= 0.0:
            raise ValueError(f"HOLD tick requires advancing time, dt={dt!r}")
        e_curr = f_oc - f_dc
        machine.integral += p.k_i * e_curr * dt
        deriv = p.k_d * (e_curr - machine.e_prev) / dt
        cmd = machine.f_hold + p.k_p * e_curr + machine.integral + deriv
        machine.e_prev = e_curr
        machine.t_prev = t
        if t - machine.t_hold_start >= p.hold_duration:
            machine.done = True

    clamped = min(max(cmd, 0.0), p.max_thrust)
    machine.saturated = clamped != cmd
    machine.f_cmd = clamped
    return clamped


@dataclass(frozen=True)
class ForceProfile:
    """Desired contact force vs time in HOLD: offset + amplitude * sin."""

    offset: float
    amplitude: float = 0.0
    frequency_hz: float = 0.0

    def __post_init__(self) -> None:
        check_finite_fields(self)
        if self.offset <= 0.0:
            raise ValueError("desired contact force offset must be positive")
        if self.amplitude < 0.0 or self.frequency_hz < 0.0:
            raise ValueError("amplitude and frequency must be non-negative")

    def value(self, hold_time: float) -> float:
        """Force setpoint given seconds spent in HOLD (0 before HOLD entry)."""
        return self.offset + self.amplitude * math.sin(
            2.0 * math.pi * self.frequency_hz * hold_time)


@dataclass(frozen=True)
class SetpointSequence:
    """Vertical search band and lateral station-keeping target."""

    lateral: tuple[float, float] = (0.0, 0.0)
    z_low: float = 1.2
    z_high: float = 1.6
    search_speed: float = 0.08  # m/s upward ramp
    grace: float = 2.0  # s allowed at z_high while still out of contact

    def __post_init__(self) -> None:
        check_finite_fields(self)
        if self.z_high <= self.z_low:
            raise ValueError("z_high must exceed z_low")
        if self.search_speed <= 0.0 or self.grace < 0.0:
            raise ValueError("search speed must be positive, grace non-negative")


def search_trajectory(t: float, seq: SetpointSequence,
                      machine: ThrustMachine) -> tuple[Vec3, Vec3]:
    """Position and velocity setpoints for the engagement: ramp up until
    contact, freeze on HOLD.

    t is time since the engagement started.  While FREE or SEARCH the
    vertical setpoint ramps from z_low toward z_high; on HOLD entry it
    freezes at the height commanded at that moment.  Raises
    SurfaceNotFoundError if the ramp tops out and the grace period passes
    with the machine still FREE.
    """
    ramp_time = (seq.z_high - seq.z_low) / seq.search_speed
    if machine.state is MachineState.FREE and t > ramp_time + seq.grace:
        raise SurfaceNotFoundError(
            f"no contact by t={t:.2f}s with search band exhausted at {ramp_time:.2f}s")
    t_eff = min(t, machine.t_hold_start) if machine.state is MachineState.HOLD else t
    z = min(seq.z_low + seq.search_speed * max(t_eff, 0.0), seq.z_high)
    climbing = machine.state is not MachineState.HOLD and t_eff < ramp_time
    v = Vec3(0.0, 0.0, seq.search_speed if climbing else 0.0)
    p = Vec3(seq.lateral[0], seq.lateral[1], z)
    return p, v
