"""Outer-loop force/attitude law and the engagement thrust machine."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capft.core import (
    EPS_PARALLEL,
    GRAVITY,
    LEVEL_QUAT,
    DegenerateOrientationError,
    Vec3,
    body_z,
    quat_from_columns,
)
from capft.controller import (
    MIN_DESIRED_FORCE,
    ForceProfile,
    GainSet,
    MachineState,
    SetpointSequence,
    SurfaceNotFoundError,
    ThrustMachine,
    ThrustMachineParams,
    ZeroDesiredForceError,
    commanded_orientation,
    desired_force,
    desired_normalized_thrust,
    search_trajectory,
    select_gains,
    thrust_step,
    tracking_errors,
)


def unit_gains():
    return GainSet.from_diagonals([1.0] * 3, [1.0] * 3, [2.0] * 3, [2.0] * 3)


def basis(q):
    """Rotation matrix of q, whose columns are the body axes in the world
    frame: an explicit formula independent of the package's."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


class TestOuterLoop:
    def test_tracking_errors_sign(self):
        e_p, e_v = tracking_errors(Vec3(1, 2, 3), Vec3(0, 0, 1),
                                   Vec3(0, 2, 1), Vec3(0, 0, 0))
        assert e_p.as_tuple() == (1.0, 0.0, 2.0)
        assert e_v.as_tuple() == (0.0, 0.0, 1.0)

    def test_gain_switching(self):
        g = unit_gains()
        kp, kv = select_gains(MachineState.FREE, g)
        assert np.array_equal(kp, g.kp_free) and np.array_equal(kv, g.kv_free)
        for s in (MachineState.SEARCH, MachineState.HOLD):
            kp, kv = select_gains(s, g)
            assert np.array_equal(kp, g.kp_contact)

    def test_hover_hand_value(self):
        # unit gains, 1 kg, 1 m below target: 1 N of correction + 9.81 N offload
        f = desired_force(Vec3(0, 0, -1), Vec3(0, 0, 0), unit_gains(), 1.0,
                          MachineState.FREE)
        assert f.as_tuple() == pytest.approx((0.0, 0.0, 10.81), abs=1e-12)

    def test_pure_gravity_offload(self):
        f = desired_force(Vec3(0, 0, 0), Vec3(0, 0, 0), unit_gains(), 0.65,
                          MachineState.FREE)
        assert f.z == pytest.approx(0.65 * 9.81, rel=1e-12)

    def test_contact_gains_double(self):
        e = Vec3(0.5, 0.0, 0.0)
        f_free = desired_force(e, Vec3(0, 0, 0), unit_gains(), 1.0, MachineState.FREE)
        f_hold = desired_force(e, Vec3(0, 0, 0), unit_gains(), 1.0, MachineState.HOLD)
        assert f_hold.x == pytest.approx(2.0 * f_free.x, rel=1e-12)

    def test_gainset_validation(self):
        bad = np.eye(3)
        bad[0, 1] = 0.5  # asymmetric
        with pytest.raises(ValueError):
            GainSet(kp_free=bad, kv_free=np.eye(3),
                    kp_contact=np.eye(3), kv_contact=np.eye(3))
        with pytest.raises(ValueError):
            GainSet.from_diagonals([1, 1, -1], [1] * 3, [1] * 3, [1] * 3)


class TestCommandedOrientation:
    def test_identity_when_thrust_is_up(self):
        q = commanded_orientation(Vec3(0, 0, 5.0))
        assert q == LEVEL_QUAT

    def test_hand_worked_tilt(self):
        # thrust 45 degrees over in xz: z_cmd = (1,0,1)/sqrt(2),
        # y stays (0,1,0), x re-orthonormalizes to (1,0,-1)/sqrt(2)
        x, y, z = basis(commanded_orientation(Vec3(1.0, 0.0, 1.0))).T
        s = 1.0 / math.sqrt(2.0)
        assert tuple(z) == pytest.approx((s, 0.0, s), abs=1e-12)
        assert tuple(y) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)
        assert tuple(x) == pytest.approx((s, 0.0, -s), abs=1e-12)

    def test_zero_force_rejected(self):
        with pytest.raises(ZeroDesiredForceError):
            commanded_orientation(Vec3(0.0, 0.0, 0.05))

    def test_random_property_orthonormal(self):
        rng = np.random.default_rng(0)
        kept = 0
        while kept < 500:
            f = Vec3(*rng.normal(scale=5.0, size=3))
            if f.norm() <= 0.5:
                continue
            try:
                q = commanded_orientation(f)
            except DegenerateOrientationError:
                continue
            kept += 1
            m = basis(q)
            assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-9
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-9)
            # body z carries the thrust direction
            fn = np.asarray(f.as_tuple()) / f.norm()
            assert np.allclose(m[:, 2], fn, atol=1e-9)

    def test_thrust_projection_hand_value(self):
        val = desired_normalized_thrust(Vec3(0, 0, 9.81), LEVEL_QUAT, 0.05)
        assert val == pytest.approx(0.4905, rel=1e-12)

    def test_tilted_projection_shrinks(self):
        q_tilt = commanded_orientation(Vec3(1.0, 0.0, 1.0))
        up = Vec3(0, 0, 10.0)
        assert desired_normalized_thrust(up, q_tilt, 0.05) \
            < desired_normalized_thrust(up, LEVEL_QUAT, 0.05)

    def test_bad_thrust_constant(self):
        with pytest.raises(ValueError):
            desired_normalized_thrust(Vec3(0, 0, 1), LEVEL_QUAT, 0.0)

    def test_commanded_attitude_pinned(self):
        # tilted attitudes bit for bit, which the level flights' pinned digests
        # never reach; float arithmetic only, no BLAS.  A force with no upward
        # part has no commanded attitude, and its exception name is hashed.
        h = hashlib.sha256()
        rng = np.random.default_rng(2024)
        for _ in range(3000):
            f = Vec3(*rng.normal(scale=5.0, size=3).tolist())
            try:
                q = commanded_orientation(f)
            except (ZeroDesiredForceError, DegenerateOrientationError) as exc:
                h.update(f"{type(exc).__name__}\n".encode())
                continue
            cells = (*q, desired_normalized_thrust(f, q, 0.05))
            h.update((" ".join(v.hex() for v in cells) + "\n").encode())
        assert h.hexdigest() == \
            "695497f6623f9fae722309a2fcf29ccdd7cb21624cbe8b81370d4472f91e0815"


SIGNED_ZERO = st.sampled_from([0.0, -0.0])
SUBNORMAL = st.floats(-2.0 ** -1022, 2.0 ** -1022)  # ±0.0 and subnormals included
ERROR = SIGNED_ZERO | SUBNORMAL | st.floats(-1e3, 1e3) | st.sampled_from([1e-300, -1e-300])
GAIN = st.floats(1e-3, 1e3)


def hexes(values):
    return [v.hex() for v in values]


@st.composite
def diagonal_gains(draw):
    return GainSet.from_diagonals(*(draw(st.tuples(GAIN, GAIN, GAIN)) for _ in range(4)))


@st.composite
def tracking_error(draw):
    """An error vector whose x and y are often exact zeros of either sign."""
    xy = st.one_of(SIGNED_ZERO, ERROR)
    return Vec3(draw(xy), draw(xy), draw(ERROR))


def commanded_orientation_vec3(f_des):
    """commanded_orientation as the chain of Vec3 operations it was first
    written with: the oracle its float arithmetic must match bit for bit."""
    def normalized(v):
        n = v.norm()
        if n <= EPS_PARALLEL:
            raise DegenerateOrientationError(
                f"cannot normalize near-zero vector: norm {n!r} below {EPS_PARALLEL}")
        return v.scaled(1.0 / n)

    n = f_des.norm()
    if n <= MIN_DESIRED_FORCE:
        raise ZeroDesiredForceError(f"desired force norm {n:.3e} N too small")
    z_cmd = f_des.scaled(1.0 / n)
    y_cmd = normalized(z_cmd.cross(Vec3(1.0, 0.0, 0.0)))
    x_raw = y_cmd.cross(Vec3(0.0, 0.0, 1.0))
    x_ortho = x_raw - z_cmd.scaled(x_raw.dot(z_cmd)) - y_cmd.scaled(x_raw.dot(y_cmd))
    handed = x_raw.dot(y_cmd.cross(z_cmd))
    if x_ortho.norm() <= 1e-8 or handed <= 0.0:
        raise DegenerateOrientationError("commanded frame collapsed or left-handed")
    return quat_from_columns(normalized(x_ortho).as_tuple(), y_cmd.as_tuple(),
                             z_cmd.as_tuple())


def outcome(fn, *args):
    """The hex of fn's float results, or its exception's type and message."""
    try:
        result = fn(*args)
    except (ZeroDesiredForceError, DegenerateOrientationError) as exc:
        return type(exc).__name__, str(exc)
    return hexes(result)


@st.composite
def desired_forces(draw):
    """Forces at the minimum norm give or take an ulp, along x (a collapsed
    frame), pointing down (left-handed) and with signed-zero components."""
    kind = draw(st.sampled_from(["any", "threshold", "along_x", "signed_zeros"]))
    component = SIGNED_ZERO | st.floats(-50.0, 50.0) | st.floats(1.0, 50.0)
    if kind == "any":
        return Vec3(draw(component), draw(component), draw(component))
    if kind == "threshold":
        axis = draw(st.integers(0, 2))
        v = [draw(SIGNED_ZERO) for _ in range(3)]
        v[axis] = draw(st.sampled_from([1.0, -1.0])) * math.nextafter(
            MIN_DESIRED_FORCE, draw(st.sampled_from([0.0, math.inf, MIN_DESIRED_FORCE])))
        return Vec3(*v)
    if kind == "along_x":
        tiny = SIGNED_ZERO | st.floats(-1e-7, 1e-7)
        return Vec3(draw(st.floats(0.2, 50.0) | st.floats(-50.0, -0.2)), draw(tiny),
                    draw(tiny))
    return Vec3(draw(component), draw(SIGNED_ZERO), draw(component | SIGNED_ZERO))


class TestTickBitForBit:
    """The controller tick's float arithmetic against numpy and against the
    Vec3 chain it replaced, compared with float.hex so signed zeros count."""

    @settings(max_examples=400, deadline=None)
    @given(diagonal_gains(), tracking_error(), tracking_error(), st.floats(0.01, 10.0),
           st.sampled_from(list(MachineState)))
    @example(unit_gains(), Vec3(-0.0, 0.0, -0.0), Vec3(0.0, -0.0, -0.0), 0.65,
             MachineState.FREE)
    @example(unit_gains(), Vec3(1e-300, -1e-300, 0.0), Vec3(-5e-324, 0.0, 5e-324), 1.0,
             MachineState.HOLD)
    def test_desired_force_bit_for_bit_with_numpy(self, gains, e_p, e_v, mass, state):
        kp, kv = (np.array(m) for m in select_gains(state, gains))
        ep, ev = np.asarray(e_p.as_tuple()), np.asarray(e_v.as_tuple())
        want = -kp @ ep - kv @ ev - mass * np.asarray(GRAVITY)
        got = desired_force(e_p, e_v, gains, mass, state)
        assert hexes(got.as_tuple()) == hexes(want.tolist())

    @settings(max_examples=600, deadline=None)
    @given(desired_forces())
    @example(Vec3(0.0, 0.0, MIN_DESIRED_FORCE))
    @example(Vec3(0.0, -0.0, math.nextafter(MIN_DESIRED_FORCE, 1.0)))
    @example(Vec3(3.0, 0.0, 0.0))
    @example(Vec3(0.0, 0.0, -5.0))
    @example(Vec3(-0.0, -0.0, 5.0))
    def test_commanded_orientation_bit_for_bit_with_vec3_chain(self, f):
        want = outcome(commanded_orientation_vec3, f)
        assert outcome(commanded_orientation, f) == want
        if isinstance(want, list):
            q = commanded_orientation(f)
            assert desired_normalized_thrust(f, q, 0.05).hex() == \
                (0.05 * f.dot(Vec3(*body_z(*q)))).hex()


def transcript_params():
    # binary-friendly constants so the hand arithmetic below is exact
    return ThrustMachineParams(delta_f=0.01, k_p=0.5, k_i=0.4, k_d=0.016,
                               hold_duration=0.375, contact_deadband=0.2,
                               max_thrust=1.0)


class TestThrustMachineTranscript:
    """Tick-by-tick walk through every branch with hand-checked outputs."""

    def test_full_transcript(self):
        m = ThrustMachine(params=transcript_params())
        f_dc = 1.0

        # FREE: passthrough, no contact yet
        assert thrust_step(m, 0.5, 0.0, f_dc, 0.0) == 0.5
        assert m.state is MachineState.FREE
        assert thrust_step(m, 0.5, 0.15, f_dc, 0.125) == 0.5
        assert m.state is MachineState.FREE

        # contact crosses the deadband: transition tick still passes through
        assert thrust_step(m, 0.5, 0.25, f_dc, 0.25) == 0.5
        assert m.state is MachineState.SEARCH

        # SEARCH: ramp by delta_f per tick until f_oc reaches f_dc
        out = thrust_step(m, 0.5, 0.5, f_dc, 0.375)
        assert out == pytest.approx(0.51, abs=1e-15)
        assert m.state is MachineState.SEARCH
        out = thrust_step(m, 0.5, 1.0, f_dc, 0.5)
        assert out == pytest.approx(0.52, abs=1e-15)
        assert m.state is MachineState.HOLD
        assert m.f_hold == pytest.approx(0.52, abs=1e-15)
        assert m.integral == 0.0 and m.e_prev == 0.0
        assert m.t_prev == 0.5 and m.t_hold_start == 0.5

        # HOLD tick 1: e = 0.25
        # P = 0.5*0.25 = 0.125, I = 0.4*0.25*0.125 = 0.0125,
        # D = 0.016*0.25/0.125 = 0.032 -> 0.52+0.125+0.0125+0.032 = 0.6895
        out = thrust_step(m, 0.5, 1.25, f_dc, 0.625)
        assert out == pytest.approx(0.6895, abs=1e-12)
        assert not m.done

        # HOLD tick 2: e = -0.125
        # P = -0.0625, I = 0.0125 - 0.00625 = 0.00625,
        # D = 0.016*(-0.375)/0.125 = -0.048 -> 0.52-0.0625+0.00625-0.048
        out = thrust_step(m, 0.5, 0.875, f_dc, 0.75)
        assert out == pytest.approx(0.41575, abs=1e-12)
        assert not m.done

        # HOLD tick 3: e = 0, dwell reached
        # D = 0.016*(0.125)/0.125 = 0.016 -> 0.52+0.00625+0.016 = 0.54225
        out = thrust_step(m, 0.5, 1.0, f_dc, 0.875)
        assert out == pytest.approx(0.54225, abs=1e-12)
        assert m.done
        assert not m.saturated

    def test_done_machine_rejects_reuse(self):
        m = ThrustMachine(params=transcript_params())
        thrust_step(m, 0.5, 0.25, 1.0, 0.0)
        thrust_step(m, 0.5, 1.0, 1.0, 0.125)
        for k in range(3):
            thrust_step(m, 0.5, 1.0, 1.0, 0.25 + 0.125 * k)
        assert m.done
        with pytest.raises(RuntimeError):
            thrust_step(m, 0.5, 1.0, 1.0, 1.0)

    def test_hold_requires_advancing_time(self):
        m = ThrustMachine(params=transcript_params())
        thrust_step(m, 0.5, 0.25, 1.0, 0.0)
        thrust_step(m, 0.5, 1.0, 1.0, 0.125)
        assert m.state is MachineState.HOLD
        with pytest.raises(ValueError):
            thrust_step(m, 0.5, 1.0, 1.0, 0.125)

    def test_non_finite_rejected(self):
        m = ThrustMachine(params=transcript_params())
        with pytest.raises(ValueError):
            thrust_step(m, 0.5, math.nan, 1.0, 0.0)


class TestThrustMachineProperties:
    def test_free_is_pure_passthrough(self):
        m = ThrustMachine(params=transcript_params())
        rng = np.random.default_rng(1)
        for k in range(50):
            hat = float(rng.uniform(0.0, 1.0))
            assert thrust_step(m, hat, 0.0, 1.0, k * 0.1) == hat
            assert m.state is MachineState.FREE

    def test_deadband_is_strict(self):
        m = ThrustMachine(params=transcript_params())
        thrust_step(m, 0.3, 0.2, 1.0, 0.0)  # exactly at the deadband
        assert m.state is MachineState.FREE
        thrust_step(m, 0.3, 0.2000001, 1.0, 0.1)
        assert m.state is MachineState.SEARCH

    def test_never_skips_search(self):
        # even a huge sensed force on the FREE tick must route through SEARCH
        m = ThrustMachine(params=transcript_params())
        thrust_step(m, 0.4, 50.0, 1.0, 0.0)
        assert m.state is MachineState.SEARCH
        thrust_step(m, 0.4, 50.0, 1.0, 0.1)
        assert m.state is MachineState.HOLD

    def test_search_ramp_is_strictly_increasing(self):
        m = ThrustMachine(params=transcript_params())
        thrust_step(m, 0.3, 0.25, 1.0, 0.0)
        prev = m.f_cmd
        for k in range(1, 20):
            out = thrust_step(m, 0.3, 0.25, 1.0, k * 0.1)
            assert out > prev
            assert out == pytest.approx(0.3 + k * 0.01, abs=1e-12)
            prev = out

    def test_search_clamps_and_flags_saturation(self):
        p = ThrustMachineParams(delta_f=0.2, k_p=-0.01, k_i=-0.9, k_d=-0.0005,
                                hold_duration=1.0, contact_deadband=0.2,
                                max_thrust=1.0)
        m = ThrustMachine(params=p)
        thrust_step(m, 0.95, 0.25, 5.0, 0.0)
        assert not m.saturated
        for k in range(1, 4):
            out = thrust_step(m, 0.95, 0.25, 5.0, k * 0.1)
        assert out == 1.0
        assert m.saturated

    def test_hold_lower_clamp(self):
        p = ThrustMachineParams(delta_f=0.01, k_p=5.0, k_i=0.0, k_d=0.0,
                                hold_duration=1.0, contact_deadband=0.2,
                                max_thrust=1.0)
        m = ThrustMachine(params=p)
        thrust_step(m, 0.3, 0.25, 1.0, 0.0)
        thrust_step(m, 0.3, 1.0, 1.0, 0.1)
        out = thrust_step(m, 0.3, 0.0, 1.0, 0.2)  # e = -1 -> cmd ~ -4.7
        assert out == 0.0
        assert m.saturated

    def test_pid_accumulator_brute_force_oracle(self):
        p = ThrustMachineParams(delta_f=0.004, k_p=-0.02, k_i=-0.7, k_d=-0.001,
                                hold_duration=1e9, contact_deadband=0.2,
                                max_thrust=10.0)
        m = ThrustMachine(params=p)
        thrust_step(m, 0.3, 0.25, 1.0, 0.0)
        t = 0.05
        thrust_step(m, 0.3, 5.0, 1.0, t)
        assert m.state is MachineState.HOLD
        f_hold = m.f_hold
        rng = np.random.default_rng(2)
        integral, e_prev, t_prev = 0.0, 0.0, t
        for _ in range(400):
            t += float(rng.uniform(0.01, 0.1))
            f_oc = float(rng.uniform(0.0, 2.0))
            out = thrust_step(m, 0.3, f_oc, 1.0, t)
            dt = t - t_prev
            e = f_oc - 1.0
            integral += p.k_i * e * dt
            expect = f_hold + p.k_p * e + integral + p.k_d * (e - e_prev) / dt
            expect = min(max(expect, 0.0), p.max_thrust)
            e_prev, t_prev = e, t
            assert out == pytest.approx(expect, abs=1e-12)
            assert m.integral == pytest.approx(integral, abs=1e-12)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ThrustMachineParams(delta_f=0.0)
        with pytest.raises(ValueError):
            ThrustMachineParams(hold_duration=-1.0)
        with pytest.raises(ValueError):
            ThrustMachineParams(contact_deadband=-0.1)
        with pytest.raises(ValueError):
            ThrustMachineParams(max_thrust=0.0)


class TestForceProfile:
    def test_constant(self):
        prof = ForceProfile(offset=3.0)
        assert prof.value(0.0) == 3.0
        assert prof.value(12.3) == 3.0

    def test_sine_quarter_period(self):
        prof = ForceProfile(offset=3.0, amplitude=1.0, frequency_hz=0.25)
        assert prof.value(1.0) == pytest.approx(4.0, rel=1e-12)
        assert prof.value(3.0) == pytest.approx(2.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ForceProfile(offset=0.0)
        with pytest.raises(ValueError):
            ForceProfile(offset=1.0, amplitude=-0.1)


class TestSearchTrajectory:
    def test_ramp_from_z_low(self):
        seq = SetpointSequence(z_low=1.2, z_high=1.6, search_speed=0.08)
        m = ThrustMachine()
        p, v = search_trajectory(0.0, seq, m)
        assert p.as_tuple() == pytest.approx((0.0, 0.0, 1.2))
        assert v.z == pytest.approx(0.08)
        p, v = search_trajectory(2.5, seq, m)
        assert p.z == pytest.approx(1.2 + 0.08 * 2.5)

    def test_tops_out_then_raises(self):
        seq = SetpointSequence(z_low=1.2, z_high=1.6, search_speed=0.08, grace=2.0)
        m = ThrustMachine()
        ramp_time = 0.4 / 0.08
        p, v = search_trajectory(ramp_time + 1.0, seq, m)
        assert p.z == pytest.approx(1.6)
        assert v.z == 0.0
        with pytest.raises(SurfaceNotFoundError):
            search_trajectory(ramp_time + 2.01, seq, m)

    def test_search_state_suppresses_timeout(self):
        seq = SetpointSequence(grace=1.0)
        m = ThrustMachine(state=MachineState.SEARCH)
        search_trajectory(100.0, seq, m)  # no raise while in contact search

    def test_hold_freezes_setpoint(self):
        seq = SetpointSequence(z_low=1.2, z_high=1.6, search_speed=0.08)
        m = ThrustMachine(state=MachineState.HOLD, t_hold_start=2.0)
        p1, v1 = search_trajectory(2.0, seq, m)
        p2, v2 = search_trajectory(4.0, seq, m)
        assert p1.z == p2.z == pytest.approx(1.2 + 0.08 * 2.0)
        assert v1.z == v2.z == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SetpointSequence(z_low=1.6, z_high=1.2)
        with pytest.raises(ValueError):
            SetpointSequence(search_speed=0.0)
