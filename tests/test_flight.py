"""Plant integration, contact physics, sensing-in-the-loop, and missions."""

import dataclasses
import json
import math
import struct
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capft import dataio, flight
from capft.calibration import CalibrationModel, fit, tare
from capft.controller import ForceProfile, MachineState, ZeroDesiredForceError
from capft.core import (GRAVITY, LEVEL_QUAT, DegenerateOrientationError, Vec3, body_z,
                        normalize_quat, slerp_quat, snap_unit_quat)
from capft.flight import (
    Command,
    ContactEnv,
    FlightState,
    PlantParams,
    SensedRangeFault,
    SensingStack,
    SimConfig,
    SimulationFault,
    TRACE_COLUMNS,
    TraceRow,
    _due_step,
    config_from_dict,
    default_config,
    press_force,
    rows_to_csv_lines,
    run_mission,
    sense,
    simulate_deploy,
    simulate_track_sine,
    step_plant,
)
from capft.sensor_model import default_sensor_params

G = 9.81


@pytest.fixture(scope="module")
def sensor_params():
    return default_sensor_params()


@pytest.fixture(scope="module")
def quick_model(sensor_params):
    trials = [dataio.generate_trial(
        dataio.full_range_scenario(name=f"m{i}", duration=12.0, seed=300 + i),
        sensor_params) for i in range(3)]
    base = tare(dataio.generate_trial(
        dataio.no_load_scenario(seed=310), sensor_params).counts)
    counts = np.concatenate([t.counts for t in trials])
    wrenches = np.concatenate([t.wrench for t in trials])
    return fit(counts, wrenches, base)


def at_rest(z, v=0.0, attached=False):
    return FlightState(0.0, 0.0, z, 0.0, 0.0, v, LEVEL_QUAT, payload_attached=attached)


def unit_quat(w, x, y, z):
    """The unit quaternion along arbitrary nonzero components."""
    return snap_unit_quat(*normalize_quat(w, x, y, z))


def hover_command(plant):
    return Command(f_cmd_hat=plant.k_f * plant.mass * G, q_cmd=LEVEL_QUAT)


def step_plant_reference(state, cmd, params, env, dt):
    """The plant step composed from core Vec3 and quaternion operations."""
    alpha = 1.0 - math.exp(-dt / params.tau_att)
    q_new = snap_unit_quat(*slerp_quat(state.q, cmd.q_cmd, alpha))
    z_body = Vec3(*body_z(*q_new))
    thrust = min(max(cmd.f_cmd_hat, 0.0), params.max_thrust_hat) / params.k_f
    f_c = press_force(state.pz, state.vz, env)  # takes its own output, so it chains
    attached = state.payload_attached
    mass = params.mass + (env.payload_mass if attached else 0.0)
    accel = z_body.scaled(thrust / mass) + Vec3(*GRAVITY) + Vec3(0.0, 0.0, -f_c / mass)
    if attached and f_c > env.adhesion_threshold:
        attached = False
    v_new = Vec3(state.vx, state.vy, state.vz) + accel.scaled(dt)
    p_new = Vec3(state.px, state.py, state.pz) + v_new.scaled(dt)
    return FlightState(*p_new.as_tuple(), *v_new.as_tuple(), q_new, attached)


def state_bits(s):
    """Every float of a state as hex, so -0.0 and 0.0 differ."""
    floats = (*s[:6], *s.q)
    return tuple(v.hex() for v in floats), s.payload_attached


def flip_zeros(q):
    """q with the sign of each zero component flipped."""
    return tuple(-v if v == 0.0 else v for v in q)


def settled_attitude(q_cmd, alpha):
    """A bit-exact fixed point of the held command q_cmd, reached from q_cmd:
    the snapped attitude once a step gives back the one it started from.
    The last bits of a small component can creep toward it
    for thousands of steps (about 2,500 at alpha 2e-4), and at alpha 0,
    where nothing pulls them, a tiny component keeps shrinking by an ulp a
    step; then the attitude after 10,000 steps, still creeping, stands in."""
    q = q_cmd
    for _ in range(10_000):
        q_new = snap_unit_quat(*slerp_quat(q, q_cmd, alpha))
        if struct.pack("4d", *q_new) == struct.pack("4d", *q):
            break
        q = q_new
    return q_new


SIGNED_ZERO = st.sampled_from([0.0, -0.0])
COMPONENT = SIGNED_ZERO | st.floats(-1.0, 1.0)
NO_ALPHA = 1e15  # a tau_att at which alpha = 1 - exp(-dt / tau_att) rounds to 0


@st.composite
def held_attitudes(draw):
    """(state q, command components, tau_att, dt): a level, tilted,
    near-settled or settled attitude under a command with signed zeros."""
    cmd = draw(st.tuples(st.just(1.0), SIGNED_ZERO, SIGNED_ZERO, SIGNED_ZERO)
               | st.tuples(st.floats(0.1, 1.0), COMPONENT, COMPONENT, COMPONENT))
    tau = draw(st.sampled_from([0.05, 0.005, NO_ALPHA]))
    dt = draw(st.floats(1e-5, 0.01))
    kind = draw(st.sampled_from(["level", "tilted", "near", "settled"]))
    if kind == "level":
        q = (1.0, draw(SIGNED_ZERO), draw(SIGNED_ZERO), draw(SIGNED_ZERO))
    elif kind == "tilted":
        q = unit_quat(draw(st.floats(0.1, 1.0)), draw(COMPONENT), draw(COMPONENT),
                      draw(COMPONENT))
    else:
        q = list(settled_attitude(unit_quat(*cmd), 1.0 - math.exp(-dt / tau)))
        if kind == "near":  # a few ulps off one component, then snapped
            i, ulps = draw(st.integers(0, 3)), draw(st.integers(1, 8))
            toward = draw(st.sampled_from([-math.inf, math.inf]))
            for _ in range(ulps):
                q[i] = math.nextafter(q[i], toward)
            q = snap_unit_quat(*q)
    return tuple(q), cmd, tau, dt


def interleaved_chains(chains, dt, splits):
    """step_plant on each (q, command components, tau_att) chain in turn, n
    steps a call for each n in splits, held equal under state_bits to n
    chained step_plant_reference steps after every call; returns the last
    states."""
    env = ContactEnv()
    runs = []
    for q, cmd, tau in chains:
        state = FlightState(0.3, -0.2, 1.0, 0.0, 0.0, 0.0, q, payload_attached=False)
        runs.append([state, state, Command(f_cmd_hat=0.35, q_cmd=unit_quat(*cmd)),
                     PlantParams(tau_att=tau)])
    for n in splits:
        for run in runs:
            state, ref, cmd, plant = run
            state, _, _ = step_plant(state, cmd, plant, env, dt, steps=n)
            for _ in range(n):
                ref = step_plant_reference(ref, cmd, plant, env, dt)
            assert state_bits(state) == state_bits(ref)
            run[:2] = state, ref
    return [run[0] for run in runs]


FINITE = SIGNED_ZERO | st.floats(allow_nan=False, allow_infinity=False)
ANY_FLOAT = SIGNED_ZERO | st.floats()


@st.composite
def trace_rows(draw):
    """A TraceRow of any state: any unit attitude, signed zeros among
    position and velocity, either payload flag."""
    q = unit_quat(draw(st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)),
                  draw(COMPONENT), draw(COMPONENT), draw(COMPONENT))
    state = FlightState(*(draw(FINITE) for _ in range(6)), q, draw(st.booleans()))
    return TraceRow(draw(st.floats(0.0, 100.0)), state, draw(FINITE), draw(FINITE),
                    draw(FINITE), draw(st.sampled_from([m.value for m in MachineState])))


def object_rendering(row):
    """A trace line from the state's named fields: the repr of px..vz and of
    the snapped attitude q."""
    s = row.state
    cells = [repr(v) for v in (row.t, s.px, s.py, s.pz, s.vx, s.vy, s.vz, *s.q,
                               row.f_oc, row.f_dc, row.f_cmd_hat)]
    return ",".join(cells + [row.machine_state, "1" if row.payload_attached else "0"])


LEVEL = (1.0, 0.0, 0.0, 0.0)
LEVEL_NEG_X = (1.0, -0.0, 0.0, 0.0)
TILT = (math.cos(0.3), -0.0, math.sin(0.3), 0.0)
# At alpha = 0 a level attitude stays level under a tilted command, and each
# zero component becomes its sum with 0 times the command's: -0.0 only when
# both are -0.0.  Each pair starts from memo keys that differ only in what
# it names, and ends at different bits.
KEY_TWINS = {
    "state zero sign": ((LEVEL_NEG_X, TILT, NO_ALPHA), (LEVEL, TILT, NO_ALPHA)),
    "command zero sign": ((LEVEL_NEG_X, TILT, NO_ALPHA),
                          (LEVEL_NEG_X, flip_zeros(TILT), NO_ALPHA)),
    "alpha": ((LEVEL, TILT, NO_ALPHA), (LEVEL, TILT, 0.05)),
    "command": ((LEVEL, LEVEL, 0.05), (LEVEL, TILT, 0.05)),
}


class TestContactForce:
    def setup_method(self):
        self.env = ContactEnv()

    def test_separated(self):
        s = at_rest(self.env.surface_z - self.env.tip_offset - 0.01, v=2.0)
        assert press_force(s.pz, s.vz, self.env) == 0.0

    def test_static_spring_hand_value(self):
        s = at_rest(self.env.surface_z - self.env.tip_offset + 0.004)
        assert press_force(s.pz, s.vz, self.env) == pytest.approx(
            self.env.contact_stiffness * 0.004, rel=1e-12)

    def test_approach_damping_added(self):
        s = at_rest(self.env.surface_z - self.env.tip_offset + 0.004, v=0.1)
        expect = self.env.contact_stiffness * 0.004 + self.env.contact_damping * 0.1
        assert press_force(s.pz, s.vz, self.env) == pytest.approx(expect, rel=1e-12)

    def test_recede_has_no_damping(self):
        s = at_rest(self.env.surface_z - self.env.tip_offset + 0.004, v=-3.0)
        assert press_force(s.pz, s.vz, self.env) == pytest.approx(
            self.env.contact_stiffness * 0.004, rel=1e-12)

    def test_first_contact_is_continuous(self):
        # force on the first penetrating step is bounded by one step of travel
        env = self.env
        plant = PlantParams()
        s = at_rest(env.surface_z - env.tip_offset - 0.002, v=0.5)
        cmd = hover_command(plant)
        prev = 0.0
        for _ in range(20):
            s, _, _ = step_plant(s, cmd, plant, env, 0.001)
            f = press_force(s.pz, s.vz, env)
            if f > 0.0:
                bound = env.contact_stiffness * s.vz * 0.001 \
                    + env.contact_damping * s.vz
                assert prev == 0.0
                assert f <= bound + 1e-9
                break
            prev = f
        else:
            pytest.fail("never made contact")

    @settings(max_examples=300, deadline=None)
    @given(pz=ANY_FLOAT, vz=ANY_FLOAT, surface_z=FINITE, tip_offset=FINITE,
           stiffness=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           damping=SIGNED_ZERO | st.floats(min_value=0.0, allow_infinity=False))
    @example(pz=math.nan, vz=1.0, surface_z=0.0, tip_offset=0.0, stiffness=1.0, damping=1.0)
    @example(pz=1.0, vz=math.nan, surface_z=0.0, tip_offset=0.0, stiffness=1.0, damping=1.0)
    @example(pz=1.0, vz=math.inf, surface_z=0.0, tip_offset=0.0, stiffness=1.0, damping=0.0)
    @example(pz=1.0, vz=math.inf, surface_z=0.0, tip_offset=0.0, stiffness=1.0, damping=1.0)
    @example(pz=1e300, vz=-0.0, surface_z=0.0, tip_offset=0.0, stiffness=1e10, damping=-0.0)
    @example(pz=5e-324, vz=-0.0, surface_z=0.0, tip_offset=0.0, stiffness=0.5, damping=-0.0)
    def test_equals_builtin_max_form(self, pz, vz, surface_z, tip_offset, stiffness, damping):
        # the clamps compare instead of calling max, with max's result for
        # signed zeros, inf and NaN alike
        env = ContactEnv(surface_z=surface_z, tip_offset=tip_offset,
                         contact_stiffness=stiffness, contact_damping=damping)
        penetration = pz + tip_offset - surface_z
        want = 0.0 if penetration <= 0.0 else max(
            0.0, stiffness * penetration + damping * max(0.0, vz))
        got = press_force(pz, vz, env)
        assert struct.pack("d", got) == struct.pack("d", want)
        assert struct.pack("d", got) != struct.pack("d", -0.0)


class TestPlant:
    def test_hover_balance(self):
        plant = PlantParams()
        env = ContactEnv()
        s = at_rest(1.0)
        cmd = hover_command(plant)
        for _ in range(1000):
            s, _, _ = step_plant(s, cmd, plant, env, 0.001)
        assert abs(s.vz) < 1e-9
        assert abs(s.pz - 1.0) < 1e-9

    def test_free_fall_rate(self):
        plant = PlantParams()
        env = dataclasses.replace(ContactEnv(), surface_z=1e6)
        s = at_rest(100.0)
        cmd = Command(f_cmd_hat=0.0, q_cmd=LEVEL_QUAT)
        n = 500
        for _ in range(n):
            s, _, _ = step_plant(s, cmd, plant, env, 0.001)
        assert s.vz == pytest.approx(-G * n * 0.001, rel=1e-9)

    def test_press_settles_at_spring_balance(self):
        # constant 2 N of surplus thrust -> 4 mm steady-state penetration
        plant = PlantParams()
        env = ContactEnv()
        surplus = 2.0
        cmd = Command(f_cmd_hat=plant.k_f * (plant.mass * G + surplus),
                      q_cmd=LEVEL_QUAT)
        s = at_rest(env.surface_z - env.tip_offset + 0.001)
        for _ in range(6000):
            s, _, _ = step_plant(s, cmd, plant, env, 0.001)
        penetration = s.pz + env.tip_offset - env.surface_z
        assert penetration == pytest.approx(surplus / env.contact_stiffness, rel=0.05)
        assert abs(s.vz) < 0.01

    def test_energy_drift_bounded(self):
        # ballistic arc: symplectic integration keeps the drift tiny
        plant = PlantParams()
        env = dataclasses.replace(ContactEnv(), surface_z=1e6)
        cmd = Command(f_cmd_hat=0.0, q_cmd=LEVEL_QUAT)
        s = at_rest(0.0, v=35.0)

        def energy(st):
            v2 = sum(c * c for c in (st.vx, st.vy, st.vz))
            return 0.5 * plant.mass * v2 + plant.mass * G * st.pz

        e0 = energy(s)
        peak_ke = 0.5 * plant.mass * 35.0 ** 2
        worst = 0.0
        for _ in range(10000):
            s, _, _ = step_plant(s, cmd, plant, env, 0.001)
            peak_ke = max(peak_ke, 0.5 * plant.mass
                          * sum(c * c for c in (s.vx, s.vy, s.vz)))
            worst = max(worst, abs(energy(s) - e0))
        assert worst / peak_ke <= 1e-3

    def test_dt_bounds(self):
        plant = PlantParams()
        env = ContactEnv()
        s = at_rest(1.0)
        cmd = hover_command(plant)
        with pytest.raises(ValueError):
            step_plant(s, cmd, plant, env, 0.0)
        with pytest.raises(ValueError):
            step_plant(s, cmd, plant, env, 0.02)

    def test_non_finite_state_rejected(self):
        # no Vec3 is built per step, so step_plant checks the new p and v itself
        plant = PlantParams()
        env = ContactEnv()
        s = at_rest(1.0)._replace(px=1.7976e308, vx=1e308)
        with pytest.raises(ValueError, match="non-finite"):
            step_plant(s, hover_command(plant), plant, env, 0.001)

    def test_matches_vec3_reference_bit_for_bit(self):
        rng = np.random.default_rng(11)
        plant = PlantParams()
        env = ContactEnv(payload_mass=0.095)
        seen = Counter()
        for _ in range(3000):
            # tip within 2 cm of the surface either way; some exact zeros
            # in velocity and attitude exercise signed-zero arithmetic
            z = env.surface_z - env.tip_offset + rng.uniform(-0.02, 0.02)
            vel = rng.normal(scale=0.5, size=3) * (rng.random(3) < 0.8)
            vel[rng.random(3) < 0.1] = -0.0
            q = rng.normal(size=4) * (rng.random(4) < 0.7)
            q[0] += 0.1
            state = FlightState(*rng.normal(size=2), z, *vel, unit_quat(*q),
                                payload_attached=bool(rng.random() < 0.5))
            q_cmd = state.q if rng.random() < 0.2 \
                else unit_quat(*rng.normal(size=4))
            cmd = Command(f_cmd_hat=float(rng.uniform(-0.5, 1.5)), q_cmd=q_cmd)
            dt = float(rng.uniform(1e-5, 0.01))
            got, _, _ = step_plant(state, cmd, plant, env, dt)
            assert state_bits(got) == state_bits(
                step_plant_reference(state, cmd, plant, env, dt))
            f_c = press_force(state.pz, state.vz, env)
            seen["separated"] += f_c == 0.0
            seen["approaching"] += f_c > 0.0 and state.vz > 0.0
            seen["receding"] += f_c > 0.0 and state.vz <= 0.0
            seen["detach"] += state.payload_attached and not got.payload_attached
            seen["thrust_at_zero"] += cmd.f_cmd_hat <= 0.0
            seen["thrust_at_max"] += cmd.f_cmd_hat >= plant.max_thrust_hat
        assert min(seen[k] for k in ("separated", "approaching", "receding", "detach",
                                     "thrust_at_zero", "thrust_at_max")) > 0, seen

    @staticmethod
    def assert_steps_match_chain(state, cmd, plant, env, dt, n):
        """steps=n against n one-step calls; returns the chained states."""
        chained = []
        s = state
        for _ in range(n):
            s, peak, press = step_plant(s, cmd, plant, env, dt)
            assert peak == press == press_force(s.pz, s.vz, env)
            chained.append(s)
        got, peak, press = step_plant(state, cmd, plant, env, dt, steps=n)
        assert state_bits(got) == state_bits(chained[-1])
        assert press.hex() == press_force(got.pz, got.vz, env).hex()
        assert peak.hex() == max(press_force(c.pz, c.vz, env) for c in chained).hex()
        return chained

    @settings(max_examples=150, deadline=None)
    @given(dz=st.floats(-0.02, 0.02),
           vel=st.tuples(*[st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0)] * 3),
           q=st.tuples(st.floats(0.1, 1.0), *[st.floats(-1.0, 1.0)] * 3),
           q_cmd=st.none() | st.tuples(st.floats(0.1, 1.0), *[st.floats(-1.0, 1.0)] * 3),
           attached=st.booleans(), f_cmd_hat=st.floats(-0.5, 1.5),
           dt=st.floats(1e-5, 0.01), n=st.integers(1, 60))
    def test_steps_equal_chained_single_steps(self, dz, vel, q, q_cmd, attached, f_cmd_hat,
                                              dt, n):
        plant = PlantParams()
        env = ContactEnv(payload_mass=0.095)
        state = FlightState(0.3, -0.2, env.surface_z - env.tip_offset + dz, *vel,
                            unit_quat(*q), payload_attached=attached)
        cmd = Command(f_cmd_hat=f_cmd_hat, q_cmd=state.q if q_cmd is None
                      else unit_quat(*q_cmd))
        self.assert_steps_match_chain(state, cmd, plant, env, dt, n)

    @pytest.mark.parametrize("case", ["detach", "separation", "thrust_at_zero",
                                      "thrust_at_max"])
    def test_steps_cover_contact_and_clamps(self, case):
        plant = PlantParams()
        env = ContactEnv(payload_mass=0.095)
        z_touch = env.surface_z - env.tip_offset
        tilt = unit_quat(math.cos(0.1), 0.0, math.sin(0.1), 0.0)
        state, cmd = {
            # a 5 N press sticks the payload on the first step
            "detach": (at_rest(z_touch + 0.01, attached=True), hover_command(plant)),
            # pressing, then falling away from the surface
            "separation": (at_rest(z_touch + 0.002, v=-0.5),
                           Command(f_cmd_hat=0.0, q_cmd=tilt)),
            "thrust_at_zero": (at_rest(z_touch - 0.01, v=0.3),
                               Command(f_cmd_hat=-0.4, q_cmd=tilt)),
            "thrust_at_max": (at_rest(z_touch - 0.01, v=0.3, attached=True),
                              Command(f_cmd_hat=1.4, q_cmd=tilt)),
        }[case]
        chained = self.assert_steps_match_chain(state, cmd, plant, env, 0.001, 40)
        forces = [press_force(s.pz, s.vz, env) for s in chained]
        if case == "detach":
            assert not chained[0].payload_attached
        if case == "separation":
            assert press_force(state.pz, state.vz, env) > 0.0 and forces[-1] == 0.0
        if case == "thrust_at_max":
            assert max(forces) > env.adhesion_threshold and not chained[-1].payload_attached

    def test_steps_below_one_rejected(self):
        plant = PlantParams()
        s = at_rest(1.0)
        for steps in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                step_plant(s, hover_command(plant), plant, ContactEnv(), 0.001, steps=steps)

    def test_steps_raise_where_the_chain_does(self):
        # the position overflows on step m + 1: steps=m matches the chain, and
        # more steps raise the chain's error
        plant = PlantParams()
        env = ContactEnv()
        cmd = hover_command(plant)
        start = at_rest(1.0)._replace(px=1.797e308 - 5e305, vx=1e308)
        s, m = start, 0
        with pytest.raises(ValueError, match="non-finite") as one_step:
            while True:
                s, _, _ = step_plant(s, cmd, plant, env, 0.001)
                m += 1
        assert m > 1
        got, _, _ = step_plant(start, cmd, plant, env, 0.001, steps=m)
        assert state_bits(got) == state_bits(s)
        with pytest.raises(ValueError) as multi:
            step_plant(start, cmd, plant, env, 0.001, steps=m + 3)
        assert str(multi.value) == str(one_step.value)

    def test_attitude_relaxes_toward_command(self):
        plant = PlantParams()
        env = dataclasses.replace(ContactEnv(), surface_z=1e6)
        tilt = unit_quat(math.cos(0.2), 0.0, math.sin(0.2), 0.0)
        cmd = Command(f_cmd_hat=0.3, q_cmd=tilt)
        s = at_rest(0.0)
        gaps = []
        for _ in range(400):
            s, _, _ = step_plant(s, cmd, plant, env, 0.001)
            gaps.append(abs(sum(a * b for a, b in zip(s.q, tilt))))
        # monotone convergence to the commanded attitude, ~tau = 50 ms
        assert gaps[-1] > 0.99999
        assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))



class TestSettledAttitude:
    """step_plant's reuse of an attitude at a fixed point of the held command,
    within a call and, through its memo, across calls."""

    @settings(max_examples=150, deadline=None)
    @given(case=held_attitudes(),
           twin=st.sampled_from(["same", "state zero sign", "command zero sign", "alpha"]),
           splits=st.lists(st.integers(1, 25), min_size=1, max_size=4))
    @example(case=(LEVEL_NEG_X, TILT, NO_ALPHA, 0.001), twin="state zero sign", splits=[3, 3])
    @example(case=(LEVEL_NEG_X, TILT, NO_ALPHA, 0.001), twin="command zero sign",
             splits=[3, 3])
    @example(case=(LEVEL, TILT, NO_ALPHA, 0.001), twin="alpha", splits=[3, 3])
    @example(case=(LEVEL, TILT, 0.05, 0.001), twin="same", splits=[3, 3])
    def test_steps_equal_reference_chain(self, case, twin, splits):
        # the drawn chain and a twin whose memo keys match it, or differ only
        # in the sign of zeros or in alpha, take turns
        q, cmd, tau, dt = case
        other = {"same": (q, cmd, tau), "state zero sign": (flip_zeros(q), cmd, tau),
                 "command zero sign": (q, flip_zeros(cmd), tau),
                 "alpha": (q, cmd, 0.05 if tau == NO_ALPHA else NO_ALPHA)}[twin]
        interleaved_chains([(q, cmd, tau), other], dt, splits)

    @pytest.mark.parametrize("name", sorted(KEY_TWINS))
    def test_interleaved_memo_keys(self, name):
        first, second = interleaved_chains(KEY_TWINS[name], 0.001, [3, 3, 3])
        assert state_bits(first) != state_bits(second)

    def test_held_tilt_settles(self, monkeypatch):
        # a tilted command reached from level settles too, and from then on
        # the plant slerps no more
        plant = PlantParams()
        cmd = Command(f_cmd_hat=0.3, q_cmd=unit_quat(*TILT))
        env = dataclasses.replace(ContactEnv(), surface_z=1e6)
        s, _, _ = step_plant(at_rest(0.0), cmd, plant, env, 0.001, steps=3000)
        calls = [0]
        real_slerp = flight.slerp_quat

        def counting_slerp(*args):
            calls[0] += 1
            return real_slerp(*args)

        monkeypatch.setattr(flight, "slerp_quat", counting_slerp)
        s2, _, _ = step_plant(s, cmd, plant, env, 0.001, steps=500)
        assert calls[0] == 0
        assert s2.q == s.q


def stretch_against_chain(state, cmd, plant, env, dt, n):
    """step_plant's n-step call held equal to n chained step_plant_reference
    steps: the last state bit for bit, the peak and the last press force.
    Where a one-step call raises within the n steps, the n-step call must
    raise the same type and message.  Returns the chained states and that
    error, or None."""
    chain, s = [], state
    try:
        for _ in range(n):
            step_plant(s, cmd, plant, env, dt)  # raises where one-step calls do
            s = step_plant_reference(s, cmd, plant, env, dt)
            chain.append(s)
    except ValueError as exc:
        with pytest.raises(ValueError) as multi:
            step_plant(state, cmd, plant, env, dt, steps=n)
        assert (type(multi.value), str(multi.value)) == (type(exc), str(exc))
        return chain, exc
    got, peak, press = step_plant(state, cmd, plant, env, dt, steps=n)
    forces = [press_force(c.pz, c.vz, env) for c in chain]
    assert state_bits(got) == state_bits(chain[-1])
    assert (peak.hex(), press.hex()) == (max(forces).hex(), forces[-1].hex())
    return chain, None


POSITION = SIGNED_ZERO | st.floats(-1.0, 1.0)
# velocities whose step is absorbed into a position, or underflows to a signed zero
VELOCITY = POSITION | st.sampled_from([1e-300, -1e-300, 5e-324, -5e-324])


class TestLateralFixedPoint:
    """step_plant's stretch that integrates z alone once x and y repeat."""

    @settings(max_examples=200, deadline=None)
    @given(case=held_attitudes(), lateral=st.tuples(POSITION, POSITION, VELOCITY, VELOCITY),
           dz=st.floats(-0.02, 0.02), vz=COMPONENT, attached=st.booleans(),
           f_cmd_hat=st.floats(-0.5, 1.5), n=st.integers(1, 60))
    @example(case=(LEVEL, LEVEL, 0.05, 0.001), lateral=(0.3, -0.2, -0.0, 0.0), dz=0.002,
             vz=0.05, attached=True, f_cmd_hat=1.0, n=20)
    def test_stretch_equals_reference_chain(self, case, lateral, dz, vz, attached, f_cmd_hat,
                                            n):
        # level and tilted commands from level, tilted and (near-)settled
        # attitudes, contact and payload included
        q, cmd, tau, dt = case
        env = ContactEnv(payload_mass=0.095)
        px, py, vx, vy = lateral
        state = FlightState(px, py, env.surface_z - env.tip_offset + dz, vx, vy, vz, q,
                            payload_attached=attached)
        stretch_against_chain(state, Command(f_cmd_hat=f_cmd_hat, q_cmd=unit_quat(*cmd)),
                              PlantParams(tau_att=tau), env, dt, n)

    @pytest.mark.parametrize("case", ["zero velocity of either sign", "creeping velocity",
                                      "negative zero position", "moving", "tilted",
                                      "detach", "z overflow", "thrust overflow on detach"])
    def test_named_stretches(self, case):
        plant = PlantParams()
        env = ContactEnv(payload_mass=0.095)
        hover = hover_command(plant)
        level_full = Command(f_cmd_hat=1.0, q_cmd=LEVEL_QUAT)
        z_touch = env.surface_z - env.tip_offset
        away = at_rest(1.0)._replace(px=0.3, py=-0.2)
        state, cmd = {
            "zero velocity of either sign": (away._replace(vx=-0.0), hover),
            "creeping velocity": (away._replace(vx=1e-300, vy=-5e-324), hover),
            "negative zero position": (away._replace(px=-0.0, vx=-5e-324), hover),
            "moving": (away._replace(vx=0.5, vy=-0.25), hover),
            "tilted": (away, Command(f_cmd_hat=0.35, q_cmd=unit_quat(*TILT))),
            # from a 2.5 N press, full thrust sticks the payload a few steps in
            "detach": (at_rest(z_touch + 0.002, v=0.05, attached=True), level_full),
            # falling from near the lowest float, z overflows a few steps in
            "z overflow": (at_rest(-1.797e308 + 5e305, v=-1e308), hover),
            # a 4.25 N press sticks the payload on the first step, which leaves
            # the surface; on the next, the thrust per kilogram of a vehicle
            # of 1e-309 kg alone overflows, and x turns NaN before z turns inf
            "thrust overflow on detach": (at_rest(z_touch + 0.0085, v=-10.0, attached=True),
                                          Command(f_cmd_hat=0.05, q_cmd=LEVEL_QUAT)),
        }[case]
        if case == "thrust overflow on detach":
            plant = PlantParams(mass=1e-309)
        chain, error = stretch_against_chain(state, cmd, plant, env, 0.001, 30)
        if "overflow" in case:  # after the first step, from which x and y hold
            assert error is not None and len(chain) >= 1
            assert str(error).endswith("inf" if case == "z overflow" else "nan")
            return
        assert error is None
        last = chain[-1]
        if case == "zero velocity of either sign":
            assert (last.px, last.vx.hex(), last.vy.hex()) == (0.3, "0x0.0p+0", "0x0.0p+0")
        if case == "creeping velocity":
            assert (last.px, last.py, last.vx, last.vy) == (0.3, -0.2, 1e-300, -5e-324)
        if case == "negative zero position":
            assert math.copysign(1.0, last.px) == -1.0 and last.vx == -5e-324
        if case in ("moving", "tilted"):
            assert last.px != chain[-2].px
        if case == "detach":
            assert chain[1].payload_attached and not last.payload_attached


class TestPayload:
    def setup_method(self):
        self.plant = PlantParams()
        self.env = ContactEnv(payload_mass=0.095)

    def press_state(self, force):
        z = self.env.surface_z - self.env.tip_offset + force / self.env.contact_stiffness
        return at_rest(z, attached=True)

    def test_light_press_keeps_payload(self):
        s = self.press_state(2.0)
        cmd = hover_command(self.plant)
        s2, _, _ = step_plant(s, cmd, self.plant, self.env, 0.001)
        assert s2.payload_attached

    def test_hard_press_detaches_permanently(self):
        s = self.press_state(5.0)
        cmd = hover_command(self.plant)
        s, _, _ = step_plant(s, cmd, self.plant, self.env, 0.001)
        assert not s.payload_attached
        for _ in range(200):
            s, _, _ = step_plant(s, cmd, self.plant, self.env, 0.001)
            assert not s.payload_attached

    def test_attached_mass_slows_acceleration(self):
        env_free = ContactEnv(payload_mass=0.095)
        s_att = at_rest(1.0, attached=True)
        s_det = at_rest(1.0, attached=False)
        cmd = Command(f_cmd_hat=0.5, q_cmd=LEVEL_QUAT)
        a_att = step_plant(s_att, cmd, self.plant, env_free, 0.001)[0].vz
        a_det = step_plant(s_det, cmd, self.plant, env_free, 0.001)[0].vz
        assert a_att < a_det


class TestSense:
    def test_bypass_equals_truth(self):
        env = ContactEnv(payload_mass=0.095)
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = env.surface_z - env.tip_offset + float(rng.uniform(-0.01, 0.01))
            attached = bool(rng.integers(0, 2))
            s = at_rest(z, v=float(rng.uniform(-1, 1)), attached=attached)
            expect = press_force(s.pz, s.vz, env) + (env.payload_weight if attached else 0.0)
            assert sense(s, press_force(s.pz, s.vz, env), env, None, rng) == expect

    def test_payload_weight_hand_value(self):
        env = ContactEnv(payload_mass=0.095)
        s = at_rest(1.0, attached=True)
        assert sense(s, press_force(s.pz, s.vz, env), env, None, np.random.default_rng(0)) \
            == pytest.approx(0.095 * G, rel=1e-12)

    def test_stack_is_a_sensor_and_its_model(self, sensor_params, quick_model):
        # a truth flight passes no stack, so every stack has a model to read with
        assert [f.name for f in dataclasses.fields(SensingStack)] == ["params", "model"]
        stack = SensingStack(sensor_params, quick_model)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stack.model = None
        with pytest.raises(TypeError):
            SensingStack(sensor_params)

    def test_free_flight_reads_near_zero(self, sensor_params, quick_model):
        env = ContactEnv()
        stack = SensingStack(params=sensor_params, model=quick_model)
        s = at_rest(1.0)
        rng = np.random.default_rng(3)
        vals = [sense(s, press_force(s.pz, s.vz, env), env, stack, rng) for _ in range(20)]
        assert max(vals) < 0.3
        assert np.mean(vals) < 0.12

    def test_five_newton_press_through_stack(self, sensor_params, quick_model):
        env = ContactEnv()
        stack = SensingStack(params=sensor_params, model=quick_model)
        s = at_rest(env.surface_z - env.tip_offset + 5.0 / env.contact_stiffness)
        rng = np.random.default_rng(4)
        vals = [sense(s, press_force(s.pz, s.vz, env), env, stack, rng) for _ in range(20)]
        errs = [abs(v - 5.0) for v in vals]
        assert max(errs) < 0.5
        assert np.mean(errs) < 0.2

    def test_saturation_faults(self, sensor_params):
        env = ContactEnv()
        dummy = CalibrationModel(matrix=np.zeros((6, 24)), baseline=np.zeros(12),
                                 mode="full", ridge=0.0, train_rmse=(0.0,) * 6,
                                 normal_eq_residual=0.0)
        stack = SensingStack(params=sensor_params, model=dummy)
        s = at_rest(env.surface_z - env.tip_offset + 1.2)  # ~600 N press
        with pytest.raises(SensedRangeFault):
            sense(s, press_force(s.pz, s.vz, env), env, stack, np.random.default_rng(0))


def recording_engine(engine_cls, engines):
    """engine_cls, appending each engine it builds to engines."""
    class Recorded(engine_cls):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)
    return Recorded


class PerStepEngine(flight._Engine):
    """The reference engine: the same missions, one tick at a time.

    The plant runs from one sensing or control tick to the next.  A sensing
    tick is read, and sensed, when the next sensing tick falls after the
    next control tick; with no control tick by the step budget, none is.
    """

    def run(self, control, done, deadline, what):
        cfg = self.cfg
        env, dt, hz = cfg.env, cfg.plant_dt, cfg.sensor_hz
        stop = math.ceil((deadline + flight._STEP_BUDGET_S) / dt) + 2
        next_sense = _due_step(self.ks, hz, dt, self.k, stop)
        next_control = _due_step(self.kc, cfg.control_hz, dt, self.k, stop)
        while True:
            k = self.k
            t = k * dt
            while next_sense == k:
                if next_control <= stop and not (self.ks + 1) / hz <= next_control * dt + 1e-12:
                    self.f_raw = flight.sense(self.state, self.press, env, self.stack, self.rng)
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
                next_control = _due_step(self.kc, cfg.control_hz, dt, k + 1, stop)
            if k >= stop:
                raise SimulationFault(f"{what} still running at t={t:.1f}s: no controller "
                                      f"tick since the {deadline:.1f}s deadline")
            n = min(next_sense, next_control, stop) - k
            self.state, peak, self.press = flight.step_plant(self.state, self.cmd, cfg.plant,
                                                             env, dt, n)
            self.peak_contact = max(self.peak_contact, peak)
            self.k = k + n


def fly_on(engine_cls, cfg, stack):
    """run_mission on engine_cls: its trace lines, its summary or raised
    exception, and the generator's state at the end (None on the true
    force, where the engine builds no generator)."""
    engines = []
    with mock.patch.object(flight, "_Engine", recording_engine(engine_cls, engines)):
        try:
            outcome = repr(run_mission(cfg, stack)[1])
        except Exception as exc:  # whatever either engine raises is compared
            outcome = (type(exc), str(exc))
    (eng,) = engines
    if stack is None:
        assert eng.rng is None
        return rows_to_csv_lines(eng.rows), outcome, None
    assert isinstance(eng.rng, np.random.Generator)
    return rows_to_csv_lines(eng.rows), outcome, eng.rng.bit_generator.state


def due_step_scan(j, hz, dt, k, stop):
    """The engine's per-step tick test, tried at every step from k to stop."""
    for n in range(k, stop + 1):
        if j / hz <= n * dt + 1e-12:
            return n
    return stop + 1


def scan_schedule(count, hz, dt, gap):
    """Steps of ticks 0..count-1 under the per-step test, tick j no earlier
    than gap steps after tick j - 1: 0 for sensing, 1 for control."""
    steps, n = [], 0
    for j in range(count):
        while not j / hz <= n * dt + 1e-12:
            n += 1
        steps.append(n)
        n += gap
    return steps


class TestSchedule:
    @settings(max_examples=300, deadline=None)
    @given(dt=st.floats(1e-4, 0.01), rate=st.floats(1e-6, 1.0), k=st.integers(0, 10**9),
           span=st.integers(0, 1500), at=st.floats(-0.1, 1.1), nudge=st.integers(-2, 2))
    def test_due_step_equals_scan(self, dt, rate, k, span, at, nudge):
        hz = rate / dt  # rates up to 1/dt, as SimConfig allows
        stop = k + span
        j = max(0, math.floor((k + at * span) * dt * hz) + nudge)  # a tick near the window
        assert _due_step(j, hz, dt, k, stop) == due_step_scan(j, hz, dt, k, stop)

    @settings(max_examples=300, deadline=None)
    @given(dt=st.sampled_from([2.0**-7, 2.0**-10, 0.001, 0.0007]), n=st.integers(1, 5000),
           slack=st.sampled_from([0.0, 1e-12]), ulps=st.integers(-3, 3))
    def test_due_step_at_the_slack_boundary(self, dt, n, slack, ulps):
        # a tick time a few ulps from n * dt or n * dt + 1e-12, where the
        # test flips from false to true
        tick = n * dt + slack
        for _ in range(abs(ulps)):
            tick = math.nextafter(tick, math.inf if ulps > 0 else 0.0)
        hz = 1.0 / tick
        assert _due_step(1, hz, dt, 0, n + 5) == due_step_scan(1, hz, dt, 0, n + 5)

    @pytest.mark.parametrize("dt, hz", [(0.001, 20.0), (0.001, 360.0), (0.001, 1000.0),
                                        (0.0007, 1.0 / 0.0007), (0.003, 7.3)])
    def test_due_step_every_tick_of_a_clock(self, dt, hz):
        stop = 3000
        for j in range(math.floor(stop * dt * hz) + 3):
            for k in (0, max(0, math.floor(j / hz / dt) - 1)):
                assert _due_step(j, hz, dt, k, stop) == due_step_scan(j, hz, dt, k, stop)

    def test_infinite_or_late_tick_is_never_due(self):
        assert 1 / 5e-324 == math.inf
        assert _due_step(1, 5e-324, 0.001, 0, 12_502) == 12_503
        assert _due_step(0, 5e-324, 0.001, 40, 12_502) == 40
        assert _due_step(10**6, 20.0, 0.001, 0, 12_502) == 12_503
        assert _due_step(250, 20.0, 0.001, 0, 12_500) == 12_500  # due on the last step
        assert _due_step(250, 20.0, 0.001, 0, 12_499) == 12_500

    @pytest.mark.parametrize("plant_dt, sensor_hz, control_hz", [
        (0.001, 1000.0, 333.3), (0.001, 359.7, 1000.0), (0.0007, 1.0 / 0.0007, 1.0 / 0.0007),
        # rates SimConfig rejects: only here do sensing ticks share a step and
        # control fall behind its clock
        (0.001, 2500.0, 1250.0)])
    def test_engine_ticks_follow_per_step_scan(self, monkeypatch, sensor_params, quick_model,
                                               plant_dt, sensor_hz, control_hz):
        base = default_config("track_sine", seed=3)
        cfg = dataclasses.replace(base, plant_dt=plant_dt, settle_time=0.3, measure_time=0.6,
                                  machine=dataclasses.replace(base.machine, hold_duration=0.5))
        object.__setattr__(cfg, "sensor_hz", sensor_hz)  # past SimConfig's rate check
        object.__setattr__(cfg, "control_hz", control_hz)
        real_step, real_sense = flight.step_plant, flight.sense
        for stack in (None, SensingStack(sensor_params, quick_model)):
            stepped, sensed = [0], []

            def counting_step(state, cmd, params, env, dt, steps=1):
                stepped[0] += steps
                return real_step(state, cmd, params, env, dt, steps)

            def recording_sense(*args):
                sensed.append(stepped[0])
                return real_sense(*args)

            monkeypatch.setattr(flight, "step_plant", counting_step)
            monkeypatch.setattr(flight, "sense", recording_sense)
            engines = []
            monkeypatch.setattr(flight, "_Engine", recording_engine(flight._Engine, engines))
            rows, _ = run_mission(cfg, stack)
            (eng,) = engines
            controlled = [round(r.t / plant_dt) for r in rows]
            assert [r.t for r in rows] == [k * plant_dt for k in controlled]
            # control fires at most once per step, sensing may repeat at one
            assert controlled == scan_schedule(len(rows), control_hz, plant_dt, gap=1)
            # every sensing tick due by the last step passed, but only the last
            # one at or before each control step (the final done() tick at
            # eng.k too) was sensed
            ticks = scan_schedule(eng.ks + 1, sensor_hz, plant_dt, gap=0)
            assert ticks[-2] <= eng.k < ticks[-1]
            read = {max(j for j, s in enumerate(ticks) if s <= c) for c in controlled + [eng.k]}
            assert sensed == [ticks[j] for j in sorted(read)]
            if stack is None:
                assert eng.rng is None
                continue
            # each read draws its twelve normals, and no other tick draws any
            expect = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5EB5)))
            expect.standard_normal(12 * len(sensed))
            assert eng.rng.bit_generator.state == expect.bit_generator.state


@st.composite
def read_tick_cases(draw):
    """(scenario, seed, plant_dt, sensor_hz, control_hz, noise sigma, pillar
    modulus factor, model scale, bypass): rates, read noise up to the count
    range, pillars soft enough to saturate and models scaled toward overflow."""
    plant_dt = draw(st.sampled_from([0.001, 0.0007, 0.002]))
    return (draw(st.sampled_from(["track_sine", "deploy_package"])),
            draw(st.integers(0, 2**32 - 1)), plant_dt,
            draw(st.floats(10.0, 1.0 / plant_dt)), draw(st.floats(5.0, 100.0)),
            draw(st.one_of(st.just(2.0), st.floats(15.0, 18.4).map(lambda e: 10.0**e))),
            draw(st.one_of(st.just(1.0), st.floats(0.01, 0.12))),
            draw(st.sampled_from([1.0, 1e280, 1e290, 1e300])), draw(st.booleans()))


def fly_both(case, sensor_params, quick_model):
    """fly_on for a read_tick_cases case on the engine and on the reference."""
    scenario, seed, plant_dt, sensor_hz, control_hz, sigma, modulus, scale, bypass = case
    base = default_config(scenario, seed=seed)
    cfg = dataclasses.replace(
        base, plant_dt=plant_dt, sensor_hz=sensor_hz, control_hz=control_hz,
        settle_time=0.2, measure_time=0.6,
        machine=dataclasses.replace(base.machine, hold_duration=0.5))
    pillars = sensor_params.pillars
    params = dataclasses.replace(
        sensor_params,
        cdc=dataclasses.replace(sensor_params.cdc, noise_sigma_counts=sigma),
        pillars=dataclasses.replace(pillars, youngs_modulus=modulus * pillars.youngs_modulus))
    model = dataclasses.replace(quick_model, matrix=quick_model.matrix * scale)
    stack = None if bypass else SensingStack(params, model)
    return fly_on(flight._Engine, cfg, stack), fly_on(PerStepEngine, cfg, stack)


class TestReadTicks:
    """The engine senses only read ticks, as the per-step reference does."""

    @settings(max_examples=100, deadline=None)
    @given(case=read_tick_cases())
    # a read that faults, each kind: counts past the int64 range, saturation,
    # a non-finite estimate
    @example(case=("deploy_package", 3, 0.001, 360.0, 20.0, 3.5e18, 1.0, 1.0, False))
    @example(case=("track_sine", 0, 0.001, 360.0, 20.0, 2.0, 0.04, 1.0, False))
    @example(case=("track_sine", 0, 0.001, 360.0, 20.0, 1e16, 1.0, 1e280, False))
    # no control tick by the settle hover's step budget (step 11202), where
    # the next sensing tick falls due: no tick reads it, so it draws nothing
    @example(case=("track_sine", 0, 0.001, 1.0 / (11202 * 0.001), 0.01, 2.0, 1.0, 1.0, False))
    def test_outputs_equal_sensing_every_tick(self, sensor_params, quick_model, case):
        # the reference visits every sensing tick and senses the read ones
        ours, reference = fly_both(case, sensor_params, quick_model)
        assert ours == reference

    def test_plant_fault_in_a_stretch_keeps_an_earlier_reading_fault(
            self, monkeypatch, sensor_params, quick_model):
        # the plant faults 5 mm above the height where readings fault, about
        # one control period later in the climb: in the stretch that follows
        # the first read above that height, which the engine must sense first
        real_step, real_sense = flight.step_plant, flight.sense

        def step_to_a_ceiling(state, cmd, params, env, dt, steps=1):
            result = real_step(state, cmd, params, env, dt, steps)
            if result[0].pz > 1.305:
                raise ValueError("Vec3: non-finite component inf")
            return result

        def sense_below_a_ceiling(state, *args):
            if state.pz > 1.3:
                raise SensedRangeFault(f"sensor saturated at z={state.pz!r}")
            return real_sense(state, *args)

        monkeypatch.setattr(flight, "step_plant", step_to_a_ceiling)
        monkeypatch.setattr(flight, "sense", sense_below_a_ceiling)
        cfg = default_config("track_sine", seed=4)
        stack = SensingStack(params=sensor_params, model=quick_model)
        ours = fly_on(flight._Engine, cfg, stack)
        assert ours[1][0] is SensedRangeFault
        assert ours == fly_on(PerStepEngine, cfg, stack)


class TestMissions:
    def test_track_sine_bypass(self):
        cfg = default_config("track_sine", seed=0)
        rows, summary = simulate_track_sine(cfg, None)
        assert summary.hold_entered
        assert not summary.saturated
        assert summary.hold_time >= cfg.machine.hold_duration - 0.1
        assert summary.rms_error <= 0.18
        states = [r.machine_state for r in rows]
        assert "SEARCH" in states and "HOLD" in states

    def test_constant_force_settles_within_three_seconds(self):
        # steady setpoint in bypass must converge to 0.05 N inside 3 s of HOLD
        base = default_config("track_sine", seed=0)
        cfg = dataclasses.replace(
            base, profile=ForceProfile(2.0),
            machine=dataclasses.replace(base.machine, hold_duration=6.0))
        rows, summary = simulate_track_sine(cfg, None)
        hold_rows = [r for r in rows if r.machine_state == "HOLD"]
        assert hold_rows
        t_entry = hold_rows[0].t
        late = [r for r in hold_rows if r.t - t_entry >= 3.0]
        assert late
        for r in late:
            assert abs(r.f_oc - r.f_dc) < 0.05

    def test_deploy_bypass_two_press_story(self):
        cfg = default_config("deploy_package", seed=0)
        rows, summary = simulate_deploy(cfg, None)
        assert len(summary.residuals) == 3
        assert summary.residuals[0] == pytest.approx(0.095 * G, abs=0.02)
        assert summary.residuals[1] == pytest.approx(0.095 * G, abs=0.02)
        assert summary.residuals[2] < 0.1
        assert len(summary.press_peaks) == 2
        assert summary.press_peaks[0] < cfg.env.adhesion_threshold
        assert summary.press_peaks[1] > cfg.env.adhesion_threshold
        assert not summary.payload_attached
        assert summary.success
        # the attached flag never flips back on
        flags = [r.payload_attached for r in rows]
        assert all(a >= b for a, b in zip(flags, flags[1:]))

    def test_run_mission_dispatch(self):
        rows, summary = run_mission(default_config("track_sine"), None)
        assert hasattr(summary, "rms_error")

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            default_config("hover_forever")
        with pytest.raises(ValueError):
            SimConfig(scenario="hover_forever")


class TestConfigSerialization:
    def test_roundtrip_dict(self):
        for scenario in ("track_sine", "deploy_package"):
            cfg = default_config(scenario, seed=5)
            d = dataclasses.asdict(cfg)
            assert dataclasses.asdict(config_from_dict(d)) == d

    @pytest.mark.parametrize("scenario, kp_free", [
        ("track_sine", None),
        ("deploy_package", None),
        ("track_sine", ((7.0, 0.5, 0.0), (0.5, 7.0, -0.25), (0.0, -0.25, 9.0))),
    ], ids=["track_sine", "deploy_package", "non-diagonal"])
    def test_json_roundtrip_compares_equal_and_hashes(self, scenario, kp_free):
        cfg = default_config(scenario, seed=5)
        if kp_free is not None:
            cfg = dataclasses.replace(cfg, gains=dataclasses.replace(cfg.gains, kp_free=kp_free))
        back = config_from_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))
        assert back == cfg
        assert hash(back) == hash(cfg)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            config_from_dict({"scenario": "nope"})

    def test_plant_dt_floor(self):
        assert SimConfig("track_sine", plant_dt=flight.MIN_PLANT_DT).plant_dt == 1e-5
        for tiny in (math.nextafter(1e-5, 0.0), 5e-324):
            with pytest.raises(ValueError, match=f"SimConfig.plant_dt {tiny!r} is too small"):
                SimConfig("track_sine", plant_dt=tiny)

    def test_mission_budget_sums_the_phase_budgets(self):
        # settle, measure, one engagement and its retreat; a deployment
        # repeats the engagement, the retreat and a measure for each press.
        # The run below is bounded by the budget it checks (under 0.1 s).
        assert default_config("track_sine").budget_s == 78.5
        assert default_config("deploy_package").budget_s == 158.5
        cfg = dataclasses.replace(default_config("deploy_package"), press_forces=(0.7,) * 3,
                                  env=ContactEnv(payload_mass=0.095, adhesion_threshold=1e9))
        rows, summary = simulate_deploy(cfg, None)
        assert len(summary.press_peaks) == 3  # the payload never sticks
        assert rows[-1].t <= cfg.budget_s

    def test_trace_csv_shape(self):
        cfg = default_config("track_sine")
        rows, _ = simulate_track_sine(cfg, None)
        lines = rows_to_csv_lines(rows[:3])
        assert lines[0] == TRACE_COLUMNS
        assert all(len(line.split(",")) == 16 for line in lines)

    @settings(max_examples=300, deadline=None)
    @given(row=trace_rows())
    def test_trace_line_equals_object_rendering(self, row):
        # tilted attitudes too, which the pinned bypass digests never reach
        assert rows_to_csv_lines([row]) == [TRACE_COLUMNS, object_rendering(row)]

    def test_reading_an_attitude_snaps_nothing(self, monkeypatch):
        # a state stores the snapped attitude, so reading it is no arithmetic
        rows, _ = simulate_deploy(default_config("deploy_package"), None)
        calls = [0]
        real_snap = flight.snap_unit_quat

        def counting_snap(*q):
            calls[0] += 1
            return real_snap(*q)

        monkeypatch.setattr(flight, "snap_unit_quat", counting_snap)
        assert len(rows_to_csv_lines(rows)) == len(rows) + 1 > 1
        assert calls[0] == 0
        q = unit_quat(*TILT)
        assert FlightState(0.3, -0.2, 1.0, 0.0, 0.0, 0.0, q, False).q is q
        assert calls[0] == 0
