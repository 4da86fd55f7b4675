"""Plant integration, contact physics, sensing-in-the-loop, and missions."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from capft import dataio
from capft.calibration import CalibrationModel, fit, tare
from capft.controller import ForceProfile, MachineState, ThrustMachineParams
from capft.core import GRAVITY, UnitQuaternion, Vec3, ZERO3, quat_to_basis, slerp
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
    config_from_dict,
    config_to_dict,
    contact_force,
    default_config,
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
    return FlightState(p=Vec3(0.0, 0.0, z), v=Vec3(0.0, 0.0, v),
                       q=UnitQuaternion.identity(), payload_attached=attached, t=0.0)


def hover_command(plant):
    return Command(f_cmd_hat=plant.k_f * plant.mass * G,
                   q_cmd=UnitQuaternion.identity())


def step_plant_reference(state, cmd, params, env, dt):
    """The plant step composed from core Vec3/UnitQuaternion operations."""
    alpha = 1.0 - math.exp(-dt / params.tau_att)
    q_new = slerp(state.q, cmd.q_cmd, alpha)
    z_body = quat_to_basis(q_new)[2]
    thrust = min(max(cmd.f_cmd_hat, 0.0), params.max_thrust_hat) / params.k_f
    f_c = contact_force(state, env)
    attached = state.payload_attached
    mass = params.mass + (env.payload_mass if attached else 0.0)
    accel = z_body.scaled(thrust / mass) + GRAVITY + Vec3(0.0, 0.0, -f_c / mass)
    if attached and f_c > env.adhesion_threshold:
        attached = False
    v_new = state.v + accel.scaled(dt)
    p_new = state.p + v_new.scaled(dt)
    return FlightState(p=p_new, v=v_new, q=q_new, payload_attached=attached, t=state.t + dt)


def state_bits(s):
    """Every float of a state as hex, so -0.0 and 0.0 differ."""
    q = s.q
    floats = (*s.p.as_tuple(), *s.v.as_tuple(), q.w, q.x, q.y, q.z, s.t)
    return tuple(v.hex() for v in floats), s.payload_attached


class TestContactForce:
    def setup_method(self):
        self.env = ContactEnv()

    def test_separated(self):
        s = at_rest(self.env.surface_z - self.env.tip_offset - 0.01, v=2.0)
        assert contact_force(s, self.env) == 0.0

    def test_static_spring_hand_value(self):
        s = at_rest(self.env.surface_z - self.env.tip_offset + 0.004)
        assert contact_force(s, self.env) == pytest.approx(
            self.env.contact_stiffness * 0.004, rel=1e-12)

    def test_approach_damping_added(self):
        s = at_rest(self.env.surface_z - self.env.tip_offset + 0.004, v=0.1)
        expect = self.env.contact_stiffness * 0.004 + self.env.contact_damping * 0.1
        assert contact_force(s, self.env) == pytest.approx(expect, rel=1e-12)

    def test_recede_has_no_damping(self):
        s = at_rest(self.env.surface_z - self.env.tip_offset + 0.004, v=-3.0)
        assert contact_force(s, self.env) == pytest.approx(
            self.env.contact_stiffness * 0.004, rel=1e-12)

    def test_first_contact_is_continuous(self):
        # force on the first penetrating step is bounded by one step of travel
        env = self.env
        plant = PlantParams()
        s = at_rest(env.surface_z - env.tip_offset - 0.002, v=0.5)
        cmd = hover_command(plant)
        prev = 0.0
        for _ in range(20):
            s = step_plant(s, cmd, plant, env, 0.001)
            f = contact_force(s, env)
            if f > 0.0:
                bound = env.contact_stiffness * s.v.z * 0.001 \
                    + env.contact_damping * s.v.z
                assert prev == 0.0
                assert f <= bound + 1e-9
                break
            prev = f
        else:
            pytest.fail("never made contact")


class TestPlant:
    def test_hover_balance(self):
        plant = PlantParams()
        env = ContactEnv()
        s = at_rest(1.0)
        cmd = hover_command(plant)
        for _ in range(1000):
            s = step_plant(s, cmd, plant, env, 0.001)
        assert abs(s.v.z) < 1e-9
        assert abs(s.p.z - 1.0) < 1e-9

    def test_free_fall_rate(self):
        plant = PlantParams()
        env = dataclasses.replace(ContactEnv(), surface_z=1e6)
        s = at_rest(100.0)
        cmd = Command(f_cmd_hat=0.0, q_cmd=UnitQuaternion.identity())
        n = 500
        for _ in range(n):
            s = step_plant(s, cmd, plant, env, 0.001)
        assert s.v.z == pytest.approx(-G * n * 0.001, rel=1e-9)

    def test_press_settles_at_spring_balance(self):
        # constant 2 N of surplus thrust -> 4 mm steady-state penetration
        plant = PlantParams()
        env = ContactEnv()
        surplus = 2.0
        cmd = Command(f_cmd_hat=plant.k_f * (plant.mass * G + surplus),
                      q_cmd=UnitQuaternion.identity())
        s = at_rest(env.surface_z - env.tip_offset + 0.001)
        for _ in range(6000):
            s = step_plant(s, cmd, plant, env, 0.001)
        penetration = s.p.z + env.tip_offset - env.surface_z
        assert penetration == pytest.approx(surplus / env.contact_stiffness, rel=0.05)
        assert abs(s.v.z) < 0.01

    def test_energy_drift_bounded(self):
        # ballistic arc: symplectic integration keeps the drift tiny
        plant = PlantParams()
        env = dataclasses.replace(ContactEnv(), surface_z=1e6)
        cmd = Command(f_cmd_hat=0.0, q_cmd=UnitQuaternion.identity())
        s = at_rest(0.0, v=35.0)

        def energy(st):
            v2 = sum(c * c for c in st.v.as_tuple())
            return 0.5 * plant.mass * v2 + plant.mass * G * st.p.z

        e0 = energy(s)
        peak_ke = 0.5 * plant.mass * 35.0 ** 2
        worst = 0.0
        for _ in range(10000):
            s = step_plant(s, cmd, plant, env, 0.001)
            peak_ke = max(peak_ke, 0.5 * plant.mass
                          * sum(c * c for c in s.v.as_tuple()))
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
            state = FlightState(p=Vec3(*rng.normal(size=2), z), v=Vec3(*vel),
                                q=UnitQuaternion.normalized(*q),
                                payload_attached=bool(rng.random() < 0.5),
                                t=float(rng.uniform(0.0, 100.0)))
            q_cmd = state.q if rng.random() < 0.2 \
                else UnitQuaternion.normalized(*rng.normal(size=4))
            cmd = Command(f_cmd_hat=float(rng.uniform(-0.5, 1.5)), q_cmd=q_cmd)
            dt = float(rng.uniform(1e-5, 0.01))
            got = step_plant(state, cmd, plant, env, dt)
            assert state_bits(got) == state_bits(
                step_plant_reference(state, cmd, plant, env, dt))
            f_c = contact_force(state, env)
            seen["separated"] += f_c == 0.0
            seen["approaching"] += f_c > 0.0 and state.v.z > 0.0
            seen["receding"] += f_c > 0.0 and state.v.z <= 0.0
            seen["detach"] += state.payload_attached and not got.payload_attached
            seen["thrust_at_zero"] += cmd.f_cmd_hat <= 0.0
            seen["thrust_at_max"] += cmd.f_cmd_hat >= plant.max_thrust_hat
        assert min(seen[k] for k in ("separated", "approaching", "receding", "detach",
                                     "thrust_at_zero", "thrust_at_max")) > 0, seen

    def test_attitude_relaxes_toward_command(self):
        plant = PlantParams()
        env = dataclasses.replace(ContactEnv(), surface_z=1e6)
        tilt = UnitQuaternion.normalized(math.cos(0.2), 0.0, math.sin(0.2), 0.0)
        cmd = Command(f_cmd_hat=0.3, q_cmd=tilt)
        s = at_rest(0.0)
        gaps = []
        for _ in range(400):
            s = step_plant(s, cmd, plant, env, 0.001)
            gaps.append(abs(s.q.w * tilt.w + s.q.x * tilt.x
                            + s.q.y * tilt.y + s.q.z * tilt.z))
        # monotone convergence to the commanded attitude, ~tau = 50 ms
        assert gaps[-1] > 0.99999
        assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))


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
        s2 = step_plant(s, cmd, self.plant, self.env, 0.001)
        assert s2.payload_attached

    def test_hard_press_detaches_permanently(self):
        s = self.press_state(5.0)
        cmd = hover_command(self.plant)
        s = step_plant(s, cmd, self.plant, self.env, 0.001)
        assert not s.payload_attached
        for _ in range(200):
            s = step_plant(s, cmd, self.plant, self.env, 0.001)
            assert not s.payload_attached

    def test_attached_mass_slows_acceleration(self):
        env_free = ContactEnv(payload_mass=0.095)
        s_att = at_rest(1.0, attached=True)
        s_det = at_rest(1.0, attached=False)
        cmd = Command(f_cmd_hat=0.5, q_cmd=UnitQuaternion.identity())
        a_att = step_plant(s_att, cmd, self.plant, env_free, 0.001).v.z
        a_det = step_plant(s_det, cmd, self.plant, env_free, 0.001).v.z
        assert a_att < a_det


class TestSense:
    def test_bypass_equals_truth(self):
        env = ContactEnv(payload_mass=0.095)
        stack = SensingStack(params=default_sensor_params(), bypass=True)
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = env.surface_z - env.tip_offset + float(rng.uniform(-0.01, 0.01))
            attached = bool(rng.integers(0, 2))
            s = at_rest(z, v=float(rng.uniform(-1, 1)), attached=attached)
            expect = contact_force(s, env) + (env.payload_weight if attached else 0.0)
            assert sense(s, env, stack, rng) == expect

    def test_payload_weight_hand_value(self):
        env = ContactEnv(payload_mass=0.095)
        stack = SensingStack(params=default_sensor_params(), bypass=True)
        s = at_rest(1.0, attached=True)
        assert sense(s, env, stack, np.random.default_rng(0)) \
            == pytest.approx(0.095 * G, rel=1e-12)

    def test_stack_requires_model(self, sensor_params):
        with pytest.raises(SimulationFault):
            SensingStack(params=sensor_params, model=None, bypass=False)

    def test_free_flight_reads_near_zero(self, sensor_params, quick_model):
        env = ContactEnv()
        stack = SensingStack(params=sensor_params, model=quick_model)
        s = at_rest(1.0)
        rng = np.random.default_rng(3)
        vals = [sense(s, env, stack, rng) for _ in range(20)]
        assert max(vals) < 0.3
        assert np.mean(vals) < 0.12

    def test_five_newton_press_through_stack(self, sensor_params, quick_model):
        env = ContactEnv()
        stack = SensingStack(params=sensor_params, model=quick_model)
        s = at_rest(env.surface_z - env.tip_offset + 5.0 / env.contact_stiffness)
        rng = np.random.default_rng(4)
        vals = [sense(s, env, stack, rng) for _ in range(20)]
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
            sense(s, env, stack, np.random.default_rng(0))


class TestMissions:
    def test_track_sine_bypass(self):
        cfg = default_config("track_sine", seed=0)
        stack = SensingStack(params=default_sensor_params(), bypass=True)
        rows, summary = simulate_track_sine(cfg, stack)
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
        stack = SensingStack(params=default_sensor_params(), bypass=True)
        rows, summary = simulate_track_sine(cfg, stack)
        hold_rows = [r for r in rows if r.machine_state == "HOLD"]
        assert hold_rows
        t_entry = hold_rows[0].t
        late = [r for r in hold_rows if r.t - t_entry >= 3.0]
        assert late
        for r in late:
            assert abs(r.f_oc - r.f_dc) < 0.05

    def test_deploy_bypass_two_press_story(self):
        cfg = default_config("deploy_package", seed=0)
        stack = SensingStack(params=default_sensor_params(), bypass=True)
        rows, summary = simulate_deploy(cfg, stack)
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
        stack = SensingStack(params=default_sensor_params(), bypass=True)
        rows, summary = run_mission(default_config("track_sine"), stack)
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
            d = config_to_dict(cfg)
            assert config_to_dict(config_from_dict(d)) == d

    def test_bad_config(self):
        with pytest.raises(ValueError):
            config_from_dict({"scenario": "nope"})

    def test_trace_csv_shape(self):
        cfg = default_config("track_sine")
        stack = SensingStack(params=default_sensor_params(), bypass=True)
        rows, _ = simulate_track_sine(cfg, stack)
        lines = rows_to_csv_lines(rows[:3])
        assert lines[0] == TRACE_COLUMNS
        assert all(len(line.split(",")) == 16 for line in lines)
