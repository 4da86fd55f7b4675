"""Forward sensor model: mechanics, capacitance patterns, counts."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capft.core import Wrench
from capft.sensor_model import (
    CHANNEL_NAMES,
    CdcConfig,
    EPSILON_0,
    FirstOrderLag,
    PillarModel,
    SaturationError,
    SensorParams,
    SensorRangeError,
    capacitances,
    default_drift,
    default_geometry,
    default_pillars,
    default_sensor_params,
    effective_modulus,
    normal_mode_capacitance,
    parallel_plate_capacitance,
    pillar_stiffness,
    sample,
    sample_trajectory,
    shear_mode_capacitance,
    shore_to_youngs,
    solve_deformation,
)

# Golden value of the adopted shore->modulus relation at shore A 30,
# frozen from a hand evaluation of the closed form.
GENT_SHORE30_PA = 1142371.731732508


def axial_force_oracle(pillars, dz):
    """Independent closed-form axial force under constant-volume compression.

    Integrates E_e(a)*A(a)/a over the compression with A(a) = A0*h/a and
    eta(a) = a / (r0*sqrt(h/a)), evaluated analytically.
    """
    h, r, e = pillars.height, pillars.radius, pillars.youngs_modulus
    a = h - dz
    area0 = math.pi * r * r
    term1 = 1.0 / a - 1.0 / h
    term2 = (r * r * h / 8.0) * (1.0 / a ** 4 - 1.0 / h ** 4)
    return pillars.count * e * area0 * h * (term1 + term2)


def bisection_dz(pillars, geometry, fz, tol=1e-15):
    """Scalar bisection on the axial force law; oracle for solve_deformation."""
    lo, hi = 0.0, 0.95 * pillars.height
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if axial_force_oracle(pillars, mid) < fz:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestMaterialLaws:
    def test_shore30_golden(self):
        assert shore_to_youngs(30.0) == pytest.approx(GENT_SHORE30_PA, rel=1e-12)

    def test_monotone_in_shore(self):
        assert shore_to_youngs(40.0) > shore_to_youngs(30.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            shore_to_youngs(5.0)
        with pytest.raises(ValueError):
            shore_to_youngs(95.0)

    def test_effective_modulus_hand_values(self):
        # eta = 1: E*(1 + 0.5) exactly
        assert effective_modulus(1e6, 1.0) == pytest.approx(1.5e6, rel=1e-9)
        # slender limit
        assert effective_modulus(1e6, 1e6) == pytest.approx(1e6, rel=1e-6)
        # eta = 2.54 (127 um / 50 um): 2 MPa * (1 + 0.5/2.54^2) = 2.155 MPa
        assert effective_modulus(2e6, 2.54) == \
            pytest.approx(2e6 * (1.0 + 0.5 / 2.54 ** 2), rel=1e-9)
        assert effective_modulus(2e6, 2.54) == pytest.approx(2.155e6, rel=1e-3)

    def test_effective_modulus_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            effective_modulus(-1.0, 2.0)
        with pytest.raises(ValueError):
            effective_modulus(1e6, 0.0)

    def test_parallel_plate_hand_value(self):
        # eps_r=3, A=1 mm^2, d=127 um -> 0.2092 pF
        c = parallel_plate_capacitance(3.0, 1e-6, 127e-6)
        assert c == pytest.approx(EPSILON_0 * 3.0 * 1e-6 / 127e-6, rel=1e-12)
        assert c == pytest.approx(0.2092e-12, rel=1e-3)

    def test_parallel_plate_inverse_gap(self):
        c1 = parallel_plate_capacitance(3.0, 1e-6, 127e-6)
        c2 = parallel_plate_capacitance(3.0, 1e-6, 63.5e-6)
        assert c2 == pytest.approx(2.0 * c1, rel=1e-12)


class TestStiffness:
    def test_nominal_k_z(self):
        p = default_pillars()
        g = default_geometry()
        ks = pillar_stiffness(p, g, 0.0)
        expect = p.count * effective_modulus(p.youngs_modulus, p.aspect_ratio) \
            * p.pillar_area / p.height
        assert ks.k_z == pytest.approx(expect, rel=1e-12)

    def test_stiffening_monotone(self):
        p = default_pillars()
        g = default_geometry()
        k0 = pillar_stiffness(p, g, 0.0).k_z
        k3 = pillar_stiffness(p, g, 0.3 * p.height).k_z
        assert k3 > k0

    def test_shear_area_scaling(self):
        # doubling pillar radius at fixed count quadruples k_xy
        p = default_pillars()
        g = default_geometry()
        p2 = dataclasses.replace(p, radius=2.0 * p.radius)
        k1 = pillar_stiffness(p, g, 0.0).k_xy
        k2 = pillar_stiffness(p2, g, 0.0).k_xy
        assert k2 == pytest.approx(4.0 * k1, rel=1e-12)

    def test_rejects_out_of_range_dz(self):
        p = default_pillars()
        g = default_geometry()
        with pytest.raises(ValueError):
            pillar_stiffness(p, g, p.height)
        with pytest.raises(ValueError):
            pillar_stiffness(p, g, -1e-9)

    def test_finite_difference_matches_k_z(self):
        # d(Fz)/d(dz) from the force law vs the reported tangent stiffness
        p = default_pillars()
        g = default_geometry()
        for frac in (0.0, 0.1, 0.25, 0.4, 0.5):
            dz = frac * p.height
            eps = 1e-10
            fd = (axial_force_oracle(p, dz + eps) - axial_force_oracle(p, max(dz - eps, 0.0))) \
                / (eps if dz == 0.0 else 2 * eps)
            k = pillar_stiffness(p, g, dz).k_z
            assert fd == pytest.approx(k, rel=0.01)


class TestDeformation:
    def test_zero_wrench(self):
        d = solve_deformation(Wrench.zero(), default_pillars(), default_geometry())
        assert d.dz == 0.0 and d.dx == 0.0 and d.dy == 0.0
        assert d.theta_x == 0.0 and d.theta_y == 0.0 and d.theta_z == 0.0

    def test_pure_fz_decouples(self):
        d = solve_deformation(Wrench(0, 0, 8, 0, 0, 0), default_pillars(), default_geometry())
        assert d.dz > 0.0
        assert d.dx == 0.0 and d.dy == 0.0
        assert d.theta_x == 0.0 and d.theta_y == 0.0 and d.theta_z == 0.0

    def test_fz_matches_bisection_oracle(self):
        p, g = default_pillars(), default_geometry()
        for fz in (1.0, 5.0, 10.0, 14.0):
            d = solve_deformation(Wrench(0, 0, fz, 0, 0, 0), p, g)
            assert d.dz == pytest.approx(bisection_dz(p, g, fz), abs=1e-9)

    def test_force_balance_residual(self):
        p, g = default_pillars(), default_geometry()
        w = Wrench(3.0, -2.0, 9.0, 30.0, -20.0, 8.0)
        d = solve_deformation(w, p, g)
        ks = pillar_stiffness(p, g, d.dz)
        assert axial_force_oracle(p, d.dz) == pytest.approx(w.fz, abs=1e-9)
        assert ks.k_xy * d.dx == pytest.approx(w.fx, abs=1e-9)
        assert ks.k_xy * d.dy == pytest.approx(w.fy, abs=1e-9)
        # moments are carried in mN*m
        assert ks.k_tilt * d.theta_x == pytest.approx(w.mx * 1e-3, abs=1e-9)
        assert ks.k_tilt * d.theta_y == pytest.approx(w.my * 1e-3, abs=1e-9)
        assert ks.k_torsion * d.theta_z == pytest.approx(w.mz * 1e-3, abs=1e-9)

    def test_tension_rejected(self):
        with pytest.raises(SaturationError):
            solve_deformation(Wrench(0, 0, -1.0, 0, 0, 0),
                              default_pillars(), default_geometry())

    def test_overload_rejected(self):
        with pytest.raises(SaturationError):
            solve_deformation(Wrench(0, 0, 500.0, 0, 0, 0),
                              default_pillars(), default_geometry())


def unit_loads():
    return {
        "Fx": Wrench(1, 0, 0, 0, 0, 0),
        "Fy": Wrench(0, 1, 0, 0, 0, 0),
        "Fz": Wrench(0, 0, 1, 0, 0, 0),
        "Mx": Wrench(0, 0, 0, 5, 0, 0),
        "My": Wrench(0, 0, 0, 0, 5, 0),
        "Mz": Wrench(0, 0, 0, 0, 0, 5),
    }


class TestCapacitancePatterns:
    def setup_method(self):
        self.params = default_sensor_params()
        self.p = self.params.pillars
        self.g = self.params.geometry
        self.c0 = capacitances(Wrench.zero(), self.params)

    def test_shear_baseline_uniform(self):
        d = solve_deformation(Wrench.zero(), self.p, self.g)
        cs = shear_mode_capacitance(d, self.g)
        expect = EPSILON_0 * self.g.eps_effective * self.g.shear_overlap_area / self.g.nominal_gap
        assert cs == pytest.approx([expect] * 8, rel=1e-12)

    def test_fz_all_normal_up_shear_balanced(self):
        c = capacitances(unit_loads()["Fz"], self.params)
        dc = c - self.c0
        assert all(v > 0 for v in dc[:4])
        # shear pairs rise together through the gap coupling but do not split
        assert dc[4] == pytest.approx(dc[5], rel=1e-12)
        assert dc[8] == pytest.approx(dc[9], rel=1e-12)

    def test_fx_splits_x_pairs_only(self):
        c = capacitances(unit_loads()["Fx"], self.params)
        dc = c - self.c0
        assert dc[:4] == pytest.approx([0.0] * 4, abs=1e-22)
        # X pairs (X1,X2) and (X3,X4) split in opposite directions
        assert dc[4] > 0 > dc[5]
        assert dc[6] > 0 > dc[7]
        # Y pairs stay flat
        assert dc[8:] == pytest.approx([0.0] * 4, abs=1e-22)

    def test_fy_splits_y_pairs_only(self):
        c = capacitances(unit_loads()["Fy"], self.params)
        dc = c - self.c0
        assert dc[:4] == pytest.approx([0.0] * 4, abs=1e-22)
        assert dc[4:8] == pytest.approx([0.0] * 4, abs=1e-22)
        assert dc[8] > 0 > dc[9]
        assert dc[10] > 0 > dc[11]

    def test_mx_differential_normal_pairs(self):
        c = capacitances(unit_loads()["Mx"], self.params)
        dc = c - self.c0
        # +theta_x closes the gap on the +y quadrants, so their C rises
        # while the -y pair falls by a near-equal amount
        for i, v in enumerate(dc[:4]):
            assert (v > 0) == (self.g.quadrant_y[i] > 0)

    def test_mx_sum_cancels_first_order(self):
        # Taylor oracle: the 4 quadrant deviations cancel to first order in
        # theta, so the summed residual must scale quadratically
        from capft.sensor_model import PlateDisplacement

        def ratio(theta):
            d = PlateDisplacement(dz=0.0, theta_x=theta, theta_y=0.0,
                                  dx=0.0, dy=0.0, theta_z=0.0)
            dev = np.array(normal_mode_capacitance(d, self.g)) - np.array(
                normal_mode_capacitance(
                    PlateDisplacement(0, 0, 0, 0, 0, 0), self.g))
            return abs(dev.sum()) / np.abs(dev).max()

        assert ratio(1e-4) < 0.01
        # residual is second order: the imbalance ratio grows linearly in theta
        assert ratio(1e-3) == pytest.approx(10.0 * ratio(1e-4), rel=0.05)

    def test_mz_tangential_pattern(self):
        # +Mz rotates the plate; every quadrant sees a tangential split whose
        # sign follows delta = projection of theta_z x r onto its axis
        d = solve_deformation(unit_loads()["Mz"], self.p, self.g)
        cs = np.array(shear_mode_capacitance(d, self.g))
        base = np.array(shear_mode_capacitance(
            solve_deformation(Wrench.zero(), self.p, self.g), self.g))
        dc = cs - base
        # per-quadrant hand computation of the tangential displacement;
        # output slots run X1..X4 (quadrants 1,3) then Y1..Y4 (quadrants 2,4)
        tz = d.theta_z
        pair_slot = {0: 0, 2: 2, 1: 4, 3: 6}
        for q in range(4):
            x_q, y_q = self.g.quadrant_x[q], self.g.quadrant_y[q]
            if q % 2 == 0:  # X-sensitive quadrants measure x displacement
                delta = -tz * y_q
            else:
                delta = tz * x_q
            hi = pair_slot[q]
            lo = hi + 1
            if delta > 0:
                assert dc[hi] > 0 > dc[lo]
            else:
                assert dc[hi] < 0 < dc[lo]

    def test_fx_mirror_symmetry(self):
        cpos = capacitances(Wrench(2, 0, 0, 0, 0, 0), self.params)
        cneg = capacitances(Wrench(-2, 0, 0, 0, 0, 0), self.params)
        # swapping within each X pair mirrors the frame
        swap = [0, 1, 2, 3, 5, 4, 7, 6, 8, 9, 10, 11]
        assert cneg == pytest.approx(cpos[swap], rel=1e-12)

    def test_normal_mode_invariant_to_lateral(self):
        from capft.sensor_model import PlateDisplacement
        da = PlateDisplacement(10e-6, 1e-3, -2e-3, 0.0, 0.0, 0.0)
        db = PlateDisplacement(10e-6, 1e-3, -2e-3, 40e-6, -30e-6, 2e-3)
        assert normal_mode_capacitance(da, self.g) == normal_mode_capacitance(db, self.g)

    def test_sensitivity_decreases_with_radius(self):
        # Fig-3-style trend: bigger pillars, stiffer array, less dC/dF
        slopes = []
        for r in (40e-6, 50e-6, 65e-6):
            p = dataclasses.replace(default_pillars(), radius=r)
            params = dataclasses.replace(self.params, pillars=p)
            c1 = capacitances(Wrench(0, 0, 0.5, 0, 0, 0), params)[0]
            c0 = capacitances(Wrench.zero(), params)[0]
            slopes.append((c1 - c0) / 0.5)
        assert slopes[0] > slopes[1] > slopes[2] > 0


# Per-axis loads (N, mN*m) near where the default sensor leaves its valid
# range; draws scaled up to 1.5x land both inside it and on every rejection.
AXIS_LIMITS = np.array([16.0, 16.0, 480.0, 580.0, 580.0, 175.0])


@st.composite
def wrench_rows(draw):
    unit = [draw(st.floats(-1.0, 1.0)) for _ in range(6)]
    unit[2] = draw(st.floats(-0.02, 1.0))  # mostly compressive, some tension
    return np.array(unit) * AXIS_LIMITS * draw(st.floats(0.0, 1.5))


def counts_or_error(fn):
    try:
        return tuple(fn())
    except SensorRangeError as exc:
        return type(exc)


class TestSampling:
    def setup_method(self):
        self.params = default_sensor_params()

    def test_noiseless_tare_exact(self):
        quiet = dataclasses.replace(
            self.params, cdc=CdcConfig(noise_sigma_counts=0.0),
            drift=self.params.drift.disabled())
        frame = sample(Wrench.zero(), 25.0, quiet, np.random.default_rng(0))
        expect = np.rint(capacitances(Wrench.zero(), quiet) * quiet.cdc.gain_counts_per_farad)
        assert np.array_equal(np.array(frame.counts, dtype=float), expect)

    def test_seed_determinism(self):
        w = Wrench(1.0, -0.5, 4.0, 10.0, -5.0, 3.0)
        f1 = sample(w, 27.0, self.params, np.random.default_rng(42))
        f2 = sample(w, 27.0, self.params, np.random.default_rng(42))
        assert f1.counts == f2.counts

    def test_drift_shifts_baseline_1_to_3_percent(self):
        quiet = dataclasses.replace(self.params, cdc=CdcConfig(noise_sigma_counts=0.0))
        t0 = quiet.drift.reference_temp
        f0 = sample(Wrench.zero(), t0, quiet, np.random.default_rng(0))
        f1 = sample(Wrench.zero(), t0 + 10.0, quiet, np.random.default_rng(0))
        for k, (a, b) in enumerate(zip(f0.counts, f1.counts)):
            shift = abs(b - a) / a
            assert 0.01 <= shift <= 0.03, f"channel {CHANNEL_NAMES[k]} drift {shift:.4f}"

    def test_drift_polynomial_hand_value(self):
        quiet = dataclasses.replace(self.params, cdc=CdcConfig(noise_sigma_counts=0.0))
        dt = 6.0
        t0 = quiet.drift.reference_temp
        f = sample(Wrench.zero(), t0 + dt, quiet, np.random.default_rng(0))
        c = capacitances(Wrench.zero(), quiet)
        for k in range(12):
            scale = 1.0 + quiet.drift.alpha[k] * dt + quiet.drift.beta[k] * dt * dt
            expect = round(c[k] * scale * quiet.cdc.gain_counts_per_farad)
            assert f.counts[k] == expect

    def test_counts_non_negative_ints(self):
        rng = np.random.default_rng(5)
        f = sample(Wrench.zero(), 25.0, self.params, rng)
        assert all(isinstance(v, int) and v >= 0 for v in f.counts)

    def test_batch_matches_scalar(self):
        wr = np.array([
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, -1.0, 5.0, 20.0, -10.0, 5.0],
            [-2.0, 0.5, 9.0, -30.0, 15.0, -8.0],
        ])
        temps = np.array([25.0, 26.0, 24.5])
        batch = sample_trajectory(wr, temps, self.params, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for i in range(3):
            f = sample(Wrench.from_sequence(wr[i]), temps[i], self.params, rng)
            assert tuple(batch[i]) == f.counts

    @settings(max_examples=300, deadline=None)
    @given(w=wrench_rows(), temperature=st.floats(0.0, 50.0), seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_scalar_property(self, w, temperature, seed):
        scalar = counts_or_error(lambda: sample(
            Wrench.from_sequence(w), temperature, self.params,
            np.random.default_rng(seed)).counts)
        batch = counts_or_error(lambda: sample_trajectory(
            w[None], [temperature], self.params, np.random.default_rng(seed))[0].tolist())
        assert scalar == batch

    def test_saturation_propagates(self):
        with pytest.raises(SaturationError):
            sample(Wrench(0, 0, 1000.0, 0, 0, 0), 25.0, self.params,
                   np.random.default_rng(0))


class TestFirstOrderLag:
    def test_step_response(self):
        lag = FirstOrderLag(corner_hz=97.0)
        dt = 1.0 / 360.0
        # first sample initializes the state, then a unit step decays
        # toward the target with tau = 1/(2*pi*97)
        lag.step(Wrench.zero(), dt)
        target = Wrench(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        out = None
        for _ in range(3):
            out = lag.step(target, dt)
        expect = 1.0 - math.exp(-3 * dt * 2.0 * math.pi * 97.0)
        assert out.fz == pytest.approx(expect, rel=1e-9)


class TestParamsRoundtrip:
    def test_dict_roundtrip(self):
        p = default_sensor_params()
        q = SensorParams.from_dict(p.to_dict())
        assert q == p
        assert q.hash() == p.hash()

    @pytest.mark.parametrize("section, key, value", [
        ("pillars", "youngs_modulus", math.inf),
        ("pillars", "ring_radii", [math.nan] * 18),
        ("geometry", "quadrant_x", [0.0, 0.0, math.nan, 0.0]),
        ("geometry", "finger_pitch", math.inf),
        ("geometry", "eps_air", 0.0),
        ("drift", "alpha", [math.inf] * 12),
        ("drift", "reference_temp", math.nan),
        ("cdc", "gain_counts_per_farad", math.inf),
        ("cdc", "lag_corner_hz", math.nan),
    ])
    def test_non_finite_or_non_physical_rejected(self, section, key, value):
        data = default_sensor_params().to_dict()
        data[section][key] = value
        with pytest.raises(SensorRangeError):
            SensorParams.from_dict(data)
