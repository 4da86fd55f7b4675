"""Forward sensor model: mechanics, capacitance patterns, counts."""

import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capft.core import Wrench
from capft.sensor_model import (
    CHANNEL_NAMES,
    CapacitanceFrame,
    CdcConfig,
    EPSILON_0,
    SaturationError,
    SensorParams,
    SensorRangeError,
    capacitances,
    default_pillars,
    default_sensor_params,
    effective_modulus,
    parallel_plate_capacitance,
    pillar_stiffness,
    plate_capacitances,
    sample,
    sample_trajectory,
    shore_to_youngs,
    solve_deformation,
)
from capft import sensor_model
from capft.sensor_model import _axial_stiffness, _channel_capacitances, _counts

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


def bisection_dz(pillars, fz, tol=1e-15):
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

    def test_parallel_plate_column_gap_matches_floats(self):
        gaps = [127e-6, 63.5e-6, 1e-9, 2e-3]
        column = parallel_plate_capacitance(3.0, 1e-6, np.array(gaps))
        assert column.tolist() == [parallel_plate_capacitance(3.0, 1e-6, g) for g in gaps]

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1e-6])
    def test_parallel_plate_bad_gap_raises(self, bad):
        with pytest.raises(SensorRangeError, match="non-physical plate"):
            parallel_plate_capacitance(3.0, 1e-6, bad)
        with pytest.raises(SensorRangeError, match="non-physical plate"):
            parallel_plate_capacitance(3.0, 1e-6, np.array([127e-6, bad, 63.5e-6]))


class TestStiffness:
    def test_nominal_k_z(self):
        p = default_pillars()
        expect = p.count * effective_modulus(p.youngs_modulus, p.aspect_ratio) \
            * p.pillar_area / p.height
        assert _axial_stiffness(p, 0.0) == pytest.approx(expect, rel=1e-12)

    def test_stiffening_monotone(self):
        p = default_pillars()
        k0 = _axial_stiffness(p, 0.0)
        k3 = _axial_stiffness(p, 0.3 * p.height)
        assert k3 > k0

    def test_shear_area_scaling(self):
        # doubling pillar radius at fixed count quadruples k_xy
        p = default_pillars()
        p2 = dataclasses.replace(p, radius=2.0 * p.radius)
        k1 = pillar_stiffness(p, 0.0).k_xy
        k2 = pillar_stiffness(p2, 0.0).k_xy
        assert k2 == pytest.approx(4.0 * k1, rel=1e-12)

    def test_rejects_out_of_range_dz(self):
        p = default_pillars()
        with pytest.raises(ValueError):
            pillar_stiffness(p, p.height)
        with pytest.raises(ValueError):
            pillar_stiffness(p, -1e-9)

    def test_finite_difference_matches_k_z(self):
        # d(Fz)/d(dz) from the force law vs the Newton tangent
        p = default_pillars()
        for frac in (0.0, 0.1, 0.25, 0.4, 0.5):
            dz = frac * p.height
            eps = 1e-10
            fd = (axial_force_oracle(p, dz + eps) - axial_force_oracle(p, max(dz - eps, 0.0))) \
                / (eps if dz == 0.0 else 2 * eps)
            k = _axial_stiffness(p, dz)
            assert fd == pytest.approx(k, rel=0.01)


class TestDeformation:
    def test_zero_wrench(self):
        d = solve_deformation(Wrench.zero(), default_pillars())
        assert d.dz == 0.0 and d.dx == 0.0 and d.dy == 0.0
        assert d.theta_x == 0.0 and d.theta_y == 0.0 and d.theta_z == 0.0

    def test_pure_fz_decouples(self):
        d = solve_deformation(Wrench(0, 0, 8, 0, 0, 0), default_pillars())
        assert d.dz > 0.0
        assert d.dx == 0.0 and d.dy == 0.0
        assert d.theta_x == 0.0 and d.theta_y == 0.0 and d.theta_z == 0.0

    def test_fz_matches_bisection_oracle(self):
        p = default_pillars()
        for fz in (1.0, 5.0, 10.0, 14.0):
            d = solve_deformation(Wrench(0, 0, fz, 0, 0, 0), p)
            assert d.dz == pytest.approx(bisection_dz(p, fz), abs=1e-9)

    def test_force_balance_residual(self):
        p = default_pillars()
        w = Wrench(3.0, -2.0, 9.0, 30.0, -20.0, 8.0)
        d = solve_deformation(w, p)
        ks = pillar_stiffness(p, d.dz)
        assert axial_force_oracle(p, d.dz) == pytest.approx(w.fz, abs=1e-9)
        assert ks.k_xy * d.dx == pytest.approx(w.fx, abs=1e-9)
        assert ks.k_xy * d.dy == pytest.approx(w.fy, abs=1e-9)
        # moments are carried in mN*m
        assert ks.k_tilt * d.theta_x == pytest.approx(w.mx * 1e-3, abs=1e-9)
        assert ks.k_tilt * d.theta_y == pytest.approx(w.my * 1e-3, abs=1e-9)
        assert ks.k_torsion * d.theta_z == pytest.approx(w.mz * 1e-3, abs=1e-9)

    def test_tension_rejected(self):
        with pytest.raises(SaturationError):
            solve_deformation(Wrench(0, 0, -1.0, 0, 0, 0), default_pillars())

    def test_overload_rejected(self):
        with pytest.raises(SaturationError):
            solve_deformation(Wrench(0, 0, 500.0, 0, 0, 0), default_pillars())


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
        d = solve_deformation(Wrench.zero(), self.p)
        cs = plate_capacitances(d, self.g)[4:]
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
            dev = np.array(plate_capacitances(d, self.g)[:4]) - np.array(
                plate_capacitances(
                    PlateDisplacement(0, 0, 0, 0, 0, 0), self.g)[:4])
            return abs(dev.sum()) / np.abs(dev).max()

        assert ratio(1e-4) < 0.01
        # residual is second order: the imbalance ratio grows linearly in theta
        assert ratio(1e-3) == pytest.approx(10.0 * ratio(1e-4), rel=0.05)

    def test_mz_tangential_pattern(self):
        # +Mz rotates the plate; every quadrant sees a tangential split whose
        # sign follows delta = projection of theta_z x r onto its axis
        d = solve_deformation(unit_loads()["Mz"], self.p)
        cs = np.array(plate_capacitances(d, self.g)[4:])
        base = np.array(plate_capacitances(
            solve_deformation(Wrench.zero(), self.p), self.g)[4:])
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
        assert plate_capacitances(da, self.g)[:4] == plate_capacitances(db, self.g)[:4]

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


def in_range(row, params):
    try:
        capacitances(Wrench.from_sequence(row), params)
    except SensorRangeError:
        return False
    return True


def row_hex(values, i):
    """float.hex of row i of each value; a float stands for every row."""
    return [float(v if np.ndim(v) == 0 else v[i]).hex() for v in values]


def counts_or_error(fn):
    try:
        return tuple(fn())
    except SensorRangeError as exc:
        return type(exc)


class TestFrame:
    @pytest.mark.parametrize("n", [0, 11, 13])
    def test_channel_count_rejected(self, n):
        with pytest.raises(SensorRangeError, match=f"frame needs 12 counts, got {n}"):
            CapacitanceFrame((100,) * n)
        with pytest.raises(SensorRangeError, match=f"frame needs 12 counts, got {n}"):
            CapacitanceFrame.from_counts([100] * n)

    @given(counts=st.lists(st.integers(0, 2**63 - 1), min_size=12, max_size=12),
           slot=st.integers(0, 11), negative=st.integers(-2**63, -1))
    def test_negative_count_rejected(self, counts, slot, negative):
        counts[slot] = negative
        with pytest.raises(SensorRangeError, match="non-negative"):
            CapacitanceFrame(tuple(counts))
        with pytest.raises(SensorRangeError, match="non-negative"):
            CapacitanceFrame.from_counts(counts)

    @example(counts=[math.nan, -1] + [0] * 10)
    @example(counts=[0] * 4 + [math.nan] + [0] * 6 + [-1])
    @given(counts=st.lists(st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0),
                                      st.just(math.nan)), min_size=12, max_size=12))
    def test_rejects_exactly_the_negative_counts(self, counts):
        # a NaN ahead of a negative count must not hide it
        if any(c < 0 for c in counts):
            with pytest.raises(SensorRangeError, match="non-negative"):
                CapacitanceFrame(tuple(counts))
        else:
            CapacitanceFrame(tuple(counts))

    @settings(max_examples=100, deadline=None)
    @given(w=wrench_rows(), temperature=st.floats(0.0, 50.0), seed=st.integers(0, 2**32 - 1))
    def test_sampled_frame_holds_ints(self, w, temperature, seed):
        params = default_sensor_params()
        assume(in_range(w, params))
        frame = sample(Wrench.from_sequence(w), temperature, params,
                       np.random.default_rng(seed))
        assert all(type(c) is int for c in frame.counts)
        assert frame == CapacitanceFrame.from_counts(frame.counts)


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

    @settings(max_examples=150, deadline=None)
    @given(draws=st.lists(st.tuples(wrench_rows(), st.floats(0.0, 50.0)), min_size=2,
                          max_size=40),
           seed=st.integers(0, 2**32 - 1))
    def test_trajectory_rows_match_single_readings_hex(self, draws, seed):
        # every intermediate, not only the rounded counts: row i of a trajectory
        # equals the i-th single reading as float.hex
        p, g = self.params.pillars, self.params.geometry
        kept = [(w, t) for w, t in draws if in_range(w, self.params)]
        assume(len(kept) >= 2)
        w = np.array([row for row, _ in kept])
        temps = np.array([t for _, t in kept])
        d = solve_deformation(w, p)
        k = pillar_stiffness(p, d.dz)
        caps = plate_capacitances(d, g)
        counts = sample_trajectory(w, temps, self.params, np.random.default_rng(seed))
        gen = np.random.default_rng(seed)
        for i, (row, temperature) in enumerate(kept):
            wi = Wrench.from_sequence(row)
            di = solve_deformation(wi, p)
            ki = pillar_stiffness(p, di.dz)
            assert row_hex(dataclasses.astuple(d), i) == row_hex(dataclasses.astuple(di), 0)
            assert row_hex(dataclasses.astuple(k), i) == row_hex(dataclasses.astuple(ki), 0)
            assert row_hex(caps, i) == row_hex(capacitances(wi, self.params), 0)
            assert tuple(counts[i]) == sample(wi, temperature, self.params, gen).counts

    @pytest.mark.parametrize("temperature", [1e12, 1e200, -1e200])
    def test_count_overflow_rejected_on_both_paths(self, temperature):
        # 1e12 degC scales the counts past int64; +-1e200 overflows the drift
        # scale itself.  Both must raise before the int cast, with no warning.
        w = np.array([[0.5, -0.5, 4.0, 5.0, -5.0, 1.0]])
        with pytest.raises(SensorRangeError, match="count range"):
            sample(Wrench.from_sequence(w[0]), temperature, self.params,
                   np.random.default_rng(0))
        with pytest.raises(SensorRangeError, match="count range"):
            sample_trajectory(w, [temperature], self.params, np.random.default_rng(0))

    def test_count_overflow_through_the_gain_blames_no_temperature(self):
        # at the drift model's reference the drift scale is 1: the gain alone
        # puts the counts past int64, and the message must say so
        params = dataclasses.replace(self.params, cdc=dataclasses.replace(
            self.params.cdc, gain_counts_per_farad=1e300))
        reference = params.drift.reference_temp
        w = np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(SensorRangeError, match="count range") as single:
            sample(Wrench.from_sequence(w[0]), reference, params, np.random.default_rng(0))
        with pytest.raises(SensorRangeError, match="count range") as batch:
            sample_trajectory(w, [reference], params, np.random.default_rng(0))
        for exc in (single, batch):
            assert "gain" in str(exc.value)
            assert "temperature" not in str(exc.value)

    def test_reading_below_zero_clips_on_both_paths(self):
        # a drift scale that overflows to -inf rounds at zero, like any negative
        # reading, on both paths (round(-inf) on a float would raise OverflowError)
        params = dataclasses.replace(self.params, drift=dataclasses.replace(
            self.params.drift, alpha=(0.0,) * 12, beta=(-4e-6,) * 12))
        w = np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])
        frame = sample(Wrench.from_sequence(w[0]), 1e200, params, np.random.default_rng(0))
        batch = sample_trajectory(w, [1e200], params, np.random.default_rng(0))
        assert frame.counts == tuple(batch[0]) == (0,) * 12

    @settings(max_examples=150, deadline=None)
    @given(pool=st.lists(wrench_rows(), min_size=1, max_size=4),
           steps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 63), st.integers(0, 2)),
                          min_size=2, max_size=30),
           seed=st.integers(0, 2**32 - 1))
    def test_memo_matches_unmemoised_solve(self, pool, steps, seed):
        # repeats of a load, with the sign of its zero components flipped and
        # params swapped for an equal copy or for stiffer pillars, read what a
        # fresh solve reads
        pool = [row for row in ([0.0 if abs(v) < 1.0 else v for v in row] for row in pool)
                if in_range(row, self.params)]
        assume(pool)
        twin = SensorParams.from_dict(dataclasses.asdict(self.params))
        assert twin == self.params and twin is not self.params
        stiffer = dataclasses.replace(self.params, pillars=dataclasses.replace(
            self.params.pillars, radius=1.1 * self.params.pillars.radius))
        gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for pick, signs, which in steps:
            row = pool[pick % len(pool)]
            w = Wrench.from_sequence(
                [-v if v == 0.0 and signs >> k & 1 else v for k, v in enumerate(row)])
            params = (self.params, twin, stiffer)[which]
            fresh = _channel_capacitances(w, params)
            dt = 25.0 - params.drift.reference_temp
            expect = tuple(_counts(c, a, b, dt, params.cdc, n) for c, a, b, n in zip(
                fresh, params.drift.alpha, params.drift.beta, ref.normal(size=12).tolist()))
            assert sample(w, 25.0, params, gen).counts == expect
            key, caps = sensor_model._last_load
            assert key == (w, params)
            assert [c.hex() for c in caps] == [c.hex() for c in fresh]

    def test_memo_holds_one_entry(self):
        loads = [Wrench(0, 0, fz, 0, 0, 0) for fz in (0.0, 0.5, 0.93195, 0.5, 0.0)]
        for w in loads:
            sample(w, 25.0, self.params, np.random.default_rng(0))
            key, caps = sensor_model._last_load
            assert key == (w, self.params) and len(caps) == 12

    def test_saturation_propagates(self):
        with pytest.raises(SaturationError):
            sample(Wrench(0, 0, 1000.0, 0, 0, 0), 25.0, self.params,
                   np.random.default_rng(0))

    def test_failed_solve_keeps_the_memo(self):
        ok = Wrench(0.5, -0.5, 4.0, 5.0, -5.0, 1.0)
        sample(ok, 25.0, self.params, np.random.default_rng(0))
        with pytest.raises(SaturationError):
            sample(Wrench(0, 0, 1000.0, 0, 0, 0), 25.0, self.params,
                   np.random.default_rng(0))
        key, caps = sensor_model._last_load
        assert key == (ok, self.params)
        fresh = _channel_capacitances(ok, self.params)
        assert [c.hex() for c in caps] == [c.hex() for c in fresh]

    # The forward model runs only + - * / and sqrt, in a fixed order on floats
    # or elementwise on columns, and calls no BLAS routine, so these bytes hold
    # for every numpy build and BLAS kernel.
    FORWARD_DIGESTS = (
        "96c3f4edb24fbaac96bf7573a758ccc8044ff46ff9125b00c95258cf58308f8d",
        "58233b80f6d893b2fa3b40b9b9a3a5794d81f12bc5e9f9b93ae5741159f3c5af")

    def test_forward_model_pinned(self):
        # 500 draws like wrench_rows: each row scaled by up to 1.5x the axis
        # limits, so about 40% of them leave the range through every check
        rng = np.random.default_rng(2024)
        unit = rng.uniform(-1.0, 1.0, size=(500, 6))
        unit[:, 2] = rng.uniform(-0.02, 1.0, size=500)
        w = unit * AXIS_LIMITS * rng.uniform(0.0, 1.5, size=(500, 1))
        temps = rng.uniform(0.0, 50.0, size=500)
        lines, kept, seen = [], [], set()
        for i, row in enumerate(w):
            try:
                caps = capacitances(Wrench.from_sequence(row), self.params)
            except SensorRangeError as exc:
                lines.append(f"{type(exc).__name__}: {exc}")
                seen.add(str(exc).split(":")[0])
            else:
                lines.append(" ".join(float(c).hex() for c in caps))
                kept.append(i)
        assert seen == {
            "tensile normal load is outside the model range", "normal stroke exhausted",
            "electrode gap closed under tilt/compression",
            "tangential travel beyond half a finger pitch", "comb overlap wrapped"}
        quiet = dataclasses.replace(
            self.params, cdc=dataclasses.replace(self.params.cdc, noise_sigma_counts=0.0))
        counts = sample_trajectory(w[kept], temps[kept], quiet, np.random.default_rng(0))
        assert len(kept) == 296
        got = (hashlib.sha256("\n".join(lines).encode()).hexdigest(),
               hashlib.sha256("\n".join(" ".join(map(str, r)) for r in counts.tolist())
                              .encode()).hexdigest())
        assert got == self.FORWARD_DIGESTS


class TestParamsRoundtrip:
    def test_dict_roundtrip(self):
        p = default_sensor_params()
        q = SensorParams.from_dict(dataclasses.asdict(p))
        assert q == p
        assert q.hash() == p.hash()

    def test_cached_hash(self):
        # equal but distinct objects hash equal, and the cached value stays out
        # of the dict, the file hash and a pickle (hash(None) is per process)
        p = default_sensor_params()
        data, digest = dataclasses.asdict(p), p.hash()
        q = SensorParams.from_dict(data)
        assert q is not p and q == p
        assert hash(q) == hash(p) == hash(p)
        assert dataclasses.asdict(p) == data and p.hash() == digest
        assert SensorParams.from_dict(dataclasses.asdict(p)) == p
        assert "_field_hash" not in pickle.loads(pickle.dumps(p)).__dict__
        stiffer = dataclasses.replace(p, pillars=dataclasses.replace(
            p.pillars, radius=1.1 * p.pillars.radius))
        assert stiffer != p and {p: 1, stiffer: 2, q: 3} == {p: 3, stiffer: 2}

    @pytest.mark.parametrize("section, key, value", [
        ("pillars", "youngs_modulus", math.inf),
        ("pillars", "ring_radii", [math.nan] * 18),
        ("geometry", "quadrant_x", [0.0, 0.0, math.nan, 0.0]),
        ("geometry", "finger_pitch", math.inf),
        ("geometry", "eps_air", 0.0),
        ("drift", "alpha", [math.inf] * 12),
        ("drift", "reference_temp", math.nan),
        ("cdc", "gain_counts_per_farad", math.inf),
    ])
    def test_non_finite_or_non_physical_rejected(self, section, key, value):
        data = dataclasses.asdict(default_sensor_params())
        data[section][key] = value
        with pytest.raises(SensorRangeError):
            SensorParams.from_dict(data)
