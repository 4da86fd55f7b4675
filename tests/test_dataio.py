"""Trial generation, the CSV log format, and dataset splitting."""

import dataclasses
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capft import dataio
from capft.core import ABSOLUTE_ZERO_C, Wrench
from capft.dataio import (
    LOG_HEADER,
    LogFormatError,
    Scenario,
    ScenarioRangeError,
    Trial,
    check_mechanical_range,
    full_range_scenario,
    generate_trial,
    load_log,
    no_load_scenario,
    scenario_from_dict,
    small_range_scenario,
    split,
    temp_sweep_scenario,
    write_log,
)
from capft.sensor_model import SensorRangeError, capacitances, default_sensor_params


@pytest.fixture(scope="module")
def params():
    return default_sensor_params()


@pytest.fixture(scope="module")
def short_trial(params):
    return generate_trial(full_range_scenario(duration=2.0, seed=7), params)


def trial_at(times, name="x", seed=0, wrench_rows=None):
    """Trial with zero counts at 25 degC and zero wrenches at the given times."""
    n = len(times)
    return Trial(name=name, seed=seed, params_hash="", t=np.array(times, dtype=float),
                 temperature=np.full(n, 25.0), counts=np.zeros((n, 12), dtype=int),
                 wrench=np.zeros((n if wrench_rows is None else wrench_rows, 6)))


finite = st.floats(allow_nan=False, allow_infinity=False)
# a trial's temperatures are finite and at or above absolute zero
temperatures = st.floats(min_value=ABSOLUTE_ZERO_C, allow_nan=False, allow_infinity=False)


@st.composite
def small_trials(draw):
    """Any valid trial of 1 to 8 rows: finite floats, counts over all of int64."""
    n = draw(st.integers(1, 8))

    def rows(elements, width):
        return st.lists(st.lists(elements, min_size=width, max_size=width),
                        min_size=n, max_size=n)

    return Trial(
        name=draw(st.text("abcxyz_0189", min_size=1, max_size=8)),
        seed=draw(st.integers(0, 2**32)), params_hash="feedc0ffee12",
        t=np.array(sorted(draw(st.sets(finite, min_size=n, max_size=n))), dtype=float),
        temperature=np.array(draw(st.lists(temperatures, min_size=n, max_size=n)), dtype=float),
        counts=np.array(draw(rows(st.integers(0, 2**63 - 1), 12)), dtype=np.int64),
        wrench=np.array(draw(rows(finite, 6)), dtype=float))


@st.composite
def repetitive_trials(draw):
    """Valid trials whose counts and temperatures repeat a few values, with
    0.0 and -0.0 always among the temperatures drawn from."""
    n = draw(st.integers(1, 30))

    def picks(pool, size):
        return st.lists(st.sampled_from(pool), min_size=size, max_size=size)

    temps = draw(st.lists(temperatures, min_size=1, max_size=3)) + [0.0, -0.0]
    counts = draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=4))
    wrench = draw(st.lists(finite, min_size=1, max_size=4))
    return Trial(
        name="rep", seed=draw(st.integers(0, 2**32)), params_hash="feedc0ffee12",
        t=np.array(sorted(draw(st.sets(finite, min_size=n, max_size=n))), dtype=float),
        temperature=np.array(draw(picks(temps, n)), dtype=float),
        counts=np.array(draw(picks(counts, 12 * n)), dtype=np.int64).reshape(n, 12),
        wrench=np.array(draw(picks(wrench, 6 * n)), dtype=float).reshape(n, 6))


# wrench entries k / 1e4 with |k| < 10**8: on the 1e-4 grid below 1e4
on_grid = st.one_of(st.integers(-(10**8) + 1, 10**8 - 1).map(lambda k: k / 1e4),
                    st.sampled_from([0.0, -0.0, 9999.9999, -9999.9999, 1e-4, -1e-4]))
# entries that are off that grid, or at or above 1e4
off_grid = st.one_of(finite, st.integers(10**8, 10**12).map(lambda k: k / 1e4),
                     st.sampled_from([1e4, -1e4, 10000.0001, 5e-5, -1e-5, 0.30000000000000004]))


@st.composite
def grid_trials(draw):
    """Valid trials whose wrench lies on the grid, but for one entry drawn
    from off_grid in about half of them."""
    n = draw(st.integers(1, 12))
    wrench = np.array(draw(st.lists(on_grid, min_size=6 * n, max_size=6 * n))).reshape(n, 6)
    if draw(st.booleans()):
        wrench[draw(st.integers(0, n - 1)), draw(st.integers(0, 5))] = draw(off_grid)
    return Trial(
        name="grid", seed=draw(st.integers(0, 2**32)), params_hash="feedc0ffee12",
        t=np.arange(n) / 360.0,
        temperature=np.array(draw(st.lists(temperatures, min_size=n, max_size=n)), dtype=float),
        counts=np.array(draw(st.lists(st.integers(0, 2**63 - 1), min_size=12 * n,
                                      max_size=12 * n)), dtype=np.int64).reshape(n, 12),
        wrench=wrench)


def grid_trial(*rows):
    """A trial at 25 degC with zero counts and the given wrench rows."""
    trial = trial_at(np.arange(len(rows)) / 360.0)
    return dataclasses.replace(trial, wrench=np.array(rows, dtype=float))


def reference_log(trial):
    """write_log's bytes built from one repr (floats) or str (counts) per cell."""
    rows = [",".join([repr(t), repr(temp), *map(str, c), *map(repr, w)])
            for t, temp, c, w in zip(trial.t.tolist(), trial.temperature.tolist(),
                                     trial.counts.tolist(), trial.wrench.tolist())]
    head = [f"# name={trial.name}", f"# seed={trial.seed}", f"# params={trial.params_hash}",
            LOG_HEADER]
    return ("\n".join(head + rows) + "\n").encode()


# Per-axis loads (N, mN*m) past the default sensor's valid range, so drawn
# scenarios land on both sides of the corner check.
AXIS_LIMITS = np.array([16.0, 16.0, 480.0, 580.0, 580.0, 175.0])
# Half of them: nearly every box drawn inside passes the corner check, which
# keeps a property over feasible boxes from filtering out most of its draws,
# while the whole box still fails it.
BOX_LIMITS = AXIS_LIMITS / 2


class TestTrialInvariants:
    @settings(max_examples=100, deadline=None)
    @given(ends=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                         min_size=6, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_corner_feasible_scenario_interior_in_range(self, params, ends, seed):
        # corner feasibility bounds the whole trial: no point inside the box
        # of a scenario that passes the corner check leaves the valid range
        ends = np.sort(np.array(ends), axis=1)
        ends[2] = np.sort(np.abs(ends[2]))  # fz: compression, where saturation lies
        ranges = ends * AXIS_LIMITS[:, None]
        scen = Scenario("box", 1.0, 0, *map(tuple, ranges.tolist()))
        try:
            check_mechanical_range(scen, params)
        except ScenarioRangeError:
            assume(False)
        lo, hi = ranges[:, 0], ranges[:, 1]
        rng = np.random.default_rng(seed)
        # a trial reaches both ends of each axis, so put some coordinates on them
        u = rng.choice([0.0, 1.0, 0.5], size=(50, 6), p=[0.15, 0.15, 0.7])
        u[u == 0.5] = rng.uniform(size=np.count_nonzero(u == 0.5))
        for row in np.minimum(lo + u * (hi - lo), hi):
            try:
                capacitances(Wrench.from_sequence(row), params)
            except SensorRangeError as exc:
                pytest.fail(f"interior point {row.tolist()} of {ranges.tolist()}: {exc}")
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            trial_at([0.0, 1.0], wrench_rows=1)

    def test_non_monotonic_timestamps_rejected(self):
        with pytest.raises(ValueError):
            trial_at([0.0, 0.0])

    def test_far_apart_timestamps_checked_without_overflow(self):
        # the gap between these finite times is not finite; the order check
        # must not warn (RuntimeWarning is an error here) and must still hold
        big = np.finfo(float).max
        assert len(trial_at([-big, big])) == 2
        with pytest.raises(ValueError, match="strictly increasing"):
            trial_at([big, -big])

    def test_counts_past_int64_rejected(self, tmp_path):
        # load_log reads counts as int64: a larger count would write a log
        # its own loader refuses, and int64's maximum must round-trip
        top = np.iinfo(np.int64).max
        base = trial_at([0.0, 1.0])
        for dtype, value in ((np.uint64, top + 1), (np.uint64, 2**64 - 1)):
            counts = np.zeros((2, 12), dtype=dtype)
            counts[1, 5] = value
            with pytest.raises(ValueError, match="int64's maximum"):
                dataclasses.replace(base, counts=counts)
        for dtype in (np.int64, np.uint64):
            counts = np.zeros((2, 12), dtype=dtype)
            counts[1, 5] = top
            p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
            write_log(dataclasses.replace(base, counts=counts), p1)
            loaded = load_log(p1)
            assert int(loaded.counts[1, 5]) == top
            write_log(loaded, p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_nominal_spacing(self, short_trial):
        times = short_trial.t
        dt = np.diff(times)
        assert np.allclose(dt, 1.0 / 360.0, atol=1e-12)
        assert len(short_trial.t) == len(short_trial.wrench) == 720


class TestGenerateTrial:
    def test_zero_range_noiseless_is_baseline(self, params):
        scen = dataclasses.replace(no_load_scenario(seed=3, duration=0.5),
                                   noise_enabled=False)
        trial = generate_trial(scen, params)
        base = np.rint(capacitances(Wrench.zero(), params)
                       * params.cdc.gain_counts_per_farad).astype(int)
        for c, w in zip(trial.counts, trial.wrench.tolist()):
            assert list(c) == list(base)
            assert tuple(w) == (0.0,) * 6

    def test_same_seed_identical(self, params):
        a = generate_trial(full_range_scenario(duration=1.0, seed=11), params)
        b = generate_trial(full_range_scenario(duration=1.0, seed=11), params)
        assert a == b

    def test_different_seed_differs(self, params):
        a = generate_trial(full_range_scenario(duration=1.0, seed=11), params)
        b = generate_trial(full_range_scenario(duration=1.0, seed=12), params)
        assert a != b

    def test_metadata_recorded(self, params, short_trial):
        assert short_trial.name == "full_range"
        assert short_trial.seed == 7
        assert short_trial.params_hash == params.hash()

    def test_range_coverage_fz(self, params):
        # the axis signal is rescaled onto its declared range, so over a
        # long trial the empirical extrema sit on the range ends exactly
        trial = generate_trial(full_range_scenario(duration=35.0, seed=1), params)
        fz = trial.wrench[:, 2]
        assert abs(fz.max() - 14.0) <= 0.05 * 14.0
        assert fz.max() == pytest.approx(14.0, rel=1e-12)
        assert fz.min() == pytest.approx(0.0, abs=1e-12)

    def test_band_limit(self, params):
        trial = generate_trial(full_range_scenario(duration=35.0, seed=5), params)
        fz = trial.wrench[:, 2]
        spec = np.abs(np.fft.rfft(fz - fz.mean())) ** 2
        freqs = np.fft.rfftfreq(len(fz), 1.0 / 360.0)
        high = spec[freqs > 2.5].sum()
        assert high < 1e-3 * spec.sum()

    def test_overrange_scenario_rejected(self, params):
        scen = Scenario(name="crush", duration=1.0, seed=0, fz=(0.0, 500.0))
        with pytest.raises(ScenarioRangeError):
            generate_trial(scen, params)

    def test_temperature_plateaus(self, params):
        trial = generate_trial(temp_sweep_scenario(seed=2), params)
        temps = trial.temperature
        levels = np.unique(temps)
        assert len(levels) == 11
        assert levels == pytest.approx(np.linspace(20.0, 30.0, 11))
        # plateaus are contiguous, equal-length blocks
        changes = np.count_nonzero(np.diff(temps))
        assert changes == 10

    def test_temperature_ramp(self, params):
        scen = dataclasses.replace(temp_sweep_scenario(seed=2, duration=2.0),
                                   temp_steps=0)
        trial = generate_trial(scen, params)
        temps = trial.temperature
        assert np.all(np.diff(temps) > 0)
        assert temps[0] == pytest.approx(20.0)
        assert temps[-1] == pytest.approx(30.0, abs=0.02)

    def test_small_range_inside_full(self, params):
        small = small_range_scenario()
        full = full_range_scenario()
        for (slo, shi), (flo, fhi) in zip(small.ranges(), full.ranges()):
            assert slo >= flo and shi <= fhi
        generate_trial(dataclasses.replace(small, duration=0.5), params)

    def test_mechanical_lag_smooths_reference(self, params):
        lagged = dataclasses.replace(
            params, cdc=dataclasses.replace(params.cdc, lag_corner_hz=97.0))
        scen = full_range_scenario(duration=0.5, seed=4)
        a = generate_trial(scen, params)
        b = generate_trial(scen, lagged)
        assert not np.array_equal(a.wrench, b.wrench)
        # lag only reshapes the trajectory, never expands its envelope
        assert np.abs(b.wrench[:, 2]).max() <= 14.0 + 1e-9

    def test_lag_matches_per_row_numpy_formula(self, params, monkeypatch):
        lagged = dataclasses.replace(
            params, cdc=dataclasses.replace(params.cdc, lag_corner_hz=97.0))
        scen = full_range_scenario(duration=2.0)
        raw = []
        lag_rows = dataio.lag_rows
        monkeypatch.setattr(dataio, "lag_rows",
                            lambda rows, *a: raw.append(np.array(rows)) or lag_rows(rows, *a))
        got = generate_trial(scen, lagged)
        lo, hi = np.array(scen.ranges()).T

        def on_grid(a):
            return np.clip(np.round(a, dataio.WRENCH_DECIMALS), lo, hi)
        # the lag draws nothing, so it lags the unlagged trial's raw trajectory
        assert np.array_equal(on_grid(raw[0]), generate_trial(scen, params).wrench)
        dt = 1.0 / scen.sample_rate
        alpha = 1.0 - math.exp(-2.0 * math.pi * 97.0 * dt)
        state, rows = None, []
        for row in raw[0]:
            target = np.asarray(Wrench.from_sequence(row).as_tuple())
            state = target.copy() if state is None else state + alpha * (target - state)
            rows.append(Wrench.from_sequence(state).as_tuple())
        # the counts are sampled from the lagged rows on the grid, as logged
        expect = on_grid(np.array(rows))
        sample_trajectory = dataio.sample_trajectory
        monkeypatch.setattr(dataio, "sample_trajectory",
                            lambda w, temps, eff, rng: sample_trajectory(expect, temps, eff, rng))
        expect_counts = generate_trial(scen, lagged).counts

        def hexes(a):
            return [float(v).hex() for v in a.ravel().tolist()]
        assert hexes(got.wrench) == hexes(expect)
        assert hexes(got.counts) == hexes(expect_counts)

    @settings(max_examples=60, deadline=None)
    @given(ends=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                         min_size=6, max_size=6),
           lag_hz=st.sampled_from([None, 97.0]), seed=st.integers(0, 2**32 - 1))
    @example(ends=[(0.0, 0.0)] * 2 + [(0.0, 3.14159 / BOX_LIMITS[2])] + [(0.0, 0.0)] * 3,
             lag_hz=None, seed=0)
    @example(ends=[(-0.123456789, 0.0987654321)] * 6, lag_hz=97.0, seed=1)
    def test_wrench_on_grid_inside_box(self, params, ends, lag_hz, seed):
        # every logged wrench entry is its unrounded value on the 1e-4 grid,
        # or an end of its axis's box, and is the array the counts come from
        ends = np.sort(np.array(ends), axis=1)
        ends[2] = np.sort(np.abs(ends[2]))
        ranges = ends * BOX_LIMITS[:, None]
        scen = Scenario("box", 0.25, seed, *map(tuple, ranges.tolist()))
        try:
            check_mechanical_range(scen, params)
        except ScenarioRangeError:
            assume(False)
        with_lag = dataclasses.replace(params, cdc=dataclasses.replace(params.cdc,
                                                                       lag_corner_hz=lag_hz))
        axes, lagged_rows, sampled = [], [], []
        axis_signal, lag_rows = dataio._axis_signal, dataio.lag_rows
        sample_trajectory = dataio.sample_trajectory
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_axis_signal", lambda *a: axes.append(axis_signal(*a)) or axes[-1])
            mp.setattr(dataio, "lag_rows",
                       lambda *a: lagged_rows.append(np.array(lag_rows(*a))) or lagged_rows[-1])
            mp.setattr(dataio, "sample_trajectory",
                       lambda w, *a: sampled.append(w) or sample_trajectory(w, *a))
            trial = generate_trial(scen, with_lag)
        raw = lagged_rows[0] if lag_hz else np.column_stack(axes)
        lo, hi = ranges[:, 0], ranges[:, 1]
        w = trial.wrench
        assert np.all((lo <= w) & (w <= hi))
        assert np.all((w == np.round(raw, 4)) | (w == lo) | (w == hi))
        assert np.array_equal(sampled[0].view(np.uint64), w.view(np.uint64))


class TestLogRoundtrip:
    def test_equality(self, short_trial, tmp_path):
        p = tmp_path / "trial.csv"
        write_log(short_trial, p)
        loaded = load_log(p)
        assert loaded == short_trial

    def test_bytes_stable(self, short_trial, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_log(short_trial, p1)
        write_log(load_log(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_random_trials_property(self, tmp_path):
        rng = np.random.default_rng(0)
        for case in range(5):
            times, temps, counts, wrenches = [], [], [], []
            t = 0.0
            for i in range(20):
                t += float(rng.uniform(1e-4, 0.01))
                times.append(t)
                counts.append(rng.integers(0, 5000, size=12))
                temps.append(float(rng.uniform(-10, 60)))
                wrenches.append(rng.normal(scale=30, size=6))
            trial = Trial(name=f"case{case}", seed=case, params_hash="feedc0ffee12",
                          t=np.array(times), temperature=np.array(temps),
                          counts=np.array(counts), wrench=np.array(wrenches))
            p = tmp_path / f"case{case}.csv"
            write_log(trial, p)
            assert load_log(p) == trial

    @settings(max_examples=60, deadline=None)
    @given(trial=small_trials())
    def test_write_load_write_property(self, trial):
        with tempfile.TemporaryDirectory() as d:
            p1, p2 = Path(d) / "a.csv", Path(d) / "b.csv"
            write_log(trial, p1)
            loaded = load_log(p1)
            write_log(loaded, p2)
            assert p1.read_bytes() == p2.read_bytes()
        assert loaded == trial
        for name in ("t", "temperature", "counts", "wrench"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(trial, name))

    @settings(max_examples=100, deadline=None)
    @given(trial=repetitive_trials())
    def test_bytes_equal_per_cell_reference(self, trial):
        # write_log formats each distinct count and temperature once; a -0.0
        # next to 0.0 keeps its own text
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "a.csv"
            write_log(trial, p)
            assert p.read_bytes() == reference_log(trial)

    @settings(max_examples=200, deadline=None)
    @given(trial=grid_trials())
    @example(trial=grid_trial([0.0, -0.0, 9999.9999, -9999.9999, 1e-4, -1e-4],
                              [10.5, -0.01, 123.4567, 1000.0, -0.1, 7.0]))
    @example(trial=grid_trial([0.0, -0.0, 9999.9999, -9999.9999, 1e-4, -1e-4],
                              [1e4, 0.0, 0.0, 0.0, 0.0, 0.0]))
    @example(trial=grid_trial([0.12345, 1.0, 2.0, 3.0, 4.0, 5.0]))
    def test_grid_wrench_bytes_equal_per_cell_reference(self, trial):
        # a wrench on the 1e-4 grid below 1e4 is written from digit tables,
        # any other by repr; both give the per-cell reference bytes, and
        # write -> load -> write is byte identical
        with tempfile.TemporaryDirectory() as d:
            p1, p2 = Path(d) / "a.csv", Path(d) / "b.csv"
            write_log(trial, p1)
            assert p1.read_bytes() == reference_log(trial)
            loaded = load_log(p1)
            write_log(loaded, p2)
            assert p2.read_bytes() == p1.read_bytes()
        assert np.array_equal(loaded.wrench.view(np.uint64), trial.wrench.view(np.uint64))

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_other_wrench_dtypes_bytes_equal_per_cell_reference(self, dtype, tmp_path):
        # only float64 entries are written from digit tables: a float32 0.1
        # keeps the repr of its float64 value, an integer its integer text
        trial = dataclasses.replace(trial_at([0.0]), wrench=np.array(
            [[0.1, -2.0, 3.5, 0.0, 7.0, 1e-4]]).astype(dtype))
        write_log(trial, tmp_path / "a.csv")
        assert (tmp_path / "a.csv").read_bytes() == reference_log(trial)

    def test_random_bit_patterns_roundtrip(self, tmp_path):
        # uniform over float64 bit patterns, not only the values hypothesis favours
        rng = np.random.default_rng(11)
        n = 2000

        def finite_bits(shape):
            x = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
            return np.where(np.isfinite(x), x, 0.0)

        temps = finite_bits(n)  # one below absolute zero flips its sign bit
        trial = Trial(name="bits", seed=0, params_hash="", t=np.arange(n) / 7.0,
                      temperature=np.where(temps < ABSOLUTE_ZERO_C, -temps, temps),
                      counts=rng.integers(0, 2**63 - 1, size=(n, 12), endpoint=True),
                      wrench=finite_bits((n, 6)))
        p = tmp_path / "bits.csv"
        write_log(trial, p)
        loaded = load_log(p)
        for name in ("temperature", "wrench"):
            assert np.array_equal(getattr(loaded, name).view(np.uint64),
                                  getattr(trial, name).view(np.uint64))
        assert np.array_equal(loaded.counts, trial.counts)

    def test_loaded_columns_row_major(self, short_trial, tmp_path):
        p = tmp_path / "trial.csv"
        write_log(short_trial, p)
        loaded = load_log(p)
        for name, dtype in (("t", np.float64), ("temperature", np.float64),
                            ("counts", np.int64), ("wrench", np.float64)):
            column = getattr(loaded, name)
            assert column.dtype == dtype
            assert column.flags.c_contiguous

    def test_crlf_parses_identically(self, short_trial, tmp_path):
        p = tmp_path / "lf.csv"
        write_log(short_trial, p)
        q = tmp_path / "crlf.csv"
        q.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
        assert load_log(q) == load_log(p)

    def test_generated_wrench_text_is_short(self, short_trial, tmp_path):
        # each wrench cell is a 1e-4 grid value: at most 4 fraction digits, no exponent
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_log(short_trial, p1)
        rows = p1.read_text().splitlines()[4:]
        assert len(rows) == 720
        cell = re.compile(r"-?\d+\.\d{1,4}")
        for row in rows:
            for text in row.split(",")[14:]:
                assert cell.fullmatch(text), (row, text)
        write_log(load_log(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_line(self, short_trial, tmp_path):
        p = tmp_path / "trial.csv"
        write_log(short_trial, p)
        lines = p.read_text().splitlines()
        assert lines[3] == LOG_HEADER
        assert LOG_HEADER.startswith("t,T,Z1,Z2,Z3,Z4,")


class TestLogErrors:
    def write_lines(self, tmp_path, rows):
        p = tmp_path / "log.csv"
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return p

    def good_row(self, t):
        return ",".join([repr(t), "25.0"] + ["100"] * 12 + ["0.0"] * 6)

    def test_column_count_names_line(self, tmp_path):
        p = self.write_lines(tmp_path, [LOG_HEADER, self.good_row(0.0),
                                        self.good_row(0.1)[: -4]])
        with pytest.raises(LogFormatError, match="line 3"):
            load_log(p)

    def test_eleven_channel_row(self, tmp_path):
        row = ",".join([repr(0.0), "25.0"] + ["100"] * 11 + ["0.0"] * 6)
        p = self.write_lines(tmp_path, [LOG_HEADER, row])
        with pytest.raises(LogFormatError, match="19"):
            load_log(p)

    def test_non_integer_seed_loads_as_minus_one(self, tmp_path):
        p = self.write_lines(tmp_path, ["# name=x", "# seed=abc", LOG_HEADER,
                                        self.good_row(0.0)])
        trial = load_log(p)
        assert (trial.name, trial.seed) == ("x", -1)

    def test_bad_header(self, tmp_path):
        p = self.write_lines(tmp_path, ["time,temp,stuff", self.good_row(0.0)])
        with pytest.raises(LogFormatError, match="line 1"):
            load_log(p)

    def test_non_monotonic_timestamp(self, tmp_path):
        p = self.write_lines(tmp_path, [LOG_HEADER, self.good_row(0.5),
                                        self.good_row(0.5)])
        with pytest.raises(LogFormatError, match="non-monotonic"):
            load_log(p)

    def test_negative_count(self, tmp_path):
        row = ",".join([repr(0.0), "25.0", "-3"] + ["100"] * 11 + ["0.0"] * 6)
        p = self.write_lines(tmp_path, [LOG_HEADER, row])
        with pytest.raises(LogFormatError, match="negative"):
            load_log(p)

    def test_non_finite_value(self, tmp_path):
        row = ",".join([repr(0.0), "25.0"] + ["100"] * 12 + ["nan"] + ["0.0"] * 5)
        p = self.write_lines(tmp_path, [LOG_HEADER, row])
        with pytest.raises(LogFormatError, match="non-finite"):
            load_log(p)

    def test_earliest_bad_line_reported(self, tmp_path):
        # line 3 goes back in time, line 4 also holds a negative count
        negative = ",".join([repr(0.3), "25.0", "-3"] + ["100"] * 11 + ["0.0"] * 6)
        p = self.write_lines(tmp_path, [LOG_HEADER, self.good_row(0.5),
                                        self.good_row(0.1), negative])
        with pytest.raises(LogFormatError, match="line 3: non-monotonic"):
            load_log(p)

    def test_fractional_count_rejected(self, tmp_path):
        row = ",".join([repr(0.1), "25.0", "12.0"] + ["100"] * 11 + ["0.0"] * 6)
        p = self.write_lines(tmp_path, [LOG_HEADER, self.good_row(0.0), row])
        with pytest.raises(LogFormatError, match=r"line 3: .*'12\.0'"):
            load_log(p)

    def test_blank_line_named(self, tmp_path):
        p = self.write_lines(tmp_path, [LOG_HEADER, self.good_row(0.0), "",
                                        self.good_row(0.1)])
        with pytest.raises(LogFormatError, match="line 3: expected 20 columns, got 1"):
            load_log(p)

    def test_all_data_rows_blank(self, tmp_path):
        p = self.write_lines(tmp_path, ["# name=x", LOG_HEADER, "", ""])
        with pytest.raises(LogFormatError, match="line 3: expected 20 columns"):
            load_log(p)

    def test_hash_inside_data_row(self, tmp_path):
        # '#' only marks metadata above the header; in a data row it is a bad cell
        row = self.good_row(0.1).replace("25.0", "25.0#note", 1)
        p = self.write_lines(tmp_path, [LOG_HEADER, self.good_row(0.0), row])
        with pytest.raises(LogFormatError, match=r"line 3: .*'25\.0#note'"):
            load_log(p)

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662", "0x10", "1e3"],
                             ids=["underscore", "arabic-indic", "hex", "exponent"])
    def test_count_outside_grammar_named(self, tmp_path, cell):
        # Python's int() takes the first two; counts are ASCII decimal integers
        row = ",".join([repr(0.1), "25.0", "100", cell] + ["100"] * 10 + ["0.0"] * 6)
        p = self.write_lines(tmp_path, [LOG_HEADER, self.good_row(0.0), row,
                                        self.good_row(0.2)])
        with pytest.raises(LogFormatError, match=f"line 3: .*{cell!r}.* Z2 "):
            load_log(p)

    def test_undecodable_bytes_named(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_bytes(b"# name=\xff\n" + f"{LOG_HEADER}\n{self.good_row(0.0)}\n".encode())
        with pytest.raises(LogFormatError, match=f"cannot read log {re.escape(str(p))}: "):
            load_log(p)

    def test_float_with_underscore_named(self, tmp_path):
        row = self.good_row(0.1).replace("25.0", "2_5.0", 1)
        p = self.write_lines(tmp_path, [LOG_HEADER, self.good_row(0.0), row])
        with pytest.raises(LogFormatError, match="line 3: .*'2_5.0' in column T"):
            load_log(p)

    @pytest.mark.parametrize("rows", [
        [LOG_HEADER, ""],
        [LOG_HEADER, "1.0,2.0"],
        [LOG_HEADER, ",".join([repr(0.1), "25.0", "12.0"] + ["100"] * 11 + ["0.0"] * 6)],
        [LOG_HEADER, ",".join([repr(0.1), "25.0", "-3"] + ["100"] * 11 + ["0.0"] * 6)],
        [LOG_HEADER, ",".join([repr(0.1), "-300.0"] + ["100"] * 12 + ["0.0"] * 6)],
    ])
    def test_bad_file_emits_no_warning(self, tmp_path, rows):
        p = self.write_lines(tmp_path, rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(LogFormatError, match="line 2"):
                load_log(p)
        assert [str(w.message) for w in caught] == []

    def test_non_numeric_cell(self, tmp_path):
        row = ",".join([repr(0.0), "25.0", "abc"] + ["100"] * 11 + ["0.0"] * 6)
        p = self.write_lines(tmp_path, [LOG_HEADER, row])
        with pytest.raises(LogFormatError, match="line 2"):
            load_log(p)

    def test_metadata_shifts_line_numbers(self, tmp_path):
        p = self.write_lines(tmp_path, ["# name=x", "# seed=1", LOG_HEADER,
                                        self.good_row(0.0)[:-4]])
        with pytest.raises(LogFormatError, match="line 4"):
            load_log(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(LogFormatError):
            load_log(p)

    def test_header_only(self, tmp_path):
        p = self.write_lines(tmp_path, [LOG_HEADER])
        with pytest.raises(LogFormatError, match="no data rows"):
            load_log(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LogFormatError, match="cannot read"):
            load_log(tmp_path / "nope.csv")


class TestSplit:
    def make_trials(self, n):
        return [trial_at([0.0, 1.0], name=f"t{i}", seed=i) for i in range(n)]

    def test_eleven_trials(self):
        trials = self.make_trials(11)
        train, test = split(trials)
        assert len(train) == 10
        assert test is trials[-1]
        assert all(a is b for a, b in zip(train, trials[:10]))

    def test_two_trials(self):
        trials = self.make_trials(2)
        train, test = split(trials)
        assert len(train) == 1 and test is trials[1]

    def test_one_trial_rejected(self):
        with pytest.raises(ValueError):
            split(self.make_trials(1))


class TestScenarioSerialization:
    def test_roundtrip(self):
        s = full_range_scenario(duration=12.5, seed=42)
        assert scenario_from_dict(dataclasses.asdict(s)) == s

    def test_temp_sweep_roundtrip(self):
        s = temp_sweep_scenario(seed=9, steps=7)
        assert scenario_from_dict(dataclasses.asdict(s)) == s

    def test_missing_key_rejected(self):
        d = dataclasses.asdict(full_range_scenario())
        del d["fz"]
        with pytest.raises(ScenarioRangeError):
            scenario_from_dict(d)

    def test_band_above_limit_rejected(self):
        with pytest.raises(ScenarioRangeError):
            Scenario(name="x", duration=1.0, seed=0, band_hz=3.0)

    def test_inverted_range_rejected(self):
        with pytest.raises(ScenarioRangeError):
            Scenario(name="x", duration=1.0, seed=0, fz=(5.0, 1.0))

    @pytest.mark.parametrize("field", ["components", "temp_steps"])
    @pytest.mark.parametrize("value", [361, 10 ** 400])
    def test_more_than_one_per_sample_rejected(self, field, value):
        # 1 s at 360 Hz: both size arrays in generate, so 361 is one too many
        with pytest.raises(ScenarioRangeError, match=field):
            Scenario(name="x", duration=1.0, seed=0, **{field: value})

    @pytest.mark.parametrize("field", ["components", "temp_steps"])
    def test_one_per_sample_accepted(self, field):
        assert getattr(Scenario(name="x", duration=1.0, seed=0, **{field: 360}), field) == 360

    @pytest.mark.parametrize("field", ["temp_start", "temp_end"])
    def test_below_absolute_zero_rejected(self, field):
        with pytest.raises(ScenarioRangeError, match=f"Scenario.{field} .* absolute zero"):
            Scenario(name="x", duration=1.0, seed=0, **{field: -273.16})
        assert getattr(Scenario(name="x", duration=1.0, seed=0, **{field: -273.15}),
                       field) == -273.15

    def test_sample_count_above_the_ceiling_rejected(self):
        # 1e7 s at 360 Hz is 3.6e9 samples, about 27 GiB for generate to allocate
        with pytest.raises(ScenarioRangeError, match="3600000000 samples, above the ceiling"):
            Scenario(name="x", duration=1e7, seed=0)
        with pytest.raises(ScenarioRangeError, match=f"ceiling of {dataio.MAX_SAMPLES}"):
            Scenario(name="x", duration=dataio.MAX_SAMPLES + 1.0, seed=0, sample_rate=1.0)
        at_ceiling = Scenario(name="x", duration=dataio.MAX_SAMPLES / 360.0, seed=0)
        assert at_ceiling.sample_count == dataio.MAX_SAMPLES

    def test_sine_terms_above_the_ceiling_rejected(self):
        # 1000 s at 360 Hz: each axis sums components sines over 360,000 samples
        most = dataio.MAX_SINE_TERMS // 360_000
        with pytest.raises(ScenarioRangeError,
                           match=f"ceiling of {dataio.MAX_SINE_TERMS} sine terms"):
            Scenario(name="x", duration=1000.0, seed=0, components=most + 1)
        assert Scenario(name="x", duration=1000.0, seed=0, components=most).components == most

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ScenarioRangeError):
            Scenario(name="x", duration=0.0, seed=0)
