"""Least-squares calibration, metrics, and thermal compensation."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capft.core import Wrench
from capft.calibration import (
    AXIS_NAMES,
    CalibrationError,
    CalibrationModel,
    ChannelMismatchError,
    IllConditionedError,
    ModelFormatError,
    NonFiniteEstimateError,
    compensate,
    evaluate,
    expand_features,
    fit,
    fit_temp_baseline,
    load_model,
    predict,
    predict_counts,
    save_model,
    tare,
)
from capft.sensor_model import (
    CapacitanceFrame,
    CdcConfig,
    default_sensor_params,
    sample,
)


def make_frame(counts, timestamp=0.0, temperature=25.0):
    counts = [int(v) for v in counts]
    return CapacitanceFrame(normal_counts=tuple(counts[:4]),
                            shear_counts=tuple(counts[4:]),
                            timestamp=timestamp, temperature=temperature)


def columns(frames):
    """(N, 12) counts and (N,) temperatures of a frame list."""
    return np.array([f.counts for f in frames]), np.array([f.temperature for f in frames])


def synthetic_dataset(n, rng, noise=0.0):
    """Counts and wrenches from a known quadratic map so the fit has an exact answer."""
    a_true = rng.normal(scale=0.01, size=(6, 24))
    baseline = np.full(12, 1000.0)
    counts, wrenches = [], []
    for i in range(n):
        c = rng.integers(900, 1100, size=12)
        feats = np.concatenate([c - baseline, (c - baseline) ** 2])
        y = a_true @ feats
        if noise:
            y = y + rng.normal(scale=noise, size=6)
        counts.append(c)
        wrenches.append(y)
    return a_true, baseline, np.array(counts), np.array(wrenches)


class TestTare:
    def test_single_frame(self):
        f = make_frame(range(100, 112))
        assert tare(columns([f])[0]) == pytest.approx(np.arange(100, 112, dtype=float))

    def test_mean_of_two(self):
        a = make_frame([100] * 12)
        b = make_frame([102] * 12)
        assert tare(columns([a, b])[0]) == pytest.approx(np.full(12, 101.0))

    def test_empty_rejected(self):
        with pytest.raises(CalibrationError):
            tare(np.empty((0, 12), dtype=int))

    def test_statistical_recovery(self):
        params = default_sensor_params()
        rng = np.random.default_rng(0)
        frames = [sample(Wrench.zero(), params.drift.reference_temp, params, rng,
                         timestamp=i / 360.0) for i in range(1000)]
        quiet = dataclasses.replace(params, cdc=CdcConfig(noise_sigma_counts=0.0))
        truth = np.array(sample(Wrench.zero(), params.drift.reference_temp, quiet,
                                np.random.default_rng(1)).counts, dtype=float)
        sigma = params.cdc.noise_sigma_counts
        est = tare(columns(frames)[0])
        # rounding adds at most half a count of extra slack
        assert np.all(np.abs(est - truth) < 3 * sigma / math.sqrt(1000) + 0.5)


class TestFeatures:
    def test_baseline_frame_is_zero(self):
        base = np.full(12, 50.0)
        f = make_frame([50] * 12)
        assert expand_features(f.counts, base, "full") == pytest.approx(np.zeros(24))

    def test_unit_channel(self):
        base = np.zeros(12)
        f = make_frame([1] + [0] * 11)
        feats = expand_features(f.counts, base, "full")
        expect = np.zeros(24)
        expect[0] = 1.0
        expect[12] = 1.0
        assert feats == pytest.approx(expect)

    def test_square_slot(self):
        base = np.zeros(12)
        f = make_frame([0, 3] + [0] * 10)
        feats = expand_features(f.counts, base, "full")
        assert feats[1] == 3.0 and feats[13] == 9.0

    def test_shear_only_drops_normal_channels(self):
        base = np.arange(12, dtype=float)
        f = make_frame(range(12))
        feats = expand_features(f.counts, base, "shear_only")
        assert feats.shape == (16,)


class TestFit:
    def test_noiseless_recovery_vs_pinv_oracle(self):
        rng = np.random.default_rng(2)
        a_true, baseline, counts, wrenches = synthetic_dataset(400, rng)
        model = fit(counts, wrenches, baseline, ridge=0.0)
        # independent oracle: least-squares through the pseudoinverse
        counts = counts.astype(float)
        x = np.hstack([counts - baseline, (counts - baseline) ** 2]).T
        y = wrenches.T
        a_pinv = y @ np.linalg.pinv(x)
        np.testing.assert_allclose(model.matrix, a_pinv, rtol=1e-6, atol=1e-12)
        np.testing.assert_allclose(model.matrix, a_true, rtol=1e-6, atol=1e-10)

    def test_single_sample_ill_conditioned(self):
        rng = np.random.default_rng(3)
        _, baseline, counts, wrenches = synthetic_dataset(1, rng)
        with pytest.raises(IllConditionedError):
            fit(counts, wrenches, baseline, ridge=0.0)

    def test_rank_deficient_rejected(self):
        # 30 copies of one frame: plenty of samples, rank 1
        counts = np.full((30, 12), 1005)
        wrenches = np.zeros((30, 6))
        with pytest.raises(IllConditionedError):
            fit(counts, wrenches, np.full(12, 1000.0), ridge=0.0)

    def test_normal_equation_optimality(self):
        rng = np.random.default_rng(4)
        _, baseline, counts, wrenches = synthetic_dataset(300, rng, noise=0.5)
        model = fit(counts, wrenches, baseline, ridge=0.0)
        assert model.normal_eq_residual < 1e-6

    def test_full_training_residual_never_worse_than_shear(self):
        rng = np.random.default_rng(5)
        _, baseline, counts, wrenches = synthetic_dataset(300, rng, noise=0.5)
        mf = fit(counts, wrenches, baseline, mode="full", ridge=0.0)
        ms = fit(counts, wrenches, baseline, mode="shear_only", ridge=0.0)
        for a, b in zip(mf.train_rmse, ms.train_rmse):
            assert a <= b + 1e-12

    def test_mismatched_lengths(self):
        rng = np.random.default_rng(6)
        _, baseline, counts, wrenches = synthetic_dataset(30, rng)
        with pytest.raises(CalibrationError):
            fit(counts, wrenches[:-1], baseline)

    @pytest.mark.parametrize("ridge", [math.nan, math.inf, -math.inf, -1.0])
    def test_ridge_not_finite_and_non_negative_rejected(self, ridge):
        # inf would otherwise reach the solve and raise a numpy RuntimeWarning
        rng = np.random.default_rng(6)
        _, baseline, counts, wrenches = synthetic_dataset(30, rng)
        with pytest.raises(CalibrationError, match="ridge must be finite and non-negative"):
            fit(counts, wrenches, baseline, ridge=ridge)


class TestPredict:
    def test_baseline_frame_predicts_zero(self):
        rng = np.random.default_rng(7)
        _, baseline, counts, wrenches = synthetic_dataset(200, rng)
        model = fit(counts, wrenches, baseline, ridge=0.0)
        w = predict(model, make_frame([1000] * 12))
        assert np.array(w.as_tuple()) == pytest.approx(np.zeros(6), abs=1e-9)

    def test_matrix_linearity(self):
        rng = np.random.default_rng(8)
        _, baseline, counts, wrenches = synthetic_dataset(200, rng)
        model = fit(counts, wrenches, baseline, ridge=0.0)
        doubled = dataclasses.replace(model, matrix=2.0 * model.matrix)
        f = make_frame(counts[0])
        w1 = np.array(predict(model, f).as_tuple())
        w2 = np.array(predict(doubled, f).as_tuple())
        assert w2 == pytest.approx(2.0 * w1, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning",
                                "ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_non_finite_estimate_is_a_model_error(self):
        rng = np.random.default_rng(7)
        _, baseline, counts, wrenches = synthetic_dataset(200, rng)
        model = fit(counts, wrenches, baseline, ridge=0.0)
        huge = dataclasses.replace(model, matrix=np.full_like(model.matrix, 1e307))
        with pytest.raises(NonFiniteEstimateError, match="model estimate is not finite"):
            predict(huge, make_frame(counts[0]))
        with pytest.raises(NonFiniteEstimateError, match="model estimate is not finite"):
            predict_counts(huge, counts)
        with pytest.raises(NonFiniteEstimateError, match="model estimate is not finite"):
            evaluate(huge, counts, wrenches)

    def test_tare_consistency(self):
        # shifting counts and baseline together leaves the prediction bitwise
        rng = np.random.default_rng(9)
        _, baseline, counts, wrenches = synthetic_dataset(200, rng)
        model = fit(counts, wrenches, baseline, ridge=0.0)
        f = make_frame(counts[3])
        shifted = make_frame(np.array(f.counts) + 7)
        w_a = predict(model, f)
        w_b = predict(model, shifted, baseline=baseline + 7.0)
        assert w_a.as_tuple() == w_b.as_tuple()

    @settings(max_examples=200, deadline=None)
    @given(mode=st.sampled_from(["full", "shear_only"]),
           counts=st.lists(st.integers(0, 2**40), min_size=12, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_one_reading_matches_expand_features_hex(self, mode, counts, seed):
        # predict skips expand_features' checks for the model's own baseline
        # and must give the same bits; an explicit baseline is still checked
        rng = np.random.default_rng(seed)
        n_feat = 24 if mode == "full" else 16
        model = CalibrationModel(
            matrix=rng.normal(scale=rng.uniform(1e-9, 1.0), size=(6, n_feat)),
            baseline=rng.uniform(0.0, 2.0**40, size=12), mode=mode, ridge=0.0,
            train_rmse=(0.0,) * 6, normal_eq_residual=0.0)
        frame = make_frame(counts)
        expect = Wrench.from_sequence(
            model.matrix @ expand_features(frame.counts, model.baseline, model.mode))
        got = predict(model, frame)
        assert [v.hex() for v in got.as_tuple()] == [v.hex() for v in expect.as_tuple()]
        with pytest.raises(CalibrationError):
            predict(model, frame, baseline=np.zeros(11))

    def test_end_to_end_roundtrip(self):
        params = default_sensor_params()
        rng = np.random.default_rng(10)
        from capft import dataio
        trials = [dataio.generate_trial(
            dataio.full_range_scenario(name=f"t{i}", duration=12.0, seed=100 + i),
            params) for i in range(4)]
        tare_trial = dataio.generate_trial(dataio.no_load_scenario(seed=999), params)
        baseline = tare(tare_trial.counts)
        train, _ = dataio.split(trials)
        counts = np.concatenate([t.counts for t in train])
        wr = np.concatenate([t.wrench for t in train])
        model = fit(counts, wr, baseline)
        w_true = Wrench(1.0, -2.0, 6.0, 20.0, -15.0, 5.0)
        errs = []
        for k in range(50):
            frame = sample(w_true, params.drift.reference_temp, params, rng)
            w_hat = predict(model, frame)
            errs.append(np.array(w_hat.as_tuple()) - np.array(w_true.as_tuple()))
        bias = np.abs(np.mean(errs, axis=0))
        assert np.all(bias[:3] < 0.4)  # forces, N
        assert np.all(bias[3:] < 5.0)  # moments, mN*m


class TestMetrics:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(11)
        _, baseline, counts, wrenches = synthetic_dataset(100, rng)
        model = fit(counts, wrenches, baseline, ridge=0.0)
        m = evaluate(model, counts, wrenches)
        assert max(m.rmse) < 1e-9
        assert min(m.r_squared) > 1.0 - 1e-9

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        _, baseline, counts, wrenches = synthetic_dataset(150, rng, noise=1.0)
        model = fit(counts, wrenches, baseline, ridge=0.0)
        m = evaluate(model, counts, wrenches)
        preds = [predict(model, make_frame(c)).as_tuple() for c in counts]
        refs = wrenches.tolist()
        for axis in range(6):
            errs = [p[axis] - r[axis] for p, r in zip(preds, refs)]
            rmse = math.sqrt(sum(e * e for e in errs) / len(errs))
            mean_ref = sum(r[axis] for r in refs) / len(refs)
            ss_res = sum(e * e for e in errs)
            ss_tot = sum((r[axis] - mean_ref) ** 2 for r in refs)
            assert m.rmse[axis] == pytest.approx(rmse, rel=1e-12)
            assert m.r_squared[axis] == pytest.approx(1 - ss_res / ss_tot, rel=1e-12)

    def test_constant_axis_undefined_r2(self):
        rng = np.random.default_rng(13)
        _, baseline, counts, _ = synthetic_dataset(60, rng)
        wrenches = np.array([(0, 0, float(3 + (i % 7)), 0, 0, 0)
                             for i in range(len(counts))], dtype=float)
        model = fit(counts, wrenches, baseline)
        m = evaluate(model, counts, wrenches)
        for axis, name in enumerate(AXIS_NAMES):
            if name == "Fz":
                assert not math.isnan(m.r_squared[axis])
            else:
                assert math.isnan(m.r_squared[axis])
        assert any("n/a" in line for line in m.summary_lines())

    def test_hand_worked_metrics(self):
        # model reads Fz straight off channel 0, baseline zero
        matrix = np.zeros((6, 24))
        matrix[2, 0] = 1.0
        model = CalibrationModel(matrix=matrix, baseline=np.zeros(12),
                                 mode="full", ridge=0.0,
                                 train_rmse=(0.0,) * 6, normal_eq_residual=0.0)
        counts = np.array([[1] + [0] * 11, [3] + [0] * 11])
        refs = np.array([(0, 0, 2.0, 0, 0, 0), (0, 0, 4.0, 0, 0, 0)])
        m = evaluate(model, counts, refs)
        # predictions (1, 3) against (2, 4): errors (-1, -1)
        assert m.rmse[2] == pytest.approx(1.0, rel=1e-12)
        assert m.r_squared[2] == pytest.approx(0.0, abs=1e-12)


@pytest.fixture(scope="module")
def sensor_params():
    return default_sensor_params()


@pytest.fixture(scope="module")
def sweep_trial(sensor_params):
    from capft import dataio
    return dataio.generate_trial(dataio.temp_sweep_scenario(seed=21), sensor_params)


@pytest.fixture(scope="module")
def sweep_comp(sweep_trial, sensor_params):
    return fit_temp_baseline(sweep_trial.counts, sweep_trial.temperature,
                             sensor_params.drift.reference_temp)


class TestTempCompensation:
    def test_drift_free_sweep_flat(self, sensor_params):
        from capft import dataio
        sweep = dataio.generate_trial(
            dataclasses.replace(dataio.temp_sweep_scenario(seed=22),
                                drift_enabled=False), sensor_params)
        comp = fit_temp_baseline(sweep.counts, sweep.temperature,
                                 sensor_params.drift.reference_temp)
        for k in range(12):
            assert abs(comp.a1[k]) < 0.05
            assert abs(comp.a2[k]) < 0.01

    def test_linear_drift_recovery_within_1pct(self, sensor_params):
        # 2% per 10 degC pure-linear drift; fitted slope must match C0*alpha.
        # many temperature levels so count rounding dithers out of the slope
        drift = dataclasses.replace(sensor_params.drift,
                                    alpha=(0.002,) * 12, beta=(0.0,) * 12)
        params = dataclasses.replace(sensor_params, drift=drift)
        from capft import dataio
        sweep = dataio.generate_trial(
            dataio.temp_sweep_scenario(seed=23, steps=41), params)
        t0 = drift.reference_temp
        comp = fit_temp_baseline(sweep.counts, sweep.temperature, t0)
        from capft.sensor_model import capacitances
        c0 = capacitances(Wrench.zero(), params) * params.cdc.gain_counts_per_farad
        for k in range(12):
            expect = c0[k] * drift.alpha[k]
            assert comp.a1[k] == pytest.approx(expect, rel=0.01)
            assert comp.r_squared[k] > 0.999

    def test_quadratic_drift_residual_below_noise(self, sweep_trial, sweep_comp,
                                                  sensor_params):
        sigma = sensor_params.cdc.noise_sigma_counts
        t0 = sweep_comp.reference_temp
        counts = sweep_trial.counts.astype(float)
        temps = sweep_trial.temperature
        for k in range(12):
            model_counts = sweep_comp.a0[k] + sweep_comp.a1[k] * (temps - t0) \
                + sweep_comp.a2[k] * (temps - t0) ** 2
            resid = counts[:, k] - model_counts
            assert resid.std() < sigma * 1.2

    def test_fit_quality(self, sweep_comp):
        assert min(sweep_comp.r_squared) > 0.999

    def test_too_few_temperatures(self):
        frames = [make_frame([1000] * 12, temperature=25.0),
                  make_frame([1001] * 12, temperature=30.0)]
        with pytest.raises(IllConditionedError):
            fit_temp_baseline(*columns(frames * 10), 25.0)

    def test_narrow_span_rejected(self):
        frames = [make_frame([1000] * 12, temperature=t)
                  for t in (25.0, 26.0, 27.0) for _ in range(5)]
        with pytest.raises(IllConditionedError):
            fit_temp_baseline(*columns(frames), 25.0)

    def test_compensate_identity_at_reference(self, sweep_comp):
        f = make_frame([1500] * 12, temperature=sweep_comp.reference_temp)
        g = compensate(f, sweep_comp.reference_temp, sweep_comp)
        assert g.counts == f.counts

    def test_compensate_roundtrip_to_baseline(self, sweep_comp, sensor_params):
        quiet = dataclasses.replace(sensor_params, cdc=CdcConfig(noise_sigma_counts=0.0))
        t0 = sweep_comp.reference_temp
        f_hot = sample(Wrench.zero(), t0 + 10.0, quiet, np.random.default_rng(0))
        f_ref = sample(Wrench.zero(), t0, quiet, np.random.default_rng(0))
        g = compensate(f_hot, t0 + 10.0, sweep_comp)
        for a, b in zip(g.counts, f_ref.counts):
            assert abs(a - b) <= 3 * sensor_params.cdc.noise_sigma_counts

    def test_counts_stay_non_negative_ints(self, sweep_comp):
        f = make_frame([0] * 12, temperature=35.0)
        g = compensate(f, 35.0, sweep_comp)
        assert all(isinstance(v, int) and v >= 0 for v in g.counts)


def saved_model(path):
    """Fit a model and a temperature compensator and save both to path."""
    rng = np.random.default_rng(14)
    _, baseline, counts, wrenches = synthetic_dataset(120, rng, noise=0.3)
    model = fit(counts, wrenches, baseline)
    comp = fit_temp_baseline(*columns(
        [make_frame([1000 + 2 * k] * 12, temperature=20.0 + k)
         for k in range(11) for _ in range(5)]), 25.0)
    save_model(model, path, comp=comp)
    return model, comp


def edit_model_file(path, keys, value):
    """Set the entry at the key path keys of a saved model file to value."""
    payload = json.loads(path.read_text())
    *parents, last = keys
    target = payload
    for k in parents:
        target = target[k]
    target[last] = value
    path.write_text(json.dumps(payload))


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "model.json"
        model, comp = saved_model(path)
        loaded, comp2 = load_model(path)
        np.testing.assert_array_equal(loaded.matrix, model.matrix)
        np.testing.assert_array_equal(loaded.baseline, model.baseline)
        assert loaded.mode == model.mode
        assert loaded.ridge == model.ridge
        assert comp2.a1 == comp.a1 and comp2.a2 == comp.a2

    @pytest.mark.parametrize("keys, value, named", [
        (("matrix", 2, 3), float("nan"), "non-finite matrix"),
        (("baseline", 5), float("-inf"), "non-finite baseline"),
        (("ridge",), float("inf"), "non-finite ridge"),
        (("ridge",), -1.0, "negative ridge"),
        (("temp_compensator", "a0", 0), float("nan"), "non-finite temp_compensator a0"),
        (("temp_compensator", "a1", 4), float("inf"), "non-finite temp_compensator a1"),
        (("temp_compensator", "a2", 11), float("nan"), "non-finite temp_compensator a2"),
        (("temp_compensator", "reference_temp"), float("nan"), "reference_temp"),
    ])
    def test_non_finite_or_negative_entry_rejected(self, tmp_path, keys, value, named):
        path = tmp_path / "model.json"
        saved_model(path)
        edit_model_file(path, keys, value)
        with pytest.raises(ModelFormatError, match=named):
            load_model(path)

    def test_nan_fit_quality_accepted(self, tmp_path):
        # fit_temp_baseline writes r_squared NaN for a channel that never moves
        path = tmp_path / "model.json"
        saved_model(path)
        edit_model_file(path, ("temp_compensator", "r_squared", 0), float("nan"))
        _, comp = load_model(path)
        assert math.isnan(comp.r_squared[0])

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_format_version_must_be_the_integer_1(self, tmp_path, version):
        # true and 1.0 compare equal to 1 but are not the JSON integer 1
        path = tmp_path / "model.json"
        saved_model(path)
        edit_model_file(path, ("format_version",), version)
        with pytest.raises(ModelFormatError, match="unsupported model format version"):
            load_model(path)

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a model"}')
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_mode_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        _, baseline, counts, wrenches = synthetic_dataset(120, rng)
        model = fit(counts, wrenches, baseline, mode="shear_only")
        assert model.matrix.shape == (6, 16)
        with pytest.raises(ChannelMismatchError):
            dataclasses.replace(model, mode="full")

    def test_unknown_mode_rejected(self):
        with pytest.raises(CalibrationError):
            expand_features(make_frame([0] * 12).counts, np.zeros(12), "both")
