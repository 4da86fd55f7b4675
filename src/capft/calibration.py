"""Least-squares calibration from capacitance counts to wrenches.

The map is linear in a quadratic feature expansion of the tared counts:
for each frame the feature vector stacks the twelve baseline-subtracted
channels and their elementwise squares (24 features), or only the eight
shear channels and their squares (16) when normal-mode electrodes are
excluded.  A 6 x F matrix fitted by a ridge-regularized normal equation
maps features to (Fx, Fy, Fz, Mx, My, Mz) with forces in N and moments
in mN*m.

Temperature handling is separate and applied before feature expansion:
a per-channel quadratic baseline polynomial in (T - T_ref), fitted on
no-load sweep data, is subtracted from raw counts so that the channels
are referred back to the tare temperature.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import InputFileError, Wrench, check_temperature, from_plain, read_json, write_lines
from .sensor_model import NUM_CHANNELS, CapacitanceFrame

AXIS_NAMES = ("Fx", "Fy", "Fz", "Mx", "My", "Mz")
MODEL_FORMAT_VERSION = 1
MIN_TEMP_SPAN = 5.0  # degC between the coldest and warmest level of a drift fit

_MODE_FEATURES = {"full": 24, "shear_only": 16}


class CalibrationError(ValueError):
    """Base class for calibration model and data problems."""


class IllConditionedError(CalibrationError):
    """Normal equation is rank deficient or there is too little data."""


class ChannelMismatchError(CalibrationError):
    """Model or counts shape does not match the channels or the declared mode."""


class ModelFormatError(CalibrationError):
    """Serialized model file is malformed."""


class NonFiniteEstimateError(CalibrationError):
    """The model's estimate of a reading is not finite: the model is too
    large for the counts it reads."""


_NON_FINITE_ESTIMATE = "model estimate is not finite: the model is too large for these counts"


def tare(counts: np.ndarray) -> np.ndarray:
    """Per-channel mean of (N, 12) no-load counts, the baseline for feature expansion."""
    if len(counts) == 0:
        raise IllConditionedError("tare requires at least one frame")
    return np.asarray(counts, dtype=float).mean(axis=0)


def _check_mode(mode: str) -> int:
    if mode not in _MODE_FEATURES:
        raise CalibrationError(f"unknown mode {mode!r}, expected one of {sorted(_MODE_FEATURES)}")
    return _MODE_FEATURES[mode]


def expand_features(counts, baseline: np.ndarray, mode: str = "full") -> np.ndarray:
    """Tared counts followed by their squares: an (F,) vector for one (12,) reading,
    or for (N, 12) counts the (F, N) transposed view of one row-major (N, F) buffer."""
    _check_mode(mode)
    baseline = np.asarray(baseline, dtype=float)
    if baseline.shape != (NUM_CHANNELS,):
        raise CalibrationError(f"baseline must have {NUM_CHANNELS} channels")
    if isinstance(counts, tuple):  # _features checks an array's width, not a reading's
        _channels(counts)
    return _features(counts, baseline, mode)


def _channels(counts) -> np.ndarray:
    """counts as an array whose last axis is the twelve channels; another width raises."""
    counts = np.asarray(counts)
    if counts.shape[-1:] != (NUM_CHANNELS,):
        raise ChannelMismatchError(f"counts of shape {counts.shape}: not {NUM_CHANNELS} channels")
    return counts


def _features(counts, baseline: np.ndarray, mode: str) -> np.ndarray:
    """expand_features for a mode and (12,) baseline already checked, written in
    place into one row-major (N, F) buffer whose (F, N) transposed view it returns."""
    n = _MODE_FEATURES[mode] // 2
    lo = NUM_CHANNELS - n  # shear_only drops the four normal channels
    one = isinstance(counts, tuple)  # a frame's twelve ints: no array first, so predict stays fast
    counts = counts[lo:] if one else _channels(counts)[..., lo:]
    feats = np.empty((2 * n,) if one else counts.shape[:-1] + (2 * n,))
    tared = feats[..., :n]
    tared[...] = counts  # each count rounds to float as float(int) rounds it
    tared -= baseline[lo:]
    np.multiply(tared, tared, out=feats[..., n:])
    return feats.T


@dataclass(frozen=True)
class CalibrationModel:
    """Fitted linear map from quadratic count features to a wrench; its fields
    are the model file's keys, in the file's order (see save_model)."""

    mode: str
    ridge: float
    baseline: np.ndarray  # (12,)
    matrix: np.ndarray  # (6, F)
    train_rmse: tuple[float, ...]
    normal_eq_residual: float  # max |X (Y - A X)^T| / max |X Y^T|, optimality check

    def __post_init__(self) -> None:
        expected = _check_mode(self.mode)
        if self.matrix.shape != (6, expected):
            raise ChannelMismatchError(
                f"mode {self.mode!r} expects a (6, {expected}) matrix, got {self.matrix.shape}")
        if self.baseline.shape != (NUM_CHANNELS,):
            raise ChannelMismatchError("baseline must cover all 12 channels")
        for name in ("matrix", "baseline", "ridge"):
            if not np.isfinite(getattr(self, name)).all():
                raise CalibrationError(f"non-finite {name}")
        if self.ridge < 0.0:
            raise CalibrationError(f"negative ridge {self.ridge!r}")


def fit(counts, wrenches, baseline: np.ndarray, mode: str = "full",
        ridge: float | None = None) -> CalibrationModel:
    """Fit the feature-to-wrench matrix to (N, 12) counts and (N, 6) wrenches,
    each one array or equal-length lists of per-trial blocks.

    Solves (X X^T + ridge * I) A^T = X Y^T, with X X^T and X Y^T summed block
    by block, so only one block's features are held at a time; a second pass
    over the blocks sums the training residual.  ridge=None picks the default
    1e-9 * trace(X X^T) / 24; ridge=0.0 is the plain normal equation and
    requires full-rank features.
    """
    n_feat = _check_mode(mode)
    if not isinstance(counts, list):
        counts, wrenches = [counts], [wrenches]
    if len(counts) != len(wrenches) or any(len(c) != len(w) for c, w in zip(counts, wrenches)):
        raise CalibrationError("frames and wrenches must pair up")
    n = sum(map(len, counts))
    if n < n_feat:
        raise IllConditionedError(f"need at least {n_feat} samples for mode {mode!r}, got {n}")
    baseline = np.asarray(baseline, dtype=float)
    gram, xyt = np.zeros((n_feat, n_feat)), np.zeros((n_feat, 6))
    for c, w in zip(counts, wrenches):
        x = expand_features(c, baseline, mode)
        gram += x @ x.T
        xyt += x @ np.asarray(w, dtype=float)
        del x  # free this block's features before the next block's are built
    if ridge is None:
        ridge = 1e-9 * np.trace(gram) / 24.0
    if not (math.isfinite(ridge) and ridge >= 0.0):
        raise CalibrationError(f"ridge must be finite and non-negative, got {ridge!r}")
    if ridge == 0.0 and np.linalg.matrix_rank(gram, hermitian=True) < n_feat:
        raise IllConditionedError("feature Gram matrix is rank deficient with ridge 0")
    try:
        a = np.linalg.solve(gram + ridge * np.eye(n_feat), xyt).T
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"normal equation solve failed: {exc}") from exc
    grad, sse = np.zeros((n_feat, 6)), np.zeros(6)
    for c, w in zip(counts, wrenches):
        x = expand_features(c, baseline, mode)
        resid = np.asarray(w, dtype=float).T - a @ x
        grad += x @ resid.T
        sse += (resid * resid).sum(axis=1)
        del x, resid
    denom = np.max(np.abs(xyt))
    grad_ratio = float(np.max(np.abs(grad)) / denom) if denom > 0.0 else 0.0
    rmse = tuple(float(v) for v in np.sqrt(sse / n))
    return CalibrationModel(mode=mode, ridge=float(ridge), baseline=baseline, matrix=a,
                            train_rmse=rmse, normal_eq_residual=grad_ratio)


def predict_counts(model: CalibrationModel, counts: np.ndarray) -> np.ndarray:
    """(6, N) wrench estimates for (N, 12) counts, tared on the model's baseline.

    One matrix-vector product per reading, the kernel predict runs, so
    column i equals predict of reading i bit for bit.  An estimate that is
    not finite raises NonFiniteEstimateError.
    """
    x = np.ascontiguousarray(_features(counts, model.baseline, model.mode).T)
    with np.errstate(over="ignore", invalid="ignore"):
        est = np.matmul(model.matrix, x[:, :, None])[:, :, 0].T
    if not np.isfinite(est).all():
        raise NonFiniteEstimateError(_NON_FINITE_ESTIMATE)
    return est


def predict(model: CalibrationModel, frame: CapacitanceFrame) -> Wrench:
    """Wrench estimate for one frame, tared on the model's baseline: one
    matrix-vector product, as each reading of predict_counts.  An estimate
    that is not finite raises NonFiniteEstimateError, found by the Wrench's
    own check.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        est = (model.matrix @ _features(frame.counts, model.baseline, model.mode)).tolist()
    try:
        return Wrench(*est)
    except ValueError as exc:
        raise NonFiniteEstimateError(f"{_NON_FINITE_ESTIMATE} ({exc})") from exc


@dataclass(frozen=True)
class Metrics:
    """Per-axis regression quality; axis order matches AXIS_NAMES."""

    rmse: tuple[float, ...]
    r_squared: tuple[float, ...]  # nan where the reference axis is constant

    def summary_lines(self) -> list[str]:
        lines = []
        for name, rm, r2 in zip(AXIS_NAMES, self.rmse, self.r_squared):
            unit = "N" if name.startswith("F") else "mN*m"
            r2_text = "n/a" if math.isnan(r2) else f"{r2:.4f}"
            lines.append(f"{name}: rmse {rm:.4f} {unit}, R^2 {r2_text}")
        return lines


def evaluate(model: CalibrationModel, counts: np.ndarray, wrenches: np.ndarray) -> Metrics:
    """RMSE and R^2 per axis on held-out (N, 12) counts and (N, 6) wrenches."""
    if len(counts) != len(wrenches) or len(counts) == 0:
        raise CalibrationError("evaluation needs matching, non-empty frames and wrenches")
    pred = predict_counts(model, counts)
    ref = np.asarray(wrenches, dtype=float).T
    err = pred - ref
    rmse = np.sqrt((err * err).mean(axis=1))
    ss_res = (err * err).sum(axis=1)
    ss_tot = ((ref - ref.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
    r2 = np.where(ss_tot > 0.0, 1.0 - ss_res / np.where(ss_tot > 0.0, ss_tot, 1.0), np.nan)
    return Metrics(rmse=tuple(float(v) for v in rmse), r_squared=tuple(float(v) for v in r2))


@dataclass(frozen=True)
class TempCompensator:
    """Per-channel quadratic baseline in (T - reference_temp), counts."""

    a0: tuple[float, ...]  # baseline counts at the reference temperature
    a1: tuple[float, ...]  # counts per degC
    a2: tuple[float, ...]  # counts per degC^2
    reference_temp: float
    r_squared: tuple[float, ...]

    def __post_init__(self) -> None:
        for coeffs in (self.a0, self.a1, self.a2, self.r_squared):
            if len(coeffs) != NUM_CHANNELS:
                raise CalibrationError("compensator needs one coefficient set per channel")
        # r_squared may be NaN by design (a flat channel in fit_temp_baseline)
        for name in ("a0", "a1", "a2", "reference_temp"):
            if not np.isfinite(getattr(self, name)).all():
                raise CalibrationError(f"non-finite temp_compensator {name}")
        check_temperature("TempCompensator.reference_temp", self.reference_temp, CalibrationError)


def fit_temp_baseline(counts: np.ndarray, temperatures: np.ndarray,
                      reference_temp: float) -> TempCompensator:
    """Quadratic counts-vs-temperature baseline from a no-load sweep.

    Takes (N, 12) counts and their (N,) temperatures.  Frames are grouped
    by temperature and averaged per group before the weighted polynomial
    fit, so CDC read noise does not drown the drift curve.  Requires at
    least 3 distinct temperatures spanning MIN_TEMP_SPAN degC.
    """
    if len(counts) == 0:
        raise IllConditionedError("temperature fit requires frames")
    temps = np.asarray(temperatures, dtype=float)
    counts = np.asarray(counts, dtype=float)
    levels, sizes = np.unique(temps, return_counts=True)
    if len(levels) < 3:
        raise IllConditionedError(f"need >= 3 distinct temperatures, got {len(levels)}")
    if levels.max() - levels.min() < MIN_TEMP_SPAN:
        raise IllConditionedError(f"temperature span below {MIN_TEMP_SPAN:g} degC")
    means = np.array([counts[temps == t].mean(axis=0) for t in levels])
    weights = np.sqrt(sizes.astype(float))
    x = levels - reference_temp
    a0, a1, a2, r2 = [], [], [], []
    for k in range(NUM_CHANNELS):
        c2, c1, c0 = np.polyfit(x, means[:, k], 2, w=weights)
        fitval = c0 + c1 * x + c2 * x * x
        res = means[:, k] - fitval
        tot = means[:, k] - np.average(means[:, k], weights=weights * weights)
        ss_res = float(np.sum(weights * weights * res * res))
        ss_tot = float(np.sum(weights * weights * tot * tot))
        a0.append(float(c0))
        a1.append(float(c1))
        a2.append(float(c2))
        r2.append(1.0 - ss_res / ss_tot if ss_tot > 0.0 else float("nan"))
    return TempCompensator(a0=tuple(a0), a1=tuple(a1), a2=tuple(a2),
                           reference_temp=reference_temp, r_squared=tuple(r2))


def compensate_counts(counts, temperatures, comp: TempCompensator) -> np.ndarray:
    """Counts referred back to the compensator's reference temperature.

    Subtracts the fitted drift polynomial (zero at the reference) and
    re-rounds to non-negative whole counts, as floats; takes one (12,)
    reading at a scalar temperature or (N, 12) counts at (N,) temperatures.
    A drift that is not finite raises CalibrationError naming the temperature.
    """
    counts, temperatures = _channels(counts), np.asarray(temperatures, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        dt = temperatures[..., None] - comp.reference_temp
        drift = np.asarray(comp.a1) * dt + np.asarray(comp.a2) * (dt * dt)
    finite = np.isfinite(drift).all(axis=-1)
    if not finite.all():
        bad = float(temperatures.flat[np.flatnonzero(~finite)[0]])
        raise CalibrationError(f"temp_compensator drift is not finite at {bad!r} degC "
                               f"(reference_temp {comp.reference_temp!r} degC)")
    return np.maximum(np.rint(np.asarray(counts, dtype=float) - drift), 0.0)


def save_model(model: CalibrationModel, path: str | Path,
               comp: TempCompensator | None = None) -> None:
    """Write the model's fields (and an optional temperature compensator's) as JSON."""
    payload = {"format_version": MODEL_FORMAT_VERSION, **asdict(model)}
    if comp is not None:
        payload["temp_compensator"] = asdict(comp)
    write_lines(path, [json.dumps(payload, indent=2, default=np.ndarray.tolist)])


def load_model(path: str | Path) -> tuple[CalibrationModel, TempCompensator | None]:
    """Read a model file written by save_model, validating shape and version."""
    try:
        payload = read_json(path)
    except InputFileError as exc:
        raise ModelFormatError(str(exc)) from exc
    try:
        version = payload["format_version"]
        if type(version) is not int or version != MODEL_FORMAT_VERSION:  # not true or 1.0
            raise ModelFormatError(
                f"unsupported model format version {version!r}")
        del payload["format_version"]
        tc = payload.pop("temp_compensator", None)
        model = from_plain(CalibrationModel, payload)
        comp = None if tc is None else from_plain(TempCompensator, tc)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, CalibrationError) as exc:
        raise ModelFormatError(f"malformed model file {path}: {exc}") from exc
    return model, comp
