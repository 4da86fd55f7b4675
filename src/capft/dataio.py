"""Synthetic trial generation and the on-disk log format.

A trial is a fixed-rate sequence of reference wrenches alongside the
simulated sensor counts they produced, held as columns: one array per
quantity, one row per sample.  Generated wrenches lie on a 1e-4 grid
(WRENCH_DECIMALS).  Logs are UTF-8 CSV with LF line ends and an exact
header

    t,T,Z1,Z2,Z3,Z4,X1,X2,X3,X4,Y1,Y2,Y3,Y4,Fx,Fy,Fz,Mx,My,Mz

preceded by '#'-prefixed metadata lines (name, seed, sensor parameter
hash).  Floats are written with full round-trip precision and counts as
bare integers, so write -> load -> write is byte identical.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

from .core import Wrench, check_finite_fields, check_temperature, from_plain, write_lines
from .sensor_model import (
    CHANNEL_NAMES,
    NUM_CHANNELS,
    DriftModel,
    SensorParams,
    SensorRangeError,
    capacitances,
    lag_rows,
    sample_trajectory,
)

LOG_HEADER = "t,T,Z1,Z2,Z3,Z4,X1,X2,X3,X4,Y1,Y2,Y3,Y4,Fx,Fy,Fz,Mx,My,Mz"
_NUM_COLUMNS = 20
_ROW_DTYPE = np.dtype([("t", "f8"), ("T", "f8"), ("counts", "i8", (NUM_CHANNELS,)),
                       ("wrench", "f8", (6,))])
_INT64_MAX = int(np.iinfo(np.int64).max)
MAX_SAMPLES = 1_000_000  # per trial: 46 min at 360 Hz, and about 1 GB to generate
# components * samples per axis: each sine term is one pass over the time column
MAX_SINE_TERMS = 10_000_000
WRENCH_DECIMALS = 4  # reference wrench grid: 1e-4 N and 1e-4 mN*m


class LogFormatError(ValueError):
    """Log file violates the format contract; message carries the line number."""


class ScenarioRangeError(ValueError):
    """Declared excitation ranges exceed the sensor's mechanical range."""


@dataclass(frozen=True)
class Scenario:
    """Excitation recipe for one synthetic trial.

    Each axis sweeps a band-limited sum of sinusoids rescaled to exactly
    cover its (lo, hi) range; a degenerate range holds the axis constant.
    Temperature is stepped from temp_start to temp_end in temp_steps equal
    plateaus (1 step means constant temp_start, 0 means a continuous ramp).
    """

    name: str
    duration: float  # s
    seed: int
    fx: tuple[float, float] = (0.0, 0.0)
    fy: tuple[float, float] = (0.0, 0.0)
    fz: tuple[float, float] = (0.0, 0.0)
    mx: tuple[float, float] = (0.0, 0.0)  # mN*m
    my: tuple[float, float] = (0.0, 0.0)
    mz: tuple[float, float] = (0.0, 0.0)
    sample_rate: float = 360.0  # Hz
    band_hz: float = 2.0
    components: int = 4
    temp_start: float = 25.0
    temp_end: float = 25.0
    temp_steps: int = 1
    noise_enabled: bool = True
    drift_enabled: bool = True

    def __post_init__(self) -> None:
        check_finite_fields(self, ScenarioRangeError)
        # the name is a log's metadata line, which load_log reads back stripped
        if not self.name.isprintable() or self.name != self.name.strip():
            raise ScenarioRangeError(f"Scenario.name {self.name!r} must be printable text "
                                     "without leading or trailing whitespace")
        if self.duration <= 0.0 or self.sample_rate <= 0.0 \
                or not math.isfinite(self.duration * self.sample_rate) or self.sample_count < 1:
            raise ScenarioRangeError("duration * sample_rate must give a finite sample count >= 1")
        if self.sample_count > MAX_SAMPLES:
            raise ScenarioRangeError(f"duration * sample_rate gives {self.sample_count} samples, "
                                     f"above the ceiling of {MAX_SAMPLES}")
        if self.band_hz <= 0.0 or self.band_hz > 2.0:
            raise ScenarioRangeError("excitation band must lie in (0, 2] Hz")
        # both size arrays in generate, so more of either than samples is rejected
        if not 1 <= self.components <= self.sample_count:
            raise ScenarioRangeError("components must lie in [1, sample count]")
        if self.components * self.sample_count > MAX_SINE_TERMS:
            raise ScenarioRangeError(f"components {self.components} times {self.sample_count} "
                                     f"samples is above the ceiling of {MAX_SINE_TERMS} sine terms")
        if not 0 <= self.temp_steps <= self.sample_count:
            raise ScenarioRangeError("temp_steps must lie in [0, sample count]")
        for lo, hi in self.ranges():
            if hi < lo:
                raise ScenarioRangeError(f"axis range ({lo}, {hi}) is inverted")
        for name in ("temp_start", "temp_end"):
            check_temperature(f"Scenario.{name}", getattr(self, name), ScenarioRangeError)

    def ranges(self) -> tuple[tuple[float, float], ...]:
        return (self.fx, self.fy, self.fz, self.mx, self.my, self.mz)

    @property
    def sample_count(self) -> int:
        return int(round(self.duration * self.sample_rate))


@dataclass(frozen=True, eq=False)
class Trial:
    """Sensor counts and reference wrenches at a fixed rate, as columns.

    t and temperature are (N,) floats, counts (N, 12) ints from 0 to
    int64's maximum in Z1..Z4, X1..X4, Y1..Y4 order and wrench (N, 6)
    floats in Fx..Mz order.
    Keep 2-D columns row-major: batch sums depend on the memory layout.
    """

    name: str
    seed: int
    params_hash: str
    t: np.ndarray
    temperature: np.ndarray
    counts: np.ndarray
    wrench: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.t)
        if n == 0 or self.t.shape != (n,) or self.temperature.shape != (n,) \
                or self.counts.shape != (n, NUM_CHANNELS) or self.wrench.shape != (n, 6):
            raise ValueError("trial needs non-empty columns t (N,), temperature (N,), "
                             "counts (N, 12) and wrench (N, 6)")
        # load_log reads counts as int64, so a larger one would not load back
        if not np.issubdtype(self.counts.dtype, np.integer) or np.any(self.counts < 0) \
                or int(self.counts.max()) > _INT64_MAX:
            raise ValueError("trial counts must be integers from 0 to int64's maximum")
        if not all(np.isfinite(a).all() for a in (self.t, self.temperature, self.wrench)):
            raise ValueError("trial values must be finite")
        check_temperature("trial temperature", float(self.temperature.min()))
        # compare neighbours, not their difference: that overflows for far-apart finite times
        if np.any(self.t[1:] <= self.t[:-1]):
            raise ValueError("trial timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Trial) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _axis_signal(rng: np.random.Generator, t: np.ndarray, lo: float, hi: float,
                 band_hz: float, components: int) -> np.ndarray:
    # draw per-axis randomness unconditionally to keep the stream layout stable
    freqs = rng.uniform(0.05, band_hz, components)
    phases = rng.uniform(0.0, 2.0 * math.pi, components)
    amps = rng.uniform(0.5, 1.0, components)
    if hi == lo:
        return np.full_like(t, lo)
    s = np.zeros_like(t)
    for f, p, a in zip(freqs, phases, amps):
        s += a * np.sin(2.0 * math.pi * f * t + p)
    smin, smax = s.min(), s.max()
    if smax == smin:
        return np.full_like(t, 0.5 * (lo + hi))
    return lo + (hi - lo) * (s - smin) / (smax - smin)


def _temperatures(scenario: Scenario, t: np.ndarray) -> np.ndarray:
    if scenario.temp_steps == 1:
        return np.full_like(t, scenario.temp_start)
    frac = t / scenario.duration
    if scenario.temp_steps == 0:  # continuous ramp
        return scenario.temp_start + (scenario.temp_end - scenario.temp_start) * frac
    levels = np.linspace(scenario.temp_start, scenario.temp_end, scenario.temp_steps)
    idx = np.minimum((frac * scenario.temp_steps).astype(int), scenario.temp_steps - 1)
    return levels[idx]


def check_mechanical_range(scenario: Scenario, params: SensorParams) -> None:
    """Reject scenarios whose range corners leave the sensor's valid stroke.

    Evaluates the forward model at every corner of the declared axis ranges;
    since each axis signal is bounded by its range, corner feasibility
    bounds the whole trial.
    """
    for corner in itertools.product(*(rng for rng in scenario.ranges())):
        try:
            capacitances(Wrench.from_sequence(corner), params)
        except SensorRangeError as exc:
            raise ScenarioRangeError(
                f"scenario {scenario.name!r} corner {corner} outside mechanical range: {exc}"
            ) from exc


def generate_trial(scenario: Scenario, params: SensorParams) -> Trial:
    """Simulate one trial: wrench trajectory in, counts out.

    Deterministic for a given (scenario, params, seed); the trajectory and
    the CDC noise share one seeded generator.  The wrench, lagged if the
    CDC has a lag, is rounded to WRENCH_DECIMALS and clipped into each
    axis's (lo, hi) before sampling, so the counts are those of exactly
    the wrench logged, and the corner check still bounds every row.
    """
    check_mechanical_range(scenario, params)
    rng = np.random.default_rng(np.random.SeedSequence(scenario.seed))
    t = np.arange(scenario.sample_count) / scenario.sample_rate
    axes = [_axis_signal(rng, t, lo, hi, scenario.band_hz, scenario.components)
            for lo, hi in scenario.ranges()]
    wrench_arr = np.column_stack(axes)
    temps = _temperatures(scenario, t)
    eff = params
    if not scenario.drift_enabled:
        eff = replace(eff, drift=DriftModel.disabled(params.drift.reference_temp))
    if not scenario.noise_enabled:
        eff = replace(eff, cdc=replace(params.cdc, noise_sigma_counts=0.0))
    if params.cdc.lag_corner_hz is not None:
        wrench_arr = np.array(lag_rows(wrench_arr.tolist(), params.cdc.lag_corner_hz,
                                       1.0 / scenario.sample_rate))
    wrench_arr = np.clip(np.round(wrench_arr, WRENCH_DECIMALS), *np.array(scenario.ranges()).T)
    counts = sample_trajectory(wrench_arr, temps, eff, rng)
    return Trial(name=scenario.name, seed=scenario.seed, params_hash=params.hash(),
                 t=t, temperature=temps, counts=counts, wrench=wrench_arr)


def _texts(values: np.ndarray, fmt) -> np.ndarray:
    """fmt of every entry of values, as an object array of the same shape.

    fmt runs once per distinct bit pattern (a float is keyed by its bits, so
    -0.0 and 0.0 keep their own text): a trial repeats most counts and
    temperatures.
    """
    flat = values.ravel()
    if flat.dtype.kind == "f":
        flat = flat.view(f"i{flat.dtype.itemsize}")
    # 1-D input, whose inverse is 1-D on numpy 1.x and 2.x alike
    keys, inverse = np.unique(flat, return_inverse=True)
    texts = np.array([fmt(v) for v in keys.view(values.dtype).tolist()], dtype=object)
    return texts[inverse].reshape(values.shape)


def _grid_rows(wrench: np.ndarray) -> list[str] | None:
    """repr of each wrench entry, comma-joined per row, or None unless every
    entry is a float64 k / 10**WRENCH_DECIMALS, for an integer k, of
    magnitude below 10**WRENCH_DECIMALS = 1e4.

    Such an entry has at most 8 significant digits, fewer than DBL_DIG = 15,
    so that decimal is its shortest round-trip text, which repr prints
    positionally: the integer part, '.', and the fraction without trailing
    zeros but at least one digit.  Both parts come from one digit table.
    """
    d = WRENCH_DECIMALS
    scale = 10 ** d  # also the integer part's bound, so one digit table serves both parts
    mag = np.abs(wrench)
    if wrench.dtype != np.float64 or not (mag < scale).all():
        return None
    k = np.rint(mag * scale)
    if not (k / scale == mag).all():
        return None
    whole, frac = np.divmod(k.astype(np.int64), scale)
    powers = 10 ** np.arange(d - 1, -1, -1)
    digits = (np.arange(scale)[:, None] // powers % 10 + ord("0")).astype(np.uint8)
    # per cell: sign, d integer digits, '.', d fraction digits, ',' ('\n' ends a row)
    cells = np.empty(wrench.shape + (2 * d + 3,), np.uint8)
    cells[..., 0] = ord("-")
    cells[..., 1:d + 1] = digits[whole]
    cells[..., d + 1] = ord(".")
    cells[..., d + 2:-1] = digits[frac]
    cells[..., -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    keep = np.ones(cells.shape, bool)
    keep[..., 0] = np.signbit(wrench)
    # no leading zero before the units digit, no trailing zero after the first fraction digit
    keep[..., 1:d] = whole[..., None] >= powers[:-1]
    keep[..., d + 3:-1] = frac[..., None] % powers[:-1] != 0
    return cells[keep].tobytes().decode("ascii").split("\n")[:-1]


def write_log(trial: Trial, path: str | Path) -> None:
    """Serialize a trial; see the module docstring for the format."""
    columns = [map(repr, trial.t.tolist()), _texts(trial.temperature, repr).tolist()]
    columns += _texts(trial.counts, str).T.tolist()
    grid = _grid_rows(trial.wrench)
    columns += [grid] if grid is not None else [map(repr, c) for c in trial.wrench.T.tolist()]
    write_lines(path, itertools.chain(
        (f"# name={trial.name}", f"# seed={trial.seed}", f"# params={trial.params_hash}",
         LOG_HEADER),
        map(",".join, zip(*columns))))


def _parse_metadata(lines: list[str]) -> tuple[dict, int]:
    meta = {}
    consumed = 0
    for text in lines:
        if not text.startswith("#"):
            break
        consumed += 1
        body = text[1:].strip()
        if "=" in body:
            key, _, value = body.partition("=")
            meta[key.strip()] = value.strip()
    return meta, consumed


def _read_rows(lines: list[str], dtype: np.dtype) -> np.ndarray:
    """Parse lines with one loadtxt call, numpy's C reader: integers must be
    ASCII decimal, floats decimal, nan or inf.  The reader skips blank
    lines, so a short result is a bad row too, and any warning it raises
    (such as "input contained no data") counts as a parse failure."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            data = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except Warning as exc:
            raise ValueError(str(exc)) from exc
    if len(data) != len(lines):
        raise ValueError("blank data row")
    return data


def _parse_rows(rows: list[str]) -> tuple[np.ndarray, ...]:
    """Row-major columns (t, T, counts, wrench) of the data rows; raises
    ValueError on a bad row without naming it."""
    data = _read_rows(rows, _ROW_DTYPE)
    return tuple(np.ascontiguousarray(data[name]) for name in _ROW_DTYPE.names)


def _row_error(text: str) -> str:
    """Why one data row does not parse: its column count or first bad cell."""
    cells = text.split(",")
    if len(cells) != _NUM_COLUMNS:
        return f"expected {_NUM_COLUMNS} columns, got {len(cells)}"
    for name, cell in zip(LOG_HEADER.split(","), cells):
        is_count = name in CHANNEL_NAMES
        try:
            _read_rows([cell], np.dtype(np.int64 if is_count else np.float64))
        except ValueError:
            kind = "an integer count" if is_count else "a float"
            return f"cannot read {cell!r} in column {name} as {kind}"
    return "malformed row"


def _reject_first_bad_row(path, rows: list[str], first_lineno: int) -> NoReturn:
    """Raise the error of the earliest row that breaks the format contract."""
    prev_t = -math.inf
    for lineno, text in enumerate(rows, first_lineno):
        try:
            (t,), temp, counts, wrench = _parse_rows([text])
        except ValueError as exc:
            raise LogFormatError(f"{path}: line {lineno}: {_row_error(text)}") from exc
        if not (math.isfinite(t) and np.isfinite(temp).all() and np.isfinite(wrench).all()):
            raise LogFormatError(f"{path}: line {lineno}: non-finite value")
        if (counts < 0).any():
            raise LogFormatError(f"{path}: line {lineno}: negative count")
        check_temperature(f"{path}: line {lineno}: temperature", float(temp[0]), LogFormatError)
        if t <= prev_t:
            raise LogFormatError(
                f"{path}: line {lineno}: non-monotonic timestamp {float(t)!r}")
        prev_t = t
    raise LogFormatError(f"{path}: malformed data rows")


def load_log(path: str | Path) -> Trial:
    """Parse a trial log, reporting the first offending line on error."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LogFormatError(f"cannot read log {path}: {exc}") from exc
    # text mode already turned \r\n and \r line ends into \n
    lines = raw.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise LogFormatError(f"{path}: empty log")
    meta, consumed = _parse_metadata(lines)
    if consumed == len(lines):
        raise LogFormatError(f"{path}: line {consumed + 1}: missing header row")
    if lines[consumed] != LOG_HEADER:
        raise LogFormatError(f"{path}: line {consumed + 1}: bad header {lines[consumed]!r}")
    rows = lines[consumed + 1:]
    if not rows:
        raise LogFormatError(f"{path}: no data rows")
    try:
        seed = int(meta.get("seed", "-1"))
    except ValueError:
        seed = -1
    try:
        # Trial's own checks cover the rest of the per-row contract
        return Trial(meta.get("name", Path(path).stem), seed, meta.get("params", ""),
                     *_parse_rows(rows))
    except ValueError:
        _reject_first_bad_row(path, rows, consumed + 2)


def split(trials: Sequence[Trial]) -> tuple[tuple[Trial, ...], Trial]:
    """Hold out the final trial for testing, train on the rest."""
    if len(trials) < 2:
        raise ValueError("split needs at least two trials")
    return tuple(trials[:-1]), trials[-1]


def full_range_scenario(name: str = "full_range", duration: float = 35.0,
                        seed: int = 0) -> Scenario:
    """Default excitation covering the rated load envelope."""
    return Scenario(
        name=name, duration=duration, seed=seed,
        fx=(-5.0, 5.0), fy=(-5.0, 5.0), fz=(0.0, 14.0),
        mx=(-50.0, 50.0), my=(-50.0, 50.0), mz=(-15.0, 15.0),
    )


def small_range_scenario(name: str = "small_range", duration: float = 35.0,
                         seed: int = 0) -> Scenario:
    """Light-touch excitation: a gentler envelope for fine-force work."""
    return Scenario(
        name=name, duration=duration, seed=seed,
        fx=(-2.0, 2.0), fy=(-2.0, 2.0), fz=(0.0, 4.0),
        mx=(-20.0, 20.0), my=(-20.0, 20.0), mz=(-6.0, 6.0),
    )


def no_load_scenario(name: str = "tare", duration: float = 2.0, seed: int = 0) -> Scenario:
    """All axes at rest; used for taring."""
    return Scenario(name=name, duration=duration, seed=seed)


def temp_sweep_scenario(name: str = "temp_sweep", duration: float = 22.0, seed: int = 0,
                        temp_start: float = 20.0, temp_end: float = 30.0,
                        steps: int = 11) -> Scenario:
    """No-load stepped temperature sweep for drift characterization."""
    return Scenario(name=name, duration=duration, seed=seed,
                    temp_start=temp_start, temp_end=temp_end, temp_steps=steps)


def scenario_from_dict(data: dict) -> Scenario:
    try:
        return from_plain(Scenario, data)
    except ScenarioRangeError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioRangeError(f"bad scenario structure: {exc}") from exc
