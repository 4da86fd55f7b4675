"""The typed JSON loader and the four inputs that go through it.

Sensor parameters, scenarios, flight configs and calibration models are
parsed JSON turned into dataclasses by core.from_plain: each value must
have its field's JSON type, unknown keys are rejected, and every message
names the field.  Each input raises its own domain error and nothing else.
"""

import copy
import json
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capft import flight
from capft.calibration import CalibrationModel, ModelFormatError, TempCompensator, load_model, \
    save_model
from capft.core import InputFileError, from_plain, read_json
from capft.dataio import ScenarioRangeError, full_range_scenario, scenario_from_dict
from capft.sensor_model import SensorParams, SensorRangeError, default_sensor_params


@dataclass(frozen=True)
class Inner:
    a: float
    b: int = 1


@dataclass(frozen=True)
class Outer:
    inner: Inner
    pair: tuple[float, float]
    many: tuple[int, ...]
    opt: float | None
    grid: np.ndarray
    flag: bool
    name: str


PLAIN_OUTER = {"inner": {"a": 2, "b": 3}, "pair": [1, 2.5], "many": [4, 5, 6], "opt": None,
               "grid": [[1, 2.0], [3, 4]], "flag": False, "name": "x"}


def as_json(data):
    """data as parsed JSON: tuples become lists."""
    return json.loads(json.dumps(data))


def with_edit(data, path, value):
    """Deep copy of data with the entry at the key path replaced by value."""
    data = copy.deepcopy(data)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


def key_paths(data, prefix=()):
    """Key path of every entry in nested dicts, sections included."""
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


class TestFromPlain:
    def test_converts_by_declared_type(self):
        out = from_plain(Outer, PLAIN_OUTER)
        assert out.inner == Inner(2.0, 3) and type(out.inner.a) is float
        assert out.pair == (1.0, 2.5) and type(out.pair[0]) is float
        assert out.many == (4, 5, 6)
        assert out.opt is None
        assert out.grid.dtype == float
        np.testing.assert_array_equal(out.grid, [[1.0, 2.0], [3.0, 4.0]])
        assert out.flag is False and out.name == "x"
        assert from_plain(Outer, {**PLAIN_OUTER, "opt": 7}).opt == 7.0

    @pytest.mark.parametrize("path, value, message", [
        (("inner", "b"), 2.0, "Inner.b must be int, got 2.0"),
        (("inner", "b"), True, "Inner.b must be int, got True"),
        (("inner", "a"), True, "Inner.a must be float, got True"),
        (("inner", "a"), "1.0", "Inner.a must be float, got '1.0'"),
        (("inner", "a"), 10 ** 400, "Inner.a is too large for a float"),
        (("inner",), [2, 3], "Inner must be an object"),
        (("pair",), [1.0], "Outer.pair must have 2 items, got 1"),
        (("pair",), 1.0, "Outer.pair must be tuple, got 1.0"),
        (("many", 1), 5.5, "Outer.many[1] must be int, got 5.5"),
        (("opt",), False, "Outer.opt must be float, got False"),
        (("grid",), 1.0, "Outer.grid must be ndarray, got 1.0"),
        (("grid", 0, 1), "2", "Outer.grid[0][1] must be float, got '2'"),
        (("grid",), [[1.0], [2.0, 3.0]], "Outer.grid[0] must be float, got [1.0]"),
        (("flag",), "false", "Outer.flag must be bool, got 'false'"),
        (("flag",), 0, "Outer.flag must be bool, got 0"),
        (("name",), None, "Outer.name must be str, got None"),
        (("extra",), 1, "unknown key 'extra' in Outer"),
        (("inner", "c"), 1, "unknown key 'c' in Inner"),
    ])
    def test_rejects_naming_the_field(self, path, value, message):
        with pytest.raises(ValueError, match=message.replace("[", r"\[").replace("(", r"\(")):
            from_plain(Outer, with_edit(PLAIN_OUTER, path, value))

    def test_missing_key_is_an_error_without_a_base(self):
        data = copy.deepcopy(PLAIN_OUTER)
        del data["inner"]["b"]  # a default on the class does not make a key optional
        with pytest.raises(ValueError, match="Inner.b is missing"):
            from_plain(Outer, data)

    def test_base_fills_missing_keys_at_every_level(self):
        base = from_plain(Outer, PLAIN_OUTER)
        out = from_plain(Outer, {"inner": {"a": 9.0}, "name": "y"}, base)
        assert out.inner == Inner(9.0, 3)
        assert out.name == "y"
        assert out.pair == base.pair and out.grid is base.grid


class TestReadJson:
    def test_reads_utf8_json(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_bytes('{"name": "été"}'.encode("utf-8"))
        assert read_json(path) == {"name": "été"}

    @pytest.mark.parametrize("content", [
        None,  # the path is a directory
        b'{"name": "\xe9t\xe9"}',  # latin-1, not UTF-8
        b'{"name": ',
        b"1" * 5000,  # past Python's integer digit limit
        b"[" * 100000,  # nested past the parser's recursion limit
    ], ids=["directory", "latin-1", "truncated", "5000-digits", "deep-nesting"])
    def test_unreadable_input_names_the_path(self, tmp_path, content):
        path = tmp_path / "in.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(InputFileError, match="in.json"):
            read_json(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFileError, match="nope.json"):
            read_json(tmp_path / "nope.json")


# --- the four inputs ---------------------------------------------------------

def model_payload():
    """A complete model file's JSON, temperature compensator included."""
    model = CalibrationModel(matrix=np.arange(144.0).reshape(6, 24) / 100.0,
                             baseline=np.full(12, 1000.0), mode="full", ridge=1e-3,
                             train_rmse=(0.1,) * 6, normal_eq_residual=1e-12)
    comp = TempCompensator(a0=(1000.0,) * 12, a1=(2.0,) * 12, a2=(0.01,) * 12,
                           reference_temp=25.0, r_squared=(0.99,) * 12)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path, comp=comp)
        return json.loads(path.read_text())


def load_model_payload(payload):
    """load_model on payload written to a file, then the file save_model writes back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(payload))
        model, comp = load_model(path)
        save_model(model, path, comp=comp)
        return json.loads(path.read_text())


# name: (complete data, load then dump as JSON, the input's domain error)
INPUTS = {
    "params": (as_json(asdict(default_sensor_params())),
               lambda d: as_json(asdict(SensorParams.from_dict(d))), SensorRangeError),
    "scenario": (as_json(asdict(full_range_scenario(duration=2.0, seed=3))),
                 lambda d: as_json(asdict(scenario_from_dict(d))), ScenarioRangeError),
    "config": (as_json(asdict(flight.default_config("track_sine", seed=4))),
               lambda d: as_json(asdict(flight.config_from_dict(d))), ValueError),
    "model": (model_payload(), load_model_payload, ModelFormatError),
}


class TestInputs:
    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_complete_data_roundtrips(self, name):
        data, load, _ = INPUTS[name]
        assert load(copy.deepcopy(data)) == data

    @pytest.mark.parametrize("name, path, value, named", [
        ("params", ("pillars", "ring_counts", 0), 36.7, "PillarModel.ring_counts[0] must be int"),
        ("params", ("pillars", "height"), True, "PillarModel.height must be float"),
        ("params", ("geometry", "finger_pitch"), "4e-4", "SensorGeometry.finger_pitch must be"),
        pytest.param("params", ("cdc", "noise_sigma_counts"), 10 ** 400,
                     "noise_sigma_counts is too large", id="params-400-digits"),
        ("params", ("typo",), {}, "unknown key 'typo' in SensorParams"),
        ("params", ("cdc", "lag_hz"), 1.0, "unknown key 'lag_hz' in CdcConfig"),
        ("scenario", ("seed",), 3.7, "Scenario.seed must be int"),
        ("scenario", ("components",), 4.5, "Scenario.components must be int"),
        ("scenario", ("duration",), "35", "Scenario.duration must be float"),
        ("scenario", ("noise_enabled",), "false", "Scenario.noise_enabled must be bool"),
        ("scenario", ("drift_enabled",), 0, "Scenario.drift_enabled must be bool"),
        ("scenario", ("typo",), 1.0, "unknown key 'typo' in Scenario"),
        ("config", ("contrl_hz",), 5.0, "unknown key 'contrl_hz' in SimConfig"),
        ("config", ("gains", "kp_fre"), [[1.0, 0.0, 0.0]] * 3, "unknown key 'kp_fre' in GainSet"),
        ("config", ("plant", "mass"), True, "PlantParams.mass must be float"),
        ("config", ("seed",), 3.7, "SimConfig.seed must be int"),
        ("model", ("typo",), 1.0, "unknown key 'typo' in CalibrationModel"),
        ("model", ("temp_compensator", "typo"), 1.0, "unknown key 'typo' in TempCompensator"),
        ("model", ("ridge",), True, "CalibrationModel.ridge must be float"),
        ("model", ("matrix", 0, 0), "0.5", "CalibrationModel.matrix[0][0] must be float"),
        ("params", ("drift", "reference_temp"), -500.0,
         "DriftModel.reference_temp -500.0 degC is below absolute zero"),
        ("model", ("temp_compensator", "reference_temp"), -300.0,
         "TempCompensator.reference_temp -300.0 degC is below absolute zero"),
        ("params", ("cdc", "lag_corner_hz"), None, "unknown key 'lag_corner_hz' in CdcConfig"),
    ])
    def test_bad_value_is_the_domain_error(self, name, path, value, named):
        data, load, error = INPUTS[name]
        with pytest.raises(error) as info:
            load(with_edit(data, path, value))
        assert named in str(info.value)

    def test_deeply_nested_matrix_rejected(self):
        data, load, error = INPUTS["model"]
        deep = 0.0
        for _ in range(600):  # past numpy's dimension limit, within the JSON parser's
            deep = [deep]
        with pytest.raises(error):
            load(with_edit(data, ("matrix",), deep))

    def test_missing_section_rejected(self):
        data, load, error = INPUTS["params"]
        data = copy.deepcopy(data)
        del data["cdc"]
        with pytest.raises(error, match="SensorParams.cdc is missing"):
            load(data)

    def test_partial_config_overlays_the_scenario_default(self):
        base = flight.default_config("track_sine")
        kp = [[8.0, 0.0, 0.0], [0.0, 8.0, 0.0], [0.0, 0.0, 8.0]]
        cfg = flight.config_from_dict({"scenario": "track_sine", "profile": {"offset": 2.5},
                                       "gains": {"kp_free": kp}})
        assert (cfg.profile.offset, cfg.profile.amplitude) == (2.5, base.profile.amplitude)
        assert cfg.profile.frequency_hz == base.profile.frequency_hz
        np.testing.assert_array_equal(cfg.gains.kp_free, kp)
        np.testing.assert_array_equal(cfg.gains.kv_contact, base.gains.kv_contact)
        assert cfg.machine == base.machine

    def test_config_needs_a_scenario(self):
        with pytest.raises(ValueError, match="bad simulation config"):
            flight.config_from_dict({"plant": {}})


HUGE_INTS = st.sampled_from([10 ** 400, -10 ** 400])  # past float range
JSON_VALUES = st.one_of(
    st.floats(allow_nan=False),
    st.integers(min_value=-2 ** 53, max_value=2 ** 53),
    HUGE_INTS,
    st.booleans(),
    st.text(max_size=8),
    st.none(),
    st.lists(st.one_of(st.floats(allow_nan=False), st.integers(-3, 200), st.booleans(),
                       HUGE_INTS), max_size=20),
)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_any_one_edit_loads_or_raises_the_domain_error(name):
    """One field set to any JSON value either loads and dumps back the edit,
    or raises the input's domain error; never another exception."""
    plain, load, error = INPUTS[name]

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(sorted(key_paths(plain))), value=JSON_VALUES)
    def one_edit(path, value):
        edited = with_edit(plain, path, value)
        try:
            dumped = load(edited)
        except error as exc:
            # a flight config's domain error is ValueError, which the others subclass
            assert error is not ValueError or str(exc).startswith("bad simulation config")
            return
        if name == "model" and edited["temp_compensator"] is None:
            del edited["temp_compensator"]  # save_model writes no key for no compensator
        assert dumped == edited

    if name == "params":  # a pillar count past float range, on every run
        one_edit = example(path=("pillars", "ring_counts", 0), value=10 ** 400)(one_edit)
    one_edit()
