"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The traced-run tests run every workload twice (about three minutes on two
cores), so the counts are compared across separate runs of one seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_self_time_and_layers_add_up():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.wrap("sensor_model.leaf", leaf)

    def middle():
        traced_leaf()
        traced_leaf()

    traced_middle = tracer.wrap("flight.middle", middle)
    tracer.wrap("cli.fly", lambda: (traced_middle(), time.sleep(0.01)))()
    m = tracer.summary()
    assert m["sensor_model.leaf.calls"] == 2
    assert m["flight.middle.self_s"] == pytest.approx(
        m["flight.middle.s"] - m["sensor_model.leaf.s"])
    assert m["cli.fly.self_s"] >= 0.01
    layers = sum(m.get(f"{layer}.self_s", 0.0) for layer in tracing.LAYERS)
    assert layers == pytest.approx(m["cli.fly.s"])


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert spec["command"] == ["python3", "bench/run.py"]


def test_trace_guards_flag_misses():
    bypass = workloads.WORKLOADS["flight_bypass"]
    good = {name: 1 for name in bypass.nonzero}
    assert run.trace_problems(bypass, [good, dict(good)]) == []
    assert run.trace_problems(bypass, [dict(good, **{"sensor_model.sample.calls": 5})])
    assert run.trace_problems(bypass, [dict(good, **{"controller.ticks": 0})])
    assert run.trace_problems(bypass, [good, dict(good, **{"core.vec3.count": 2})])


def _traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_across_runs_and_follow_the_pattern(name):
    workload = workloads.WORKLOADS[name]
    first, second = _traced_run(name, 11), _traced_run(name, 11)
    counts = [m for m, unit in tracing.PER_LAYER.items() if unit in tracing.COUNT_UNITS]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    assert all(first[m] > 0 for m in workload.nonzero)
    assert all(first[m] == 0 for m in workload.zero)
    assert first["trace.coverage"] > 0.99


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flight_bypass", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
