"""Spans and counts for the benchmark's traced runs.

The tracer wraps capft's public functions from outside, at the module
attribute each caller looks up at call time (flight calls `sample` as
`capft.flight.sample`, the CLI calls `dataio.load_log` as
`capft.dataio.load_log`).  Spans (name, start, end, parent) stay in memory
until the traced command sequence ends.  A span's self time is its duration
minus the time its child spans cover; the first dotted part of a span name
is its layer.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "core", "sensor_model", "dataio", "calibration", "controller", "flight")

# Every per-layer metric the benchmark reports, with its unit.  A metric
# whose layer did no work in a workload reads 0.
PER_LAYER = {
    "sensor_model.sample_trajectory.s": "s",
    "sensor_model.sample_trajectory.calls": "count",
    "sensor_model.sample_trajectory.rows": "count",
    "sensor_model.sample.s": "s",
    "sensor_model.sample.calls": "count",
    "sensor_model.frame.count": "count",
    "sensor_model.self_s": "s",
    "dataio.generate_trial.self_s": "s",
    "dataio.check_mechanical_range.s": "s",
    "dataio.write_log.s": "s",
    "dataio.write_log.bytes": "bytes",
    "dataio.load_log.s": "s",
    "dataio.load_log.bytes": "bytes",
    "dataio.load_log.rows": "count",
    "dataio.self_s": "s",
    "calibration.fit.s": "s",
    "calibration.fit.samples": "count",
    "calibration.evaluate.s": "s",
    "calibration.predict.s": "s",
    "calibration.predict.calls": "count",
    "calibration.fit_temp_baseline.s": "s",
    "calibration.self_s": "s",
    "flight.step_plant.s": "s",
    "flight.step_plant.calls": "count",
    "flight.step_plant.p50_us": "us",
    "flight.sense.self_s": "s",
    "flight.sense.calls": "count",
    "flight.sense.p50_us": "us",
    "flight.sense.p99_us": "us",
    "flight.rows_to_csv_lines.s": "s",
    "flight.sim_time": "sim_s",
    "flight.self_s": "s",
    "controller.s": "s",
    "controller.ticks": "count",
    "controller.self_s": "s",
    "core.vec3.count": "count",
    "core.quat.count": "count",
    "core.wrench.count": "count",
    "core.self_s": "s",
    "cli.generate.self_s": "s",
    "cli.calibrate.self_s": "s",
    "cli.evaluate.self_s": "s",
    "cli.temp-sweep.self_s": "s",
    "cli.fly.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

# Metrics that must repeat exactly between runs of one seed.
COUNT_UNITS = ("count", "bytes", "sim_s")

_PERCENTILES = {"flight.step_plant": (50,), "flight.sense": (50, 99)}


def _rows(args, result):
    yield "sensor_model.sample_trajectory.rows", len(args[0])


def _written(args, result):
    yield "dataio.write_log.bytes", os.path.getsize(args[1])


def _loaded(args, result):
    yield "dataio.load_log.bytes", os.path.getsize(args[0])
    yield "dataio.load_log.rows", len(result)


def _samples(args, result):
    yield "calibration.fit.samples", len(args[0])


def _mission(args, result):
    rows = result[0]
    yield "controller.ticks", len(rows)
    yield "flight.sim_time", rows[-1].t if rows else 0.0


# (module, attribute the caller looks up, span name, counts taken from the call)
TARGETS = (
    ("dataio", "generate_trial", "dataio.generate_trial", None),
    ("dataio", "check_mechanical_range", "dataio.check_mechanical_range", None),
    ("dataio", "sample_trajectory", "sensor_model.sample_trajectory", _rows),
    ("dataio", "write_log", "dataio.write_log", _written),
    ("dataio", "load_log", "dataio.load_log", _loaded),
    ("dataio", "split", "dataio.split", None),
    ("calibration", "tare", "calibration.tare", None),
    ("calibration", "fit", "calibration.fit", _samples),
    ("calibration", "evaluate", "calibration.evaluate", None),
    ("calibration", "predict", "calibration.predict", None),
    ("calibration", "fit_temp_baseline", "calibration.fit_temp_baseline", None),
    ("calibration", "_counts_matrix_compensated", "calibration._counts_matrix_compensated", None),
    ("calibration", "_predict_matrix", "calibration._predict_matrix", None),
    ("calibration", "save_model", "calibration.save_model", None),
    ("calibration", "load_model", "calibration.load_model", None),
    ("flight", "run_mission", "flight.run_mission", _mission),
    ("flight", "step_plant", "flight.step_plant", None),
    ("flight", "sense", "flight.sense", None),
    ("flight", "sample", "sensor_model.sample", None),
    ("flight", "predict", "calibration.predict", None),
    ("flight", "rows_to_csv_lines", "flight.rows_to_csv_lines", None),
    ("flight", "tracking_errors", "controller.tracking_errors", None),
    ("flight", "desired_force", "controller.desired_force", None),
    ("flight", "commanded_orientation", "controller.commanded_orientation", None),
    ("flight", "desired_normalized_thrust", "controller.desired_normalized_thrust", None),
    ("flight", "search_trajectory", "controller.search_trajectory", None),
    ("flight", "thrust_step", "controller.thrust_step", None),
    ("flight", "slerp", "core.slerp", None),
    ("flight", "quat_to_basis", "core.quat_to_basis", None),
    ("controller", "quat_to_basis", "core.quat_to_basis", None),
    ("controller", "cross_normalize", "core.cross_normalize", None),
)

# (module, class, count name): constructions counted through __post_init__
CONSTRUCTED = (
    ("core", "Vec3", "core.vec3.count"),
    ("core", "UnitQuaternion", "core.quat.count"),
    ("core", "Wrench", "core.wrench.count"),
    ("sensor_model", "CapacitanceFrame", "sensor_model.frame.count"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, measure=None):
        """fn recording one span per call, plus the counts measure yields."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if measure is not None:
                for key, value in measure(args, result):
                    counts[key] += value
            return result
        return traced

    def install(self) -> None:
        """Wrap every target in capft's modules for the rest of the process."""
        import importlib
        for module_name, attr, name, measure in TARGETS:
            module = importlib.import_module(f"capft.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"capft.{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, measure))
        for module_name, cls_name, key in CONSTRUCTED:
            cls = getattr(importlib.import_module(f"capft.{module_name}"), cls_name, None)
            if cls is None or not hasattr(cls, "__post_init__"):
                self.missing.append(f"capft.{module_name}.{cls_name}.__post_init__")
                continue
            cls.__post_init__ = self._counted(cls.__post_init__, key)

    def _counted(self, post_init, key: str):
        counts = self.counts

        def counted(obj) -> None:
            counts[key] += 1
            post_init(obj)
        return counted

    def summary(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counts recorded so far."""
        spans = self.spans
        child = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        incl: defaultdict = defaultdict(int)
        own: defaultdict = defaultdict(int)
        calls: Counter = Counter()
        durations: defaultdict = defaultdict(list)
        for i, (name, start, end, parent) in enumerate(spans):
            layer = name.split(".", 1)[0]
            incl[name] += end - start
            own[name] += end - start - child[i]
            own[layer] += end - start - child[i]
            calls[name] += 1
            if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
                incl[layer] += end - start
            if name in _PERCENTILES:
                durations[name].append(end - start)
        out: dict[str, float] = {}
        for name in incl:
            out[f"{name}.s"] = incl[name] / 1e9
            out[f"{name}.self_s"] = own[name] / 1e9
        for name, n in calls.items():
            out[f"{name}.calls"] = n
        for name, qs in _PERCENTILES.items():
            values = np.percentile(durations[name], qs) / 1e3 if durations[name] else [0.0] * len(qs)
            for q, v in zip(qs, values):
                out[f"{name}.p{q}_us"] = float(v)
        out.update(self.counts)
        return out

    def write(self, path: Path) -> None:
        """Spans as tab-separated name, start_ns, end_ns, parent index."""
        with open(path, "w") as f:
            f.write("name\tstart_ns\tend_ns\tparent\n")
            f.writelines(f"{n}\t{s}\t{e}\t{p}\n" for n, s, e, p in self.spans)
