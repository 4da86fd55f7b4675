"""One iteration of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python bench/worker.py WORKLOAD SEED DIR MODE

MODE is `probe` (set up, then exit), `plain` or `traced`.  The worker
imports capft and checks its inputs (the set-up), then runs the workload's
CLI commands one after another through `capft.cli.main` with outputs under
DIR/out, and writes DIR/result.json.  A traced iteration also writes its
spans to DIR/spans.tsv.

Before the first command and after each one, the worker times a fixed
reference loop (`reference`), so run.py can scale every time to the speed
the machine had at that moment.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

# Nominal duration of one reference loop.  A time t measured next to a
# reference loop that took r is reported as t * REFERENCE_S / r.
REFERENCE_S = 0.04


def reference() -> float:
    """Seconds taken by a fixed mix of the kinds of work capft's commands do.

    Scalar float arithmetic with tuples and 12-element arrays (flight and
    sensing ticks), float formatting and parsing (CSV logs) and in-place
    array passes (the batch kernel and the fit).  Every allocation stays
    below malloc's mmap threshold, so the loop neither raises the worker's
    peak RSS nor changes how later large arrays are allocated.  It runs no
    capft code, so no change to capft moves it.  It moves with the speed the shared machine
    gives this process, which on a busy host drifts by tens of percent from
    one minute to the next.
    """
    bulk = np.linspace(0.0, 1.0, 8192)
    tmp = np.empty_like(bulk)
    small = np.arange(12.0)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(15000):
        v = (i * 0.5, i * 0.25, 1.0)
        acc += math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        acc += float((small * 1.0001)[3])
    for _ in range(2):
        text = ",".join(map(repr, bulk[:5000].tolist()))
        acc += sum(map(float, text.split(",")))
    for _ in range(500):
        np.multiply(bulk, bulk, out=tmp)
        tmp += 1.0
        np.sqrt(tmp, out=tmp)
        acc += float(tmp.sum())
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    workload_name, seed, work, mode = argv[0], int(argv[1]), Path(argv[2]), argv[3]
    import capft.cli
    import workloads
    workload = workloads.WORKLOADS[workload_name]
    workloads.check_inputs(workload)
    out = work / "out"
    out.mkdir(parents=True)
    result: dict = {"ready": time.monotonic()}
    refs = [reference()]
    result["refs"] = refs
    if mode != "probe":
        tracer = None
        if mode == "traced":
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        main_fn = capft.cli.main
        commands = []
        for name, cmd in workload.commands(seed, out):
            run = tracer.wrap(f"cli.{cmd[0]}", main_fn) if tracer else main_fn
            c0 = time.perf_counter()
            rc = run(cmd)
            s = time.perf_counter() - c0
            refs.append(reference())
            commands.append({"name": name, "rc": rc, "s": s, "ref_s": (refs[-2] + refs[-1]) / 2})
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = sum(c["s"] for c in commands)
        result["wall_s"] = wall
        for c in commands:
            c["problems"] = workloads.check(c["name"], out, workload) if c["rc"] == 0 \
                else [f"exit code {c['rc']}"]
        result["commands"] = commands
        files = sorted(p for p in out.rglob("*") if p.is_file())
        result["digests"] = {str(p.relative_to(out)): workloads.sha256_file(p) for p in files}
        # Flush the outputs now, so their write-back does not slow the next iteration.
        for p in files:
            with open(p, "rb") as f:
                os.fsync(f.fileno())
        if tracer is not None:
            metrics = tracer.summary()
            layers = sum(metrics.get(f"{layer}.self_s", 0.0) for layer in tracing.LAYERS)
            metrics["trace.coverage"] = layers / wall
            result["trace"] = metrics
            result["trace_missing"] = tracer.missing
            tracer.write(work / "spans.tsv")
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
