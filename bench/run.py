"""Benchmark of capft's CLI workflow.

    python3 bench/run.py --workload calib_session --seed 1 --seconds 40 --trace 0

Run it from the root of a capft checkout; it needs only the source tree
(the worker runs with PYTHONPATH=src) and numpy.  Each iteration is a fresh
worker process that runs the workload's commands through `capft.cli.main`,
one after another, with outputs in a scratch directory under .bench_tmp/.
Iterations repeat until --seconds have been measured.  Every command must
exit 0, pass its workload's quality gates and write the same bytes in every
iteration, or the run is not correct.

--trace 0 reports the end-to-end metrics: medians over the iterations.
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics (medians over the traced iterations) and the tracing
overhead.  The last line of standard output is the result as JSON; the
same result, with the environment, per-command times and output digests,
goes to .bench_out/.  Exit status 0 means correct, 1 a correctness miss,
2 a usage error.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parent
END_TO_END = {"setup_s": "s", "wall_s": "s", "cmd1_s": "s", "cmd2_s": "s",
              "peak_rss_mb": "MB", "ok_frac": "ratio"}
SETUP_PROBES = 3  # set-up-only processes before the measured iterations
MIN_ITERATIONS = 3  # a traced run needs one untraced and two traced
DEADLINE_S = 165.0  # the whole run must end within 180 s
# One BLAS thread: the workloads are serial, and the machine's cores are shared.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(root: Path, args: argparse.Namespace, work: Path, mode: str,
          timeout: float) -> dict:
    """Run one worker; its result, or {"error": ...} if it did not finish."""
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(root / "src")}
    cmd = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
           str(work), mode]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} worker timed out"}
    end = time.monotonic()
    if proc.returncode != 0:
        return {"error": f"{mode} worker exited {proc.returncode}: {proc.stderr[-800:]}"}
    result = json.loads((work / "result.json").read_text())
    result.update(mode=mode, iteration_s=end - t0, setup_raw_s=result["ready"] - t0)
    result["setup_s"] = scaled(result["setup_raw_s"], result["refs"][0])
    if mode != "probe":
        for c in result["commands"]:
            c["scaled_s"] = scaled(c["s"], c["ref_s"])
        result["wall_scaled_s"] = sum(c["scaled_s"] for c in result["commands"])
    if mode == "traced":
        factor = scaled(1.0, statistics.fmean(result["refs"]))
        result["trace"] = {name: value * factor if tracing.PER_LAYER.get(name) in ("s", "us")
                           else value for name, value in result["trace"].items()}
    return result


def scaled(seconds: float, reference_s: float) -> float:
    """A time as it would read when the reference loop takes REFERENCE_S."""
    return seconds * worker.REFERENCE_S / reference_s


def measure(root: Path, args: argparse.Namespace, tmp: Path, out_dir: Path
            ) -> tuple[list[dict], list[dict]]:
    """Set-up probes, then iterations until --seconds are used."""
    t_run = time.monotonic()
    probes = [spawn(root, args, tmp / f"probe{i}", "probe", DEADLINE_S)
              for i in range(SETUP_PROBES)]
    iterations: list[dict] = []
    start = time.monotonic()
    while True:
        k = len(iterations)
        mode = "traced" if args.trace and k % 3 else "plain"
        work = tmp / f"it{k}"
        result = spawn(root, args, work, mode, DEADLINE_S - (time.monotonic() - t_run))
        iterations.append(result)
        if (work / "spans.tsv").exists():
            shutil.move(work / "spans.tsv", out_dir / f"spans-{args.workload}.tsv")
        shutil.rmtree(work, ignore_errors=True)
        if "error" in result:
            break
        now = time.monotonic()
        durations = [it["iteration_s"] for it in iterations]
        if k + 1 >= MIN_ITERATIONS and now - start + statistics.median(durations) > args.seconds:
            break
        if now - t_run + max(durations) > DEADLINE_S:
            break
    return probes, iterations


def correctness(workload: workloads.Workload, iterations: list[dict]
                ) -> tuple[int, int, list[str]]:
    """Commands attempted and failed, and what went wrong."""
    n_commands = len(workload.commands(0, Path(".")))
    attempted = failed = 0
    problems: list[str] = []
    reference = None
    for k, it in enumerate(iterations):
        attempted += n_commands
        if "error" in it:
            failed += n_commands
            problems.append(f"iteration {k}: {it['error']}")
            continue
        bad = {c["name"] for c in it["commands"] if c["problems"]}
        problems += [f"iteration {k} {c['name']}: {p}"
                     for c in it["commands"] for p in c["problems"]]
        if reference is None:
            reference = it["digests"]
        elif it["digests"] != reference:
            differ = sorted(name for name in set(reference) | set(it["digests"])
                            if reference.get(name) != it["digests"].get(name))
            problems.append(f"iteration {k}: outputs differ from the first iteration: {differ}")
            bad = {c["name"] for c in it["commands"]}
        failed += len(bad)
    return attempted, failed, problems


def trace_problems(workload: workloads.Workload, traced: list[dict]) -> list[str]:
    """Counts must repeat exactly and follow the workload's zero/non-zero pattern."""
    problems = []
    for name, unit in tracing.PER_LAYER.items():
        values = sorted({t.get(name, 0) for t in traced})
        if unit in tracing.COUNT_UNITS and len(values) > 1:
            problems.append(f"{name} differs between traced iterations: {values}")
    first = traced[0] if traced else {}
    problems += [f"{name} is 0, expected > 0" for name in workload.nonzero
                 if not first.get(name, 0) > 0]
    problems += [f"{name} is {first.get(name)}, expected 0" for name in workload.zero
                 if first.get(name, 0) != 0]
    return problems


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment(root: Path, load_start: tuple) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, ValueError):
        blas = None
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__, "blas": blas,
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (root / "src").rglob("*.py")),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "capft" / "cli.py").is_file():
        print(f"error: {root} is not the root of a capft checkout (no src/capft)",
              file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    workload = workloads.WORKLOADS[args.workload]
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (root / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_tmp"))
    try:
        probes, iterations = measure(root, args, tmp, out_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed, problems = correctness(workload, iterations)
    problems += [f"set-up probe: {p['error']}" for p in probes if "error" in p]
    done = [it for it in iterations if "error" not in it]
    plain = [it for it in done if it["mode"] == "plain"]
    traced = [it["trace"] for it in done if it["mode"] == "traced"]
    if not plain or (args.trace and not traced):
        print("error: no iteration finished:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1

    def times(name: str, key: str = "scaled_s") -> list[float]:
        return [c[key] for it in plain for c in it["commands"] if c["name"] == name]

    set_up = [p for p in probes + done if "error" not in p]
    samples = {
        "setup_s": [p["setup_s"] for p in set_up],
        "wall_s": [it["wall_scaled_s"] for it in plain],
        "cmd1_s": times(workload.cmd1),
        "cmd2_s": times(workload.cmd2),
        "peak_rss_mb": [it["peak_rss_mb"] for it in plain],
    }
    raw = {"setup_s": [p["setup_raw_s"] for p in set_up],
           "wall_s": [it["wall_s"] for it in plain],
           **{f"{c}_s": times(c, "s") for c, _ in workload.commands(0, Path("."))}}
    if args.trace:
        problems += trace_problems(workload, traced)
        wall = statistics.median(it["wall_scaled_s"] for it in done if it["mode"] == "traced")
        metrics = {name: statistics.median(t.get(name, 0) for t in traced)
                   for name in tracing.PER_LAYER}
        metrics["trace.wall_s"] = wall
        metrics["trace.overhead_s"] = wall - statistics.median(samples["wall_s"])
        units = tracing.PER_LAYER
    else:
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        metrics["ok_frac"] = 1.0 - failed / attempted
        units = END_TO_END
    correct = failed == 0 and not problems

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "attempted": attempted,
        "failed": failed, "failed_frac": failed / attempted, "problems": problems,
        "iterations": {"plain": len(plain), "traced": len(traced)},
        "end_to_end": {name: spread(v) for name, v in samples.items() if v},
        "commands": {f"{c}_s": spread(times(c)) for c, _ in workload.commands(0, Path("."))},
        "raw_seconds": {name: spread(v) for name, v in raw.items()},
        "reference_s": spread([r for it in set_up for r in it["refs"]]),
        "trace_missing": sorted({m for it in done for m in it.get("trace_missing", [])}),
        "model_sha256": workloads.MODEL_SHA256 if workload.sensing == "sensed" else None,
        "digests": next((it["digests"] for it in done), {}),
        "environment": environment(root, load_start),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(plain)} untraced, "
          f"{len(traced)} traced iterations, {failed}/{attempted} commands failed")
    for p in problems:
        print(f"  problem: {p}")
    for name, c in detail["commands"].items():
        print(f"  {name:<44} {c['median']:.4f} s (q1 {c['q1']:.4f}, q3 {c['q3']:.4f}, "
              f"n {c['n']})")
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:.6g} {unit}")
    combined = hashlib.sha256(json.dumps(detail["digests"], sort_keys=True).encode())
    print(f"outputs: {len(detail['digests'])} files, combined sha256 {combined.hexdigest()}")
    print(f"environment: {json.dumps(detail['environment'])}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": detail["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
