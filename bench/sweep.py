"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/sweep.py --seeds 1-10 [--workload NAME ...] [--trace 1] [--json FILE]

Runs `bench/run.py` once per seed and workload (workloads interleaved, so a
slow spell of the machine touches all of them), then prints, per workload
and metric, the median of the per-run values and the spread: the distance
between the first and third quartile as a share of the median.  The
end-to-end bounds in BENCHMARK.json are judged against this spread.
Run it from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            if result is None or not result["correct"]:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}",
                      file=sys.stderr)
            if result is not None:
                runs[name].append(dict(result, seed=seed))
    summary: dict = {}
    for name, results in runs.items():
        summary[name] = {"seeds": [r["seed"] for r in results],
                         "correct": all(r["correct"] for r in results), "metrics": {}}
        print(f"{name}: {len(results)} runs, all correct: {summary[name]['correct']}")
        for metric in results[0]["metrics"] if results else []:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            share = (q3 - q1) / med if med else 0.0
            summary[name]["metrics"][metric] = {
                "unit": results[0]["metrics"][metric]["unit"], "median": med,
                "q1": q1, "q3": q3, "spread": share, "values": values}
            bound = bounds.get(metric)
            flag = "" if bound is None or share < bound / 3 else "  <-- over a third of bound"
            print(f"  {metric:<44} median {med:<12.6g} spread {share:7.2%}"
                  f"{'' if bound is None else f' (bound {bound:.0%})'}{flag}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
