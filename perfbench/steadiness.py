#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady each metric is.

    python3 perfbench/steadiness.py --seeds 0-9 [--workloads sweep,classify]

For each workload the same code runs once per seed (one fresh process each,
one at a time).  Per end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median next to the bound in ``BENCHMARK.json``.  With
``--traced`` it also makes one traced run per workload and prints
``trace.overhead_s`` from it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst_share = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        bad_runs = []
        for seed in seeds(args.seeds):
            res = run_once(workload, seed, args.seconds, 0)
            if res["exit"] or not res["correct"]:
                bad_runs.append((seed, res["exit"], res["failed"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()), flush=True)
        print(f"{workload}: {len(seeds(args.seeds))} runs, failed runs {bad_runs}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst_share = max(worst_share, spread / bounds[name])
            print(f"  {name:12s} median {med:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}")
        if args.traced:
            res = run_once(workload, seeds(args.seeds)[0], args.seconds, 1)
            overhead = res["metrics"]["trace.overhead_s"]
            print(f"  traced run: trace.overhead_s {overhead['value']:.4g} {overhead['unit']}, "
                  f"correct {res['correct']}, exit {res['exit']}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst_share:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
