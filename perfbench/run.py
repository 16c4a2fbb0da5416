#!/usr/bin/env python3
"""affkit benchmark: one workload, one seed, one closed-loop process.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 15 --trace 0

One caller runs one op at a time, cycling through the seeded pool until the
ops have taken ``--seconds`` of wall time, scaled to a nominal machine speed
(see ``speed_probe``).  Each op's output is checked
(invariants for every seed, plus the golden record for the default seed);
checks run outside the timed region.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics, each per traced op: it first times a prefix of the pool
untraced, then the same prefix traced (their difference per op is
``trace.overhead_s``), and goes on traced.  ``--inject-fault`` corrupts the first op's output, which must turn
the run red.  The exit code is 0 only when every op passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 7
GOLDEN_SEED = 0
# Op times are scaled to a machine running the speed probe in this time.
PROBE_NOMINAL_S = 2.5e-3
PROBE_WINDOW = 4      # probes on each side of an op in its speed estimate
RAW_CAP = 1.5         # a run also stops after RAW_CAP * --seconds of raw op time
NOMINAL_OPS = 100     # cpu_s is the CPU time of this many ops


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "curved", "classify", "charts"))
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the first op's output (negative control)")
    ap.add_argument("--setup-probe", metavar="DIR",
                    help=argparse.SUPPRESS)   # internal: one timed set-up, then exit
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "affkit").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "loadavg": list(os.getloadavg()),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# set-up timing: fresh processes, median reported
# ---------------------------------------------------------------------------

def setup_probe(args) -> None:
    import workloads
    workloads.build(args.workload, args.seed, Path(args.setup_probe))
    ready = time.time()
    speed = statistics.median([speed_probe() for _ in range(5)])
    print(json.dumps({"ready": ready, "speed": speed}))


def time_setup(args, scratch: Path) -> list[float]:
    """Fresh-process set-up times, each scaled like the op times by speed
    probes that the set-up process takes right after its set-up: close in
    time and on the CPU that ran it."""
    samples = []
    for n in range(SETUP_PROBES):
        probe_dir = scratch / f"probe{n}"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
        start = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((out["ready"] - start) * PROBE_NOMINAL_S / out["speed"])
    return samples


# ---------------------------------------------------------------------------
# machine-speed probe
# ---------------------------------------------------------------------------

def speed_probe() -> float:
    """Wall time of a fixed exact-arithmetic loop, independent of affkit.

    On a shared machine the speed of identical Python work drifts by tens of
    percent over seconds.  The probe runs right after every op; each op's
    time is scaled by PROBE_NOMINAL_S over the median probe time around it.
    """
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        table[(i, i % 7)] = acc.numerator % 97
    return time.perf_counter() - start


def scaled(samples, column: int) -> list[float]:
    """Column 1 (wall s) or 2 (CPU s) of each sample, at nominal speed."""
    probes = [p for _, _, _, p in samples]
    out = []
    for n, sample in enumerate(samples):
        near = probes[max(0, n - PROBE_WINDOW): n + PROBE_WINDOW + 1]
        out.append(sample[column] * PROBE_NOMINAL_S / statistics.median(near))
    return out


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Loop:
    def __init__(self, ops, golden, inject_fault):
        self.ops = ops
        self.golden = golden
        self.inject = inject_fault
        self.samples = []           # (index, wall s, cpu s, probe s)
        self.failures = []          # (index, kind, message)
        self.cli_same = [0, 0]      # stdout identical to reference, CLI ops
        self._first_stdout = {}
        self.tracer = None

    def run(self, start: int, budget_s: float = None, count: int = None) -> float:
        """Run ops from pool position ``start`` until ``count`` ops or until
        their speed-scaled wall time reaches ``budget_s`` (or their raw wall
        time RAW_CAP times that, on a very slow machine).  Returns the
        scaled op wall time."""
        spent = nominal = 0.0
        i = start
        while (count is None or i - start < count) and (
                budget_s is None or (nominal < budget_s and spent < RAW_CAP * budget_s)):
            wall = self._one(i)
            recent = [p for *_, p in self.samples[-2 * PROBE_WINDOW - 1:]]
            spent += wall
            nominal += wall * PROBE_NOMINAL_S / statistics.median(recent)
            i += 1
        return nominal

    def _one(self, i: int) -> float:
        op = self.ops[i % len(self.ops)]
        tr = self.tracer
        if tr is not None:
            tr.enabled = True
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            raw, error = op.run(), None
        except Exception as exc:  # an unexpected raise is a failed op
            raw, error = None, exc
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tr is not None:
            tr.enabled = False
            tr.end_op()
        self.samples.append((i, wall, cpu, speed_probe()))
        self._check(i, op, raw, error)
        return wall

    def _check(self, i, op, raw, error) -> None:
        idx = i % len(self.ops)
        if error is not None:
            self.failures.append((i, op.kind, f"raised {type(error).__name__}: {error}"))
            return
        rec = op.record(raw)
        if self.inject and len(self.samples) == 1:
            op.corrupt(rec)
        problems = list(op.check(rec))
        if self.golden is not None:
            problems += op.against_golden(rec, self.golden["views"][idx])
        if "sha" in rec:
            ref = (self.golden["sha"][idx] if self.golden is not None
                   else self._first_stdout.setdefault(idx, rec["sha"]))
            self.cli_same[0] += rec["sha"] == ref
            self.cli_same[1] += 1
        for msg in problems:
            self.failures.append((i, op.kind, msg))

    @property
    def failed_ops(self) -> int:
        return len({i for i, _, _ in self.failures})


def load_golden(workload: str, seed: int, n_ops: int):
    path = HERE / "golden" / f"{workload}.json"
    if seed != GOLDEN_SEED or not path.exists():
        return None
    golden = json.loads(path.read_text())
    if golden["seed"] != seed or len(golden["views"]) != n_ops:
        raise RuntimeError(f"golden record {path.name} does not match the pool")
    return golden


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  Op times cluster by kind of op or surface, with gaps
    between the clusters, and a single order statistic jumps across those
    gaps from run to run; the weighted mean does not."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = 64 * n
    weights = [0.0] * n
    for k in range(grid):
        t = (k + 0.5) / grid
        weights[min(n - 1, int(t * n))] += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


def latency(walls) -> dict:
    return {"ops_per_s": (len(walls) / sum(walls), "1/s"),
            "op_ms_p50": (harrell_davis(walls, 0.5) * 1e3, "ms"),
            "op_ms_p90": (harrell_davis(walls, 0.9) * 1e3, "ms")}


def e2e_metrics(loop: Loop, setup: list[float]) -> dict:
    """Times scaled to the nominal probe speed.  cpu_s is the mean CPU time
    of an op times NOMINAL_OPS: it tracks the CPU cost of the ops, and falls
    below the matching wall time when ops wait."""
    return {
        "setup_s": (statistics.median(setup), "s"),
        **latency(scaled(loop.samples, 1)),
        "cpu_s": (NOMINAL_OPS * statistics.fmean(scaled(loop.samples, 2)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "affkit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no affkit sources under {SRC}; run from a checkout\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        setup_probe(args)
        return 0

    scratch = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = [] if args.trace else time_setup(args, scratch)
        import workloads
        ops = workloads.build(args.workload, args.seed, scratch / "inputs")
        loop = Loop(ops, load_golden(args.workload, args.seed, len(ops)), args.inject_fault)
        ops[0].run()   # warm-up: lazy imports and first-call set-up, untimed
        for _ in range(3):
            speed_probe()
        info = {}
        if args.trace:
            import tracer as tracer_mod
            untraced = loop.run(0, budget_s=args.seconds / 4)
            calib_n = len(loop.samples)
            loop.tracer = tracer_mod.Tracer()
            loop.tracer.install()
            traced = loop.run(0, count=calib_n)
            loop.run(calib_n, budget_s=args.seconds - untraced - traced)
            metrics = loop.tracer.metrics()
            metrics["cli.stdout_identical_share"] = (
                loop.cli_same[0] / loop.cli_same[1] if loop.cli_same[1] else 0.0, "ratio")
            metrics["trace.overhead_s"] = ((traced - untraced) / calib_n, "s/op")
            info["trace_run"] = {"calibration_ops": calib_n, "untraced_s": untraced,
                                 "traced_s": traced, "spans": loop.tracer.span_count,
                                 "spans_kept": len(loop.tracer.spans)}
        else:
            loop.run(0, budget_s=args.seconds)
            metrics = e2e_metrics(loop, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted, failed = len(loop.samples), loop.failed_ops
    walls = [w for _, w, _, _ in loop.samples]
    raw = latency(walls)
    kinds = {}
    for i, _, _, _ in loop.samples:
        kind = ops[i % len(ops)].kind
        kinds[kind] = kinds.get(kind, 0) + 1
    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "golden": loop.golden is not None, "pool": len(ops), "op_kinds": kinds,
        "fail_rate": failed / attempted, "failures": loop.failures[:10],
        "ops_beyond_p90": sum(w * 1e3 > raw["op_ms_p90"][0] for w in walls),
        "raw_wall": {k: v for k, (v, _) in raw.items()},
        "probe_ms_median": statistics.median(p for *_, p in loop.samples) * 1e3,
        "setup_samples_s": setup, "env": environment(),
    })
    print(json.dumps({"report": info}, default=str))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
