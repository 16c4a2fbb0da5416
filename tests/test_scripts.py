"""Smoke tests: a short traced benchmark run of each workload completes and
reports correct answers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


CLI_WORKLOADS = ("classify", "curved")
WORKLOADS = ("sweep", "curved", "classify", "charts")


# Seed 1 checks the invariants only; seed 0 also checks every op against the
# recorded goldens in perfbench/golden.
@pytest.mark.parametrize("workload, seed", [pytest.param(w, 1, id=w) for w in WORKLOADS]
                         + [pytest.param(w, 0, id=f"{w}-golden") for w in WORKLOADS])
def test_traced_benchmark_run_passes(workload, seed):
    # The tracer wraps affkit's public API after the first op and reads its
    # results (the structure constants as planes of rows of Scalars, a jet
    # space's basis and constraint history), and ``charts`` builds
    # ``JetField``s, so an API change that breaks either fails here first.
    # The CLI workloads' traced ops must print what the untraced ones
    # printed; the others run no CLI op, so their share reads 0.
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", "1"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr + proc.stdout[-2000:]
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"] is True and result["attempted"] > 0
    assert report["report"]["golden"] is (seed == 0)
    if workload in CLI_WORKLOADS:
        assert result["metrics"]["cli.stdout_identical_share"]["value"] == 1.0
