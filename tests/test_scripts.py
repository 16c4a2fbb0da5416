"""Smoke tests: the experiment scripts and a short traced benchmark run
complete on small inputs."""

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


@pytest.mark.parametrize("argv", [
    ["scripts/branch_search.py", "--count", "6"],
    ["scripts/dimension_sweep.py", "--count", "10"],
])
def test_script_runs(argv):
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "surfaces, seed 0" in proc.stdout


@pytest.mark.parametrize("workload", ["classify", "curved"])
def test_traced_benchmark_run_passes(workload):
    # The tracer wraps affkit's public API after the first op and reads its
    # results (for instance the structure constants as planes of rows of
    # Scalars), so an API change that breaks it fails here first.  Both
    # workloads go through the CLI, whose traced ops must print what the
    # untraced ones printed.
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", "1"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr + proc.stdout[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["attempted"] > 0
    assert result["metrics"]["cli.stdout_identical_share"]["value"] == 1.0
