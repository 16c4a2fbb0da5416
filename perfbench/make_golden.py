#!/usr/bin/env python3
"""Write the golden records for the default seed from the current sources.

    PYTHONPATH=src python3 perfbench/make_golden.py [workload ...]

Every op of the seed-0 pool runs once.  Its invariant checks must pass, and
its golden view (the parts an algorithm change cannot legitimately alter)
is stored in ``perfbench/golden/<workload>.json`` together with the sha256
of any CLI stdout.  At generation time a sample is also cross-checked once
against the test suite's independent oracles (``tests/helpers_oracle.py``):
the sympy tensor pipeline for curved tensors, and the truncated power-series
solver for sweep and curved Killing dimensions.  Needs sympy.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import run as bench  # noqa: E402
import workloads  # noqa: E402

ORACLE_SAMPLE = 8


def sympy_tensor_check(surface, payload) -> list:
    """Compare printed tensors with the sympy pipeline at two random points."""
    import sympy as sp
    from helpers_oracle import X1, X2, gamma_sympy, sym_curvature, sym_nabla_ricci, to_sympy
    g = gamma_sympy(surface)
    want = {"curvature": sym_curvature(g), "nabla_rho": sym_nabla_ricci(g)}
    rng = random.Random(1)
    bp = (float(surface.basepoint[0]), float(surface.basepoint[1]))
    bad = []
    for _ in range(2):
        at = {X1: bp[0] + rng.uniform(-0.2, 0.2), X2: bp[1] + rng.uniform(-0.2, 0.2)}
        for name, comps in want.items():
            for idx, expr in comps.items():
                ours = to_sympy(payload[name]["".join(map(str, idx))])
                diff = complex(sp.N((expr - ours).subs(at)))
                if abs(diff) > 1e-9:
                    bad.append(f"{name}{idx} differs from sympy by {abs(diff):.2e}")
    return bad


def cross_check(name, ops, records) -> dict:
    from helpers_oracle import taylor_killing_dim
    from affkit.surface import load_surface
    dims = tensors = 0
    problems = []
    if name == "sweep":
        for op, rec in list(zip(ops, records))[:ORACLE_SAMPLE]:
            dims += 1
            if taylor_killing_dim(op.extra["surface"], deg=6) != rec["dim"]:
                problems.append(f"sweep dim {rec['dim']} disagrees with the series oracle")
    if name == "curved":
        seen = set()
        for op, rec in zip(ops, records):
            family = op.extra["family"]
            if (family, op.kind) in seen:
                continue
            seen.add((family, op.kind))
            surface = load_surface(op.extra["path"])
            payload = json.loads(rec["stdout"])
            if op.kind == "tensors":
                tensors += 1
                problems += sympy_tensor_check(surface, payload)
            elif family in ("B", "sphere"):   # the series oracle is real-only
                dims += 1
                if taylor_killing_dim(surface, deg=6) != payload["dim"]:
                    problems.append(f"curved {family} dim {payload['dim']} disagrees "
                                    "with the series oracle")
    return {"series_dims": dims, "sympy_tensor_surfaces": tensors, "problems": problems}


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    for name in names:
        scratch = bench.WORK / f"golden-{name}"
        try:
            ops = workloads.build(name, bench.GOLDEN_SEED, scratch)
            records, views, shas = [], [], []
            for i, op in enumerate(ops):
                rec = op.record(op.run())
                problems = op.check(rec)
                if problems:
                    print(f"{name}[{i}] {op.kind}: invariant check failed: {problems}")
                    return 1
                records.append(rec)
                views.append(op.view(rec))
                shas.append(rec.get("sha"))
            checked = cross_check(name, ops, records)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if checked["problems"]:
            print(f"{name}: oracle cross-check failed: {checked['problems']}")
            return 1
        out = {"seed": bench.GOLDEN_SEED, "workload": name,
               "source_sha256": bench.environment()["source_sha256"],
               "oracle_cross_check": checked, "views": views, "sha": shas}
        path = HERE / "golden" / f"{name}.json"
        path.write_text(json.dumps(out, separators=(",", ":")) + "\n")
        print(f"{name}: {len(ops)} ops, cross-check {checked}, wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
