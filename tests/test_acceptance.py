"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import random
import time

from affkit.cli import main as cli_main
from affkit.coords import commuting_chart, normalize_chart, type_b_chart
from affkit.killing import VectorField, is_killing, killing_jet_space, prolongation_symbolic
from affkit.liealg import classify, structure_constants
from affkit.linalg import rank
from affkit.numeric import Grid, fd_residuals, flow_preserves_connection
from affkit.paperchecks import constraint_rows, sphere_killing_triple
from affkit.scalars import ONE, ZERO
from affkit.surface import (GAMMA_KEYS, is_flat, nabla_ricci, ricci, sphere,
                            torsion, type_a, type_b)
from affkit.symexpr import Expr, parse

from conftest import D1, D2, RADIAL, SEED
from helpers_oracle import bracket_reference, grading_reference, taylor_killing_dim


def report(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_01_sphere_curvature_data():
    t0 = time.monotonic()
    s = sphere()
    rho = ricci(s)
    diag_ok = ((rho[(1, 1)] - Expr.const(1)).is_zero
               and (rho[(2, 2)] - parse("cos(x1)^2")).is_zero
               and rho[(1, 2)].is_zero and rho[(2, 1)].is_zero)
    nr = nabla_ricci(s)
    ok = diag_ok and nr.is_zero and len(nr.components) == 8 and torsion(s).is_zero
    elapsed = time.monotonic() - t0
    report(ok and elapsed < 1.0,
           f"criterion 1: sphere Ricci/grad-Ricci/torsion exact ({elapsed:.2f}s)")


def test_criterion_02_sphere_killing_algebra():
    s = sphere()
    fields = sphere_killing_triple()
    fields_ok = all(is_killing(s, f) for f in fields)
    dim_ok = killing_jet_space(s).dim == 3
    result = classify(s)
    branch_ok = result.kinds() == ["so3"]
    w = result.branches[0]
    # Re-check the adapted-basis relations exactly, through the c tensor and
    # through the field-level bracket of the witnesses' jets.
    L = result.algebra
    f = w.elements
    basis = killing_jet_space(s).basis
    jet = lambda coeffs: [sum((x * j.as_vector()[r] for x, j in zip(coeffs, basis)), ZERO)
                          for r in range(6)]
    system = prolongation_symbolic(s)
    relations_ok = all(
        L.bracket_coeffs(f[a], f[b]) == f[c]
        and bracket_reference(system, s.basepoint, jet(f[a]), jet(f[b])) == jet(f[c])
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    report(fields_ok and dim_ok and branch_ok and relations_ok,
           "criterion 2: sphere Killing algebra (dim 3, exact so3 relations)")


def test_criterion_03_flat_bound_attained():
    flat = type_a({})
    dim_ok = killing_jet_space(flat).dim == 6
    branch_ok = "TypeA" in classify(flat).kinds()
    report(dim_ok and branch_ok, "criterion 3: flat surface attains dim 6 with abelian branch")


def test_criterion_04_symbol_constraint_kernel():
    full_rank = rank(constraint_rows())
    dropped = rank(constraint_rows(drop=0))
    report(full_rank == 8 and dropped == 7,
           f"criterion 4: 8x8 constant system has exact rank {full_rank}")


def test_criterion_05_type_b_invariance():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    ok = True
    for _ in range(10):
        s = type_b({k: rng.randint(-2, 2) for k in GAMMA_KEYS})
        if not (is_killing(s, D2) and is_killing(s, RADIAL)):
            ok = False
        if "TypeB" not in classify(s).kinds():
            ok = False
    elapsed = time.monotonic() - t0
    report(ok and elapsed < 5.0,
           f"criterion 5: radial pair Killing + TypeB branch on 10 random A/x1 surfaces ({elapsed:.2f}s)")


def test_criterion_06_grading_on_fixtures():
    fixtures = [sphere(), type_a({}), type_a({"112": 1, "221": 1}),
                type_a({"222": -1}), type_b({"221": 1}), type_b({"111": -1})]
    ok = True
    for s in fixtures:
        L = structure_constants(s)
        for i in range(L.dim):
            if not grading_reference(L, [ONE if j == i else ZERO for j in range(L.dim)]):
                ok = False
    report(ok, "criterion 6: eigenspace grading holds on every fixture algebra")


def _nonflat_type_a(rng):
    while True:
        s = type_a({k: rng.randint(-2, 2) for k in GAMMA_KEYS})
        if not is_flat(s):
            return s


def _non_killing_control(s):
    candidates = [VectorField(parse("x1"), parse("0")),
                  VectorField(parse("0"), parse("x2")),
                  VectorField(parse("x2"), parse("x1")),
                  VectorField(parse("x1^2"), parse("x2^2"))]
    for f in candidates:
        if not is_killing(s, f):
            return f
    raise AssertionError("no non-Killing control found")


def test_criterion_07_flow_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    sph = sphere()
    cases = [(sph, list(sphere_killing_triple()),
              Grid((0.1, 0.1), (0.2, 0.2), 5))]
    for _ in range(5):
        s = _nonflat_type_a(rng)
        cases.append((s, [D1, D2], Grid((0.0, 0.0), (0.2, 0.2), 5)))
    ok = True
    for s, killing_fields, grid in cases:
        for f in killing_fields:
            assert is_killing(s, f)
            if flow_preserves_connection(s, f, 0.2, grid, step=1e-3) >= 1e-5:
                ok = False
            if fd_residuals(s, f, grid) >= 1e-5:
                ok = False
        control = _non_killing_control(s)
        if flow_preserves_connection(s, control, 0.2, grid, step=1e-3) <= 1e-2:
            ok = False
        if fd_residuals(s, control, grid) <= 1e-2:
            ok = False
    elapsed = time.monotonic() - t0
    report(ok and elapsed < 30.0,
           f"criterion 7: flow-pushforward and fd-residual oracles agree with "
           f"the symbolic verdicts ({elapsed:.1f}s)")


def test_criterion_08_dimension_sweep():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    surfaces = [type_a({k: rng.randint(-2, 2) for k in GAMMA_KEYS})
                for _ in range(100)]
    dims = []
    ok = True
    for s in surfaces:
        ks = killing_jet_space(s)   # raises NoStabilization on failure
        dims.append(ks.dim)
        if not 0 <= ks.dim <= 6:
            ok = False
    for s, d in zip(surfaces[:10], dims[:10]):
        if taylor_killing_dim(s, deg=6) != d:
            ok = False
    elapsed = time.monotonic() - t0
    report(ok and elapsed < 60.0,
           f"criterion 8: 100-surface dimension sweep, max dim {max(dims)}, "
           f"10 oracle cross-checks ({elapsed:.1f}s)")


def test_criterion_09_charts():
    t0 = time.monotonic()
    ch1 = normalize_chart(sphere(), D2, tol=1e-4)
    norm_ok = max(ch1.report["gamma_111_max"], ch1.report["gamma_112_max"],
                  ch1.report["x2_dependence"]) < 1e-6
    ch2 = commuting_chart(type_a({}), D1, D2, tol=1e-6)
    comm_ok = ch2.report["gamma_spread"] < 1e-8
    ch3 = type_b_chart(type_b({"111": -1}), RADIAL, D2, tol=1e-4)
    consts = ch3.report["constants"]
    tb_ok = (ch3.report["scaled_gamma_spread"] < 1e-4
             and abs(consts["111"] + 1.0) < 1e-3
             and all(abs(v) < 1e-3 for k, v in consts.items() if k != "111"))
    elapsed = time.monotonic() - t0
    report(norm_ok and comm_ok and tb_ok and elapsed < 30.0,
           f"criterion 9: three distinguished charts verify on grid ({elapsed:.1f}s)")


def test_criterion_10_verify_paper_controls(capsys):
    codes = {"pristine": cli_main(["verify-paper", "--sweep", "10"])}
    for control in ("ricci-sign", "drop-kernel-row", "corrupt-structure"):
        codes[control] = cli_main(["verify-paper", "--sweep", "2",
                                   "--negative-control", control])
    capsys.readouterr()
    ok = codes["pristine"] == 0 and all(
        codes[c] == 1 for c in ("ricci-sign", "drop-kernel-row", "corrupt-structure"))
    report(ok, f"criterion 10: verify-paper exit codes {codes}")
