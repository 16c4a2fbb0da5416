"""The affine Killing equations: residuals, jet solver, jet extension.

A vector field X = a^1 d1 + a^2 d2 preserves the connection iff the eight
residuals

    K_ij^k = d_i d_j a^k + sum_l ( a^l d_l G_ij^k - G_ij^l d_l a^k
                                   + G_il^k d_j a^l + G_lj^k d_i a^l )

vanish.  Solving each K_ij^k for the second derivative turns the system
into a first-order linear system d_i v = M_i(x) v on the 1-jet
v = (a1, a2, d1 a1, d2 a1, d1 a2, d2 a2) plus algebraic constraint rows:
the mixed-index consistency rows K_12^k - K_21^k and the integrability
rows of the first-order system.  Differentiating constraint rows along the
system and re-evaluating at the basepoint cuts the jet space down until
the dimension stabilizes; all of this is exact Gaussian-rational
arithmetic, so the dimensions (at most 6) are exact integers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linalg
from .scalars import ONE, Scalar, as_fraction
from .surface import AffineSurface
from .symexpr import Expr, compile_exprs, parse

JET_DIM = 6
STABILIZATION_CAP = 12


class KillingError(Exception):
    pass


class NoStabilization(KillingError):
    """The prolongation did not stabilize within the round cap."""


class OutsideDomain(KillingError):
    """A jet extension target lies outside the surface's x1-domain."""


@dataclass(frozen=True)
class VectorField:
    a1: Expr
    a2: Expr

    def component(self, k: int) -> Expr:
        return self.a1 if k == 1 else self.a2

    def eval_real(self, p) -> tuple[float, float]:
        v1 = self.a1.eval_numeric(p)
        v2 = self.a2.eval_numeric(p)
        if max(abs(v1.imag), abs(v2.imag)) > 1e-9 * (1 + abs(v1) + abs(v2)):
            raise KillingError("field has a non-real value at this point")
        return (v1.real, v2.real)

    def eval_array(self, x1, x2) -> np.ndarray:
        return np.moveaxis(compile_exprs([self.a1, self.a2])(x1, x2).real, 0, -1)


@dataclass(frozen=True)
class Jet1:
    """A field value plus first derivatives at the basepoint."""

    a1: Scalar
    a2: Scalar
    d1a1: Scalar
    d2a1: Scalar
    d1a2: Scalar
    d2a2: Scalar

    def as_vector(self) -> list[Scalar]:
        return [self.a1, self.a2, self.d1a1, self.d2a1, self.d1a2, self.d2a2]

    @staticmethod
    def from_vector(v) -> "Jet1":
        return Jet1(*v)

    def value(self) -> tuple[Scalar, Scalar]:
        return (self.a1, self.a2)


@dataclass
class KillingJetSpace:
    basis: list[Jet1]
    dim: int
    constraint_history: list[int]


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def residuals(s: AffineSurface, X: VectorField) -> dict[str, Expr]:
    """All eight Killing residuals, canonical."""
    out: dict[str, Expr] = {}
    for i, j, k in product((1, 2), repeat=3):
        e = X.component(k).diff(f"x{i}").diff(f"x{j}")
        for l in (1, 2):
            e = (e
                 + X.component(l) * s.g(i, j, k).diff(f"x{l}")
                 - s.g(i, j, l) * X.component(k).diff(f"x{l}")
                 + s.g(i, l, k) * X.component(l).diff(f"x{j}")
                 + s.g(l, j, k) * X.component(l).diff(f"x{i}"))
        out[f"{i}{j}{k}"] = e
    return out


def is_killing(s: AffineSurface, X: VectorField) -> bool:
    return all(e.is_zero for e in residuals(s, X).values())


# ---------------------------------------------------------------------------
# prolongation
# ---------------------------------------------------------------------------

def _idx_a(k: int) -> int:
    return k - 1


def _idx_b(k: int, i: int) -> int:
    return 2 + 2 * (k - 1) + (i - 1)


ExprRow = tuple[Expr, ...]
ExprMat = list[list[Expr]]


def _zero_row() -> list[Expr]:
    return [Expr.zero()] * JET_DIM


def _second_derivative_row(s: AffineSurface, i: int, j: int, k: int) -> list[Expr]:
    """Row expressing d_i d_j a^k = row . v, solved from K_ij^k = 0."""
    row = _zero_row()
    for l in (1, 2):
        row[_idx_a(l)] = row[_idx_a(l)] - s.g(i, j, k).diff(f"x{l}")
        row[_idx_b(k, l)] = row[_idx_b(k, l)] + s.g(i, j, l)
        row[_idx_b(l, j)] = row[_idx_b(l, j)] - s.g(i, l, k)
        row[_idx_b(l, i)] = row[_idx_b(l, i)] - s.g(l, j, k)
    return row


def prolongation_symbolic(s: AffineSurface) -> tuple[ExprMat, ExprMat, list[list[Expr]]]:
    """Symbolic M1, M2 (d_i v = M_i v) and the K_12 - K_21 consistency rows."""
    one = Expr.const(1)
    m1: ExprMat = [_zero_row() for _ in range(JET_DIM)]
    m2: ExprMat = [_zero_row() for _ in range(JET_DIM)]
    for k in (1, 2):
        m1[_idx_a(k)][_idx_b(k, 1)] = one
        m2[_idx_a(k)][_idx_b(k, 2)] = one
        # d_1 b^k_1 = dd_11 a^k; d_1 b^k_2 = d_2 b^k_1 = dd_12 a^k (from K_12);
        # d_2 b^k_2 = dd_22 a^k.
        m1[_idx_b(k, 1)] = _second_derivative_row(s, 1, 1, k)
        m1[_idx_b(k, 2)] = _second_derivative_row(s, 1, 2, k)
        m2[_idx_b(k, 1)] = _second_derivative_row(s, 1, 2, k)
        m2[_idx_b(k, 2)] = _second_derivative_row(s, 2, 2, k)

    c0: list[list[Expr]] = []
    for k in (1, 2):
        row = _zero_row()
        for l in (1, 2):
            row[_idx_a(l)] = row[_idx_a(l)] + (s.g(1, 2, k) - s.g(2, 1, k)).diff(f"x{l}")
            row[_idx_b(k, l)] = row[_idx_b(k, l)] - (s.g(1, 2, l) - s.g(2, 1, l))
            row[_idx_b(l, 2)] = row[_idx_b(l, 2)] + s.g(1, l, k) - s.g(l, 1, k)
            row[_idx_b(l, 1)] = row[_idx_b(l, 1)] + s.g(l, 2, k) - s.g(2, l, k)
        c0.append(row)
    return m1, m2, c0


def prolongation(s: AffineSurface, p) -> tuple[list[list[Scalar]], list[list[Scalar]], list[list[Scalar]]]:
    """M1, M2 and consistency rows exactly evaluated at a rational point."""
    point = (as_fraction(p[0]), as_fraction(p[1]))
    m1, m2, c0 = prolongation_symbolic(s)
    ev = lambda rows: [[e.eval_exact(point) for e in row] for row in rows]
    return ev(m1), ev(m2), ev(c0)


def _integrability_rows(m1: ExprMat, m2: ExprMat) -> list[list[Expr]]:
    """Rows of d1 M2 - d2 M1 + M2 M1 - M1 M2; they vanish on jets of
    genuine solutions and constrain everything else."""
    rows = []
    for r in range(JET_DIM):
        row = []
        for c in range(JET_DIM):
            e = m2[r][c].diff("x1") - m1[r][c].diff("x2")
            for t in range(JET_DIM):
                e = e + m2[r][t] * m1[t][c] - m1[r][t] * m2[t][c]
            row.append(e)
        rows.append(row)
    return rows


def _derive_row(row: list[Expr], m: ExprMat, var: str) -> list[Expr]:
    """d/dx of (row . v) along solutions: row.M + d(row)."""
    out = []
    for c in range(JET_DIM):
        e = row[c].diff(var)
        for t in range(JET_DIM):
            e = e + row[t] * m[t][c]
        out.append(e)
    return out


class _ExactRankTracker:
    """Incremental exact rank of an accumulating row set (at most 6)."""

    def __init__(self):
        self.reduced: list[list[Scalar]] = []
        self.pivots: list[int] = []

    def add(self, row: list[Scalar]) -> None:
        work = row[:]
        for basis_row, piv in zip(self.reduced, self.pivots):
            if not work[piv].is_zero:
                f = work[piv]
                work = [x - f * y for x, y in zip(work, basis_row)]
        piv = next((c for c in range(JET_DIM) if not work[c].is_zero), None)
        if piv is None:
            return
        inv = ONE / work[piv]
        work = [x * inv for x in work]
        self.reduced.append(work)
        self.pivots.append(piv)

    @property
    def rank(self) -> int:
        return len(self.reduced)

    def matrix(self) -> list[list[Scalar]]:
        return [row[:] for row in self.reduced]


def killing_jet_space(s: AffineSurface) -> KillingJetSpace:
    """Exact basis of 1-jets of affine Killing fields at the basepoint.

    Constraint rows are carried symbolically and differentiated along the
    jet system before each exact evaluation.  The iteration is provably
    complete once the frontier empties (the symbolic row span is then
    closed under both derivations); otherwise it stops after two fully
    stagnant rounds, except that a dimension of 6 with constraints present
    is accepted only for genuinely flat surfaces, since the bound is
    attained exactly by flat connections.  Constraints whose entries
    vanish at the basepoint to order beyond the round cap would still be
    missed; such inputs cannot be locally homogeneous.
    """
    from .surface import is_flat

    point = s.basepoint
    m1, m2, c0 = prolongation_symbolic(s)
    base_rows = [row for row in c0 if any(not e.is_zero for e in row)]
    for row in _integrability_rows(m1, m2):
        if any(not e.is_zero for e in row):
            base_rows.append(row)

    tracker = _ExactRankTracker()
    seen: set = set()
    frontier: list[list[Expr]] = []
    for row in base_rows:
        key = tuple(row)
        if key in seen:
            continue
        seen.add(key)
        frontier.append(row)
        tracker.add([e.eval_exact(point) for e in row])

    def finish(history):
        basis = linalg.nullspace(tracker.matrix(), n_cols=JET_DIM)
        jets = [Jet1.from_vector(v) for v in basis]
        return KillingJetSpace(jets, len(jets), history)

    flat = None
    history = [JET_DIM - tracker.rank]
    for _ in range(STABILIZATION_CAP):
        if not frontier:
            # Row span is closed under both derivations: provably complete.
            history.append(history[-1])
            return finish(history)
        new_frontier: list[list[Expr]] = []
        for row in frontier:
            for m, var in ((m1, "x1"), (m2, "x2")):
                derived = _derive_row(row, m, var)
                if all(e.is_zero for e in derived):
                    continue
                key = tuple(derived)
                if key in seen:
                    continue
                seen.add(key)
                new_frontier.append(derived)
                tracker.add([e.eval_exact(point) for e in derived])
        frontier = new_frontier
        history.append(JET_DIM - tracker.rank)
        if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
            if history[-1] == JET_DIM and base_rows:
                if flat is None:
                    flat = is_flat(s)
                if not flat:
                    continue  # constraints must eventually bite
            return finish(history)
    if history[-1] == JET_DIM and base_rows and not (flat or is_flat(s)):
        raise NoStabilization(
            "constraints never became active at the basepoint within "
            f"{STABILIZATION_CAP} rounds on a curved surface: {history}")
    if history[-1] == history[-2]:
        return finish(history)
    raise NoStabilization(
        f"jet space dimension did not stabilize within {STABILIZATION_CAP} rounds: {history}")


# ---------------------------------------------------------------------------
# jets of symbolic fields, numeric extension of jets
# ---------------------------------------------------------------------------

def jet_of(s: AffineSurface, X: VectorField) -> Jet1:
    p = s.basepoint
    return Jet1(
        X.a1.eval_exact(p), X.a2.eval_exact(p),
        X.a1.diff("x1").eval_exact(p), X.a1.diff("x2").eval_exact(p),
        X.a2.diff("x1").eval_exact(p), X.a2.diff("x2").eval_exact(p),
    )


def extend_jet(s: AffineSurface, v: Jet1, q, step: float = 1e-3):
    """The six floats (a1, a2, d1 a1, d2 a1, d1 a2, d2 a2) at q: a one-row
    ``JetField.jets_at`` (x1 leg, then x2 leg)."""
    return JetField(s, v, step).jet_at(q)


class JetField:
    """A Killing field known only through its 1-jet, evaluated on demand."""

    def __init__(self, s: AffineSurface, jet: Jet1, step: float = 1e-3):
        self.surface = s
        self.jet = jet
        self.step = step

    def jets_at(self, points) -> np.ndarray:
        """Extended jets (N, 6) at the points (N, 2), all rows in lockstep.

        Each row integrates d v / d tau = span * M_i v in unit pseudo-time
        with ``numeric._rk4``, along x1 from the basepoint, then along x2.
        A leg takes one step count for the whole batch, ceil(max|span| /
        step), so a row's result depends on the largest span in its batch,
        as with ``numeric.flow_batch``.  The domain constrains x1 only, so
        checking the targets covers every path.
        """
        from .numeric import _rk4

        s = self.surface
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        lo, hi = s.domain_bounds()
        if np.any(pts[:, 0] <= lo) or np.any(pts[:, 0] >= hi):
            raise OutsideDomain(f"jet extension target leaves x1 in ({lo}, {hi})")
        jet = np.array([complex(x) for x in self.jet.as_vector()])
        state = np.repeat([jet if jet.imag.any() else jet.real], len(pts), axis=0)
        base = (float(s.basepoint[0]), float(s.basepoint[1]))
        m1, m2, _ = prolongation_symbolic(s)
        for axis, m in enumerate((m1, m2)):
            spans = pts[:, axis] - base[axis]
            tmax = float(np.max(np.abs(spans)))
            if tmax == 0.0:
                continue
            rows, cols = np.nonzero([[not e.is_zero for e in row] for row in m])
            entries = compile_exprs([m[r][c] for r, c in zip(rows, cols)])
            fixed = np.full(len(pts), base[1]) if axis == 0 else pts[:, 0]

            def rhs(tau, y):
                moving = base[axis] + tau * spans
                vals = entries(moving, fixed) if axis == 0 else entries(fixed, moving)
                mat = np.zeros((len(pts), JET_DIM, JET_DIM), dtype=vals.dtype)
                mat[:, rows, cols] = vals.T
                return spans[:, None] * (mat @ y[:, :, None])[:, :, 0]

            state = _rk4(rhs, state, max(1, math.ceil(tmax / self.step)))
        if np.iscomplexobj(state):
            scale = 1 + np.max(np.abs(state), axis=1)
            if np.any(np.max(np.abs(state.imag), axis=1) > 1e-8 * scale):
                raise KillingError("jet extension produced a non-real jet")
            state = state.real
        return state

    def jet_at(self, p) -> tuple[float, ...]:
        return tuple(float(x) for x in self.jets_at([p])[0])

    def value(self, p) -> tuple[float, float]:
        full = self.jet_at(p)
        return (full[0], full[1])


# ---------------------------------------------------------------------------
# field files
# ---------------------------------------------------------------------------

def field_to_json(X: VectorField) -> dict:
    return {"a1": str(X.a1), "a2": str(X.a2)}


def field_from_json(data: dict) -> VectorField:
    return VectorField(parse(data.get("a1", "0")), parse(data.get("a2", "0")))


def load_field(path) -> VectorField:
    with open(path, encoding="utf-8") as fh:
        return field_from_json(json.load(fh))
