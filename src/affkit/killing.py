"""The affine Killing equations: residuals, jet solver, jet extension.

A vector field X = a^1 d1 + a^2 d2 preserves the connection iff the eight
residuals

    K_ij^k = d_i d_j a^k + sum_l ( a^l d_l G_ij^k - G_ij^l d_l a^k
                                   + G_il^k d_j a^l + G_lj^k d_i a^l )

vanish.  Solving each K_ij^k for the second derivative gives one row per
(i, j, k) with d_i d_j a^k = row . v on the 1-jet
v = (a1, a2, d1 a1, d2 a1, d1 a2, d2 a2); ``_second_derivative_row`` is
the only place the operator's coefficients are written.  The residuals
are K_ij^k = d_i d_j a^k - row . v, and the rows turn the system into a
first-order linear system d_i v = M_i(x) v plus algebraic constraint rows:
the mixed-index consistency rows K_12^k - K_21^k (the difference of two
rows) and the integrability rows of the first-order system.
Differentiating constraint rows along the system and re-evaluating at the
basepoint cuts the jet space down until the dimension stabilizes; all of
this is exact Gaussian-rational arithmetic, so the dimensions (at most 6)
are exact integers.  ``killing_jet_space`` builds the prolongation once, as
a :class:`JetSystem`, and its frozen :class:`KillingJetSpace` is what
carries that system, symbolic, on to the Lie layer, which evaluates
d_m v = M_m(P) v where it needs second derivatives.  The module holds no
float code: :class:`JetField` extends a real jet through
``numeric.jet_transport``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

from . import linalg
from .numeric import jet_transport
from .scalars import Scalar
from .surface import AffineSurface, read_json
from .symexpr import Expr, parse

JET_DIM = 6
STABILIZATION_CAP = 12


class KillingError(Exception):
    pass


class NoStabilization(KillingError):
    """The prolongation did not stabilize within the round cap."""


@dataclass(frozen=True)
class VectorField:
    a1: Expr
    a2: Expr

    def component(self, k: int) -> Expr:
        return self.a1 if k == 1 else self.a2

    def jet(self) -> tuple[Expr, ...]:
        """The symbolic 1-jet (a1, a2, d1 a1, d2 a1, d1 a2, d2 a2), in ``Jet1`` order."""
        return (self.a1, self.a2, self.a1.diff("x1"), self.a1.diff("x2"),
                self.a2.diff("x1"), self.a2.diff("x2"))


def bracket_fields(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^k = X^l d_l Y^k - Y^l d_l X^k, symbolically."""
    comps = []
    for k in (1, 2):
        e = Expr.zero()
        for l in (1, 2):
            e = e + X.component(l) * Y.component(k).diff(f"x{l}")
            e = e - Y.component(l) * X.component(k).diff(f"x{l}")
        comps.append(e)
    return VectorField(comps[0], comps[1])


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


@dataclass(frozen=True)
class KillingJetSpace:
    """``basis`` is ``linalg.Echelon``'s canonical nullspace basis: jet k is
    1 at its free column, its last nonzero entry, where every other jet is 0."""

    basis: list[Jet1]
    constraint_history: list[int]
    system: JetSystem

    @property
    def dim(self) -> int:
        return len(self.basis)


# ---------------------------------------------------------------------------
# the Killing operator
# ---------------------------------------------------------------------------

def _idx_a(k: int) -> int:
    return k - 1


def _idx_b(k: int, i: int) -> int:
    return 2 + 2 * (k - 1) + (i - 1)


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


def residuals(s: AffineSurface, X: VectorField) -> dict[str, Expr]:
    """All eight Killing residuals K_ij^k = d_i d_j a^k - row . j1(X), canonical."""
    jet = X.jet()
    out: dict[str, Expr] = {}
    for i, j, k in product((1, 2), repeat=3):
        e = X.component(k).diff(f"x{i}").diff(f"x{j}")
        for coeff, v in zip(_second_derivative_row(s, i, j, k), jet):
            if not coeff.is_zero:
                e = e - coeff * v
        out[f"{i}{j}{k}"] = e
    return out


def is_killing(s: AffineSurface, X: VectorField) -> bool:
    return all(e.is_zero for e in residuals(s, X).values())


# ---------------------------------------------------------------------------
# prolongation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JetSystem:
    """One surface's prolongation, symbolic: M1, M2 (d_i v = M_i v) and the
    K_12 - K_21 consistency rows C0.  Row b^k_l of M_m gives
    d_m d_l a^k = row . v, so d_1 d_2 a^k sits in both M1 and M2."""

    m1: ExprMat
    m2: ExprMat
    c0: list[list[Expr]]


def prolongation_symbolic(s: AffineSurface) -> JetSystem:
    """Build the surface's prolongation; nothing is evaluated."""
    one = Expr.const(1)
    dd = {(i, j, k): _second_derivative_row(s, i, j, k) for i, j, k in product((1, 2), repeat=3)}
    m1: ExprMat = [_zero_row() for _ in range(JET_DIM)]
    m2: ExprMat = [_zero_row() for _ in range(JET_DIM)]
    for k in (1, 2):
        m1[_idx_a(k)][_idx_b(k, 1)] = one
        m2[_idx_a(k)][_idx_b(k, 2)] = one
        # d_1 b^k_1 = dd_11 a^k; d_1 b^k_2 = d_2 b^k_1 = dd_12 a^k (from K_12);
        # d_2 b^k_2 = dd_22 a^k.
        m1[_idx_b(k, 1)] = dd[1, 1, k]
        m1[_idx_b(k, 2)] = dd[1, 2, k]
        m2[_idx_b(k, 1)] = dd[1, 2, k]
        m2[_idx_b(k, 2)] = dd[2, 2, k]
    # K_12^k - K_21^k = (row(2,1,k) - row(1,2,k)) . v
    c0 = [[a - b for a, b in zip(dd[2, 1, k], dd[1, 2, k])] for k in (1, 2)]
    return JetSystem(m1, m2, c0)


def _derive_row(row: list[Expr], m: ExprMat, var: str) -> list[Expr]:
    """d/dx of (row . v) along solutions: row.M + d(row)."""
    out = []
    for c in range(JET_DIM):
        e = row[c].diff(var)
        for t in range(JET_DIM):
            e = e + row[t] * m[t][c]
        out.append(e)
    return out


def killing_jet_space(s: AffineSurface) -> KillingJetSpace:
    """Exact basis of 1-jets of affine Killing fields at the basepoint.

    Constraint rows are carried symbolically and differentiated along the
    jet system before each exact evaluation.  Every row, derived or not,
    passes through one helper, ``feed``, which skips zero and repeated rows
    and adds the row's value at the basepoint to one ``linalg.Echelon``,
    whose nullspace is the answer.  The iteration is provably complete once
    the frontier empties (the symbolic row span is then closed under both
    derivations); otherwise it stops after two fully stagnant rounds below
    6.  That stopping rule is unproven and stops too early on two known
    surfaces, pinned as strict xfails by
    ``test_killing.py::test_stagnation_rule_stops_early`` and
    ``test_cli.py::test_killing_dim_stops_early``.  A plateau at 6 never
    stops while constraint rows exist: dimension 6 forces isotropy gl(2),
    hence a flat torsion-free surface, on which every constraint row
    vanishes identically.  Constraints vanishing at the basepoint to order
    beyond the round cap raise ``NoStabilization``.
    """
    point = s.basepoint
    system = prolongation_symbolic(s)
    m1, m2 = system.m1, system.m2
    tracker = linalg.Echelon(JET_DIM)
    seen: set = set()

    def feed(rows) -> list[list[Expr]]:
        """Add each new nonzero row's value at P; the new rows are the next frontier."""
        fresh = []
        for row in rows:
            key = tuple(row)
            if all(e.is_zero for e in row) or key in seen:
                continue
            seen.add(key)
            fresh.append(row)
            tracker.add([e.eval_exact(point) for e in row])
        return fresh

    # Row r of the integrability rows d1 M2 - d2 M1 + M2 M1 - M1 M2 is
    # d1 of row r of M2 minus d2 of row r of M1, both along the system.
    integrability = ([a - b for a, b in zip(_derive_row(m2[r], m1, "x1"),
                                            _derive_row(m1[r], m2, "x2"))]
                     for r in range(JET_DIM))
    frontier = feed(chain(system.c0, integrability))

    def finish(history):
        jets = [Jet1.from_vector(v) for v in tracker.nullspace()]
        return KillingJetSpace(jets, history, system)

    history = [JET_DIM - tracker.rank]
    for _ in range(STABILIZATION_CAP):
        if not frontier:
            # Row span is closed under both derivations: provably complete.
            history.append(history[-1])
            return finish(history)
        frontier = feed(_derive_row(row, m, var) for row in frontier
                        for m, var in ((m1, "x1"), (m2, "x2")))
        history.append(JET_DIM - tracker.rank)
        # A nonempty frontier means constraint rows exist, so a plateau at 6
        # is never the answer: keep deriving until they bite.
        if len(history) >= 3 and history[-1] == history[-2] == history[-3] < JET_DIM:
            return finish(history)
    if history[-1] == JET_DIM:
        raise NoStabilization(
            "constraints never became active at the basepoint within "
            f"{STABILIZATION_CAP} rounds: {history}")
    if history[-1] == history[-2]:
        return finish(history)
    raise NoStabilization(
        f"jet space dimension did not stabilize within {STABILIZATION_CAP} rounds: {history}")


# ---------------------------------------------------------------------------
# jets of symbolic fields, real jets extended by numeric.jet_transport
# ---------------------------------------------------------------------------

def jet_of(s: AffineSurface, X: VectorField) -> Jet1:
    return Jet1(*(e.eval_exact(s.basepoint) for e in X.jet()))


class JetField:
    """A real Killing field known only through its 1-jet, extended on demand
    by ``numeric.jet_transport``, which compiles the jet system once, here.
    A jet entry with a nonzero imaginary part raises KillingError (decided
    exactly); a non-real jet system raises ``numeric.NumericError``."""

    def __init__(self, s: AffineSurface, jet: Jet1, step: float = 1e-3):
        if not all(x.is_real for x in jet.as_vector()):
            raise KillingError("jet extension needs a real jet")
        self._jet = [float(x.re) for x in jet.as_vector()]
        system = prolongation_symbolic(s)
        self._transport = jet_transport(s, (system.m1, system.m2), step)

    def jets_at(self, points):
        """Jets (N, 6) at the points (N, 2); outside the domain, DomainExit."""
        return self._transport(self._jet, points)

# ---------------------------------------------------------------------------
# field files
# ---------------------------------------------------------------------------

def field_from_json(data) -> VectorField:
    """A field from its file's JSON; a malformed or unknown key raises
    KillingError naming it."""
    if not isinstance(data, dict):
        raise KillingError(f"a field file must hold a JSON object, not a {type(data).__name__}")
    unknown = set(data) - {"a1", "a2"}
    if unknown:
        raise KillingError(f"unknown field keys: {sorted(unknown)} (allowed: a1, a2)")
    texts = {key: data.get(key, "0") for key in ("a1", "a2")}
    for key, text in texts.items():
        if not isinstance(text, str):
            raise KillingError(f'"{key}" must be an expression string, not {text!r}')
    return VectorField(parse(texts["a1"]), parse(texts["a2"]))


def load_field(path) -> VectorField:
    return field_from_json(read_json(path, KillingError, "field file"))
