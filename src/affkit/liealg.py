"""Lie-algebra layer over Killing jets: brackets, spectra, classification.

The Killing fields of a surface close under the Lie bracket.  Working at
the 1-jet level (second derivatives supplied exactly by the prolongation),
this module computes structure constants, generalized ad-eigenspace
decompositions with their grading, effectivity certificates, and searches
for subalgebra witnesses of the three target presentations:

    abelian pair        [X, Y] = 0            ("TypeA")
    affine pair         [X, Y] = Y            ("TypeB")
    rotation triple     [X, Y] = Z, [Y, Z] = X, [Z, X] = Y   ("so3")

Witnesses are certificates: every reported relation is re-verified exactly
through the jet bracket before it is returned.

Jet brackets take their second derivatives from the surface's
``killing.JetSystem``, built by ``killing_jet_space`` and kept on the
presentation by ``structure_constants``: one classification builds it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import numpy as np

from . import linalg
from .killing import (JET_DIM, Jet1, JetSystem, KillingJetSpace, VectorField,
                      jet_system, killing_jet_space)
from .scalars import ONE, ZERO, Scalar
from .surface import AffineSurface
from .symexpr import Expr

# Witness candidates per branch; the stream ends by itself in dimensions 2-4
# (8, 49, 272 candidates), so only dimension 6 (7448) is cut.
WITNESS_BUDGET = 4000


class LieAlgError(Exception):
    pass


class SolveFailure(LieAlgError):
    """A bracket jet left the span of the basis (solver inconsistency)."""


class NotHomogeneousCandidate(LieAlgError):
    """Killing dimension below 2, or no effective pair in the algebra."""


class ClassificationInconclusive(LieAlgError):
    """Search budget exhausted without a certified witness."""


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

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


def _second_derivatives(system: JetSystem, v: list[Scalar]) -> dict[tuple[int, int, int], Scalar]:
    """dd_ij a^k at the basepoint of the jet vector v, keyed (i, j, k) (exact)."""
    return {key: sum((r * x for r, x in zip(row, v) if not r.is_zero and not x.is_zero), ZERO)
            for key, row in system.second.items()}


def _bracket_vector(x: list[Scalar], y: list[Scalar], ddx, ddy) -> list[Scalar]:
    """Jet vector of [X, Y] from the jet vectors of X, Y and their second
    derivatives (``_second_derivatives``)."""
    b = lambda v, k, i: v[2 * k + i - 1]     # d_i a^k in the jet layout
    out = [ZERO] * JET_DIM
    for k, l in product((1, 2), repeat=2):
        out[k - 1] = out[k - 1] + x[l - 1] * b(y, k, l) - y[l - 1] * b(x, k, l)
        for m in (1, 2):
            out[2 * k + m - 1] = (out[2 * k + m - 1]
                                  + b(x, l, m) * b(y, k, l) + x[l - 1] * ddy[(m, l, k)]
                                  - b(y, l, m) * b(x, k, l) - y[l - 1] * ddx[(m, l, k)])
    return out


def bracket_jets(s: AffineSurface, vx: Jet1, vy: Jet1,
                 system: JetSystem | None = None) -> Jet1:
    """Jet of [X, Y] from the jets of two Killing fields.

    [X, Y]^k = X^l d_l Y^k - Y^l d_l X^k, differentiated once with the
    second derivatives of the surface's jet system (built here if not given).
    """
    system = system or jet_system(s)
    x, y = vx.as_vector(), vy.as_vector()
    return Jet1.from_vector(_bracket_vector(
        x, y, _second_derivatives(system, x), _second_derivatives(system, y)))


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

@dataclass
class LieAlgebraPresentation:
    """Structure constants over a jet basis.

    ``den`` is the least common denominator of the structure constants, and
    ``ad_re``/``ad_im`` hold den * ad(e_i) over the Gaussian integers as
    sparse (row, column, value) entries, so den * ad(x) for an integer x
    is plain int arithmetic (``int_ad``); ``ad_im`` is None for a real
    algebra.  The tables are derived once, at construction, from ``c``.
    """

    dim: int
    c: list[list[list[Scalar]]]          # [e_i, e_j] = sum_k c[i][j][k] e_k
    jets: list[Jet1]
    eval_matrix: list[list[Scalar]]      # 2 x dim basis-field values at P
    system: JetSystem | None = None      # the surface's, when built from one
    den: int = field(init=False, repr=False)
    ad_re: list[list[tuple[int, int, int]]] = field(init=False, repr=False)
    ad_im: list[list[tuple[int, int, int]]] | None = field(init=False, repr=False)

    def __post_init__(self):
        n = self.dim
        d, re, im = linalg.clear_denominators(
            [[self.c[i][j][k] for i in range(n) for j in range(n)] for k in range(n)])

        def table(part):
            # part[k][i*n + j] = den * c[i][j][k], the (k, j) entry of den * ad(e_i)
            return [[(k, j, part[k][i * n + j]) for k in range(n) for j in range(n)
                     if part[k][i * n + j]] for i in range(n)]

        self.den = d
        self.ad_re = table(re)
        self.ad_im = table(im) if im is not None else None

    def int_ad(self, x: tuple[int, ...]) -> tuple[linalg.IntMat, linalg.IntMat | None]:
        """den * ad(x) for an integer vector x, as (real, imaginary) int matrices."""
        n = self.dim

        def combine(tables):
            out = [[0] * n for _ in range(n)]
            for xi, entries in zip(x, tables):
                if xi:
                    for k, j, v in entries:
                        out[k][j] += xi * v
            return out

        return combine(self.ad_re), (None if self.ad_im is None else combine(self.ad_im))

    def ad(self, xi: list[Scalar]) -> list[list[Scalar]]:
        """Matrix of ad(xi) in the basis: column j holds [xi, e_j]."""
        n = self.dim
        out = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            if xi[i].is_zero:
                continue
            for j in range(n):
                for k, cijk in enumerate(self.c[i][j]):
                    if not cijk.is_zero:
                        out[k][j] = out[k][j] + xi[i] * cijk
        return out

    def bracket_coeffs(self, u: list[Scalar], v: list[Scalar]) -> list[Scalar]:
        n = self.dim
        out = [ZERO] * n
        for i in range(n):
            if u[i].is_zero:
                continue
            for j in range(n):
                if v[j].is_zero:
                    continue
                uv = u[i] * v[j]
                for k, cijk in enumerate(self.c[i][j]):
                    if not cijk.is_zero:
                        out[k] = out[k] + uv * cijk
        return out

    def killing_form(self) -> list[list[Scalar]]:
        ads = [self.ad([ONE if i == j else ZERO for j in range(self.dim)])
               for i in range(self.dim)]
        return [[linalg.trace(linalg.mat_mul(ads[i], ads[j]))
                 for j in range(self.dim)] for i in range(self.dim)]

    def evaluate(self, coeffs: list[Scalar]) -> tuple[Scalar, Scalar]:
        v1 = sum((self.eval_matrix[0][i] * coeffs[i] for i in range(self.dim)), ZERO)
        v2 = sum((self.eval_matrix[1][i] * coeffs[i] for i in range(self.dim)), ZERO)
        return v1, v2


def structure_constants(s: AffineSurface,
                        space: KillingJetSpace | None = None) -> LieAlgebraPresentation:
    """Exact structure constants of the Killing algebra in the jet basis.

    All n(n-1)/2 bracket jets are expressed in the basis by one reduction
    of the 6 x (n + n(n-1)/2) matrix [basis | brackets]; the basis is
    independent, so each solution is unique.
    """
    ks = space or killing_jet_space(s)
    n = ks.dim
    basis_vecs = [j.as_vector() for j in ks.basis]
    dds = [_second_derivatives(ks.system, v) for v in basis_vecs]
    pairs = list(combinations(range(n), 2))
    brackets = [_bracket_vector(basis_vecs[i], basis_vecs[j], dds[i], dds[j])
                for i, j in pairs]
    red, pivots = linalg.rref([[v[r] for v in basis_vecs] + [b[r] for b in brackets]
                               for r in range(JET_DIM)])
    # The first bracket outside the span is the first column pivoted past n.
    escaped = next((p for p in pivots if p >= n), None)
    if escaped is not None:
        i, j = pairs[escaped - n]
        raise SolveFailure(f"bracket of basis jets {i},{j} left the jet space")
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for col, (i, j) in enumerate(pairs, start=n):
        for r, k in enumerate(pivots):
            c[i][j][k] = red[r][col]
            c[j][i][k] = -red[r][col]
    eval_matrix = [[basis_vecs[k][0] for k in range(n)],
                   [basis_vecs[k][1] for k in range(n)]]
    return LieAlgebraPresentation(n, c, ks.basis, eval_matrix, ks.system)


def jacobi_residual(L: LieAlgebraPresentation) -> list[Scalar]:
    """All cyclic-sum components; zero list for a genuine Lie algebra."""
    out = []
    n = L.dim
    basis = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for i, j, k in combinations(range(n), 3):
        term = L.bracket_coeffs(basis[i], L.bracket_coeffs(basis[j], basis[k]))
        t2 = L.bracket_coeffs(basis[j], L.bracket_coeffs(basis[k], basis[i]))
        t3 = L.bracket_coeffs(basis[k], L.bracket_coeffs(basis[i], basis[j]))
        out.extend(a + b + c for a, b, c in zip(term, t2, t3))
    return out


# ---------------------------------------------------------------------------
# spectra and grading
# ---------------------------------------------------------------------------

@dataclass
class Eigenspace:
    alpha: Scalar | complex
    exact: bool
    basis: list          # list of exact Vecs, or float ndarrays
    certificate: float = 0.0


def _rationalize_root(z: complex, poly: linalg.IntPoly, den: int) -> Scalar | None:
    """An exact root near z of P_A, given ``poly`` = P_B for A = B/den."""
    fr, fi = Fraction(z.real), Fraction(z.imag)
    for limit in (1, 12, 720, 10**6):
        cand = Scalar(fr.limit_denominator(limit), fi.limit_denominator(limit))
        if abs(complex(cand) - z) < 1e-6 and linalg.is_root(poly, den, cand):
            return cand
    return None


def eigenvalues(L: LieAlgebraPresentation, xi: list[Scalar]):
    """(exact roots with multiplicity, leftover numeric roots)."""
    ad = L.ad(xi)
    den, re, im = linalg.clear_denominators(ad)
    poly = linalg.int_charpoly(re, im)
    numeric = np.roots(linalg.float_coeffs(poly, den))
    exact: list[Scalar] = []
    for z in numeric:
        root = _rationalize_root(complex(z), poly, den)
        if root is not None:
            exact.append(root)
            poly = linalg.deflate(poly, den, root)
    leftover = [complex(z) for z in numeric
                if not any(abs(complex(r) - z) < 1e-7 for r in exact)]
    return exact, leftover, ad


def generalized_eigenspaces(L: LieAlgebraPresentation, xi: list[Scalar]) -> list[Eigenspace]:
    """Complexified decomposition into generalized ad(xi) eigenspaces.

    Exact Gaussian-rational eigenvalues give exact kernels of
    (ad - alpha)^dim; any remaining spectrum is handled numerically with a
    residual certificate below 1e-9.
    """
    exact_roots, leftover, ad = eigenvalues(L, xi)
    n = L.dim
    spaces: list[Eigenspace] = []
    seen: list[Scalar] = []
    for root in exact_roots:
        if any((root - r).is_zero for r in seen):
            continue
        seen.append(root)
        shifted = [[ad[i][j] - (root if i == j else ZERO) for j in range(n)]
                   for i in range(n)]
        power = linalg.mat_pow(shifted, n)
        basis = linalg.nullspace(power, n_cols=n)
        spaces.append(Eigenspace(root, True, basis))
    done = [complex(r) for r in seen]
    for z in leftover:
        if any(abs(z - d) < 1e-8 for d in done):
            continue
        done.append(z)
        adf = np.array([[complex(x) for x in row] for row in ad])
        shifted = adf - z * np.eye(n)
        power = np.linalg.matrix_power(shifted, n)
        _, sv, vt = np.linalg.svd(power)
        tol = 1e-9 * max(1.0, sv[0] if len(sv) else 1.0)
        kernel = vt[int(np.sum(sv >= tol)):].conj()
        cert = float(max((np.linalg.norm(power @ v) for v in kernel), default=0.0))
        spaces.append(Eigenspace(z, False, [v for v in kernel], cert))
    return spaces


@dataclass
class GradingReport:
    ok: bool
    violations: list[str] = field(default_factory=list)
    pairs_checked: int = 0


def grading_check(L: LieAlgebraPresentation, xi: list[Scalar],
                  tol: float = 1e-8) -> GradingReport:
    """Verify [E(alpha), E(beta)] lies inside E(alpha + beta)."""
    spaces = generalized_eigenspaces(L, xi)
    report = GradingReport(ok=True)
    n = L.dim
    for ea, eb in product(spaces, repeat=2):
        if ea.exact and eb.exact:
            target_alpha = ea.alpha + eb.alpha
            target = next((sp for sp in spaces
                           if sp.exact and (sp.alpha - target_alpha).is_zero), None)
            for u in ea.basis:
                for v in eb.basis:
                    w = L.bracket_coeffs(u, v)
                    ok = (linalg.in_span(target.basis, w) if target is not None
                          else all(x.is_zero for x in w))
                    report.pairs_checked += 1
                    if not ok:
                        report.ok = False
                        report.violations.append(
                            f"[E({ea.alpha}), E({eb.alpha})] escapes E({target_alpha})")
        else:
            # complex() takes exact Scalars and numeric values alike
            target_z = complex(ea.alpha) + complex(eb.alpha)
            target = next((sp for sp in spaces
                           if abs(complex(sp.alpha) - target_z) < 1e-7), None)
            tb = np.array([[complex(x) for x in bv]
                           for bv in (target.basis if target is not None else [])])
            cf = np.array([[complex(L.c[i][j][k]) for k in range(n)]
                           for i in range(n) for j in range(n)]).reshape(n, n, n)
            for u in ea.basis:
                uf = np.array([complex(x) for x in u])
                for v in eb.basis:
                    vf = np.array([complex(x) for x in v])
                    w = np.einsum("i,j,ijk->k", uf, vf, cf)
                    if tb.size == 0:
                        resid = float(np.linalg.norm(w))
                    else:
                        sol, *_ = np.linalg.lstsq(tb.T, w, rcond=None)
                        resid = float(np.linalg.norm(tb.T @ sol - w))
                    report.pairs_checked += 1
                    if resid > tol * max(1.0, float(np.linalg.norm(w))):
                        report.ok = False
                        report.violations.append(
                            f"[E({ea.alpha}), E({eb.alpha})] residual {resid:.2e}")
    return report


# ---------------------------------------------------------------------------
# effectivity and classification
# ---------------------------------------------------------------------------

def effective(L: LieAlgebraPresentation, elements: list[list[Scalar]]) -> bool:
    """True iff some pair of evaluations at P spans the tangent plane."""
    evals = [L.evaluate(e) for e in elements]
    for (u1, u2), (v1, v2) in combinations(evals, 2):
        det = u1 * v2 - u2 * v1
        if not det.is_zero:
            return True
    return False


@dataclass
class Witness:
    kind: str                       # "TypeA" | "TypeB" | "so3"
    elements: list                  # coefficient vectors over the jet basis
    relations: str
    exact: bool
    residual: float = 0.0


@dataclass
class ClassificationResult:
    dim: int
    branches: list[Witness]
    diagnostics: list[str] = field(default_factory=list)

    def kinds(self) -> list[str]:
        return [w.kind for w in self.branches]


def _unit(n: int, i: int) -> list[Scalar]:
    return [ONE if j == i else ZERO for j in range(n)]


def _search_candidates(n: int):
    """Deterministic candidate stream of primitive integer vectors: basis
    elements, two-slot integer combinations, then full small-integer
    combinations up to WITNESS_BUDGET."""
    yielded = 0
    seen = set()

    def emit(vec):
        nonlocal yielded
        g = gcd(*vec)
        if g == 0:
            return None
        ints = tuple(v // g for v in vec)
        lead = next(v for v in ints if v != 0)
        if lead < 0:
            ints = tuple(-v for v in ints)
        if ints in seen:
            return None
        seen.add(ints)
        yielded += 1
        return ints

    for i in range(n):
        vec = [0] * n
        vec[i] = 1
        out = emit(vec)
        if out is not None:
            yield out
    for i, j in combinations(range(n), 2):
        for ci in range(-2, 3):
            for cj in range(-2, 3):
                vec = [0] * n
                vec[i], vec[j] = ci, cj
                out = emit(vec)
                if out is not None:
                    yield out
                if yielded >= WITNESS_BUDGET:
                    return
    for combo in product(range(-2, 3), repeat=n):
        out = emit(list(combo))
        if out is not None:
            yield out
        if yielded >= WITNESS_BUDGET:
            return


def _verified_bracket(s, L, u, v) -> list[Scalar]:
    """Bracket computed straight from the jets, as basis coefficients."""
    rows = [list(row) for row in zip(*(jet.as_vector() for jet in L.jets))]
    ju, jv = ([sum((x * c for x, c in zip(row, w)), ZERO) for row in rows] for w in (u, v))
    bj = bracket_jets(s, Jet1.from_vector(ju), Jet1.from_vector(jv), L.system).as_vector()
    coeffs = linalg.solve(rows, bj)
    if coeffs is None:
        raise SolveFailure("witness bracket left the jet space")
    return coeffs


def _find_type_a(s, L) -> Witness | None:
    n = L.dim
    for ints in _search_candidates(n):
        x = [Scalar.of(v) for v in ints]
        kernel = linalg.nullspace(L.ad(x), n_cols=n)
        pool = [x] + kernel
        for u, v in combinations(pool, 2):
            br = L.bracket_coeffs(u, v)
            if not all(e.is_zero for e in br):
                continue
            if not effective(L, [u, v]):
                continue
            if all(e.is_zero for e in _verified_bracket(s, L, u, v)):
                return Witness("TypeA", [u, v], "[X,Y]=0", True)
    return None


def _find_type_b(s, L, diagnostics) -> Witness | None:
    """Spectra in Python integers: den * ad(x) from the presentation's
    tables, its monic Z[i] characteristic polynomial, and the exact root
    test; the Scalar ad(x) is built only when a rational eigenvalue needs
    its eigenvectors."""
    n, den = L.dim, L.den
    for ints in _search_candidates(n):
        poly = linalg.int_charpoly(*L.int_ad(ints))
        roots = np.roots(linalg.float_coeffs(poly, den))
        x = ad = None
        for z in roots:
            if abs(z) < 1e-9:
                continue
            if abs(z.imag) > 1e-9:
                continue
            lam = _rationalize_root(complex(z.real, 0.0), poly, den)
            if lam is None or lam.is_zero:
                diagnostics.append(
                    f"skipped non-rational candidate eigenvalue {z.real:.6g}")
                continue
            if ad is None:
                x = [Scalar.of(v) for v in ints]
                ad = L.ad(x)
            shifted = [[ad[i][j] - (lam if i == j else ZERO) for j in range(n)]
                       for i in range(n)]
            for y in linalg.nullspace(shifted, n_cols=n):
                x_scaled = [xi / lam for xi in x]
                if not effective(L, [x_scaled, y]):
                    continue
                got = _verified_bracket(s, L, x_scaled, y)
                if all((got[k] - y[k]).is_zero for k in range(n)):
                    return Witness("TypeB", [x_scaled, y], "[X,Y]=Y", True)
    return None


def _find_so3(s, L) -> Witness | None:
    if L.dim != 3:
        return None
    kf = L.killing_form()
    # Negative definite iff leading principal minors alternate in sign.
    minors = [_det3([row[:k] for row in kf[:k]]) for k in (1, 2, 3)]
    signs_ok = (minors[0].is_real and minors[0].re < 0
                and minors[1].is_real and minors[1].re > 0
                and minors[2].is_real and minors[2].re < 0)
    if not signs_ok:
        return None
    # Orthonormalize against -(Killing form)/2 numerically.
    b = np.array([[-float(complex(kf[i][j]).real) / 2 for j in range(3)]
                  for i in range(3)])
    cf = np.array([[[float(complex(L.c[i][j][k]).real) for k in range(3)]
                    for j in range(3)] for i in range(3)])
    frame = []
    for i in range(3):
        v = np.eye(3)[i]
        for w in frame:
            v = v - (v @ b @ w) * w
        norm = float(np.sqrt(v @ b @ v))
        frame.append(v / norm)
    f1, f2, f3 = frame
    orient = np.einsum("i,j,ijk,k->", f1, f2, cf, f3 @ b)
    if orient < 0:
        f1, f2 = f2, f1

    def br(u, v):
        return np.einsum("i,j,ijk->k", u, v, cf)

    residual = max(
        float(np.linalg.norm(br(f1, f2) - f3)),
        float(np.linalg.norm(br(f2, f3) - f1)),
        float(np.linalg.norm(br(f3, f1) - f2)),
    )
    if residual > 1e-9:
        return None
    return Witness("so3", [list(f1), list(f2), list(f3)],
                   "[X,Y]=Z, [Y,Z]=X, [Z,X]=Y", False, residual)


def _det3(m) -> Scalar:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def classify(s: AffineSurface, space: KillingJetSpace | None = None) -> ClassificationResult:
    """Search the Killing algebra for certified subalgebra witnesses.

    Branches are reported in the order TypeA, TypeB, so3 and are not
    exclusive; each witness' relations are re-verified exactly via the jet
    bracket (TypeA/TypeB) or to residual 1e-9 (so3).  A precomputed
    ``space`` of ``s`` is reused instead of solving the jets again.
    """
    ks = space or killing_jet_space(s)
    if ks.dim < 2:
        raise NotHomogeneousCandidate(
            f"Killing dimension {ks.dim} < 2; not locally homogeneous")
    L = structure_constants(s, ks)
    basis_coeffs = [_unit(L.dim, i) for i in range(L.dim)]
    if not effective(L, basis_coeffs):
        raise NotHomogeneousCandidate(
            "no pair of Killing fields spans the tangent plane at P")

    diagnostics: list[str] = []
    branches: list[Witness] = []
    wa = _find_type_a(s, L)
    if wa:
        branches.append(wa)
    wb = _find_type_b(s, L, diagnostics)
    if wb:
        branches.append(wb)
    wc = _find_so3(s, L)
    if wc:
        branches.append(wc)
    if not branches:
        raise ClassificationInconclusive(
            f"no witness found within budget {WITNESS_BUDGET}; diagnostics: {diagnostics}")
    return ClassificationResult(L.dim, branches, diagnostics)
