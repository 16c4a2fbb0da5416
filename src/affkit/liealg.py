"""Lie-algebra layer over Killing jets: brackets, spectra, classification.

The Killing fields of a surface close under the Lie bracket.  Working at
the 1-jet level (second derivatives d_m v = M_m(P) v at the basepoint P),
this module computes structure constants, effectivity certificates, and
searches for subalgebra witnesses of the three target presentations:

    abelian pair        [X, Y] = 0            ("TypeA")
    affine pair         [X, Y] = Y            ("TypeB")
    rotation triple     [X, Y] = Z, [Y, Z] = X, [Z, X] = Y   ("so3")

Jets are bracketed once, while ``structure_constants`` builds the
presentation: the basis jets of the ``killing.JetSystem`` that
``killing_jet_space`` returns are extended by their second derivatives,
cleared over one denominator D (``IntJets.den``) and bracketed pairwise by
one integer kernel over the Gaussian integers Z[i], so every bracket lies
over D^2.  The basis is ``Echelon.nullspace()``'s canonical one, so a
bracket's coordinates are read off its free columns and checked in
integers, with no solve; a bracket that leaves the span raises
SolveFailure.  The frozen presentation derives den * ad(e_i) from those
constants once, so no table can go stale, and no jet is bracketed again:
the jet bracket is bilinear, so every ad, every bracket of coefficient
vectors and the Killing form tr(ad e_i ad e_j) read the Z[i] tables
(``int_ad``) exactly.  The witness searches work on den * ad(x) in Python
integers; effectivity is a 2 x 2 determinant in Z[i] of the fields'
values at P.

``"verified": true`` certifies relations that hold exactly in tables read
off span-checked jet brackets.  A TypeA or TypeB pair comes from a kernel
of den * ad(x) - den * lam, so its relation holds by construction (a TypeA
pair inside the kernel is checked by ``bracket_coeffs``); the so3 frame is
one exact Gram-Schmidt against the Killing form, and ``_so3_frame`` tests
its relations.  numpy only proposes Type B eigenvalues, each tested exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, product
from math import gcd
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import (GaussMat, GaussVec, clear_denominators, gauss_bilinear, gauss_column,
                     gauss_row, int_mat_vec, scalar_rows, to_scalars)
from .killing import JET_DIM, JetSystem, killing_jet_space
from .scalars import ONE, ZERO, Scalar
from .surface import AffineSurface

# Witness candidates, one stream shared by the TypeA and TypeB searches; it
# ends by itself in dimensions 2-5 (8, 49, 272 and 1441 candidates), so only
# dimension 6 (7448) is cut.
WITNESS_BUDGET = 4000


class LieAlgError(Exception):
    pass


class SolveFailure(LieAlgError):
    """The bracket of two basis jets left their span (the jet space is not
    closed); ``structure_constants`` names the pair."""


class NotHomogeneousCandidate(LieAlgError):
    """Killing dimension below 2, or no effective pair in the algebra."""


class ClassificationInconclusive(LieAlgError):
    """Search budget exhausted without a certified witness."""


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def _bracket_terms() -> list[tuple[int, int, int]]:
    """(out, a, b) with [X, Y][out] += x[a] y[b] - x[b] y[a]: the jet of
    [X, Y]^k = X^l d_l Y^k - Y^l d_l X^k and of its first derivatives,
    d_m [X, Y]^k = d_m X^l d_l Y^k + X^l d_m d_l Y^k - (X <-> Y)."""
    b = lambda k, i: 2 * k + i - 1          # index of d_i a^k in the jet
    terms = []
    for k, l in product((1, 2), repeat=2):
        terms.append((k - 1, l - 1, b(k, l)))
        for m in (1, 2):
            terms.append((b(k, m), b(l, m), b(k, l)))
            # d_m d_l a^k is row b^k_l of M_m v: row 4 m + b(k, l) of ``_int_jets``
            terms.append((b(k, m), l - 1, 4 * m + b(k, l)))
    return [t for t in terms if t[1] != t[2]]


_BRACKET_TERMS = _bracket_terms()


def _bracket_kernel(x: list[int], y: list[int]) -> list[int]:
    """Jet of [X, Y] from two real extended jets over D: an integer vector
    over D^2."""
    out = [0] * JET_DIM
    for o, a, b in _BRACKET_TERMS:
        out[o] += x[a] * y[b] - x[b] * y[a]
    return out


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

class IntJets(NamedTuple):
    """A presentation's basis jets over Z[i], extended and cleared over one
    denominator ``den`` once, by ``structure_constants``.

    Column k of ``ext`` is den times jet k (rows 0-5), followed by den
    times rows b^k_l of M1(P) v, then of M2(P) v, its second derivatives
    d_m d_l a^k (rows 6-13), so the bracket of two columns lies over den^2.
    Rows 0-5 over den are the transposed basis, the one copy a presentation
    stores: the structure constants are read off it at its free columns
    (``_read_off``), and rows 0 and 1 evaluate the fields at P.
    """

    den: int
    ext: GaussMat


def _int_jets(jets, system: JetSystem, point) -> IntJets:
    """The jets extended by M_m . jet at the basepoint ``point``, the 14 x n
    matrix cleared once.  Only rows b^k_l of M1, M2 are evaluated (rows a^k
    repeat jet entries), and their products skip each jet's zero entries."""
    cols = [j.as_vector() for j in jets]
    support = [[(r, x) for r, x in enumerate(col) if not x.is_zero] for col in cols]
    ext = [[col[r] for col in cols] for r in range(JET_DIM)]
    for exprs in system.m1[2:] + system.m2[2:]:
        row = [e.eval_exact(point) for e in exprs]
        ext.append([sum((row[r] * x for r, x in nz if not row[r].is_zero), ZERO)
                    for nz in support])
    return IntJets(*clear_denominators(ext))


def _leading_rows(m: GaussMat, k: int) -> GaussMat:
    re, im = m
    return re[:k], None if im is None else im[:k]


def _read_off(ints: IntJets, b: GaussVec) -> GaussVec | None:
    """Coordinates x of the jet b in the basis, over b's own denominator:
    den * b = ext[0:6] . x, or None when b leaves the span.

    The basis is ``Echelon.nullspace()``'s canonical one: jet k is 1 at its
    free column f_k, its last nonzero entry, and every other jet is 0
    there, so a jet in the span has coordinates b[f_k]."""
    rows = _leading_rows(ints.ext, JET_DIM)
    re = rows[0]
    free = [max(r for r in range(JET_DIM) if re[r][k]) for k in range(len(re[0]))]
    x = tuple(None if part is None else [part[f] for f in free] for part in b)
    flat = lambda g: g[0] + (g[1] or [0] * JET_DIM)
    inside = flat(gauss_bilinear(int_mat_vec, rows, x)) == [ints.den * y for y in flat(b)]
    return x if inside else None


@dataclass(frozen=True)
class LieAlgebraPresentation:
    """Structure constants over a jet basis, frozen.

    ``int_jets`` holds the basis jets and their second derivatives over
    Z[i] (``IntJets``); ``structure_constants`` brackets them once and hands
    them over, and afterwards they serve only effectivity, through the
    fields' values at P.  ``c`` is stored as tuples and is read once, at
    construction, to derive the ad tables, so they cannot go stale:
    ``den`` is the least common denominator of the structure
    constants, and ``ad_re``/``ad_im`` hold den * ad(e_i) over the
    Gaussian integers as sparse (row, column, value) entries, so
    den * ad(x) for an integer x is plain int arithmetic (``int_ad``);
    ``ad_im`` is None for a real algebra.  Every bracket of coefficient
    vectors and the Killing form are read off those tables.
    """

    dim: int
    c: tuple[tuple[tuple[Scalar, ...], ...], ...]   # [e_i, e_j] = sum_k c[i][j][k] e_k
    int_jets: IntJets = field(repr=False)
    den: int = field(init=False, repr=False)
    ad_re: list[list[tuple[int, int, int]]] = field(init=False, repr=False)
    ad_im: list[list[tuple[int, int, int]]] | None = field(init=False, repr=False)

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        put("c", tuple(tuple(tuple(row) for row in plane) for plane in self.c))
        n = self.dim
        d, (re, im) = clear_denominators(
            [[self.c[i][j][k] for i in range(n) for j in range(n)] for k in range(n)])

        def table(part):
            # part[k][i*n + j] = den * c[i][j][k], the (k, j) entry of den * ad(e_i)
            return [[(k, j, part[k][i * n + j]) for k in range(n) for j in range(n)
                     if part[k][i * n + j]] for i in range(n)]

        put("den", d)
        put("ad_re", table(re))
        put("ad_im", table(im) if im is not None else None)

    def int_ad(self, x: GaussVec) -> GaussMat:
        """den * ad(x) for x over Z[i]: column j holds den * [x, e_j]."""
        n = self.dim

        def combine(xs, tables):
            flat = [0] * (n * n)
            for xi, entries in zip(xs, tables):
                if xi:
                    for k, j, v in entries:
                        flat[k * n + j] += xi * v
            return flat

        re, im = gauss_bilinear(combine, x, (self.ad_re, self.ad_im))
        rows = lambda flat: [flat[k * n:(k + 1) * n] for k in range(n)]
        return rows(re), None if im is None else rows(im)

    def bracket_coeffs(self, u: list[Scalar], v: list[Scalar]) -> list[Scalar]:
        """[u, v] = int_ad(u') v' / (den d^2), with u = u'/d and v = v'/d over Z[i]."""
        d, cleared = clear_denominators([u, v])
        uv = gauss_bilinear(int_mat_vec, self.int_ad(gauss_row(cleared, 0)), gauss_row(cleared, 1))
        return to_scalars(uv, self.den * d * d)

    def killing_form(self) -> list[list[Scalar]]:
        """B_ij = tr(ad(e_i) ad(e_j)), from the tables (``int_ad``) over den^2."""
        n = self.dim
        ads = [self.int_ad(([int(k == i) for k in range(n)], None)) for i in range(n)]
        trace = lambda a, b: [sum(x * y for row, col in zip(a, zip(*b)) for x, y in zip(row, col))]
        return [[to_scalars(gauss_bilinear(trace, a, b), self.den ** 2)[0] for b in ads]
                for a in ads]

    def _values_at_p(self, coeffs: list[Scalar]) -> GaussVec:
        """g over Z[i]: the field with these coefficients has value g / (d * den)
        at P, for d the least common denominator of ``coeffs``."""
        _, cleared = clear_denominators([coeffs])
        rows = _leading_rows(self.int_jets.ext, 2)
        return gauss_bilinear(int_mat_vec, rows, gauss_row(cleared, 0))


def structure_constants(s: AffineSurface) -> LieAlgebraPresentation:
    """Exact structure constants of the Killing algebra in the jet basis.

    The one place jets are bracketed: columns i and j of the extended basis
    (``IntJets``) go through the integer kernel, and the bracket's
    coordinates, over den^2, are read off the basis (``_read_off``).  A
    bracket that leaves the span raises SolveFailure naming the pair.
    """
    ks = killing_jet_space(s)
    n = ks.dim
    ints = _int_jets(ks.basis, ks.system, s.basepoint)
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, j in combinations(range(n), 2):
        br = gauss_bilinear(_bracket_kernel, gauss_column(ints.ext, i), gauss_column(ints.ext, j))
        coords = _read_off(ints, br)
        if coords is None:
            raise SolveFailure(f"bracket of basis jets {i},{j} left the jet space")
        c[i][j] = to_scalars(coords, ints.den ** 2)
        c[j][i] = [-y for y in c[i][j]]
    return LieAlgebraPresentation(n, c, ints)


def jacobi_residual(L: LieAlgebraPresentation) -> list[Scalar]:
    """All cyclic-sum components; zero list for a genuine Lie algebra."""
    e, br = [_unit(L.dim, i) for i in range(L.dim)], L.bracket_coeffs
    return [a + b + c for i, j, k in combinations(range(L.dim), 3)
            for a, b, c in zip(br(e[i], br(e[j], e[k])), br(e[j], br(e[k], e[i])),
                               br(e[k], br(e[i], e[j])))]


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def _rationalize_root(z: complex, poly: linalg.IntPoly, den: int) -> Scalar | None:
    """The exact root of P_A near z, given ``poly`` = P_B for A = B/den: a
    root lam in Q(i) has den * lam in Z[i], a root of the monic Z[i] P_B, so
    the nearest point of Z[i] / den is the one candidate (``linalg.is_root``)."""
    cand = Scalar(Fraction(round(den * z.real), den), Fraction(round(den * z.imag), den))
    if abs(complex(cand) - z) < 1e-6 and linalg.is_root(poly, den, cand):
        return cand
    return None


def _shifted_kernel(m: GaussMat, s: int) -> list[linalg.Vec]:
    """Kernel of m - s*I for m over Z[i] and an integer s."""
    return linalg.nullspace(scalar_rows(linalg.gauss_shift(m, s, 0)), n_cols=len(m[0]))


# ---------------------------------------------------------------------------
# effectivity and classification
# ---------------------------------------------------------------------------

def effective(L: LieAlgebraPresentation, elements: list[list[Scalar]]) -> bool:
    """True iff some pair of evaluations at P spans the tangent plane.

    Each element's denominators are cleared (which scales its value at P by
    a positive integer), so the 2 x 2 determinants are tested in Z[i].
    """
    values = [L._values_at_p(e) for e in elements]
    det = lambda u, v: [u[0] * v[1] - u[1] * v[0]]
    for u, v in combinations(values, 2):
        re, im = gauss_bilinear(det, u, v)
        if re[0] or (im is not None and im[0]):
            return True
    return False


@dataclass
class Witness:
    kind: str                       # "TypeA" | "TypeB" | "so3"
    elements: list                  # coefficient vectors over the jet basis
    relations: str


@dataclass
class ClassificationResult:
    """The witnesses found and the presentation whose jet basis their
    coefficient vectors refer to."""

    branches: list[Witness]
    algebra: LieAlgebraPresentation
    diagnostics: list[str] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def kinds(self) -> list[str]:
        return [w.kind for w in self.branches]


def _unit(n: int, i: int) -> list[Scalar]:
    return [ONE if j == i else ZERO for j in range(n)]


def _search_candidates(n: int):
    """Deterministic candidate stream of primitive integer vectors, each
    given once with a positive leading entry: the basis elements, the
    two-slot combinations, then the full combinations, every coefficient in
    -2..2, cut at WITNESS_BUDGET."""
    coeffs = range(-2, 3)

    def placed(*slots):
        vec = [0] * n
        for k, c in slots:
            vec[k] = c
        return vec

    stream = chain((placed((i, 1)) for i in range(n)),
                   (placed((i, ci), (j, cj)) for i, j in combinations(range(n), 2)
                    for ci, cj in product(coeffs, repeat=2)),
                   product(coeffs, repeat=n))
    seen = set()
    for vec in stream:
        g = gcd(*vec)
        if g == 0:
            continue
        if next(v for v in vec if v) < 0:
            g = -g
        ints = tuple(v // g for v in vec)
        if ints not in seen:
            seen.add(ints)
            yield ints
            if len(seen) == WITNESS_BUDGET:
                return


def _type_a_at(L, ints, ad: GaussMat) -> Witness | None:
    """Commuting effective pairs among the integer candidate x and the
    kernel of ad(x), taken from ad = den * ad(x), which has the same kernel."""
    x = [Scalar.of(v) for v in ints]
    pool = [x] + _shifted_kernel(ad, 0)
    for u, v in combinations(pool, 2):
        # [x, v] = ad(x) v vanishes on the kernel; only kernel pairs can fail.
        if u is not x and not all(e.is_zero for e in L.bracket_coeffs(u, v)):
            continue
        if effective(L, [u, v]):
            return Witness("TypeA", [u, v], "[X,Y]=0")
    return None


def _type_b_at(L, ints, ad: GaussMat, diagnostics) -> Witness | None:
    """Spectra in Python integers: ad = den * ad(x) from the presentation's
    tables, its monic Z[i] characteristic polynomial, and the exact root
    test.  A rational eigenvalue lam has den * lam in Z, so its eigenvectors
    are the kernel of the integer matrix den * ad(x) - den * lam, and
    [x / lam, y] = y holds for each of them by construction."""
    den = L.den
    poly = linalg.int_charpoly(*ad)
    try:
        coeffs = linalg.float_coeffs(poly, den)
    except OverflowError:
        diagnostics.append(f"skipped candidate {list(ints)}: its charpoly overflows a float")
        return None
    x = None
    for z in np.roots(coeffs):
        if abs(z) < 1e-9 or abs(z.imag) > 1e-9:
            continue
        lam = _rationalize_root(z.real, poly, den)
        if lam is None or lam.is_zero:
            diagnostics.append(
                f"skipped non-rational candidate eigenvalue {z.real:.6g}")
            continue
        x = x or [Scalar.of(v) for v in ints]
        for y in _shifted_kernel(ad, int(lam.re * den)):
            x_scaled = [xi / lam for xi in x]
            if effective(L, [x_scaled, y]):
                return Witness("TypeB", [x_scaled, y], "[X,Y]=Y")
    return None


def _find_pairs(L, diagnostics) -> tuple[Witness | None, Witness | None]:
    """The first TypeA and the first TypeB witness along one pass over the
    integer candidates; each candidate's den * ad(x) is built once and
    each search stops at its own first witness."""
    wa = wb = None
    for ints in _search_candidates(L.dim):
        ad = L.int_ad((ints, None))
        if wa is None:
            wa = _type_a_at(L, ints, ad)
        if wb is None:
            wb = _type_b_at(L, ints, ad, diagnostics)
        if wa and wb:
            break
    return wa, wb


_CYCLE = ((0, 1, 2), (1, 2, 0), (2, 0, 1))      # [f_a, f_b] = k f_c


def _so3_frame(L) -> tuple[list[list[Scalar]], list[Scalar]] | None:
    """(f, ks) with [f_a, f_b] = k f_c along ``_CYCLE``, every k > 0: the
    rotation frame of a 3-dim algebra over Q(i), or None.

    One Gram-Schmidt of the basis against -B (B the Killing form) decides:
    the algebra is so(3) exactly when every pivot f^T (-B) f is a positive
    rational.  B is ad-invariant, so [f_a, f_b] is a multiple of f_c unless
    the constants break Jacobi; f1 and f2 swap unless [f1, f2] = k f3, k > 0.
    """
    if L.dim != 3:
        return None
    kf = L.killing_form()
    form = lambda u, v: -sum((u[i] * kf[i][j] * v[j] for i in range(3)
                              for j in range(3)), ZERO)
    positive = lambda x: x.is_real and x.re > 0
    f = []
    for i in range(3):
        v = _unit(3, i)
        for g in f:
            t = form(v, g) / form(g, g)
            v = [x - t * y for x, y in zip(v, g)]
        if not positive(form(v, v)):
            return None
        f.append(v)

    def multiple(a, b, c):
        got = L.bracket_coeffs(f[a], f[b])
        k = next(x / y for x, y in zip(got, f[c]) if not y.is_zero)
        return k if got == [k * y for y in f[c]] else ZERO

    if not positive(multiple(0, 1, 2)):
        f[0], f[1] = f[1], f[0]
    ks = [multiple(*t) for t in _CYCLE]
    return (f, ks) if all(map(positive, ks)) else None


def _find_so3(L) -> Witness | None:
    """``_so3_frame``'s triple and its relations, each tested exactly there."""
    found = _so3_frame(L)
    if found is None:
        return None
    f, ks = found
    relations = []
    for (a, b, c), k in zip(_CYCLE, ks):
        k = "" if k == ONE else str(k.re) if k.re.denominator == 1 else f"({k.re})"
        relations.append(f"[{'XYZ'[a]},{'XYZ'[b]}]={k}{'XYZ'[c]}")
    return Witness("so3", f, ", ".join(relations))


def classify(s: AffineSurface) -> ClassificationResult:
    """Search the Killing algebra for certified subalgebra witnesses.

    Branches are reported in the order TypeA, TypeB, so3 and are not
    exclusive.  Each witness' relations hold exactly in the presentation's
    tables, read off span-checked jet brackets (see the module docstring);
    no jet is bracketed again.  A so3 coefficient other than 1 is printed:
    [Y,Z]=2X.
    """
    L = structure_constants(s)
    if L.dim < 2:
        raise NotHomogeneousCandidate(
            f"Killing dimension {L.dim} < 2; not locally homogeneous")
    basis_coeffs = [_unit(L.dim, i) for i in range(L.dim)]
    if not effective(L, basis_coeffs):
        raise NotHomogeneousCandidate(
            "no pair of Killing fields spans the tangent plane at P")

    diagnostics: list[str] = []
    wa, wb = _find_pairs(L, diagnostics)
    branches = [w for w in (wa, wb, _find_so3(L)) if w]
    if not branches:
        raise ClassificationInconclusive(
            f"no witness found within budget {WITNESS_BUDGET}; diagnostics: {diagnostics}")
    return ClassificationResult(branches, L, diagnostics)
