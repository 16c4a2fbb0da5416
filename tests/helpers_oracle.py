"""Independent oracles used only by the test suite.

Cross-check paths that deliberately avoid the package's own kernel:

* a sympy pipeline recomputing torsion/curvature/Ricci/covariant-derivative
  from the same index formulas, used to confirm symbolic tensor output at
  random rational points;

* a truncated power-series solver for the affine Killing equations that
  estimates the Killing-algebra dimension by float SVD, used to cross-check
  the exact jet solver;

* column-major Gauss-Jordan elimination, the reference for the package's
  incremental reduced row echelon form;

* the field (Scalar) Faddeev-LeVerrier recursion, the reference for the
  package's fraction-free integer characteristic polynomials;

* the field (Scalar) ad matrix and matrix product, the reference for the
  package's integer ad tables and Killing form;

* the eigenspace grading [E(a), E(b)] inside E(a+b) through explicit
  generalized eigenspaces (exact where the roots are Gaussian rationals and
  numeric elsewhere), the reference for acceptance criterion 6 and for the
  theorem behind verify-paper's grading item (Jacobi implies the grading);

* the field (Scalar) jet bracket, the reference for the package's
  integer bracket kernel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np
import sympy as sp

from affkit import linalg
from affkit.scalars import ONE, ZERO, Scalar

X1, X2 = sp.symbols("x1 x2")


def to_sympy(text: str) -> sp.Expr:
    """Translate kernel expression text to a sympy expression.

    The printer writes exp((a+b*i)*x2) as ``exp(a+b*i*x2)``, so the
    coefficient of each exp argument is parenthesised first.
    """
    text = re.sub(r"exp\(([^()]*)\*x2\)", r"exp((\1)*x2)", text)
    return sp.sympify(text.replace("^", "**"),
                      locals={"x1": X1, "x2": X2, "i": sp.I, "sec": sp.sec})


def gamma_sympy(surface) -> dict:
    return {key: to_sympy(str(e)) for key, e in surface.gamma.items()}


def sym_curvature(g: dict) -> dict:
    """R_ijk^l by direct index expansion (independent implementation)."""
    x = {1: X1, 2: X2}
    out = {}
    for i, j, k, l in product((1, 2), repeat=4):
        expr = sp.diff(g[f"{j}{k}{l}"], x[i]) - sp.diff(g[f"{i}{k}{l}"], x[j])
        for m in (1, 2):
            expr += g[f"{i}{m}{l}"] * g[f"{j}{k}{m}"] - g[f"{j}{m}{l}"] * g[f"{i}{k}{m}"]
        out[(i, j, k, l)] = sp.simplify(expr)
    return out


def sym_ricci(g: dict) -> dict:
    r = sym_curvature(g)
    return {(j, k): sp.simplify(r[(1, j, k, 1)] + r[(2, j, k, 2)])
            for j, k in product((1, 2), repeat=2)}


def sym_nabla_ricci(g: dict) -> dict:
    x = {1: X1, 2: X2}
    rho = sym_ricci(g)
    out = {}
    for i, j, k in product((1, 2), repeat=3):
        expr = sp.diff(rho[(j, k)], x[i])
        for m in (1, 2):
            expr -= g[f"{i}{j}{m}"] * rho[(m, k)] + g[f"{i}{k}{m}"] * rho[(j, m)]
        out[(i, j, k)] = sp.simplify(expr)
    return out


def sym_killing_residuals(g: dict, a1: sp.Expr, a2: sp.Expr) -> dict:
    """The eight affine Killing residuals for the field a1 d1 + a2 d2,
    unsimplified (compare them at points)."""
    x = {1: X1, 2: X2}
    a = {1: a1, 2: a2}
    out = {}
    for i, j, k in product((1, 2), repeat=3):
        expr = sp.diff(a[k], x[i], x[j])
        for l in (1, 2):
            expr += (a[l] * sp.diff(g[f"{i}{j}{k}"], x[l])
                     - g[f"{i}{j}{l}"] * sp.diff(a[k], x[l])
                     + g[f"{i}{l}{k}"] * sp.diff(a[l], x[j])
                     + g[f"{l}{j}{k}"] * sp.diff(a[l], x[i]))
        out[(i, j, k)] = expr
    return out


# ---------------------------------------------------------------------------
# row reduction, column by column
# ---------------------------------------------------------------------------

def rref_reference(rows: list) -> tuple[list, list]:
    """Reduced row echelon form by column-major Gauss-Jordan elimination
    (zero rows kept at the bottom) and the pivot columns."""
    m = [row[:] for row in rows]
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list = []
    r = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if not m[i][col].is_zero), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and not m[i][col].is_zero:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return m, pivots


# ---------------------------------------------------------------------------
# characteristic polynomials over the field
# ---------------------------------------------------------------------------

def charpoly_reference(a: list) -> list:
    """[c_0, ..., c_n] of det(t*I - A) by Faddeev-LeVerrier over the field:
    M_1 = A, c_{n-k} = -tr(M_k)/k, M_{k+1} = A (M_k + c_{n-k} I)."""
    n = len(a)
    coeffs = [ZERO] * n + [ONE]
    m = [row[:] for row in a]
    for k in range(1, n + 1):
        ck = -(sum((m[i][i] for i in range(n)), ZERO) / Fraction(k))
        coeffs[n - k] = ck
        if k == n:
            break
        for i in range(n):
            m[i][i] = m[i][i] + ck
        m = mat_mul_reference(a, m)
    return coeffs


def mat_mul_reference(a: list, b: list) -> list:
    """The product a @ b of Scalar matrices, entry by entry."""
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


# ---------------------------------------------------------------------------
# ad matrices over the field
# ---------------------------------------------------------------------------

def ad_reference(c, xi: list) -> list:
    """Matrix of ad(xi) for the structure constants c ([e_i, e_j] =
    sum_k c[i][j][k] e_k), in Scalars: column j holds [xi, e_j]."""
    n = len(xi)
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        if xi[i].is_zero:
            continue
        for j in range(n):
            for k, cijk in enumerate(c[i][j]):
                if not cijk.is_zero:
                    out[k][j] = out[k][j] + xi[i] * cijk
    return out


# ---------------------------------------------------------------------------
# eigenspace grading through explicit eigenspaces
# ---------------------------------------------------------------------------
# The reference for acceptance criterion 6 and for the theorem that
# verify-paper's eigenspace-grading item rests on: exact Gaussian-rational
# roots get exact kernels of (ad - alpha)^n, every other root an
# np.roots/SVD eigenspace, and brackets of basis vectors are tested against
# the target eigenspace (exact span or least-squares residual).

GRADING_TOL = 1e-8


@dataclass
class Eigenspace:
    alpha: Scalar | complex
    exact: bool
    basis: list          # list of exact Vecs, or float ndarrays
    certificate: float = 0.0


def _in_span(basis, v) -> bool:
    if not basis:
        return all(x.is_zero for x in v)
    cols = [[basis[k][i] for k in range(len(basis))] for i in range(len(v))]
    return linalg.solve(cols, v) is not None


def _int_horner(poly, sr: int, si: int):
    """Synthetic division of ``poly`` by (t - s), s = sr + i*si in Z[i].

    Returns the value at s and the quotient's coefficients, lowest first.
    """
    qr, qi = [], []
    ar = ai = 0
    for cr, ci in zip(reversed(poly[0]), reversed(poly[1])):
        ar, ai = ar * sr - ai * si + cr, ar * si + ai * sr + ci
        qr.append(ar)
        qi.append(ai)
    qr.pop()
    qi.pop()
    return ar, ai, qr[::-1], qi[::-1]


def _shifted_kernel(m, s: tuple[int, int], power: int) -> list:
    """Kernel of (m - s*I)^power for m and s over Z[i]."""
    if m[1] is None and s[1]:   # a real m shifted by a non-real s
        m = (m[0], [[0] * len(row) for row in m[0]])
    shifted = linalg.gauss_shift(m, *s)
    return linalg.nullspace(linalg.scalar_rows(reduce(linalg.gauss_mul, [shifted] * power)),
                            n_cols=len(m[0]))


def _eigenvalues(L, xi: list):
    """(exact roots with multiplicity, leftover numeric roots, (D, M)) for
    ad(xi) = M / D with M over Z[i].  Each np.roots proposal z is rounded to
    the nearest s / D with s in Z[i]; when P_M(s) = 0 by integer Horner, s / D
    is an exact root and P_M is deflated by (t - s)."""
    d, m = linalg.clear_denominators([xi])
    x = linalg.gauss_row(m, 0)
    den, ad = d * L.den, L.int_ad(x)
    poly = linalg.int_charpoly(*ad)
    n = len(poly[0]) - 1
    numeric = np.roots([complex(poly[0][k] / den ** (n - k), poly[1][k] / den ** (n - k))
                        for k in range(n, -1, -1)])
    exact: list[Scalar] = []
    for z in numeric:
        sr, si = round(den * z.real), round(den * z.imag)
        if abs(complex(sr / den, si / den) - z) >= 1e-6:
            continue
        vr, vi, qr, qi = _int_horner(poly, sr, si)
        if not vr and not vi:
            exact.append(Scalar.of(Fraction(sr, den), Fraction(si, den)))
            poly = qr, qi
    leftover = [complex(z) for z in numeric
                if not any(abs(complex(r) - z) < 1e-7 for r in exact)]
    return exact, leftover, (den, ad)


def _generalized_eigenspaces(L, xi: list) -> list[Eigenspace]:
    exact_roots, leftover, (den, ad) = _eigenvalues(L, xi)
    n = L.dim
    spaces: list[Eigenspace] = []
    seen: list[Scalar] = []
    for root in exact_roots:
        if any((root - r).is_zero for r in seen):
            continue
        seen.append(root)
        s = root * den
        basis = _shifted_kernel(ad, (s.re.numerator, s.im.numerator), n)
        spaces.append(Eigenspace(root, True, basis))
    done = [complex(r) for r in seen]
    for z in leftover:
        if any(abs(z - d) < 1e-8 for d in done):
            continue
        done.append(z)
        re, im = ad[0], ad[1] or [[0] * n for _ in range(n)]
        adf = np.array([[complex(x / den, y / den) for x, y in zip(rr, ri)]
                        for rr, ri in zip(re, im)])
        shifted = adf - z * np.eye(n)
        power = np.linalg.matrix_power(shifted, n)
        _, sv, vt = np.linalg.svd(power)
        tol = 1e-9 * max(1.0, sv[0] if len(sv) else 1.0)
        kernel = vt[int(np.sum(sv >= tol)):].conj()
        cert = float(max((np.linalg.norm(power @ v) for v in kernel), default=0.0))
        spaces.append(Eigenspace(z, False, [v for v in kernel], cert))
    return spaces


def grading_reference(L, xi: list) -> bool:
    """Whether [E(alpha), E(beta)] lies inside E(alpha + beta)."""
    spaces = _generalized_eigenspaces(L, xi)
    ok = True
    n = L.dim
    for ea, eb in product(spaces, repeat=2):
        if ea.exact and eb.exact:
            target_alpha = ea.alpha + eb.alpha
            target = next((sp for sp in spaces
                           if sp.exact and (sp.alpha - target_alpha).is_zero), None)
            for u in ea.basis:
                for v in eb.basis:
                    w = L.bracket_coeffs(u, v)
                    if not (_in_span(target.basis, w) if target is not None
                            else all(x.is_zero for x in w)):
                        ok = False
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
                    if resid > GRADING_TOL * max(1.0, float(np.linalg.norm(w))):
                        ok = False
    return ok


# ---------------------------------------------------------------------------
# jet brackets over the field
# ---------------------------------------------------------------------------

def bracket_reference(system, point, x: list, y: list) -> list:
    """Jet vector of [X, Y] from the jet vectors x, y of two Killing fields,
    in Scalars: [X, Y]^k = X^l d_l Y^k - Y^l d_l X^k and its first
    derivatives.  dd_ml a^k = dd_lm a^k is read as row b^k_j of M_i(P) . v
    with i <= j, so d_2 d_1 comes from M1, not from M2 as in ``liealg``."""
    rows = {(m, l, k): [e.eval_exact(point) for e in
                        (system.m1, system.m2)[min(m, l) - 1][2 * k + max(m, l) - 1]]
            for m, l, k in product((1, 2), repeat=3)}
    ddx, ddy = ({key: sum((r * a for r, a in zip(row, v)), ZERO)
                 for key, row in rows.items()} for v in (x, y))
    b = lambda v, k, i: v[2 * k + i - 1]     # d_i a^k in the jet layout
    out = [ZERO] * 6
    for k, l in product((1, 2), repeat=2):
        out[k - 1] = out[k - 1] + x[l - 1] * b(y, k, l) - y[l - 1] * b(x, k, l)
        for m in (1, 2):
            out[2 * k + m - 1] = (out[2 * k + m - 1]
                                  + b(x, l, m) * b(y, k, l) + x[l - 1] * ddy[(m, l, k)]
                                  - b(y, l, m) * b(x, k, l) - y[l - 1] * ddx[(m, l, k)])
    return out


# ---------------------------------------------------------------------------
# numeric Killing-dimension oracle (truncated power series + SVD)
# ---------------------------------------------------------------------------

def _poly_mul(a: np.ndarray, b: np.ndarray, deg: int) -> np.ndarray:
    """Product of 2d Taylor coefficient arrays, truncated to total degree."""
    n = deg + 1
    out = np.zeros((n, n))
    for (i, j), va in np.ndenumerate(a):
        if va == 0.0:
            continue
        imax = n - i
        jmax = n - j
        out[i:i + imax, j:j + jmax] += va * b[:imax, :jmax]
    return out


def _poly_dx(a: np.ndarray, axis: int) -> np.ndarray:
    out = np.zeros_like(a)
    n = a.shape[0]
    if axis == 0:
        for i in range(1, n):
            out[i - 1, :] = i * a[i, :]
    else:
        for j in range(1, n):
            out[:, j - 1] = j * a[:, j]
    return out


def gamma_taylor(surface, deg: int) -> dict:
    """Taylor coefficients of each symbol around the basepoint (via sympy)."""
    at = {X1: sp.Rational(surface.basepoint[0]), X2: sp.Rational(surface.basepoint[1])}
    out = {}
    for key, e in surface.gamma.items():
        f = to_sympy(str(e))
        coeffs = np.zeros((deg + 1, deg + 1))
        for i in range(deg + 1):
            gi = sp.diff(f, X1, i)
            for j in range(deg + 1 - i):
                val = sp.diff(gi, X2, j).subs(at)
                coeffs[i, j] = float(val / (sp.factorial(i) * sp.factorial(j)))
        out[key] = coeffs
    return out


def taylor_killing_dim(surface, deg: int = 6, tol: float = 1e-8) -> int:
    """Killing dimension estimate from the degree-``deg`` truncated system.

    Unknowns are the Taylor coefficients of the two field components up to
    total degree ``deg``; the residual equations are imposed through total
    degree ``deg - 2``; the answer is the rank of the jet-coordinate
    projection of the float nullspace.
    """
    n = deg + 1
    monomials = [(i, j) for i in range(n) for j in range(n - i) if i + j <= deg]
    n_unknown = 2 * len(monomials)
    g = gamma_taylor(surface, deg)
    dg = {key: (_poly_dx(arr, 0), _poly_dx(arr, 1)) for key, arr in g.items()}

    rows = []
    res_deg = deg - 2
    for comp in range(2):
        for u, (mi, mj) in enumerate(monomials):
            basis = np.zeros((n, n))
            basis[mi, mj] = 1.0
            a = [np.zeros((n, n)), np.zeros((n, n))]
            a[comp] = basis
            da = [(_poly_dx(ac, 0), _poly_dx(ac, 1)) for ac in a]
            for i, j, k in product((1, 2), repeat=3):
                key = f"{i}{j}{k}"
                res = _poly_dx(_poly_dx(a[k - 1], i - 1), j - 1)
                for l in (1, 2):
                    res = res + _poly_mul(a[l - 1], dg[key][l - 1], deg)
                    res = res - _poly_mul(g[f"{i}{j}{l}"], da[k - 1][l - 1], deg)
                    res = res + _poly_mul(g[f"{i}{l}{k}"], da[l - 1][j - 1], deg)
                    res = res + _poly_mul(g[f"{l}{j}{k}"], da[l - 1][i - 1], deg)
                rows.append((comp, u, i, j, k, res))

    eq_index = [(i, j, k, di, dj) for i, j, k in product((1, 2), repeat=3)
                for di in range(res_deg + 1) for dj in range(res_deg + 1 - di)]
    mat = np.zeros((len(eq_index), n_unknown))
    lookup = {(i, j, k): idx for idx, (i, j, k) in
              enumerate(product((1, 2), repeat=3))}
    for comp, u, i, j, k, res in rows:
        col = comp * len(monomials) + u
        base = lookup[(i, j, k)]
        for row_idx, (ei, ej, ek, di, dj) in enumerate(eq_index):
            if lookup[(ei, ej, ek)] == base:
                mat[row_idx, col] = res[di, dj]

    _, sv, vt = np.linalg.svd(mat)
    cutoff = tol * max(1.0, sv[0] if len(sv) else 1.0)
    mat_rank = int(np.sum(sv >= cutoff))
    kernel = vt[mat_rank:]
    if kernel.shape[0] == 0:
        return 0
    # Project kernel vectors onto the six 1-jet coordinates.
    jet_cols = []
    for comp in range(2):
        for mono in ((0, 0), (1, 0), (0, 1)):
            jet_cols.append(comp * len(monomials) + monomials.index(mono))
    proj = kernel[:, jet_cols]
    psv = np.linalg.svd(proj, compute_uv=False)
    return int(np.sum(psv > 1e-6 * max(1.0, psv[0])))
