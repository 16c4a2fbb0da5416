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

* the field (Scalar) Faddeev-LeVerrier recursion and Horner evaluation,
  the reference for the package's fraction-free integer spectra;

* the field (Scalar) ad matrix and matrix product, the reference for the
  package's integer ad tables, eigenspaces and Killing form;

* the field (Scalar) jet bracket, the reference for the package's
  integer bracket kernel.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product

import numpy as np
import sympy as sp

from affkit.scalars import ONE, ZERO

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


def poly_eval_reference(coeffs: list, x):
    """Horner evaluation of [c_0, ..., c_n] at the Scalar x."""
    acc = ZERO
    for ck in reversed(coeffs):
        acc = acc * x + ck
    return acc


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
# jet brackets over the field
# ---------------------------------------------------------------------------

def bracket_reference(system, x: list, y: list) -> list:
    """Jet vector of [X, Y] from the jet vectors x, y of two Killing fields,
    in Scalars: [X, Y]^k = X^l d_l Y^k - Y^l d_l X^k and its first
    derivatives, with dd_ij a^k = ``system.second[(i, j, k)]`` . v."""
    ddx, ddy = ({key: sum((r * a for r, a in zip(row, v)), ZERO)
                 for key, row in system.second.items()} for v in (x, y))
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
