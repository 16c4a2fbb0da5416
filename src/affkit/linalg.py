"""Exact linear algebra over Gaussian rationals.

Small dense matrices as lists of lists of Scalar.  Everything here is
fraction-free in spirit but implemented directly over the field: row
echelon with exact division, nullspace bases in reduced form, exact rank,
linear solves, and the characteristic polynomial by Faddeev-LeVerrier.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ONE, ZERO, Scalar

Vec = list[Scalar]
Mat = list[list[Scalar]]


def zeros(n: int, m: int) -> Mat:
    return [[ZERO] * m for _ in range(n)]


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        for j in range(m):
            acc = ZERO
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            out[i][j] = acc
    return out


def mat_vec(a: Mat, v: Vec) -> Vec:
    return [sum((a[i][j] * v[j] for j in range(len(v))), ZERO) for i in range(len(a))]


def trace(a: Mat) -> Scalar:
    return sum((a[i][i] for i in range(len(a))), ZERO)


def rref(rows: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot column list (exact)."""
    m = [row[:] for row in rows]
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
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


def rank(rows: Mat) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Mat, n_cols: int | None = None) -> list[Vec]:
    """Canonical basis of the right nullspace.

    ``n_cols`` must be given when ``rows`` may be empty.
    """
    if not rows:
        if n_cols is None:
            raise ValueError("empty row set needs an explicit column count")
        return [[ONE if i == j else ZERO for j in range(n_cols)] for i in range(n_cols)]
    red, pivots = rref(rows)
    n_cols = len(rows[0])
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * n_cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def solve(a: Mat, b: Vec) -> Vec | None:
    """One exact solution of ``a x = b``, or None if inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    aug = [a[i][:] + [b[i]] for i in range(n_rows)]
    red, pivots = rref(aug)
    if n_cols in pivots:
        return None
    x = [ZERO] * n_cols
    for r, p in enumerate(pivots):
        x[p] = red[r][n_cols]
    return x


def in_span(basis: list[Vec], v: Vec) -> bool:
    if not basis:
        return all(x.is_zero for x in v)
    cols = [[basis[k][i] for k in range(len(basis))] for i in range(len(v))]
    return solve(cols, v) is not None


def charpoly(a: Mat) -> list[Scalar]:
    """Coefficients [c_0, ..., c_n] of det(t*I - A), monic (c_n = 1).

    Faddeev-LeVerrier recursion; exact over the Gaussian rationals.
    """
    n = len(a)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    m = identity(n)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        ck = -(trace(m) / Fraction(k))
        coeffs[n - k] = ck
        for i in range(n):
            m[i][i] = m[i][i] + ck
    return coeffs


def poly_eval(coeffs: list[Scalar], x: Scalar) -> Scalar:
    acc = ZERO
    for ck in reversed(coeffs):
        acc = acc * x + ck
    return acc


def poly_deflate(coeffs: list[Scalar], root: Scalar) -> list[Scalar]:
    """Divide by (t - root); the root must be exact."""
    out: list[Scalar] = []
    acc = ZERO
    for ck in reversed(coeffs):
        acc = acc * root + ck
        out.append(acc)
    rem = out.pop()
    if not rem.is_zero:
        raise ValueError("not an exact root")
    out.reverse()
    return out


def mat_pow(a: Mat, n: int) -> Mat:
    out = identity(len(a))
    for _ in range(n):
        out = mat_mul(out, a)
    return out
