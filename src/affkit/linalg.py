"""Exact linear algebra over the Gaussian rationals and integers.

Two matrix formats.  Row reduction works on lists of lists of Scalar,
directly over the field with exact division: one incremental reduced row
echelon form (``Echelon``) gives echelon forms, exact ranks, nullspace
bases and linear solves.  Spectra are fraction-free and work on the Z[i]
format: ``GaussMat``, a matrix B over the Gaussian integers Z[i] as (real,
imaginary) int matrices, and ``GaussVec``, a vector as (real, imaginary)
int lists.  This module owns that format: ``clear_denominators`` takes
Scalars into it and ``to_scalars``/``scalar_rows`` take them back, and
``gauss_bilinear`` is the one rule that extends a Z-bilinear map on int
lists or int matrices to Z[i] (``gauss_mul`` is it over the integer
product).  A matrix A = B/d has its characteristic polynomial computed
from B's by Faddeev-LeVerrier in Python integers (every division there is
exact), and a rational root of A's polynomial is tested as a root of B's,
which is monic over Z[i].  Products and row operations skip zero entries,
since the matrices met here (ad matrices, constraint rows) are mostly zero.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import lcm

from .scalars import ONE, ZERO, Scalar

Vec = list[Scalar]
Mat = list[list[Scalar]]
IntMat = list[list[int]]
# A matrix over Z[i] as (real parts, imaginary parts), by rows, and a vector
# over Z[i] likewise; the imaginary parts are None when all of them are 0.
GaussMat = tuple[IntMat, IntMat | None]
GaussVec = tuple[list[int], list[int] | None]
# A polynomial over Z[i] as (real parts, imaginary parts) of [c_0, ..., c_n].
IntPoly = tuple[list[int], list[int]]


class Echelon:
    """Reduced row echelon form of a growing row set, kept up to date row by
    row: the one Gaussian elimination behind ``rank``, ``nullspace`` and
    ``solve``.

    ``rows`` are sorted by their pivot columns ``pivots``; each row is 1 at
    its pivot and every other row is 0 there.  The form is unique, so it
    does not depend on the order in which rows arrive.
    """

    def __init__(self, n_cols: int):
        self.n_cols = n_cols
        self.rows: Mat = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: Vec) -> None:
        """Reduce ``row`` into the form; a row in the span changes nothing."""
        for basis_row, piv in zip(self.rows, self.pivots):
            if not row[piv].is_zero:
                row = _eliminate(row, row[piv], basis_row)
        piv = next((c for c, x in enumerate(row) if not x.is_zero), None)
        if piv is None:
            return
        inv = ONE / row[piv]
        row = [x if x.is_zero else x * inv for x in row]
        self.rows = [r if r[piv].is_zero else _eliminate(r, r[piv], row) for r in self.rows]
        at = bisect(self.pivots, piv)
        self.rows.insert(at, row)
        self.pivots.insert(at, piv)

    def nullspace(self) -> list[Vec]:
        """Canonical basis of the right nullspace, one vector per free column."""
        basis = []
        for f in range(self.n_cols):
            if f in self.pivots:
                continue
            v = [ZERO] * self.n_cols
            v[f] = ONE
            for row, p in zip(self.rows, self.pivots):
                v[p] = -row[f]
            basis.append(v)
        return basis


def _eliminate(row: Vec, f: Scalar, pivot_row: Vec) -> Vec:
    """``row - f * pivot_row``, skipping the zeros of the pivot row."""
    return [x if y.is_zero else x - f * y for x, y in zip(row, pivot_row)]


def _reduced(rows: Mat, n_cols: int) -> Echelon:
    form = Echelon(n_cols)
    for row in rows:
        form.add(row)
    return form


def rank(rows: Mat) -> int:
    return _reduced(rows, len(rows[0]) if rows else 0).rank


def nullspace(rows: Mat, n_cols: int | None = None) -> list[Vec]:
    """Canonical basis of the right nullspace.

    ``n_cols`` must be given when ``rows`` may be empty.
    """
    if not rows and n_cols is None:
        raise ValueError("empty row set needs an explicit column count")
    return _reduced(rows, len(rows[0]) if rows else n_cols).nullspace()


def solve(a: Mat, b: Vec) -> Vec | None:
    """One exact solution of ``a x = b``, or None if inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    n_cols = len(a[0]) if a else 0
    form = _reduced([row + [y] for row, y in zip(a, b)], n_cols + 1)
    if n_cols in form.pivots:
        return None
    x = [ZERO] * n_cols
    for row, p in zip(form.rows, form.pivots):
        x[p] = row[n_cols]
    return x


def gauss_row(m: GaussMat, r: int) -> GaussVec:
    re, im = m
    return re[r], None if im is None else im[r]


def gauss_column(m: GaussMat, k: int) -> GaussVec:
    re, im = m
    return [row[k] for row in re], None if im is None else [row[k] for row in im]


def clear_denominators(a: Mat) -> tuple[int, GaussMat]:
    """(d, b) with a = b / d over Z[i] and d the least common denominator;
    b is real when every entry of ``a`` is."""
    d = lcm(1, *(x.re.denominator for row in a for x in row),
            *(x.im.denominator for row in a for x in row))
    re = [[x.re.numerator * (d // x.re.denominator) for x in row] for row in a]
    if all(x.is_real for row in a for x in row):
        return d, (re, None)
    return d, (re, [[x.im.numerator * (d // x.im.denominator) for x in row] for row in a])


_F0 = Fraction(0)


def to_scalars(g: GaussVec, d: int) -> Vec:
    """The Scalars g / d."""
    re, im = g
    if im is None:
        return [Scalar(Fraction(x, d), _F0) for x in re]
    return [Scalar(Fraction(x, d), Fraction(y, d)) for x, y in zip(re, im)]


def scalar_rows(m: GaussMat) -> Mat:
    """An int matrix over Z[i] as a matrix of (integer) Scalars."""
    return [to_scalars(gauss_row(m, r), 1) for r in range(len(m[0]))]


def _plus(a, b, sign: int = 1):
    """``a + sign * b`` entrywise, for int lists or int matrices."""
    if a and isinstance(a[0], list):
        return [_plus(x, y, sign) for x, y in zip(a, b)]
    return [x + sign * y for x, y in zip(a, b)]


def gauss_bilinear(f, a, b):
    """The Z-bilinear map f on int lists or int matrices, extended to Z[i]
    on (re, im) pairs: f(ar + i ai, br + i bi) = f(ar, br) - f(ai, bi) +
    i (f(ar, bi) + f(ai, br)), real when a and b are."""
    (ar, ai), (br, bi) = a, b
    re = f(ar, br)
    if ai is None and bi is None:
        return re, None
    if ai is None:
        return re, f(ar, bi)
    if bi is None:
        return re, f(ai, br)
    return _plus(re, f(ai, bi), -1), _plus(f(ar, bi), f(ai, br))


def int_mat_vec(m: IntMat, v: list[int]) -> list[int]:
    """Integer product ``m @ v``; zero entries of ``m`` are skipped."""
    return [sum(x * y for x, y in zip(row, v) if x) for row in m]


def _int_mul(a: IntMat, m: IntMat) -> IntMat:
    """Integer product ``a @ m``; zero entries of ``a`` are skipped."""
    out = []
    for row in a:
        acc = [0] * len(m[0])
        for t, x in enumerate(row):
            if x:
                for j, y in enumerate(m[t]):
                    acc[j] += x * y
        out.append(acc)
    return out


def gauss_mul(a: GaussMat, b: GaussMat) -> GaussMat:
    """The product ``a @ b`` over Z[i]; real when both factors are."""
    return gauss_bilinear(_int_mul, a, b)


def gauss_shift(m: GaussMat, sr: int, si: int) -> GaussMat:
    """``m - s*I`` over Z[i] for s = sr + i*si; a real m takes a real s."""
    re, im = m
    shift = lambda part, v: [[x - v if i == j else x for j, x in enumerate(row)]
                             for i, row in enumerate(part)]
    return shift(re, sr), None if im is None else shift(im, si)


def int_charpoly(re: IntMat, im: IntMat | None = None) -> IntPoly:
    """Coefficients of det(t*I - B) for B = re + i*im over Z[i], monic.

    Faddeev-LeVerrier: M_1 = B, c_{n-k} = -tr(M_k)/k, M_{k+1} =
    B (M_k + c_{n-k} I).  For B over Z[i] every c_{n-k} lies in Z[i], so the
    divisions by k are exact.  With ``im`` None the recursion stays real.
    A matrix A = B/d over the Gaussian rationals has c_k(A) = c_k(B) / d^(n-k).
    """
    n = len(re)
    cr, ci = [0] * (n + 1), [0] * (n + 1)
    cr[n] = 1
    m = re, im
    for k in range(1, n + 1):
        cr[n - k] = -sum(m[0][i][i] for i in range(n)) // k
        if m[1] is not None:
            ci[n - k] = -sum(m[1][i][i] for i in range(n)) // k
        if k < n:
            m = gauss_mul((re, im), gauss_shift(m, -cr[n - k], -ci[n - k]))
    return cr, ci


def is_root(poly: IntPoly, d: int, r: Scalar) -> bool:
    """Whether r is an exact root of P_A, given ``poly`` = P_B for A = B/d.

    r is a root of P_A exactly when d*r is a root of P_B, which is monic
    over Z[i]; a root of such a polynomial in Q(i) lies in Z[i], so any r
    with d*r outside Z[i] is rejected without evaluation.  P_B(d*r) is
    evaluated by Horner's rule in Python integers.
    """
    sr, si = r.re * d, r.im * d
    if sr.denominator != 1 or si.denominator != 1:
        return False
    sr, si = sr.numerator, si.numerator
    ar = ai = 0
    for cr, ci in zip(reversed(poly[0]), reversed(poly[1])):
        ar, ai = ar * sr - ai * si + cr, ar * si + ai * sr + ci
    return not ar and not ai


def float_coeffs(poly: IntPoly, d: int) -> list[complex]:
    """P_A's coefficients as complex floats, highest degree first (np.roots).

    Int true division rounds correctly, so each value equals
    ``complex(Scalar)`` of the exact coefficient c_k(B) / d^(n-k).
    """
    n = len(poly[0]) - 1
    return [complex(poly[0][k] / d ** (n - k), poly[1][k] / d ** (n - k))
            for k in range(n, -1, -1)]

