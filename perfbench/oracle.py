"""Independent checks of affkit answers, written without affkit's kernel.

* Gaussian rationals as (re, im) Fraction pairs, with a canonical rref so
  that two bases of the same jet space compare equal.
* A second-order bivariate Taylor-jet evaluator for expression strings, used
  to recompute torsion, curvature, Ricci and covariant-derivative values at a
  test point and compare them with the printed tensors.
* Exact tensors and Killing-jet brackets for the two constant families
  (Type A: constant symbols; A/x1: symbols A/x1 at the basepoint (1, 0)),
  and the Lie-algebra check of a Killing jet space built on them: closure
  under the bracket and a zero Jacobi residual.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from itertools import product

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
KEYS = ("111", "112", "121", "122", "211", "212", "221", "222")


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

def gq(re_part, im_part=0):
    return (Fraction(re_part), Fraction(im_part))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def mul(a, b):
    if not a[1] and not b[1]:
        return (a[0] * b[0], a[1])
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def div(a, b):
    n2 = b[0] * b[0] + b[1] * b[1]
    num = mul(a, (b[0], -b[1]))
    return (num[0] / n2, num[1] / n2)


def is_zero(a) -> bool:
    return not a[0] and not a[1]


def parse_scalar(text: str):
    """Inverse of the printed Scalar forms 'p/q', 'b*i', 'a+b*i', 'a-b*i'."""
    text = text.strip()
    if not text.endswith("*i"):
        return (Fraction(text), Fraction(0))
    body = text[:-2]
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut > 0:
        return (Fraction(body[:cut]), Fraction(body[cut:]))
    return (Fraction(0), Fraction(body))


def fmt(a) -> str:
    return f"{a[0]}" if not a[1] else f"{a[0]}{'+' if a[1] >= 0 else ''}{a[1]}*i"


def canonical_rref(rows):
    """Reduced row echelon form of the row span (nonzero rows only)."""
    m = [list(r) for r in rows]
    n_cols = len(m[0]) if m else 0
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, len(m)) if not is_zero(m[i][col])), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = div(ONE, m[r][col])
        m[r] = [mul(x, inv) for x in m[r]]
        for i in range(len(m)):
            if i != r and not is_zero(m[i][col]):
                f = m[i][col]
                m[i] = [sub(x, mul(f, y)) for x, y in zip(m[i], m[r])]
        r += 1
    return m[:r]


def rank(rows) -> int:
    return len(canonical_rref(rows)) if rows else 0


def in_span(rows, vec) -> bool:
    return rank(list(rows) + [vec]) == rank(rows)


def coordinates(rows, vec):
    """Coefficients c with sum_i c[i] * rows[i] == vec, or None when vec is
    not in the span; ``rows`` must be independent."""
    n = len(rows)
    system = [[rows[i][r] for i in range(n)] + [vec[r]] for r in range(len(vec))]
    reduced = canonical_rref(system)
    if len(reduced) != n:      # a pivot in the last column: vec is outside the span
        return None
    return [row[n] for row in reduced]


# ---------------------------------------------------------------------------
# exact data of the constant families
# ---------------------------------------------------------------------------

def family_gamma(family: str, constants: dict):
    """Symbols and their x1/x2 derivatives at the basepoint, exactly."""
    g = {k: constants.get(k, ZERO) for k in KEYS}
    if family == "A":
        dg = {k: (ZERO, ZERO) for k in KEYS}
    elif family == "B":   # A/x1 at x1 = 1: value A, d1 = -A, d2 = 0
        dg = {k: (sub(ZERO, g[k]), ZERO) for k in KEYS}
    else:
        raise ValueError(family)
    return g, dg


def exact_torsion_zero(family: str, constants: dict) -> bool:
    g, _ = family_gamma(family, constants)
    return all(is_zero(sub(g[f"{i}{j}{k}"], g[f"{j}{i}{k}"]))
               for i, j, k in product((1, 2), repeat=3))


def exact_flat(family: str, constants: dict) -> bool:
    """True iff the curvature vanishes identically (x1^2 * R is constant on
    both families, so its value at the basepoint x1 = 1 decides)."""
    g, dg = family_gamma(family, constants)
    G = lambda i, j, k: g[f"{i}{j}{k}"]
    for i, j, k, l in product((1, 2), repeat=4):
        e = sub(dg[f"{j}{k}{l}"][i - 1], dg[f"{i}{k}{l}"][j - 1])
        for m in (1, 2):
            e = add(e, sub(mul(G(i, m, l), G(j, k, m)), mul(G(j, m, l), G(i, k, m))))
        if not is_zero(e):
            return False
    return True


def _second_derivs(g, dg, jet, ops):
    """dd[(i, j, k)] = d_i d_j a^k at the basepoint from K_ij^k = 0."""
    a = {1: jet[0], 2: jet[1]}
    b = {(k, i): jet[2 + 2 * (k - 1) + (i - 1)] for k in (1, 2) for i in (1, 2)}
    G = lambda i, j, k: g[f"{i}{j}{k}"]
    dd = {}
    for i, j, k in product((1, 2), repeat=3):
        acc = ops.zero
        for l in (1, 2):
            acc = ops.add(acc, ops.mul(a[l], dg[f"{i}{j}{k}"][l - 1]))
            acc = ops.sub(acc, ops.mul(G(i, j, l), b[(k, l)]))
            acc = ops.add(acc, ops.mul(G(i, l, k), b[(l, j)]))
            acc = ops.add(acc, ops.mul(G(l, j, k), b[(l, i)]))
        dd[(i, j, k)] = ops.sub(ops.zero, acc)
    return dd


class _Exact:
    zero = ZERO
    add, sub, mul = staticmethod(add), staticmethod(sub), staticmethod(mul)


class _Float:
    zero = 0j
    add = staticmethod(lambda a, b: a + b)
    sub = staticmethod(lambda a, b: a - b)
    mul = staticmethod(lambda a, b: a * b)


def bracket_jet(family: str, constants: dict, jx, jy, exact: bool = True):
    """1-jet of [X, Y] from the 1-jets of two Killing fields."""
    ops = _Exact if exact else _Float
    g, dg = family_gamma(family, constants)
    if not exact:
        g = {k: complex(float(v[0]), float(v[1])) for k, v in g.items()}
        dg = {k: tuple(complex(float(x[0]), float(x[1])) for x in v) for k, v in dg.items()}
    return _bracket(jx, jy, _second_derivs(g, dg, jx, ops), _second_derivs(g, dg, jy, ops), ops)


def _bracket(jx, jy, ddx, ddy, ops):
    ax, ay = {1: jx[0], 2: jx[1]}, {1: jy[0], 2: jy[1]}
    bx = {(k, i): jx[2 + 2 * (k - 1) + (i - 1)] for k in (1, 2) for i in (1, 2)}
    by = {(k, i): jy[2 + 2 * (k - 1) + (i - 1)] for k in (1, 2) for i in (1, 2)}
    val, der = {}, {}
    for k in (1, 2):
        acc = ops.zero
        for l in (1, 2):
            acc = ops.sub(ops.add(acc, ops.mul(ax[l], by[(k, l)])), ops.mul(ay[l], bx[(k, l)]))
        val[k] = acc
        for m in (1, 2):
            acc = ops.zero
            for l in (1, 2):
                acc = ops.add(acc, ops.add(ops.mul(bx[(l, m)], by[(k, l)]),
                                           ops.mul(ax[l], ddy[(m, l, k)])))
                acc = ops.sub(acc, ops.add(ops.mul(by[(l, m)], bx[(k, l)]),
                                           ops.mul(ay[l], ddx[(m, l, k)])))
            der[(k, m)] = acc
    return [val[1], val[2], der[(1, 1)], der[(1, 2)], der[(2, 1)], der[(2, 2)]]


def algebra_problems(family: str, constants: dict, basis) -> list:
    """A space of Killing 1-jets is a Lie algebra under ``bracket_jet``:
    the bracket of every pair of basis jets lies in the span, and the
    structure constants read off from it have zero Jacobi residual."""
    n = len(basis)
    g, dg = family_gamma(family, constants)
    dd = [_second_derivs(g, dg, jet, _Exact) for jet in basis]
    c = {}
    for i in range(n):
        for j in range(i + 1, n):
            coef = coordinates(basis, _bracket(basis[i], basis[j], dd[i], dd[j], _Exact))
            if coef is None:
                return [f"bracket of basis jets {i} and {j} is not in their span"]
            c[(i, j)] = coef
            c[(j, i)] = [sub(ZERO, x) for x in coef]
    for i in range(n):
        c[(i, i)] = [ZERO] * n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for m in range(n):
                    acc = ZERO
                    for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                        for l in range(n):
                            acc = add(acc, mul(c[(a, b)][l], c[(l, d)][m]))
                    if not is_zero(acc):
                        return [f"Jacobi residual {fmt(acc)} at ({i}, {j}, {k}), component {m}"]
    return []


# ---------------------------------------------------------------------------
# Taylor-jet evaluation of expression strings
# ---------------------------------------------------------------------------

NAN = complex(math.nan, math.nan)


class Jet:
    """Value and first/second partials (d1, d2, d11, d12, d22) at a point."""

    __slots__ = ("v", "a", "b", "aa", "ab", "bb")

    def __init__(self, v, a=0j, b=0j, aa=0j, ab=0j, bb=0j):
        self.v, self.a, self.b, self.aa, self.ab, self.bb = v, a, b, aa, ab, bb

    @staticmethod
    def lift(x):
        return x if isinstance(x, Jet) else Jet(complex(x))

    def __add__(self, o):
        o = Jet.lift(o)
        return Jet(self.v + o.v, self.a + o.a, self.b + o.b,
                   self.aa + o.aa, self.ab + o.ab, self.bb + o.bb)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, -self.a, -self.b, -self.aa, -self.ab, -self.bb)

    def __sub__(self, o):
        return self + (-Jet.lift(o))

    def __rsub__(self, o):
        return Jet.lift(o) + (-self)

    def __mul__(self, o):
        o = Jet.lift(o)
        return Jet(self.v * o.v,
                   self.a * o.v + self.v * o.a,
                   self.b * o.v + self.v * o.b,
                   self.aa * o.v + 2 * self.a * o.a + self.v * o.aa,
                   self.ab * o.v + self.a * o.b + self.b * o.a + self.v * o.ab,
                   self.bb * o.v + 2 * self.b * o.b + self.v * o.bb)

    __rmul__ = __mul__

    def __truediv__(self, o):
        return self * Jet.lift(o).inverse()

    def __rtruediv__(self, o):
        return Jet.lift(o) * self.inverse()

    def compose(self, f0, f1, f2):
        return Jet(f0, f1 * self.a, f1 * self.b,
                   f2 * self.a * self.a + f1 * self.aa,
                   f2 * self.a * self.b + f1 * self.ab,
                   f2 * self.b * self.b + f1 * self.bb)

    def inverse(self):
        u = self.v
        return self.compose(1 / u, -1 / u ** 2, 2 / u ** 3)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("only integer powers occur in affkit expressions")
        base = self if n >= 0 else self.inverse()
        out = Jet(1 + 0j)
        for _ in range(abs(n)):
            out = out * base
        return out

    def d(self, axis: int):
        """Partial derivative; its own second partials are unknown (NaN)."""
        if axis == 1:
            return Jet(self.a, self.aa, self.ab, NAN, NAN, NAN)
        return Jet(self.b, self.ab, self.bb, NAN, NAN, NAN)


def _sin(u):
    u = Jet.lift(u)
    return u.compose(cmath.sin(u.v), cmath.cos(u.v), -cmath.sin(u.v))


def _cos(u):
    u = Jet.lift(u)
    return u.compose(cmath.cos(u.v), -cmath.sin(u.v), -cmath.cos(u.v))


def _tan(u):
    u = Jet.lift(u)
    t = cmath.tan(u.v)
    return u.compose(t, 1 + t * t, 2 * t * (1 + t * t))


def _sec(u):
    u = Jet.lift(u)
    s, t = 1 / cmath.cos(u.v), cmath.tan(u.v)
    return u.compose(s, s * t, s * t * t + s ** 3)


def _exp(u):
    u = Jet.lift(u)
    e = cmath.exp(u.v)
    return u.compose(e, e, e)


_EXP_ARG = re.compile(r"exp\(([^()]*)\*x2\)")


def to_python(text: str) -> str:
    """Expression text in affkit's grammar as a Python expression."""
    return _EXP_ARG.sub(r"exp((\1)*x2)", text).replace("^", "**")


def eval_jet(text: str, point) -> Jet:
    env = {"__builtins__": {}, "x1": Jet(complex(point[0]), 1 + 0j),
           "x2": Jet(complex(point[1]), 0j, 1 + 0j), "i": 1j,
           "sin": _sin, "cos": _cos, "tan": _tan, "sec": _sec, "exp": _exp}
    return Jet.lift(eval(to_python(text), env))


def tensors_at(gamma_text: dict, point) -> dict:
    """Torsion, curvature, Ricci and nabla-Ricci values at a point."""
    G = {tuple(int(c) for c in k): eval_jet(gamma_text.get(k, "0"), point) for k in KEYS}
    tors = {(i, j, k): (G[(i, j, k)] - G[(j, i, k)]).v for i, j, k in product((1, 2), repeat=3)}
    R = {}
    for i, j, k, l in product((1, 2), repeat=4):
        e = G[(j, k, l)].d(i) - G[(i, k, l)].d(j)
        for m in (1, 2):
            e = e + G[(i, m, l)] * G[(j, k, m)] - G[(j, m, l)] * G[(i, k, m)]
        R[(i, j, k, l)] = e
    rho = {(j, k): R[(1, j, k, 1)] + R[(2, j, k, 2)] for j, k in product((1, 2), repeat=2)}
    nabla = {}
    for i, j, k in product((1, 2), repeat=3):
        e = rho[(j, k)].d(i)
        for m in (1, 2):
            e = e - G[(i, j, m)] * rho[(m, k)] - G[(i, k, m)] * rho[(j, m)]
        nabla[(i, j, k)] = e.v
    return {"torsion": tors, "curvature": {k: v.v for k, v in R.items()},
            "rho": {k: v.v for k, v in rho.items()}, "nabla_rho": nabla}


def close(a: complex, b: complex, tol: float = 1e-7) -> bool:
    return abs(a - b) <= tol * (1 + abs(b))
