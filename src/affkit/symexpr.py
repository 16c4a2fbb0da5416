"""Exact symbolic expressions for 2d connection calculus.

The expression class is a differential ring spanned by monomials

    coeff * x1^p1 * x2^p2 * sin(x1)^s * cos(x1)^c * exp(freq*x2)

with Gaussian-rational ``coeff`` and ``freq``, integer ``p1`` and ``c``
(negative powers allowed), nonnegative ``p2``, and ``s`` restricted to
{0, 1} by the reduction sin^2 -> 1 - cos^2.  The ring is closed under
addition, multiplication, d/dx1, d/dx2 and conjugation, and the canonical
form gives a decidable zero test: an expression is zero iff it stores no
terms.  tan(x1) and sec(x1) are not primitive; they normalize to
sin(x1)*cos(x1)^-1 and cos(x1)^-1.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .scalars import I, ONE, ZERO, Scalar, as_fraction

# What one parse may build: the largest exponent, in a literal and in each
# term's |p1|, p2 and |c|, the work of one product, as term pairs |a| * |b|,
# and the depth of nested parentheses and unary minuses (at most 2 in the
# tests and benchmark pools).  Crossing any is a ParseError, so a short input
# can neither stall the exact layer nor exhaust the parser's stack.
MAX_EXPONENT = 10_000
MAX_PRODUCT_PAIRS = 20_000
MAX_NESTING = 100


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax error; carries the 0-based position in the input text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class DivisionError(ExprError):
    """Divisor does not normalize to a unit monomial x1^m*cos(x1)^c."""


class NotExactlyEvaluable(ExprError):
    """Exact evaluation preconditions fail at the requested point."""


class EvaluationPoleError(ExprError):
    """Numeric evaluation at a pole (x1 = 0 or cos(x1) = 0)."""


class Term(NamedTuple):
    coeff: Scalar
    p1: int
    p2: int
    s: int
    c: int
    freq: Scalar


def _accumulate(acc: dict, coeff: Scalar, p1: int, p2: int, s: int, c: int, freq: Scalar):
    """Add a raw monomial into the accumulator, reducing sin^2 -> 1 - cos^2."""
    if coeff.is_zero:
        return
    while s >= 2:
        # sin^s = sin^(s-2) * (1 - cos^2)
        _accumulate(acc, -coeff, p1, p2, s - 2, c + 2, freq)
        s -= 2
    key = (freq.re, freq.im, p1, p2, s, c)
    cur = acc.get(key)
    tot = coeff if cur is None else cur + coeff
    if tot.is_zero:
        acc.pop(key, None)
    else:
        acc[key] = tot


def _from_acc(acc: dict) -> "Expr":
    terms = tuple(Term(coeff, k[2], k[3], k[4], k[5], Scalar(k[0], k[1]))
                  for k, coeff in sorted(acc.items()))
    return Expr(terms)


@dataclass(frozen=True, slots=True)
class Expr:
    """Canonical expression: a sorted tuple of terms with distinct keys."""

    terms: tuple[Term, ...] = ()

    # ---------------------------------------------------------------- setup

    @staticmethod
    def zero() -> Expr:
        return _ZERO_EXPR

    @staticmethod
    def const(value) -> Expr:
        sc = value if isinstance(value, Scalar) else Scalar.of(value)
        if sc.is_zero:
            return _ZERO_EXPR
        return Expr((Term(sc, 0, 0, 0, 0, ZERO),))

    @staticmethod
    def monomial(coeff: Scalar, p1=0, p2=0, s=0, c=0, freq: Scalar = ZERO) -> Expr:
        if p2 < 0:
            raise ExprError("negative powers of x2 are not representable")
        if s < 0 or c != int(c):
            raise ExprError("bad trig powers")
        acc: dict = {}
        _accumulate(acc, coeff, p1, p2, s, c, freq)
        return _from_acc(acc)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # ----------------------------------------------------------- arithmetic

    def __add__(self, other: Expr) -> Expr:
        acc: dict = {}
        for t in self.terms:
            _accumulate(acc, t.coeff, t.p1, t.p2, t.s, t.c, t.freq)
        for t in other.terms:
            _accumulate(acc, t.coeff, t.p1, t.p2, t.s, t.c, t.freq)
        return _from_acc(acc)

    def __sub__(self, other: Expr) -> Expr:
        return self + (-other)

    def __neg__(self) -> Expr:
        return Expr(tuple(t._replace(coeff=-t.coeff) for t in self.terms))

    def __mul__(self, other) -> Expr:
        if isinstance(other, (int, Fraction, Scalar)):
            sc = other if isinstance(other, Scalar) else Scalar.of(other)
            if sc.is_zero:
                return _ZERO_EXPR
            return Expr(tuple(t._replace(coeff=t.coeff * sc) for t in self.terms))
        acc: dict = {}
        for a in self.terms:
            for b in other.terms:
                _accumulate(acc, a.coeff * b.coeff, a.p1 + b.p1, a.p2 + b.p2,
                            a.s + b.s, a.c + b.c, a.freq + b.freq)
        return _from_acc(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Expr:
        """Square-and-multiply, with no square past the top bit, so n <= 3
        costs n products; the canonical form makes the grouping immaterial.
        Each product is bounded as the parser's are (``_bounded_product``)."""
        if n < 0:
            return self.inverse_monomial() ** (-n)
        result, base = Expr.const(1), self
        while n:
            if n & 1:
                result = _bounded_product(result, base)
            n >>= 1
            if n:
                base = _bounded_product(base, base)
        return result

    def inverse_monomial(self) -> Expr:
        """Invert, valid only for a single term +-x1^m*cos(x1)^c."""
        if len(self.terms) != 1:
            raise DivisionError("divisor is not a single monomial")
        t = self.terms[0]
        if t.p2 or t.s or not t.freq.is_zero:
            raise DivisionError("divisor must be of the form +-x1^m*cos(x1)^c")
        if not (t.coeff.is_real and abs(t.coeff.re) == 1):
            raise DivisionError("divisor coefficient must be +-1")
        return Expr((Term(t.coeff, -t.p1, 0, 0, -t.c, ZERO),))

    def __truediv__(self, other: Expr) -> Expr:
        return self * other.inverse_monomial()

    # -------------------------------------------------------------- calculus

    def diff(self, var: str) -> Expr:
        """Exact partial derivative with respect to 'x1' or 'x2'."""
        acc: dict = {}
        if var == "x1":
            for t in self.terms:
                if t.p1:
                    _accumulate(acc, t.coeff * t.p1, t.p1 - 1, t.p2, t.s, t.c, t.freq)
                if t.s:
                    _accumulate(acc, t.coeff * t.s, t.p1, t.p2, t.s - 1, t.c + 1, t.freq)
                if t.c:
                    _accumulate(acc, -(t.coeff * t.c), t.p1, t.p2, t.s + 1, t.c - 1, t.freq)
        elif var == "x2":
            for t in self.terms:
                if t.p2:
                    _accumulate(acc, t.coeff * t.p2, t.p1, t.p2 - 1, t.s, t.c, t.freq)
                if not t.freq.is_zero:
                    _accumulate(acc, t.coeff * t.freq, t.p1, t.p2, t.s, t.c, t.freq)
        else:
            raise ValueError(f"unknown variable {var!r}")
        return _from_acc(acc)

    def conjugate(self) -> Expr:
        acc: dict = {}
        for t in self.terms:
            _accumulate(acc, t.coeff.conjugate(), t.p1, t.p2, t.s, t.c, t.freq.conjugate())
        return _from_acc(acc)

    # ------------------------------------------------------------ evaluation

    def eval_exact(self, point) -> Scalar:
        """Exact value at a rational point.

        Requires x1 = 0 for terms carrying sin/cos factors, x2 = 0 for terms
        carrying an exponential, and x1 != 0 for terms with a pole in x1.
        Raises NotExactlyEvaluable otherwise.
        """
        x1, x2 = as_fraction(point[0]), as_fraction(point[1])
        total = ZERO
        for t in self.terms:
            if (t.s or t.c) and x1:
                raise NotExactlyEvaluable(
                    f"trig factor requires x1 = 0, got x1 = {x1}")
            if not t.freq.is_zero and x2:
                raise NotExactlyEvaluable(
                    f"exponential factor requires x2 = 0, got x2 = {x2}")
            if t.p1 < 0 and not x1:
                raise NotExactlyEvaluable("pole: negative power of x1 at x1 = 0")
            if t.s:
                continue  # sin(0) = 0
            v1 = x1 ** t.p1 if t.p1 else Fraction(1)
            v2 = x2 ** t.p2 if t.p2 else Fraction(1)
            total = total + t.coeff * (v1 * v2)
        return total

    def eval_numeric(self, point) -> complex:
        """Floating evaluation at a real point; complex result."""
        x1, x2 = float(point[0]), float(point[1])
        cos1 = np.cos(x1)
        total = 0j
        for t in self.terms:
            if t.p1 < 0 and x1 == 0.0:
                raise EvaluationPoleError("negative power of x1 at x1 = 0")
            # cos(pi/2) rounds to ~6e-17 in doubles, so the pole at odd
            # multiples of pi/2 is detected by threshold rather than equality.
            if t.c < 0 and abs(cos1) < 1e-12:
                raise EvaluationPoleError("negative power of cos(x1) at a zero of cos")
            val = complex(t.coeff)
            if t.p1:
                val *= x1 ** t.p1
            if t.p2:
                val *= x2 ** t.p2
            if t.s:
                val *= np.sin(x1)
            if t.c:
                val *= cos1 ** t.c
            if not t.freq.is_zero:
                val *= cmath.exp(complex(t.freq) * x2)
            total += val
        return total

    # -------------------------------------------------------------- printing

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for idx, t in enumerate(self.terms):
            sign, body = _term_text(t)
            if idx == 0:
                chunks.append(("-" if sign < 0 else "") + body)
            else:
                chunks.append(("-" if sign < 0 else "+") + body)
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"Expr({str(self)!r})"


_ZERO_EXPR = Expr(())


def _bounded_product(a: Expr, b: Expr) -> Expr:
    """a * b, refused before it starts past MAX_PRODUCT_PAIRS term pairs."""
    if len(a.terms) * len(b.terms) > MAX_PRODUCT_PAIRS:
        raise ExprError(f"a product of {len(a.terms)} by {len(b.terms)} terms exceeds "
                        f"MAX_PRODUCT_PAIRS = {MAX_PRODUCT_PAIRS}")
    return a * b


def compile_exprs(exprs) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Vectorized evaluator ``f(x1, x2) -> (len(exprs),) + shape`` for a list
    of expressions, ``shape`` being the broadcast shape of x1 and x2.

    Real basis: at compile time each factor exp((a+ib)*x2) is expanded as
    e^(a*x2) * (cos(|b|*x2) + i*sign(b)*sin(|b|*x2)), and the coefficients
    are folded exactly into a real-part and an imaginary-part matrix over
    shared real columns.  The output is float64 exactly when every
    imaginary coefficient cancels, which happens iff every expression
    equals its own conjugate (conjugate pairs such as the sphere's
    exp(+-i*x2) give real cos and sin); otherwise it is complex.
    ``f.dtype`` carries this verdict.

    Straight-line plan: the base factors (powers of x1, sin(x1), powers of
    cos(x1), powers of x2, exp(a*x2), cos and sin of beta*x2) are fixed at
    compile time, each resolved there to a ready function
    (``_resolve_factor``); each column is a tuple of factor indices whose
    product is written straight into its row of the column matrix, and one
    matrix product sums the columns.  Constant terms fold into one vector,
    and an all-constant list returns it before any factor is computed.
    1-D input, the flows' case, is used as it comes.  Poles as in
    ``eval_numeric``: EvaluationPoleError at x1 = 0 with a negative power
    of x1, or at |cos(x1)| < 1e-12 with a negative power of cos(x1).
    """
    n_rows = len(exprs)
    acc: dict[tuple, Scalar] = {}   # (column, row) -> exact coefficient
    x1_pole = cos_pole = False
    for row, e in enumerate(exprs):
        for t in e.terms:
            x1_pole = x1_pole or t.p1 < 0
            cos_pole = cos_pole or t.c < 0
            # a column is the tuple of its base factors, (kind, power or rate)
            base = tuple(f for f in (("x1", t.p1), ("sin1", t.s), ("cos1", t.c),
                                     ("x2", t.p2), ("exp", t.freq.re)) if f[1])
            b = t.freq.im
            parts = [(base, t.coeff)] if not b else [
                ((*base, ("cos", abs(b))), t.coeff),
                ((*base, ("sin", abs(b))), t.coeff * (I if b > 0 else -I))]
            for column, coeff in parts:
                acc[column, row] = acc.get((column, row), ZERO) + coeff

    acc = {key: coeff for key, coeff in acc.items() if not coeff.is_zero}
    real = all(coeff.is_real for coeff in acc.values())
    dtype = np.dtype(float if real else complex)
    columns_used = list(dict.fromkeys(column for column, _ in acc if column))
    specs = list(dict.fromkeys(f for column in columns_used for f in column))
    plan = [tuple(specs.index(f) for f in column) for column in columns_used]
    const = np.zeros(n_rows, dtype=dtype)
    coeffs = np.zeros((2 * n_rows, len(plan)))   # real parts over imaginary parts
    for (column, row), coeff in acc.items():
        if column:
            j = columns_used.index(column)
            coeffs[row, j], coeffs[n_rows + row, j] = float(coeff.re), float(coeff.im)
        else:
            const[row] = float(coeff.re) if real else complex(coeff)
    if real:
        coeffs = coeffs[:n_rows]
    has_const = bool(const.any())
    factors = [_resolve_factor(kind, p) for kind, p in specs]
    need_sin = ("sin1", 1) in specs
    need_cos = any(kind == "cos1" for kind, _ in specs)
    const_column = const[:, None]

    def evaluate(x1, x2) -> np.ndarray:
        x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
        if x1.shape != x2.shape:
            x1, x2 = np.broadcast_arrays(x1, x2)
        shape, flat = (n_rows,) + x1.shape, x1.ndim == 1
        if not plan:
            out = np.empty((n_rows, x1.size), dtype=dtype)
            out[...] = const_column
            return out if flat else out.reshape(shape)
        if not flat:
            x1, x2 = x1.reshape(-1), x2.reshape(-1)
        if x1_pole and (x1 == 0.0).any():
            raise EvaluationPoleError("negative power of x1 at x1 = 0")
        sin1 = np.sin(x1) if need_sin else None
        cos1 = np.cos(x1) if need_cos else None
        if cos_pole and np.abs(cos1).min() < 1e-12:
            raise EvaluationPoleError("negative power of cos(x1) at a zero of cos")
        values = [factor(x1, x2, sin1, cos1) for factor in factors]
        columns = np.empty((len(plan), x1.size))
        for column, idx in zip(columns, plan):
            if len(idx) == 1:
                column[...] = values[idx[0]]
                continue
            np.multiply(values[idx[0]], values[idx[1]], out=column)
            for k in idx[2:]:
                column *= values[k]
        # np.dot, not @: with a single column matmul skips BLAS and is 4x slower
        out = np.dot(coeffs, columns)
        if not real:
            out = out[:n_rows] + 1j * out[n_rows:]
        if has_const:
            out += const_column
        return out if flat else out.reshape(shape)

    evaluate.dtype = dtype
    return evaluate


def _resolve_factor(kind: str, p) -> Callable:
    """Function (x1, x2, sin1, cos1) -> values of one base factor of
    ``compile_exprs``, chosen at compile time.  A rate of 1 skips its
    multiply, as 1.0 * x2 is x2 exactly."""
    if kind in ("exp", "cos", "sin"):
        fn, rate = getattr(np, kind), float(p)
        return (lambda x1, x2, sin1, cos1: fn(x2)) if rate == 1.0 else (
            lambda x1, x2, sin1, cos1: fn(rate * x2))
    pick = {"x1": 0, "x2": 1, "sin1": 2, "cos1": 3}[kind]
    return (lambda *bases: bases[pick]) if p == 1 else (lambda *bases: bases[pick] ** p)


def _term_text(t: Term) -> tuple[int, str]:
    """Sign (+1/-1) and unsigned body text for one canonical term."""
    factors: list[str] = []
    if t.p1:
        factors.append("x1" if t.p1 == 1 else f"x1^{t.p1}")
    if t.p2:
        factors.append("x2" if t.p2 == 1 else f"x2^{t.p2}")
    if t.s:
        factors.append("sin(x1)")
    if t.c:
        factors.append("cos(x1)" if t.c == 1 else f"cos(x1)^{t.c}")
    if not t.freq.is_zero:
        factors.append(f"exp({t.freq}*x2)")

    coeff = t.coeff
    if coeff.is_real:
        sign = -1 if coeff.re < 0 else 1
        mag = abs(coeff.re)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
    elif not coeff.re:
        sign = -1 if coeff.im < 0 else 1
        mag = abs(coeff.im)
        head = ["i"] if mag == 1 else [str(mag), "i"]
        factors = head + factors
    else:
        sign = 1
        factors.insert(0, f"({coeff})")
    return sign, "*".join(factors)


# ---------------------------------------------------------------------------
# parser
#
# expr   := term (("+"|"-") term)*
# term   := factor (("*"|"/") factor)*
# factor := atom ("^" int)?
# atom   := rational | "i" | "x1" | "x2" | "sin(x1)" | "cos(x1)" | "tan(x1)"
#         | "sec(x1)" | "exp(" coef "*x2" ")" | "(" expr ")" | "-" factor
# coef   := rational | rational "*i" | rational ("+"|"-") rational "*i"
# ---------------------------------------------------------------------------

SIN = Expr.monomial(ONE, s=1)
COS = Expr.monomial(ONE, c=1)
TAN = Expr.monomial(ONE, s=1, c=-1)
SEC = Expr.monomial(ONE, c=-1)
X1 = Expr.monomial(ONE, p1=1)
X2 = Expr.monomial(ONE, p2=1)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        n = len(text)
        while pos < n:
            ch = text[pos]
            if ch.isspace():
                pos += 1
                continue
            if ch.isdigit():
                start = pos
                while pos < n and text[pos].isdigit():
                    pos += 1
                self.toks.append(("int", text[start:pos], start))
                continue
            if ch.isalpha():
                start = pos
                while pos < n and (text[pos].isalnum()):
                    pos += 1
                self.toks.append(("name", text[start:pos], start))
                continue
            if ch in "+-*/^()":
                self.toks.append((ch, ch, pos))
                pos += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", pos)
        self.toks.append(("eof", "", n))
        self.i = 0
        self.depth = 0

    def peek(self, ahead=0):
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def next(self):
        tok = self.toks[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str, what: str = ""):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what or kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok


def _int_literal(tok) -> int:
    """An integer token's value; past Python's 4 300-digit limit, a ParseError."""
    try:
        return int(tok[1])
    except ValueError as exc:
        raise ParseError(f"unreadable integer literal of length {len(tok[1])}", tok[2]) from exc


def _parse_int(ts: _Tokens) -> int:
    sign = 1
    if ts.peek()[0] == "-":
        ts.next()
        sign = -1
    return sign * _int_literal(ts.expect("int", "an integer"))


def _parse_rational(ts: _Tokens) -> Fraction:
    sign = 1
    if ts.peek()[0] == "-":
        ts.next()
        sign = -1
    value = Fraction(_int_literal(ts.expect("int", "a number")))
    if ts.peek()[0] == "/" and ts.peek(1)[0] == "int":
        ts.next()
        tok = ts.next()
        den = _int_literal(tok)
        if den == 0:
            raise ParseError("zero denominator", tok[2])
        value /= den
    return sign * value


def _parse_coef(ts: _Tokens) -> Scalar:
    first = _parse_rational(ts)
    kind = ts.peek()[0]
    if kind in ("+", "-"):
        op = ts.next()[0]
        second = _parse_rational(ts)
        ts.expect("*", "'*'")
        tok = ts.expect("name", "'i'")
        if tok[1] != "i":
            raise ParseError("expected 'i' in exponential coefficient", tok[2])
        return Scalar(first, second if op == "+" else -second)
    if kind == "*" and ts.peek(1)[1] == "i":
        ts.next()
        ts.next()
        return Scalar(Fraction(0), first)
    return Scalar(first, Fraction(0))


def _nested(ts: _Tokens, pos: int, parse_inner) -> Expr:
    """parse_inner(ts) one level deeper; past MAX_NESTING levels, a ParseError."""
    if ts.depth == MAX_NESTING:
        raise ParseError(f"nesting exceeds MAX_NESTING = {MAX_NESTING}", pos)
    ts.depth += 1
    e = parse_inner(ts)
    ts.depth -= 1
    return e


def _parse_atom(ts: _Tokens) -> Expr:
    kind, value, pos = ts.peek()
    if kind == "-":
        ts.next()
        return -_nested(ts, pos, _parse_factor)
    if kind == "(":
        ts.next()
        e = _nested(ts, pos, _parse_expr)
        ts.expect(")", "')'")
        return e
    if kind == "int":
        return Expr.const(Scalar(_parse_rational(ts), Fraction(0)))
    if kind == "name":
        ts.next()
        if value == "i":
            return Expr.const(I)
        if value == "x1":
            return X1
        if value == "x2":
            return X2
        if value in ("sin", "cos", "tan", "sec"):
            ts.expect("(", "'('")
            arg = ts.expect("name", "'x1'")
            if arg[1] != "x1":
                raise ParseError(f"{value} takes argument x1", arg[2])
            ts.expect(")", "')'")
            return {"sin": SIN, "cos": COS, "tan": TAN, "sec": SEC}[value]
        if value == "exp":
            ts.expect("(", "'('")
            freq = _parse_coef(ts)
            ts.expect("*", "'*'")
            arg = ts.expect("name", "'x2'")
            if arg[1] != "x2":
                raise ParseError("exponentials take argument x2", arg[2])
            ts.expect(")", "')'")
            return Expr.monomial(ONE, freq=freq)
        raise ParseError(f"unknown name {value!r}", pos)
    raise ParseError(f"expected a value, found {value or 'end of input'!r}", pos)


def _parse_factor(ts: _Tokens) -> Expr:
    base = _parse_atom(ts)
    if ts.peek()[0] != "^":
        return base
    ts.next()
    pos = ts.peek()[2]
    n = _parse_int(ts)
    if abs(n) > MAX_EXPONENT:
        raise ParseError(f"exponent {n} exceeds MAX_EXPONENT = {MAX_EXPONENT}", pos)
    try:
        return _bounded_degree(base ** n)
    except ExprError as exc:    # a negative power of a non-monomial, or too large
        raise ParseError(str(exc), pos) from exc


def _bounded_degree(e: Expr) -> Expr:
    """e, refused when a term's |p1|, p2 or |c| exceeds MAX_EXPONENT."""
    if any(max(abs(t.p1), t.p2, abs(t.c)) > MAX_EXPONENT for t in e.terms):
        raise ExprError(f"a power of x1, x2 or cos(x1) exceeds MAX_EXPONENT = {MAX_EXPONENT}")
    return e


def _parse_term(ts: _Tokens) -> Expr:
    result = _parse_factor(ts)
    while ts.peek()[0] in ("*", "/"):
        op, _, pos = ts.next()
        rhs = _parse_factor(ts)
        try:
            result = _bounded_degree(_bounded_product(result, rhs) if op == "*"
                                     else result / rhs)
        except ExprError as exc:
            raise ParseError(str(exc), pos) from exc
    return result


def _parse_expr(ts: _Tokens) -> Expr:
    result = _parse_term(ts)
    while ts.peek()[0] in ("+", "-"):
        op = ts.next()[0]
        rhs = _parse_term(ts)
        result = result + rhs if op == "+" else result - rhs
    return result


def parse(text: str) -> Expr:
    """Parse an expression string to canonical form.

    The grammar covers rationals, i, x1, x2, sin/cos/tan/sec of x1,
    exp(coef*x2), grouping, ^ powers and the usual +-*/, with * and / read
    left to right.  Division is legal only by monomials +-x1^m*cos(x1)^c.
    """
    ts = _Tokens(text)
    e = _parse_expr(ts)
    tok = ts.peek()
    if tok[0] != "eof":
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return e
