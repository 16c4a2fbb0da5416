"""Tests for the exact expression kernel: parsing, arithmetic, calculus."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from affkit.paperchecks import sphere_killing_triple
from affkit.scalars import Scalar, ONE, ZERO
from affkit.surface import GAMMA_KEYS, sphere, type_b
from affkit.symexpr import (
    COS, SEC, SIN, TAN, X1, X2,
    MAX_EXPONENT, MAX_NESTING, MAX_PRODUCT_PAIRS, DivisionError, EvaluationPoleError, Expr,
    NotExactlyEvaluable, ParseError, Term, compile_exprs, parse,
)

from helpers_reference import assert_bitwise, compile_exprs_reference


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def scalars(draw, real_only=False):
    re = draw(small_fractions)
    im = Fraction(0) if real_only else draw(small_fractions)
    return Scalar(re, im)


@st.composite
def terms(draw):
    coeff = draw(scalars())
    if coeff.is_zero:
        coeff = ONE
    return dict(
        coeff=coeff,
        p1=draw(st.integers(min_value=-2, max_value=3)),
        p2=draw(st.integers(min_value=0, max_value=3)),
        s=draw(st.integers(min_value=0, max_value=2)),
        c=draw(st.integers(min_value=-2, max_value=2)),
        freq=draw(scalars()),
    )


@st.composite
def exprs(draw, max_terms=4):
    parts = draw(st.lists(terms(), min_size=0, max_size=max_terms))
    e = Expr.zero()
    for kw in parts:
        e = e + Expr.monomial(**kw)
    return e


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_tan():
    e = parse("-tan(x1)")
    assert e.terms == (Term(-ONE, 0, 0, 1, -1, ZERO),)


def test_parse_zero():
    assert parse("0").is_zero
    assert parse("0").terms == ()


def test_parse_cos_sin_product():
    e = parse("cos(x1)*sin(x1)")
    assert e.terms == (Term(ONE, 0, 0, 1, 1, ZERO),)


def test_parse_rational_and_powers():
    assert parse("3/4") == Expr.const(Fraction(3, 4))
    assert parse("x1^-2") == Expr.monomial(ONE, p1=-2)
    assert parse("2^3") == Expr.const(8)
    assert parse("i^2") == Expr.const(-1)


def test_parse_exponential_coefs():
    assert parse("exp(2*x2)") == Expr.monomial(ONE, freq=Scalar.of(2))
    assert parse("exp(-1*i*x2)") == Expr.monomial(ONE, freq=Scalar.of(0, -1))
    assert parse("exp(1-2*i*x2)") == Expr.monomial(ONE, freq=Scalar.of(1, -2))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("1+&")
    assert err.value.pos == 2
    with pytest.raises(ParseError):
        parse("sin(x2)")
    with pytest.raises(ParseError):
        parse("1+")


def test_division_rules():
    assert parse("sin(x1)/cos(x1)") == TAN
    assert parse("1/x1") == Expr.monomial(ONE, p1=-1)
    with pytest.raises(ParseError):
        parse("x1/2")          # coefficient of the divisor must be +-1
    with pytest.raises(ParseError):
        parse("1/sin(x1)")
    with pytest.raises(ParseError):
        parse("1/exp(1*x2)")
    with pytest.raises(ParseError):
        parse("x2^-1")         # no negative powers of x2
    with pytest.raises(DivisionError):
        (X1 + X2).inverse_monomial()
    # * and / are read left to right, so a product may follow a quotient.
    assert parse("x1/x1*x2") == X2
    assert parse("sin(x1)/cos(x1)*x2") == TAN * X2


def test_parser_bounds_sit_at_their_constants():
    # Each bound is a ParseError at the exponent or at the '*' that crosses
    # it; everything up to the bound parses.
    assert parse(f"x1^{MAX_EXPONENT}") == Expr.monomial(ONE, p1=MAX_EXPONENT)
    for text, pos in ((f"x1^{MAX_EXPONENT + 1}", 3), (f"x1^-{MAX_EXPONENT + 1}", 3)):
        with pytest.raises(ParseError, match="MAX_EXPONENT") as err:
            parse(text)
        assert err.value.pos == pos
    # (1+x1+x2)^20 has 231 terms, and 231^2 term pairs cross the product bound.
    assert 231 ** 2 > MAX_PRODUCT_PAIRS > 2 * 231
    assert len(parse("(1+x1+x2)^20").terms) == 231
    assert len(parse("(1+x1+x2)^20*(1+x1)").terms) == 252
    with pytest.raises(ParseError, match="MAX_PRODUCT_PAIRS") as err:
        parse("(1+x1+x2)^20*(1+x1+x2)^20")
    assert err.value.pos == 12
    # Every term a product, power or quotient builds keeps |p1|, p2 and |c|
    # within MAX_EXPONENT; the error sits at the '*', exponent or '/'.
    n = MAX_EXPONENT
    assert parse(f"x1^{n // 2}*x1^{n // 2}") == Expr.monomial(ONE, p1=n)
    assert parse(f"x2^{n}*cos(x1)^-{n}/x1^{n}") == Expr.monomial(ONE, p1=-n, p2=n, c=-n)
    for text, pos in ((f"x1^{n}*x1", 8), (f"x2^{n // 2}*x2^{n // 2}*x2", 15),
                      (f"(cos(x1)^2)^{n // 2 + 1}", 12), (f"1/x1^{n}/x1", 10),
                      (f"sec(x1)^{n}/cos(x1)", 13)):
        with pytest.raises(ParseError, match="MAX_EXPONENT") as err:
            parse(text)
        assert err.value.pos == pos, text


def test_integer_literals_past_the_digit_limit_are_parse_errors():
    # Python refuses to read an int of more than 4300 digits; the parser
    # reports the literal instead of leaking that ValueError.
    limit = sys.get_int_max_str_digits()
    assert parse("7" * limit) == Expr.const(int("7" * limit))
    for text, pos in (("1" * 5000, 0), ("x1 + 1/" + "3" * (limit + 1), 7),
                      ("x1^" + "2" * 5000, 3), ("exp(" + "1" * 5000 + "*x2)", 4)):
        with pytest.raises(ParseError, match="integer literal of length") as err:
            parse(text)
        assert err.value.pos == pos


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_sin_squared_reduces():
    assert SIN * SIN == Expr.const(1) - COS * COS
    assert all(t.s <= 1 for t in (SIN * SIN).terms)


def test_additive_inverse():
    e = parse("2*x1-sin(x1)*exp(1*x2)")
    assert (e + (-e)).is_zero


def test_tan_times_cos_is_sin():
    assert TAN * COS == SIN


def test_pythagorean_identity():
    assert SIN * SIN + COS * COS == Expr.const(1)


def repeated_product(e, n):
    out = Expr.const(1)
    for _ in range(n):
        out = out * e
    return out


def test_power_matches_repeated_multiplication():
    bases = [parse("x1+sin(x1)"), parse("2*cos(x1)-x2*exp(1*x2)+1/2"),
             parse("i*x1+tan(x1)"), SIN + COS]
    for e in bases:
        for n in range(10):
            assert e ** n == repeated_product(e, n)
    for e in (parse("-x1^3*cos(x1)^2"), SEC, X1):
        for n in range(1, 6):
            assert e ** -n == repeated_product(e.inverse_monomial(), n)


def test_power_squares_and_multiplies(monkeypatch):
    # At most 2 * log2(n) products: x1^1000 took 1 000, so a large exponent
    # in a surface file stalled the parser.
    calls = []
    mul = Expr.__mul__
    monkeypatch.setattr(Expr, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert parse("x1^1000") == Expr.monomial(ONE, p1=1000)
    assert len(calls) <= 21
    for n in range(4):          # small powers cost n products, as before
        calls.clear()
        X1 ** n
        assert len(calls) == n


@given(exprs(), exprs(), exprs())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(exprs())
def test_no_stored_term_has_sin_power_two(e):
    assert all(t.s in (0, 1) for t in e.terms)
    assert all(not t.coeff.is_zero for t in e.terms)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_tan_prime_is_sec_squared():
    assert TAN.diff("x1") == SEC * SEC


def test_constant_derivative_vanishes():
    assert Expr.const(Fraction(5, 7)).diff("x1").is_zero
    assert Expr.const(Fraction(5, 7)).diff("x2").is_zero


def test_exponential_leibniz():
    # d/dx2 of e^{2 x2} x2 = e^{2 x2} (2 x2 + 1), by hand.
    e = parse("exp(2*x2)*x2")
    assert e.diff("x2") == parse("exp(2*x2)*(2*x2+1)")


@given(exprs())
def test_mixed_partials_commute(e):
    assert e.diff("x1").diff("x2") == e.diff("x2").diff("x1")


@given(exprs(max_terms=3), exprs(max_terms=3))
def test_leibniz_rule(a, b):
    for var in ("x1", "x2"):
        assert (a * b).diff(var) == a.diff(var) * b + a * b.diff(var)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_exact_examples():
    assert parse("-tan(x1)").eval_exact((0, 0)) == ZERO
    assert parse("1/x1").eval_exact((1, 0)) == ONE
    with pytest.raises(NotExactlyEvaluable):
        parse("cos(x1)*sin(x1)").eval_exact((Fraction(1, 2), 0))
    with pytest.raises(NotExactlyEvaluable):
        parse("exp(1*x2)").eval_exact((0, 1))
    with pytest.raises(NotExactlyEvaluable):
        parse("1/x1").eval_exact((0, 0))


def test_eval_numeric_examples():
    assert abs(parse("-tan(x1)").eval_numeric((math.pi / 4, 0)) + 1.0) < 1e-12
    with pytest.raises(EvaluationPoleError):
        parse("1/x1").eval_numeric((0.0, 0.0))
    with pytest.raises(EvaluationPoleError):
        parse("sec(x1)").eval_numeric((math.pi / 2, 0.0))


@given(exprs())
def test_numeric_matches_exact_where_defined(e):
    # Cross-evaluation oracle at a point satisfying all exact preconditions.
    point = (Fraction(0), Fraction(0))
    try:
        exact = e.eval_exact(point)
    except NotExactlyEvaluable:
        return
    numeric = e.eval_numeric((0.0, 0.0))
    assert abs(numeric - complex(exact)) < 1e-12


@given(exprs())
def test_eval_array_agrees_with_scalar_eval(e):
    import numpy as np
    xs = np.array([0.3, -0.4, 1.1])
    ys = np.array([0.1, 0.2, -0.5])
    vals = compile_exprs([e])(xs, ys)[0]
    for k in range(3):
        assert abs(vals[k] - e.eval_numeric((xs[k], ys[k]))) < 1e-10


def _sphere_symbols(rng):
    return [sphere().gamma[k] for k in GAMMA_KEYS]


def _a_over_x1_symbols(rng):
    s = type_b({k: rng.randint(-2, 2) for k in GAMMA_KEYS})
    return [s.gamma[k] for k in GAMMA_KEYS]


def _trig_exp_exprs(rng):
    texts = ["1/2*exp(1*i*x2)+1/2*exp(-1*i*x2)",
             "-1/2*i*tan(x1)*exp(1*i*x2)+1/2*i*tan(x1)*exp(-1*i*x2)",
             "x1^2*sec(x1)^3 - 3/4*x2^2*exp(1/2*x2)",
             "(1+2*i)*exp(1-3*i*x2)*sin(x1)*x2 + 5", "0", "7/3"]
    return [parse(t) for t in texts]


def _sphere_triple(rng):
    return [e for field in sphere_killing_triple() for e in (field.a1, field.a2)]


# (texts, dtype of the compiled output): conjugate pairs evaluate as real
# cos and sin, anything that differs from its conjugate stays complex.
EVALUATOR_CASES = [
    (["exp(1+2*i*x2)+exp(1-2*i*x2)"], float),
    (["exp(1*i*x2)"], complex),
    (["i*x1"], complex),
    (["7/3", "-2", "0"], float),
    (["0"], float),
]


def _case_exprs(texts):
    return lambda rng: [parse(t) for t in texts]


@pytest.mark.parametrize("fixture", [
    _sphere_symbols, _a_over_x1_symbols, _trig_exp_exprs, _sphere_triple,
    *(pytest.param(_case_exprs(texts), id="+".join(texts)) for texts, _ in EVALUATOR_CASES),
])
def test_compiled_evaluator_matches_eval_numeric(fixture, rng):
    exprs = fixture(rng)
    x1 = [rng.uniform(0.05, 1.5) for _ in range(20)]
    x2 = [rng.uniform(-2.0, 2.0) for _ in range(20)]
    vals = compile_exprs(exprs)(x1, x2)
    assert vals.shape == (len(exprs), 20)
    for row, e in enumerate(exprs):
        for n in range(20):
            want = e.eval_numeric((x1[n], x2[n]))
            assert abs(vals[row, n] - want) <= 1e-12 * max(1.0, abs(want))


def test_compiled_evaluator_broadcasts_and_stays_real():
    ev = compile_exprs([parse("x1*x2"), parse("cos(x1)"), parse("0")])
    vals = ev(np.array([[0.5], [1.0]]), np.array([1.0, 2.0, 3.0]))
    assert vals.shape == (3, 2, 3) and vals.dtype == float
    assert vals[0, 1, 2] == 3.0 and vals[1, 0, 0] == math.cos(0.5)
    assert not vals[2].any()
    assert compile_exprs([parse("exp(1*i*x2)")])(0.0, 1.0).dtype == complex
    x1, x2 = np.array([[0.5], [1.0]]), np.array([-1.0, 0.0, 2.5])
    cases = [(_sphere_triple(None), float)] + [
        ([parse(t) for t in texts], dtype) for texts, dtype in EVALUATOR_CASES]
    for exprs, dtype in cases:
        ev = compile_exprs(exprs)
        vals = ev(x1, x2)
        assert vals.shape == (len(exprs), 2, 3) and vals.dtype == ev.dtype == dtype
        for row, e in enumerate(exprs):
            for (i, j), a in np.ndenumerate(np.broadcast_to(x1, (2, 3))):
                want = e.eval_numeric((a, x2[j]))
                assert abs(vals[row, i, j] - want) <= 1e-12 * max(1.0, abs(want))


# Inputs of every shape the evaluator takes: 1-D rows (the flows' case), a
# broadcast pair, scalars and a row that crosses x1 = 0 and cos(x1) = 0.
BITWISE_INPUTS = [
    (np.array([0.3, -0.4, 1.1, 0.05]), np.array([0.1, 0.2, -0.5, 1.7])),
    (np.array([[0.5], [1.0]]), np.array([-1.0, 0.0, 2.5])),
    (0.7, -0.3),
    (np.array([0.2, 0.0, math.pi / 2]), np.array([0.4, -0.1, 0.3])),
]


def assert_bit_identical_to_reference(exprs):
    ev, ref = compile_exprs(exprs), compile_exprs_reference(exprs)
    assert ev.dtype == ref.dtype
    for x1, x2 in BITWISE_INPUTS:
        try:
            want = ref(x1, x2)
        except EvaluationPoleError:
            with pytest.raises(EvaluationPoleError):
                ev(x1, x2)
            continue
        assert_bitwise(ev(x1, x2), want)


@given(st.lists(exprs(), min_size=1, max_size=3))
@settings(max_examples=60)
def test_compiled_evaluator_is_bit_identical_to_the_reference(exprs_list):
    assert_bit_identical_to_reference(exprs_list)


@pytest.mark.parametrize("fixture", [
    _sphere_symbols, _a_over_x1_symbols, _trig_exp_exprs, _sphere_triple,
    *(pytest.param(_case_exprs(texts), id="+".join(texts)) for texts, _ in EVALUATOR_CASES),
    _case_exprs(["x1^2*exp(2*x2) - x2^3*exp(-1*x2)", "cos(x1)^2*exp(1*i*x2)", "sec(x1)^2"]),
])
def test_compiled_fixtures_are_bit_identical_to_the_reference(fixture, rng):
    assert_bit_identical_to_reference(fixture(rng))


@given(exprs(), st.booleans())
@settings(max_examples=60)
def test_compiled_output_is_real_exactly_for_self_conjugate_exprs(e, symmetrize):
    if symmetrize:
        e = e + e.conjugate()
    vals = compile_exprs([e])(np.array([0.3, 1.1]), np.array([0.1, -0.7]))
    assert (vals.dtype == float) == (e - e.conjugate()).is_zero


@pytest.mark.parametrize("text, point", [
    ("1/x1", (0.0, 0.3)),
    ("x2 + 1/x1^2", (0.0, -1.0)),
    ("sec(x1)", (math.pi / 2, 0.0)),
    ("x1 + tan(x1)*exp(1*i*x2)", (-math.pi / 2, 1.0)),
])
def test_compiled_evaluator_raises_where_eval_numeric_does(text, point):
    e = parse(text)
    with pytest.raises(EvaluationPoleError):
        e.eval_numeric(point)
    ev = compile_exprs([parse("x1"), e])
    ev([0.7], [point[1]])  # regular point: no error
    with pytest.raises(EvaluationPoleError):
        ev([0.7, point[0]], [0.0, point[1]])
    with pytest.raises(EvaluationPoleError):
        compile_exprs([e])(np.array([point[0]]), np.array([point[1]]))


def test_compiled_evaluator_has_no_pole_without_negative_powers():
    vals = compile_exprs([parse("x1*cos(x1)")])([0.0, math.pi / 2], [0.0, 0.0])
    assert abs(vals).max() < 1e-15


@given(exprs(max_terms=3))
@settings(max_examples=40)
def test_numeric_derivative_matches_finite_difference(e):
    h = 1e-5
    for var, p, ph in (("x1", (0.4, 0.3), (h, 0.0)), ("x2", (0.4, 0.3), (0.0, h))):
        d = e.diff(var).eval_numeric(p)
        fd = (e.eval_numeric((p[0] + ph[0], p[1] + ph[1]))
              - e.eval_numeric((p[0] - ph[0], p[1] - ph[1]))) / (2 * h)
        assert abs(d - fd) <= 1e-6 * max(1.0, abs(d))


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_conjugate_examples():
    assert parse("i*x2").conjugate() == parse("-i*x2")
    real = parse("x1^2-tan(x1)")
    assert real.conjugate() == real
    assert parse("exp(1+1*i*x2)").conjugate() == parse("exp(1-1*i*x2)")


@given(exprs())
def test_conjugation_is_an_involution(e):
    assert e.conjugate().conjugate() == e


# ---------------------------------------------------------------------------
# printing round trip
# ---------------------------------------------------------------------------

@given(exprs())
def test_parse_print_roundtrip(e):
    assert parse(str(e)) == e


def test_print_examples():
    assert str(Expr.zero()) == "0"
    assert str(parse("cos(x1)^2")) == "cos(x1)^2"
    assert str(parse("-tan(x1)")) == "-sin(x1)*cos(x1)^-1"


@given(st.text(alphabet="0123456789+-*/^()x12sincostaexp ", max_size=30))
@settings(max_examples=200)
def test_parser_rejects_garbage_gracefully(text):
    # Arbitrary input either parses or raises ParseError, never crashes.
    try:
        parse(text)
    except ParseError:
        pass


def test_parser_refuses_nesting_past_its_bound():
    # Each parenthesis and unary minus is one level; past MAX_NESTING the
    # parser stops at that token instead of exhausting Python's stack.
    n = MAX_NESTING
    assert parse("(" * n + "x1" + ")" * n) == X1
    assert parse("-" * n + "x1") == X1 * (-1) ** n
    for text in ("(" * 300 + "x1" + ")" * 300, "-" * 3000 + "x1",
                 "(" * n + "-x1" + ")" * n, "-(" * (n // 2) + "-x1" + ")" * (n // 2)):
        with pytest.raises(ParseError, match="MAX_NESTING") as err:
            parse(text)
        assert err.value.pos == n
