"""Scalar arithmetic against the textbook complex formulas.

The real-only fast path in ``+ - * /`` must agree with the general
Gaussian-rational formulas on every mix of real, imaginary and zero inputs.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from affkit.scalars import ZERO, Scalar

RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=12))
GAUSSIAN = st.one_of(
    st.builds(lambda a: Scalar(a, Fraction(0)), RATIONALS),
    st.builds(lambda b: Scalar(Fraction(0), b), RATIONALS),
    st.builds(Scalar, RATIONALS, RATIONALS))


def parts(z: Scalar) -> tuple[Fraction, Fraction]:
    assert type(z.re) is Fraction and type(z.im) is Fraction
    return (z.re, z.im)


@given(GAUSSIAN, GAUSSIAN)
def test_field_operations_match_textbook_formulas(x, y):
    a, b, c, d = x.re, x.im, y.re, y.im
    assert parts(x + y) == (a + c, b + d)
    assert parts(x - y) == (a - c, b - d)
    assert parts(x * y) == (a * c - b * d, a * d + b * c)
    n2 = c * c + d * d
    if n2:
        assert parts(x / y) == ((a * c + b * d) / n2, (b * c - a * d) / n2)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@given(GAUSSIAN, RATIONALS)
def test_rational_factors_scale_both_parts(x, r):
    assert parts(x * r) == (x.re * r, x.im * r)
    assert parts(r * x) == (x.re * r, x.im * r)
    if r:
        assert parts(x / r) == (x.re / r, x.im / r)


def test_real_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        Scalar.of(1) / ZERO
