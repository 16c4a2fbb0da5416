"""Exact Gaussian-rational scalars.

A :class:`Scalar` is a complex number ``re + im*i`` with arbitrary-precision
rational parts.  All arithmetic is exact; there is no rounding anywhere.
Scalars with ``im == 0`` are closed under the four field operations, and
conjugation is an involution.  When both operands are real, ``+ - * /``
take a fast path: one Fraction operation and a shared zero imaginary part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


# Python reads and prints int <-> decimal strings up to a digit limit; its
# ValueError says DIGIT_LIMIT, and DIGIT_LIMIT_HINT tells a user the way out.
DIGIT_LIMIT = "integer string conversion"
DIGIT_LIMIT_HINT = ("(4300 digits by default); the environment variable PYTHONINTMAXSTRDIGITS "
                    "raises the limit, and 0 lifts it")


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' strings to an exact Fraction.

    A malformed string, one with a zero denominator or one with more digits
    than Python reads raises ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
        except ValueError as exc:
            if DIGIT_LIMIT not in str(exc):
                raise
            raise ValueError(f"an input number of {len(x)} characters is longer than Python "
                             f"reads {DIGIT_LIMIT_HINT}") from None
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


@dataclass(frozen=True, slots=True)
class Scalar:
    """A Gaussian rational ``re + im*i`` with exact Fraction parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> Scalar:
        return Scalar(as_fraction(re), as_fraction(im))

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> Scalar:
        return Scalar(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def __add__(self, other: Scalar) -> Scalar:
        if not self.im and not other.im:
            return Scalar(self.re + other.re, _F0)
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: Scalar) -> Scalar:
        if not self.im and not other.im:
            return Scalar(self.re - other.re, _F0)
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> Scalar:
        return Scalar(-self.re, -self.im)

    def __mul__(self, other) -> Scalar:
        if isinstance(other, (int, Fraction)):
            return Scalar(self.re * other, self.im * other)
        if not self.im and not other.im:
            return Scalar(self.re * other.re, _F0)
        return Scalar(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Scalar:
        if isinstance(other, (int, Fraction)):
            return Scalar(self.re / other, self.im / other)
        if not self.im and not other.im:
            return Scalar(self.re / other.re, _F0)   # Fraction raises on zero
        n2 = other.norm2()
        if not n2:
            raise ZeroDivisionError("division by zero Scalar")
        num = self * other.conjugate()
        return Scalar(num.re / n2, num.im / n2)

    def __pow__(self, n: int) -> Scalar:
        if n < 0:
            return (ONE / self) ** (-n)
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        """'a', 'b*i' or 'a+b*i': the parser's exp-coefficient grammar, so
        ``Expr``'s printer uses it for frequencies and coefficients too."""
        if self.is_real:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


_F0 = Fraction(0)
ZERO = Scalar(_F0, _F0)
ONE = Scalar(Fraction(1), Fraction(0))
I = Scalar(Fraction(0), Fraction(1))
