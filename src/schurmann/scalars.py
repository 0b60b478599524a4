"""Gaussian rationals: exact scalars (a + b*i) / den with Python integers.

All arithmetic in this package happens in the field Q(i).  Equality is exact,
there is no tolerance anywhere.  A scalar is stored fraction-free as two
Gaussian-integer numerators over one positive denominator, kept in lowest
terms (gcd(a, b, den) = 1), so each operation costs a few integer products
and at most one gcd; `re` and `im` are derived `Rational` views for display
and the wire format.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rational = Fraction


def rational(value) -> Rational:
    """Coerce an int, rational or 'p/q' string to a Rational."""
    return Fraction(value)


_new = object.__new__


def _qi(a: int, b: int, den: int) -> "Qi":
    """The scalar (a + b*i) / den; den > 0, not yet reduced."""
    if den != 1:
        g = gcd(a, b, den)
        if g != 1:
            a //= g
            b //= g
            den //= g
    z = _new(Qi)
    z.a = a
    z.b = b
    z.den = den
    return z


class Qi:
    """An element of Q(i); no method changes an instance once it is built."""

    __slots__ = ("a", "b", "den")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.den = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        den = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (den // re.denominator)
        self.b = im.numerator * (den // im.denominator)
        self.den = den

    @property
    def re(self) -> Rational:
        return Fraction(self.a, self.den)

    @property
    def im(self) -> Rational:
        return Fraction(self.b, self.den)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Qi") -> "Qi":
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _qi(self.a + other.a, self.b + other.b, d1)
        return _qi(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    def __sub__(self, other: "Qi") -> "Qi":
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _qi(self.a - other.a, self.b - other.b, d1)
        return _qi(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __neg__(self) -> "Qi":
        return _qi(-self.a, -self.b, self.den)

    def __mul__(self, other: "Qi") -> "Qi":
        a, b, c, d = self.a, self.b, other.a, other.b
        return _qi(a * c - b * d, a * d + b * c, self.den * other.den)

    def __truediv__(self, other: "Qi") -> "Qi":
        c, d = other.a, other.b
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b, f = self.a, self.b, other.den
        return _qi((a * c + b * d) * f, (b * c - a * d) * f, self.den * n)

    def conj(self) -> "Qi":
        return _qi(self.a, -self.b, self.den)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Qi)
            and self.a == other.a
            and self.b == other.b
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.a, self.b, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- display ----------------------------------------------------------

    def __repr__(self) -> str:
        if self.b == 0:
            return str(self.re)
        if self.a == 0:
            return f"{self.im}*i"
        im = str(self.im)
        sign = "+" if not im.startswith("-") else ""
        return f"{self.re}{sign}{im}*i"


ZERO = Qi(0)
ONE = Qi(1)
I = Qi(0, 1)


def _format_rational(r: Rational) -> str:
    return f"{r.numerator}/{r.denominator}"


def scalar_to_json(z: Qi) -> dict:
    """Wire form {"re": "p/q", "im": "p/q"} with decimal integer p, q."""
    return {"re": _format_rational(z.re), "im": _format_rational(z.im)}


def scalar_from_json(obj) -> Qi:
    """Parse the wire form; raises ValueError on malformed input (e.g. '1/0')."""
    if not isinstance(obj, dict) or set(obj) - {"re", "im"}:
        raise ValueError(f"not a scalar object: {obj!r}")
    try:
        re = rational(str(obj.get("re", "0")))
        im = rational(str(obj.get("im", "0")))
    except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
        raise ValueError(f"malformed rational in {obj!r}: {exc}") from None
    return Qi(re, im)
