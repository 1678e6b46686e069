"""Exact scalar arithmetic: arbitrary-precision rationals and the ordered field Q(sqrt2).

Rationals are ``fractions.Fraction`` (already canonical: reduced, positive
denominator, exact zero ``0/1``).  This module adds the plain-text forms used
by the file formats plus ``QuadScalar``, numbers ``a + b*sqrt(2)`` with
rational components and a purely algebraic sign test.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

SQRT2_TOKEN = "r2"


def parse_rational(text):
    """Parse ``p/q`` or ``p`` into a Fraction. Raises ValueError on junk."""
    text = text.strip()
    if not text:
        raise ValueError("empty rational literal")
    # Fraction() accepts floats-as-strings like "1.5"; the file format does not.
    if any(c not in "0123456789/+-" for c in text):
        raise ValueError(f"bad rational literal {text!r}")
    if text.count("/") > 1:
        raise ValueError(f"bad rational literal {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(q):
    """Render a Fraction as ``p/q``, or ``p`` when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def sign(q):
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational, got {type(value).__name__}")


class QuadScalar:
    """An element a + b*sqrt(2) of Q(sqrt2), with exact rational components.

    Equality is componentwise (sqrt2 is irrational, so the representation is
    unique) and ``sign`` never leaves rational arithmetic.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("QuadScalar is immutable")

    @classmethod
    def of(cls, value):
        if isinstance(value, QuadScalar):
            return value
        return cls(_as_fraction(value))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = QuadScalar.of(other)
        return QuadScalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-QuadScalar.of(other))

    def __rsub__(self, other):
        return QuadScalar.of(other) + (-self)

    def __mul__(self, other):
        other = QuadScalar.of(other)
        # (a + b r)(c + d r) = ac + 2bd + (ad + bc) r   with r*r = 2
        return QuadScalar(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return QuadScalar(self.a, -self.b)

    def __truediv__(self, other):
        other = QuadScalar.of(other)
        norm = other.a * other.a - 2 * other.b * other.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        conj = other.conjugate()
        num = self * conj
        return QuadScalar(num.a / norm, num.b / norm)

    def __rtruediv__(self, other):
        return QuadScalar.of(other) / self

    # -- comparisons --------------------------------------------------------

    def sign(self):
        """Exact sign via case analysis on the components; no radicals.

        With mixed component signs the tie is decided by comparing a*a
        against 2*b*b (sqrt2 irrational, so equality would force a = b = 0).
        """
        sa = sign(self.a)
        sb = sign(self.b)
        if sa == 0:
            return sb
        if sb == 0:
            return sa
        if sa == sb:
            return sa
        d = self.a * self.a - 2 * self.b * self.b
        if d == 0:
            raise AssertionError("a^2 = 2 b^2 is impossible for nonzero rationals")
        return sa if d > 0 else sb

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadScalar.of(other)
        if not isinstance(other, QuadScalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # a rational equals its QuadScalar, so the two must hash alike
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __lt__(self, other):
        return (self - QuadScalar.of(other)).sign() < 0

    def __le__(self, other):
        return (self - QuadScalar.of(other)).sign() <= 0

    def __gt__(self, other):
        return (self - QuadScalar.of(other)).sign() > 0

    def __ge__(self, other):
        return (self - QuadScalar.of(other)).sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * (2.0 ** 0.5)

    # -- text form ----------------------------------------------------------

    def __str__(self):
        return f"{format_rational(self.a)} + {format_rational(self.b)} {SQRT2_TOKEN}"

    def __repr__(self):
        return f"QuadScalar({self.a!r}, {self.b!r})"

    @classmethod
    def parse(cls, text):
        """Parse the canonical form ``p/q + r/s r2``."""
        parts = text.split()
        if len(parts) != 4 or parts[1] != "+" or parts[3] != SQRT2_TOKEN:
            raise ValueError(f"bad Q(sqrt2) literal {text!r}")
        return cls(parse_rational(parts[0]), parse_rational(parts[2]))


SQRT2 = QuadScalar(0, 1)
