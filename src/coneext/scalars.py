"""Exact scalar arithmetic: arbitrary-precision rationals and the ordered field Q(sqrt2).

Rationals are ``fractions.Fraction`` (already canonical: reduced, positive
denominator, exact zero ``0/1``).  This module adds the one int-or-Fraction
gate, ``rational``, the plain-text forms used by the file formats, and
``QuadScalar``, numbers ``a + b*sqrt(2)`` with rational components and a
purely algebraic sign test.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def rational(entries):
    """``entries`` as a tuple; TypeError unless each is an int or a Fraction,
    so that a float is never read as its binary value, nor a str parsed."""
    entries = tuple(entries)
    for e in entries:
        if not isinstance(e, (int, Fraction)):
            raise TypeError(f"entry {e!r} is not an int or a Fraction")
    return entries


def vec(entries):
    """The int or Fraction ``entries`` (``rational``) as Fractions."""
    return tuple(e if type(e) is Fraction else Fraction(e) for e in rational(entries))


def format_rational(q):
    """Render an int or a Fraction (``rational``) as ``p/q``, or ``p`` when
    the denominator is 1."""
    (q,) = rational((q,))
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def sign(q):
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0


def _parts(value):
    """(numerator, denominator) of an int or a Fraction (``rational``), in
    lowest terms."""
    (value,) = rational((value,))
    return value.numerator, value.denominator


class QuadScalar:
    """An element a + b*sqrt(2) of Q(sqrt2), with exact rational components.

    It is held as three ints, (p + q*sqrt2)/d with d > 0 and
    gcd(p, q, d) = 1, so each element has one representation (sqrt2 is
    irrational) and equality compares ints.  ``a`` and ``b`` read the
    components as Fractions, and ``sign`` never leaves integer arithmetic.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a=0, b=0):
        (p, e), (q, f) = _parts(a), _parts(b)
        # d = lcm(e, f) leaves gcd(p, q, d) = 1: the highest power of a
        # prime that divides d divides e (or f) and not d // e, and it does
        # not divide p, which is coprime to e
        d = lcm(e, f)
        _set_p(self, p * (d // e))
        _set_q(self, q * (d // f))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadScalar is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not through __setattr__
        return QuadScalar, (self.a, self.b)

    @property
    def a(self):
        return Fraction(self._p, self._d)

    @property
    def b(self):
        return Fraction(self._q, self._d)

    @classmethod
    def of(cls, value):
        if isinstance(value, QuadScalar):
            return value
        p, d = _parts(value)
        return _quad(p, 0, d)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = QuadScalar.of(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._p + other._p, self._q + other._q, d)
        return _reduced(self._p * e + other._p * d, self._q * e + other._q * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self._p, -self._q, self._d)

    def __sub__(self, other):
        return self + (-QuadScalar.of(other))

    def __rsub__(self, other):
        return QuadScalar.of(other) + (-self)

    def __mul__(self, other):
        other = QuadScalar.of(other)
        # (p + q r)(s + t r) = ps + 2qt + (pt + qs) r   with r*r = 2
        p, q, s, t = self._p, self._q, other._p, other._q
        return _reduced(p * s + 2 * q * t, p * t + q * s, self._d * other._d)

    __rmul__ = __mul__

    def conjugate(self):
        return _quad(self._p, -self._q, self._d)

    def __truediv__(self, other):
        other = QuadScalar.of(other)
        # x / y = x * conj(y) / (y * conj(y)), and y * conj(y) is the
        # rational (s^2 - 2t^2) / e^2
        p, q, s, t = self._p, self._q, other._p, other._q
        norm = s * s - 2 * t * t
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        e = other._d
        d = self._d * norm
        if d < 0:
            d, e = -d, -e
        return _reduced((p * s - 2 * q * t) * e, (q * s - p * t) * e, d)

    def __rtruediv__(self, other):
        return QuadScalar.of(other) / self

    # -- comparisons --------------------------------------------------------

    def sign(self):
        """Exact sign via case analysis on the components; no radicals.

        With mixed component signs the larger of p*p and 2*q*q decides;
        sqrt2 is irrational, so the two are never equal.
        """
        p, q = self._p, self._q
        if p * q >= 0:
            return sign(p) or sign(q)
        return sign(p) if p * p > 2 * q * q else sign(q)

    def is_zero(self):
        return self._p == 0 and self._q == 0

    def __eq__(self, other):
        if isinstance(other, QuadScalar):
            return self._p == other._p and self._q == other._q and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return (self._q == 0 and self._p == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a rational equals its QuadScalar, so the two must hash alike
        return hash(self.a) if self._q == 0 else hash((self.a, self.b))

    def __lt__(self, other):
        return (self - QuadScalar.of(other)).sign() < 0

    def __le__(self, other):
        return (self - QuadScalar.of(other)).sign() <= 0

    def __gt__(self, other):
        return (self - QuadScalar.of(other)).sign() > 0

    def __ge__(self, other):
        return (self - QuadScalar.of(other)).sign() >= 0

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


# the slot setters bypass the raising __setattr__
_set_p = QuadScalar._p.__set__
_set_q = QuadScalar._q.__set__
_set_d = QuadScalar._d.__set__


def _quad(p, q, d):
    """The QuadScalar (p + q*sqrt2)/d of ints already in lowest terms."""
    x = object.__new__(QuadScalar)
    _set_p(x, p)
    _set_q(x, q)
    _set_d(x, d)
    return x


def _reduced(p, q, d):
    """The QuadScalar (p + q*sqrt2)/d of ints with d > 0."""
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
    return _quad(p, q, d)


SQRT2 = QuadScalar(0, 1)
