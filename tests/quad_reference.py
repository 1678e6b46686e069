"""The Fraction-pair ``QuadScalar`` that ``coneext.scalars`` held before it
moved to ints: each element kept its components a and b as two Fractions,
and every operation built and reduced them.  The differential tests in
``test_scalars.py`` check the integer class against it."""

from fractions import Fraction

from coneext.scalars import SQRT2_TOKEN, format_rational, parse_rational, sign


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
