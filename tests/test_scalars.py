"""Exact scalar layer: rational text forms and the ordered field Q(sqrt2)."""

import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from coneext.scalars import QuadScalar, SQRT2, format_rational, parse_rational, sign


def test_parse_rational_basic():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational(" 7/21 ") == Fraction(1, 3)
    assert parse_rational("0") == 0


def test_parse_rational_rejects_junk():
    for bad in ("", "1//2", "1.5", "a/b", "1/2/3", "1e3", "--2", "1/0x", "1/0"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_round_trip():
    rng = random.Random(11)
    for _ in range(300):
        q = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(1, -2)) == "-1/2"


def test_fraction_arithmetic_is_exact():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(2, 4) == Fraction(1, 2)


def test_comparison_matches_cross_multiplication():
    rng = random.Random(5)
    for _ in range(500):
        p, r = rng.randint(-50, 50), rng.randint(-50, 50)
        q, s = rng.randint(1, 50), rng.randint(1, 50)
        assert (Fraction(p, q) < Fraction(r, s)) == (p * s < r * q)
    # 3*9 = 27 < 28 = 4*7
    assert Fraction(3, 7) < Fraction(4, 9)


def _random_quad(rng, span=60):
    return QuadScalar(
        Fraction(rng.randint(-span, span), rng.randint(1, span)),
        Fraction(rng.randint(-span, span), rng.randint(1, span)),
    )


def test_field_axioms_on_random_triples():
    rng = random.Random(23)
    for _ in range(200):
        x, y, z = (_random_quad(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
    one = QuadScalar(1)
    for _ in range(100):
        x = _random_quad(rng)
        if not x.is_zero():
            assert x * (one / x) == one


def test_conjugate_product_identity():
    rng = random.Random(31)
    for _ in range(200):
        x = _random_quad(rng)
        prod = x * x.conjugate()
        assert prod.b == 0
        assert prod.a == x.a * x.a - 2 * x.b * x.b


def _decimal_sign(x):
    getcontext().prec = 100
    root2 = Decimal(2).sqrt()
    val = (Decimal(x.a.numerator) / Decimal(x.a.denominator)
           + Decimal(x.b.numerator) / Decimal(x.b.denominator) * root2)
    if val == 0:
        return 0
    return 1 if val > 0 else -1


def test_sign_matches_100_digit_decimal_on_1000_randoms():
    rng = random.Random(47)
    for _ in range(1000):
        x = _random_quad(rng)
        assert x.sign() == _decimal_sign(x)


def test_sign_specific_cases():
    assert QuadScalar(0, 0).sign() == 0
    # 1 - sqrt2/2: components disagree, 1 > 2*(1/4)
    assert QuadScalar(1, Fraction(-1, 2)).sign() == 1
    # -3 + 2 sqrt2: 9 > 8 so the rational part wins
    assert QuadScalar(-3, 2).sign() == -1
    assert SQRT2.sign() == 1
    # near-cancellation pairs around sqrt2 = 1.41421...
    assert QuadScalar(Fraction(-141421, 100000), 1).sign() == 1
    assert QuadScalar(Fraction(-141422, 100000), 1).sign() == -1


def test_comparison_operators():
    assert QuadScalar(1, 1) > 2
    assert QuadScalar(1, 1) < Fraction(5, 2)
    assert QuadScalar(3, 0) == 3
    assert QuadScalar(0, 1) != 1
    vals = [QuadScalar(0, 1), QuadScalar(1), QuadScalar(-1, 1), QuadScalar(2, -1)]
    assert sorted(vals) == sorted(vals, key=float)


def test_division_errors_and_inverse():
    with pytest.raises(ZeroDivisionError):
        QuadScalar(1) / QuadScalar(0, 0)
    assert (QuadScalar(0, 1) / QuadScalar(0, 1)) == 1
    assert 1 / SQRT2 == QuadScalar(0, Fraction(1, 2))


def test_quad_text_form():
    assert str(QuadScalar(Fraction(1, 2), Fraction(-3, 4))) == "1/2 + -3/4 r2"
    assert str(SQRT2) == "0 + 1 r2"
    rng = random.Random(3)
    for _ in range(100):
        x = _random_quad(rng)
        assert QuadScalar.parse(str(x)) == x
    with pytest.raises(ValueError):
        QuadScalar.parse("1/2 + r2")
    with pytest.raises(ValueError):
        QuadScalar.parse("1/2 - 3 r2")


def test_sign_helper():
    assert sign(Fraction(-2, 5)) == -1
    assert sign(0) == 0
    assert sign(7) == 1


@pytest.mark.parametrize("rational", [0, 1, -3, Fraction(2, 3), Fraction(-7, 5)])
def test_rational_quad_scalar_hashes_like_its_rational(rational):
    """A QuadScalar with b = 0 equals its rational part, so it hashes like
    it: dict lookups and sets treat the two as one key."""
    q = QuadScalar(rational)
    assert q == rational and hash(q) == hash(rational)
    assert {rational: "x"}.get(q) == "x"
    assert len({rational, q}) == 1
    assert hash(QuadScalar(rational, 1)) == hash(QuadScalar(rational, 1))
    assert QuadScalar(rational, 1) not in {rational}
