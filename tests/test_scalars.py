"""Exact scalar layer: rational text forms and the ordered field Q(sqrt2)."""

import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from coneext.scalars import QuadScalar, SQRT2, format_rational, parse_rational, sign
from quad_reference import QuadScalar as RefQuad


def test_parse_rational_basic():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational(" 7/21 ") == Fraction(1, 3)
    assert parse_rational("0") == 0


def test_parse_rational_rejects_junk():
    bad_literal = "bad rational literal"
    for bad, message in (("", "empty rational literal"), ("1//2", bad_literal),
                         ("1.5", bad_literal), ("a/b", bad_literal),
                         ("1/2/3", bad_literal), ("1e3", bad_literal),
                         ("--2", "Invalid literal for Fraction"),
                         ("1/0x", bad_literal), ("1/0", "zero denominator")):
        with pytest.raises(ValueError, match=message):
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
    # sqrt2 - 1 < 2 - sqrt2 < 1 < sqrt2
    assert sorted(vals) == [QuadScalar(-1, 1), QuadScalar(2, -1), QuadScalar(1), QuadScalar(0, 1)]


def test_division_errors_and_inverse():
    with pytest.raises(ZeroDivisionError, match=r"division by zero in Q\(sqrt2\)"):
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


# -- the integer class against the Fraction-pair reference -------------------

def _random_rational(rng):
    """Ints, zero and Fractions over small and large denominators."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-6, 6)
    if kind == 1:
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4, 3, 6, 12)))
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))


def _operand_pairs(seed, count):
    """(new, reference) pairs on the same components; a quarter of them
    rational (b = 0), as the quantum operators' entries mostly are."""
    rng = random.Random(seed)
    for _ in range(count):
        a = _random_rational(rng)
        b = 0 if rng.random() < 0.25 else _random_rational(rng)
        yield QuadScalar(a, b), RefQuad(a, b)


def _same(new, ref):
    return (type(new) is QuadScalar and (new.a, new.b) == (ref.a, ref.b)
            and type(new.a) is type(ref.a) is Fraction)


def _canonical(x):
    return x._d > 0 and math.gcd(x._p, x._q, x._d) == 1


def test_arithmetic_agrees_with_the_fraction_pair_reference():
    pairs = list(_operand_pairs(101, 400))
    rng = random.Random(103)
    for (x, rx), (y, ry) in zip(pairs, pairs[1:] + pairs[:1]):
        r = _random_rational(rng)
        results = [(x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (-x, -rx),
                   (x + r, rx + r), (r + x, r + rx), (x - r, rx - r), (r - x, r - rx),
                   (x * r, rx * r), (r * x, r * rx), (x.conjugate(), rx.conjugate())]
        if not ry.is_zero():
            results += [(x / y, rx / ry), (r / y, r / ry)]
        if r != 0:
            results.append((x / r, rx / r))
        for new, ref in results:
            assert _same(new, ref) and _canonical(new)
        assert x.sign() == rx.sign() and x.is_zero() == rx.is_zero()
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(x, op)(y) == getattr(rx, op)(ry)
            assert getattr(x, op)(r) == getattr(rx, op)(r)


def test_division_by_zero_agrees_with_the_reference():
    for cls in (QuadScalar, RefQuad):
        for zero in (0, Fraction(0), cls(0, 0)):
            with pytest.raises(ZeroDivisionError):
                cls(1, 1) / zero


def test_equality_and_hash_agree_with_the_reference():
    pairs = list(_operand_pairs(107, 400))
    rng = random.Random(109)
    for (x, rx), (y, ry) in zip(pairs, pairs[1:] + pairs[:1]):
        assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
        assert x == QuadScalar(rx.a, rx.b) and hash(x) == hash(rx)
        for r in (_random_rational(rng), rx.a, int(rx.a)):
            assert (x == r) == (rx == r) and (r == x) == (r == rx)
            if x == r:
                assert hash(x) == hash(r)
        assert (x == "1") is (rx == "1") is False
    with pytest.raises(TypeError, match=r"^entry 0\.5 is not an int or a Fraction$"):
        QuadScalar(0.5)
    with pytest.raises(TypeError, match=r"^entry 0\.5 is not an int or a Fraction$"):
        QuadScalar(1) + 0.5


def test_text_forms_agree_with_the_reference():
    for x, rx in _operand_pairs(113, 300):
        assert str(x) == str(rx) and repr(x) == repr(rx)
        back = QuadScalar.parse(str(x))
        assert back == x and _same(back, RefQuad.parse(str(rx))) and _canonical(back)


def test_quad_scalar_is_immutable():
    x = QuadScalar(Fraction(3, 4), -2)
    y = QuadScalar(1, Fraction(1, 2))
    for name in ("a", "b", "_p", "_q", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    for result in (x + y, x - y, x * y, x / y, -x, x.conjugate()):
        assert result is not x and result is not y
    assert (x.a, x.b, y.a, y.b) == (Fraction(3, 4), -2, 1, Fraction(1, 2))
    assert QuadScalar.of(x) is x
