"""Exact simplex: verified points, Farkas refutations, conic membership."""

import hashlib
import inspect
import random
import weakref
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from coneext import linalg
from coneext.hierarchy import ext_k_membership
from coneext.linalg import clear_denominators, dot
from coneext.lp import (FEASIBLE, INFEASIBLE, LpProblem, conic_membership,
                        solve, verify_farkas, verify_point)
from coneext.scalars import vec
from test_tools import ladder


def test_infeasible_with_farkas_certificate():
    p = LpProblem.build(1, ge_rows=[((-1,), 1)], nonneg=(0,))
    out = solve(p)
    assert out.status == INFEASIBLE
    verify_farkas(p, out.certificate)


def test_equality_system_feasibility():
    p = LpProblem.build(
        2,
        eq_rows=[((1, 1), 3), ((1, -1), 1)],
    )
    out = solve(p)
    assert out.status == FEASIBLE
    assert out.point == (2, 1)
    verify_point(p, out.point)


def test_square_cone_membership_by_hand():
    rays = [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)]
    target = (2, 0, 0)
    out = conic_membership(vec(target), [vec(r) for r in rays])
    assert out.member
    total = (0, 0, 0)
    for w, r in zip(out.weights, rays):
        assert w >= 0
        total = tuple(t + w * c for t, c in zip(total, r))
    assert total == target


def test_conic_target_is_generator():
    gens = [vec((1, 2)), vec((0, 1))]
    out = conic_membership(vec((1, 2)), gens)
    assert out.member


def test_conic_zero_target():
    out = conic_membership(vec((0, 0, 0)), [vec((1, 1, 0)), vec((1, -1, 0))])
    assert out.member
    assert all(w == 0 for w in out.weights)


def test_conic_unique_midpoint_weights():
    out = conic_membership(vec((1, 0, 0)), [vec((1, 1, 0)), vec((1, -1, 0))])
    assert out.member
    assert out.weights == (Fraction(1, 2), Fraction(1, 2))


def test_conic_separation():
    rays = [vec(r) for r in ((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1))]
    out = conic_membership(vec((0, 0, 1)), rays)
    assert not out.member
    h = out.separating
    assert dot(h, (0, 0, 1)) < 0
    for r in rays:
        assert dot(h, r) >= 0


def test_conic_empty_generator_list():
    assert conic_membership(vec((0, 0)), []).member
    out = conic_membership(vec((1, 0)), [])
    assert not out.member
    assert dot(out.separating, (1, 0)) < 0


def test_determinism():
    p = LpProblem.build(
        3,
        ge_rows=[((1, 2, -1), 1), ((0, 1, 1), 2), ((-1, 0, 3), 0)],
        nonneg=(0, 1, 2),
    )
    assert solve(p) == solve(p)


def test_random_conic_round_trip():
    """Targets built as known nonnegative combinations must come back member,
    and whatever certificate is returned must re-verify against the data."""
    rng = random.Random(97)
    for _ in range(40):
        dim = rng.randint(2, 5)
        gens = [vec([rng.randint(-4, 4) for _ in range(dim)])
                for _ in range(rng.randint(1, 6))]
        weights = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in gens]
        target = [Fraction(0)] * dim
        for w, g in zip(weights, gens):
            target = [t + w * c for t, c in zip(target, g)]
        out = conic_membership(vec(target), gens)
        assert out.member
        rebuilt = [Fraction(0)] * dim
        for w, g in zip(out.weights, gens):
            assert w >= 0
            rebuilt = [t + w * c for t, c in zip(rebuilt, g)]
        assert tuple(rebuilt) == tuple(target)


def test_random_queries_always_carry_valid_certificates():
    rng = random.Random(101)
    member = nonmember = 0
    for _ in range(60):
        dim = rng.randint(2, 4)
        gens = [vec([rng.randint(-3, 3) for _ in range(dim)])
                for _ in range(rng.randint(1, 5))]
        target = vec([rng.randint(-6, 6) for _ in range(dim)])
        out = conic_membership(target, gens)
        if out.member:
            member += 1
            rebuilt = [Fraction(0)] * dim
            for w, g in zip(out.weights, gens):
                assert w >= 0
                rebuilt = [t + w * c for t, c in zip(rebuilt, g)]
            assert tuple(rebuilt) == tuple(target)
        else:
            nonmember += 1
            h = out.separating
            assert dot(h, target) < 0
            for g in gens:
                assert dot(h, g) >= 0
    assert member > 0 and nonmember > 0


def _random_lps():
    """(kind, problem) pairs: 60 LPs on integer data (kind 0), then 60 on
    fractional data with denominators 1-4 and more rows (kind 1), so that
    rows start with denominators other than 1.  Each draw of the objective
    that the LPs once carried is kept and discarded, so the rows stay as
    they were."""
    rng = random.Random(103)

    def integral(m):
        return rng.randint(-m, m)

    def fractional(m):
        return Fraction(rng.randint(-2 * m, 2 * m), rng.randint(1, 4))

    for kind, (coef, max_eq, max_ge) in enumerate(((integral, 2, 3),
                                                   (fractional, 3, 5))):
        for _ in range(60):
            nv = rng.randint(1, 4)
            problem = LpProblem.build(
                nv,
                eq_rows=[(tuple(coef(3) for _ in range(nv)), coef(3))
                         for _ in range(rng.randint(0, max_eq))],
                ge_rows=[(tuple(coef(3) for _ in range(nv)), coef(3))
                         for _ in range(rng.randint(0, max_ge))],
                nonneg=tuple(j for j in range(nv) if rng.random() < 0.7),
            )
            for _ in range(nv):
                coef(2)
            yield kind, problem


def _judged(problem):
    """Solve and re-check the outcome with its judge."""
    out = solve(problem)
    if out.status == FEASIBLE:
        verify_point(problem, out.point)
    else:
        verify_farkas(problem, out.certificate)
    return out


def test_random_lps_self_verify():
    """Each kind of random LP reaches both outcomes, each re-verified."""
    statuses = {0: set(), 1: set()}
    for kind, p in _random_lps():
        statuses[kind].add(_judged(p).status)
    for seen in statuses.values():
        assert seen == {FEASIBLE, INFEASIBLE}


def _pinned_rows():
    """``(num_vars, eq_rows, ge_rows, nonneg)`` of seeded LPs mixing
    equality and inequality rows, free and nonnegative variables, integer
    and fractional data, the rows as drawn.  Most are feasible by
    construction around a hidden point; some carry a redundant equality
    row.  Four in five once carried an objective; its draw is kept and
    discarded, so the rows stay as they were."""
    rng = random.Random(211)

    def coef():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))

    for t in range(32):
        nv = rng.randint(1, 5)
        nonneg = tuple(j for j in range(nv) if rng.random() < 0.6)
        x0 = [abs(coef()) if j in nonneg else coef() for j in range(nv)]

        def rhs(r, slack):
            return dot(r, x0) - slack if t % 4 else coef()

        eqs = []
        for _ in range(rng.randint(0, 3)):
            r = vec(coef() for _ in range(nv))
            eqs.append((r, rhs(r, 0)))
        if eqs and t % 3 == 0:
            r, b = eqs[0]
            eqs.append((tuple(-2 * a for a in r), -2 * b))
        ges = []
        for _ in range(rng.randint(0, 5)):
            r = vec(coef() for _ in range(nv))
            ges.append((r, rhs(r, abs(coef()))))
        if t % 5:
            for _ in range(nv):
                coef()
        yield nv, eqs, ges, nonneg


def _pinned_corpus():
    """The LPs of ``_pinned_rows``, each made by ``build``."""
    for nv, eqs, ges, nonneg in _pinned_rows():
        yield LpProblem.build(nv, eq_rows=eqs, ge_rows=ges, nonneg=nonneg)


def _corpus_lps():
    """The pinned and then the random LPs."""
    return (*_pinned_corpus(), *(p for _, p in _random_lps()))


def _summary(out):
    def show(v):
        return "-" if v is None else " ".join(map(str, v))

    # the fourth place held the optimum, which solve no longer returns; it
    # stays so that the lines of LPs that never had an objective read as
    # they were pinned before
    return "|".join((out.status, show(out.point), show(out.certificate),
                     "-", show(out.ray)))


# (status | point | Farkas certificate | - | ray) for each problem of
# _pinned_corpus(); any change to the pivot sequence changes these.  The
# comment on each line says whether the LP once carried an objective.  Four
# points were re-captured under the lexicographic ratio test and free
# columns first; every status stayed as it was.
_PINNED = [
    'feasible|1 0 0 22/3 17/3|-|-|-',  # 5 vars, 4 eq, 3 ge, no obj
    'feasible|0 0 49/36 0 0|-|-|-',  # 5 vars, 1 eq, 1 ge, obj
    'feasible|0 0 0 0 0|-|-|-',  # 5 vars, 0 eq, 0 ge, obj
    'feasible|0 3/2 9/4 0|-|-|-',  # 4 vars, 3 eq, 0 ge, obj
    'infeasible|-|-67/146 48/73 -1 1 0|-|-',  # 3 vars, 3 eq, 2 ge, obj
    'feasible|0 0 0 0 20/9|-|-|-',  # 5 vars, 1 eq, 0 ge, no obj
    'feasible|0 0 0|-|-|-',  # 3 vars, 0 eq, 1 ge, obj
    'feasible|-3/2 -13/4 1/6|-|-|-',  # 3 vars, 2 eq, 2 ge, obj
    'infeasible|-|-1 1 1 2/3|-|-',  # 1 vars, 3 eq, 1 ge, obj
    'feasible|0 0 31/8 0 0|-|-|-',  # 5 vars, 2 eq, 0 ge, obj
    'feasible|31/33 0 0 0 -86/33|-|-|-',  # 5 vars, 1 eq, 2 ge, no obj
    'feasible|0 0 0 0|-|-|-',  # 4 vars, 0 eq, 2 ge, obj
    'infeasible|-|1 0 0 0 0|-|-',  # 3 vars, 0 eq, 5 ge, obj
    'feasible|1/3|-|-|-',  # 1 vars, 2 eq, 0 ge, obj
    'feasible|2 1|-|-|-',  # 2 vars, 3 eq, 4 ge, obj
    'feasible|4|-|-|-',  # 1 vars, 2 eq, 1 ge, no obj
    'feasible|0 7/4 0 5/24 91/36|-|-|-',  # 5 vars, 0 eq, 5 ge, obj
    'feasible|0 0 0 0 0|-|-|-',  # 5 vars, 0 eq, 2 ge, obj
    'feasible|0 0 0 -7/4 0|-|-|-',  # 5 vars, 0 eq, 1 ge, obj
    'feasible|157/75 0 0 0 73/225|-|-|-',  # 5 vars, 2 eq, 0 ge, obj
    'infeasible|-|-1 -1 1 19/3 13/2|-|-',  # 3 vars, 3 eq, 2 ge, no obj
    'feasible|1|-|-|-',  # 1 vars, 4 eq, 4 ge, obj
    'feasible|0 0 0 0 1|-|-|-',  # 5 vars, 1 eq, 0 ge, obj
    'feasible|280/151 777/151 -1/453 -541/453|-|-|-',  # 4 vars, 1 eq, 4 ge, obj
    'feasible|0|-|-|-',  # 1 vars, 2 eq, 3 ge, obj
    'feasible|-325/134 343/134 773/201 54/67|-|-|-',  # 4 vars, 2 eq, 5 ge, no obj
    'feasible|2|-|-|-',  # 1 vars, 2 eq, 2 ge, obj
    'feasible|3/2|-|-|-',  # 1 vars, 3 eq, 5 ge, obj
    'feasible|0 149/33 188/11 390/11 0|-|-|-',  # 5 vars, 3 eq, 0 ge, obj
    'feasible|3/2 -3 4/3 4|-|-|-',  # 4 vars, 3 eq, 2 ge, obj
    'feasible|0 0 5/3|-|-|-',  # 3 vars, 0 eq, 2 ge, no obj
    'feasible|319/408 0 0 1849/612 395/136|-|-|-',  # 5 vars, 0 eq, 4 ge, obj
]


def test_pinned_outcomes():
    outs = [solve(p) for p in _pinned_corpus()]
    assert {o.status for o in outs} == {FEASIBLE, INFEASIBLE}
    assert [_summary(o) for o in outs] == _PINNED


# -- the pivot sequence and the tableau rows ---------------------------------

def _observe_pivots(monkeypatch, before=None, after=None):
    """Wrap every pivot made from here on: ``before(tab, r, c)`` runs ahead
    of it and ``after(tab, r, c)`` once it is made."""
    from coneext import lp

    pivot = lp._Tableau.pivot

    def observed(tab, r, c):
        if before:
            before(tab, r, c)
        pivot(tab, r, c)
        if after:
            after(tab, r, c)

    monkeypatch.setattr(lp._Tableau, "pivot", observed)


def _tag(tab, c):
    """The (kind, index) of column c of ``tab``, as the pivot records name
    columns: ("var", j) for x_j, column j; ("sur", i) for the surplus of ge
    row i, column ``sur0 + i``; ("art", r) for the artificial of row r,
    column ``art0 + r``."""
    if c < tab.sur0:
        return "var", c
    if c < tab.art0:
        return "sur", c - tab.sur0
    return "art", c - tab.art0


@pytest.fixture
def pivots(monkeypatch):
    """The (leaving row, entering column's tag, direction) of each pivot
    made from here on: the direction is -1 where a free column enters
    downward, at a negative entry of its row, and 1 otherwise."""
    seen = []
    _observe_pivots(monkeypatch, before=lambda tab, r, c: seen.append(
        (r, _tag(tab, c), 1 if tab.T[r][c] > 0 else -1)))
    return seen


def _digest(pivots):
    return hashlib.sha256(repr(pivots).encode()).hexdigest()


# sha256 of repr of the pivot sequence, as ``pivots`` records it, of each LP
# of _pinned_corpus(), with its pivot count in the comment, captured under
# guarded Dantzig pricing with free columns first and the lexicographic
# ratio test: a free column with a nonzero cost enters before any other,
# the most negative price enters within each kind, ratio ties go to the
# lexicographically least row of surplus entries, and Bland's rule takes
# over after a basis repeats within a run of degenerate pivots.  The
# records name columns by tag, so a renumbering of the columns that keeps
# their order leaves these as they are.  A free variable that
# enters is frozen: its row leaves the tableau, so it never leaves and the
# later rows are numbered without it.  A change of pricing rule, of the
# ratio test's tie-break or of the freezing rule changes these.  Each is
# phase 1 alone.
_PINNED_PIVOTS = [
    '353459c33acb8ebe857f3856289f0f2031f68e3e7577af84e74a4b412bb9436b',  # 6
    '693af878d71d2e38ff77ac5c76ce2606c64b92995bbb580aa010e5ed1cc446b6',  # 1
    '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',  # 0
    '13869874e29b29f599216538efdf4c909c0ac889fd1d377233b14d20d00ea4a0',  # 2
    'a3875a7401c7fe5113a4868e591819efd98e7c81fdae4eef1eaf8d06c804b936',  # 2
    'cb2c9804d4a7f102667a571c1d9efab8328dc34a16701fb3eb9eee35d0faf31d',  # 1
    '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',  # 0
    '9d4239367f53b0871006e04171b0c4061ad959cf42114a2704c6c6c3b3dddc12',  # 4
    'c7af53f84a5e7f32aab461ad2c70ab3743160d7d9fadc341b68fb64d6c020fb0',  # 1
    '693af878d71d2e38ff77ac5c76ce2606c64b92995bbb580aa010e5ed1cc446b6',  # 1
    '5cb1bb80bfda5a14c57ee72051005da83f8e389a683138cd54f1156739480e8e',  # 2
    '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',  # 0
    '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',  # 0
    'c4c07ac1a2ba06d8955f3067120236a4562e2aa867400fe56e51dac4d4399fee',  # 1
    'a23e42fab2bdffab97aa54f4ed143dec1355bfb2fe7d19361ef5824353dfbf4e',  # 5
    'c4c07ac1a2ba06d8955f3067120236a4562e2aa867400fe56e51dac4d4399fee',  # 1
    'aca4808b820a6c0f5ba0fec37427988eb6bcaa2a023e9e78d7e7b128ab148902',  # 4
    '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',  # 0
    '11a12938ab1774d589ec03905d863bea390a6653dbca74d9f78c0e829fdbaed3',  # 1
    '33b4b0a1d02fefb4609917c784dc1944ae098a4622f9b13e73e56bc5cf178ca4',  # 2
    'c9f9c06632403ea84ab214764a9871d2d8011749c5ca3e7fa12847a11286434a',  # 2
    'c4c07ac1a2ba06d8955f3067120236a4562e2aa867400fe56e51dac4d4399fee',  # 1
    'cb2c9804d4a7f102667a571c1d9efab8328dc34a16701fb3eb9eee35d0faf31d',  # 1
    'fac15d12a840f55da4ef268ae4884b29a4de1724476c3e6361e3fde0930fffce',  # 4
    '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',  # 0
    'e8f8ac685be5dd4c3f80a57a43e767d5920af1e8f2892e7da7a18b05b26de7b1',  # 5
    'c4c07ac1a2ba06d8955f3067120236a4562e2aa867400fe56e51dac4d4399fee',  # 1
    'c4c07ac1a2ba06d8955f3067120236a4562e2aa867400fe56e51dac4d4399fee',  # 1
    '01c0dda164749612ba7af1bc01f11c6a20e938bf35290792125016722b4579c0',  # 3
    '9ffba6c259436a3bc6e39821de3f467d8d3b3f5428d99219475f15a7e6914d98',  # 5
    '693af878d71d2e38ff77ac5c76ce2606c64b92995bbb580aa010e5ed1cc446b6',  # 1
    'ca8671174d09f9d9c83f61d9117ce5bd3fdf4ffe1fd01fce488f2aa45861b323',  # 4
]


def test_pinned_pivot_sequences(pivots):
    digests = []
    for p in _pinned_corpus():
        pivots.clear()
        solve(p)
        digests.append(_digest(pivots))
    assert digests == _PINNED_PIVOTS


# (pivot count, sha256 of the pivot sequence) of the one LP of each
# EXT_K_LP_PINS case of tests/test_hierarchy.py, captured with _PINNED_PIVOTS
# under the same rules.  Every variable of these LPs is free, and every ge
# row has rhs 0, so phase 1 starts at a degenerate vertex.
EXT_K_PIVOT_PINS = {
    ("gap-k3", "square-skew", 1): (10, "a8190a628b6a1e84c57951b062a9279c86a43d107b29735b0b42d14e4445cb13"),
    ("gap-k3", "square-skew", 2): (19, "430af4f197a856f128f58bb90cf84c14c53ff151fa1497c418bdebb5db78cb9e"),
    ("gap-k3", "square-skew", 3): (56, "471fbc3a6151939264be17f7addcf2473c1ff3aecaf9ca545de37289cbcd87e1"),
    ("gap-k3", "square-skew", 4): (87, "08d1ccf02c466c86f64277f90bf301abe0ea59e4c972b17cd8358e4f8fde0d32"),
    ("gap-k2", "square-skew", 1): (10, "7ea1249b6bcc76343ddea63806baf2d832cf9a9a0ce5a08b0130acd0bc64a3dd"),
    ("gap-k2", "square-skew", 2): (18, "04eaf88ad0c7b5ed4470f2dc090c1c361f64cffe893a906d8366a4a632d56103"),
    ("gap-k2", "square-skew", 3): (45, "bbb1c949f9654127a184b3ee5294a9a287039810f563647533bc1641c9b2ee12"),
    ("gap-k2", "square-skew", 4): (78, "698173b36408ec81163a17ae2db2092e82652bcdd72d0bed49bcdd4aa118de51"),
    ("box", "square", 1): (10, "f80a9c925cb561b282b72717f654b74da99d1008a35de3ede1e435dea72440a4"),
    ("box", "square", 2): (14, "1dd61ce1be5cf0f951d95b409ac35bfd358064f419143dd0639c719389020b46"),
}


@pytest.mark.parametrize("point,b_name,k", list(EXT_K_PIVOT_PINS))
def test_ext_k_pivot_sequences(pivots, point, b_name, k):
    ext_k_membership(*ladder.case(point, b_name), k)
    assert (len(pivots), _digest(pivots)) == EXT_K_PIVOT_PINS[point, b_name, k]


# (pivot count, sha256 of the pivot sequence) of the pentagon diagonal
# point's one LP, with free variables frozen once basic.  It is a NON-MEMBER
# from k=1 on; Bland's rule stalled at the degenerate apex for 194 pivots at
# k=2 and 2,393 at k=3, guarded Dantzig pricing alone took 47, 99 and 726
# pivots at k=2, 3 and 4, and with frozen free variables 20, 41 and 173,
# before the lexicographic ratio test and free columns first.
PENTAGON_DIAGONAL_PIVOT_PINS = {
    2: (12, "5e3a4fb2ef528ffc88240b72edad0c95939443de0af410cc5a0035f5b5c567f6"),
    3: (18, "5e4811b90bb337df9fe4f56aaf2ba0b92b58e93a910becacd1504500e300751d"),
    4: (25, "563b0e7161356e71c5b823d0e1607b12f165626be7a2cf62504ea3a7aed4007d"),
}


@pytest.mark.parametrize("k", list(PENTAGON_DIAGONAL_PIVOT_PINS))
def test_pentagon_diagonal_leaves_the_apex(pivots, k):
    assert not ext_k_membership(*ladder.case("pentagon-diagonal"), k).member
    assert (len(pivots), _digest(pivots)) == PENTAGON_DIAGONAL_PIVOT_PINS[k]


def _ext_k_corpus(*extra):
    """The arguments of ext_k_membership for each Ext_k pin case, then for
    each ``extra`` (point, B, k), then for the pentagon diagonal at each k
    of its pins."""
    return [*((*ladder.case(point, b_name), k)
              for point, b_name, k in (*EXT_K_PIVOT_PINS, *extra)),
            *((*ladder.case("pentagon-diagonal"), k) for k in PENTAGON_DIAGONAL_PIVOT_PINS)]


# Beale's LP (1955): min -3/4 x0 + 20 x1 - 1/2 x2 + 6 x3 over x >= 0 with
# 1/4 x0 - 8 x1 - x2 + 9 x3 <= 0, 1/2 x0 - 12 x1 - 1/2 x2 + 3 x3 <= 0 and
# x2 <= 1.  The surplus columns 4, 5, 6 start basic at the degenerate apex,
# and Dantzig pricing that breaks ratio ties by the lowest basic column
# cycles back to them after six pivots.  The rows need no artificial, so
# the tableau runs on Beale's costs directly.
_BEALE = LpProblem.build(
    4, ge_rows=[((Fraction(-1, 4), 8, 1, -9), 0),
                ((Fraction(-1, 2), 12, Fraction(1, 2), -3), 0),
                ((0, 0, -1, 0), -1)],
    nonneg=range(4))
_BEALE_COSTS = (Fraction(-3, 4), 20, Fraction(-1, 2), 6, 0, 0, 0)

# The same LP with the first two rows as eq rows, each with its own slack
# variable x4 or x5 >= 0, so that they carry no surplus column.  Pivoted to
# the basis (x4, x5, surplus of x2 <= 1), its tableau rows equal those of
# _BEALE, but the two tied rows now read 0 at the one surplus column, which
# their pivots never reach: the lexicographic keys cannot break their ties,
# and the pivots of Beale's cycle come back.
_BEALE_EQ = LpProblem.build(
    6, eq_rows=[((Fraction(1, 4), -8, -1, 9, 1, 0), 0),
                ((Fraction(1, 2), -12, Fraction(-1, 2), 3, 0, 1), 0)],
    ge_rows=[((0, 0, -1, 0, 0, 0), -1)],
    nonneg=range(6))


def _recorded_bases(monkeypatch):
    """The bases of every pivot made from here on, each after its pivot;
    more than 50 pivots raise."""
    bases = []

    def capped(tab, r, c):
        if len(bases) > 50:
            raise RuntimeError("more than 50 pivots: the run cycles")

    _observe_pivots(monkeypatch, before=capped,
                    after=lambda tab, r, c: bases.append(tuple(tab.basis)))
    return bases


def test_lexicographic_ratio_test_leaves_beales_apex(monkeypatch):
    """The keys break the tie of the first pivot, and the run reaches the
    optimum without a basis repeating."""
    from coneext import lp

    tab = lp._Tableau(_BEALE)
    assert tab.art0 == len(_BEALE_COSTS)
    tab.set_costs(_BEALE_COSTS)
    start, bases = tuple(tab.basis), _recorded_bases(monkeypatch)
    assert tab.run() == "optimal"
    assert tab.value == Fraction(-5, 4)
    assert tab.extract_point() == (1, 0, 1, 0)
    assert start == (4, 5, 6)
    assert len({start, *bases}) == 1 + len(bases) == 3


def test_guard_breaks_beales_cycle(monkeypatch):
    """On _BEALE_EQ the starting basis comes back once, after six
    degenerate pivots; from there Bland's rule leaves the cycle and reaches
    the optimum of Beale's LP."""
    from coneext import lp

    tab = lp._Tableau(_BEALE_EQ)
    assert (tab.sur0, tab.art0) == (6, 7)
    tab.set_costs([0] * tab.art0)
    tab.pivot(0, 4)
    tab.pivot(1, 5)  # each artificial leaves, and its column with it
    tab.set_costs((*_BEALE_COSTS[:4], 0, 0, 0, 0, 0))
    start, bases = tuple(tab.basis), _recorded_bases(monkeypatch)
    assert start == (4, 5, 6)
    assert tab.run() == "optimal"
    assert tab.value == Fraction(-5, 4)
    assert tab.extract_point() == (1, 0, 1, 0, Fraction(3, 4), 0)
    assert bases[5] == start
    assert bases.count(start) == 1


def _bland_run(tab):
    """``_Tableau.run`` under Bland's rule alone, the pricing before the
    guarded Dantzig rule: the lowest structural column that can enter does,
    and ratio ties go to the lowest basic column.  A column can enter
    upward at a negative reduced cost, and a free column downward at a
    positive one."""
    from coneext.lp import _RHS

    while True:
        z = tab.z
        enter = next((c for c in range(tab.art0) if z.get(c, 0) < 0
                      or c in tab.free and z.get(c, 0) > 0), None)
        if enter is None:
            return "optimal"
        sign = 1 if z[enter] < 0 else -1
        leave = None
        for i, row in enumerate(tab.T):
            a = sign * row.get(enter, 0)
            if a > 0:
                rn = row.get(_RHS, 0)
                if leave is None or rn * ba < bn * a or (
                        rn * ba == bn * a and tab.basis[i] < tab.basis[leave]):
                    leave, bn, ba = i, rn, a
        if leave is None:
            return "unbounded"
        tab.pivot(leave, enter)


def test_guarded_dantzig_agrees_with_bland(monkeypatch):
    """On the pinned and the random LPs, the Ext_k pin cases (gap-k3 and
    gap-k2 up to k=4) and the pentagon diagonal at k=2 to 4, the guarded
    rule, with free columns first and the lexicographic ratio test, and
    Bland's rule alone reach the same statuses and verdicts, and every
    outcome passes its judge.  Bland's rule takes 3,566 pivots on the
    pentagon diagonal at k=4, most of this test's time."""
    from coneext import hierarchy, lp

    lps, cases = _corpus_lps(), _ext_k_corpus()
    ext_k_lps = []

    def judged(problem):
        out = _judged(problem)
        ext_k_lps.append(out.status)
        return out

    def outcomes():
        # what every final basis must agree on
        ext_k_lps.clear()
        verdicts = [ext_k_membership(*case).member for case in cases]
        return ([o.status for o in map(_judged, lps)], verdicts, list(ext_k_lps))

    monkeypatch.setattr(hierarchy, "solve", judged)
    guarded = outcomes()
    monkeypatch.setattr(lp._Tableau, "run", _bland_run)
    assert outcomes() == guarded
    assert set(guarded[1]) == {True, False}


def test_live_rows_stay_lexicographically_nonnegative(monkeypatch):
    """Each row's rhs and then its entries at the surplus columns, in column
    order, start lexicographically nonnegative: an eq row and a ge row that
    is not flipped have rhs >= 0, and a flipped ge row reads its positive
    denominator at its own surplus column.  Over the pinned and the random
    LPs, the Ext_k pin cases and the pentagon diagonal's LPs, the
    lexicographic ratio test keeps every live row so after every pivot."""
    from coneext import lp

    rows = []

    def checking(tab, r, c):
        for row in tab.T:
            keys = (row.get(j, 0) for j in (lp._RHS, *range(tab.sur0, tab.art0)))
            assert next((a for a in keys if a), 0) >= 0
        rows.append(len(tab.T))

    _observe_pivots(monkeypatch, after=checking)
    for p in _corpus_lps():
        solve(p)
    for case in _ext_k_corpus():
        ext_k_membership(*case)
    assert len(rows) >= 600, len(rows)


def test_free_columns_enter_first(entering):
    """Over the Ext_k pin cases and the pentagon diagonal's LPs, a
    sign-constrained column enters only when no free column has a nonzero
    reduced cost, and a free column enters at the largest reduced cost in
    absolute value among the free columns."""
    for case in _ext_k_corpus():
        ext_k_membership(*case)
    kinds = set()
    for tag, cost, free_costs in entering:
        if free_costs:
            assert tag[0] == "var" and abs(cost) == max(free_costs), tag
        kinds.add(tag[0])
    assert kinds == {"var", "sur"}


def test_rows_keep_their_invariant_through_every_pivot(monkeypatch):
    """After every pivot of the pinned and the random LPs, each live row and
    each kept row has a positive entry at its basic column, its
    denominator; the reduced-cost row has a positive objective entry and
    none at a basic column; every row is gcd-reduced; and no live row, nor
    the reduced-cost row, holds an entry at an artificial column that is
    not basic or at a frozen column."""
    from coneext import lp

    downward = []

    def checking(tab, r, c):
        gone = set(range(tab.art0, tab.art0 + len(tab.problem.int_rows))) - set(tab.basis)
        gone.update(tab.frozen)
        for row, bcol in (*zip(tab.T, tab.basis), *zip(tab.kept, tab.frozen)):
            assert row[bcol] > 0
            assert gcd(*row.values()) == 1
        for row in (*tab.T, tab.z):
            assert not gone & row.keys()
        assert tab.z[lp._OBJ] > 0
        assert not any(bcol in tab.z for bcol in tab.basis)
        assert gcd(*tab.z.values()) == 1

    _observe_pivots(monkeypatch, before=lambda tab, r, c: downward.append(
        c in tab.free and tab.T[r][c] < 0), after=checking)
    for p in _corpus_lps():
        solve(p)
    assert len(downward) >= 200, len(downward)
    assert any(downward)  # some pivot entered a free column downward


@pytest.fixture
def entering(monkeypatch):
    """(tag of the entering column, its reduced cost, the absolute reduced
    costs of the free columns not yet frozen) of each pivot made from here
    on."""
    seen = []

    def recording(tab, r, c):
        z = tab.z
        seen.append((_tag(tab, c), z.get(c, 0),
                     [abs(z[j]) for j in tab.free if j in z]))

    _observe_pivots(monkeypatch, before=recording)
    return seen


def test_no_pivot_enters_an_artificial_column(entering):
    """Over the pinned and the random LPs, the Ext_k pin cases and the
    pentagon diagonal's LPs, every pivot enters a variable or surplus
    column."""
    for p in _corpus_lps():
        solve(p)
    for case in _ext_k_corpus():
        ext_k_membership(*case)
    assert len(entering) >= 300, len(entering)
    assert {tag[0] for tag, _, _ in entering} == {"var", "sur"}


def test_a_basic_free_variable_never_leaves(monkeypatch):
    """Over the pinned and the random LPs, the Ext_k pin cases, gap-k3 and
    gap-k2 at k=5 and the pentagon diagonal's LPs, no pivot lets a free
    variable's column leave, and each free variable enters at most once in
    an LP."""
    entered = weakref.WeakKeyDictionary()  # tableau -> free variables entered
    leaving = []

    def checking(tab, r, c):
        nonneg = tab.problem.nonneg
        out, into = _tag(tab, tab.basis[r]), _tag(tab, c)
        leaving.append(out[0])
        assert not (out[0] == "var" and out[1] not in nonneg), out
        if into[0] == "var" and into[1] not in nonneg:
            seen = entered.setdefault(tab, set())
            assert into[1] not in seen, into
            seen.add(into[1])

    _observe_pivots(monkeypatch, before=checking)
    for p in _corpus_lps():
        solve(p)
    for case in _ext_k_corpus(("gap-k3", "square-skew", 5), ("gap-k2", "square-skew", 5)):
        ext_k_membership(*case)
    # every kind of basic column has left, a nonnegative variable included
    assert set(leaving) == {"var", "sur", "art"}
    assert len(leaving) >= 800, len(leaving)


def test_one_column_per_variable(monkeypatch):
    """Every tableau of the pinned and the Ext_k LPs has one column per
    variable, column j being x_j, then the surplus of ge row i at column
    ``sur0 + i``, and the artificial of row r at column ``art0 + r`` while
    it lives; a flipped ge row never has one.  ``_eliminate`` takes no
    sign: a free variable has no mirror column."""
    from coneext import lp

    run = lp._Tableau.run
    free, artificials = [], []

    def living(tab):
        # an artificial column is the basic column of its own row alone
        ne, rows = tab.problem.num_eq, tab.problem.int_rows
        for row, bcol in zip(tab.T, tab.basis):
            assert [c for c in row if c >= tab.art0] in ([], [bcol])
            if bcol >= tab.art0:
                r = bcol - tab.art0
                assert r < ne or rows[r][0][-1] > 0  # not a flipped ge row
                artificials.append(r)

    def checking(tab):
        problem = tab.problem
        ne, nv = problem.num_eq, problem.num_vars
        assert (tab.sur0, tab.art0) == (nv, nv + len(problem.int_rows) - ne)
        for r, ((ints, d), row, sg) in enumerate(zip(problem.int_rows, tab.T, tab.sigma)):
            assert {c: a for c, a in row.items() if 0 <= c < nv} == {
                j: sg * a for j, a in enumerate(ints[:-1]) if a}
            if r >= ne:
                assert row[tab.sur0 + r - ne] == -sg * d
            flipped = r >= ne and ints[-1] <= 0
            assert tab.basis[r] == (tab.sur0 + r - ne if flipped else tab.art0 + r)
        living(tab)
        free.append(bool(tab.free))
        return run(tab)

    monkeypatch.setattr(lp._Tableau, "run", checking)
    _observe_pivots(monkeypatch, after=lambda tab, r, c: living(tab))
    for p in _pinned_corpus():
        solve(p)
    for point, b_name, k in EXT_K_PIVOT_PINS:
        ext_k_membership(*ladder.case(point, b_name), k)
    assert sum(free) >= len(EXT_K_PIVOT_PINS), free
    assert len(artificials) >= 100, len(artificials)
    assert len(inspect.signature(lp._eliminate).parameters) == 3


# x0 free, x1 >= 0; 2 x0 = 1 and 3/2 x0 = 4/3 disagree, x0 - x1 >= -1/2.
# Phase 1 pivots x0 in for the first row's artificial and stops at value
# 7/12 with the second row's artificial, the ge row's surplus and x0 basic.
_MIXED_BASIS_LP = LpProblem.build(
    2, eq_rows=[((2, 0), 1), ((Fraction(3, 2), 0), Fraction(4, 3))],
    ge_rows=[((1, -1), Fraction(-1, 2))], nonneg=(1,))
# m_1 = 1 at the basic artificial, m_2 = 0 at the basic surplus, and
# 2 m_0 + 3/2 m_1 = 0 at the basic x0 column
_MIXED_BASIS_CERTIFICATE = (Fraction(-3, 4), Fraction(1), Fraction(0))


def test_multipliers_are_solved_from_a_mixed_final_basis(monkeypatch):
    from coneext import lp

    multipliers = lp._Tableau.multipliers
    kinds = []

    def recording(tab):
        # the full final basis: the live rows' columns and the frozen x0
        kinds.append(sorted(_tag(tab, bcol)[0] for bcol in (*tab.basis, *tab.frozen)))
        return multipliers(tab)

    monkeypatch.setattr(lp._Tableau, "multipliers", recording)
    out = solve(_MIXED_BASIS_LP)
    assert kinds == [["art", "sur", "var"]]
    assert out.status == INFEASIBLE
    assert out.certificate == _MIXED_BASIS_CERTIFICATE
    assert all(type(m) is Fraction for m in out.certificate)


def test_a_solved_multiplier_moved_by_a_seventh_is_rejected(monkeypatch):
    """The solved multiplier m_0 of the mixed-basis LP moved by 1/7 before
    the Farkas check: x0 is free, so the combination stops vanishing on it."""
    from coneext import lp

    multipliers = lp._Tableau.multipliers

    def moved(tab):
        m = multipliers(tab)
        return (m[0] + Fraction(1, 7), *m[1:])

    monkeypatch.setattr(lp._Tableau, "multipliers", moved)
    with pytest.raises(lp.CertificateError, match="nonzero on a free variable"):
        solve(_MIXED_BASIS_LP)


# x0 free, x1 >= 0; x0 + x1 = 3/2 and 2 x0 - x1 = 1/3.  Phase 1 freezes x0
# and leaves x1 = 8/9 basic, so x0 = 11/18 is solved from both rows.
_FROZEN_LP = LpProblem.build(
    2, eq_rows=[((1, 1), Fraction(3, 2)), ((2, -1), Fraction(1, 3))],
    nonneg=(1,))


def test_frozen_value_is_solved_from_the_final_basis():
    assert solve(_FROZEN_LP).point == (Fraction(11, 18), Fraction(8, 9))


def test_a_solved_frozen_value_moved_by_a_seventh_is_rejected(monkeypatch):
    """The solved value of the first frozen free variable of _FROZEN_LP moved
    by 1/7 before the point check."""
    from coneext import lp

    extract_point = lp._Tableau.extract_point

    def moved(tab):
        x = list(extract_point(tab))
        x[tab.frozen[0]] += Fraction(1, 7)
        return tuple(x)

    monkeypatch.setattr(lp._Tableau, "extract_point", moved)
    with pytest.raises(lp.CertificateError, match="^equality row violated$"):
        solve(_FROZEN_LP)


def test_a_kept_row_entry_moved_by_a_seventh_is_rejected():
    """Each entry of the row that _FROZEN_LP's frozen variable took out of
    the tableau, rhs included, moved by 1/7 before that variable is
    back-substituted, gives a point that ``verify_point`` rejects."""
    from coneext import lp

    extract_point = lp._Tableau.extract_point
    kept = []

    def recording(tab):
        kept.extend(tab.kept)
        return extract_point(tab)

    with mock.patch.object(lp._Tableau, "extract_point", recording):
        solve(_FROZEN_LP)
    assert len(kept) == 1
    messages = {}
    for col in kept[0]:
        def moved(tab):
            tab.kept[0][col] += Fraction(1, 7)
            return extract_point(tab)

        with mock.patch.object(lp._Tableau, "extract_point", moved):
            with pytest.raises(lp.CertificateError) as err:
                solve(_FROZEN_LP)
        messages[col] = str(err.value)
    assert set(messages.values()) == {"equality row violated"}
    assert lp._RHS in messages and len(messages) >= 3


def _gauss_jordan_point(tab):
    """The basic solution of a final tableau with the frozen values solved by
    one Gauss-Jordan elimination over the problem rows whose surplus and
    artificial are nonbasic, which hold with equality: the reference for
    ``_Tableau.extract_point``."""
    from coneext.lp import _RHS

    x = [Fraction(0)] * tab.problem.num_vars
    slack = set()  # rows whose surplus or artificial is basic
    for row, bcol in zip(tab.T, tab.basis):
        tag = _tag(tab, bcol)
        if tag[0] == "var":  # a nonnegative variable: free ones are frozen
            x[tag[1]] = Fraction(row.get(_RHS, 0), row[bcol])
        elif tag[0] == "sur":
            slack.add(tab.problem.num_eq + tag[1])
        else:
            slack.add(tag[1])
    if tab.frozen:
        js = tab.frozen
        xs, D = clear_denominators((*x, -1))
        rows = [ints for i, (ints, _) in enumerate(tab.problem.int_rows)
                if i not in slack]
        solution = linalg.solve([[ints[j] for j in js] for ints in rows],
                                [-sum(a * b for a, b in zip(ints, xs)) for ints in rows])
        for j, u in zip(js, solution):
            x[j] = u / D
    return tuple(x)


def _gauss_jordan_multipliers(tab):
    """The Farkas multipliers of an infeasible final tableau with every
    multiplier not fixed by a basic artificial or surplus solved from
    y . B = c_B at the basic variable columns by one Gauss-Jordan
    elimination: the reference for ``_Tableau.multipliers``."""
    rows = tab.problem.int_rows
    mult = [None] * len(rows)
    var_cols = []
    for bcol in (*tab.basis, *tab.frozen):
        tag = _tag(tab, bcol)
        if tag[0] == "art":
            mult[tag[1]] = tab.sigma[tag[1]]
        elif tag[0] == "sur":
            mult[tab.problem.num_eq + tag[1]] = 0
        else:
            var_cols.append(tag[1])
    known = [i for i, m in enumerate(mult) if m]
    unknown = [i for i, m in enumerate(mult) if m is None]
    scale = lcm(*(rows[i][1] for i in known))
    weights = [(mult[i] * (scale // rows[i][1]), rows[i][0]) for i in known]
    solution = linalg.solve(
        [[rows[i][0][j] for i in unknown] for j in var_cols],
        [-sum(w * ints[j] for w, ints in weights) for j in var_cols])
    for i, u in zip(unknown, solution):
        mult[i] = u * Fraction(rows[i][1], scale)
    return tuple(map(Fraction, mult))


def _against_gauss_jordan():
    """(patcher, seen): under the patcher, every point and multiplier tuple
    a final tableau gives is appended to ``seen`` as (route, reference)."""
    from coneext import lp

    extract_point, multipliers = lp._Tableau.extract_point, lp._Tableau.multipliers
    seen = []

    def pointing(tab):
        got = extract_point(tab)
        seen.append((got, _gauss_jordan_point(tab)))
        return got

    def pricing(tab):
        got = multipliers(tab)
        seen.append((got, _gauss_jordan_multipliers(tab)))
        return got

    patches = mock.patch.multiple(lp._Tableau, extract_point=pointing,
                                  multipliers=pricing)
    return patches, seen


def test_certificate_routes_agree_with_gauss_jordan_on_the_pins():
    """Back-substituted points and multipliers read off the cost row equal
    the Gauss-Jordan references, Fraction for Fraction, on every pinned
    Ext_k LP, the pentagon diagonal's LPs and both hand-made LPs."""
    patches, seen = _against_gauss_jordan()
    with patches:
        verdicts = [solve(_MIXED_BASIS_LP).status, solve(_FROZEN_LP).status]
        verdicts.extend(ext_k_membership(*case).member for case in _ext_k_corpus())
    assert len(seen) == len(verdicts) == 2 + len(EXT_K_PIVOT_PINS) + len(
        PENTAGON_DIAGONAL_PIVOT_PINS)
    assert {True, False} <= set(verdicts)
    for got, want in seen:
        assert got == want
        assert all(type(v) is Fraction for v in got)


_SMALL = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3)))


@st.composite
def _mixed_lps(draw):
    """A small LP with free and nonnegative variables, eq and ge rows."""
    nv = draw(st.integers(1, 4))
    row = st.tuples(st.tuples(*[_SMALL] * nv), _SMALL)
    return LpProblem.build(nv, eq_rows=draw(st.lists(row, max_size=3)),
                           ge_rows=draw(st.lists(row, max_size=3)),
                           nonneg=draw(st.sets(st.integers(0, nv - 1))))


@settings(max_examples=300, deadline=None)
@given(_mixed_lps())
def test_certificate_routes_agree_with_gauss_jordan_on_small_lps(problem):
    patches, seen = _against_gauss_jordan()
    with patches:
        out = solve(problem)
    event(out.status)
    event(f"{len(problem.nonneg)} of {problem.num_vars} nonnegative")
    (got, want), = seen
    assert got == want


def test_ext_k_certificates_solve_no_more_than_the_eq_rows(monkeypatch):
    """No Ext_k member reaches a linear solve, and a non-member solves only
    for eq-row multipliers: at most nA nB unknowns."""
    from coneext import lp

    def refused(rows, rhs):
        raise AssertionError("linear_solve reached")

    monkeypatch.setattr(lp, "linear_solve", refused)
    assert ext_k_membership(*ladder.case("gap-k3", "square-skew"), 3).member
    unknowns = []

    def recording(rows, rhs):
        unknowns.append(len(rows[0]))
        return linalg.solve(rows, rhs)

    monkeypatch.setattr(lp, "linear_solve", recording)
    x, a_cone, based = ladder.case("gap-k2", "square-skew")
    assert not ext_k_membership(x, a_cone, based, 3).member
    assert len(unknowns) == 1
    assert 0 < unknowns[0] <= a_cone.dim * based.cone.dim


def test_verifiers_raise_certificate_error():
    """Each verifier reports a bad certificate as ``CertificateError``
    itself, not as the bare ``AssertionError`` it derives from."""
    from coneext import lp

    p = LpProblem.build(1, ge_rows=[((1,), 1)], nonneg=(0,))
    for check, args in ((verify_point, ((0,),)),
                        (verify_farkas, ((1,),))):
        with pytest.raises(AssertionError) as caught:
            check(p, *args)
        assert caught.type is lp.CertificateError, check.__name__


def _rejects(check, *args):
    try:
        check(*args)
    except AssertionError:
        return True
    return False


def _bumped(v, j, new):
    return v[:j] + (new,) + v[j + 1:]


_LINE_GENS = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(-1, 2), Fraction(-1, 3)))
_LINE_TARGET = (Fraction(1, 5), Fraction(-1, 7))


def _separation(certificate):
    """The judge of a conic non-member on the line query, ``solve``'s
    ``verify_farkas``, for a final tableau whose multipliers are
    ``certificate``."""
    from coneext import lp

    with mock.patch.object(lp._Tableau, "multipliers", lambda tab: certificate):
        lp.conic_membership(_LINE_TARGET, _LINE_GENS)


def _mutants(step):
    """(verifier, args) for each pinned LP answer, checked valid first, with
    one entry changed by ``step`` in a way that makes it invalid by
    construction, plus the same for the separation check of a conic query."""
    for p in _pinned_corpus():
        out = solve(p)
        free = [j for j in range(p.num_vars) if j not in p.nonneg]
        if out.status == INFEASIBLE:
            verify_farkas(p, out.certificate)
            ne = len(p.eq_rows)
            for i, ((r, _), lam) in enumerate(zip(p.eq_rows + p.ge_rows, out.certificate)):
                # the combination stops vanishing on a free variable
                news = [lam + step, lam - step] if any(r[j] != 0 for j in free) else []
                if i >= ne:
                    news.append(-lam if lam else -step)  # a negative multiplier
                for m in news:
                    yield verify_farkas, (p, _bumped(out.certificate, i, m))
            continue
        verify_point(p, out.point)
        for j, x in enumerate(out.point):
            news = [x + step, x - step] if any(r[j] != 0 for r, _ in p.eq_rows) else []
            for r, b in p.ge_rows:
                if r[j] != 0 and dot(r, out.point) == b:
                    # step off a tight inequality
                    news.append(x - step if r[j] > 0 else x + step)
            if j in p.nonneg:
                news.append(-step)
            for m in news:
                yield verify_point, (p, _bumped(out.point, j, m))
    # the generators span a line, so a separating functional vanishes on it
    # and each certificate entry moved by the step stops vanishing there
    cert = solve(LpProblem.build(2, eq_rows=[(g, t) for g, t in zip(
        zip(*_LINE_GENS), _LINE_TARGET)], nonneg=(0, 1))).certificate
    for i in range(len(cert)):
        for m in (step, -step):
            yield _separation, (_bumped(cert, i, cert[i] + m),)


def test_verifiers_reject_mutated_certificates():
    """Change one entry of each pinned certificate by 1 in a way that makes
    it invalid by construction; its verifier must reject every such change."""
    tried = {}
    for check, args in _mutants(1):
        assert _rejects(check, *args), (check.__name__, args)
        tried[check.__name__] = tried.get(check.__name__, 0) + 1
    assert min(tried["verify_point"], tried["verify_farkas"]) >= 20, tried


def test_conic_resum_rejects_a_mutated_weight(monkeypatch):
    """Each weight of a valid decomposition, changed by one and read off the
    final tableau, fails the re-sum against the target: ``solve``'s
    ``verify_point`` finds an eq row of the conic LP violated."""
    from coneext import lp

    gens = [vec(r) for r in ((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1))]
    target = vec((3, 1, 1))
    out = conic_membership(target, gens)
    assert out.member
    for i in range(len(gens)):
        bad = _bumped(out.weights, i, out.weights[i] + 1)
        monkeypatch.setattr(lp._Tableau, "extract_point", lambda tab, bad=bad: bad)
        with pytest.raises(lp.CertificateError, match="^equality row violated$"):
            conic_membership(target, gens)


# generators and a target with non-unit denominators, so that the integer
# re-sum has to scale the weights, the generators and the target
_FRACTIONAL_GENS = ((Fraction(1, 2), Fraction(1, 3), 0), (Fraction(1, 2), Fraction(-1, 3), 0),
                    (Fraction(1, 5), 0, Fraction(3, 4)), (Fraction(1, 5), 0, Fraction(-3, 4)))
_FRACTIONAL_TARGET = (Fraction(13, 12), Fraction(1, 9), Fraction(3, 8))


def test_conic_resum_rejects_a_weight_moved_by_a_seventh(monkeypatch):
    """With fractional generators and target, each weight of the valid
    decomposition changed by +-1/7 fails the re-sum."""
    from coneext import lp

    out = conic_membership(_FRACTIONAL_TARGET, _FRACTIONAL_GENS)
    assert out.member
    assert any(w.denominator > 1 for w in out.weights)
    for i in range(len(_FRACTIONAL_GENS)):
        for delta in (Fraction(1, 7), Fraction(-1, 7)):
            bad = _bumped(out.weights, i, out.weights[i] + delta)
            monkeypatch.setattr(lp._Tableau, "extract_point", lambda tab, bad=bad: bad)
            with pytest.raises(lp.CertificateError, match="^equality row violated$"):
                conic_membership(_FRACTIONAL_TARGET, _FRACTIONAL_GENS)


def test_conic_separation_rejects_a_non_separating_certificate(monkeypatch):
    """A final tableau read as infeasible whose multipliers negate a
    functional nonnegative on the target, or negative on a generator, fails
    with ``CertificateError``: ``solve``'s ``verify_farkas`` refuses the
    certificate before ``conic_solve`` could return the functional."""
    from coneext import lp

    # the first query is feasible, so phase 1 ends at value 0 unless forced
    monkeypatch.setattr(lp._Tableau, "value", property(lambda tab: Fraction(1)))
    monkeypatch.setattr(lp._Tableau, "multipliers",
                        lambda tab: (Fraction(-1), Fraction(0)))
    with pytest.raises(lp.CertificateError, match="^Farkas combination has nonpositive rhs$"):
        conic_membership(vec((1, 0)), [vec((1, 0))])
    # negative on the target, but also negative on the second generator
    monkeypatch.setattr(lp._Tableau, "multipliers",
                        lambda tab: (Fraction(-1, 3), Fraction(1, 3)))
    with pytest.raises(lp.CertificateError,
                       match="^Farkas row positive on a nonnegative variable$"):
        conic_membership(vec((-1, 0)), [vec((1, 0)), vec((0, 1))])


def test_each_lp_outcome_is_judged_once(monkeypatch):
    """``solve`` judges each outcome once, and nothing above it judges the
    same outcome again: a conic member and non-member, and the EB LP of the
    square (breaking) and of the skewed square (not breaking) at k = 2,
    each make exactly one call to ``verify_point`` or ``verify_farkas``."""
    from coneext import lp
    from coneext.fixtures import based_cone
    from coneext.hierarchy import is_entanglement_breaking

    point = mock.Mock(wraps=lp.verify_point)
    farkas = mock.Mock(wraps=lp.verify_farkas)
    monkeypatch.setattr(lp, "verify_point", point)
    monkeypatch.setattr(lp, "verify_farkas", farkas)
    rays = [vec(r) for r in ((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1))]
    cases = [
        (lambda: conic_membership(vec((3, 1, 1)), rays).member, True),
        (lambda: conic_membership(vec((0, 0, 1)), rays).member, False),
        (lambda: is_entanglement_breaking(based_cone("square"), 2).breaking, True),
        (lambda: is_entanglement_breaking(based_cone("square-skew"), 2).breaking, False),
    ]
    for decide, member in cases:
        point.reset_mock()
        farkas.reset_mock()
        assert decide() == member
        assert (point.call_count, farkas.call_count) == ((1, 0) if member else (0, 1))


def test_directly_built_problem_with_list_rows():
    """``build`` with list rows solves and re-checks as with tuple rows."""
    eq, ge = [([1, 1], Fraction(1))], [([1, -1], Fraction(3))]
    listed = LpProblem.build(2, eq, ge, nonneg=[0, 1])
    tupled = LpProblem.build(2, (((1, 1), 1),), (((1, -1), 3),), nonneg=(0, 1))
    assert listed.int_rows == tupled.int_rows
    assert solve(listed) == solve(tupled)
    assert solve(listed).status == INFEASIBLE


# -- one cleared copy of the rows per problem ---------------------------------

# a problem beside the seeded ones: list rows, unequal denominators, an int
# rhs and one nonnegative variable
_EXTRA_ROWS = (2, [([1, Fraction(1, 2)], Fraction(2, 3))],
               [([Fraction(-1, 4), 3], 1)], (0,))


def _built_with_rows():
    """Each problem made by ``build``, with the rows it was given."""
    for nv, eqs, ges, nonneg in (*_pinned_rows(), _EXTRA_ROWS):
        yield LpProblem.build(nv, eqs, ges, nonneg), eqs, ges


def test_int_rows_are_the_rows_cleared_once():
    """For each input row (r, b), ``int_rows`` holds a tuple of ints over
    the least common denominator of (r, b), the eq rows first and
    ``num_eq`` of them; ``solve`` reads it without changing it."""
    for p, eqs, ges in _built_with_rows():
        rows = p.int_rows
        assert type(rows) is tuple and len(rows) == len(eqs) + len(ges)
        assert p.num_eq == len(eqs)
        for (ints, d), (r, b) in zip(rows, (*eqs, *ges), strict=True):
            assert type(ints) is tuple and all(type(a) is int for a in ints)
            assert type(d) is int
            assert tuple(Fraction(a, d) for a in ints) == (*r, b)
            assert d == lcm(*(Fraction(a).denominator for a in (*r, b)))
        solve(p)
        assert p.int_rows is rows
        assert rows == tuple((tuple(ints), d) for ints, d in (
            clear_denominators((*r, b)) for r, b in (*eqs, *ges)))


def test_cleared_problem_reads_as_the_built_one(monkeypatch):
    """A problem made from the cleared rows of a built one solves to the
    same outcome without forming its Fraction rows, and once they are read
    they are the rows it was built from and its ``repr`` is the built
    problem's."""
    from coneext import lp

    def refused(int_rows):
        raise AssertionError("Fraction rows formed by the solver")

    for p, eqs, ges in _built_with_rows():
        q = LpProblem(p.num_vars, p.int_rows, p.num_eq, p.nonneg)
        expected = solve(p)
        with monkeypatch.context() as m:
            m.setattr(lp, "_fraction_rows", refused)
            assert solve(q) == expected
        assert "eq_rows" not in vars(q) and "ge_rows" not in vars(q)
        assert q.eq_rows == tuple((vec(r), Fraction(b)) for r, b in eqs)
        assert q.ge_rows == tuple((vec(r), Fraction(b)) for r, b in ges)
        assert repr(q) == repr(p)


@pytest.mark.parametrize("ints", [(1, 2), (1, 2, 3, 4)], ids=["short", "long"])
def test_cleared_rows_of_the_wrong_length_are_refused(ints):
    """A cleared row holds num_vars + 1 ints, the rhs last.  A short or a
    long one is refused when the problem is made, as ``build`` refuses its
    Fraction row, and the Farkas combination refuses it too."""
    from coneext import lp

    with pytest.raises(ValueError, match="row length does not match num_vars"):
        LpProblem(2, (((1, 0, 1), 1), (ints, 1)), 1, frozenset())
    with pytest.raises(ValueError, match="row length does not match num_vars"):
        LpProblem.build(2, ge_rows=[(ints[:-1], ints[-1])])
    with pytest.raises(ValueError):
        lp._combination((((1, 0, 1), 1), (ints, 1)), (1, 1), 3)


@pytest.mark.parametrize("d", [0, -2])
def test_cleared_rows_need_a_positive_denominator(d):
    with pytest.raises(ValueError, match="row denominator must be positive"):
        LpProblem(2, (((1, 0, 1), d),), 1, frozenset())


@pytest.mark.parametrize("nonneg", [(-1,), (2,), (0, 3)])
def test_nonneg_index_out_of_range_is_refused(nonneg):
    """A sign constraint on a variable the problem does not have is refused
    when the problem is made: -1 would silently constrain nothing, and an
    index past the end would fail only in the re-check after the solve."""
    with pytest.raises(ValueError, match="nonneg index out of range"):
        LpProblem.build(2, eq_rows=[((1, 1), -1)], nonneg=nonneg)
    with pytest.raises(ValueError, match="nonneg index out of range"):
        LpProblem(2, (((1, 1, -1), 1),), 1, frozenset(nonneg))


@pytest.mark.parametrize("num_eq", [-1, 2])
def test_num_eq_out_of_range_is_refused(num_eq):
    with pytest.raises(ValueError, match="num_eq out of range"):
        LpProblem(2, (((1, 0, 1), 1),), num_eq, frozenset())


def test_old_constructor_signature_is_refused_before_solving():
    """The constructor takes cleared rows; Fraction rows go through
    ``build``.  A call in the old form ``LpProblem(num_vars, eq_rows,
    ge_rows, nonneg)`` reads each (r, b) as a cleared row of the wrong
    length and is refused without reaching the tableau."""
    eq, ge = [([1, 1], Fraction(1))], [([1, -1], Fraction(3))]
    with pytest.raises(ValueError, match="row length does not match num_vars"):
        solve(LpProblem(2, eq, ge, frozenset({0, 1})))


# an entry is an int or a Fraction of denominator up to 12, zero half the time
_ENTRY = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-9, 9),
                   st.fractions(-9, 9, max_denominator=12))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.data())
def test_conic_rows_are_each_coordinate_cleared(data):
    """Row i of the LP that ``conic_membership`` hands ``conic_solve`` is
    exactly ``clear_denominators((*column_i, t))`` for coordinate i of the
    generators and target entry t, ints and least common denominator, for
    generators mixing ints and Fractions of unequal denominators, negative
    entries, all-zero rows and zero targets."""
    from coneext import lp

    dim = data.draw(st.integers(1, 4))
    gens = data.draw(st.lists(st.lists(_ENTRY, min_size=dim, max_size=dim),
                              max_size=5))
    target = vec(data.draw(st.lists(_ENTRY, min_size=dim, max_size=dim)))
    with mock.patch.object(lp, "conic_solve", wraps=lp.conic_solve) as seen:
        conic_membership(target, gens)
    (count, rows), = [c.args for c in seen.call_args_list]
    assert count == len(gens) and len(rows) == dim
    for i, (ints, d) in enumerate(rows):
        row = [g[i] for g in gens]
        event("all-zero row" if not any(row) else
              "zero target" if not target[i] else "both nonzero")
        clear, lcd = clear_denominators((*row, target[i]))
        assert (ints, d) == (tuple(clear), lcd)
        assert all(type(a) is int for a in ints) and type(d) is int
        assert d == lcm(*(Fraction(a).denominator for a in (*row, target[i])))
        assert [Fraction(a, d) for a in ints] == [*row, target[i]]


def test_generator_dimension_mismatch_is_refused():
    """A generator of the wrong dimension is a ``ValueError``."""
    with pytest.raises(ValueError, match="generator dimension mismatch"):
        conic_membership((1, 0), [(1, 0), (1,)])


def test_excess_and_combination_refuse_a_length_mismatch():
    """The row readers behind both re-checks refuse a point or multipliers
    that do not match the rows, rather than reading a truncated zip."""
    from coneext import lp

    rows = (((1, 2, 3), 1),)
    with pytest.raises(ValueError, match="row of length 2 against 3 values"):
        lp._excess(rows, (1, 2, 3))
    with pytest.raises(ValueError, match="2 multipliers against 1 rows"):
        lp._combination(rows, (1, 1), 3)


def test_verifiers_reject_entries_moved_by_a_seventh():
    """Fractional data: every point, Farkas and separating certificate
    entry moved by 1/7 where that breaks a row, a sign or the separation
    fails its check with ``CertificateError``."""
    from coneext import lp

    counts, survivors = {}, []
    for check, args in _mutants(Fraction(1, 7)):
        counts[check.__name__] = counts.get(check.__name__, 0) + 1
        try:
            check(*args)
        except lp.CertificateError:
            continue
        survivors.append((check.__name__, args))
    assert survivors == []
    assert set(counts) == {"verify_point", "verify_farkas", "_separation"}
    assert min(counts["verify_point"], counts["verify_farkas"]) >= 20, counts
    assert counts["_separation"] == 4


def test_every_certificate_message_is_raised(monkeypatch):
    """Each ``CertificateError`` message of the module comes from some bad
    certificate or tampered solver step."""
    from coneext import lp

    # x0 >= 0 and x1 free, x0 + x1 = 2, x1 >= -5
    p = LpProblem.build(2, eq_rows=[((1, 1), 2)], ge_rows=[((0, 1), -5)],
                        nonneg=(0,))
    neg_rhs = LpProblem.build(2, eq_rows=[((1, 1), -2)], nonneg=(0,))
    pos_rhs = LpProblem.build(2, eq_rows=[((1, 1), 2)], nonneg=(0,))
    cases = [
        ("point arity mismatch", verify_point, (p, (1,))),
        ("equality row violated", verify_point, (p, (0, 0))),
        ("inequality row violated", verify_point, (p, (8, -6))),
        ("sign constraint violated", verify_point, (p, (-1, 3))),
        ("multiplier arity mismatch", verify_farkas, (p, (1,))),
        ("multiplier must be nonnegative", verify_farkas, (p, (0, -1))),
        ("nonpositive rhs", verify_farkas, (p, (0, 0))),
        ("positive on a nonnegative variable", verify_farkas, (pos_rhs, (1,))),
        ("nonzero on a free variable", verify_farkas, (neg_rhs, (-1,))),
    ]
    for message, check, args in cases:
        with pytest.raises(lp.CertificateError, match=message):
            check(*args)
    with monkeypatch.context() as m:
        m.setattr(lp._Tableau, "run", lambda tab: "unbounded")
        with pytest.raises(lp.CertificateError, match="phase 1 unbounded"):
            solve(p)
    with monkeypatch.context() as m:
        m.setattr(lp, "linear_solve", lambda rows, rhs: None)
        with pytest.raises(lp.CertificateError, match="basis is singular"):
            solve(_MIXED_BASIS_LP)
