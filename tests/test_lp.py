"""Exact simplex: verified points, Farkas refutations, conic membership."""

import hashlib
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd, lcm

import pytest

import coneext
from coneext.fixtures import based_cone, fixture_text
from coneext.formats import parse_point_file
from coneext.hierarchy import ext_k_membership, point_tensor
from coneext.linalg import clear_denominators, dot, vec
from coneext.lp import (FEASIBLE, INFEASIBLE, UNBOUNDED, LpProblem,
                        conic_membership, solve, verify_farkas, verify_point,
                        verify_ray)


def test_minimize_simple_bound():
    p = LpProblem.build(1, ge_rows=[((1,), 3)], nonneg=(0,), objective=(1,))
    out = solve(p)
    assert out.status == FEASIBLE
    assert out.optimum == 3
    assert out.point == (3,)


def test_infeasible_with_farkas_certificate():
    p = LpProblem.build(1, ge_rows=[((-1,), 1)], nonneg=(0,))
    out = solve(p)
    assert out.status == INFEASIBLE
    verify_farkas(p, out.certificate)


def test_unbounded_with_ray():
    p = LpProblem.build(1, ge_rows=[((1,), 0)], nonneg=(0,), objective=(-1,))
    out = solve(p)
    assert out.status == UNBOUNDED
    verify_ray(p, out.point, out.ray)


def test_free_variable_optimum():
    p = LpProblem.build(1, ge_rows=[((1,), -5)], objective=(1,))
    out = solve(p)
    assert out.status == FEASIBLE
    assert out.optimum == -5


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
        objective=(2, 1, 1),
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
    rows start with denominators other than 1."""
    rng = random.Random(103)

    def integral(m):
        return rng.randint(-m, m)

    def fractional(m):
        return Fraction(rng.randint(-2 * m, 2 * m), rng.randint(1, 4))

    for kind, (coef, max_eq, max_ge) in enumerate(((integral, 2, 3),
                                                   (fractional, 3, 5))):
        for _ in range(60):
            nv = rng.randint(1, 4)
            yield kind, LpProblem.build(
                nv,
                eq_rows=[(tuple(coef(3) for _ in range(nv)), coef(3))
                         for _ in range(rng.randint(0, max_eq))],
                ge_rows=[(tuple(coef(3) for _ in range(nv)), coef(3))
                         for _ in range(rng.randint(0, max_ge))],
                nonneg=tuple(j for j in range(nv) if rng.random() < 0.7),
                objective=tuple(coef(2) for _ in range(nv)),
            )


def test_random_lps_self_verify():
    """Each kind of random LP reaches all three outcomes, each re-verified."""
    statuses = {0: set(), 1: set()}
    for kind, p in _random_lps():
        out = solve(p)
        statuses[kind].add(out.status)
        if out.status == FEASIBLE:
            verify_point(p, out.point)
        elif out.status == INFEASIBLE:
            verify_farkas(p, out.certificate)
        else:
            verify_ray(p, out.point, out.ray)
    for seen in statuses.values():
        assert seen == {FEASIBLE, INFEASIBLE, UNBOUNDED}


def _pinned_corpus():
    """Seeded LPs mixing equality and inequality rows, free and nonnegative
    variables, integer and fractional data, with and without an objective.
    Most are feasible by construction around a hidden point; some carry a
    redundant equality row that phase 1 drops."""
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
        objective = tuple(coef() for _ in range(nv)) if t % 5 else None
        yield LpProblem.build(nv, eq_rows=eqs, ge_rows=ges, nonneg=nonneg,
                              objective=objective)


def _summary(out):
    def show(v):
        return "-" if v is None else " ".join(map(str, v))

    optimum = "-" if out.optimum is None else str(out.optimum)
    return "|".join((out.status, show(out.point), show(out.certificate),
                     optimum, show(out.ray)))


# (status | point | Farkas certificate | optimum | ray) for each problem of
# _pinned_corpus(); any change to the pivot sequence changes these.
_PINNED = [
    'feasible|1 0 0 22/3 17/3|-|-|-',  # 5 vars, 4 eq, 3 ge, no obj
    'feasible|0 0 -217/72 35/8 0|-|-2303/144|-',  # 5 vars, 1 eq, 1 ge, obj
    'unbounded|0 0 0 0 0|-|-|0 0 1 0 0',  # 5 vars, 0 eq, 0 ge, obj
    'unbounded|3/2 0 9/2 0|-|-|1 -1 3/2 0',  # 4 vars, 3 eq, 0 ge, obj
    'infeasible|-|-67/146 48/73 -1 1 0|-|-',  # 3 vars, 3 eq, 2 ge, obj
    'feasible|0 10/3 0 0 0|-|-|-',  # 5 vars, 1 eq, 0 ge, no obj
    'unbounded|0 0 0|-|-|-1 0 0',  # 3 vars, 0 eq, 1 ge, obj
    'feasible|9/14 -34/7 -34/21|-|55/63|-',  # 3 vars, 2 eq, 2 ge, obj
    'infeasible|-|-1 1 1 2/3|-|-',  # 1 vars, 3 eq, 1 ge, obj
    'unbounded|0 31/3 0 0 0|-|-|0 4 0 1 0',  # 5 vars, 2 eq, 0 ge, obj
    'feasible|71/9 215/18 0 0 0|-|-|-',  # 5 vars, 1 eq, 2 ge, no obj
    'feasible|0 5/6 0 0|-|-5/12|-',  # 4 vars, 0 eq, 2 ge, obj
    'infeasible|-|1 0 0 0 0|-|-',  # 3 vars, 0 eq, 5 ge, obj
    'feasible|1/3|-|1/3|-',  # 1 vars, 2 eq, 0 ge, obj
    'feasible|2 1|-|-3|-',  # 2 vars, 3 eq, 4 ge, obj
    'feasible|4|-|-|-',  # 1 vars, 2 eq, 1 ge, no obj
    'feasible|0 7/4 0 5/24 91/36|-|265/36|-',  # 5 vars, 0 eq, 5 ge, obj
    'unbounded|7 0 0 0 0|-|-|0 0 -1 0 0',  # 5 vars, 0 eq, 2 ge, obj
    'unbounded|0 0 -7/2 0 0|-|-|0 1 0 0 0',  # 5 vars, 0 eq, 1 ge, obj
    'unbounded|0 0 197/102 233/612 0|-|-|-1 0 23/34 65/204 0',  # 5 vars, 2 eq, 0 ge, obj
    'infeasible|-|-1 -1 1 19/3 13/2|-|-',  # 3 vars, 3 eq, 2 ge, no obj
    'feasible|1|-|-1|-',  # 1 vars, 4 eq, 4 ge, obj
    'unbounded|0 0 0 2 0|-|-|0 1 0 1 0',  # 5 vars, 1 eq, 0 ge, obj
    'feasible|7 0 -139/30 -607/30|-|-3593/60|-',  # 4 vars, 1 eq, 4 ge, obj
    'feasible|0|-|0|-',  # 1 vars, 2 eq, 3 ge, obj
    'feasible|-325/134 343/134 773/201 54/67|-|-|-',  # 4 vars, 2 eq, 5 ge, no obj
    'feasible|2|-|1|-',  # 1 vars, 2 eq, 2 ge, obj
    'feasible|3/2|-|3/2|-',  # 1 vars, 3 eq, 5 ge, obj
    'feasible|0 17/9 73/6 0 65/2|-|205/9|-',  # 5 vars, 3 eq, 0 ge, obj
    'unbounded|49/6 0 25/3 44/9|-|-|20/9 1 7/3 8/27',  # 4 vars, 3 eq, 2 ge, obj
    'feasible|0 5/3 0|-|-|-',  # 3 vars, 0 eq, 2 ge, no obj
    'unbounded|0 137/99 0 5383/1188 1531/396|-|-|0 4/11 1 149/66 25/22',  # 5 vars, 0 eq, 4 ge, obj
]


def test_pinned_outcomes():
    outs = [solve(p) for p in _pinned_corpus()]
    assert {o.status for o in outs} == {FEASIBLE, INFEASIBLE, UNBOUNDED}
    assert [_summary(o) for o in outs] == _PINNED


# -- the pivot sequence and the tableau rows ---------------------------------

@pytest.fixture
def pivots(monkeypatch):
    """The (leaving row, entering column) of each pivot made from here on."""
    from coneext import lp

    seen = []
    pivot = lp._Tableau.pivot

    def recording(tab, r, c):
        seen.append((r, c))
        pivot(tab, r, c)

    monkeypatch.setattr(lp._Tableau, "pivot", recording)
    return seen


def _digest(pivots):
    return hashlib.sha256(repr(pivots).encode()).hexdigest()


# sha256 of repr of the pivot sequence of each LP of _pinned_corpus(), with
# its pivot count in the comment, captured while the tableau kept its denominators in a list and its
# reduced costs in a dense row; a change of pricing rule changes these.
# Entry 15 was re-captured when feasibility-only LPs stopped driving zero-
# level artificials out of the basis.
_PINNED_PIVOTS = [
    'fb90f46c543c466c0d11b1fb35d0ca1da5bdee34a35a24ba484f9e5cefa2d3ad',  # 7
    '86ea23e5b5627a8b803d8eecf4201aac2cab2c32d2fc1a8c2d9be894e16b4f2e',  # 4
    '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',  # 0
    '3e65b5c6f3c55eee3575d9efb8f04c65953e0783f49814152f40b4a04ee2ad51',  # 3
    '391ef33e47f8dbc8810327e7cdb3cc2d7198c379b306d5450ac3ce66b49bf163',  # 2
    '4c461d4a0ab0fe42d5dfe0398002bac0ee02261aa3b5641fe9d4d1f8d99633a3',  # 1
    '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',  # 0
    '61157c2e8d2e4abfee965cfb103ba809f3a7844c654f1b63b6f5cd3301b52549',  # 5
    '02cc7f0711a1198b57ce717df6271cfb6feb5cd998d090133efe84ba0152fbf3',  # 1
    '6eb681965c5b82a90cca16c8bdf17656f2924a055ac074ea7f4c45a594d0b76a',  # 2
    'f499276321a466df49ded2a2d9cb982b2db39105bce7a6be76b5fb392aacbca1',  # 2
    'dba010dc185ba44cc16ac8ed5e5bbbe721e8dc9d928b5377686d1b3a9d786530',  # 1
    '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',  # 0
    '2e671ae9b7fca357b34a051eb7716cbf08cdc9e1ee9dbf0f7fecd06ad15e35da',  # 1
    '921af0b4acb4608c8c1f8e495aa69200072c01d42aac9a530e9d9a655c803a36',  # 5
    '478320901d993375e8bcf2be91a742c5ec8ff9deac0956df56cd1f529aa59172',  # 1
    '95ba72b9222675ebb14eddfa36633fa225c746e5569a6513951140a8cb16b24d',  # 5
    'fcbd8f2ee97e86ea25ede7fbf892fa8f8d0846fb35e5e9c91a20c7996fe7f963',  # 1
    '1b92d0de8bb0230dbb301de92e0c5e4a1362f052233a1e409a393b0267011d41',  # 1
    '8ae835587e8fc751735ae843a9e25d091dd14f0edbdfe6578afe9265c1d0c6c4',  # 4
    '415b7a16ddb540d4cfde7216ca29c5cc5d3c2a3804e3913384176d8f616d07b0',  # 4
    '2e671ae9b7fca357b34a051eb7716cbf08cdc9e1ee9dbf0f7fecd06ad15e35da',  # 1
    '00ce6357cff8c2924ca78454dfcaaf693aca5b46178568fa33c70d0f8288746f',  # 1
    'a11bdd623c2770e6a223a7322f4c9e60c196b716cf46828fa4ee4049904ed072',  # 10
    '2e671ae9b7fca357b34a051eb7716cbf08cdc9e1ee9dbf0f7fecd06ad15e35da',  # 1
    'f05fa3e3f78ecec7a7cffcb94df3a40d00ca846b48fd5be048b0d8eb75d2ff74',  # 5
    '2e671ae9b7fca357b34a051eb7716cbf08cdc9e1ee9dbf0f7fecd06ad15e35da',  # 1
    '2e671ae9b7fca357b34a051eb7716cbf08cdc9e1ee9dbf0f7fecd06ad15e35da',  # 1
    'd3c9c0fb28f1b0bf08aae307988a852ea4d0b1460e6f0336ef5a771104b07bb4',  # 4
    '45108e4d96e34edf3cd7fc9e28414dcb8de67996f1c610c21337b2a6070a63f1',  # 6
    '20cab5066581e447126e909155878325d6a02b1a542a530550f37d0a0229456e',  # 1
    '98a0f47130676156412a9dc716b9abd54b6c08fb1927ac3576c60fa22a1afab2',  # 8
]


def test_pinned_pivot_sequences(pivots):
    digests = []
    for p in _pinned_corpus():
        pivots.clear()
        solve(p)
        digests.append(_digest(pivots))
    assert digests == _PINNED_PIVOTS


# (pivot count, sha256 of the pivot sequence) of the one LP of each
# EXT_K_LP_PINS case of tests/test_hierarchy.py, captured with _PINNED_PIVOTS.
# gap-k3 at k=3, gap-k2 at k=2 and box at k=1 were re-captured when phase 1
# stopped re-entering left artificials and, without an objective, driving
# zero-level ones out.
EXT_K_PIVOT_PINS = {
    ("gap-k3", "square-skew", 1): (10, "95acb0f8ad33d5ee0b7042b5ed620422b37e496477c9d9059cb6c02909b47dc4"),
    ("gap-k3", "square-skew", 2): (24, "5ec2c38505e4451218da558b071eecfa91ebcf646434bbd734c5ebe5d8101428"),
    ("gap-k3", "square-skew", 3): (154, "d46f85848c7c817a315a98375bbd6ebdf7373c00cb64adec5bd15f139c90d150"),
    ("gap-k2", "square-skew", 1): (10, "520a2c9a13c739fe245bb85b4c6148adbe42fe7ab1fb523e798d7280f86b9d8b"),
    ("gap-k2", "square-skew", 2): (26, "42ae998ba37287b0080b8f382862156a05779ebb2345b27bf707c10a1112947f"),
    ("gap-k2", "square-skew", 3): (128, "398573741bc27fb2cf5c19421b57635cee0fa4c94ee427aa4b9c32c380027cd4"),
    ("box", "square", 1): (9, "93bc233e9cf08e47bcc8eb3206b41df8fa9baf231d873a53f8ddab31bf0c03e5"),
    ("box", "square", 2): (35, "77b68bcff63fc5848f38a6da45c15137ef9f447504868a846d2d31fb6d54673b"),
}


@pytest.mark.parametrize("point,b_name,k", list(EXT_K_PIVOT_PINS))
def test_ext_k_pivot_sequences(pivots, point, b_name, k):
    a_cone = based_cone("square").cone
    based = based_cone(b_name)
    _, _, entries = parse_point_file(fixture_text(f"{point}.pt"))
    ext_k_membership(point_tensor(a_cone, based.cone, entries), a_cone, based, k)
    assert (len(pivots), _digest(pivots)) == EXT_K_PIVOT_PINS[point, b_name, k]


def test_rows_keep_their_invariant_through_every_pivot(monkeypatch):
    """After every pivot of the random LPs, each constraint row has a
    positive entry at its basic column, its denominator; the reduced-cost
    row has a positive objective entry and none at a basic column; every
    row is gcd-reduced; and no row, nor the reduced-cost row, holds an
    entry at an artificial column that is not basic."""
    from coneext import lp

    pivot = lp._Tableau.pivot
    checked = []

    def checking(tab, r, c):
        pivot(tab, r, c)
        left = set(range(tab.art0, len(tab.cols))) - set(tab.basis)
        for row, bcol in zip(tab.T, tab.basis):
            assert row[bcol] > 0
            assert gcd(*row.values()) == 1
            assert not left & row.keys()
        assert tab.z[lp._OBJ] > 0
        assert not any(bcol in tab.z for bcol in tab.basis)
        assert gcd(*tab.z.values()) == 1
        assert not left & tab.z.keys()
        checked.append((r, c))

    monkeypatch.setattr(lp._Tableau, "pivot", checking)
    for _, p in _random_lps():
        solve(p)
    assert len(checked) >= 200, len(checked)


@pytest.fixture
def entering(monkeypatch):
    """The tag of the entering column of each pivot made from here on."""
    from coneext import lp

    seen = []
    pivot = lp._Tableau.pivot

    def recording(tab, r, c):
        seen.append(tab.cols[c])
        pivot(tab, r, c)

    monkeypatch.setattr(lp._Tableau, "pivot", recording)
    return seen


def test_no_pivot_enters_an_artificial_column(entering):
    """Over the pinned and the random LPs, every pivot, phase 1 and the
    drive-out included, enters a variable or surplus column."""
    for p in (*_pinned_corpus(), *(p for _, p in _random_lps())):
        solve(p)
    assert len(entering) >= 300, len(entering)
    assert {tag[0] for tag in entering} == {"var", "sur"}


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
        kinds.append(sorted(tab.cols[bcol][0] for bcol in tab.basis))
        return multipliers(tab)

    monkeypatch.setattr(lp._Tableau, "multipliers", recording)
    out = solve(_MIXED_BASIS_LP)
    assert kinds == [["art", "sur", "var"]]
    assert out.status == INFEASIBLE
    assert out.certificate == _MIXED_BASIS_CERTIFICATE
    assert all(type(m) is Fraction for m in out.certificate)


def _solved_multiplier_moved_by_a_seventh():
    """The message raised when the solved multiplier m_0 of the mixed-basis
    LP is moved by 1/7 before the Farkas check, or None; raises nothing
    itself, so it also reports under ``python -O``."""
    from coneext import lp

    multipliers = lp._Tableau.multipliers

    def moved(tab):
        m = multipliers(tab)
        return (m[0] + Fraction(1, 7), *m[1:])

    lp._Tableau.multipliers = moved
    try:
        lp.solve(_MIXED_BASIS_LP)
    except lp.CertificateError as err:
        return str(err)
    finally:
        lp._Tableau.multipliers = multipliers
    return None


def test_a_solved_multiplier_moved_by_a_seventh_is_rejected():
    # x0 is free, so the combination stops vanishing on it
    assert "nonzero on a free variable" in _solved_multiplier_moved_by_a_seventh()


def test_a_moved_solved_multiplier_is_rejected_under_python_O():
    code = f"""
        import sys
        if __debug__:
            sys.exit("not running under -O")
        sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
        import test_lp
        message = test_lp._solved_multiplier_moved_by_a_seventh()
        if message is None or "nonzero on a free variable" not in message:
            sys.exit(f"moved multiplier gave {{message!r}}")
    """
    _passes_under_python_O(code)


def test_certificate_checks_survive_python_O():
    """The re-sum of a conic decomposition raises under ``python -O``, which
    strips ``assert`` statements."""
    code = textwrap.dedent("""
        import sys
        from fractions import Fraction
        from coneext import lp
        if __debug__:
            sys.exit("not running under -O")
        # an LP answer whose weights do not re-sum to the target
        lp.solve = lambda problem: lp.LpOutcome(
            status=lp.FEASIBLE, point=(Fraction(2),))
        try:
            lp.conic_membership((1, 0), [(1, 1)])
        except lp.CertificateError:
            sys.exit(0)
        sys.exit("member=True returned without a re-sum check")
    """)
    _passes_under_python_O(code)


def _passes_under_python_O(code):
    """Run ``code`` under ``python -O`` with this checkout's coneext; it
    exits 0 when the check it tampers with raised."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(coneext.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(code)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr


def test_verifiers_raise_certificate_error():
    """Each verifier reports a bad certificate as ``CertificateError``
    itself, not as the bare ``AssertionError`` it derives from."""
    from coneext import lp

    p = LpProblem.build(1, ge_rows=[((1,), 1)], nonneg=(0,), objective=(1,))
    for check, args in ((verify_point, ((0,),)),
                        (verify_farkas, ((1,),)),
                        (verify_ray, ((1,), (1,)))):
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


def test_verifiers_reject_mutated_certificates():
    """Change one entry of each pinned certificate in a way that makes it
    invalid by construction; its verifier must reject every such change."""
    tried = {FEASIBLE: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for p in _pinned_corpus():
        out = solve(p)
        rows = p.eq_rows + p.ge_rows
        free = [j for j in range(p.num_vars) if j not in p.nonneg]
        if out.status == INFEASIBLE:
            verify_farkas(p, out.certificate)
            ne = len(p.eq_rows)
            for i, ((r, _), lam) in enumerate(zip(rows, out.certificate)):
                mutants = []
                if any(r[j] != 0 for j in free):
                    # the combination stops vanishing on a free variable
                    mutants.append(lam + 1)
                if i >= ne and lam > 0:
                    mutants.append(-lam)
                for m in mutants:
                    assert _rejects(verify_farkas, p, _bumped(out.certificate, i, m))
                    tried[INFEASIBLE] += 1
            continue
        verify_point(p, out.point)
        for j in range(p.num_vars):
            mutants = []
            if any(r[j] != 0 for r, _ in p.eq_rows):
                mutants.append(out.point[j] + 1)
            for r, b in p.ge_rows:
                if r[j] != 0 and dot(r, out.point) == b:
                    # step off a tight inequality
                    mutants.append(out.point[j] - (1 if r[j] > 0 else -1))
            if j in p.nonneg:
                mutants.append(Fraction(-1))
            for m in mutants:
                assert _rejects(verify_point, p, _bumped(out.point, j, m))
                tried[out.status] += 1
        if out.status == UNBOUNDED:
            verify_ray(p, out.point, out.ray)
            for j in range(p.num_vars):
                mutants = []
                if any(r[j] != 0 for r, _ in p.eq_rows):
                    mutants.append(out.ray[j] + 1)
                if j in p.nonneg:
                    mutants.append(Fraction(-1))
                for m in mutants:
                    assert _rejects(verify_ray, p, out.point, _bumped(out.ray, j, m))
                    tried[UNBOUNDED] += 1
            # a ray that no longer improves the objective
            assert _rejects(verify_ray, p, out.point, tuple(0 * d for d in out.ray))
    assert all(n >= 20 for n in tried.values()), tried


def test_conic_resum_rejects_a_mutated_weight(monkeypatch):
    """Each weight of a valid decomposition, changed by one, fails the
    re-sum against the target."""
    from coneext import lp

    gens = [vec(r) for r in ((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1))]
    target = vec((3, 1, 1))
    out = conic_membership(target, gens)
    assert out.member
    for i in range(len(gens)):
        bad = _bumped(out.weights, i, out.weights[i] + 1)
        monkeypatch.setattr(lp, "solve", lambda problem, bad=bad: lp.LpOutcome(
            status=FEASIBLE, point=bad))
        with pytest.raises(lp.CertificateError, match="re-sum"):
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
            monkeypatch.setattr(lp, "solve", lambda problem, bad=bad: lp.LpOutcome(
                status=FEASIBLE, point=bad))
            with pytest.raises(lp.CertificateError, match="re-sum"):
                conic_membership(_FRACTIONAL_TARGET, _FRACTIONAL_GENS)


def test_fractional_resum_survives_python_O():
    code = f"""
        import sys
        from fractions import Fraction
        from coneext import lp
        if __debug__:
            sys.exit("not running under -O")
        gens, target = {_FRACTIONAL_GENS!r}, {_FRACTIONAL_TARGET!r}
        weights = lp.conic_membership(target, gens).weights
        for i in range(len(gens)):
            for delta in (Fraction(1, 7), Fraction(-1, 7)):
                bad = weights[:i] + (weights[i] + delta,) + weights[i + 1:]
                lp.solve = lambda problem, bad=bad: lp.LpOutcome(
                    status=lp.FEASIBLE, point=bad)
                try:
                    lp.conic_membership(target, gens)
                except lp.CertificateError as err:
                    if "re-sum" not in str(err):
                        sys.exit(str(err))
                    continue
                sys.exit(f"weight {{i}} moved by {{delta}} passed the re-sum")
    """
    _passes_under_python_O(code)


def test_conic_separation_rejects_a_non_separating_certificate(monkeypatch):
    """An INFEASIBLE answer whose functional is nonnegative on the target
    fails the separation check with ``CertificateError``, an explicit raise
    that ``python -O`` keeps."""
    from coneext import lp

    monkeypatch.setattr(lp, "solve", lambda problem: lp.LpOutcome(
        status=INFEASIBLE, certificate=(Fraction(-1), Fraction(0))))
    with pytest.raises(lp.CertificateError, match="separating"):
        conic_membership(vec((1, 0)), [vec((1, 0))])
    # negative on the target, but also negative on the second generator
    monkeypatch.setattr(lp, "solve", lambda problem: lp.LpOutcome(
        status=INFEASIBLE, certificate=(Fraction(-1, 3), Fraction(1, 3))))
    with pytest.raises(lp.CertificateError, match="separating"):
        conic_membership(vec((-1, 0)), [vec((1, 0)), vec((0, 1))])


def test_directly_built_problem_with_list_rows():
    """An LpProblem made without ``build``, with list rows, solves and
    re-checks as the built one does."""
    eq, ge = [([1, 1], Fraction(1))], [([1, -1], Fraction(3))]
    direct = LpProblem(2, eq, ge, frozenset({0, 1}))
    assert solve(direct) == solve(LpProblem.build(2, eq, ge, nonneg=(0, 1)))
    assert solve(direct).status == INFEASIBLE


# -- one cleared copy of the rows per problem ---------------------------------

def _fresh_clearing(p):
    return tuple((tuple(ints), d) for ints, d in (
        clear_denominators((*r, b)) for r, b in (*p.eq_rows, *p.ge_rows)))


def test_int_rows_are_the_rows_cleared_once():
    """For each row (r, b), ``int_rows`` holds a tuple of ints over the
    least common denominator of (r, b), eq rows first; ``solve`` reads it
    without changing it."""
    problems = list(_pinned_corpus())
    problems.append(LpProblem(2, [([1, Fraction(1, 2)], Fraction(2, 3))],
                              [([Fraction(-1, 4), 3], 1)], frozenset({0})))
    for p in problems:
        rows = p.int_rows
        assert type(rows) is tuple and len(rows) == len(p.eq_rows) + len(p.ge_rows)
        for (ints, d), (r, b) in zip(rows, (*p.eq_rows, *p.ge_rows)):
            assert type(ints) is tuple and all(type(a) is int for a in ints)
            assert tuple(Fraction(a, d) for a in ints) == (*r, b)
            assert d == lcm(*(Fraction(a).denominator for a in (*r, b)))
        solve(p)
        assert p.int_rows is rows
        assert rows == _fresh_clearing(p)


def _seventh_mutants():
    """(verifier, args) for each pinned LP answer with one entry moved by
    +-1/7 in a way that makes it invalid by construction, plus the same
    for the separation check of a conic query."""
    sevenths = (Fraction(1, 7), Fraction(-1, 7))
    for p in _pinned_corpus():
        out = solve(p)
        free = [j for j in range(p.num_vars) if j not in p.nonneg]
        if out.status == INFEASIBLE:
            ne = len(p.eq_rows)
            for i, ((r, _), lam) in enumerate(zip(p.eq_rows + p.ge_rows, out.certificate)):
                # the combination stops vanishing on a free variable
                moves = sevenths if any(r[j] != 0 for j in free) else ()
                if i >= ne and lam == 0:
                    moves += (Fraction(-1, 7),)
                for m in moves:
                    yield verify_farkas, (p, _bumped(out.certificate, i, lam + m))
            continue
        for j in range(p.num_vars):
            moves = sevenths if any(r[j] != 0 for r, _ in p.eq_rows) else ()
            for r, b in p.ge_rows:
                if r[j] != 0 and dot(r, out.point) == b:
                    moves += (Fraction(-1 if r[j] > 0 else 1, 7),)
            if j in p.nonneg and out.point[j] == 0:
                moves += (Fraction(-1, 7),)
            for m in moves:
                yield verify_point, (p, _bumped(out.point, j, out.point[j] + m))
            if out.status == UNBOUNDED:
                moves = sevenths if any(r[j] != 0 for r, _ in p.eq_rows) else ()
                if j in p.nonneg and out.ray[j] == 0:
                    moves += (Fraction(-1, 7),)
                for m in moves:
                    yield verify_ray, (p, out.point, _bumped(out.ray, j, out.ray[j] + m))
    # the generators span a line, so a separating functional vanishes on it
    # and each certificate entry moved by 1/7 stops vanishing there
    cert = solve(LpProblem.build(2, eq_rows=[(g, t) for g, t in zip(
        zip(*_LINE_GENS), _LINE_TARGET)], nonneg=(0, 1))).certificate
    for i in range(len(cert)):
        for m in sevenths:
            yield _separation, (_bumped(cert, i, cert[i] + m),)


_LINE_GENS = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(-1, 2), Fraction(-1, 3)))
_LINE_TARGET = (Fraction(1, 5), Fraction(-1, 7))


def _separation(certificate):
    """The separation check of ``conic_membership`` on the line query, for
    an LP answer carrying ``certificate``."""
    from coneext import lp

    solve_ = lp.solve
    lp.solve = lambda problem: lp.LpOutcome(status=lp.INFEASIBLE,
                                            certificate=certificate)
    try:
        lp.conic_membership(_LINE_TARGET, _LINE_GENS)
    finally:
        lp.solve = solve_


def _seventh_survivors():
    """(counts per check, the mutants that raised no ``CertificateError``);
    raises nothing itself, so it also reports under ``python -O``."""
    from coneext import lp

    counts, survivors = {}, []
    for check, args in _seventh_mutants():
        counts[check.__name__] = counts.get(check.__name__, 0) + 1
        try:
            check(*args)
        except lp.CertificateError:
            continue
        survivors.append((check.__name__, args))
    return counts, survivors


def test_verifiers_reject_entries_moved_by_a_seventh():
    """Fractional data: every point, Farkas, ray and separating certificate
    entry moved by 1/7 where that breaks a row, a sign or the separation
    fails its check with ``CertificateError``."""
    counts, survivors = _seventh_survivors()
    assert survivors == []
    assert min(counts.get(name, 0) for name in (
        "verify_point", "verify_farkas", "verify_ray")) >= 20, counts
    assert counts["_separation"] == 4


def test_seventh_moves_are_rejected_under_python_O():
    code = f"""
        import sys
        if __debug__:
            sys.exit("not running under -O")
        sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
        import test_lp
        counts, survivors = test_lp._seventh_survivors()
        if survivors or len(counts) != 4:
            sys.exit(f"{{counts}}: accepted {{survivors[:3]}}")
    """
    _passes_under_python_O(code)


def test_every_certificate_message_is_raised(monkeypatch):
    """Each ``CertificateError`` message of the module comes from some bad
    certificate or tampered solver step."""
    from coneext import lp

    # x0 >= 0 and x1 free, x0 + x1 = 2, x1 >= -5, minimize x0 - x1
    p = LpProblem.build(2, eq_rows=[((1, 1), 2)], ge_rows=[((0, 1), -5)],
                        nonneg=(0,), objective=(1, -1))
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
        ("ray leaves an equality row", verify_ray, (p, (1, 1), (1, 0))),
        ("ray leaves an inequality row", verify_ray, (p, (1, 1), (1, -1))),
        ("ray leaves the sign orthant", verify_ray, (p, (1, 1), (-1, 1))),
        ("ray does not improve", verify_ray, (p, (1, 1), (0, 0))),
    ]
    for message, check, args in cases:
        with pytest.raises(lp.CertificateError, match=message):
            check(*args)
    with monkeypatch.context() as m:
        m.setattr(lp._Tableau, "value", property(lambda tab: Fraction(-1)))
        with pytest.raises(lp.CertificateError, match="tableau value"):
            solve(LpProblem.build(1, ge_rows=[((1,), 3)], nonneg=(0,), objective=(1,)))
    with monkeypatch.context() as m:
        m.setattr(lp._Tableau, "run", lambda tab: "unbounded")
        with pytest.raises(lp.CertificateError, match="phase 1 unbounded"):
            solve(p)
    with monkeypatch.context() as m:
        m.setattr(lp, "linear_solve", lambda rows, rhs: None)
        with pytest.raises(lp.CertificateError, match="basis is singular"):
            solve(_MIXED_BASIS_LP)
    with monkeypatch.context() as m:
        m.setattr(lp, "solve", lambda problem: lp.LpOutcome(status=UNBOUNDED))
        with pytest.raises(lp.CertificateError, match="unexpected LP status"):
            conic_membership((1, 0), [(1, 0)])
