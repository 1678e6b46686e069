"""Exact simplex: verified points, Farkas refutations, conic membership."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import coneext
from coneext.linalg import dot, vec
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


def test_random_lps_self_verify():
    """Integer data, then fractional data with denominators 1-4 and more
    rows, so that rows start with denominators other than 1."""
    rng = random.Random(103)

    def integral(m):
        return rng.randint(-m, m)

    def fractional(m):
        return Fraction(rng.randint(-2 * m, 2 * m), rng.randint(1, 4))

    for coef, max_eq, max_ge in ((integral, 2, 3), (fractional, 3, 5)):
        statuses = set()
        for _ in range(60):
            nv = rng.randint(1, 4)
            p = LpProblem.build(
                nv,
                eq_rows=[(tuple(coef(3) for _ in range(nv)), coef(3))
                         for _ in range(rng.randint(0, max_eq))],
                ge_rows=[(tuple(coef(3) for _ in range(nv)), coef(3))
                         for _ in range(rng.randint(0, max_ge))],
                nonneg=tuple(j for j in range(nv) if rng.random() < 0.7),
                objective=tuple(coef(2) for _ in range(nv)),
            )
            out = solve(p)
            statuses.add(out.status)
            if out.status == FEASIBLE:
                verify_point(p, out.point)
            elif out.status == INFEASIBLE:
                verify_farkas(p, out.certificate)
            else:
                verify_ray(p, out.point, out.ray)
        assert statuses == {FEASIBLE, INFEASIBLE, UNBOUNDED}


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
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(coneext.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr


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


def test_conic_separation_rejects_a_non_separating_certificate(monkeypatch):
    """An INFEASIBLE answer whose functional is nonnegative on the target
    fails the separation check with ``CertificateError``, an explicit raise
    that ``python -O`` keeps."""
    from coneext import lp

    monkeypatch.setattr(lp, "solve", lambda problem: lp.LpOutcome(
        status=INFEASIBLE, certificate=(Fraction(-1), Fraction(0))))
    with pytest.raises(lp.CertificateError, match="separating"):
        conic_membership(vec((1, 0)), [vec((1, 0))])
