"""Exact rational linear algebra underneath the cone and polytope machinery."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from coneext.linalg import (affine_rank, dot, greedy_independent, inverse,
                            nullspace, primitive, rank, solve, transpose, vec)
from dense_reference import mat_vec


def _random_matrix(rng, rows, cols, span=6):
    return [vec([rng.randint(-span, span) for _ in range(cols)]) for _ in range(rows)]


def test_inverse_times_matrix_is_identity():
    rng = random.Random(7)
    found = 0
    while found < 30:
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, n)
        try:
            inv = inverse(m)
        except ValueError:
            continue
        found += 1
        prod = [[dot(row, col) for col in transpose(inv)] for row in m]
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (1 if i == j else 0)


def test_solve_satisfies_system():
    rng = random.Random(13)
    for _ in range(50):
        rows = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x0 = vec([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in rows[0]])
        rhs = mat_vec(rows, x0)
        sol = solve(rows, rhs)
        assert sol is not None
        assert mat_vec(rows, sol) == tuple(rhs)


def test_solve_detects_inconsistency():
    assert solve([(1, 0), (1, 0)], (0, 1)) is None


def test_nullspace_vectors_annihilate():
    rng = random.Random(19)
    for _ in range(50):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        rows = _random_matrix(rng, nrows, ncols)
        basis = nullspace(rows, ncols)
        assert len(basis) == ncols - rank(rows)
        for v in basis:
            assert all(dot(r, v) == 0 for r in rows)
        assert rank(list(basis)) == len(basis)


def test_rank_of_rref_agrees():
    rng = random.Random(29)
    for _ in range(50):
        rows = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        pivots = _ref_rref(rows)[1]
        assert rank(rows) == len(pivots)
        # duplicating rows never changes rank
        assert rank(rows + rows) == len(pivots)


def test_affine_rank_is_translation_invariant():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert affine_rank(pts) == 2
    shifted = [(x + 5, y - 3) for x, y in pts]
    assert affine_rank(shifted) == 2
    assert affine_rank([(2, 2)]) == 0
    assert affine_rank([(0, 0, 0), (1, 1, 1), (2, 2, 2)]) == 1


def test_primitive_normalization():
    assert primitive((Fraction(5, 6), Fraction(5, 6), 0)) == (1, 1, 0)
    # direction is kept
    assert primitive((-2, 4, -6)) == (-1, 2, -3)
    assert primitive((0, Fraction(-1, 3))) == (0, -1)
    ints = primitive((Fraction(5, 6), Fraction(-5, 3), 0))
    assert ints == (1, -2, 0) and all(type(a) is int for a in ints)
    assert all(type(a) is int for a in primitive((2, 4)))


# -- differential test against a plain-Fraction reference --------------------
#
# The kernels above run on integer numerators over a cleared denominator;
# the reference below is textbook Gauss-Jordan elimination on Fractions.

def _ref_dot(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v, strict=True)), Fraction(0))


def _ref_rref(rows):
    m = [[Fraction(a) for a in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _ref_nullspace(rows, ncols):
    m, pivots = _ref_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            x[pc] = -m[ri][fc]
        basis.append(tuple(x))
    return basis


def _ref_solve(rows, rhs):
    if not rows:
        return ()
    ncols = len(rows[0])
    m, pivots = _ref_rref([list(r) + [b] for r, b in zip(rows, rhs, strict=True)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for ri, pc in enumerate(pivots):
        x[pc] = m[ri][ncols]
    return tuple(x)


def _ref_inverse(rows):
    n = len(rows)
    m, pivots = _ref_rref([list(r) + [int(i == j) for j in range(n)]
                           for i, r in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    return [tuple(m[i][n:]) for i in range(n)]


def _ref_primitive(u):
    mult = lcm(*(Fraction(a).denominator for a in u))
    ints = [int(a * mult) for a in u]
    g = gcd(*ints)
    return tuple(Fraction(x // g) for x in ints)


def _ref_greedy(rows):
    chosen = []
    for i, r in enumerate(rows):
        if len(_ref_rref([rows[j] for j in chosen] + [r])[1]) > len(chosen):
            chosen.append(i)
    return chosen


def _entry(rng):
    """0 half the time, else an int or a Fraction with a small denominator."""
    if rng.random() < 0.5:
        return 0
    num = rng.randint(-9, 9)
    return num if rng.random() < 0.5 else Fraction(num, rng.randint(1, 12))


def _awkward_matrix(rng, nrows, ncols):
    """Rational rows mixing int and Fraction entries, with zero rows,
    duplicate rows and combinations of earlier rows mixed in."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * ncols)
        elif kind < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.5 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-2, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([_entry(rng) for _ in range(ncols)])
    return rows


def _all_fractions(rows):
    return all(type(a) is Fraction for r in rows for a in r)


def test_kernels_match_the_fraction_reference():
    rng = random.Random(2024)
    for trial in range(400):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
        rows = _awkward_matrix(rng, nrows, ncols)
        assert rank(rows) == len(_ref_rref(rows)[1]), rows
        chosen = _ref_greedy(rows)
        assert greedy_independent(rows) == chosen
        basis = nullspace(rows, ncols)
        assert basis == _ref_nullspace(rows, ncols) and _all_fractions(basis)
        rhs = [_entry(rng) for _ in rows]
        sol = solve(rows, rhs)
        assert sol == _ref_solve(rows, rhs)
        assert sol is None or _all_fractions([sol])
        if nrows:
            u = rows[0]
            v = [_entry(rng) for _ in u]
            assert dot(u, v) == _ref_dot(u, v) and type(dot(u, v)) is Fraction
            if any(u):
                assert primitive(u) == _ref_primitive(u)
                assert all(type(a) is int for a in primitive(u))
        square = _awkward_matrix(rng, ncols, ncols)
        expected = _ref_inverse(square)
        if expected is None:
            with pytest.raises(ValueError, match="singular"):
                inverse(square)
        else:
            inv = inverse(square)
            assert inv == expected and _all_fractions(inv)


def test_kernels_on_empty_inputs():
    assert rank([]) == len(_ref_rref([])[1]) == 0
    assert nullspace([], 3) == _ref_nullspace([], 3)
    with pytest.raises(ValueError, match="^need ncols for an empty system$"):
        nullspace([])
    assert solve([], ()) == ()
    assert inverse([]) == []
    assert dot((), ()) == 0 and type(dot((), ())) is Fraction
    with pytest.raises(ValueError):
        primitive(())
    with pytest.raises(ValueError):
        primitive((0, Fraction(0)))


def test_dot_of_unequal_lengths_raises():
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        dot((Fraction(1, 2),), ())


def test_kernels_accept_iterators():
    """Rows and vectors may be any iterables, as with plain Fractions."""
    rows = [(1, Fraction(1, 2), 0), (2, 1, 0), (0, 0, Fraction(3, 4))]
    assert rank(iter(r) for r in rows) == len(_ref_rref(rows)[1]) == 2
    assert dot(iter(rows[0]), iter(rows[2])) == _ref_dot(rows[0], rows[2])
    assert primitive(a for a in rows[0]) == _ref_primitive(rows[0])
    assert nullspace(iter(r) for r in rows) == _ref_nullspace(rows, 3)
    assert solve((iter(r) for r in rows), iter((1, 2, 0))) == _ref_solve(rows, (1, 2, 0))
