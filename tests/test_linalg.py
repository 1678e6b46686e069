"""Exact rational linear algebra underneath the cone and polytope machinery."""

import random
from fractions import Fraction

from coneext.linalg import (affine_rank, dot, inverse, mat_vec, nullspace,
                            primitive, rank, rref, solve, transpose, vec)


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
        reduced, pivots = rref(rows)
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
