"""Small exact linear-algebra toolkit.

Vectors are tuples, matrices lists/tuples of row vectors, with int or
Fraction entries; ``scalars.rational`` refuses any other entry for the
public entry points.  ``primitive`` returns ints; ``dot`` and the eliminations
(``nullspace``, ``solve``, ``inverse``) return Fractions.  The inner loops
run on integer numerators over a cleared denominator: ``dot`` divides once,
and ``_echelon`` is fraction-free Gauss-Jordan elimination (cf. Bareiss
1968) on integer rows, each gcd-reduced after every update.  Desk-scale
sizes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .scalars import rational, vec


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def clear_denominators(v):
    """(ints, d): int numerators over the least common denominator d > 0
    of the int or Fraction entries of ``v``, so that v == ints / d."""
    if not isinstance(v, (tuple, list)):
        v = tuple(v)  # an iterator is read twice below
    d = lcm(*[a.denominator for a in v])
    if d == 1:
        return [a.numerator for a in v], 1
    return [a.numerator * (d // a.denominator) for a in v], d


def clear_rows(rows):
    """(int rows, d): the rows over the least common denominator d > 0 of
    all their int or Fraction entries, so that rows == int rows / d."""
    d = lcm(*[a.denominator for r in rows for a in r])
    return [[a.numerator * (d // a.denominator) for a in r] for r in rows], d


def dot(u, v):
    (us, ud), (vs, vd) = clear_denominators(u), clear_denominators(v)
    if len(us) != len(vs):
        raise ValueError(f"dot of vectors of lengths {len(us)} and {len(vs)}")
    return Fraction(sum(map(mul, us, vs)), ud * vd)


def primitive(u):
    """Scale to coprime ints, clearing denominators; direction kept."""
    ints, _ = clear_denominators(u)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def _echelon(rows):
    """Gauss-Jordan elimination on the rows cleared to integers.  Returns
    (int rows, pivot columns): row i < len(pivots) is a multiple of row i of
    the reduced row echelon form by its pivot entry, later rows are zero."""
    m = [clear_denominators(r)[0] for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                # p * row - f * prow, with p and f divided by their gcd
                g = gcd(prow[c], f)
                p, f = prow[c] // g, f // g
                row = [p * a - f * b for a, b in zip(row, prow)]
                g = gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows):
    return len(_echelon(rows)[1])


def nullspace(rows, ncols=None):
    """Basis of {x : A x = 0}, read off the reduced row echelon form."""
    rows = [tuple(r) for r in rows]
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty system")
        ncols = len(rows[0])
    m, pivots = _echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for row, pc in zip(m, pivots):
            x[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(x))
    return basis


def solve(rows, rhs):
    """One solution of A x = b, or None when inconsistent."""
    rows = [tuple(r) for r in rows]
    if not rows:
        return ()
    ncols = len(rows[0])
    aug = [r + (b,) for r, b in zip(rows, rhs, strict=True)]
    m, pivots = _echelon(aug)
    if ncols in pivots:  # pivot in the rhs column: inconsistent
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(m, pivots):
        x[pc] = Fraction(row[ncols], row[pc])
    return tuple(x)


def inverse(rows):
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(rows)
    aug = [tuple(r) + tuple(int(i == j) for j in range(n))
           for i, r in enumerate(rows)]
    m, pivots = _echelon(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [tuple(Fraction(a, row[i]) for a in row[n:]) for i, row in enumerate(m)]


def transpose(rows):
    return [tuple(col) for col in zip(*rows)]


def affine_rank(points):
    """Dimension of the affine hull of a nonempty point set."""
    return rank([vec_sub(p, points[0]) for p in points[1:]])


def greedy_independent(rows):
    """Indices of a maximal independent subset, scanning in list order: the
    pivot columns of the rows taken as columns."""
    return _echelon(transpose(rows))[1]
