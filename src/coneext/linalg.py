"""Small exact linear-algebra toolkit over Fraction vectors.

Vectors are tuples of Fractions, matrices are lists/tuples of row vectors.
Everything here is plain Gaussian elimination; sizes stay at desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def vec(entries):
    return tuple(Fraction(e) for e in entries)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def dot(u, v):
    return sum((a * b for a, b in zip(u, v, strict=True)), start=Fraction(0))


def is_zero_vec(u):
    return all(a == 0 for a in u)


def primitive(u):
    """Scale to coprime integers, clearing denominators; direction kept."""
    u = vec(u)
    if is_zero_vec(u):
        raise ValueError("zero vector has no primitive form")
    mult = lcm(*(a.denominator for a in u))
    ints = [int(a * mult) for a in u]
    g = gcd(*ints)
    return tuple(Fraction(x // g) for x in ints)


def rref(rows):
    """Reduced row echelon form. Returns (rows, pivot column indices)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, ncols=None):
    """Basis of {x : A x = 0}, via back substitution from the rref."""
    rows = [vec(r) for r in rows]
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty system")
        ncols = len(rows[0])
    m, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            x[pc] = -m[ri][fc]
        basis.append(tuple(x))
    return basis


def solve(rows, rhs):
    """One solution of A x = b, or None when inconsistent."""
    rows = [vec(r) for r in rows]
    rhs = vec(rhs)
    if not rows:
        return ()
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs, strict=True)]
    m, pivots = rref(aug)
    if ncols in pivots:  # pivot in the rhs column: inconsistent
        return None
    x = [Fraction(0)] * ncols
    for ri, pc in enumerate(pivots):
        x[pc] = m[ri][ncols]
    return tuple(x)


def inverse(rows):
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(rows)
    aug = [list(map(Fraction, r)) + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    m, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [tuple(m[i][n:]) for i in range(n)]


def mat_vec(rows, x):
    return tuple(dot(r, x) for r in rows)


def transpose(rows):
    return [tuple(col) for col in zip(*rows)]


def affine_rank(points):
    """Dimension of the affine hull of a nonempty point set."""
    points = [vec(p) for p in points]
    base = points[0]
    return rank([vec_sub(p, base) for p in points[1:]])


def greedy_independent(rows, target_rank=None):
    """Indices of a maximal (or rank-``target_rank``) independent subset,
    scanning in list order."""
    chosen = []
    chosen_rows = []
    for i, r in enumerate(rows):
        if rank(chosen_rows + [r]) > len(chosen_rows):
            chosen.append(i)
            chosen_rows.append(r)
            if target_rank is not None and len(chosen) == target_rank:
                break
    return chosen
