"""Exact verification of the nine-dimensional operator family X_{a,b,c}
and its symmetric extensions over Q(sqrt2).

Everything here is real symmetric, so no complex arithmetic is needed.  An
n x n operator is a DenseTensor on (Slot(n, PRIMAL), Slot(n, DUAL)) with
QuadScalar entries in row-major order; a map that acts per tensor factor
re-slots the same flat entries as one row and one column slot per factor.
Positivity is decided by symmetric Gaussian elimination with algebraic
pivot sign tests; every claim in verify_appendix is an exact identity and
any deviation raises AppendixError.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt, prod

from .records import record
from .scalars import SQRT2, QuadScalar
from .tensors import DUAL, PRIMAL, DenseTensor, Slot, kron, pairing, reorder_slots

ZERO = QuadScalar(0, 0)
ONE = QuadScalar(1, 0)
HALF = QuadScalar(Fraction(1, 2), 0)

# eta = 1 - sqrt2/2, the mixing parameter of the counterexample family
ETA = QuadScalar(1, Fraction(-1, 2))

ADJOINT_PROBE_SEED = 7  # seeds the random operators of claim 4's adjoint probe


class AppendixError(AssertionError):
    """An exact identity in the verification chain failed."""


def _as_operator(t):
    """Read the flat entries of a factored operator as one square operator."""
    n = isqrt(len(t.entries))
    return DenseTensor((Slot(n, PRIMAL), Slot(n, DUAL)), t.entries)


def _factored(m, dims):
    """The same entries with one row slot, then one column slot, per factor."""
    return DenseTensor(tuple(Slot(d, PRIMAL) for d in dims)
                       + tuple(Slot(d, DUAL) for d in dims), m.entries)


def _partial_trace(t, i, j):
    """Trace slot i against slot j: move the pair last, then add up the
    diagonal of each trailing d x d block."""
    rest = [s for s in range(len(t.slots)) if s not in (i, j)]
    moved = reorder_slots(t, rest + [i, j])
    d = t.slots[i].dim
    e = moved.entries
    return DenseTensor(moved.slots[:-2], [sum(e[b + d + 1:b + d * d:d + 1], e[b])
                                          for b in range(0, len(e), d * d)])


def _swap_bc(t):
    """Exchange the two trailing factors of a factored 27 x 27 operator."""
    return reorder_slots(t, (0, 2, 1, 3, 5, 4))


def operator(rows):
    rows = tuple(tuple(QuadScalar.of(x) for x in row) for row in rows)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    return DenseTensor((Slot(n, PRIMAL), Slot(n, DUAL)),
                       [x for row in rows for x in row])


def identity_operator(n):
    return operator([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def kron_operator(x, y):
    return _as_operator(reorder_slots(kron(x, y), (0, 2, 1, 3)))


def trace_product(x, y):
    if x.slots != y.slots:
        raise ValueError("dimension mismatch")
    return pairing(x, reorder_slots(y, (1, 0)))


def build_X(alpha, beta, gamma):
    """The 9x9 family: alpha on the (ii,ii) diagonal, beta on the (ij,ij)
    diagonal for i != j, gamma coupling |ii> to |jj| for i != j."""
    alpha, beta, gamma = (QuadScalar.of(v) for v in (alpha, beta, gamma))
    m = [[ZERO] * 9 for _ in range(9)]
    for i in range(3):
        for j in range(3):
            row = 3 * i + j
            if i == j:
                m[row][row] = alpha
            else:
                m[row][row] = beta
                m[3 * i + i][3 * j + j] = gamma
    return operator(m)


def psd_check_exact(m, strict=False):
    """Symmetric elimination with exact pivot signs: positive pivots are
    eliminated, a zero pivot forces its whole remaining row to vanish, a
    negative pivot (or a nonzero entry beside a zero pivot) refutes
    positivity.  Strict mode additionally demands full rank."""
    n = m.slots[0].dim
    a = [list(m.entries[i * n:(i + 1) * n]) for i in range(n)]
    if not all(a[i][j] == a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    positive = 0
    for i in range(n):
        p = a[i][i]
        s = p.sign()
        if s < 0:
            return False
        if s == 0:
            if any(a[i][j].sign() != 0 for j in range(i, n)):
                return False
            continue
        positive += 1
        for r in range(i + 1, n):
            if a[r][i].sign() == 0:
                continue
            f = a[r][i] / p
            for c in range(i, n):
                a[r][c] = a[r][c] - f * a[i][c]
    if strict:
        return positive == n
    return True


def partial_transpose(m, factor_dims, which):
    """Transpose the chosen tensor factor's index between row and column."""
    if prod(factor_dims) != m.slots[0].dim:
        raise ValueError("factor dimensions do not multiply to the matrix size")
    if not 0 <= which < len(factor_dims):
        raise ValueError("factor index out of range")
    f = len(factor_dims)
    perm = list(range(2 * f))
    perm[which], perm[f + which] = f + which, which
    return _as_operator(reorder_slots(_factored(m, factor_dims), perm))


def reduce_b_factors(m):
    """27x27 -> 9x9: average of tracing out either one of the two trailing
    factors, i.e. symmetrically discarding all but one B copy."""
    if m.slots[0].dim != 27:
        raise ValueError("expected a 27x27 operator")
    t = _factored(m, (3, 3, 3))
    return _as_operator((_partial_trace(t, 2, 5) + _partial_trace(t, 1, 4)).scale(HALF))


def sym_identity_extension(w):
    """9x9 -> 27x27 adjoint of reduce_b_factors: average of padding with the
    identity on either trailing slot."""
    if w.slots[0].dim != 9:
        raise ValueError("expected a 9x9 operator")
    pad = reorder_slots(kron(_factored(w.scale(HALF), (3, 3)), identity_operator(3)),
                        (0, 1, 4, 2, 3, 5))
    return _as_operator(pad + _swap_bc(pad))


# ---------------------------------------------------------------------------
# the four verification claims

@record
class AppendixClaim:
    label: str
    values: tuple  # (name, exact value as string) pairs


def _vec_outer(coeffs):
    n = len(coeffs)
    return operator([[coeffs[i] * coeffs[j] for j in range(n)] for i in range(n)])


def _ket(a, b, c):
    return 9 * (a - 1) + 3 * (b - 1) + (c - 1)


def _gram_vectors():
    """Three swap-symmetric vectors whose Gram sum reduces to X_{4,1,2s+1}.

    Each follows the pattern sqrt2|iii> plus, for the other two values a,
    the symmetrized pair |i a i...>: the printed source flattens the third
    one incorrectly (it repeats the i=1 pair), so the pairs here are
    regenerated from the pattern; the reduction identity below would fail
    otherwise.
    """
    vecs = []
    for i in (1, 2, 3):
        v = [ZERO] * 27
        v[_ket(i, i, i)] = SQRT2
        for a in (1, 2, 3):
            if a == i:
                continue
            v[_ket(a, i, a)] = ONE
            v[_ket(a, a, i)] = ONE
        vecs.append(v)
    return vecs


def _swap_symmetric(m):
    return _swap_bc(_factored(m, (3, 3, 3))).entries == m.entries


def verify_appendix():
    """Run the four exact claims separating level-2 max-extendibility from
    level-2 PSD-extendibility and return them in order, each with its exact
    values.

    1. The convex split of Y = X_{1,eta,1} into the extendible corner
       operator and X_{0,1,1}.
    2. X_{4,1,2s+1} has an explicit PSD symmetric extension (a Gram sum).
    3. X_{0,1,1} is max-extendible: the partial transpose has a rank-one
       symmetric PSD extension, with the exact scale recorded.
    4. The obstruction: W = X_{1,eta,-2eta} pairs to zero with Y, its
       symmetric identity pad W2 is strictly positive definite, and the
       pad is adjoint to the reduction, so no PSD symmetric extension of Y
       can exist.
    Any failed identity raises AppendixError naming the claim, so a
    returned claim has passed.
    """
    claims = []

    # claim 1: decomposition of Y
    y = build_X(1, ETA, 1)
    corner = build_X(4, 1, ONE + SQRT2 + SQRT2)
    w_corner = QuadScalar.of(Fraction(1, 4))
    w_flip = QuadScalar(Fraction(3, 4), Fraction(-1, 2))
    recomposed = corner.scale(w_corner) + build_X(0, 1, 1).scale(w_flip)
    y_psd = psd_check_exact(y)
    if recomposed != y or not y_psd:
        raise AppendixError("decomposition of Y failed")
    claims.append(AppendixClaim("decomposition", (
        ("weight_corner", str(w_corner)),
        ("weight_flip", str(w_flip)),
        ("y_psd", str(y_psd)))))

    # claim 2: Gram-sum extension of the corner operator
    gram = None
    for v in _gram_vectors():
        t = _vec_outer(v)
        gram = t if gram is None else gram + t
    swap_ok, gram_psd = _swap_symmetric(gram), psd_check_exact(gram)
    if not (swap_ok and gram_psd and reduce_b_factors(gram) == corner):
        raise AppendixError("Gram extension of the corner operator failed")
    claims.append(AppendixClaim("gram-extension", (
        ("swap_symmetric", str(swap_ok)),
        ("psd", str(gram_psd)),)))

    # claim 3: rank-one extension of the partial transpose of X_{0,1,1}
    perm_vec = [ZERO] * 27
    for a, b, c in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)):
        perm_vec[_ket(a, b, c)] = ONE
    sigma = _vec_outer(perm_vec)
    reduced = reduce_b_factors(sigma)
    pt = partial_transpose(build_X(0, 1, 1), (3, 3), 1)
    scale = next((r / p for r, p in zip(reduced.entries, pt.entries) if p != ZERO),
                 None)
    if not (psd_check_exact(sigma) and _swap_symmetric(sigma)
            and scale is not None and reduced == pt.scale(scale)
            and partial_transpose(partial_transpose(pt, (3, 3), 1), (3, 3), 1) == pt):
        raise AppendixError("partial-transpose extension failed")
    claims.append(AppendixClaim("transpose-extension", (
        ("scale", str(scale)),)))

    # claim 4: the obstruction functional
    w = build_X(1, ETA, QuadScalar(-2, 1))
    w2 = sym_identity_extension(w)
    try_w = psd_check_exact(w)
    pd = psd_check_exact(w2, strict=True)
    t_yw = trace_product(y, w)
    rng = random.Random(ADJOINT_PROBE_SEED)
    z0 = kron_operator(build_X(1, 0, 0), identity_operator(3))
    adjoint_ok = all(trace_product(reduce_b_factors(z), w) == trace_product(z, w2)
                     for z in [z0] + [_random_symmetric(rng) for _ in range(3)])
    if try_w or not (pd and t_yw == ZERO and adjoint_ok):
        raise AppendixError("obstruction verification failed")
    claims.append(AppendixClaim("obstruction", (
        ("w_psd", str(try_w)),
        ("pad_strictly_pd", str(pd)),
        ("trace_y_w", str(t_yw)),
        ("adjoint_identity", str(adjoint_ok)))))
    return tuple(claims)


def _random_symmetric(rng):
    m = [[ZERO] * 27 for _ in range(27)]
    for i in range(27):
        for j in range(i, 27):
            v = QuadScalar(Fraction(rng.randint(-3, 3)),
                           Fraction(rng.randint(-3, 3), 2))
            m[i][j] = v
            m[j][i] = v
    return operator(m)
