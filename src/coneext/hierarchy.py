"""The extendibility hierarchy between two proper cones, with certificates.

Level k sits between the minimal and maximal tensor products: a point of
V_A ox V_B is a level-k member when it is the image, under one copy of the
identity tensored with the reduction map of the based cone B, of a point of
the (k+1)-factor maximal tensor product that is symmetric over the B slots.
Membership and its refutation are decided by one exact LP and returned
with re-verified certificates: an explicit symmetric extension, or a dual
witness functional that the adjoint of the reduction map carries into the
minimal tensor product of the dual cones, decomposed there by the LP's own
Farkas multipliers.

The same machinery decides whether the reduction map itself is
entanglement breaking (two independent routes, compared loudly) and runs
the finite interior test for the vertex-facet pairing tensor.

Every hierarchy LP lives on V_A ox Sym^k(V_B), so its data is built in
symmetric-power coordinates: one coordinate per pair (a, m) with m a sorted
k-multiset of [dim B] in ``combinations_with_replacement`` order, the order
of ``sym_basis``.  One exact closed form, tabled once per LP, replaces
dense n^k tensor work:

  Sym(v_1 ox .. ox v_k)[m] = coeff of t^m in prod_s <v_s, t>, divided by
  the number of arrangements of m.

The reduction needs no second formula: pairing s_m with a symmetric tensor
reads that tensor's entry at m, so the reduction of the symmetric basis
element s_m, read at j, is Sym(e_j ox phi^(k-1))[m].

A refutation, a breaking decomposition and a dual hierarchy decomposition
are one object: nonnegative weights decomposing the symmetric pad
Sym(R ox pad^(k-1)) of R over generators head ox Sym(tails).  R is the
witness, the identity or the query point; the pad is phi, phi or an interior
point; the generators are f ox Sym(g..), vertex ox Sym(psi..) or
ray_A ox Sym(rays_B..).  ``_pad_decompose`` solves the last two, and one
judge, ``_check_pad``, re-checks all three as degree-k forms on the
principal lattice, sharing no code with the formula above.  An extension is
re-checked on ints by contraction with the facets, and with phi for its
reduction, sharing no code with the formula either.

The LP builders, both judges and ``omega_interior_test`` run on ints.  A
cone's rays and facets are ints already; each clears its other vectors by
positive integers, so no sign moves.  The judges cross-multiply once.
``_ext_k_rows`` and ``_pad_columns`` do not divide at all: both read one
table of head ox Sym(tails) integers over one denominator
(``_sym_head_ints``), the first by rows and the second by columns, join a
row with its rhs over the two denominators (``_joined``), and hand the LP
each row as the cleared ``(ints, d)`` in lowest terms that ``LpProblem``
holds.  The interior test scales every facet centroid by one common D,
which multiplies each of its terms by D^k.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul

from .cones import interior_point, min_columns
from .lp import FEASIBLE, LpProblem, conic_solve, solve
from .linalg import clear_denominators, clear_rows, dot, primitive, vec
from .polytopes import SimplexFactorization
from .records import record
from .tensors import (DUAL, PRIMAL, DenseTensor, Slot, contract_slot,
                      from_vector, kron, pairing, symmetric_project)


class ConsistencyError(AssertionError):
    """A certificate failed its exact re-check, or two independent decision
    routes disagreed; a bug, raised loudly."""


# ---------------------------------------------------------------------------
# tensor products of cones

def min_tensor_generators(*cones):
    """Generators of the minimal tensor product: Kronecker products of
    extreme rays, one per tuple of factors, as ``cones.min_columns``
    orders them."""
    slots = tuple(Slot(c.dim, PRIMAL) for c in cones)
    return [DenseTensor(slots, col) for col in min_columns(*cones)]


def point_tensor(a_cone, b_cone, entries):
    """Int or Fraction entries (row-major, length dim_A * dim_B) as a
    V_A ox V_B tensor."""
    return DenseTensor((Slot(a_cone.dim, PRIMAL), Slot(b_cone.dim, PRIMAL)),
                       vec(entries))


def _point_dims(x, a_cone, based):
    """(dim A, dim B); ValueError unless x is a V_A ox V_B point."""
    nA, nB = a_cone.dim, based.cone.dim
    if x.slots != (Slot(nA, PRIMAL), Slot(nB, PRIMAL)):
        raise ValueError("point has wrong shape for the cone pair")
    return nA, nB


# ---------------------------------------------------------------------------
# the reduction map

def reduction_map(based, k):
    """Average over positions of (phi everywhere except one identity slot),
    as phi^(k-1) ox identity symmetrized over its k dual slots; level 1 is
    the identity.  The tensor has k dual slots then one primal slot, all of
    dimension dim B."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = based.cone.dim
    ident = DenseTensor((Slot(n, DUAL), Slot(n, PRIMAL)),
                        [Fraction(int(i == j)) for i in range(n) for j in range(n)])
    t = kron(*([from_vector(based.phi, DUAL)] * (k - 1)), ident)
    return symmetric_project(t, range(k))


def apply_reduction(x, based, k):
    """(Id_A ox reduction)(x) for x in V_A ox V_B^{ox k}: symmetrize the B
    slots, then pair all but the first with phi, which is the average over
    keeping one B slot for any x.  A dense reference: ``_check_extension``
    contracts a B-symmetric extension with phi on ints instead."""
    phi_dual = from_vector(based.phi, DUAL)
    t = symmetric_project(x, range(1, k + 1))
    for slot in range(k, 1, -1):
        t = contract_slot(t, slot, phi_dual)
    return t


# ---------------------------------------------------------------------------
# symmetric-power coordinates

def _multisets(n, k):
    """Sorted k-multisets of [n], in combinations_with_replacement order."""
    return list(itertools.combinations_with_replacement(range(n), k))


def _arrangements(m):
    """Number of distinct orderings of the sorted multiset m."""
    out = factorial(len(m))
    for _, run in itertools.groupby(m):
        out //= factorial(len(tuple(run)))
    return out


def _sym_product(vectors, multisets):
    """The int coefficient of t^m in the product of the linear forms <v_s, t>
    of the int vectors v_s, at each multiset m."""
    poly = {(): 1}
    for v in vectors:
        nxt = {}
        for mono, c in poly.items():
            for j, vj in enumerate(v):
                if vj:
                    p = bisect_right(mono, j)
                    key = mono[:p] + (j,) + mono[p:]
                    nxt[key] = nxt.get(key, 0) + c * vj
        poly = nxt
    return [poly.get(m, 0) for m in multisets]


def _sym_head_ints(heads, tails, pairs, multisets):
    """(ints, den): ints[p][o][i] / den is heads[h][o] Sym(tails_combo)[m]
    for the pair p = (combo, h) and the i-th multiset m of ``multisets``.
    The heads are cleared once over dh and the tails over dt, and den is
    L dt^k dh for L the lcm of the arrangement counts: each entry is a
    cleared head entry times the int coefficient of ``_sym_product`` times
    L / #arrangements(m), so no entry is ever a Fraction."""
    heads, dh = clear_rows(heads)
    tails, dt = clear_rows(tails)
    arrangements = [_arrangements(m) for m in multisets]
    top = lcm(*arrangements)
    syms = {}
    for combo in {combo for combo, _ in pairs}:
        coeffs = _sym_product([tails[j] for j in combo], multisets)
        syms[combo] = [c * (top // n) for c, n in zip(coeffs, arrangements)]
    ints = [[[a * s for s in syms[combo]] for a in heads[h]] for combo, h in pairs]
    return ints, top * dt ** len(multisets[0]) * dh


def _sym_pad_ints(rows, pad, multisets):
    """(ints, den): ints[o][i] / den is Sym(rows[o] ox pad^(k-1)) at the i-th
    multiset of ``multisets``, the ``_sym_head_ints`` table of the one head
    [1] over the tails rows[o], pad, .., pad."""
    n, k = len(rows), len(multisets[0])
    pairs = [((o,) + (n,) * (k - 1), 0) for o in range(n)]
    ints, den = _sym_head_ints([[1]], [*rows, pad], pairs, multisets)
    return [t[0] for t in ints], den


def _joined(ints, d, t, q):
    """The row (*ints / d, t / q), for ints over d > 0 and an int t over
    q > 0, as a tuple of ints over its least common denominator: cross-
    multiplied over d q, then all divided by their gcd."""
    ints, d = [a * q for a in ints] + [t * d], d * q
    g = gcd(d, *ints)
    if g == 1:
        return tuple(ints), d
    return tuple([a // g for a in ints]), d // g


def _pad_columns(rows, pad, heads, tails, pairs, k):
    """The rows of the LP of a symmetric-pad decomposition as ``conic_solve``
    takes them, one per index (m, o): the pairs' entries, then the target's.

    The target is Sym(R ox pad^(k-1)) for the tensor R with rows ``rows``,
    read at (m, o) off ``_sym_pad_ints``.  The generator of a pair
    (combo, h) is Sym(tails_combo)[m] heads[h][o], so row (m, o) reads entry
    (o, m) of every pair in ``_sym_head_ints`` and is ``_joined`` with the
    target's entry over the two tables' denominators.
    """
    multisets = _multisets(len(pad), k)
    target, dt = _sym_pad_ints(rows, pad, multisets)
    ints, dh = _sym_head_ints(heads, tails, pairs, multisets)
    return tuple(_joined([t[o][i] for t in ints], dh, target[o][i], dt)
                 for i in range(len(multisets)) for o in range(len(rows)))


def _pad_decompose(rows, pad, heads, tails, pairs, k):
    """The ``ConicOutcome`` of the LP of ``_pad_columns``, a member's weights
    re-checked by ``_check_pad``."""
    check = conic_solve(len(pairs), _pad_columns(rows, pad, heads, tails, pairs, k))
    if check.member:
        _check_pad(rows, pad, heads, tails, pairs, k, check.weights)
    return check


# ---------------------------------------------------------------------------
# exact evaluation on the principal lattice

def _lattice(n, k):
    """The principal lattice {t in N^n : |t| = k}: C(n+k-1, k) points.

    The points are unisolvent for homogeneous forms of degree k in n
    variables (Nicolaides, SIAM J. Numer. Anal. 9, 1972; Chung and Yao,
    SIAM J. Numer. Anal. 14, 1977): such a form that vanishes at every point
    is zero.  A symmetric k-tensor S is the form t -> S(t, .., t), and
    Sym(v_1 ox .. ox v_k) is the form prod_s <v_s, t>, so two symmetric
    tensors are equal exactly when their forms agree at every point.
    """
    if n == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        for rest in _lattice(n - 1, k - first):
            yield (first,) + rest


def _check_pad(rows, pad, heads, tails, pairs, k, weights):
    """The one judge of a symmetric-pad certificate, the data of the LP of
    ``_pad_columns`` and its weights: ConsistencyError unless the weights are
    nonnegative and the pairs' columns re-sum to Sym(R ox pad^(k-1)), read
    per row o as forms: sum w heads[h][o] prod_(j in combo) <tails[j], t>
    against <rows[o], t> <pad, t>^(k-1) at every point t of the principal
    lattice.

    The LP data this re-check judges, the pad target included, are
    coefficients of products of linear forms (``_sym_product``).  Here the
    products are evaluated at integer points and no coefficient is read, so
    the two routes share no code, and a fault in the formula leaves weights
    or multipliers that fail here.  Each linear form is evaluated at the
    points once, before the loop over pairs.
    """
    if any(w < 0 for w in weights):
        raise ConsistencyError("pad decomposition has a negative weight")
    points = list(_lattice(len(pad), k))

    def values(v):
        return [sum(a * b for a, b in zip(v, t) if b) for t in points]

    # the weights over dw, head coordinate o over dh, the pad over dp and
    # row o over dr; the tails, B's facets or rays, are ints already.  Row o
    # is compared cross-multiplied
    weights, dw = clear_denominators(weights)
    cols = [clear_denominators(col) for col in zip(*heads)]
    forms = [values(v) for v in tails]
    pad, dp = clear_denominators(pad)
    pad_pow = [p ** (k - 1) for p in values(pad)]
    total = [[0] * len(points) for _ in rows]
    for w, (combo, h) in zip(weights, pairs, strict=True):
        if not w:
            continue
        prod = [1] * len(points)
        for j in combo:
            prod = [p * f for p, f in zip(prod, forms[j])]
        for row, (col, _) in zip(total, cols, strict=True):
            if wc := w * col[h]:
                row[:] = [r + wc * p for r, p in zip(row, prod)]
    for sums, (_, dh), row in zip(total, cols, rows, strict=True):
        row, dr = clear_denominators(row)
        lhs, rhs = dr * dp ** (k - 1), dw * dh
        target = [v * p for v, p in zip(values(row), pad_pow)]
        if [s * lhs for s in sums] != [v * rhs for v in target]:
            raise ConsistencyError("pad decomposition does not re-sum")


# ---------------------------------------------------------------------------
# level-k membership

@record
class ExtkVerdict:
    member: bool
    k: int
    extension: DenseTensor | None = None  # V_A ox V_B^{ox k}, symmetric in B
    witness: DenseTensor | None = None    # primitive int functional on V_A ox V_B


def _max_halfspace_ints(ys, fs, gs, k):
    """Yield <f ox g_1 ox .. ox g_k, y> for each int A facet f of ``fs`` and
    each sorted k-multiset g of int B facets of ``gs``
    (``combinations_with_replacement`` order), for the int entries ``ys``
    of a tensor y in V_A ox V_B^{ox k}, row-major.

    y is contracted with f, then with one facet per B slot, leading slot
    first, so multisets with a common prefix share that contraction.
    Multisets are enough only because y is B-symmetric: every arrangement
    of g pairs with y alike.
    """
    def contract(v, w):
        # the leading slot of v against w
        r = len(v) // len(w)
        out = [0] * r
        for j, wj in enumerate(w):
            if wj:
                out = [o + wj * e for o, e in zip(out, v[j * r:(j + 1) * r])]
        return out

    def walk(v, start, depth):
        if not depth:
            yield v[0]
            return
        for i in range(start, len(gs)):
            yield from walk(contract(v, gs[i]), i, depth - 1)

    for f in fs:
        yield from walk(contract(ys, f), 0, k)


def _check_extension(x, a_cone, based, k, y):
    """Exact re-verification: B-symmetric, all max half-spaces nonnegative,
    and reduces to x.  y is cleared to ints by one positive D, which keeps
    every sign and equality.  A B-symmetric y reduces to its contraction
    with phi in any k - 1 of its B slots, here the trailing ones, compared
    with x cross-multiplied."""
    nA, nB = a_cone.dim, based.cone.dim
    ys, D = clear_denominators(y.entries)
    block = nB ** k
    for p, js in enumerate(itertools.product(range(nB), repeat=k)):
        q = 0
        for j in sorted(js):
            q = q * nB + j
        if any(ys[a + p] != ys[a + q] for a in range(0, nA * block, block)):
            raise ConsistencyError("extension is not symmetric over the B slots")
    if any(v < 0 for v in _max_halfspace_ints(ys, a_cone.facets,
                                              based.cone.facets, k)):
        raise ConsistencyError("extension violates a max half-space")
    phi, dp = clear_denominators(based.phi)
    for _ in range(k - 1):
        ys = [sum(map(mul, phi, ys[i:i + nB])) for i in range(0, len(ys), nB)]
    xs, dx = clear_denominators(x.entries)
    scale = D * dp ** (k - 1)
    if [v * dx for v in ys] != [v * scale for v in xs]:
        raise ConsistencyError("extension does not reduce to the query point")


def reduction_adjoint(based, k, zeta):
    """(Id ox adjoint-of-reduction)(zeta): pad with phi factors and
    symmetrize over the B-dual slots."""
    phi_dual = from_vector(based.phi, DUAL)
    t = kron(zeta, *([phi_dual] * (k - 1)))
    return symmetric_project(t, tuple(range(1, k + 1)))


def _ext_k_pairs(a_cone, based, k):
    """The level-k max half-spaces f ox Sym(g) as (B facet multiset, A
    facet) index pairs: A facets outer, multisets in ``_multisets`` order.
    This is the order of the LP's ge rows and of the witness weights."""
    combos = _multisets(len(based.cone.facets), k)
    return [(combo, f) for f in range(len(a_cone.facets)) for combo in combos]


def _ext_k_rows(x, a_cone, based, pairs):
    """(ge, eq): the rows of the level-k LP for the point x over the columns
    (a, m), cleared as ``LpProblem`` takes them, each ``(ints, d)`` with the
    rhs last over the least common denominator d of the row.

    Column (a, m) is e_a ox sym_basis[m].  The ge rows, one per pair
    (g, f) of ``pairs``, the ``_ext_k_pairs`` of the level k = |g|, are
    f[a] Sym(g)[m] >= 0: max half-spaces paired with the column, which is
    entry (a, m) of the pair in ``_sym_head_ints`` with A's facets as
    heads, ``_joined`` with the rhs 0.  The eq rows, one per (i, j) in
    row-major order, are the reduced columns read at (i, j) = x[i, j]: the
    reduction of sym_basis[m] read at j is Sym(e_j ox phi^(k-1))[m], so
    block i is row j of the ``_sym_pad_ints`` table of the unit rows
    ``_joined`` with x[i, j].  No entry is ever a Fraction.
    """
    nA, nB = a_cone.dim, based.cone.dim
    multisets = _multisets(nB, len(pairs[0][0]))
    ints, den = _sym_head_ints(a_cone.facets, based.cone.facets, pairs, multisets)
    ge = [_joined(itertools.chain.from_iterable(t), den, 0, 1) for t in ints]
    units = [[int(i == j) for j in range(nB)] for i in range(nB)]
    red, den = _sym_pad_ints(units, based.phi, multisets)
    zeros = (0,) * len(multisets)
    eq = []
    for i, j in itertools.product(range(nA), range(nB)):
        t = x.entries[i * nB + j]
        ints, d = _joined(red[j], den, t.numerator, t.denominator)
        eq.append((zeros * i + ints[:-1] + zeros * (nA - 1 - i) + ints[-1:], d))
    return ge, eq


def _symmetric_extension(weights, nA, nB, k):
    """The B-symmetric tensor sum_(a, m) w_(a, m) e_a ox sym_basis[m]:
    each arrangement of m carries w_(a, m) / #arrangements(m)."""
    cols = [(a, m) for a in range(nA) for m in _multisets(nB, k)]
    share = {(a, m): w / _arrangements(m) for (a, m), w in zip(cols, weights)}
    entries = [share[a, tuple(sorted(arr))] for a in range(nA)
               for arr in itertools.product(range(nB), repeat=k)]
    return DenseTensor((Slot(nA, PRIMAL),) + (Slot(nB, PRIMAL),) * k, entries)


def ext_k_membership(x, a_cone, based, k):
    """Decide level-k membership of x with a certificate either way.

    One exact LP either way.  Member: a symmetric extension in
    V_A ox Sym_k(V_B), parametrized in sym_basis coordinates for the LP.
    Non-member: the primitive witness functional zeta = c (-mu), c > 0, from
    the Farkas multipliers mu of the eq rows, with zeta(x) < 0.  The
    multipliers of the max half-space rows decompose its reduction-adjoint
    image Sym(zeta ox phi^(k-1)) in the minimal tensor product of the dual
    cones once scaled by c, re-checked by ``_check_pad`` with no second LP.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    nA, nB = _point_dims(x, a_cone, based)
    pairs = _ext_k_pairs(a_cone, based, k)
    ge, eq = _ext_k_rows(x, a_cone, based, pairs)
    problem = LpProblem(len(eq[0][0]) - 1, (*eq, *ge), len(eq), frozenset())
    out = solve(problem)
    if out.status == FEASIBLE:
        y = _symmetric_extension(out.point, nA, nB, k)
        _check_extension(x, a_cone, based, k, y)
        return ExtkVerdict(member=True, k=k, extension=y)
    mu, lam = out.certificate[:len(eq)], out.certificate[len(eq):]
    zeta_entries = primitive([-m for m in mu])
    zeta = DenseTensor((Slot(nA, DUAL), Slot(nB, DUAL)), zeta_entries)
    if pairing(zeta, x) >= 0:
        raise ConsistencyError("witness does not separate the query point")
    # zeta = c (-mu) with c > 0, so c lam decomposes zeta's image
    i = next(i for i, m in enumerate(mu) if m)
    c = zeta_entries[i] / -mu[i]
    zetas = [zeta_entries[a * nB:(a + 1) * nB] for a in range(nA)]
    _check_pad(zetas, based.phi, a_cone.facets, based.cone.facets, pairs, k,
               [c * lam_h for lam_h in lam])
    return ExtkVerdict(member=False, k=k, witness=zeta)


# ---------------------------------------------------------------------------
# entanglement breaking

@record
class EbTerm:
    facet_indices: tuple  # sorted k-tuple of base facet indices
    vertex_index: int
    weight: Fraction


@record
class EbOutcome:
    breaking: bool
    k: int
    terms: tuple | None = None          # decomposition when breaking
    refutation: tuple | None = None     # separator at _pad_columns' (m, o)


def _admissible_multisets(based, k):
    """Sorted facet k-multisets covering the avoiding set of some vertex,
    paired with that vertex."""
    base = based.base
    combos = _multisets(len(base.functionals), k)
    out = []
    for v in range(len(base.vertices)):
        need = base.avoiding_set(v)
        if len(need) > k:
            continue
        for combo in combos:
            if need <= set(combo):
                out.append((combo, v))
    return out


def is_entanglement_breaking(based, k):
    """Two independent routes, compared: the combinatorial product-of-
    simplices recognition on the base (at most k nontrivial factors) and an
    LP expressing the reduction tensor over symmetrized admissible-tuple
    generators.  Disagreement raises ConsistencyError.

    The reduction tensor (1/k) sum_pos phi ox .. ox id ox .. ox phi is the
    symmetric pad of the identity with phi, so the LP route is one
    ``_pad_decompose`` with the identity as rows, the vertices as heads and
    the facet functionals psi, which are B's facets, as tails.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    fact = based.base.factorization
    route1 = isinstance(fact, SimplexFactorization) and len(fact.factor_dims) <= k
    multis = _admissible_multisets(based, k)
    n = based.cone.dim
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    check = _pad_decompose(units, based.phi, based.base.vertices,
                           based.cone.facets, multis, k)
    if check.member != route1:
        raise ConsistencyError(
            f"entanglement-breaking routes disagree at k={k}: "
            f"combinatorial={route1} lp={check.member}")
    if check.member:
        terms = tuple(EbTerm(combo, v, w)
                      for (combo, v), w in zip(multis, check.weights) if w != 0)
        return EbOutcome(True, k, terms=terms)
    return EbOutcome(False, k, refutation=check.separating)


# ---------------------------------------------------------------------------
# the interior test for the vertex-facet pairing tensor

def _facet_centroids(base):
    """Centroid of the vertices of each facet of the base polytope."""
    out = []
    for j in range(len(base.functionals)):
        idxs = base.vertices_of_facet(j)
        cent = [Fraction(0)] * base.ambient_dim
        for i in idxs:
            for c, val in enumerate(base.vertices[i]):
                cent[c] += val
        out.append([val / len(idxs) for val in cent])
    return out


def omega_interior_test(based, k):
    """Interior test for the vertex-facet tensor, two ways, compared.

    Left: strict positivity against every generator of the dual cone of the
    ambient max product (all facet k-tuples Kronecker a cone ray).  Right:
    every vertex avoids more than k facets.  Both sides are exact; they must
    agree or ConsistencyError is raised.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    base = based.base
    cone = based.cone
    # sum_f psi_f(r) prod_(a in combo) psi_a(cent_f) on ints
    psis = cone.facets
    cents, _ = clear_rows(_facet_centroids(base))
    at_cent = [[sum(map(mul, psi, c)) for c in cents] for psi in psis]
    at_ray = [[sum(map(mul, psi, r)) for psi in psis] for r in cone.rays]

    def positive(combo):
        prods = [1] * len(psis)
        for a in combo:
            prods = list(map(mul, prods, at_cent[a]))
        return all(sum(map(mul, prods, r)) > 0 for r in at_ray)

    left = all(map(positive, _multisets(len(psis), k)))
    right = all(len(base.avoiding_set(v)) > k for v in range(len(base.vertices)))
    if left != right:
        raise ConsistencyError(
            f"interior test sides disagree at k={k}: strict={left} avoid={right}")
    return left


# ---------------------------------------------------------------------------
# the dual hierarchy level search

@record
class HierarchyResult:
    k: int
    weights: tuple        # aligned with the generator descriptions
    generators: tuple     # (a-ray index, sorted tuple of b-ray indices) per weight


def dual_hierarchy_k(x, a_cone, based, k_max=6):
    """Smallest k <= k_max such that the symmetrized pad of x with interior
    base points lands in the k-fold minimal tensor product.

    Requires k_max >= 1 and x a V_A ox V_B point strictly interior to the
    max product (checked; ValueError otherwise).  Returns HierarchyResult or
    None when k_max is exhausted.

    Each level is one ``_pad_decompose`` of the symmetric pad of x with y
    over the generators ray_A ox Sym(rays_B).
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    nA, nB = _point_dims(x, a_cone, based)
    xs, _ = clear_denominators(x.entries)
    if any(v <= 0 for v in _max_halfspace_ints(xs, a_cone.facets,
                                               based.cone.facets, 1)):
        raise ValueError("point is not strictly interior to the max product")
    xs = [x.entries[a * nB:(a + 1) * nB] for a in range(nA)]
    y = interior_point(based.cone)
    scale = dot(based.phi, y)
    y = tuple(v / scale for v in y)
    for k in range(1, k_max + 1):
        combos = _multisets(len(based.cone.rays), k)
        pairs = [(combo, ia) for ia in range(len(a_cone.rays)) for combo in combos]
        check = _pad_decompose(xs, y, a_cone.rays, based.cone.rays, pairs, k)
        if check.member:
            kept = [i for i, w in enumerate(check.weights) if w]
            return HierarchyResult(k=k, weights=tuple(check.weights[i] for i in kept),
                                   generators=tuple(pairs[i][::-1] for i in kept))
    return None
