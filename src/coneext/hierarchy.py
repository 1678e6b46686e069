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
of ``sym_basis``.  Two exact closed forms, tabled once per LP by
``_sym_tables``, replace dense n^k tensor work:

* Sym(v_1 ox .. ox v_k)[m] = coeff of t^m in prod_s <v_s, t>, divided by
  the number of arrangements of m;
* the reduction of the symmetric basis element s_m, read at j, is
  (m_j / k) phi^(m - e_j), zero when j is not in m; that is (1/k) grad p(phi).

A refutation, a breaking decomposition and a dual hierarchy decomposition
are one object: nonnegative weights decomposing the symmetric pad
Sym(R ox pad^(k-1)) of R over generators head ox Sym(tails).  R is the
witness, the identity or the query point; the pad is phi, phi or an interior
point; the generators are f ox Sym(g..), vertex ox Sym(psi..) or
ray_A ox Sym(rays_B..).  ``_pad_decompose`` solves the last two, and one
judge, ``_pad_resum_agrees``, re-checks all three as degree-k forms on the
principal lattice, sharing no code with the formulas above.  An extension is
re-checked by contraction with the facets.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .cones import interior_point
from .lp import (FEASIBLE, INFEASIBLE, CertificateError, LpProblem,
                 conic_membership, solve)
from .linalg import dot, primitive
from .polytopes import SimplexFactorization, factor_as_simplices
from .tensors import (DUAL, PRIMAL, DenseTensor, Slot, contract_slot,
                      from_vector, kron, pairing, symmetric_project)


class ConsistencyError(AssertionError):
    """A certificate failed its exact re-check, or two independent decision
    routes disagreed; a bug, raised loudly."""


# ---------------------------------------------------------------------------
# tensor products of cones

def min_tensor_generators(*cones):
    """Generators of the minimal tensor product: Kronecker products of
    extreme rays, one per tuple of factors."""
    out = []
    for combo in itertools.product(*(c.rays for c in cones)):
        out.append(kron(*(from_vector(r) for r in combo)))
    return out


def max_tensor_halfspaces(*cones):
    """Half-space description of the maximal tensor product: Kronecker
    products of dual extreme rays (facets) across the factors."""
    out = []
    for combo in itertools.product(*(c.facets for c in cones)):
        out.append(kron(*(from_vector(f, DUAL) for f in combo)))
    return out


def point_tensor(a_cone, b_cone, entries):
    """Entries (row-major, length dim_A * dim_B) as a V_A ox V_B tensor."""
    return DenseTensor((Slot(a_cone.dim, PRIMAL), Slot(b_cone.dim, PRIMAL)),
                       [Fraction(e) for e in entries])


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
    keeping one B slot for any x.  No code is shared with ``_sym_product``,
    ``_reduced_monomial`` or ``_symmetric_extension``, which build the LPs,
    so ``_check_extension``'s reduction check stays independent of them."""
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
    """Sym(v_1 ox .. ox v_k) at each sorted multiset m: the coefficient of
    t^m in the product of the linear forms <v_s, t>, over the number of
    arrangements of m."""
    poly = {(): Fraction(1)}
    for v in vectors:
        nxt = {}
        for mono, c in poly.items():
            for j, vj in enumerate(v):
                if vj:
                    p = bisect_right(mono, j)
                    key = mono[:p] + (j,) + mono[p:]
                    nxt[key] = nxt.get(key, 0) + c * vj
        poly = nxt
    return [poly.get(m, Fraction(0)) / _arrangements(m) for m in multisets]


def _reduced_monomial(m, j, phi):
    """(m_j / k) phi^(m - e_j): coordinate j of the reduction of the
    symmetric basis element s_m."""
    count = m.count(j)
    if not count:
        return Fraction(0)
    rest = list(m)
    rest.remove(j)
    val = Fraction(count, len(m))
    for q in rest:
        val *= phi[q]
    return val


def _sym_tables(pad, tails, combos, k):
    """The reduction table, row m holding (m_j / k) pad^(m - e_j) at each j,
    and Sym(tails_combo) for each combo, both at m in ``_multisets(len(pad), k)``."""
    multisets = _multisets(len(pad), k)
    red = [[_reduced_monomial(m, j, pad) for j in range(len(pad))]
           for m in multisets]
    syms = {combo: _sym_product([tails[j] for j in combo], multisets)
            for combo in combos}
    return red, syms


def _pad_columns(rows, pad, heads, tails, pairs, k):
    """LP data of a symmetric-pad decomposition at the indices (m, o).

    The target is Sym(R ox pad^(k-1)) for the tensor R with rows ``rows``:
    at (m, o) it is sum_j rows[o][j] (m_j / k) pad^(m - e_j).  The generator
    of a pair (combo, h) is Sym(tails_combo)[m] heads[h][o].
    """
    red, syms = _sym_tables(pad, tails, {combo for combo, _ in pairs}, k)
    target = tuple(dot(row, red_m) for red_m in red for row in rows)
    gens = [tuple(s * c for s in syms[combo] for c in heads[h])
            for combo, h in pairs]
    return target, gens


def _pad_decompose(rows, pad, heads, tails, pairs, k):
    """The ``ConicOutcome`` of the LP of ``_pad_columns``, a member's weights
    re-checked by ``_pad_resum_agrees``."""
    check = conic_membership(*_pad_columns(rows, pad, heads, tails, pairs, k))
    if check.member and not _pad_resum_agrees(check.weights, pairs, heads,
                                              tails, rows, pad, k):
        raise ConsistencyError(
            "pad decomposition has a negative weight or does not re-sum")
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


def _pad_resum_agrees(weights, pairs, heads, tails, rows, pad, k):
    """The one judge of a symmetric-pad decomposition: whether the weights are
    nonnegative and the columns of ``_pad_columns`` re-sum to Sym(R ox
    pad^(k-1)), read per row o as forms: sum w heads[h][o] prod_(j in combo)
    <tails[j], t> against <rows[o], t> <pad, t>^(k-1) at every point t of the
    principal lattice.

    The LP data this re-check judges come from the coefficients of products
    of linear forms (``_sym_product``) and from the closed form of the
    reduction (``_reduced_monomial``).  Here the products are evaluated at
    integer points and no coefficient is read, so the two routes share no
    code, and a fault in either formula leaves weights or multipliers that
    fail here.  Each linear form is evaluated at the points once, before the
    loop over pairs.
    """
    if any(w < 0 for w in weights):
        return False
    points = list(_lattice(len(pad), k))

    def values(v):
        return [sum(a * b for a, b in zip(v, t) if b) for t in points]

    forms = [values(v) for v in tails]
    pad_pow = [p ** (k - 1) for p in values(pad)]
    total = [[0] * len(points) for _ in rows]
    for w, (combo, h) in zip(weights, pairs, strict=True):
        if not w:
            continue
        prod = [1] * len(points)
        for j in combo:
            prod = [p * f for p, f in zip(prod, forms[j])]
        for row, wc in zip(total, [w * c for c in heads[h]], strict=True):
            if wc:
                row[:] = [r + wc * p for r, p in zip(row, prod)]
    return total == [[r * p for r, p in zip(values(row), pad_pow)] for row in rows]


# ---------------------------------------------------------------------------
# level-k membership

@dataclass(frozen=True)
class ExtkVerdict:
    member: bool
    k: int
    extension: DenseTensor | None = None  # V_A ox V_B^{ox k}, symmetric in B
    witness: DenseTensor | None = None    # primitive functional on V_A ox V_B


def _max_halfspace_values(t, a_facets, b_facets, k):
    """Yield <f ox g_1 ox .. ox g_k, t> for each A facet f and each sorted
    k-multiset g of B facets (``combinations_with_replacement`` order).

    t is contracted with f, then with one facet per B slot, so multisets with
    a common prefix share that contraction.  Multisets are enough only
    because t is B-symmetric: every arrangement of g pairs with t alike.
    """
    duals = [from_vector(g, DUAL) for g in b_facets]

    def walk(s, start):
        if not s.slots:
            yield s.entries[0]
            return
        for i in range(start, len(duals)):
            yield from walk(contract_slot(s, 0, duals[i]), i)

    for f in a_facets:
        yield from walk(contract_slot(t, 0, from_vector(f, DUAL)), 0)


def _check_extension(x, a_cone, based, k, y):
    """Exact re-verification: B-symmetric, all max half-spaces nonnegative,
    and reduces to x."""
    for (a, *js), e in zip(y.multi_indices(), y.entries):
        if e != y[(a, *sorted(js))]:
            raise ConsistencyError("extension is not symmetric over the B slots")
    if any(v < 0 for v in _max_halfspace_values(y, a_cone.facets,
                                                based.cone.facets, k)):
        raise ConsistencyError("extension violates a max half-space")
    if apply_reduction(y, based, k) != x:
        raise ConsistencyError("extension does not reduce to the query point")


def _check_witness(zeta, mu, lam, a_cone, based, k):
    """Exact re-verification of a refutation: with zeta = c (-mu), c > 0,
    the weights c lam_h of the max half-spaces f ox Sym(g_combo) are
    nonnegative and re-sum to the reduction-adjoint image Sym(zeta ox
    phi^(k-1)) of zeta, which therefore lies in the minimal product of the
    dual cones (``_pad_resum_agrees``, independent of the LP rows).
    """
    i = next(i for i, m in enumerate(mu) if m)
    c = zeta.entries[i] / -mu[i]
    nB = based.cone.dim
    pairs = _ext_k_pairs(a_cone, based, k)
    zetas = [zeta.entries[a * nB:(a + 1) * nB] for a in range(a_cone.dim)]
    if c <= 0 or not _pad_resum_agrees([c * lam_h for lam_h in lam], pairs,
                                       a_cone.facets, based.cone.facets,
                                       zetas, based.phi, k):
        raise ConsistencyError(
            "witness multipliers have the wrong sign or the witness image "
            "escaped the minimal product of the duals")


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


def _ext_k_rows(a_cone, based, k):
    """Coefficient rows of the level-k LP over the columns (a, m).

    Column (a, m) is e_a ox sym_basis[m].  The ge rows, one per pair
    (g, f) of ``_ext_k_pairs``, are f[a] Sym(g)[m]: max half-spaces paired
    with the column.  The eq rows, one per (i, j) in row-major order, are
    the reduced columns read at (i, j).
    """
    nA = a_cone.dim
    pairs = _ext_k_pairs(a_cone, based, k)
    red, syms = _sym_tables(based.phi, based.cone.facets,
                            {combo for combo, _ in pairs}, k)
    ge = [tuple(fa * s for fa in a_cone.facets[f] for s in syms[combo])
          for combo, f in pairs]
    zeros = (Fraction(0),) * len(red)
    eq = [zeros * i + red_j + zeros * (nA - 1 - i)
          for i in range(nA) for red_j in zip(*red)]
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
    image in the minimal tensor product of the dual cones, re-checked by
    ``_check_witness`` with no second LP.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    nA, nB = a_cone.dim, based.cone.dim
    if x.slots != (Slot(nA, PRIMAL), Slot(nB, PRIMAL)):
        raise ValueError("point has wrong shape for the cone pair")
    ge, eq = _ext_k_rows(a_cone, based, k)
    ge_rows = [(row, Fraction(0)) for row in ge]
    eq_rows = [(row, x.entries[ij]) for ij, row in enumerate(eq)]
    problem = LpProblem.build(len(eq[0]), eq_rows=eq_rows, ge_rows=ge_rows)
    out = solve(problem)
    if out.status == FEASIBLE:
        y = _symmetric_extension(out.point, nA, nB, k)
        _check_extension(x, a_cone, based, k, y)
        return ExtkVerdict(member=True, k=k, extension=y)
    if out.status != INFEASIBLE:
        raise CertificateError(f"unexpected LP status {out.status!r}")
    mu, lam = out.certificate[:len(eq_rows)], out.certificate[len(eq_rows):]
    zeta_entries = primitive([-m for m in mu])
    zeta = DenseTensor((Slot(nA, DUAL), Slot(nB, DUAL)), zeta_entries)
    if pairing(zeta, x) >= 0:
        raise ConsistencyError("witness does not separate the query point")
    _check_witness(zeta, mu, lam, a_cone, based, k)
    return ExtkVerdict(member=False, k=k, witness=zeta)


# ---------------------------------------------------------------------------
# entanglement breaking

@dataclass(frozen=True)
class EbTerm:
    facet_indices: tuple  # sorted k-tuple of base facet indices
    vertex_index: int
    weight: Fraction


@dataclass(frozen=True)
class EbOutcome:
    breaking: bool
    k: int
    terms: tuple | None = None          # decomposition when breaking
    refutation: tuple | None = None     # separator at _pad_columns' (m, o)
    factorization: object | None = None  # SimplexFactorization | FactorFailure


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
    fact = factor_as_simplices(based.base)
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
        return EbOutcome(True, k, terms=terms, factorization=fact)
    return EbOutcome(False, k, refutation=check.separating, factorization=fact)


# ---------------------------------------------------------------------------
# vertex-facet pairing tensor and the interior test

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


def _reduction_pairing(phi, points, psis, k):
    """<Gamma_k, sum_f x_f^{ox k} ox psi_f> for the level-k reduction tensor
    Gamma_k of ``reduction_map``, as the scalar sum_f psi_f(x_f) phi(x_f)^(k-1):
    x^{ox k} is symmetric, so the symmetrization of phi^(k-1) ox id over the
    dual slots pairs with it as phi^(k-1) ox id does."""
    return sum((dot(psi, x) * dot(phi, x) ** (k - 1) for x, psi in zip(points, psis)),
               Fraction(0))


def vertex_facet_tensor(based, k):
    """Sum over facets of (facet centroid)^{ox k} ox (facet functional).
    Exactly orthogonal to the level-k reduction tensor, checked as the
    scalar identity of ``_reduction_pairing`` without building that tensor."""
    if k < 1:
        raise ValueError("k must be at least 1")
    base = based.base
    cents = _facet_centroids(base)
    psis = [f[1:] for f in base.functionals]
    total = None
    for cent, psi in zip(cents, psis):
        term = kron(*([from_vector(cent)] * k), from_vector(psi, DUAL))
        total = term if total is None else total + term
    if _reduction_pairing(based.phi, cents, psis, k) != 0:
        raise ConsistencyError(
            "vertex-facet tensor is not orthogonal to the reduction map")
    return total


def omega_interior_test(based, k):
    """Interior test for the vertex-facet tensor, two ways, compared.

    Left: strict positivity against every generator of the dual cone of the
    ambient max product (all facet k-tuples Kronecker a cone ray).  Right:
    every vertex avoids more than k facets.  Both sides are exact; they must
    agree or ConsistencyError is raised.
    """
    base = based.base
    cone = based.cone
    nf = len(base.functionals)
    cent_val = _facet_centroids(base)
    psi_at_cent = [[base.functionals[a][0] + dot(base.functionals[a][1:], cent_val[f])
                    for f in range(nf)] for a in range(nf)]
    psi_at_ray = [[dot(base.functionals[a][1:], r) for r in cone.rays]
                  for a in range(nf)]
    left = True
    for combo in _multisets(nf, k):
        for ri in range(len(cone.rays)):
            val = Fraction(0)
            for f in range(nf):
                prod = psi_at_ray[f][ri]
                for a in combo:
                    prod *= psi_at_cent[a][f]
                val += prod
            if val <= 0:
                left = False
                break
        if not left:
            break
    right = all(len(base.avoiding_set(v)) > k for v in range(len(base.vertices)))
    if left != right:
        raise ConsistencyError(
            f"interior test sides disagree at k={k}: strict={left} avoid={right}")
    return left


# ---------------------------------------------------------------------------
# the dual hierarchy level search

@dataclass(frozen=True)
class HierarchyResult:
    k: int
    weights: tuple        # aligned with the generator descriptions
    generators: tuple     # (a-ray index, sorted tuple of b-ray indices) per weight


def dual_hierarchy_k(x, a_cone, based, k_max=6):
    """Smallest k <= k_max such that the symmetrized pad of x with interior
    base points lands in the k-fold minimal tensor product.

    Requires x strictly interior to the max product (checked; ValueError
    otherwise).  Returns HierarchyResult or None when k_max is exhausted.

    Each level is one ``_pad_decompose`` of the symmetric pad of x with y
    over the generators ray_A ox Sym(rays_B).
    """
    if any(v <= 0 for v in _max_halfspace_values(x, a_cone.facets,
                                                 based.cone.facets, 1)):
        raise ValueError("point is not strictly interior to the max product")
    nB = based.cone.dim
    xs = [x.entries[a * nB:(a + 1) * nB] for a in range(a_cone.dim)]
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
