"""The extendibility hierarchy between two proper cones, with certificates.

Level k sits between the minimal and maximal tensor products: a point of
V_A ox V_B is a level-k member when it is the image, under one copy of the
identity tensored with the reduction map of the based cone B, of a point of
the (k+1)-factor maximal tensor product that is symmetric over the B slots.
Membership and its refutation are both decided by exact LPs and returned
with re-verified certificates: an explicit symmetric extension, or a dual
witness functional that the adjoint of the reduction map carries into the
minimal tensor product of the dual cones.

The same machinery decides whether the reduction map itself is
entanglement breaking (two independent routes, compared loudly) and runs
the finite interior test for the vertex-facet pairing tensor.

Every hierarchy LP lives on V_A ox Sym^k(V_B), so its data is built in
symmetric-power coordinates: one coordinate per pair (a, m) with m a sorted
k-multiset of [dim B] in ``combinations_with_replacement`` order, the order
of ``sym_basis``.  Two exact closed forms replace dense n^k tensor work:

* Sym(v_1 ox .. ox v_k)[m] = coeff of t^m in prod_s <v_s, t>, divided by
  the number of arrangements of m;
* the reduction of the symmetric basis element s_m, read at j, is
  (m_j / k) phi^(m - e_j), zero when j is not in m; that is (1/k) grad p(phi).

The certificate re-checks stay on the dense tensors and share no code with
these formulas.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .cones import BasedCone, Cone, interior_point
from .lp import (FEASIBLE, INFEASIBLE, CertificateError, LpProblem,
                 conic_membership, solve)
from .linalg import dot, primitive, vec
from .polytopes import FactorFailure, SimplexFactorization, factor_as_simplices
from .tensors import (DUAL, PRIMAL, DenseTensor, Slot, contract_slot,
                      from_vector, kron, pairing, reorder_slots,
                      symmetric_project, zero_tensor)


class ConsistencyError(AssertionError):
    """Two independent decision routes disagreed; a bug, raised loudly."""


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

@dataclass(frozen=True)
class ReductionMap:
    based: BasedCone
    k: int
    tensor: DenseTensor  # k dual slots then one primal slot, all dim n


def reduction_map(based, k):
    """Average over positions of (phi everywhere except one identity slot);
    level 1 is the identity."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = based.cone.dim
    phi_dual = from_vector(based.phi, DUAL)
    ident = zero_tensor((Slot(n, DUAL), Slot(n, PRIMAL)))
    ent = list(ident.entries)
    for i in range(n):
        ent[i * n + i] = Fraction(1)
    ident = DenseTensor(ident.slots, ent)
    total = None
    for pos in range(k):
        factors = [phi_dual] * pos + [ident] + [phi_dual] * (k - 1 - pos)
        term = kron(*factors)
        # primal slot of the identity sits at position pos+1; move it last
        perm = [j for j in range(k + 1) if j != pos + 1] + [pos + 1]
        term = reorder_slots(term, perm)
        total = term if total is None else total + term
    return ReductionMap(based, k, total.scale(Fraction(1, k)))


def apply_reduction(x, based, k):
    """(Id_A ox reduction)(x) for x in V_A ox V_B^{ox k}: average over
    keeping one B slot and pairing the rest with phi."""
    phi_dual = from_vector(based.phi, DUAL)
    total = None
    for keep in range(1, k + 1):
        t = x
        for slot in range(k, 0, -1):
            if slot == keep:
                continue
            t = contract_slot(t, slot, phi_dual)
        total = t if total is None else total + t
    return total.scale(Fraction(1, k))


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


def _sym_representatives(nA, nB, k):
    """Row-major multi-indices (a, j1..jk) with the B part sorted ascending."""
    return [(a,) + js for a in range(nA) for js in _multisets(nB, k)]


def _compress(t, reps):
    return tuple(t[multi] for multi in reps)


# ---------------------------------------------------------------------------
# level-k membership

@dataclass(frozen=True)
class ExtkVerdict:
    member: bool
    k: int
    extension: DenseTensor | None = None  # V_A ox V_B^{ox k}, symmetric in B
    witness: DenseTensor | None = None    # primitive functional on V_A ox V_B


def _check_extension(x, a_cone, based, k, y):
    """Exact re-verification: B-symmetric, all max half-spaces nonnegative,
    and reduces to x."""
    for i in range(1, k):
        swapped = _swap_b(y, i, i + 1)
        if swapped != y:
            raise AssertionError("extension is not symmetric over the B slots")
    b = based.cone
    for f in a_cone.facets:
        for combo in itertools.combinations_with_replacement(b.facets, k):
            h = kron(from_vector(f, DUAL), *(from_vector(g, DUAL) for g in combo))
            if pairing(h, y) < 0:
                raise AssertionError("extension violates a max half-space")
    if apply_reduction(y, based, k) != x:
        raise AssertionError("extension does not reduce to the query point")


def _swap_b(y, i, j):
    perm = list(range(len(y.slots)))
    perm[i], perm[j] = perm[j], perm[i]
    return reorder_slots(y, perm)


def reduction_adjoint(based, k, zeta):
    """(Id ox adjoint-of-reduction)(zeta): pad with phi factors and
    symmetrize over the B-dual slots."""
    phi_dual = from_vector(based.phi, DUAL)
    t = kron(zeta, *([phi_dual] * (k - 1)))
    return symmetric_project(t, tuple(range(1, k + 1)))


def _ext_k_rows(a_cone, based, k):
    """Coefficient rows of the level-k LP over the columns (a, m).

    Column (a, m) is e_a ox sym_basis[m].  The ge rows, one per facet f of A
    and facet multiset g of B, are f[a] Sym(g)[m]: max half-spaces paired
    with the column.  The eq rows, one per (i, j) in row-major order, are
    the reduced columns read at (i, j).
    """
    nA, nB = a_cone.dim, based.cone.dim
    multisets = _multisets(nB, k)
    syms = [_sym_product(combo, multisets) for combo in
            itertools.combinations_with_replacement(based.cone.facets, k)]
    ge = [tuple(fa * s for fa in f for s in sym)
          for f in a_cone.facets for sym in syms]
    zeros = (Fraction(0),) * len(multisets)
    eq = []
    for i in range(nA):
        for j in range(nB):
            red = tuple(_reduced_monomial(m, j, based.phi) for m in multisets)
            eq.append(zeros * i + red + zeros * (nA - 1 - i))
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

    Member: a symmetric extension in V_A ox Sym_k(V_B), parametrized in
    sym_basis coordinates for the LP.  Non-member: a primitive witness
    functional zeta with zeta(x) < 0 whose reduction-adjoint image is
    confirmed inside the minimal tensor product of the dual cones by an
    independent conic-membership run.
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
    mu = out.certificate[:len(eq_rows)]
    zeta_entries = primitive([-m for m in mu])
    zeta = DenseTensor((Slot(nA, DUAL), Slot(nB, DUAL)), zeta_entries)
    if pairing(zeta, x) >= 0:
        raise AssertionError("witness does not separate the query point")
    image = reduction_adjoint(based, k, zeta)
    reps = _sym_representatives(nA, nB, k)
    gens = []
    for f in a_cone.facets:
        fa = from_vector(f, DUAL)
        for combo in itertools.combinations_with_replacement(based.cone.facets, k):
            g = kron(fa, *(from_vector(gg, DUAL) for gg in combo))
            gens.append(_compress(symmetric_project(g, tuple(range(1, k + 1))), reps))
    check = conic_membership(_compress(image, reps), gens)
    if not check.member:
        raise ConsistencyError(
            "witness image escaped the minimal product of the duals")
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
    refutation: tuple | None = None     # separating functional (compressed rows)
    factorization: object | None = None  # SimplexFactorization | FactorFailure


def admissible_tuples(based, k):
    """Ordered facet k-tuples covering the avoiding set of some vertex,
    paired with that vertex."""
    base = based.base
    nf = len(base.functionals)
    out = []
    for v in range(len(base.vertices)):
        need = base.avoiding_set(v)
        if len(need) > k:
            continue
        for combo in itertools.product(range(nf), repeat=k):
            if need <= set(combo):
                out.append((combo, v))
    return out


def _admissible_multisets(based, k):
    base = based.base
    nf = len(base.functionals)
    out = []
    for v in range(len(base.vertices)):
        need = base.avoiding_set(v)
        if len(need) > k:
            continue
        for combo in itertools.combinations_with_replacement(range(nf), k):
            if need <= set(combo):
                out.append((combo, v))
    return out


def _eb_generator(based, combo, v):
    base = based.base
    psis = [from_vector(base.functionals[j][1:], DUAL) for j in combo]
    sym = symmetric_project(kron(*psis), tuple(range(len(combo))))
    return kron(sym, from_vector(base.vertices[v]))


def _eb_columns(based, k, multis):
    """The reduction tensor and the generators of ``multis`` at the sorted
    indices (j1..jk, i), j1 <= .. <= jk: Gamma there is
    (count_i(js) / k) phi^(js - e_i), and generator (combo, v) is
    Sym(psi_combo)[js] vertex_v[i]."""
    base = based.base
    n = based.cone.dim
    multisets = _multisets(n, k)
    gamma = tuple(_reduced_monomial(js, i, based.phi)
                  for js in multisets for i in range(n))
    psis = [f[1:] for f in base.functionals]
    gens = []
    for combo, v in multis:
        sym = _sym_product([psis[j] for j in combo], multisets)
        vertex = base.vertices[v]
        gens.append(tuple(s * vi for s in sym for vi in vertex))
    return gamma, gens


def is_entanglement_breaking(based, k):
    """Two independent routes, compared: the combinatorial product-of-
    simplices recognition on the base (at most k nontrivial factors) and an
    LP expressing the reduction tensor over symmetrized admissible-tuple
    generators.  Disagreement raises ConsistencyError.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    fact = factor_as_simplices(based.base)
    route1 = isinstance(fact, SimplexFactorization) and len(fact.factor_dims) <= k
    multis = _admissible_multisets(based, k)
    target, gens = _eb_columns(based, k, multis)
    check = conic_membership(target, gens)
    if check.member != route1:
        raise ConsistencyError(
            f"entanglement-breaking routes disagree at k={k}: "
            f"combinatorial={route1} lp={check.member}")
    if check.member:
        terms = tuple(EbTerm(combo, v, w)
                      for (combo, v), w in zip(multis, check.weights) if w != 0)
        gamma = reduction_map(based, k).tensor
        total = None
        for t in terms:
            g = _eb_generator(based, t.facet_indices, t.vertex_index).scale(t.weight)
            total = g if total is None else total + g
        if total is None:
            total = zero_tensor(gamma.slots)
        if total != gamma:
            raise AssertionError("decomposition does not re-sum to the reduction tensor")
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


def vertex_facet_tensor(based, k):
    """Sum over facets of (facet centroid)^{ox k} ox (facet functional).
    Exactly orthogonal to the level-k reduction tensor."""
    base = based.base
    total = None
    for j, cent in enumerate(_facet_centroids(base)):
        xf = from_vector(cent)
        psi = from_vector(base.functionals[j][1:], DUAL)
        term = kron(*([xf] * k), psi)
        total = term if total is None else total + term
    gamma = reduction_map(based, k).tensor
    if pairing(gamma, total) != 0:
        raise AssertionError("vertex-facet tensor is not orthogonal to the reduction map")
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
    for combo in itertools.combinations_with_replacement(range(nf), k):
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


def _dual_columns(x, a_cone, based, k, y):
    """Level-k data of the dual hierarchy search at the indices (a, m):
    the generator descriptions (ia, combo), the symmetrized pad
    z[a, m] = sum_j x[a, j] (m_j / k) y^(m - e_j), and the generators
    ray_ia[a] Sym(rays_combo)[m]."""
    nA, nB = a_cone.dim, based.cone.dim
    multisets = _multisets(nB, k)
    z = tuple(sum((x.entries[a * nB + j] * _reduced_monomial(m, j, y)
                   for j in range(nB)), Fraction(0))
              for a in range(nA) for m in multisets)
    combos = list(itertools.combinations_with_replacement(
        range(len(based.cone.rays)), k))
    syms = [_sym_product([based.cone.rays[j] for j in combo], multisets)
            for combo in combos]
    descs = []
    gens = []
    for ia, ra in enumerate(a_cone.rays):
        for combo, sym in zip(combos, syms):
            descs.append((ia, combo))
            gens.append(tuple(r * s for r in ra for s in sym))
    return descs, z, gens


def dual_hierarchy_k(x, a_cone, based, k_max=6):
    """Smallest k <= k_max such that the symmetrized pad of x with interior
    base points lands in the k-fold minimal tensor product.

    Requires x strictly interior to the max product (checked; ValueError
    otherwise).  Returns HierarchyResult or None when k_max is exhausted.
    """
    for f in a_cone.facets:
        for g in based.cone.facets:
            if pairing(kron(from_vector(f, DUAL), from_vector(g, DUAL)), x) <= 0:
                raise ValueError("point is not strictly interior to the max product")
    y = interior_point(based.cone)
    scale = dot(based.phi, y)
    y = tuple(v / scale for v in y)
    for k in range(1, k_max + 1):
        descs, target, gens = _dual_columns(x, a_cone, based, k, y)
        check = conic_membership(target, gens)
        if check.member:
            nonzero = [(d, w) for d, w in zip(descs, check.weights) if w != 0]
            b_slots = tuple(range(1, k + 1))
            z = symmetric_project(kron(x, *([from_vector(y)] * (k - 1))), b_slots)
            total = None
            for (ia, combo), w in nonzero:
                g = kron(from_vector(a_cone.rays[ia]),
                         *(from_vector(based.cone.rays[j]) for j in combo))
                g = symmetric_project(g, b_slots).scale(w)
                total = g if total is None else total + g
            if (total if total is not None else zero_tensor(z.slots)) != z:
                raise AssertionError("hierarchy decomposition does not re-sum")
            return HierarchyResult(k=k,
                                   weights=tuple(w for _, w in nonzero),
                                   generators=tuple(d for d, _ in nonzero))
    return None
