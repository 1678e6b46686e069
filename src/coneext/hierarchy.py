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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cones import BasedCone, Cone, interior_point
from .lp import (FEASIBLE, INFEASIBLE, CertificateError, LpProblem,
                 conic_membership, solve)
from .linalg import dot, primitive, vec
from .polytopes import FactorFailure, SimplexFactorization, factor_as_simplices
from .tensors import (DUAL, PRIMAL, DenseTensor, Slot, basis_vector,
                      contract_slot, from_vector, kron, pairing,
                      symmetric_project, sym_basis, zero_tensor)


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
        term = _reorder(term, perm)
        total = term if total is None else total + term
    return ReductionMap(based, k, total.scale(Fraction(1, k)))


def _reorder(t, perm):
    from .tensors import reorder_slots
    return reorder_slots(t, perm)


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
# symmetric coordinate compression

def _sym_representatives(nA, nB, k):
    """Row-major multi-indices (a, j1..jk) with the B part sorted ascending."""
    reps = []
    for a in range(nA):
        for js in itertools.combinations_with_replacement(range(nB), k):
            reps.append((a,) + js)
    return reps


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
    return _reorder(y, perm)


def reduction_adjoint(based, k, zeta):
    """(Id ox adjoint-of-reduction)(zeta): pad with phi factors and
    symmetrize over the B-dual slots."""
    phi_dual = from_vector(based.phi, DUAL)
    t = kron(zeta, *([phi_dual] * (k - 1)))
    return symmetric_project(t, tuple(range(1, k + 1)))


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
    sym = sym_basis(nB, k)
    cols = [kron(basis_vector(nA, i), s) for i in range(nA) for s in sym]
    reduced_cols = [apply_reduction(c, based, k) for c in cols]
    ge_rows = []
    for f in a_cone.facets:
        fa = from_vector(f, DUAL)
        for combo in itertools.combinations_with_replacement(based.cone.facets, k):
            h = kron(fa, *(from_vector(g, DUAL) for g in combo))
            ge_rows.append((tuple(pairing(h, c) for c in cols), Fraction(0)))
    eq_rows = []
    for i in range(nA):
        for j in range(nB):
            eq_rows.append((tuple(rc[i, j] for rc in reduced_cols), x[i, j]))
    problem = LpProblem.build(len(cols), eq_rows=eq_rows, ge_rows=ge_rows)
    out = solve(problem)
    if out.status == FEASIBLE:
        y = None
        for w, c in zip(out.point, cols):
            term = c.scale(w)
            y = term if y is None else y + term
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
    gamma = reduction_map(based, k).tensor
    n = based.cone.dim
    reps = []
    for js in itertools.combinations_with_replacement(range(n), k):
        for i in range(n):
            reps.append(js + (i,))
    multis = _admissible_multisets(based, k)
    gens = [_compress(_eb_generator(based, combo, v), reps) for combo, v in multis]
    check = conic_membership(_compress(gamma, reps), gens)
    if check.member != route1:
        raise ConsistencyError(
            f"entanglement-breaking routes disagree at k={k}: "
            f"combinatorial={route1} lp={check.member}")
    if check.member:
        terms = tuple(EbTerm(combo, v, w)
                      for (combo, v), w in zip(multis, check.weights) if w != 0)
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

def vertex_facet_tensor(based, k):
    """Sum over facets of (facet centroid)^{ox k} ox (facet functional).
    Exactly orthogonal to the level-k reduction tensor."""
    base = based.base
    total = None
    for j in range(len(base.functionals)):
        idxs = base.vertices_of_facet(j)
        cent = [Fraction(0)] * base.ambient_dim
        for i in idxs:
            for c, val in enumerate(base.vertices[i]):
                cent[c] += val
        cent = [val / len(idxs) for val in cent]
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
    cent_val = []
    for j in range(nf):
        idxs = base.vertices_of_facet(j)
        cent = [Fraction(0)] * base.ambient_dim
        for i in idxs:
            for c, val in enumerate(base.vertices[i]):
                cent[c] += val
        cent_val.append([val / len(idxs) for val in cent])
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


def dual_hierarchy_k(x, a_cone, based, k_max=6):
    """Smallest k <= k_max such that the symmetrized pad of x with interior
    base points lands in the k-fold minimal tensor product.

    Requires x strictly interior to the max product (checked; ValueError
    otherwise).  Returns HierarchyResult or None when k_max is exhausted.
    """
    nA, nB = a_cone.dim, based.cone.dim
    for f in a_cone.facets:
        for g in based.cone.facets:
            if pairing(kron(from_vector(f, DUAL), from_vector(g, DUAL)), x) <= 0:
                raise ValueError("point is not strictly interior to the max product")
    y = interior_point(based.cone)
    scale = dot(based.phi, y)
    y = from_vector([v / scale for v in y])
    for k in range(1, k_max + 1):
        z = kron(x, *([y] * (k - 1)))
        z = symmetric_project(z, tuple(range(1, k + 1)))
        reps = _sym_representatives(nA, nB, k)
        descs = []
        gens = []
        for ia, ra in enumerate(a_cone.rays):
            for combo in itertools.combinations_with_replacement(
                    range(len(based.cone.rays)), k):
                g = kron(from_vector(ra),
                         *(from_vector(based.cone.rays[j]) for j in combo))
                g = symmetric_project(g, tuple(range(1, k + 1)))
                descs.append((ia, combo))
                gens.append(_compress(g, reps))
        check = conic_membership(_compress(z, reps), gens)
        if check.member:
            nonzero = [(d, w) for d, w in zip(descs, check.weights) if w != 0]
            total = None
            for (ia, combo), w in nonzero:
                g = kron(from_vector(a_cone.rays[ia]),
                         *(from_vector(based.cone.rays[j]) for j in combo))
                g = symmetric_project(g, tuple(range(1, k + 1))).scale(w)
                total = g if total is None else total + g
            if (total if total is not None else zero_tensor(z.slots)) != z:
                raise AssertionError("hierarchy decomposition does not re-sum")
            return HierarchyResult(k=k,
                                   weights=tuple(w for _, w in nonzero),
                                   generators=tuple(d for d, _ in nonzero))
    return None
