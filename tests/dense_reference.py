"""The tests' first-principles oracles.  Dense references that left
``coneext`` because no decision reaches them: the maximal tensor product as
Kronecker products of facets and membership in it, the vertex-facet pairing
tensor with its orthogonality check, and a matrix-vector product.  And a
re-check of a hull-commutation witness from incidence and stacked
equations.  The tests check the int routes and the decisions against
them."""

import itertools
from fractions import Fraction

from coneext.hierarchy import ConsistencyError, _facet_centroids
from coneext.linalg import affine_rank, dot, nullspace, solve
from coneext.tensors import DUAL, from_vector, kron, pairing


def max_tensor_halfspaces(*cones):
    """Half-space description of the maximal tensor product: Kronecker
    products of dual extreme rays (facets) across the factors."""
    out = []
    for combo in itertools.product(*(c.facets for c in cones)):
        out.append(kron(*(from_vector(f, DUAL) for f in combo)))
    return out


def _in_max(x, a_cone, based):
    """Whether x lies in max(A, B): every f ox g pairs nonnegatively with it."""
    return all(pairing(h, x) >= 0
               for h in max_tensor_halfspaces(a_cone, based.cone))


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
    cents = _facet_centroids(based.base)
    psis = based.cone.facets
    total = None
    for cent, psi in zip(cents, psis):
        term = kron(*([from_vector(cent)] * k), from_vector(psi, DUAL))
        total = term if total is None else total + term
    if _reduction_pairing(based.phi, cents, psis, k) != 0:
        raise ConsistencyError(
            "vertex-facet tensor is not orthogonal to the reduction map")
    return total


def mat_vec(rows, x):
    return tuple(dot(r, x) for r in rows)


def _recheck_witness(p, subset):
    """Recompute both dimensions for a witness subset from first principles:
    the face from incidence, the hull intersection from stacked equations."""
    face = p.face_from_facets(subset)
    rows = [p.functionals[j][1:] for j in subset]
    rhs = [-p.functionals[j][0] for j in subset]
    sol = solve(rows, rhs)
    hull_dim = None if sol is None else len(nullspace(rows, p.ambient_dim))
    if not face:
        return hull_dim is not None
    face_dim = affine_rank([p.vertices[i] for i in face])
    return hull_dim is None or face_dim != hull_dim
