"""Proper polyhedral cones with mutually certified double descriptions.

A ``Cone`` always carries both extreme rays and facet functionals as
primitive integer vectors, tuples of ints; construction certifies the pair
against each other (every ray saturates a rank n-1 set of facets and vice
versa), so downstream modules may use either view without re-deriving it,
and none clears them again.

Facets are computed by the double description method with incremental
constraint insertion, chosen for certified exactness at small dimension
over asymptotic speed.  It runs on the generators made primitive integer
vectors once and carries each ray's tight set through the insertions, so
the facet-generator incidence comes out of it with no further dot product;
the certification re-derives the incidence independently, from one table
of facet . ray values.
"""

from __future__ import annotations

import itertools
from math import prod
from operator import mul

from .linalg import (dot, greedy_independent, inverse, primitive, rank,
                     rational, vec)
from .records import record


class ConeError(ValueError):
    """Improper input: empty, not full-dimensional, or containing a line."""


class CertificationError(AssertionError):
    """Internal double-description certification failed (a bug, not bad input)."""


@record
class Cone:
    """Full-dimensional pointed cone; rays and facets are primitive integer
    vectors, tuples of ints, in canonical sorted order, mutually certified."""

    dim: int
    rays: tuple
    facets: tuple

    def strictly_contains(self, point):
        return all(dot(f, point) > 0 for f in self.facets)


def _adjacent(constraints, tight_a, tight_b, n):
    common = sorted(tight_a & tight_b)
    return rank([constraints[i] for i in common]) == n - 2


def _dual_extreme_rays(cons, n):
    """Extreme rays of {f : c . f >= 0 for all c} by incremental insertion,
    each with its tight set: the indices of the constraints it saturates.

    The constraints must span, else the cone they generate is not
    full-dimensional, and the result is then pointed.  Every ray returned
    satisfies every constraint, so when the result is not full-dimensional
    the rays have rank < n; make_cone reads that as a line.

    Tight sets are kept incrementally over the processed constraints, as in
    Fukuda and Prodon, "Double description method revisited" (1996).  Basis
    ray l solves c_base[i] . r = [i == l], so it is tight on every basis
    constraint but base[l].  Inserting c adds c to the tight set of each
    kept ray with c . r = 0.  A new ray r = v+ r- - v- r+ from r+ (c . r+ =
    v+ > 0) and r- (c . r- = v- < 0) is tight on c, and on a processed
    constraint c' it is v+ (c' . r-) - v- (c' . r+), a sum of two terms
    >= 0 because both rays satisfy c'; it vanishes exactly when both do.
    So its tight set is (tight(r+) & tight(r-)) | {c}, with no dot product.

    The constraints are integer vectors, and the rays are kept primitive.
    Returns (ray, tight set) pairs sorted by ray, each ray a primitive
    integer vector, a tuple of ints.
    """
    base = greedy_independent(cons)
    if len(base) < n:
        raise ConeError("cone is not full-dimensional")
    minv = inverse([cons[i] for i in base])
    rays = [primitive([minv[r][l] for r in range(n)]) for l in range(n)]
    tight = [frozenset(base[:l] + base[l + 1:]) for l in range(n)]
    for idx in (i for i in range(len(cons)) if i not in base):
        c = cons[idx]
        vals = [sum(map(mul, c, r)) for r in rays]
        keep = [(r, t | {idx} if v == 0 else t)
                for r, t, v in zip(rays, tight, vals) if v >= 0]
        if len(keep) < len(rays):
            seen = {r for r, _ in keep}
            for rp, tp, vp in zip(rays, tight, vals):
                if vp <= 0:
                    continue
                for rm, tm, vm in zip(rays, tight, vals):
                    if vm >= 0 or not _adjacent(cons, tp, tm, n):
                        continue
                    r = primitive([vp * bm - vm * bp for bp, bm in zip(rp, rm)])
                    if r not in seen:
                        seen.add(r)
                        keep.append((r, (tp & tm) | {idx}))
        rays = [r for r, _ in keep]
        tight = [t for _, t in keep]
    return sorted(zip(rays, tight))


def _certify(dim, rays, facets, facet_rank=None):
    """Certify the integer rays and facets against each other from one
    table of facet . ray values."""
    if rank(rays) != dim:
        raise CertificationError("rays do not span")
    if (rank(facets) if facet_rank is None else facet_rank) != dim:
        raise CertificationError("facets do not span")
    values = [[sum(map(mul, f, r)) for r in rays] for f in facets]
    if any(v < 0 for row in values for v in row):
        raise CertificationError("facet negative on a ray")
    for j in range(len(rays)):
        if rank([f for f, row in zip(facets, values) if row[j] == 0]) != dim - 1:
            raise CertificationError("ray does not saturate a rank n-1 facet set")
    for row in values:
        if rank([r for r, v in zip(rays, row) if v == 0]) != dim - 1:
            raise CertificationError("facet not supported by a rank n-1 ray set")


def make_cone(generators):
    """Canonicalize generators into a certified proper cone.

    Redundant (non-extreme) generators are removed.  Raises ConeError when
    the input is empty, not full-dimensional, or contains a line, and
    TypeError on an entry that is not an int or a Fraction.  The pair
    is complete by construction, so unlike ``dualize`` it needs no second
    double description: the facets are every extreme ray of the dual of
    the generators, and the rays are every generator they make extreme.
    """
    gens = []
    seen = set()
    for g in map(rational, generators):
        if not any(g):
            continue
        p = primitive(g)
        if p not in seen:
            seen.add(p)
            gens.append(p)
    if not gens:
        raise ConeError("no nonzero generators")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise ConeError("mixed ambient dimensions")
    described = _dual_extreme_rays(gens, n)
    facets = [f for f, _ in described]
    # the dual cone is full-dimensional exactly when the cone has no line
    facet_rank = rank(facets)
    if facet_rank != n:
        raise ConeError("cone contains a line")
    # a generator is extreme when the facets it saturates have rank n-1;
    # the tight sets of the facets are that incidence, over the generators
    rays = sorted(g for i, g in enumerate(gens)
                  if rank([f for f, t in described if i in t]) == n - 1)
    cone = Cone(dim=n, rays=tuple(rays), facets=tuple(facets))
    _certify(n, cone.rays, cone.facets, facet_rank)
    return cone


def dualize(cone):
    """The dual cone; exact involution thanks to the stored double description.

    ``_certify`` alone passes a pair that lacks a ray or a facet whenever
    every ray and facet left keeps a rank n-1 incidence set, so the extreme
    rays of the facets must also be exactly the stored rays.
    """
    dual = Cone(dim=cone.dim, rays=cone.facets, facets=cone.rays)
    _certify(dual.dim, dual.rays, dual.facets)
    if [r for r, _ in _dual_extreme_rays(cone.facets, cone.dim)] != list(cone.rays):
        raise CertificationError("facets cut out a cone with other extreme rays")
    return dual


def is_simplicial(cone):
    return len(cone.rays) == cone.dim


def interior_point(cone):
    """Sum of the extreme rays, certified interior by strict positivity."""
    total = tuple(map(sum, zip(*cone.rays)))
    if not cone.strictly_contains(total):
        raise CertificationError("ray sum is not strictly interior")
    return total


def min_columns(*cones):
    """Generators of the minimal tensor product as flat columns: the
    Kronecker product of one extreme ray per factor, for each tuple of rays
    with the first factor's ray outermost, entries row-major."""
    return [tuple(prod(e) for e in itertools.product(*combo))
            for combo in itertools.product(*(c.rays for c in cones))]


@record
class BasedCone:
    """A proper cone with a strictly positive functional and its base slice.

    ``base`` is the polytope {x in C : phi(x) = 1}; its vertices are the
    rescaled extreme rays and its facet functionals are the cone facets,
    restricted to the slice, in bijection with the cone facets.
    """

    cone: Cone
    phi: tuple
    base: "object"  # coneext.polytopes.Polytope


def make_based(cone, phi):
    # the only facet of a ray misses its base, a point, so a base keeps the
    # facet-functional bijection only from dimension 2 on
    if cone.dim < 2:
        raise ConeError("a based cone needs dimension at least 2")
    phi = vec(phi)
    if len(phi) != cone.dim:
        raise ConeError(f"phi has {len(phi)} entries, cone has dim {cone.dim}")
    for r in cone.rays:
        if dot(phi, r) <= 0:
            raise ConeError("phi is not strictly positive on the cone")
    from .polytopes import base_polytope  # deferred: polytopes imports cones

    base = base_polytope(cone, phi)
    return BasedCone(cone=cone, phi=phi, base=base)
