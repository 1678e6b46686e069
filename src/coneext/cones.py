"""Proper polyhedral cones with mutually certified double descriptions.

A ``Cone`` always carries both extreme rays and facet functionals as
primitive integer vectors; construction certifies the pair against each
other (every ray saturates a rank n-1 set of facets and vice versa), so
downstream modules may use either view without re-deriving it.

Facets are computed by the double description method with incremental
constraint insertion and exact rational pivots, chosen for certified
exactness at small dimension over asymptotic speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (dot, greedy_independent, inverse, is_zero_vec, primitive,
                     rank, vec, vec_add)


class ConeError(ValueError):
    """Improper input: empty, not full-dimensional, or containing a line."""


class CertificationError(AssertionError):
    """Internal double-description certification failed (a bug, not bad input)."""


@dataclass(frozen=True)
class Cone:
    """Full-dimensional pointed cone; rays and facets are primitive integer
    vectors in canonical sorted order, mutually certified."""

    dim: int
    rays: tuple
    facets: tuple

    def contains(self, point):
        return all(dot(f, point) >= 0 for f in self.facets)

    def strictly_contains(self, point):
        return all(dot(f, point) > 0 for f in self.facets)


def _adjacent(constraints, tight_a, tight_b, n):
    common = sorted(tight_a & tight_b)
    return rank([constraints[i] for i in common]) == n - 2


def _dual_extreme_rays(constraints, n):
    """Extreme rays of {f : c . f >= 0 for all c} by incremental insertion.

    The constraints must span, else the cone they generate is not
    full-dimensional, and the result is then pointed.  Every ray returned
    satisfies every constraint, so when the result is not full-dimensional
    the rays have rank < n; make_cone reads that as a line.
    """
    base = greedy_independent(constraints, n)
    if len(base) < n:
        raise ConeError("cone is not full-dimensional")
    minv = inverse([constraints[i] for i in base])
    rays = [primitive(tuple(minv[r][l] for r in range(n))) for l in range(n)]
    processed = list(base)
    order = base + [i for i in range(len(constraints)) if i not in base]
    for idx in order[n:]:
        c = constraints[idx]
        processed.append(idx)
        vals = [dot(c, r) for r in rays]
        if all(v >= 0 for v in vals):
            continue
        tight = [frozenset(i for i in processed if dot(constraints[i], r) == 0)
                 for r in rays]
        keep = [r for r, v in zip(rays, vals) if v >= 0]
        new = []
        for ip, (rp, vp) in enumerate(zip(rays, vals)):
            if vp <= 0:
                continue
            for im, (rm, vm) in enumerate(zip(rays, vals)):
                if vm >= 0:
                    continue
                if not _adjacent(constraints, tight[ip], tight[im], n):
                    continue
                combo = tuple(vp * bm - vm * bp for bp, bm in zip(rp, rm))
                new.append(primitive(combo))
        seen = set(keep)
        for r in new:
            if r not in seen:
                seen.add(r)
                keep.append(r)
        rays = keep
    return sorted(set(rays))


def _certify(dim, rays, facets, facet_rank=None):
    if rank(rays) != dim:
        raise CertificationError("rays do not span")
    if (rank(facets) if facet_rank is None else facet_rank) != dim:
        raise CertificationError("facets do not span")
    for f in facets:
        for r in rays:
            if dot(f, r) < 0:
                raise CertificationError("facet negative on a ray")
    for r in rays:
        tight = [f for f in facets if dot(f, r) == 0]
        if rank(tight) != dim - 1:
            raise CertificationError("ray does not saturate a rank n-1 facet set")
    for f in facets:
        tight = [r for r in rays if dot(f, r) == 0]
        if rank(tight) != dim - 1:
            raise CertificationError("facet not supported by a rank n-1 ray set")


def make_cone(generators):
    """Canonicalize generators into a certified proper cone.

    Redundant (non-extreme) generators are removed.  Raises ConeError when
    the input is empty, not full-dimensional, or contains a line.
    """
    gens = []
    seen = set()
    for g in generators:
        if is_zero_vec(g):
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
    facets = _dual_extreme_rays(gens, n)
    # the dual cone is full-dimensional exactly when the cone has no line
    facet_rank = rank(facets)
    if facet_rank != n:
        raise ConeError("cone contains a line")
    rays = sorted(g for g in gens
                  if rank([f for f in facets if dot(f, g) == 0]) == n - 1)
    cone = Cone(dim=n, rays=tuple(rays), facets=tuple(facets))
    _certify(n, cone.rays, cone.facets, facet_rank)
    return cone


def dualize(cone):
    """The dual cone; exact involution thanks to the stored double description."""
    dual = Cone(dim=cone.dim, rays=cone.facets, facets=cone.rays)
    _certify(dual.dim, dual.rays, dual.facets)
    return dual


def is_simplicial(cone):
    return len(cone.rays) == cone.dim


def interior_point(cone):
    """Sum of the extreme rays, certified interior by strict positivity."""
    total = cone.rays[0]
    for r in cone.rays[1:]:
        total = vec_add(total, r)
    if not cone.strictly_contains(total):
        raise CertificationError("ray sum is not strictly interior")
    return total


@dataclass(frozen=True)
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
        raise ConeError("phi dimension mismatch")
    for r in cone.rays:
        if dot(phi, r) <= 0:
            raise ConeError("phi is not strictly positive on the cone")
    from .polytopes import base_polytope  # deferred: polytopes imports cones

    base = base_polytope(cone, phi)
    return BasedCone(cone=cone, phi=phi, base=base)
