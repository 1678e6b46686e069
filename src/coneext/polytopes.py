"""Polytope vertex/facet combinatorics: incidence, simplicity, two-levelness,
the affine-hull commutation test, and recognition of products of simplices.

A polytope may sit in a lower-dimensional affine subspace of its ambient
space; its hull is its first vertex plus the span of its direction basis.
Facet functionals are affine, nonnegative on the polytope and zero exactly
on their facet.  Each is evaluated at each vertex once (``Polytope.values``),
and the incidence, the polytope check, two-levelness and the factorization
all read that one table.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .cones import CertificationError, make_cone
from .linalg import (affine_rank, dot, greedy_independent, nullspace, primitive,
                     rank, solve, vec, vec_sub)
from .records import record

FACET_CAP = 20  # subset iteration guard for the commutation test


@record
class Polytope:
    ambient_dim: int
    vertices: tuple          # canonical sorted points
    functionals: tuple       # int rows (a0, a1..aN): psi(x) = a0 + a . x, primitive
    hull_directions: tuple   # basis of the hull's direction space at vertices[0]

    @property
    def dim(self):
        return len(self.hull_directions)

    @cached_property
    def values(self):
        """``values[j][i]``: facet functional j at vertex i, evaluated once
        per polytope."""
        return tuple(tuple(self.evaluate(j, v) for v in self.vertices)
                     for j in range(len(self.functionals)))

    @cached_property
    def incidence(self):
        """Per vertex: the frozenset of facet indices with psi == 0."""
        return tuple(frozenset(j for j, row in enumerate(self.values) if not row[i])
                     for i in range(len(self.vertices)))

    @cached_property
    def factorization(self):
        """``factor_as_simplices(self)``, computed once per polytope."""
        return factor_as_simplices(self)

    def evaluate(self, facet_index, point):
        f = self.functionals[facet_index]
        return f[0] + dot(f[1:], point)

    def avoiding_set(self, vertex_index):
        """Facets NOT containing the given vertex."""
        return frozenset(range(len(self.functionals))) - self.incidence[vertex_index]

    def vertices_of_facet(self, facet_index):
        return tuple(i for i, inc in enumerate(self.incidence) if facet_index in inc)

    def face_from_facets(self, facet_indices):
        s = frozenset(facet_indices)
        return tuple(i for i, inc in enumerate(self.incidence) if s <= inc)


def _check_polytope(p):
    """Certify faces, not completeness: every functional is nonnegative on
    the vertices and zero on a codimension-1 face, and the vertices span the
    hull.  A vertex dropped still passes.  Both builders are complete by
    construction: their vertices are all the extreme rays of a ``make_cone``
    and their functionals are all its facets."""
    if any(val < 0 for row in p.values for val in row):
        raise CertificationError("facet functional negative on a vertex")
    d = p.dim
    if len(p.vertices) > 1 and affine_rank(p.vertices) != d:
        raise CertificationError("vertex set does not span the recorded hull")
    for j in range(len(p.functionals)):
        verts = [p.vertices[i] for i in p.vertices_of_facet(j)]
        if not verts or affine_rank(verts) != d - 1:
            raise CertificationError("facet is not a codimension-1 face")


def polytope_from_vertices(points):
    """Build a polytope from points (non-vertices are dropped).

    Facets come from the homogenization cone over the hull chart
    t(x) = D (x - v0), D the direction rows, so the construction is exact in
    any ambient dimension.  A facet pulled back is affine with its linear
    part in the row space of D, and that form is unique, so the primitive
    functionals do not depend on the chart.
    """
    pts = sorted({vec(p) for p in points})
    if not pts:
        raise ValueError("no points given")
    ambient = len(pts[0])
    if any(len(p) != ambient for p in pts):
        raise ValueError("mixed ambient dimensions")
    v0 = pts[0]
    diffs = [vec_sub(p, v0) for p in pts]
    dir_idx = greedy_independent(diffs)
    directions = [diffs[i] for i in dir_idx]
    d = len(directions)
    if d == 0:
        return Polytope(ambient, (pts[0],), (), ())
    lifted = [(1,) + tuple(dot(row, diff) for row in directions) for diff in diffs]
    cone = make_cone(lifted)
    vertices = tuple(p for p, q in zip(pts, lifted) if primitive(q) in cone.rays)
    functionals = []
    for f in cone.facets:
        coeffs = tuple(dot(f[1:], col) for col in zip(*directions))
        functionals.append(primitive((f[0] - dot(coeffs, v0),) + coeffs))
    functionals = tuple(sorted(functionals))
    p = Polytope(ambient, vertices, functionals, tuple(directions))
    _check_polytope(p)
    return p


def base_polytope(cone, phi):
    """The slice {x in C : phi(x) = 1}; functionals are the cone facets and
    stay in bijection with them (same order)."""
    phi = vec(phi)
    vertices = tuple(sorted(tuple(x / dot(phi, r) for x in r) for r in cone.rays))
    functionals = tuple((0,) + f for f in cone.facets)
    directions = tuple(nullspace([phi]))
    p = Polytope(cone.dim, vertices, functionals, directions)
    _check_polytope(p)
    return p


def is_simple(p):
    """Every vertex lies on exactly dim(P) facets."""
    return all(len(inc) == p.dim for inc in p.incidence)


def is_two_level(p):
    """Every facet functional takes a single nonzero value on vertices."""
    return _facet_levels(p) is not None


def _facet_levels(p):
    levels = []
    for row in p.values:
        values = set(row) - {0}
        if len(values) != 1:
            return None
        levels.append(next(iter(values)))
    return levels


def affine_hull_commutes(p):
    """Whether aff(intersection of facets) equals intersection of facet hulls
    for every facet subset.  Returns (True, None) or (False, witness subset).

    Faces are intersections of facets, and once the identity holds for all
    facet subsets it transfers to arbitrary face families: writing each face
    as an intersection of facets, both sides of the general identity reduce
    to the same intersection of facet affine hulls.  Facet subsets therefore
    suffice, which keeps the iteration at 2^|facets| (guarded by FACET_CAP).
    """
    nf = len(p.functionals)
    if nf > FACET_CAP:
        raise ValueError(f"facet count {nf} exceeds the {FACET_CAP} subset-iteration cap")
    # facet j's hull in hull coordinates t: row . t = rhs, for the points
    # vertices[0] + directions t; a dimension is None when its set is empty
    hulls = [(tuple(dot(f[1:], d) for d in p.hull_directions),
              -p.evaluate(j, p.vertices[0])) for j, f in enumerate(p.functionals)]
    for size in range(1, nf + 1):
        for subset in itertools.combinations(range(nf), size):
            face = p.face_from_facets(subset)
            face_dim = affine_rank([p.vertices[i] for i in face]) if face else None
            rows, rhs = zip(*(hulls[j] for j in subset))
            hull_dim = None if solve(rows, rhs) is None else p.dim - rank(rows)
            if face_dim != hull_dim:
                return False, frozenset(subset)
    return True, None


@record
class SimplexFactorization:
    """A combinatorial isomorphism with a product of simplices.

    ``facet_classes[i]`` lists the facets playing the role of factor i's
    vertices; a vertex's label is, per class, the unique facet of that class
    it avoids.  ``normalized[j]`` is the facet functional scaled to take
    value 1 on avoiding vertices, so the functionals of each class sum to
    the constant 1 over all vertices.
    """

    factor_dims: tuple
    facet_classes: tuple      # tuple of sorted facet-index tuples
    vertex_labels: tuple      # per vertex: tuple of positions within classes
    normalized: tuple         # per facet: functional scaled to level 1


@record
class FactorFailure:
    reason: str


def factor_as_simplices(p):
    """Recognize a product of simplices; failure is a value, never a raise.

    Requires simple and two-level; groups facets into classes where two
    facets are separated exactly when some vertex avoids both; verifies the
    grouping is an equivalence, labels vertices by avoided facets, and checks
    that the labels biject with the product.  The labels then give the
    incidence: each vertex avoids exactly one facet per class and the classes
    partition the facets.  On a two-level polytope each normalized value is
    0 or 1, so each class's normalized functionals sum to 1 on every vertex.
    """
    if not is_simple(p):
        return FactorFailure("not simple: some vertex lies on more than dim facets")
    levels = _facet_levels(p)
    if levels is None:
        return FactorFailure("not two-level: a facet takes two nonzero vertex values")
    nf = len(p.functionals)
    nv = len(p.vertices)
    if nf == 0:
        return SimplexFactorization((), (), ((),) * nv, ())
    avoid = [p.avoiding_set(i) for i in range(nv)]
    separated = [[False] * nf for _ in range(nf)]
    for av in avoid:
        for fa, fb in itertools.combinations(sorted(av), 2):
            separated[fa][fb] = separated[fb][fa] = True
    together = lambda fa, fb: fa == fb or not separated[fa][fb]
    for fa, fb, fc in itertools.combinations(range(nf), 3):
        pairs = (together(fa, fb), together(fb, fc), together(fa, fc))
        if sum(pairs) == 2:
            return FactorFailure("facet grouping is not an equivalence relation")
    assigned = {}
    classes = []
    for f in range(nf):
        if f in assigned:
            continue
        members = tuple(g for g in range(nf) if together(f, g))
        for g in members:
            assigned[g] = len(classes)
        classes.append(members)
    labels = []
    for i in range(nv):
        label = []
        for members in classes:
            hits = [pos for pos, g in enumerate(members) if g in avoid[i]]
            if len(hits) != 1:
                return FactorFailure(
                    "a vertex does not avoid exactly one facet per class")
            label.append(hits[0])
        labels.append(tuple(label))
    expected = 1
    for members in classes:
        expected *= len(members)
    if len(set(labels)) != nv or expected != nv:
        return FactorFailure("vertex labels do not biject with the product")
    normalized = tuple(
        tuple(a / levels[j] for a in p.functionals[j]) for j in range(nf))
    order = sorted(range(len(classes)), key=lambda c: (len(classes[c]), classes[c]))
    classes = tuple(classes[c] for c in order)
    labels = tuple(tuple(lab[c] for c in order) for lab in labels)
    dims = tuple(len(members) - 1 for members in classes)
    return SimplexFactorization(dims, classes, labels, normalized)
