"""Face combinatorics: simplicity, 2-levelness, hull commutation, and
product-of-simplices recognition, cross-checked against each other."""

import itertools
import random
from fractions import Fraction

import pytest

from coneext import polytopes
from coneext.fixtures import (FACTORABLE, UNFACTORABLE, based_cone, cone_names,
                              polytope, polytope_names)
from coneext.linalg import affine_rank, dot, nullspace, solve
from coneext.polytopes import (FactorFailure, SimplexFactorization,
                               affine_hull_commutes, factor_as_simplices,
                               is_simple, is_two_level, polytope_from_vertices)

EXPECTED_DIMS = {
    "triangle": (2,),
    "square": (1, 1),
    "cube": (1, 1, 1),
    "prism": (1, 2),
}


def test_corpus_verdicts_and_oracle_triangle():
    for name in polytope_names():
        p = polytope(name)
        simple = is_simple(p)
        two_level = is_two_level(p)
        commutes, witness = affine_hull_commutes(p)
        factored = factor_as_simplices(p)
        ok = isinstance(factored, SimplexFactorization)
        assert commutes == ok == (simple and two_level), name
        if name in FACTORABLE:
            assert ok and commutes and witness is None, name
            assert tuple(sorted(factored.factor_dims)) == EXPECTED_DIMS[name]
        else:
            assert name in UNFACTORABLE
            assert not ok and not commutes, name
            assert witness
            assert isinstance(factored, FactorFailure) and factored.reason


def test_octahedron_is_not_simple():
    p = polytope("octahedron")
    assert all(len(inc) == 4 for inc in p.incidence)
    assert p.dim == 3
    assert not is_simple(p)


def test_pentagon_not_two_level():
    p = polytope("pentagon")
    assert is_simple(p)
    # some edge functional takes two distinct nonzero values on the
    # three vertices off that edge
    broken = 0
    for j in range(len(p.functionals)):
        vals = {p.evaluate(j, v) for i, v in enumerate(p.vertices)
                if j not in p.incidence[i]}
        assert 0 not in vals
        if len(vals) > 1:
            broken += 1
    assert broken > 0


def _reconstruct_incidence(p, fact):
    rebuilt = []
    for labels in fact.vertex_labels:
        inc = set()
        for cls, pos in zip(fact.facet_classes, labels):
            for q, facet in enumerate(cls):
                if q != pos:
                    inc.add(facet)
        rebuilt.append(frozenset(inc))
    return tuple(rebuilt)


def test_factorization_invariants_on_corpus():
    for name in FACTORABLE:
        p = polytope(name)
        f = factor_as_simplices(p)
        nverts = 1
        for d in f.factor_dims:
            nverts *= d + 1
        assert nverts == len(p.vertices)
        assert sum(d + 1 for d in f.factor_dims) == len(p.functionals)
        assert _reconstruct_incidence(p, f) == p.incidence
        nontrivial = sum(1 for d in f.factor_dims if d >= 1)
        for v in range(len(p.vertices)):
            assert len(p.avoiding_set(v)) == nontrivial
        # per class the normalized functionals sum to 1 everywhere
        for cls in f.facet_classes:
            for v in p.vertices:
                total = sum(f.normalized[j][0] + dot(f.normalized[j][1:], v)
                            for j in cls)
                assert total == 1


def _simplex_vertices(d):
    verts = [tuple(0 for _ in range(d))]
    for i in range(d):
        verts.append(tuple(1 if j == i else 0 for j in range(d)))
    return verts


def _random_affine_image(rng, points):
    n = len(points[0])
    while True:
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        aug = [row + [0] * i + [1] + [0] * (n - 1 - i) for i, row in enumerate(mat)]
        if len(nullspace(mat, n)) == 0:
            break
    shift = [rng.randint(-4, 4) for _ in range(n)]
    return [tuple(sum(mat[i][j] * x[j] for j in range(n)) + shift[i]
                  for i in range(n)) for x in points]


def test_random_simplex_products_factor_back():
    rng = random.Random(20260821)
    shapes = [(1, 1), (2,), (2, 1), (1, 1, 1), (2, 2), (3,), (1, 2)]
    for _ in range(12):
        dims = list(rng.choice(shapes))
        rng.shuffle(dims)
        prod = [()]
        for d in dims:
            prod = [a + b for a in prod for b in _simplex_vertices(d)]
        mapped = _random_affine_image(rng, prod)
        p = polytope_from_vertices(mapped)
        assert is_simple(p) and is_two_level(p)
        commutes, _ = affine_hull_commutes(p)
        assert commutes
        f = factor_as_simplices(p)
        assert isinstance(f, SimplexFactorization)
        assert sorted(f.factor_dims) == sorted(dims)
        assert _reconstruct_incidence(p, f) == p.incidence


def test_hull_commutation_is_affine_invariant():
    rng = random.Random(311)
    for name in ("pentagon", "quad", "square", "prism"):
        base = polytope(name)
        want, _ = affine_hull_commutes(base)
        for _ in range(3):
            mapped = polytope_from_vertices(_random_affine_image(rng, list(base.vertices)))
            got, _ = affine_hull_commutes(mapped)
            assert got == want, name


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


def test_failure_witnesses_recheck():
    for name in UNFACTORABLE:
        p = polytope(name)
        commutes, witness = affine_hull_commutes(p)
        assert not commutes
        assert _recheck_witness(p, sorted(witness)), name


def test_pentagon_witness_is_two_disjoint_edges():
    p = polytope("pentagon")
    _, witness = affine_hull_commutes(p)
    assert len(witness) == 2
    assert p.face_from_facets(witness) == ()
    # the two edge lines meet at a point strictly outside the polytope
    rows = [p.functionals[j][1:] for j in witness]
    rhs = [-p.functionals[j][0] for j in witness]
    pt = solve(rows, rhs)
    assert pt is not None
    assert any(p.evaluate(j, pt) < 0 for j in range(len(p.functionals)))


def test_a_point_is_the_product_of_no_simplices():
    """A one-vertex polytope has no facets: it factors as the empty
    product, its one vertex labelled by the empty tuple."""
    p = polytope_from_vertices([(Fraction(1), Fraction(2))])
    fact = factor_as_simplices(p)
    assert fact == SimplexFactorization((), (), ((),), ())


def test_avoiding_sets_on_square():
    p = polytope("square")
    for i, v in enumerate(p.vertices):
        av = p.avoiding_set(i)
        assert len(av) == 2
        for j in av:
            assert p.evaluate(j, v) > 0


def test_square_pyramid_apex():
    apex = (Fraction(1, 2), Fraction(1, 2), Fraction(1))
    p = polytope_from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), apex])
    ai = list(p.vertices).index(apex)
    assert len(p.avoiding_set(ai)) == 1
    assert len(p.incidence[ai]) == 4
    assert not is_simple(p)
    (base_facet,) = p.avoiding_set(ai)
    assert set(p.vertices_of_facet(base_facet)) == set(range(len(p.vertices))) - {ai}


def test_face_from_facets_on_cube():
    p = polytope("cube")
    pairs = itertools.combinations(range(len(p.functionals)), 2)
    sizes = sorted(len(p.face_from_facets(s)) for s in pairs)
    # 12 edges from adjacent pairs, 3 empty faces from opposite pairs
    assert sizes == [0, 0, 0] + [2] * 12


def test_face_from_facets_on_square():
    p = polytope("square")
    for j in range(len(p.functionals)):
        assert len(p.face_from_facets([j])) == 2


def test_vertex_order_does_not_matter():
    rng = random.Random(41)
    verts = list(polytope("prism").vertices)
    for _ in range(3):
        shuffled = verts[:]
        rng.shuffle(shuffled)
        assert polytope_from_vertices(shuffled) == polytope_from_vertices(verts)


def _checked_polytopes():
    """Every shipped polytope and the base of every corpus cone, named."""
    return ([(name, polytope(name)) for name in polytope_names()]
            + [(f"base {name}", based_cone(name).base) for name in cone_names()])


def _with_functional(p, j, f):
    """p with functional j replaced by f, every other field kept."""
    fields = {name: getattr(p, name) for name in p.__match_args__}
    fields["functionals"] = p.functionals[:j] + (f,) + p.functionals[j + 1:]
    return type(p)(**fields)


@pytest.mark.parametrize("name, p", _checked_polytopes())
def test_check_polytope_rejects_a_negated_functional(name, p):
    """A facet functional negated is negative on the vertices off its facet."""
    for j, f in enumerate(p.functionals):
        bad = _with_functional(p, j, tuple(-a for a in f))
        with pytest.raises(AssertionError, match="negative on a vertex"):
            polytopes._check_polytope(bad)


@pytest.mark.parametrize("name, p", _checked_polytopes())
def test_check_polytope_rejects_a_shifted_functional(name, p):
    """A facet functional shifted by +1 is zero on no vertex, so it no
    longer cuts out a face."""
    for j, f in enumerate(p.functionals):
        bad = _with_functional(p, j, (f[0] + 1,) + f[1:])
        with pytest.raises(AssertionError):
            polytopes._check_polytope(bad)
