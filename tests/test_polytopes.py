"""Face combinatorics: simplicity, 2-levelness, hull commutation, and
product-of-simplices recognition, cross-checked against each other."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from coneext import polytopes
from coneext.fixtures import (FACTORABLE, UNFACTORABLE, based_cone, cone_names,
                              polytope, polytope_names)
from coneext.linalg import dot, nullspace, solve
from coneext.polytopes import (FactorFailure, Polytope, SimplexFactorization,
                               affine_hull_commutes, factor_as_simplices,
                               is_simple, is_two_level, polytope_from_vertices)
from dense_reference import _recheck_witness

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


def _random_affine_image(rng, points, extra=0):
    """An injective affine image of points of R^n in R^(n + extra), so for
    extra > 0 a hull of lower dimension than its ambient space."""
    n = len(points[0])
    m = n + extra
    while True:
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if len(nullspace(mat, n)) == 0:
            break
    shift = [rng.randint(-4, 4) for _ in range(m)]
    return [tuple(sum(mat[i][j] * x[j] for j in range(n)) + shift[i]
                  for i in range(m)) for x in points]


def test_random_simplex_products_factor_back():
    rng = random.Random(20260821)
    wide = random.Random(20260822)
    shapes = [(1, 1), (2,), (2, 1), (1, 1, 1), (2, 2), (3,), (1, 2)]
    for _ in range(12):
        dims = list(rng.choice(shapes))
        rng.shuffle(dims)
        prod = [()]
        for d in dims:
            prod = [a + b for a in prod for b in _simplex_vertices(d)]
        for mapped in (_random_affine_image(rng, prod),
                       _random_affine_image(wide, prod, extra=1)):
            p = polytope_from_vertices(mapped)
            assert p.dim == sum(dims)
            assert is_simple(p) and is_two_level(p)
            commutes, _ = affine_hull_commutes(p)
            assert commutes
            f = factor_as_simplices(p)
            assert isinstance(f, SimplexFactorization)
            assert sorted(f.factor_dims) == sorted(dims)
            assert _reconstruct_incidence(p, f) == p.incidence


def test_hull_commutation_is_affine_invariant():
    rng = random.Random(311)
    wide = random.Random(312)
    for name in ("pentagon", "quad", "square", "prism"):
        base = polytope(name)
        want, _ = affine_hull_commutes(base)
        images = [_random_affine_image(rng, list(base.vertices)) for _ in range(3)]
        images.append(_random_affine_image(wide, list(base.vertices), extra=1))
        for image in images:
            got, _ = affine_hull_commutes(polytope_from_vertices(image))
            assert got == want, name


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


def test_affine_hull_commutes_refuses_more_facets_than_the_cap():
    """The 21-gon through (i, i^2) has one facet more than the cap, and the
    function itself refuses it, whatever the CLI checks first."""
    p = polytope_from_vertices([(i, i * i) for i in range(21)])
    with pytest.raises(ValueError,
                       match="^facet count 21 exceeds the 20 subset-iteration cap$"):
        affine_hull_commutes(p)


@pytest.mark.parametrize("functionals,directions,reason", [
    # the square's four facets with the vertex (1, 1) left out
    (((0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1)), ((1, 0), (0, 1)),
     "facet grouping is not an equivalence relation"),
    # three pairwise separated facets, one per vertex, on a recorded line:
    # each facet is its own class, and no vertex avoids all three
    (((0, 1, 1), (1, -1, 0), (1, 0, -1)), ((1, 0),),
     "a vertex does not avoid exactly one facet per class"),
])
def test_factor_failures_of_hand_built_polytopes(functionals, directions, reason):
    """Simple, two-level polytopes that no builder makes, put together by
    hand, reach the two failures before the bijection check."""
    p = Polytope(2, ((0, 0), (0, 1), (1, 0)), functionals, directions)
    assert factor_as_simplices(p) == FactorFailure(reason)


def test_check_polytope_refuses_a_surplus_hull_direction():
    """A segment of the x axis with the plane recorded as its hull: both
    functionals are nonnegative on both vertices, but the two vertices span
    a line, not the recorded plane.  With the line recorded it passes."""
    p = Polytope(2, ((0, 0), (1, 0)), ((0, 1, 0), (1, -1, 0)), ((1, 0), (0, 1)))
    with pytest.raises(AssertionError, match="does not span the recorded hull"):
        polytopes._check_polytope(p)
    polytopes._check_polytope(_replaced(p, hull_directions=((1, 0),)))


def test_polytope_from_vertices_refuses_bad_input():
    with pytest.raises(ValueError, match="^no points given$"):
        polytope_from_vertices([])
    with pytest.raises(ValueError, match="^mixed ambient dimensions$"):
        polytope_from_vertices([(0, 0), (1,)])


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


# sha256 of repr(functionals) of polytope_from_vertices(base.vertices) per
# corpus cone, captured when the builder lifted through the Gram inverse.
# Each base sits in a hyperplane of its cone's space.
REBUILT_BASE_FUNCTIONALS = {
    "cube": "71424fc7647622c08bd206aa74dc5cdf0c27c8bb00510459c27639f39656e4e2",
    "octahedron": "3db8ebfff984ea2e1b574a64096d9c6566b8ba70e62c7ebbb3d38bfabb154ffb",
    "orthant2": "86c1abb9c9775876c3a86b7a599b02a82448230362247f8cbaada0e78e2a972c",
    "orthant3": "698875b50c3b5533d014e154cebd61db6fe934b7e844ae779defbaeaf97c27d6",
    "pentagon": "63b46be0e248c45c7fb55f8a600f4c03a9d67e42e74ea78422e720d3bc29f92d",
    "prism": "eb44dce6ead6fcc2c9a87038e1316d278fb698b2890dd1085ecaca71a024cbac",
    "quad": "c3b5fc8ab21531a5afd951672df8577aecda066f45ad141c9b4ef13ba825ba35",
    "square-skew": "4332115b3c5b71a7fda249f33f88842903f80f24759eb3fe75de7e9facedd329",
    "square": "4ef48372b92246bc7b590842946340d9a9c825ac20a059ae47295f42ad84f394",
    "triangle": "9138fec2db5fbf83d142afa09d44fb749d9068f0ef688992265ef7564431d174",
}


def _factor_dims(p):
    f = factor_as_simplices(p)
    return f.factor_dims if isinstance(f, SimplexFactorization) else f.reason


@pytest.mark.parametrize("name", cone_names())
def test_a_base_rebuilt_from_its_vertices_is_the_base(name):
    """Each corpus base, a hull of lower dimension than its ambient space,
    rebuilt from its vertices alone has the same vertices, facets, factor
    dims and hull verdict, and functionals pinned byte for byte."""
    base = based_cone(name).base
    p = polytope_from_vertices(base.vertices)
    assert p.ambient_dim == base.ambient_dim == p.dim + 1
    assert p.vertices == base.vertices
    facets = lambda q: {q.vertices_of_facet(j) for j in range(len(q.functionals))}
    assert facets(p) == facets(base)
    assert _factor_dims(p) == _factor_dims(base)
    assert affine_hull_commutes(p)[0] == affine_hull_commutes(base)[0]
    digest = hashlib.sha256(repr(p.functionals).encode()).hexdigest()
    assert digest == REBUILT_BASE_FUNCTIONALS[name]


def _checked_polytopes():
    """Every shipped polytope and the base of every corpus cone, named."""
    return ([(name, polytope(name)) for name in polytope_names()]
            + [(f"base {name}", based_cone(name).base) for name in cone_names()])


def _replaced(p, **changes):
    """p with the given fields replaced, every other field kept."""
    fields = {name: getattr(p, name) for name in p.__match_args__}
    return type(p)(**(fields | changes))


def _with_functional(p, j, f):
    """p with functional j replaced by f, every other field kept."""
    return _replaced(p, functionals=p.functionals[:j] + (f,) + p.functionals[j + 1:])


@pytest.mark.parametrize("p", [polytope("cube"), based_cone("cube").base],
                         ids=["cube", "base cube"])
def test_check_polytope_does_not_see_a_dropped_vertex(p):
    """The check certifies faces, not completeness: with any one vertex
    dropped, every functional stays nonnegative and every facet keeps a
    spanning vertex set.  Only the factorization notices."""
    for i in range(len(p.vertices)):
        short = _replaced(p, vertices=p.vertices[:i] + p.vertices[i + 1:])
        polytopes._check_polytope(short)
        assert factor_as_simplices(short) == FactorFailure(
            "vertex labels do not biject with the product")


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
