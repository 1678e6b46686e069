"""Property tests for the order laws of the extendibility hierarchy:
min <= Ext_2 <= Ext_1 = max on random small rational points, over fixture
pairs and over random polygon cones, Ext_3 <= Ext_2 on the square pair, and
Ext_1 = min when B is simplicial.  Derandomized, so every run draws the same
examples."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from coneext.cones import make_based, make_cone
from coneext.fixtures import based_cone, point
from coneext.hierarchy import ext_k_membership, min_tensor_generators, point_tensor
from coneext.lp import conic_membership
from dense_reference import _in_max, max_tensor_halfspaces
from slices import _least_on_slice

# min = max unless both factors are non-simplicial, so the chain draws A
# from the square only; the collapse test draws every A.
A_NAMES = ("square", "triangle", "orthant2")
B_NAMES = ("square", "square-skew", "triangle", "orthant3", "pentagon")
SIMPLICIAL_B = ("triangle", "orthant3")

LAWS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@lru_cache(maxsize=None)
def _pair(a_name, b_name):
    """The cones, the min generators and the extreme rays of the max product
    (facets of the cone its half-spaces span) that lie outside min."""
    a_cone = based_cone(a_name).cone
    based = based_cone(b_name)
    gens = tuple(g.entries for g in min_tensor_generators(a_cone, based.cone))
    halfspaces = max_tensor_halfspaces(a_cone, based.cone)
    entangled = tuple(r for r in make_cone([h.entries for h in halfspaces]).facets
                      if not conic_membership(r, gens).member)
    return a_cone, based, gens, entangled


def _terms(data, vectors, min_size=0):
    """A nonnegative combination of up to four of ``vectors``."""
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, len(vectors) - 1), st.integers(1, 3)),
        min_size=min_size, max_size=4))
    out = [Fraction(0)] * len(vectors[0])
    for i, w in picks:
        out = [e + w * v for e, v in zip(out, vectors[i])]
    return out


def _draw_query(data, a_names, b_names):
    """A fixture pair and a point: a combination of min generators, of max
    extreme rays outside min (where the pair has any), or of min generators
    plus noise, so draws land in min, between min and max, and anywhere.
    The pair is built in the test body, so its cost counts as test time, not
    as data generation."""
    a_name = data.draw(st.sampled_from(a_names))
    b_name = data.draw(st.sampled_from(b_names))
    a_cone, based, gens, entangled = _pair(a_name, b_name)
    mode = data.draw(st.sampled_from(("min", "max", "noise")))
    if mode == "max" and entangled:
        entries = _terms(data, entangled, min_size=1)
    else:
        entries = _terms(data, gens)
    if mode == "noise":
        noise = data.draw(st.lists(st.fractions(-2, 2, max_denominator=3),
                                   min_size=len(entries), max_size=len(entries)))
        entries = [e + d for e, d in zip(entries, noise)]
    return a_cone, based, gens, point_tensor(a_cone, based.cone, entries)


def _check_chain(a_cone, based, gens, x):
    in_min = conic_membership(x.entries, gens).member
    ext2 = ext_k_membership(x, a_cone, based, 2).member
    ext1 = ext_k_membership(x, a_cone, based, 1).member
    assert not in_min or ext2
    assert not ext2 or ext1
    assert ext1 == _in_max(x, a_cone, based)
    return in_min, ext2, ext1


@LAWS
@given(st.data())
def test_min_in_ext2_in_ext1_equals_max(data):
    in_min, ext2, ext1 = _check_chain(*_draw_query(data, ("square",), B_NAMES))
    event(f"min={in_min} ext2={ext2} ext1={ext1}")


@settings(LAWS, max_examples=12)
@given(st.data())
def test_ext3_in_ext2(data):
    """Level 3 is the costliest LP here, so this law draws fewer examples."""
    a_cone, based, _, x = _draw_query(data, ("square",), ("square-skew",))
    ext3 = ext_k_membership(x, a_cone, based, 3).member
    ext2 = ext_k_membership(x, a_cone, based, 2).member
    event(f"ext3={ext3} ext2={ext2}")
    assert not ext3 or ext2


GRID = tuple((x, y) for x in range(-2, 3) for y in range(-2, 3))


def _polygon_cone(data):
    """A based cone through make_cone: the cone over 4 or 5 distinct lattice
    points of [-2, 2]^2 at height 1, not all on a line, with
    phi = (5, a, b), a, b in {-1, 0, 1}, which is positive on every ray."""
    pts = data.draw(st.permutations(GRID))[:data.draw(st.integers(4, 5))]
    (x0, y0), (x1, y1) = pts[:2]
    assume(any((x1 - x0) * (y - y0) != (y1 - y0) * (x - x0) for x, y in pts[2:]))
    phi = (5, data.draw(st.integers(-1, 1)), data.draw(st.integers(-1, 1)))
    return make_based(make_cone([(1, x, y) for x, y in pts]), phi)


@LAWS
@given(st.data())
def test_chain_on_random_cones(data):
    """The chain with A and B drawn through make_cone, so the witness and
    extension checks run on facets no fixture has.  A point is a combination
    of min generators, that plus noise, or an extreme ray of max: the vertex
    of the slice {h >= 0 for every max half-space h, sum_h h = 1} at which
    the separating functional of a random point outside min is least.  The
    functional is nonnegative on min, so the vertex lies outside min
    whenever that least value is negative."""
    a_cone = _polygon_cone(data).cone
    based = _polygon_cone(data)
    gens = tuple(g.entries for g in min_tensor_generators(a_cone, based.cone))
    entries = _terms(data, gens)
    n = len(entries)
    mode = data.draw(st.sampled_from(("min", "noise", "max")))
    if mode == "noise":
        noise = data.draw(st.lists(st.fractions(-2, 2, max_denominator=3),
                                   min_size=n, max_size=n))
        entries = [e + d for e, d in zip(entries, noise)]
    if mode == "max":
        probe = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        outside = conic_membership(probe, gens)
        assume(not outside.member)
        rows = [h.entries for h in max_tensor_halfspaces(a_cone, based.cone)]
        entries = list(_least_on_slice(outside.separating, rows,
                                       [sum(col) for col in zip(*rows)], gens[0]))
    x = point_tensor(a_cone, based.cone, entries)
    in_min, ext2, ext1 = _check_chain(a_cone, based, gens, x)
    event(f"{mode}: min={in_min} ext2={ext2} ext1={ext1}")
    event(f"facets {len(a_cone.facets)}x{len(based.cone.facets)}")


# Level 3 membership of the gap points: gap-k2 lies in Ext_2 minus Ext_3.
GAP_EXT3 = {"gap-k2.pt": False, "gap-k3.pt": True}


@pytest.mark.parametrize("point_file", list(GAP_EXT3))
def test_chain_on_gap_points(point_file):
    """The shipped gap points sit in Ext_2 but outside min, and gap-k2 also
    outside Ext_3: regions random draws rarely reach."""
    a_cone, based, gens, _ = _pair("square", "square-skew")
    x = point(point_file.removesuffix(".pt"), a_cone, based.cone)
    assert _check_chain(a_cone, based, gens, x) == (False, True, True)
    assert ext_k_membership(x, a_cone, based, 3).member == GAP_EXT3[point_file]


@LAWS
@given(st.data())
def test_simplicial_b_collapses_ext1_to_min(data):
    a_cone, based, gens, x = _draw_query(data, A_NAMES, SIMPLICIAL_B)
    in_min = conic_membership(x.entries, gens).member
    event(f"min={in_min}")
    assert ext_k_membership(x, a_cone, based, 1).member == in_min

