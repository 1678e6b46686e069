"""Property tests for the order laws of the extendibility hierarchy:
min <= Ext_2 <= Ext_1 = max on random small rational points, and Ext_1 =
min when B is simplicial.  Derandomized, so every run draws the same
examples."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from coneext.cones import make_cone
from coneext.fixtures import based_cone, fixture_text
from coneext.formats import parse_point_file
from coneext.hierarchy import (ext_k_membership, max_tensor_halfspaces,
                               min_tensor_generators, point_tensor)
from coneext.lp import conic_membership
from coneext.tensors import pairing

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


def _in_max(x, a_cone, based):
    return all(pairing(h, x) >= 0
               for h in max_tensor_halfspaces(a_cone, based.cone))


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


@pytest.mark.parametrize("point_file", ["gap-k2.pt", "gap-k3.pt"])
def test_chain_on_gap_points(point_file):
    """The shipped gap points sit in Ext_2 but outside min, a region random
    draws rarely reach."""
    a_cone, based, gens, _ = _pair("square", "square-skew")
    _, _, entries = parse_point_file(fixture_text(point_file))
    x = point_tensor(a_cone, based.cone, entries)
    assert _check_chain(a_cone, based, gens, x) == (False, True, True)


@LAWS
@given(st.data())
def test_simplicial_b_collapses_ext1_to_min(data):
    a_cone, based, gens, x = _draw_query(data, A_NAMES, SIMPLICIAL_B)
    in_min = conic_membership(x.entries, gens).member
    event(f"min={in_min}")
    assert ext_k_membership(x, a_cone, based, 1).member == in_min
