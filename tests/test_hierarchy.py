"""Min/max tensor products, reduction maps, level-k membership, the
entanglement-breaking decision, and the dual hierarchy search."""

import ast
import hashlib
import itertools
import random
import sys
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import coneext.hierarchy as hierarchy
import coneext.lp as lp
import coneext.polytopes as polytopes
from coneext.cones import interior_point, make_based, make_cone
from coneext.fixtures import EB_LEVELS, based_cone, cone, cone_names, point
from coneext.hierarchy import (ConsistencyError, _admissible_multisets,
                               _arrangements, _check_extension, _check_pad,
                               _ext_k_pairs, _ext_k_rows, _facet_centroids,
                               _pad_columns, apply_reduction,
                               dual_hierarchy_k, ext_k_membership,
                               is_entanglement_breaking,
                               min_tensor_generators, point_tensor,
                               reduction_map, omega_interior_test)
from coneext.linalg import clear_denominators, clear_rows, dot, rank, vec
from coneext.lp import (INFEASIBLE, ConicOutcome, LpOutcome,
                        conic_membership, conic_solve, solve)
from coneext.tensors import (DUAL, PRIMAL, DenseTensor, Slot, contract_slot,
                             from_vector, kron, pairing, reorder_slots,
                             sym_basis, symmetric_project)
import dense_reference
from dense_reference import (_in_max, _reduction_pairing, max_tensor_halfspaces,
                             vertex_facet_tensor)
from test_tools import ladder


def _affine_base_point(rng, based):
    verts = based.base.vertices
    while True:
        w = [rng.randint(-2, 3) for _ in verts]
        if sum(w) != 0:
            break
    s = Fraction(1, sum(w))
    pt = [Fraction(0)] * based.cone.dim
    for wi, v in zip(w, verts):
        pt = [a + wi * s * b for a, b in zip(pt, v)]
    return tuple(pt)


# -- generator and half-space counts ----------------------------------------

def test_product_description_counts():
    sq = cone("square")
    assert len(min_tensor_generators(sq, sq)) == 16
    assert len(max_tensor_halfspaces(sq, sq, sq)) == 64
    tri = cone("triangle")
    assert len(min_tensor_generators(tri, sq, sq)) == 48


def test_min_tensor_generators_are_the_kron_of_the_rays():
    """Each generator is the Kronecker product of one ray per factor, the
    first factor's ray outermost; min-check reads the same columns from
    ``cones.min_columns``."""
    def krons(*cones):
        return [kron(*map(from_vector, combo))
                for combo in itertools.product(*(c.rays for c in cones))]

    pairs = list(itertools.product(map(cone, cone_names()), repeat=2))
    assert len(pairs) >= 100
    for a_cone, b_cone in pairs:
        assert min_tensor_generators(a_cone, b_cone) == krons(a_cone, b_cone)
    tri, sq = cone("triangle"), cone("square")
    assert min_tensor_generators(tri, sq, sq) == krons(tri, sq, sq)


def test_pure_tensor_is_min_member():
    sq = cone("square")
    gens = [g.entries for g in min_tensor_generators(sq, sq)]
    target = kron(from_vector((1, 1, 0)), from_vector((1, 0, 1)))
    assert conic_membership(target.entries, gens).member


# -- the reduction map ------------------------------------------------------

def test_level_one_reduction_is_identity():
    for name in ("square", "triangle", "orthant3"):
        based = based_cone(name)
        n = based.cone.dim
        t = reduction_map(based, 1)
        for i in range(n):
            for j in range(n):
                assert t[(i, j)] == (1 if i == j else 0)


def test_apply_reduction_level_one_is_identity():
    rng = random.Random(3)
    sq = cone("square")
    x = point_tensor(sq, sq, [rng.randint(-4, 4) for _ in range(9)])
    assert apply_reduction(x, based_cone("square"), 1) == x


def test_defining_identity_on_base_points():
    """Pairing the level-k tensor against x_1 ox .. ox x_k ox psi returns the
    average of the psi values, for any points on the base's affine hull."""
    rng = random.Random(29)
    for name in ("square", "square-skew", "triangle", "prism"):
        based = based_cone(name)
        n = based.cone.dim
        for k in (1, 2, 3):
            gamma = reduction_map(based, k)
            for _ in range(5):
                xs = [_affine_base_point(rng, based) for _ in range(k)]
                psi = tuple(rng.randint(-3, 3) for _ in range(n))
                probe = kron(*(from_vector(x) for x in xs), from_vector(psi, DUAL))
                want = sum(dot(psi, x) for x in xs) / Fraction(k)
                assert pairing(gamma, probe) == want


def test_square_level_two_averages_base_points():
    rng = random.Random(31)
    based = based_cone("square")
    gamma = reduction_map(based, 2)
    for _ in range(20):
        u = _affine_base_point(rng, based)
        v = _affine_base_point(rng, based)
        out = contract_slot(contract_slot(gamma, 0, from_vector(u)), 0, from_vector(v))
        avg = tuple((a + b) / 2 for a, b in zip(u, v))
        assert out == from_vector(avg)


def test_apply_reduction_keeps_the_a_factor():
    rng = random.Random(33)
    based = based_cone("square")
    for _ in range(10):
        a = tuple(rng.randint(-3, 3) for _ in range(3))
        u = _affine_base_point(rng, based)
        v = _affine_base_point(rng, based)
        x = kron(from_vector(a), from_vector(u), from_vector(v))
        avg = tuple((p + q) / 2 for p, q in zip(u, v))
        assert apply_reduction(x, based, 2) == kron(from_vector(a), from_vector(avg))


def _reduction_map_by_positions(based, k):
    """The level-k reduction tensor term by term: phi on every dual slot but
    one, which carries the identity with its primal slot moved last,
    averaged over the k positions of the identity."""
    n = based.cone.dim
    phi = from_vector(based.phi, DUAL)
    ident = DenseTensor((Slot(n, DUAL), Slot(n, PRIMAL)),
                        [Fraction(int(i == j)) for i in range(n) for j in range(n)])
    total = None
    for pos in range(k):
        term = kron(*([phi] * pos), ident, *([phi] * (k - 1 - pos)))
        term = reorder_slots(term, [j for j in range(k + 1) if j != pos + 1] + [pos + 1])
        total = term if total is None else total + term
    return total.scale(Fraction(1, k))


def _reduce_by_kept_slot(x, based, k):
    """(Id_A ox reduction)(x) term by term: the average, over the kept B
    slot, of pairing every other B slot with phi."""
    phi = from_vector(based.phi, DUAL)
    total = None
    for keep in range(1, k + 1):
        t = x
        for slot in range(k, 0, -1):
            if slot != keep:
                t = contract_slot(t, slot, phi)
        total = t if total is None else total + t
    return total.scale(Fraction(1, k))


def test_reduction_map_matches_the_position_sum():
    for name in cone_names():
        based = based_cone(name)
        for k in (1, 2, 3, 4):
            gamma = reduction_map(based, k)
            assert gamma == _reduction_map_by_positions(based, k), (name, k)
            assert all(type(e) is Fraction for e in gamma.entries)


def test_apply_reduction_matches_the_kept_slot_average():
    """On tensors that are not symmetric over the B slots, symmetrizing and
    then pairing k-1 slots with phi equals the kept-slot average."""
    rng = random.Random(37)
    for name in cone_names():
        based = based_cone(name)
        n = based.cone.dim
        for k in (1, 2, 3, 4):
            nA = rng.randint(1, 3)
            slots = (Slot(nA, PRIMAL),) + (Slot(n, PRIMAL),) * k
            x = DenseTensor(slots, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                    for _ in range(nA * n ** k)])
            if k > 1:
                assert symmetric_project(x, range(1, k + 1)) != x
            got = apply_reduction(x, based, k)
            assert got == _reduce_by_kept_slot(x, based, k), (name, k)
            assert all(type(e) is Fraction for e in got.entries)


def test_square_level_two_four_term_expansion():
    """The doubled level-2 tensor decomposes over vertex and avoided-facet
    pairs of the square with half-integer dual vectors."""
    based = based_cone("square")
    h = Fraction(1, 2)
    psi_pp = (h, h, h)
    psi_pm = (h, h, -h)
    psi_mp = (h, -h, h)
    psi_mm = (h, -h, -h)
    x_p0 = (1, 1, 0)
    x_m0 = (1, -1, 0)
    x_0p = (1, 0, 1)
    x_0m = (1, 0, -1)
    expansion = None
    for a, b, v in (
        (psi_pp, psi_pm, x_p0),
        (psi_mp, psi_mm, x_m0),
        (psi_pp, psi_mp, x_0p),
        (psi_pm, psi_mm, x_0m),
    ):
        fa, fb = from_vector(a, DUAL), from_vector(b, DUAL)
        term = kron(fa, fb) + kron(fb, fa)
        term = kron(term, from_vector(v))
        expansion = term if expansion is None else expansion + term
    doubled = reduction_map(based, 2).scale(Fraction(2))
    assert expansion == doubled


# -- level-k membership -----------------------------------------------------

def test_level_one_equals_max_product():
    rng = random.Random(37)
    sq = cone("square")
    based = based_cone("square")
    box = point("box", sq, sq)
    seen = {True: 0, False: 0}
    for trial in range(60):
        if trial % 3 == 0:
            entries = [rng.randint(-3, 3) for _ in range(9)]
        elif trial % 3 == 1:
            pt = [Fraction(0)] * 9
            for g in min_tensor_generators(sq, sq):
                w = Fraction(rng.randint(0, 2), rng.randint(1, 2))
                pt = [a + w * b for a, b in zip(pt, g.entries)]
            entries = pt
        else:
            jitter = [Fraction(rng.randint(-1, 1), 8) for _ in range(9)]
            entries = [a + b for a, b in zip(box.entries, jitter)]
        x = point_tensor(sq, sq, entries)
        direct = _in_max(x, sq, based)
        verdict = ext_k_membership(x, sq, based, 1)
        assert verdict.member == direct
        seen[direct] += 1
    assert seen[True] > 5 and seen[False] > 5


def test_box_point_splits_max_from_min():
    sq = cone("square")
    based = based_cone("square")
    box = point("box", sq, sq)
    assert _in_max(box, sq, based)
    gens = [g.entries for g in min_tensor_generators(sq, sq)]
    out = conic_membership(box.entries, gens)
    assert not out.member
    assert dot(out.separating, box.entries) < 0
    assert all(dot(out.separating, g) >= 0 for g in gens)


def test_box_point_rejected_at_level_two_with_witness():
    sq = cone("square")
    based = based_cone("square")
    box = point("box", sq, sq)
    verdict = ext_k_membership(box, sq, based, 2)
    assert not verdict.member
    zeta = verdict.witness
    assert pairing(zeta, box) < 0
    for g in min_tensor_generators(sq, sq):
        assert pairing(zeta, g) >= 0


def test_witness_that_does_not_separate_is_refused(monkeypatch):
    """A Farkas certificate negated on the way back from the LP gives a
    witness that is positive on the query point, which is refused before
    any re-sum."""
    def negated(problem):
        out = solve(problem)
        return LpOutcome(status=out.status,
                         certificate=tuple(-c for c in out.certificate))

    monkeypatch.setattr(hierarchy, "solve", negated)
    with pytest.raises(ConsistencyError, match="does not separate"):
        ext_k_membership(*ladder.case("box", "square"), 2)


def test_member_extension_certificate_chain():
    """A returned level-2 extension contracts back to the query point and a
    level-3 extension contracts to a valid level-2 extension."""
    sq = cone("square")
    skew = based_cone("square-skew")
    phi = from_vector(skew.phi, DUAL)
    gap2 = point("gap-k2", sq, sq)
    v2 = ext_k_membership(gap2, sq, skew, 2)
    assert v2.member
    y = v2.extension
    assert contract_slot(y, 2, phi) == gap2
    assert contract_slot(y, 1, phi) == gap2

    gap3 = point("gap-k3", sq, sq)
    v3 = ext_k_membership(gap3, sq, skew, 3)
    assert v3.member
    y3 = v3.extension
    y2 = contract_slot(y3, 3, phi)
    assert contract_slot(y2, 2, phi) == gap3
    for h in max_tensor_halfspaces(sq, sq, sq):
        assert pairing(h, y2) >= 0
    assert ext_k_membership(gap3, sq, skew, 2).member


def test_min_points_pass_every_level():
    rng = random.Random(41)
    sq = cone("square")
    skew = based_cone("square-skew")
    gens = min_tensor_generators(sq, sq)
    for k in (1, 2, 3):
        for _ in range(2 if k < 3 else 1):
            pt = [Fraction(0)] * 9
            for g in gens:
                w = Fraction(rng.randint(0, 3), rng.randint(1, 2))
                pt = [a + w * b for a, b in zip(pt, g.entries)]
            x = point_tensor(sq, sq, pt)
            assert ext_k_membership(x, sq, skew, k).member


def test_ext_membership_input_checks():
    sq = cone("square")
    based = based_cone("square")
    x = point_tensor(sq, sq, range(9))
    with pytest.raises(ValueError):
        ext_k_membership(x, sq, based, 0)
    with pytest.raises(ValueError):
        ext_k_membership(x, cone("orthant2"), based, 1)


def test_level_refusals_below_one():
    based = based_cone("square")
    for call in (is_entanglement_breaking, reduction_map, vertex_facet_tensor,
                 omega_interior_test):
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be at least 1"):
                call(based, k)


# -- the LPs behind level-k membership, and tampered certificates ---------

# sha256 of repr(problem) + repr(outcome) of the LP that ext_k_membership
# solves, captured before the tableau rows went sparse.  These LPs have free
# variables and zero-rhs ge rows, which the random LPs of test_lp.py lack;
# any change to the LP data or to the pivot sequence changes the hashes.
# gap-k3 at k=2 and gap-k2 at k=2 and k=3 were re-captured under guarded
# Dantzig pricing.  All were re-captured when LpProblem lost its objective
# field and LpOutcome its optimum: with ", objective=None" and
# ", optimum=None" put back into the two reprs, each gives the hash pinned
# before.  gap-k2 at k=3 was re-captured when a basic free variable was
# frozen in the tableau: its Farkas multipliers changed, its witness zeta
# did not.  The k=4 cases were captured under that rule.  gap-k3 at k=2 to
# 4 and gap-k2 at k=3 and 4 were re-captured under the lexicographic ratio
# test and free columns first: each verdict stayed, read from another
# final basis.
EXT_K_LP_PINS = {
    ("gap-k3", "square-skew", 1): "3065658bff062c79b0123e01927c731b3c8e4df10730040ac42d8d2c72ed66b6",
    ("gap-k3", "square-skew", 2): "020865ad026fd9a08b6cb60fd034a650471c831cabeba9d5f157b3f4772eadb3",
    ("gap-k3", "square-skew", 3): "a72c949e8dc61aeb0acb8e7b7de3b8c7df9f45d348bee11b4916403f89258c76",
    ("gap-k3", "square-skew", 4): "31cb3c5c69eb087a3df60db4d5bab517e55224c1f4f794c7e9429f53149d9869",
    ("gap-k2", "square-skew", 1): "d4224debea1df08a5abb20b316fd2fefb6cb89d95ede6db6e93c6435b54c421d",
    ("gap-k2", "square-skew", 2): "e9201de2308634f5f9c8af8ee63c5aecf12f62b1c24d79a75cfc9bb5a3bd5e8a",
    ("gap-k2", "square-skew", 3): "24f61a599be5310afaf99393fa73d3f241caaa43bfd3994afdda89627dfde708",
    ("gap-k2", "square-skew", 4): "2148ab82f49342fb4a78c0326e0bf09b96955dc71076203ab44d81d5b89509e4",
    ("box", "square", 1): "c393823b800b4586d65af9c6fa500b0972aecd1095834d18654605fd9e6c984e",
    ("box", "square", 2): "28443414301f34d8fd113b1b0566d5625d6d40871b52cb6c5de1260efd48a2af",
}


@pytest.mark.parametrize("point,b_name,k", list(EXT_K_LP_PINS))
def test_ext_k_lps_are_pinned(monkeypatch, point, b_name, k):
    digests = []

    def recording(problem):
        out = solve(problem)
        digests.append(hashlib.sha256(
            (repr(problem) + repr(out)).encode()).hexdigest())
        return out

    monkeypatch.setattr(hierarchy, "solve", recording)
    x, a_cone, based = ladder.case(point, b_name)
    ext_k_membership(x, a_cone, based, k)
    assert digests == [EXT_K_LP_PINS[point, b_name, k]]


@pytest.mark.parametrize("point,b_name,k", list(EXT_K_LP_PINS))
def test_ext_k_lp_reaches_solve_cleared(monkeypatch, point, b_name, k):
    """``ext_k_membership`` makes its LP with the constructor, from rows of
    ints and an int ``num_eq``: neither ``LpProblem.build`` nor a Fraction
    view of the rows is reached before the problem is handed to solve."""
    made = []

    class Watched(lp.LpProblem):
        def __init__(self, num_vars, int_rows, num_eq, nonneg):
            made.append(type(num_eq) is int and all(
                type(a) is int for ints, d in int_rows for a in (*ints, d)))
            super().__init__(num_vars, int_rows, num_eq, nonneg)

    def refused(*args, **kwargs):
        raise AssertionError("Fraction rows formed before solve")

    def entered(problem):
        monkeypatch.undo()
        return solve(problem)

    monkeypatch.setattr(hierarchy, "LpProblem", Watched)
    monkeypatch.setattr(lp.LpProblem, "build", staticmethod(refused))
    monkeypatch.setattr(lp, "_fraction_rows", refused)
    monkeypatch.setattr(hierarchy, "solve", entered)
    ext_k_membership(*ladder.case(point, b_name), k)
    assert made == [True]


def test_pad_lps_reach_conic_solve_cleared(monkeypatch):
    """The entanglement-breaking and dual hierarchy LPs reach
    ``conic_solve`` as rows of ints, and ``_pad_columns`` forms no Fraction
    on the way: ``Fraction.__new__``, which every Fraction made by a call or
    by arithmetic passes through, is not entered while it runs."""
    formed, seen = [], []
    build = hierarchy._pad_columns

    def watched(*args):
        def profile(frame, event, arg):
            if event == "call" and frame.f_code is Fraction.__new__.__code__:
                formed.append(frame.f_back.f_code.co_name)

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            return build(*args)
        finally:
            sys.setprofile(outer)

    def recording(count, rows):
        seen.append(all(type(a) is int for ints, d in rows for a in (*ints, d)))
        return conic_solve(count, rows)

    monkeypatch.setattr(hierarchy, "_pad_columns", watched)
    monkeypatch.setattr(hierarchy, "conic_solve", recording)
    for name in ("square", "pentagon"):
        for k in (1, 2, 3):
            is_entanglement_breaking(based_cone(name), k)
    levels = [dual_hierarchy_k(*case).k for case in _dual_lp_cases().values()]
    assert seen == [True] * (6 + sum(levels))
    assert formed == []


def _gap_k2_extension():
    x, a_cone, based = ladder.case("gap-k2", "square-skew")
    verdict = ext_k_membership(x, a_cone, based, 2)
    assert verdict.member
    return x, a_cone, based, verdict.extension


def _with_entry(t, multi, value):
    ent = list(t.entries)
    ent[t.flat_index(multi)] = value
    return DenseTensor(t.slots, ent)


def test_check_extension_rejects_a_changed_entry():
    """One entry of a valid extension, on the B diagonal so that symmetry
    survives: pushed far down it leaves a max half-space; raised by one where
    phi is nonzero it no longer reduces to the point."""
    x, a_cone, based, y = _gap_k2_extension()
    _check_extension(x, a_cone, based, 2, y)
    for a in range(a_cone.dim):
        for j in range(based.cone.dim):
            old = y[a, j, j]
            far = _with_entry(y, (a, j, j), old - 10**6)
            with pytest.raises(ConsistencyError, match="half-space"):
                _check_extension(x, a_cone, based, 2, far)
            if based.phi[j]:
                up = _with_entry(y, (a, j, j), old + 1)
                with pytest.raises(ConsistencyError, match="half-space|reduce"):
                    _check_extension(x, a_cone, based, 2, up)


def test_check_extension_rejects_broken_b_symmetry():
    x, a_cone, based, y = _gap_k2_extension()
    for multi in ((0, 0, 1), (1, 2, 0)):
        bad = _with_entry(y, multi, y[multi] + 1)
        with pytest.raises(AssertionError, match="not symmetric"):
            _check_extension(x, a_cone, based, 2, bad)


def _summed_min_point(a_cone, b_cone):
    """The sum of the min-product generators: a member at every level."""
    total = [Fraction(0)] * (a_cone.dim * b_cone.dim)
    for g in min_tensor_generators(a_cone, b_cone):
        total = [s + e for s, e in zip(total, g.entries)]
    return point_tensor(a_cone, b_cone, total)


@pytest.fixture(scope="module", params=[("gap-k3", 3), ("summed-min", 4)],
                ids=["gap-k3-k3", "summed-min-k4"])
def extension_case(request):
    """A returned extension with the dense max half-spaces of its level,
    each paired with its (f, g) index tuple."""
    name, k = request.param
    a_cone, based = cone("square"), based_cone("square-skew")
    if name == "summed-min":
        x = _summed_min_point(a_cone, based.cone)
    else:
        x = point(name, a_cone, based.cone)
    verdict = ext_k_membership(x, a_cone, based, k)
    assert verdict.member
    index = itertools.product(range(len(a_cone.facets)),
                              *[range(len(based.cone.facets))] * k)
    dense = list(zip(index, max_tensor_halfspaces(a_cone, *[based.cone] * k)))
    return x, a_cone, based, k, verdict.extension, dense


def _orbit_tamper(y, a, m, delta):
    """Add delta to every entry of y at A index a and an arrangement of m."""
    ent = list(y.entries)
    for arr in set(itertools.permutations(m)):
        ent[y.flat_index((a,) + arr)] += delta
    return DenseTensor(y.slots, ent)


def test_max_halfspace_values_match_dense_pairing(extension_case):
    """The integer contraction helper yields, per A facet and sorted B-facet
    multiset, the pairing with the matching dense max half-space tensor
    times the clearing factors, also on a symmetric tensor outside the max
    product."""
    x, a_cone, based, k, y, dense = extension_case
    off = _orbit_tamper(y, 0, (2,) * k, Fraction(-10**6))
    fs, df = clear_rows(a_cone.facets)
    gs, dg = clear_rows(based.cone.facets)
    for t in (y, off):
        want = [pairing(h, t) for (_, *g), h in dense if g == sorted(g)]
        ts, dt = clear_denominators(t.entries)
        got = [Fraction(v, dt * df * dg ** k)
               for v in hierarchy._max_halfspace_ints(ts, fs, gs, k)]
        assert got == want
    assert min(want) < 0 <= min(pairing(h, y) for _, h in dense)


def _dense_accepts(x, based, k, y, dense):
    """The dense reference: invariant under every adjacent B-slot swap, every
    max half-space tensor pairs nonnegatively, and reduces to x.  The
    pairings are taken with y scaled to integers by a positive factor, which
    keeps their signs."""
    for i in range(1, k):
        perm = list(range(k + 1))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if reorder_slots(y, perm) != y:
            return False
    scale = lcm(*(e.denominator for e in y.entries))
    ints = [int(e * scale) for e in y.entries]
    return (all(sum(int(a) * b for a, b in zip(h.entries, ints) if a) >= 0
                for _, h in dense)
            and apply_reduction(y, based, k) == x)


def test_check_extension_agrees_with_the_dense_reference(extension_case):
    """Whole-orbit tampers and single-entry tampers at every arrangement of
    the orbit, small and large, up and down: ``_check_extension`` accepts
    exactly when the dense reference does."""
    x, a_cone, based, k, y, dense = extension_case
    rng = random.Random(k)
    orbits = [(a, m) for a in range(a_cone.dim)
              for m in itertools.combinations_with_replacement(range(3), k)]
    tampered = [y]
    for delta in (Fraction(1, 9), Fraction(-1, 9), Fraction(-10**6)):
        for a, m in rng.sample(orbits, 4) + [(rng.randrange(3), (2,) * k)]:
            tampered.append(_orbit_tamper(y, a, m, delta))
            tampered.extend(_with_entry(y, (a,) + arr, y[(a,) + arr] + delta)
                            for arr in sorted(set(itertools.permutations(m))))
    verdicts = []
    for t in tampered:
        try:
            _check_extension(x, a_cone, based, k, t)
            fast = True
        except ConsistencyError:
            fast = False
        assert fast == _dense_accepts(x, based, k, t, dense)
        verdicts.append(fast)
    assert verdicts[0] and not all(verdicts)


def _tamper_multipliers(monkeypatch, tamper):
    """Make ext_k_membership see its Farkas certificate changed by
    ``tamper(cert, h, h_zero)``, where h is the first nonzero and h_zero the
    first zero multiplier of a max half-space row."""
    def tampered(problem):
        out = solve(problem)
        assert out.status == INFEASIBLE
        ne = len(problem.eq_rows)
        cert = list(out.certificate)
        h = next(i for i in range(ne, len(cert)) if cert[i])
        h_zero = next(i for i in range(ne, len(cert)) if not cert[i])
        tamper(cert, h, h_zero)
        return LpOutcome(status=INFEASIBLE, certificate=tuple(cert))

    monkeypatch.setattr(hierarchy, "solve", tampered)


def _scale(cert, h, _):
    cert[h] *= 2


def _move(cert, h, h_zero):
    cert[h_zero], cert[h] = cert[h], 0


def _negate(cert, h, _):
    cert[h] = -cert[h]


def _zero_all(cert, h, _):
    cert[h:] = [0] * (len(cert) - h)


def _negate_all(cert, h, _):
    cert[h:] = [-c for c in cert[h:]]


def _negate_eq(cert, h, _):
    # flips zeta, which then fails to separate
    cert[:h] = [-c for c in cert[:h]]


WITNESS_CASES = [("box", "square", 2), ("gap-k2", "square-skew", 3)]


@pytest.mark.parametrize("point,b_name,k", WITNESS_CASES)
def test_witness_resum_accepts_the_true_multipliers(monkeypatch, point, b_name, k):
    _tamper_multipliers(monkeypatch, lambda cert, h, h_zero: None)
    x, a_cone, based = ladder.case(point, b_name)
    assert not ext_k_membership(x, a_cone, based, k).member


@pytest.mark.parametrize("tamper", [_scale, _move, _negate, _zero_all,
                                    _negate_all, _negate_eq])
@pytest.mark.parametrize("point,b_name,k", WITNESS_CASES)
def test_witness_resum_rejects_tampered_multipliers(monkeypatch, point, b_name,
                                                    k, tamper):
    _tamper_multipliers(monkeypatch, tamper)
    x, a_cone, based = ladder.case(point, b_name)
    with pytest.raises(ConsistencyError,
                       match="re-sum|negative weight|does not separate"):
        ext_k_membership(x, a_cone, based, k)


# -- entanglement breaking --------------------------------------------------

def test_eb_table_matches_factor_structure():
    for name, level in EB_LEVELS.items():
        based = based_cone(name)
        for k in (1, 2, 3):
            out = is_entanglement_breaking(based, k)
            assert out.breaking == (level is not None and k >= level), (name, k)


def test_eb_square_decomposition_resums():
    based = based_cone("square")
    out = is_entanglement_breaking(based, 2)
    assert out.breaking
    assert len(out.terms) == 4
    duals = [from_vector(f[1:], DUAL) for f in based.base.functionals]
    verts = [from_vector(v) for v in based.base.vertices]
    total = None
    for term in out.terms:
        assert term.weight == Fraction(1, 4)
        assert frozenset(term.facet_indices) == based.base.avoiding_set(term.vertex_index)
        pair = symmetric_project(kron(*(duals[j] for j in term.facet_indices)))
        t = kron(pair, verts[term.vertex_index]).scale(term.weight)
        total = t if total is None else total + t
    assert total == reduction_map(based, 2)


def test_eb_refutation_separates():
    """On every non-breaking corpus case at k = 1..3, the refutation h, read
    at ``_pad_columns``' indices (m, o), is negative on the dense reduction
    tensor and nonnegative on every admissible generator
    Sym(psi_combo) ox vertex_v, both built densely and read at (*m, o)."""
    cases = 0
    for name, level in EB_LEVELS.items():
        based = based_cone(name)
        n = based.cone.dim
        psis = [from_vector(f, DUAL) for f in based.cone.facets]
        for k in (1, 2, 3):
            if level is not None and k >= level:
                continue
            out = is_entanglement_breaking(based, k)
            assert not out.breaking
            reps = [m + (o,) for m in _sorted_reps(n, k) for o in range(n)]
            h = out.refutation
            assert len(h) == len(reps)

            def value(t):
                return sum(c * t[r] for c, r in zip(h, reps))

            assert value(reduction_map(based, k)) < 0, (name, k)
            for combo, v in _admissible_multisets(based, k):
                column = kron(symmetric_project(kron(*(psis[j] for j in combo))),
                              from_vector(based.base.vertices[v]))
                assert value(column) >= 0, (name, k, combo, v)
            cases += 1
    assert cases == 16


def test_eb_routes_that_disagree_are_refused(monkeypatch):
    """With the square's base no longer read as a product of simplices, the
    combinatorial route says not breaking at k = 2 while the LP decomposes
    the reduction tensor, and the disagreement raises."""
    monkeypatch.setattr(hierarchy, "SimplexFactorization", type("Other", (), {}))
    with pytest.raises(ConsistencyError, match="routes disagree at k=2"):
        is_entanglement_breaking(based_cone("square"), 2)


def _tamper_weights(monkeypatch, tamper):
    """Make the hierarchy see the weights of every member outcome of
    ``conic_solve`` changed by ``tamper(weights, h, h_zero)``, where h is
    the first nonzero and h_zero the first zero weight."""
    def tampered(count, rows):
        out = conic_solve(count, rows)
        if not out.member:
            return out
        weights = list(out.weights)
        h = next(i for i, w in enumerate(weights) if w)
        h_zero = next(i for i, w in enumerate(weights) if not w)
        tamper(weights, h, h_zero)
        return ConicOutcome(member=True, weights=tuple(weights))

    monkeypatch.setattr(hierarchy, "conic_solve", tampered)


# breaking decompositions with zero weights, so that a weight can move
EB_TAMPER_CASES = [("square", 3), ("prism", 3)]


@pytest.mark.parametrize("name,k", EB_TAMPER_CASES)
def test_eb_resum_accepts_the_true_weights(monkeypatch, name, k):
    _tamper_weights(monkeypatch, lambda weights, h, h_zero: None)
    assert is_entanglement_breaking(based_cone(name), k).breaking


@pytest.mark.parametrize("tamper", [_scale, _move, _negate])
@pytest.mark.parametrize("name,k", EB_TAMPER_CASES)
def test_eb_resum_rejects_tampered_weights(monkeypatch, name, k, tamper):
    _tamper_weights(monkeypatch, tamper)
    with pytest.raises(ConsistencyError, match="re-sum|negative weight"):
        is_entanglement_breaking(based_cone(name), k)


def test_pad_resum_rejects_a_negative_weight_that_resums():
    """A decomposition with one pair repeated: splitting its weight w as
    w/2 + w/2 re-sums and passes, and 2w - w re-sums just as exactly but
    fails on the sign alone."""
    based = based_cone("square")
    n, k = based.cone.dim, 2
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    psis = [f[1:] for f in based.base.functionals]
    multis = _admissible_multisets(based, k)
    data = (units, based.phi, based.base.vertices, psis)
    weights = list(conic_solve(len(multis), _pad_columns(*data, multis, k)).weights)
    h = next(i for i, w in enumerate(weights) if w)
    pairs = multis + [multis[h]]
    w = weights[h]
    split = weights[:h] + [w / 2] + weights[h + 1:] + [w / 2]
    signed = weights[:h] + [2 * w] + weights[h + 1:] + [-w]
    _check_pad(*data, pairs, k, split)
    with pytest.raises(ConsistencyError, match="has a negative weight"):
        _check_pad(*data, pairs, k, signed)


def _accepted_resums(monkeypatch):
    """The arguments of every accepting ``_check_pad`` call, each as
    (rows, pad, heads, tails, pairs, k, weights), made with the square cone
    based at phi = (2, 0, 0): by the dual hierarchy search on box-interior
    / 3, whose rows and pad are not integral, and by EB at k = 2, whose
    heads (the base vertices) are not; then by EB on cube and by the square
    x square refutation of box at k = 2."""
    calls = []
    judge = hierarchy._check_pad

    def recording(*args):
        judge(*args)
        calls.append(args)

    monkeypatch.setattr(hierarchy, "_check_pad", recording)
    sq = based_cone("square")
    x = point("box-interior", sq.cone, sq.cone).scale(Fraction(1, 3))
    halved = make_based(sq.cone, (2, 0, 0))
    assert dual_hierarchy_k(x, sq.cone, halved).k == 2
    assert is_entanglement_breaking(halved, 2).breaking
    is_entanglement_breaking(based_cone("cube"), 3)
    ext_k_membership(*ladder.case("box", "square"), 2)
    monkeypatch.undo()
    return calls


def _moved(vectors, i, j):
    """The vectors with entry j of vector i moved by 1/7."""
    out = [list(v) for v in vectors]
    out[i][j] += Fraction(1, 7)
    return out


def test_pad_resum_rejects_a_moved_pad_head_or_row(monkeypatch):
    """Each accepted decomposition, at k >= 2 so that the pad counts, is
    refused once one pad entry, one coordinate of a head that carries
    weight, or one row entry is moved by 1/7.  With every tail halved and
    every weight times 2^k it is accepted again."""
    calls = [c for c in _accepted_resums(monkeypatch) if c[5] >= 2]
    assert len(calls) == 4
    def off_lattice(vectors):
        return any(Fraction(e).denominator > 1 for v in vectors for e in v)

    assert any(off_lattice([pad]) for _, pad, *_ in calls)
    assert any(off_lattice(rows) for rows, *_ in calls)
    assert any(off_lattice(heads) for _, _, heads, *_ in calls)
    def refused(*args):
        with pytest.raises(ConsistencyError, match="does not re-sum"):
            _check_pad(*args)

    for rows, pad, heads, tails, pairs, k, weights in calls:
        halves = [[Fraction(e, 2) for e in v] for v in tails]
        _check_pad(rows, pad, heads, halves, pairs, k,
                   [w * 2 ** k for w in weights])
        h = next(h for w, (_, h) in zip(weights, pairs) if w)
        for j in range(len(pad)):
            refused(rows, _moved([pad], 0, j)[0], heads, tails, pairs, k,
                    weights)
        for o in range(len(heads[h])):
            refused(rows, pad, _moved(heads, h, o), tails, pairs, k, weights)
        for o, j in itertools.product(range(len(rows)), range(len(pad))):
            refused(_moved(rows, o, j), pad, heads, tails, pairs, k, weights)


def _ordered_count(based, k):
    """Ordered admissible facet k-tuples: the arrangements of each
    admissible multiset."""
    return sum(_arrangements(combo) for combo, _ in _admissible_multisets(based, k))


def test_admissible_tuple_counts():
    assert _ordered_count(based_cone("square"), 2) == 8
    assert _ordered_count(based_cone("square"), 1) == 0
    assert _ordered_count(based_cone("triangle"), 1) == 3
    assert _ordered_count(based_cone("pentagon"), 2) == 0


def test_admissible_tuples_cover_avoiding_sets():
    """The admissible multisets are exactly the sorted facet k-tuples that
    cover the avoiding set of their vertex."""
    for name in ("square", "prism", "cube"):
        based = based_cone(name)
        nf = len(based.base.functionals)
        for k in (2, 3):
            multis = _admissible_multisets(based, k)
            expected = {(tuple(sorted(combo)), v)
                        for v in range(len(based.base.vertices))
                        for combo in itertools.product(range(nf), repeat=k)
                        if based.base.avoiding_set(v) <= set(combo)}
            assert set(multis) == expected and len(multis) == len(expected)


# -- the vertex-facet tensor ------------------------------------------------

def test_vertex_facet_tensor_annihilates_reduction():
    for name in cone_names():
        based = based_cone(name)
        for k in (1, 2, 3):
            omega = vertex_facet_tensor(based, k)
            assert pairing(reduction_map(based, k), omega) == 0


def test_reduction_pairing_scalar_equals_the_dense_pairing():
    """The scalar sum_f psi_f(x_f) phi(x_f)^(k-1) equals the dense pairing
    of the reduction tensor with sum_f x_f^{ox k} ox psi_f, at the facet
    centroids (where both vanish) and at seeded points (where they need
    not), for every fixture at k = 1..3."""
    rng = random.Random(61)
    nonzero = 0
    for name in cone_names():
        based = based_cone(name)
        psis = [f[1:] for f in based.base.functionals]
        n = based.cone.dim
        for k in (1, 2, 3):
            gamma = reduction_map(based, k)
            seeded = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                      for _ in psis]
            for points in (_facet_centroids(based.base), seeded):
                dense = None
                for x, psi in zip(points, psis):
                    term = kron(*([from_vector(x)] * k), from_vector(psi, DUAL))
                    dense = term if dense is None else dense + term
                scalar = _reduction_pairing(based.phi, points, psis, k)
                assert scalar == pairing(gamma, dense), (name, k)
                nonzero += scalar != 0
    assert nonzero >= 25


def test_vertex_facet_tensor_refuses_points_off_the_identity(monkeypatch):
    """Facet points that break the orthogonality raise ConsistencyError."""
    based = based_cone("square")
    moved = [[a + Fraction(1, 7) for a in c] for c in _facet_centroids(based.base)]
    monkeypatch.setattr(dense_reference, "_facet_centroids", lambda base: moved)
    with pytest.raises(ConsistencyError, match="not orthogonal"):
        vertex_facet_tensor(based, 2)


def test_omega_pairing_vanishes_exactly_on_admissible_tuples():
    for name, k in (("square", 1), ("square", 2), ("triangle", 1), ("triangle", 2)):
        based = based_cone(name)
        omega = vertex_facet_tensor(based, k)
        admissible = {(order, v) for facets, v in _admissible_multisets(based, k)
                      for order in itertools.permutations(facets)}
        duals = [from_vector(f[1:], DUAL) for f in based.base.functionals]
        verts = [from_vector(v) for v in based.base.vertices]
        nf = len(duals)
        for combo in itertools.product(range(nf), repeat=k):
            for vi in range(len(verts)):
                probe = kron(*(duals[j] for j in combo), verts[vi])
                val = pairing(probe, omega)
                if (combo, vi) in admissible:
                    assert val == 0
                else:
                    assert val > 0


def test_omega_interior_flip_table():
    expected = {
        "triangle": {1: False, 2: False, 3: False},
        "orthant3": {1: False, 2: False, 3: False},
        "square": {1: True, 2: False, 3: False},
        "square-skew": {1: True, 2: False, 3: False},
        "quad": {1: True, 2: False, 3: False},
        "prism": {1: True, 2: False, 3: False},
        "cube": {1: True, 2: True, 3: False},
        "pentagon": {1: True, 2: True, 3: False},
        "octahedron": {1: True, 2: True, 3: True},
    }
    for name, by_level in expected.items():
        based = based_cone(name)
        for k, want in by_level.items():
            assert omega_interior_test(based, k) == want, (name, k)


def _omega_by_fractions(based, k):
    """The strict side of the interior test in Fractions, as written before
    the test ran on ints: sum_f psi_f(r) prod_(a in combo) psi_a(cent_f) > 0
    for every facet multiset and every ray."""
    facets, rays = based.cone.facets, based.cone.rays
    cents = _facet_centroids(based.base)
    psi_at_cent = [[dot(psi, c) for c in cents] for psi in facets]
    psi_at_ray = [[dot(psi, r) for r in rays] for psi in facets]
    for combo in itertools.combinations_with_replacement(range(len(facets)), k):
        for ri in range(len(rays)):
            val = Fraction(0)
            for f in range(len(facets)):
                prod = psi_at_ray[f][ri]
                for a in combo:
                    prod *= psi_at_cent[a][f]
                val += prod
            if val <= 0:
                return False
    return True


def test_omega_interior_test_matches_the_fraction_formula():
    for name in cone_names():
        based = based_cone(name)
        for k in (1, 2, 3, 4):
            want = _omega_by_fractions(based, k)
            assert omega_interior_test(based, k) == want, (name, k)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data())
def test_omega_interior_test_law_on_random_cones(data):
    """On the cone over 4 to 6 lattice points of [-2, 2]^(n-1) at height 1,
    n = 3 or 4, spanning it, with phi = (7, a, ..), a in {-1, 0, 1}: the
    integer test agrees with the Fraction formula, and its two sides agree,
    at k = 1..3."""
    n = data.draw(st.integers(3, 4))
    grid = list(itertools.product(range(-2, 3), repeat=n - 1))
    size = data.draw(st.integers(4, 6))
    pts = [(1, *p) for p in data.draw(st.permutations(grid))[:size]]
    assume(rank(pts) == n)
    phi = (7, *(data.draw(st.integers(-1, 1)) for _ in range(n - 1)))
    based = make_based(make_cone(pts), phi)
    verdicts = [omega_interior_test(based, k) for k in (1, 2, 3)]
    event(f"n={n} interior at k=1..3: {verdicts}")
    assert verdicts == [_omega_by_fractions(based, k) for k in (1, 2, 3)]


@pytest.mark.parametrize("name,k,at", [("square", 1, "vertex"), ("square", 2, "interior"),
                                       ("cube", 3, "interior")])
def test_omega_interior_test_refuses_a_flipped_strict_side(monkeypatch, name, k, at):
    """Every facet centroid moved to one vertex zeroes each term with a facet
    through it, so a True strict side turns False; moved to the average of
    the vertices, every term is positive, so a False one turns True.  The
    avoidance side stays, and the two disagree."""
    based = based_cone(name)
    verts = based.base.vertices
    moved = verts[0] if at == "vertex" else [sum(c) / len(verts) for c in zip(*verts)]
    assert omega_interior_test(based, k) == (at == "vertex")
    monkeypatch.setattr(hierarchy, "_facet_centroids",
                        lambda base: [moved] * len(base.functionals))
    with pytest.raises(ConsistencyError, match="interior test sides disagree"):
        omega_interior_test(based, k)


# -- the dual hierarchy -----------------------------------------------------

def test_dual_hierarchy_simplicial_pair_is_level_one():
    rng = random.Random(47)
    a = cone("orthant2")
    based = based_cone("orthant3")
    for _ in range(5):
        entries = [Fraction(rng.randint(1, 6), rng.randint(1, 2)) for _ in range(6)]
        x = point_tensor(a, based.cone, entries)
        res = dual_hierarchy_k(x, a, based)
        assert res is not None and res.k == 1


def test_dual_hierarchy_square_pair_needs_level_two():
    sq = cone("square")
    based = based_cone("square")
    x = point("box-interior", sq, sq)
    res = dual_hierarchy_k(x, sq, based)
    assert res is not None
    assert res.k == 2
    # rebuild the padded symmetrized point from the returned decomposition
    y = interior_scaled = None
    total = None
    for w, (ai, bjs) in zip(res.weights, res.generators):
        assert w >= 0
        g = kron(from_vector(sq.rays[ai]), *(from_vector(sq.rays[j]) for j in bjs))
        g = symmetric_project(g, (1, 2))
        g = g.scale(w)
        total = g if total is None else total + g
    from coneext.cones import interior_point
    ip = interior_point(based.cone)
    yvec = tuple(Fraction(c, dot(based.phi, ip)) for c in ip)
    padded = symmetric_project(kron(x, from_vector(yvec)), (1, 2))
    assert total == padded


def test_dual_hierarchy_gives_none_past_k_max():
    sq = cone("square")
    x = point("box-interior", sq, sq)
    assert dual_hierarchy_k(x, sq, based_cone("square"), k_max=1) is None


def test_dual_hierarchy_refuses_k_max_below_one():
    """Refused before any work: the point is not even interior."""
    sq = cone("square")
    box = point("box", sq, sq)
    for k_max in (0, -1):
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            dual_hierarchy_k(box, sq, based_cone("square"), k_max=k_max)


def test_dual_hierarchy_refuses_a_point_of_the_wrong_shape():
    """The entries of an interior point of cube ox square on B ox A slots, or
    on dual slots, are refused as ``ext_k_membership`` refuses them."""
    a_cone, based = cone("cube"), based_cone("square")
    nA, nB = a_cone.dim, based.cone.dim
    entries = kron(from_vector(interior_point(a_cone)),
                   from_vector(interior_point(based.cone))).entries
    x = point_tensor(a_cone, based.cone, entries)
    assert dual_hierarchy_k(x, a_cone, based).k == 1
    for slots in ((Slot(nB, PRIMAL), Slot(nA, PRIMAL)),
                  (Slot(nA, DUAL), Slot(nB, DUAL))):
        bad = DenseTensor(slots, entries)
        with pytest.raises(ValueError, match="wrong shape"):
            dual_hierarchy_k(bad, a_cone, based)
        with pytest.raises(ValueError, match="wrong shape"):
            ext_k_membership(bad, a_cone, based, 1)


def test_dual_hierarchy_requires_interior_point():
    sq = cone("square")
    based = based_cone("square")
    box = point("box", sq, sq)
    with pytest.raises(ValueError):
        dual_hierarchy_k(box, sq, based)


def test_dual_hierarchy_resum_accepts_the_true_weights(monkeypatch):
    _tamper_weights(monkeypatch, lambda weights, h, h_zero: None)
    sq = cone("square")
    x = point("box-interior", sq, sq)
    assert dual_hierarchy_k(x, sq, based_cone("square")).k == 2


@pytest.mark.parametrize("tamper", [_scale, _move, _negate])
def test_dual_hierarchy_resum_rejects_tampered_weights(monkeypatch, tamper):
    _tamper_weights(monkeypatch, tamper)
    sq = cone("square")
    x = point("box-interior", sq, sq)
    with pytest.raises(ConsistencyError, match="re-sum|negative weight"):
        dual_hierarchy_k(x, sq, based_cone("square"))


# -- symmetric-power coordinates against the dense definitions --------------

CLOSED_FORM_PAIRS = [(a, b) for a in ("square", "triangle") for b in cone_names()]


def _form(t):
    """The degree-k form x -> t(x, .., x) of a k-slot tensor, as a function
    of the point x."""
    multis = itertools.product(*(range(s.dim) for s in t.slots))
    support = [(multi, e) for multi, e in zip(multis, t.entries) if e]

    def at(x):
        total = 0
        for multi, e in support:
            for j in multi:
                e *= x[j]
            total += e
        return total
    return at


def test_lattice_is_unisolvent():
    """For n <= 4 and k <= 5 the lattice has C(n+k-1, k) distinct points of
    N^n with |t| = k; the monomials of degree k are independent on it, and
    the form of every symmetric basis element, and of a random nonzero
    symmetrized tensor, is nonzero at some point."""
    rng = random.Random(59)
    for n in range(1, 5):
        for k in range(1, 6):
            points = list(hierarchy._lattice(n, k))
            assert len(points) == len(set(points)) == comb(n + k - 1, k)
            assert all(len(t) == n and min(t) >= 0 and sum(t) == k for t in points)
            forms = [_form(s) for s in sym_basis(n, k)]
            assert rank([[form(t) for t in points] for form in forms]) == len(points)
            sym = DenseTensor((Slot(n, PRIMAL),) * k, [Fraction(0)] * n ** k)
            while not any(sym.entries):
                ent = list(sym.entries)
                for _ in range(3):
                    ent[rng.randrange(len(ent))] = Fraction(rng.randint(-4, 4),
                                                            rng.randint(1, 3))
                sym = symmetric_project(DenseTensor(sym.slots, ent))
            for form in forms + [_form(sym)]:
                assert any(form(t) != 0 for t in points), (n, k)


def test_forms_agree_sees_every_monomial():
    """(t_1 + .. + t_n)^k expanded over the degree-k monomials, each the
    product of k coordinate forms with its multinomial coefficient as the
    weight of a pair with the one head (1), agrees with the target; a weight
    off by one, at any monomial, does not."""
    for n in (1, 2, 3, 4):
        units = [[int(i == j) for j in range(n)] for i in range(n)]
        ones = [1] * n
        for k in (1, 2, 3, 4):
            pairs = [(m, 0) for m in _sorted_reps(n, k)]
            weights = [_arrangements(m) for m, _ in pairs]
            data = ([ones], ones, [[1]], units, pairs, k)
            _check_pad(*data, weights)
            for i, (m, _) in enumerate(pairs):
                off = weights[:i] + [weights[i] + 1] + weights[i + 1:]
                with pytest.raises(ConsistencyError, match="does not re-sum"):
                    _check_pad(*data, off)


def _sorted_reps(n, k):
    return list(itertools.combinations_with_replacement(range(n), k))


def _read_back(rows):
    """The Fraction coefficients ints[:-1] / d of cleared rows (ints, d),
    each checked to be its row and rhs cleared by ``clear_denominators``."""
    out = []
    for ints, d in rows:
        row = tuple(Fraction(a, d) for a in ints)
        cleared, lcd = clear_denominators(row)
        assert (ints, d) == (tuple(cleared), lcd)
        out.append(row[:-1])
    return out


def _conic_data(count, rows):
    """(target, generators) of the rows that ``conic_solve`` takes, read back
    as Fractions: the rhs of each row, and column g of the rows for each
    generator g < count."""
    return (tuple(Fraction(ints[-1], d) for ints, d in rows),
            [tuple(Fraction(ints[g], d) for ints, d in rows) for g in range(count)])


@pytest.mark.parametrize("a_name,b_name", CLOSED_FORM_PAIRS)
def test_ext_k_rows_match_dense_pairing(a_name, b_name):
    """Ge rows against pairing(h, e_a ox sym_basis[m]), eq rows against the
    dense reduction of each column, both read back from the cleared rows as
    ints[:-1] / d; the ge rhs is 0 and the eq rhs the point's entry.  At
    k = 3 the ge rows use the factored dense pairing
    f[a] * pairing(g_1 ox .. ox g_k, sym_basis[m]), which keeps the test
    quick."""
    rng = random.Random(59)
    a_cone = based_cone(a_name).cone
    based = based_cone(b_name)
    nA, nB = a_cone.dim, based.cone.dim
    x = point_tensor(a_cone, based.cone,
                     [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(nA * nB)])
    for k in (1, 2, 3):
        ge_rows, eq_rows = _ext_k_rows(x, a_cone, based,
                                       _ext_k_pairs(a_cone, based, k))
        assert all(ints[-1] == 0 for ints, _ in ge_rows)
        assert [Fraction(ints[-1], d) for ints, d in eq_rows] == list(x.entries)
        ge, eq = _read_back(ge_rows), _read_back(eq_rows)
        sym = sym_basis(nB, k)
        cols = [kron(from_vector([int(i == a) for i in range(nA)]), s)
                for a in range(nA) for s in sym]
        b_parts = [kron(*(from_vector(g, DUAL) for g in combo))
                   for combo in itertools.combinations_with_replacement(
                       based.cone.facets, k)]
        assert len(ge) == len(a_cone.facets) * len(b_parts)
        rows = iter(ge)
        if k < 3:
            for f in a_cone.facets:
                for g in b_parts:
                    h = kron(from_vector(f, DUAL), g)
                    assert next(rows) == tuple(pairing(h, c) for c in cols)
        else:
            b_rows = [[pairing(g, s) for s in sym] for g in b_parts]
            for f in a_cone.facets:
                for b_row in b_rows:
                    assert next(rows) == tuple(fa * v for fa in f for v in b_row)
        reduced = [apply_reduction(c, based, k) for c in cols]
        assert eq == [tuple(rc[i, j] for rc in reduced)
                      for i in range(nA) for j in range(nB)]


@pytest.mark.parametrize("name", cone_names())
def test_eb_columns_match_dense_tensors(name):
    """The pad columns with the identity as rows: Gamma against the dense
    reduction tensor, and the generator of every facet multiset (paired with
    the vertices in turn) against the dense Sym(psi_combo) ox vertex, both
    read at the sorted indices."""
    based = based_cone(name)
    n = based.cone.dim
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    psis = [from_vector(f[1:], DUAL) for f in based.base.functionals]
    for k in (1, 2, 3):
        reps = [js + (i,) for js in _sorted_reps(n, k) for i in range(n)]
        nv = len(based.base.vertices)
        multis = [(combo, i % nv) for i, combo in
                  enumerate(_sorted_reps(len(based.base.functionals), k))]
        gamma, gens = _conic_data(len(multis), _pad_columns(
            units, based.phi, based.base.vertices,
            [f[1:] for f in based.base.functionals], multis, k))
        dense = reduction_map(based, k)
        assert gamma == tuple(dense[r] for r in reps)
        assert len(gens) == len(multis)
        for (combo, v), g in zip(multis, gens):
            dense = kron(symmetric_project(kron(*(psis[j] for j in combo))),
                         from_vector(based.base.vertices[v]))
            assert g == tuple(dense[r] for r in reps)


@pytest.mark.parametrize("a_name,b_name", CLOSED_FORM_PAIRS)
def test_dual_columns_match_dense_symmetrization(a_name, b_name):
    """The pad columns with the rows of x: the target against
    symmetric_project(x ox y ox .. ox y), each generator against ray_a[a]
    times the dense symmetrization of its B rays, read at (m, a)."""
    rng = random.Random(53)
    a_cone = based_cone(a_name).cone
    based = based_cone(b_name)
    nA, nB = a_cone.dim, based.cone.dim
    x = point_tensor(a_cone, based.cone,
                     [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(nA * nB)])
    xs = [x.entries[a * nB:(a + 1) * nB] for a in range(nA)]
    y = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nB))
    for k in (1, 2, 3):
        slots = tuple(range(1, k + 1))
        reps = [(a,) + js for js in _sorted_reps(nB, k) for a in range(nA)]
        pairs = [(combo, ia) for ia in range(len(a_cone.rays))
                 for combo in _sorted_reps(len(based.cone.rays), k)]
        z, gens = _conic_data(len(pairs), _pad_columns(
            xs, y, a_cone.rays, based.cone.rays, pairs, k))
        dense = symmetric_project(kron(x, *([from_vector(y)] * (k - 1))), slots)
        assert z == tuple(dense[r] for r in reps)
        assert len(gens) == len(pairs)
        sym_rays = {}
        for (combo, ia), g in zip(pairs, gens):
            if combo not in sym_rays:
                sym_rays[combo] = symmetric_project(
                    kron(*(from_vector(based.cone.rays[j]) for j in combo)))
            ray, dense = a_cone.rays[ia], sym_rays[combo]
            assert g == tuple(ray[r[0]] * dense[r[1:]] for r in reps)


def _sym_tables(pad, tails, combos, k):
    """The reduction table and Sym(tails_combo) for each combo as Fractions,
    both at the sorted k-multisets of [len(pad)]: the ints of
    ``_sym_pad_ints`` with the unit rows, read by multiset, and of
    ``_sym_head_ints`` with the one head [1], each over its denominator."""
    multisets = _sorted_reps(len(pad), k)
    pairs = [(combo, 0) for combo in combos]
    ints, den = hierarchy._sym_head_ints([[1]], tails, pairs, multisets)
    syms = {combo: [Fraction(v, den) for v in t[0]]
            for (combo, _), t in zip(pairs, ints)}
    n = len(pad)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    red, red_den = hierarchy._sym_pad_ints(units, pad, multisets)
    return [[Fraction(v, red_den) for v in row] for row in zip(*red)], syms


def test_sym_tables_match_dense_tensors_off_the_lattice():
    """``_sym_head_ints`` and ``_sym_pad_ints`` clear the pad and the
    tails to ints; with entries of unequal denominators, each int over its
    denominator (``_sym_tables``) still equals the dense
    symmetrization, and the reduction table the dense reduction of the pad,
    at every sorted multiset."""
    rng = random.Random(67)
    n = 3
    tails = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(4)]
    pad = [Fraction(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(n)]
    ident = DenseTensor((Slot(n, DUAL), Slot(n, PRIMAL)),
                        [Fraction(int(i == j)) for i in range(n) for j in range(n)])
    for k in (1, 2, 3):
        combos = _sorted_reps(len(tails), k)
        red, syms = _sym_tables(pad, tails, combos, k)
        gamma = symmetric_project(kron(*([from_vector(pad, DUAL)] * (k - 1)), ident),
                                  range(k))
        for m, red_m in zip(_sorted_reps(n, k), red):
            assert red_m == [gamma[(*m, j)] for j in range(n)]
        for combo in combos:
            dense = symmetric_project(kron(*(from_vector(tails[j]) for j in combo)))
            assert syms[combo] == [dense[m] for m in _sorted_reps(n, k)], combo


# sha256 of repr(target, generators) of the entanglement-breaking LPs at
# k = 1, 2, 3, captured from the EB-only builder that preceded
# ``_pad_columns``; the shared builder must leave every entry and its order
# alone, so the eb-check bytes cannot move.  Both are read back from the
# rows that reach ``conic_solve`` (``_conic_data``).
EB_LP_PINS = {
    "cube": "7f07b6a44a18d400d24e579c73634b10f9d5f1026d485c8fd7b4dc3ce2b28028",
    "octahedron": "07b9e73e038ec228e37ebbd4579a5f430c0b7cbe53ccbb47ef9c0f602755fac9",
    "orthant2": "c75ace4743d91c0710f92ce5209dec6ff07f6ef474c0823eb1e1106839bd32f7",
    "orthant3": "01ee1baa0e2d01d2a2c192c7b97dbe14963152b4a6804c758cd1a70ef407fcba",
    "pentagon": "b375ca9dc75b38dfee2bb27235f830b163b657ef2bae141dbb6effd2cb41952d",
    "prism": "0299bd24d826d9595027910aea0fc9ca1f7543ab5fc64763cc5dfd3026336810",
    "quad": "1dd0f1b265ab9faccfa95163fbebd09ffb55aa60c20a48e199f43f2c77a118f4",
    "square-skew": "f80b325bd1bf7d6425c0904e4e2326d442b1044e9a98937c6a01281156f03e1e",
    "square": "8251f7974c93c0161708044bf4ad5dc0ce7ed13afee5433349bca089356d467c",
    "triangle": "ddd2bb9ccb2413edbb9b10d7d638f32688bd66050332bc29e732cabbad352774",
}


@pytest.mark.parametrize("name", cone_names())
def test_eb_lp_data_is_pinned(monkeypatch, name):
    reps = []

    def recording(count, rows):
        target, generators = _conic_data(count, rows)
        reps.append(repr((vec(target), [vec(g) for g in generators])))
        return conic_solve(count, rows)

    monkeypatch.setattr(hierarchy, "conic_solve", recording)
    based = based_cone(name)
    for k in (1, 2, 3):
        is_entanglement_breaking(based, k)
    assert len(reps) == 3
    assert hashlib.sha256("".join(reps).encode()).hexdigest() == EB_LP_PINS[name]


def _dual_lp_cases():
    """The dual hierarchy calls behind ``DUAL_LP_PINS``: box-interior on
    square x square (k = 1 non-member, k = 2 member) and the first seeded
    point of ``test_dual_hierarchy_simplicial_pair_is_level_one``."""
    sq = cone("square")
    a = cone("orthant2")
    rng = random.Random(47)
    entries = [Fraction(rng.randint(1, 6), rng.randint(1, 2)) for _ in range(6)]
    return {
        "box-interior": (point("box-interior", sq, sq), sq,
                         based_cone("square")),
        "orthant2-orthant3": (point_tensor(a, cone("orthant3"), entries), a,
                              based_cone("orthant3")),
    }


# sha256 of repr(target, generators) of every LP that ``dual_hierarchy_k``
# solves on the ``_dual_lp_cases`` points, joined in call order, captured
# before the pad LPs were routed through ``_pad_decompose``.
DUAL_LP_PINS = {
    "box-interior": "01f080d8a1cbad03b9b60e98fc58f896edcdcb8abeb6321f79f8e1a43d9cc96a",
    "orthant2-orthant3": "b4794c3878c0effaec0788001eed621c4f5d9e98a61dfc95b052ce4c356c7a75",
}


@pytest.mark.parametrize("case", list(DUAL_LP_PINS))
def test_dual_lp_data_is_pinned(monkeypatch, case):
    reps = []

    def recording(count, rows):
        target, generators = _conic_data(count, rows)
        reps.append(repr((vec(target), [vec(g) for g in generators])))
        return conic_solve(count, rows)

    monkeypatch.setattr(hierarchy, "conic_solve", recording)
    x, a_cone, based = _dual_lp_cases()[case]
    res = dual_hierarchy_k(x, a_cone, based)
    assert len(reps) == res.k
    assert hashlib.sha256("".join(reps).encode()).hexdigest() == DUAL_LP_PINS[case]


# -- the cleared rows of the pad LPs -----------------------------------------

def _fraction_columns(rows, pad, heads, tails, pairs, k):
    """(target, generators) of a pad LP by the Fraction-product formulas the
    integer tables replaced: entry (m, o) of pair (combo, h) is
    Sym(tails_combo)[m] times heads[h][o], and of the target
    Sym(rows[o] ox pad^(k-1))[m]."""
    _, syms = _sym_tables(pad, tails, {combo for combo, _ in pairs}, k)
    n = len(rows)
    pads = [(o,) + (n,) * (k - 1) for o in range(n)]
    _, sym_pads = _sym_tables(pad, [*rows, pad], pads, k)
    target = tuple(s for m in zip(*(sym_pads[p] for p in pads)) for s in m)
    return target, [tuple(s * c for s in syms[combo] for c in heads[h])
                    for combo, h in pairs]


def _pad_lp_cases():
    """The arguments of ``_pad_columns`` for the EB LP of every corpus cone,
    the dual LPs of ``_dual_lp_cases`` and seeded dual LPs on each
    ``CLOSED_FORM_PAIRS`` pair, at k = 1..3."""
    rng = random.Random(71)
    for name in cone_names():
        based = based_cone(name)
        n = based.cone.dim
        units = [[int(i == j) for j in range(n)] for i in range(n)]
        for k in (1, 2, 3):
            yield (units, based.phi, based.base.vertices, based.cone.facets,
                   _admissible_multisets(based, k), k)
    duals = [(x.entries, a_cone, based) for x, a_cone, based in _dual_lp_cases().values()]
    for a_name, b_name in CLOSED_FORM_PAIRS:
        a_cone, based = based_cone(a_name).cone, based_cone(b_name)
        entries = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                   for _ in range(a_cone.dim * based.cone.dim)]
        duals.append((entries, a_cone, based))
    for entries, a_cone, based in duals:
        nB = based.cone.dim
        xs = [entries[a * nB:(a + 1) * nB] for a in range(a_cone.dim)]
        y = interior_point(based.cone)
        y = tuple(v / dot(based.phi, y) for v in y)
        for k in (1, 2, 3):
            pairs = [(combo, ia) for ia in range(len(a_cone.rays))
                     for combo in _sorted_reps(len(based.cone.rays), k)]
            yield xs, y, a_cone.rays, based.cone.rays, pairs, k


def test_pad_rows_match_the_fraction_formula():
    """Row i of every pad LP is ``clear_denominators((*column, t))`` for
    coordinate i of the Fraction-product formulas: the generators' entries
    and the target's t, cleared to the ints and the least common
    denominator the LP is solved on."""
    cases = 0
    for args in _pad_lp_cases():
        rows = _pad_columns(*args)
        target, gens = _fraction_columns(*args)
        assert len(rows) == len(args[0]) * comb(len(args[1]) + args[-1] - 1,
                                                args[-1])
        for i, row in enumerate(rows):
            ints, d = clear_denominators([*(g[i] for g in gens), target[i]])
            assert row == (tuple(ints), d)
        cases += 1
    assert cases == 3 * (len(cone_names()) + len(DUAL_LP_PINS) + len(CLOSED_FORM_PAIRS))


def test_eb_factors_each_base_once(monkeypatch):
    """``is_entanglement_breaking`` at k = 1..3 on one base factors it once,
    through ``factor_as_simplices``, and decides with that factorization."""
    calls = []
    factor = polytopes.factor_as_simplices

    def counting(p):
        calls.append(p)
        return factor(p)

    monkeypatch.setattr(polytopes, "factor_as_simplices", counting)
    sq = based_cone("square")
    based = make_based(sq.cone, sq.phi)
    assert [is_entanglement_breaking(based, k).breaking for k in (1, 2, 3)] == [
        False, True, True]
    assert len(calls) == 1 and calls[0] is based.base


def _reachable(functions, roots):
    """The names in ``functions`` reachable from ``roots`` through the names
    each body loads, roots included."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo += [node.id for node in ast.walk(functions[name])
                 if isinstance(node, ast.Name) and node.id in functions]
    return seen


def test_judges_share_no_hierarchy_function_with_the_builders():
    """The certificate judges reach no function of ``hierarchy`` that the LP
    builders reach, so a fault in a builder's formula cannot also pass its
    judge."""
    with open(hierarchy.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    judges = _reachable(functions, ("_check_pad", "_check_extension"))
    builders = _reachable(functions, ("_ext_k_rows", "_pad_columns"))
    assert "_lattice" in judges and "_sym_head_ints" in builders
    assert judges.isdisjoint(builders), judges & builders
