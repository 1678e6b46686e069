"""Min/max tensor products, reduction maps, level-k membership, the
entanglement-breaking decision, and the dual hierarchy search."""

import itertools
import random
from fractions import Fraction

import pytest

from coneext.cones import make_based, make_cone
from coneext.fixtures import (CONE_PHIS, EB_LEVELS, based_cone, fixture_text,
                              orthant_cone, square_based, square_cone,
                              triangle_cone)
from coneext.formats import parse_point_file
from coneext.hierarchy import (_dual_columns, _eb_columns, _eb_generator,
                               _ext_k_rows, admissible_tuples, apply_reduction,
                               dual_hierarchy_k, ext_k_membership,
                               is_entanglement_breaking, max_tensor_halfspaces,
                               min_tensor_generators, point_tensor,
                               reduction_map, vertex_facet_tensor,
                               omega_interior_test)
from coneext.linalg import dot
from coneext.lp import conic_membership
from coneext.tensors import (DUAL, PRIMAL, DenseTensor, Slot, basis_vector,
                             contract_slot, from_vector, kron, pairing,
                             sym_basis, symmetric_project)


def _load_point(filename, a_cone, b_cone):
    _, dims, entries = parse_point_file(fixture_text(filename))
    assert dims == (a_cone.dim, b_cone.dim)
    return point_tensor(a_cone, b_cone, entries)


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
    sq = square_cone()
    assert len(min_tensor_generators(sq, sq)) == 16
    assert len(max_tensor_halfspaces(sq, sq, sq)) == 64
    tri = triangle_cone()
    assert len(min_tensor_generators(tri, sq, sq)) == 48


def test_pure_tensor_is_min_member():
    sq = square_cone()
    gens = [g.entries for g in min_tensor_generators(sq, sq)]
    target = kron(from_vector((1, 1, 0)), from_vector((1, 0, 1)))
    assert conic_membership(target.entries, gens).member


# -- the reduction map ------------------------------------------------------

def test_level_one_reduction_is_identity():
    for name in ("square", "triangle", "orthant3"):
        based = based_cone(name)
        n = based.cone.dim
        t = reduction_map(based, 1).tensor
        for i in range(n):
            for j in range(n):
                assert t[(i, j)] == (1 if i == j else 0)


def test_apply_reduction_level_one_is_identity():
    rng = random.Random(3)
    sq = square_cone()
    x = point_tensor(sq, sq, [rng.randint(-4, 4) for _ in range(9)])
    assert apply_reduction(x, square_based(), 1) == x


def test_defining_identity_on_base_points():
    """Pairing the level-k tensor against x_1 ox .. ox x_k ox psi returns the
    average of the psi values, for any points on the base's affine hull."""
    rng = random.Random(29)
    for name in ("square", "square-skew", "triangle", "prism"):
        based = based_cone(name)
        n = based.cone.dim
        for k in (1, 2, 3):
            gamma = reduction_map(based, k).tensor
            for _ in range(5):
                xs = [_affine_base_point(rng, based) for _ in range(k)]
                psi = tuple(rng.randint(-3, 3) for _ in range(n))
                probe = kron(*(from_vector(x) for x in xs), from_vector(psi, DUAL))
                want = sum(dot(psi, x) for x in xs) / Fraction(k)
                assert pairing(gamma, probe) == want


def test_square_level_two_averages_base_points():
    rng = random.Random(31)
    based = square_based()
    gamma = reduction_map(based, 2).tensor
    for _ in range(20):
        u = _affine_base_point(rng, based)
        v = _affine_base_point(rng, based)
        out = contract_slot(contract_slot(gamma, 0, from_vector(u)), 0, from_vector(v))
        avg = tuple((a + b) / 2 for a, b in zip(u, v))
        assert out == from_vector(avg)


def test_apply_reduction_keeps_the_a_factor():
    rng = random.Random(33)
    based = square_based()
    for _ in range(10):
        a = tuple(rng.randint(-3, 3) for _ in range(3))
        u = _affine_base_point(rng, based)
        v = _affine_base_point(rng, based)
        x = kron(from_vector(a), from_vector(u), from_vector(v))
        avg = tuple((p + q) / 2 for p, q in zip(u, v))
        assert apply_reduction(x, based, 2) == kron(from_vector(a), from_vector(avg))


def test_square_level_two_four_term_expansion():
    """The doubled level-2 tensor decomposes over vertex and avoided-facet
    pairs of the square with half-integer dual vectors."""
    based = square_based()
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
    doubled = reduction_map(based, 2).tensor.scale(Fraction(2))
    assert expansion == doubled


# -- level-k membership -----------------------------------------------------

def _in_max(x, a_cone, based, k):
    return all(pairing(h, x) >= 0
               for h in max_tensor_halfspaces(a_cone, *([based.cone] * k)))


def test_level_one_equals_max_product():
    rng = random.Random(37)
    sq = square_cone()
    based = square_based()
    box = _load_point("box.pt", sq, sq)
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
        direct = _in_max(x, sq, based, 1)
        verdict = ext_k_membership(x, sq, based, 1)
        assert verdict.member == direct
        seen[direct] += 1
    assert seen[True] > 5 and seen[False] > 5


def test_box_point_splits_max_from_min():
    sq = square_cone()
    based = square_based()
    box = _load_point("box.pt", sq, sq)
    assert _in_max(box, sq, based, 1)
    gens = [g.entries for g in min_tensor_generators(sq, sq)]
    out = conic_membership(box.entries, gens)
    assert not out.member
    assert dot(out.separating, box.entries) < 0
    assert all(dot(out.separating, g) >= 0 for g in gens)


def test_box_point_rejected_at_level_two_with_witness():
    sq = square_cone()
    based = square_based()
    box = _load_point("box.pt", sq, sq)
    verdict = ext_k_membership(box, sq, based, 2)
    assert not verdict.member
    zeta = verdict.witness
    assert pairing(zeta, box) < 0
    for g in min_tensor_generators(sq, sq):
        assert pairing(zeta, g) >= 0


def test_member_extension_certificate_chain():
    """A returned level-2 extension contracts back to the query point and a
    level-3 extension contracts to a valid level-2 extension."""
    sq = square_cone()
    skew = square_based(skew=True)
    phi = from_vector(skew.phi, DUAL)
    gap2 = _load_point("gap-k2.pt", sq, sq)
    v2 = ext_k_membership(gap2, sq, skew, 2)
    assert v2.member
    y = v2.extension
    assert contract_slot(y, 2, phi) == gap2
    assert contract_slot(y, 1, phi) == gap2

    gap3 = _load_point("gap-k3.pt", sq, sq)
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
    sq = square_cone()
    skew = square_based(skew=True)
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
    sq = square_cone()
    based = square_based()
    x = point_tensor(sq, sq, range(9))
    with pytest.raises(ValueError):
        ext_k_membership(x, sq, based, 0)
    with pytest.raises(ValueError):
        ext_k_membership(x, orthant_cone(2), based, 1)


# -- entanglement breaking --------------------------------------------------

def test_eb_table_matches_factor_structure():
    for name, level in EB_LEVELS.items():
        based = based_cone(name)
        for k in (1, 2, 3):
            out = is_entanglement_breaking(based, k)
            assert out.breaking == (level is not None and k >= level), (name, k)


def test_eb_square_decomposition_resums():
    based = square_based()
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
    assert total == reduction_map(based, 2).tensor


def test_eb_refutation_separates():
    skew = square_based(skew=True)
    out = is_entanglement_breaking(skew, 2)
    assert not out.breaking
    assert out.refutation is not None


def test_admissible_tuple_counts():
    assert len(admissible_tuples(square_based(), 2)) == 8
    assert len(admissible_tuples(square_based(), 1)) == 0
    assert len(admissible_tuples(based_cone("triangle"), 1)) == 3
    assert len(admissible_tuples(based_cone("pentagon"), 2)) == 0


def test_admissible_tuples_cover_avoiding_sets():
    for name in ("square", "prism", "cube"):
        based = based_cone(name)
        for k in (2, 3):
            for facets, v in admissible_tuples(based, k):
                assert len(facets) == k
                assert based.base.avoiding_set(v) <= set(facets)


# -- the vertex-facet tensor ------------------------------------------------

def test_vertex_facet_tensor_annihilates_reduction():
    for name in CONE_PHIS:
        based = based_cone(name)
        for k in (1, 2, 3):
            omega = vertex_facet_tensor(based, k)
            assert pairing(reduction_map(based, k).tensor, omega) == 0


def test_omega_pairing_vanishes_exactly_on_admissible_tuples():
    for name, k in (("square", 1), ("square", 2), ("triangle", 1), ("triangle", 2)):
        based = based_cone(name)
        omega = vertex_facet_tensor(based, k)
        admissible = set()
        for facets, v in admissible_tuples(based, k):
            admissible.add((facets, v))
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


# -- the dual hierarchy -----------------------------------------------------

def test_dual_hierarchy_simplicial_pair_is_level_one():
    rng = random.Random(47)
    a = orthant_cone(2)
    based = based_cone("orthant3")
    for _ in range(5):
        entries = [Fraction(rng.randint(1, 6), rng.randint(1, 2)) for _ in range(6)]
        x = point_tensor(a, based.cone, entries)
        res = dual_hierarchy_k(x, a, based)
        assert res is not None and res.k == 1


def test_dual_hierarchy_square_pair_needs_level_two():
    sq = square_cone()
    based = square_based()
    x = _load_point("box-interior.pt", sq, sq)
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


def test_dual_hierarchy_requires_interior_point():
    sq = square_cone()
    based = square_based()
    box = _load_point("box.pt", sq, sq)
    with pytest.raises(ValueError):
        dual_hierarchy_k(box, sq, based)


# -- symmetric-power coordinates against the dense definitions --------------

CLOSED_FORM_PAIRS = [(a, b) for a in ("square", "triangle") for b in CONE_PHIS]


def _sorted_reps(n, k):
    return list(itertools.combinations_with_replacement(range(n), k))


@pytest.mark.parametrize("a_name,b_name", CLOSED_FORM_PAIRS)
def test_ext_k_rows_match_dense_pairing(a_name, b_name):
    """Ge rows against pairing(h, e_a ox sym_basis[m]), eq rows against the
    dense reduction of each column.  At k = 3 the ge rows use the factored
    dense pairing f[a] * pairing(g_1 ox .. ox g_k, sym_basis[m]), which
    keeps the test quick."""
    a_cone = based_cone(a_name).cone
    based = based_cone(b_name)
    nA, nB = a_cone.dim, based.cone.dim
    for k in (1, 2, 3):
        ge, eq = _ext_k_rows(a_cone, based, k)
        sym = sym_basis(nB, k)
        cols = [kron(basis_vector(nA, a), s) for a in range(nA) for s in sym]
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


@pytest.mark.parametrize("name", list(CONE_PHIS))
def test_eb_columns_match_dense_tensors(name):
    """Gamma against the dense reduction tensor, and the generator of every
    facet multiset (paired with the vertices in turn) against the dense
    ``_eb_generator``, both read at the sorted indices."""
    based = based_cone(name)
    n = based.cone.dim
    for k in (1, 2, 3):
        reps = [js + (i,) for js in _sorted_reps(n, k) for i in range(n)]
        nv = len(based.base.vertices)
        multis = [(combo, i % nv) for i, combo in
                  enumerate(_sorted_reps(len(based.base.functionals), k))]
        gamma, gens = _eb_columns(based, k, multis)
        dense = reduction_map(based, k).tensor
        assert gamma == tuple(dense[r] for r in reps)
        for (combo, v), g in zip(multis, gens):
            dense = _eb_generator(based, combo, v)
            assert g == tuple(dense[r] for r in reps)


@pytest.mark.parametrize("a_name,b_name", CLOSED_FORM_PAIRS)
def test_dual_columns_match_dense_symmetrization(a_name, b_name):
    """z against symmetric_project(x ox y ox .. ox y); each generator against
    ray_a[a] times the dense symmetrization of its B rays."""
    rng = random.Random(53)
    a_cone = based_cone(a_name).cone
    based = based_cone(b_name)
    nA, nB = a_cone.dim, based.cone.dim
    x = point_tensor(a_cone, based.cone,
                     [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(nA * nB)])
    y = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nB))
    for k in (1, 2, 3):
        slots = tuple(range(1, k + 1))
        reps = [(a,) + js for a in range(nA) for js in _sorted_reps(nB, k)]
        descs, z, gens = _dual_columns(x, a_cone, based, k, y)
        dense = symmetric_project(kron(x, *([from_vector(y)] * (k - 1))), slots)
        assert z == tuple(dense[r] for r in reps)
        assert descs == [(ia, combo) for ia in range(len(a_cone.rays))
                         for combo in _sorted_reps(len(based.cone.rays), k)]
        sym_rays = {}
        for (ia, combo), g in zip(descs, gens):
            if combo not in sym_rays:
                sym_rays[combo] = symmetric_project(
                    kron(*(from_vector(based.cone.rays[j]) for j in combo)))
            ray, dense = a_cone.rays[ia], sym_rays[combo]
            assert g == tuple(ray[r[0]] * dense[r[1:]] for r in reps)
