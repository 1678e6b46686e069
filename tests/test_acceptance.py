"""Acceptance gate.  One test per shipped guarantee, every comparison exact;
each test prints a single summary line on success."""

import itertools
import random
import time
from fractions import Fraction

from coneext.cones import ConeError, dualize, interior_point, is_simplicial, make_cone
from coneext.fixtures import (EB_LEVELS, based_cone, cone, cone_names,
                              fixture_text, polytope)
from coneext.formats import parse_point_file
from coneext.hierarchy import (apply_reduction, dual_hierarchy_k, ext_k_membership,
                               is_entanglement_breaking, min_tensor_generators,
                               omega_interior_test, point_tensor, reduction_map)
from coneext.linalg import affine_rank, dot, nullspace, primitive, rank
from coneext.linalg import solve as lin_solve
from coneext.lp import conic_membership
from coneext.polytopes import (SimplexFactorization, affine_hull_commutes,
                               factor_as_simplices, is_simple, is_two_level)
from coneext.quantum import (ETA, build_X, psd_check_exact, sym_identity_extension,
                             trace_product, verify_appendix)
from coneext.scalars import QuadScalar
from coneext.tensors import (DUAL, PRIMAL, DenseTensor, Slot, from_vector, kron,
                             pairing, reorder_slots, symmetric_project)
from dense_reference import max_tensor_halfspaces
from slices import _least_on_slice


def _entries(t):
    return tuple(t.entries)


def _resum(weights, gens, target):
    total = [Fraction(0)] * len(target)
    for w, g in zip(weights, gens):
        for j, a in enumerate(g):
            total[j] += w * a
    assert tuple(total) == tuple(target)


def test_criterion_1_square_pair_collapse():
    """Level-2 reduction sends the triple max product of the square cone
    into the pairwise min product, on 200 sampled points."""
    t0 = time.monotonic()
    sq = cone("square")
    based = based_cone("square")
    assert tuple(based.phi) == (1, 0, 0)
    halfspaces = [_entries(h) for h in max_tensor_halfspaces(sq, sq, sq)]
    sf = [sum(c) for c in zip(*sq.facets)]
    norm = _entries(kron(*([from_vector(sf, DUAL)] * 3)))
    start = _entries(kron(*([from_vector(interior_point(sq))] * 3)))
    rng = random.Random(101)
    rays = []
    seen = set()
    for _ in range(14):
        obj = tuple(Fraction(rng.randint(-9, 9)) for _ in range(27))
        z = _least_on_slice(obj, halfspaces, norm, start)
        assert any(v != 0 for v in z)
        assert all(dot(h, z) >= 0 for h in halfspaces)
        tight = [h for h in halfspaces if dot(h, z) == 0]
        assert rank(tight) == 26  # an extreme ray, not just a feasible point
        key = primitive(z)
        if key not in seen:
            seen.add(key)
            rays.append(z)
    assert len(rays) >= 6
    gens = [_entries(g) for g in min_tensor_generators(sq, sq)]
    slots = (Slot(3, PRIMAL),) * 3
    passed = 0
    for _ in range(200):
        picks = rng.sample(rays, rng.randint(2, min(6, len(rays))))
        w = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in picks]
        if not any(w):
            w[0] = Fraction(1)
        ent = [sum(wi * p[j] for wi, p in zip(w, picks)) for j in range(27)]
        red = apply_reduction(DenseTensor(slots, ent), based, 2)
        chk = conic_membership(_entries(red), gens)
        assert chk.member
        _resum(chk.weights, gens, red.entries)
        passed += 1
    elapsed = time.monotonic() - t0
    assert passed == 200 and elapsed < 60
    print(f"criterion 1: PASS (200/200 reduced max points in the min cone, {elapsed:.1f}s)")


def _rebuilt_breaking_tensor(based, k, terms):
    """Re-sum a breaking decomposition from raw facet functionals and base
    vertices, folding affine offsets through phi."""
    phi = based.phi
    total = None
    for t in terms:
        duals = []
        for f in t.facet_indices:
            fn = based.base.functionals[f]
            lin = tuple(fn[0] * phi[j] + fn[j + 1] for j in range(len(phi)))
            duals.append(from_vector(lin, DUAL))
        left = symmetric_project(kron(*duals)) if k > 1 else duals[0]
        g = kron(left, from_vector(based.base.vertices[t.vertex_index])).scale(t.weight)
        total = g if total is None else total + g
    return total


def test_criterion_2_breaking_routes_agree():
    """Combinatorial and LP routes of the breaking decision on the whole
    corpus; any disagreement raises inside the call."""
    checked = 0
    for name in cone_names():
        based = based_cone(name)
        level = EB_LEVELS[name]
        for k in (1, 2, 3):
            out = is_entanglement_breaking(based, k)
            assert out.breaking == (level is not None and k >= level), (name, k)
            if out.breaking:
                assert _rebuilt_breaking_tensor(based, k, out.terms) \
                    == reduction_map(based, k), (name, k)
            else:
                assert out.refutation is not None, (name, k)
            checked += 1
    assert checked == 3 * len(cone_names())
    print(f"criterion 2: PASS (both routes agree on {checked} corpus decisions)")


def test_criterion_3_gap_points_certified():
    """Shipped gap points: extendible at their level with the extension
    re-verified, yet outside the min product with the witness re-verified."""
    sq = cone("square")
    based = based_cone("square-skew")
    gens = [_entries(g) for g in min_tensor_generators(sq, based.cone)]
    for fname, k in (("gap-k2.pt", 2), ("gap-k3.pt", 3)):
        _, dims, entries = parse_point_file(fixture_text(fname))
        x = point_tensor(sq, based.cone, entries)
        verdict = ext_k_membership(x, sq, based, k)
        assert verdict.member, fname
        y = verdict.extension
        assert len(y.slots) == k + 1
        for i in range(1, k):
            perm = list(range(k + 1))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            assert reorder_slots(y, tuple(perm)) == y
        for f in sq.facets:
            for combo in itertools.product(based.cone.facets, repeat=k):
                h = kron(from_vector(f, DUAL), *(from_vector(g, DUAL) for g in combo))
                assert pairing(h, y) >= 0
        assert apply_reduction(y, based, k) == x
        chk = conic_membership(_entries(x), gens)
        assert not chk.member, fname
        h = chk.separating
        assert dot(h, _entries(x)) < 0
        assert all(dot(h, g) >= 0 for g in gens)
    print("criterion 3: PASS (both gap points certified in and out)")


def _random_simplicial(rng, dim):
    while True:
        rays = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
                for _ in range(dim)]
        try:
            c = make_cone(rays)
        except ConeError:
            continue
        if is_simplicial(c):
            return c


def _random_nonsimplicial_image(rng, cone):
    dim = cone.dim
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
        if rank(m) < dim:
            continue
        rays = [tuple(sum(m[i][j] * r[j] for j in range(dim)) for i in range(dim))
                for r in cone.rays]
        try:
            c = make_cone(rays)
        except ConeError:
            continue
        if not is_simplicial(c):
            return c


def test_criterion_4_simplicial_collapse():
    """Simplicial second factor forces min = max, certified by mutual LP
    inclusion; the square pair keeps a strict gap with a verified witness."""
    rng = random.Random(42)
    cbs = [_random_simplicial(rng, 3) for _ in range(3)]
    cas = [_random_nonsimplicial_image(rng, cone("square")),
           _random_nonsimplicial_image(rng, cone("pentagon"))]
    pairs = 0
    for ca in cas:
        for cb in cbs:
            halfspaces = [_entries(kron(from_vector(f, DUAL), from_vector(g, DUAL)))
                          for f in ca.facets for g in cb.facets]
            mx = dualize(make_cone(halfspaces))
            gens = [_entries(kron(from_vector(a), from_vector(b)))
                    for a in ca.rays for b in cb.rays]
            for r in mx.rays:
                chk = conic_membership(r, gens)
                assert chk.member
                _resum(chk.weights, gens, r)
            for g in gens:
                assert all(dot(h, g) >= 0 for h in halfspaces)
            pairs += 1
    assert pairs == 6
    sq = cone("square")
    _, dims, entries = parse_point_file(fixture_text("box.pt"))
    box = point_tensor(sq, sq, entries)
    halfspaces = [_entries(h) for h in max_tensor_halfspaces(sq, sq)]
    assert all(dot(h, _entries(box)) >= 0 for h in halfspaces)
    gens = [_entries(g) for g in min_tensor_generators(sq, sq)]
    chk = conic_membership(_entries(box), gens)
    assert not chk.member
    h = chk.separating
    assert dot(h, _entries(box)) < 0
    assert all(dot(h, g) >= 0 for g in gens)
    print("criterion 4: PASS (6 simplicial pairs collapse, square gap witnessed)")


def _recheck_witness(p, subset):
    face = p.face_from_facets(subset)
    rows = [p.functionals[j][1:] for j in subset]
    rhs = [-p.functionals[j][0] for j in subset]
    sol = lin_solve(rows, rhs)
    hull_dim = None if sol is None else len(nullspace(rows, p.ambient_dim))
    if not face:
        return hull_dim is not None
    face_dim = affine_rank([p.vertices[i] for i in face])
    return hull_dim is None or face_dim != hull_dim


def test_criterion_5_hull_commutation_matches_structure():
    t0 = time.monotonic()
    passing = ("triangle", "square", "cube", "prism")
    for name in ("triangle", "square", "cube", "prism",
                 "pentagon", "quad", "octahedron"):
        p = polytope(name)
        commutes, witness = affine_hull_commutes(p)
        factorable = isinstance(factor_as_simplices(p), SimplexFactorization)
        structural = is_simple(p) and is_two_level(p)
        assert commutes == factorable == structural, name
        if name in passing:
            assert commutes and witness is None
        else:
            assert not commutes and witness
            assert _recheck_witness(p, sorted(witness)), name
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"criterion 5: PASS (7 verdicts consistent three ways, {elapsed:.1f}s)")


def test_criterion_6_interior_sides_agree_and_square_flips():
    results = {}
    for name in cone_names():
        based = based_cone(name)
        for k in (1, 2, 3):
            # raises inside when the two sides disagree
            results[name, k] = omega_interior_test(based, k)
    assert results["square", 1] is True
    assert results["square", 2] is False
    base = based_cone("square").base
    assert all(len(base.avoiding_set(i)) == 2 for i in range(len(base.vertices)))
    print(f"criterion 6: PASS ({len(results)} agreed decisions, square flips at k=2)")


def test_criterion_7_exact_operator_claims():
    t0 = time.monotonic()
    claims = verify_appendix()
    labels = [c.label for c in claims]
    assert labels == ["decomposition", "gram-extension",
                      "transpose-extension", "obstruction"]
    vals = {c.label: dict(c.values) for c in claims}
    w_corner = QuadScalar.parse(vals["decomposition"]["weight_corner"])
    w_flip = QuadScalar.parse(vals["decomposition"]["weight_flip"])
    assert w_corner == QuadScalar.of(Fraction(1, 4))
    assert w_flip == QuadScalar(Fraction(3, 4), Fraction(-1, 2))
    y = build_X(1, ETA, 1)
    assert build_X(4, 1, QuadScalar(1, 2)).scale(w_corner) \
        + build_X(0, 1, 1).scale(w_flip) == y
    w = build_X(1, ETA, QuadScalar(-2, 1))
    assert trace_product(y, w).is_zero()
    assert QuadScalar.parse(vals["obstruction"]["trace_y_w"]).is_zero()
    assert not psd_check_exact(w)
    padded = sym_identity_extension(w)
    assert [s.dim for s in padded.slots] == [27, 27]
    assert psd_check_exact(padded, strict=True)
    assert vals["obstruction"]["pad_strictly_pd"] == "True"
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"criterion 7: PASS (all four claims exact, {elapsed:.1f}s)")


def _rebuild_hierarchy(a_cone, b_cone, result, z):
    k = result.k
    total = None
    for (ia, combo), w in zip(result.generators, result.weights):
        g = kron(from_vector(a_cone.rays[ia]),
                 *(from_vector(b_cone.rays[j]) for j in combo))
        g = symmetric_project(g, tuple(range(1, k + 1))).scale(w)
        total = g if total is None else total + g
    assert total == z


def test_criterion_8_hierarchy_levels():
    """Simplicial pairs finish at level 1; the square pair needs exactly
    two levels on the shipped interior point."""
    rng = random.Random(8)
    pairs = [(cone("triangle"), based_cone("orthant3")),
             (cone("orthant2"), based_cone("triangle")),
             (cone("orthant3"), based_cone("orthant3")),
             (cone("triangle"), based_cone("triangle"))]
    count = 0
    for a, based in pairs:
        gens = [kron(from_vector(ra), from_vector(rb))
                for ra in a.rays for rb in based.cone.rays]
        for _ in range(5):
            x = None
            for g in gens:
                g = g.scale(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
                x = g if x is None else x + g
            result = dual_hierarchy_k(x, a, based)
            assert result is not None and result.k == 1
            _rebuild_hierarchy(a, based.cone, result, x)
            count += 1
    assert count == 20
    sq = cone("square")
    based = based_cone("square")
    _, dims, entries = parse_point_file(fixture_text("box-interior.pt"))
    x = point_tensor(sq, based.cone, entries)
    result = dual_hierarchy_k(x, sq, based)
    assert result is not None and result.k <= 6
    yv = interior_point(based.cone)
    s = dot(based.phi, yv)
    y = from_vector([v / s for v in yv])
    z = symmetric_project(kron(x, *([y] * (result.k - 1))),
                          tuple(range(1, result.k + 1)))
    _rebuild_hierarchy(sq, based.cone, result, z)
    assert result.k == 2
    print("criterion 8: PASS (20 points at level 1, square pair at level 2)")


def test_criterion_9_certificate_soundness():
    """Randomized membership queries; every answer re-verified from the raw
    certificate, zero tolerance."""
    rng = random.Random(9)
    pairs = [(cone("square"), cone("square")),
             (cone("triangle"), cone("square")),
             (cone("orthant2"), cone("triangle")),
             (cone("pentagon"), cone("square")),
             (cone("square"), cone("quad")),
             (cone("prism"), cone("square")),
             (cone("cube"), cone("triangle")),
             (cone("square"), cone("octahedron"))]
    tables = []
    for a, b in pairs:
        gens = [_entries(kron(from_vector(ra), from_vector(rb)))
                for ra in a.rays for rb in b.rays]
        tables.append((a.dim * b.dim, gens))
    affirmed = refuted = 0
    for _ in range(500):
        n, gens = tables[rng.randrange(len(tables))]
        if rng.random() < 0.5:
            w = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in gens]
            ent = tuple(sum(wi * g[j] for wi, g in zip(w, gens)) for j in range(n))
        else:
            ent = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        chk = conic_membership(ent, gens)
        if chk.member:
            _resum(chk.weights, gens, ent)
            affirmed += 1
        else:
            h = chk.separating
            assert dot(h, ent) < 0
            assert all(dot(h, g) >= 0 for g in gens)
            refuted += 1
    assert affirmed + refuted == 500
    assert affirmed > 0 and refuted > 0
    print(f"criterion 9: PASS ({affirmed} affirmed, {refuted} refuted, 0 failures)")
