"""Double description with certificates: rays, facets, duality, bases."""

import random
from fractions import Fraction

import pytest

from coneext.cones import (CertificationError, Cone, ConeError, _certify,
                           dualize, interior_point, is_simplicial, make_based,
                           make_cone)
from coneext.fixtures import based_cone, cone, cone_names
from coneext.linalg import dot, greedy_independent, inverse, primitive, rank
from coneext.lp import FEASIBLE, LpProblem, conic_membership, solve


def test_redundant_generator_dropped():
    c = make_cone([(1, 1), (1, -1), (1, 0)])
    assert set(c.rays) == {(1, 1), (1, -1)}


def test_square_cone_rays_and_facets():
    c = cone("square")
    assert set(c.rays) == {(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)}
    assert set(c.facets) == {(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)}


def test_error_cases():
    with pytest.raises(ConeError):
        make_cone([(1, 0), (-1, 0), (0, 1)])  # contains a line
    with pytest.raises(ConeError):
        make_cone([(1, 0, 0), (0, 1, 0)])  # not full-dimensional
    with pytest.raises(ConeError):
        make_cone([])
    with pytest.raises(ConeError):
        make_cone([(0, 0)])
    with pytest.raises(ConeError, match="^mixed ambient dimensions$"):
        make_cone([(1, 0), (1, 0, 0)])


def test_make_based_refuses_a_ray():
    """A ray's only facet misses its base, so no based cone of dimension 1."""
    ray = make_cone([(1,)])
    assert ray.rays == ((1,),) and ray.facets == ((1,),)
    with pytest.raises(ConeError, match="dimension at least 2"):
        make_based(ray, (1,))


def test_dualize_certifies_the_facet_rank():
    """make_cone hands its facet rank to the certification; dualize has
    none to hand, so the certification computes it and refuses a pair
    whose facets do not span."""
    flat = Cone(dim=3, rays=((1, 0, 0), (0, 1, 0)),
                facets=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(CertificationError, match="facets do not span"):
        dualize(flat)
    with pytest.raises(ConeError, match="line"):
        make_cone([(1, 0), (-1, 0), (0, 1)])


def _dropped_one(c):
    """Every copy of ``c`` with one ray or one facet left out."""
    for i in range(len(c.rays)):
        yield Cone(c.dim, c.rays[:i] + c.rays[i + 1:], c.facets)
    for i in range(len(c.facets)):
        yield Cone(c.dim, c.rays, c.facets[:i] + c.facets[i + 1:])


def _incomplete_pairs_dualized():
    """({fixture: messages ``dualize`` raised on its copies missing one ray
    or facet}, the copies it returned)."""
    raised, returned = {}, []
    for name in cone_names():
        for tampered in _dropped_one(cone(name)):
            try:
                dualize(tampered)
            except CertificationError as err:
                raised.setdefault(name, set()).add(str(err))
                continue
            returned.append(tampered)
    return raised, returned


_OTHER_RAYS = "facets cut out a cone with other extreme rays"


def test_dualize_refuses_a_pair_missing_a_ray_or_a_facet():
    """The cube without one ray and the octahedron without one facet keep a
    rank n-1 incidence set on every ray and facet left, so only the extreme
    rays of the facets tell them from a cone; every other fixture with a
    ray or facet dropped fails some certification too."""
    cube, octahedron = cone("cube"), cone("octahedron")
    for tampered in (Cone(cube.dim, cube.rays[1:], cube.facets),
                     Cone(octahedron.dim, octahedron.rays, octahedron.facets[1:])):
        with pytest.raises(CertificationError, match=_OTHER_RAYS):
            dualize(tampered)
    raised, returned = _incomplete_pairs_dualized()
    assert returned == []
    assert set(raised) == set(cone_names())
    assert _OTHER_RAYS in raised["cube"] and _OTHER_RAYS in raised["octahedron"]


def _lp_probe_verdict(gens):
    """make_cone's verdict by an independent route: the rank of the
    generators, then an LP for a functional >= 1 on every generator, which
    exists exactly when the cone contains no line."""
    n = len(gens[0])
    if rank(gens) != n:
        return "cone is not full-dimensional"
    probe = LpProblem.build(n, ge_rows=[(g, 1) for g in gens])
    if solve(probe).status != FEASIBLE:
        return "cone contains a line"
    return None


def test_line_detection_matches_the_lp_probe():
    """make_cone reads a line off the rank of the double description's
    facets; on seeded random generator sets in dimensions 2-4 it reaches
    the verdict of the LP probe."""
    rng = random.Random(2024)
    seen = {}
    for _ in range(300):
        dim = rng.randint(2, 4)
        count, gens = rng.randint(dim, dim + 3), []
        while len(gens) < count:
            g = tuple(rng.randint(-2, 2) for _ in range(dim))
            if any(g):
                gens.append(g)
        try:
            make_cone(gens)
            verdict = None
        except ConeError as err:
            verdict = str(err)
        assert verdict == _lp_probe_verdict(gens), gens
        seen[verdict] = seen.get(verdict, 0) + 1
    assert len(seen) == 3 and min(seen.values()) >= 5, seen


def test_orthant_self_dual():
    c = make_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    d = dualize(c)
    assert d.rays == c.rays
    assert d.facets == c.facets


def test_dualize_square():
    d = dualize(cone("square"))
    assert set(d.rays) == {(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)}
    assert set(d.facets) == set(cone("square").rays)


def test_dualize_involution_on_corpus():
    for name in cone_names():
        c = cone(name)
        assert dualize(dualize(c)) == c


def test_dualize_involution_on_random_cones():
    rng = random.Random(17)
    built = 0
    while built < 25:
        dim = rng.randint(2, 4)
        gens = [(1,) + tuple(rng.randint(-4, 4) for _ in range(dim - 1))
                for _ in range(rng.randint(dim, dim + 3))]
        try:
            c = make_cone(gens)
        except ConeError:
            continue
        built += 1
        assert dualize(dualize(c)) == c


def test_double_description_certificate_externally():
    """Incidence pattern: facet values vanish exactly on incident pairs, and
    every ray is pinned by a rank n-1 set of tight facets."""
    for name in cone_names():
        c = cone(name)
        for r in c.rays:
            tight = [f for f in c.facets if dot(f, r) == 0]
            assert all(dot(f, r) > 0 for f in c.facets if f not in tight)
            assert rank(tight) == c.dim - 1
        for f in c.facets:
            on_face = [r for r in c.rays if dot(f, r) == 0]
            assert rank(on_face) == c.dim - 1


def test_membership_agrees_between_descriptions():
    """Facet evaluation and the ray-combination LP define the same set."""
    rng = random.Random(37)
    for name in ("square", "pentagon", "orthant3", "cube"):
        c = cone(name)
        for _ in range(25):
            if rng.random() < 0.5:
                pt = [Fraction(0)] * c.dim
                for r in c.rays:
                    w = Fraction(rng.randint(0, 3), rng.randint(1, 2))
                    pt = [a + w * b for a, b in zip(pt, r)]
                pt = tuple(pt)
            else:
                pt = tuple(Fraction(rng.randint(-4, 4)) for _ in range(c.dim))
            by_facets = all(dot(f, pt) >= 0 for f in c.facets)
            by_rays = conic_membership(pt, [tuple(map(Fraction, r)) for r in c.rays]).member
            assert by_facets == by_rays


def test_is_simplicial_table():
    expected = {
        "square": False,
        "triangle": True,
        "orthant2": True,
        "orthant3": True,
        "cube": False,
        "prism": False,
        "pentagon": False,
        "octahedron": False,
        "quad": False,
    }
    for name, want in expected.items():
        assert is_simplicial(cone(name)) == want


def test_interior_point_is_ray_sum_and_strictly_inside():
    c2 = make_cone([(1, 0), (0, 1)])
    assert interior_point(c2) == (1, 1)
    sq = cone("square")
    assert interior_point(sq) == (4, 0, 0)
    assert interior_point(dualize(sq)) == (4, 0, 0)
    for name in cone_names():
        c = cone(name)
        p = interior_point(c)
        assert c.strictly_contains(p)
    # an uncertified pair whose one ray lies on the second facet
    with pytest.raises(CertificationError, match="not strictly interior"):
        interior_point(Cone(dim=2, rays=((1, 0),), facets=((1, 0), (0, 1))))


def test_make_based_square():
    b = based_cone("square")
    assert set(b.base.vertices) == {(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)}
    assert len(b.base.functionals) == len(b.cone.facets)


def test_make_based_rejects_boundary_phi():
    with pytest.raises(ConeError):
        make_based(cone("square"), (0, 1, 0))
    with pytest.raises(ConeError):
        make_based(cone("square"), (1, 1, 0))  # vanishes on the ray (1,-1,0)
    with pytest.raises(ConeError):
        make_based(cone("square"), (1, 0))


def test_skewed_base_is_not_a_parallelogram():
    b = based_cone("square-skew")
    verts = {v: dot(b.phi, v) for v in b.base.vertices}
    assert all(val == 1 for val in verts.values())
    assert (Fraction(5, 6), Fraction(5, 6), Fraction(0)) in verts
    assert (Fraction(5, 4), Fraction(-5, 4), Fraction(0)) in verts
    # a parallelogram's two diagonals share their midpoint
    vs = list(verts)
    mids = set()
    for i in range(4):
        for j in range(i + 1, 4):
            m = tuple((a + bb) / 2 for a, bb in zip(vs[i], vs[j]))
            mids.add(m)
    assert len(mids) == 6


def test_reconing_base_recovers_rays():
    for name in cone_names():
        b = based_cone(name)
        again = make_cone(list(b.base.vertices))
        assert again.rays == b.cone.rays


def test_base_vertices_biject_with_rays():
    rng = random.Random(53)
    for name in cone_names():
        b = based_cone(name)
        assert len(b.base.vertices) == len(b.cone.rays)
        for v in b.base.vertices:
            assert dot(b.phi, v) == 1


def test_pentagon_facet_count():
    c = cone("pentagon")
    assert len(c.rays) == 5
    assert len(c.facets) == 5


# -- the double description against a reference -----------------------------
#
# The reference below is the double description as it was before tight sets
# were carried along: every insertion re-derives each ray's tight set with
# ``dot``, the extreme generators are selected by a fresh incidence pass, and
# the certification makes three more.

def _reference_dual_extreme_rays(constraints, n):
    base = greedy_independent(constraints)
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
                common = sorted(tight[ip] & tight[im])
                if rank([constraints[i] for i in common]) != n - 2:
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


def _reference_certify(dim, rays, facets):
    if rank(rays) != dim:
        raise CertificationError("rays do not span")
    if rank(facets) != dim:
        raise CertificationError("facets do not span")
    for f in facets:
        for r in rays:
            if dot(f, r) < 0:
                raise CertificationError("facet negative on a ray")
    for r in rays:
        if rank([f for f in facets if dot(f, r) == 0]) != dim - 1:
            raise CertificationError("ray does not saturate a rank n-1 facet set")
    for f in facets:
        if rank([r for r in rays if dot(f, r) == 0]) != dim - 1:
            raise CertificationError("facet not supported by a rank n-1 ray set")


def _reference_make_cone(generators):
    gens, seen = [], set()
    for g in generators:
        if all(a == 0 for a in g):
            continue
        p = primitive(g)
        if p not in seen:
            seen.add(p)
            gens.append(p)
    if not gens:
        raise ConeError("no nonzero generators")
    n = len(gens[0])
    facets = _reference_dual_extreme_rays(gens, n)
    if rank(facets) != n:
        raise ConeError("cone contains a line")
    rays = sorted(g for g in gens
                  if rank([f for f in facets if dot(f, g) == 0]) == n - 1)
    _reference_certify(n, rays, facets)
    return tuple(rays), tuple(facets)


def _outcome(build, gens):
    try:
        return build(gens)
    except (ConeError, CertificationError) as err:
        return type(err), str(err)


def _seeded_generator_sets(rng, count):
    """Generator sets in dimensions 2-5: general ones, ones through a line
    (a generator and its negative), lower-dimensional ones (a zero last
    coordinate) and ones with fractional or repeated generators."""
    for t in range(count):
        dim = 2 + t % 4
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(dim, dim + 4))]
        kind = t // 4 % 4
        if kind == 1:
            gens.append(tuple(-a for a in gens[0]))
        elif kind == 2:
            gens = [g[:-1] + (0,) for g in gens]
        elif kind == 3:
            gens = [(1,) + g[1:] for g in gens]
            gens.append(tuple(Fraction(a, 2) for a in gens[-1]))
        yield gens


def test_make_cone_matches_the_reference_double_description():
    """Rays, facets, and the type and message of every refusal equal the
    reference's on seeded generator sets."""
    rng = random.Random(4099)
    kinds = {}
    for gens in _seeded_generator_sets(rng, 1200):
        got = _outcome(lambda g: (lambda c: (c.rays, c.facets))(make_cone(g)), gens)
        want = _outcome(_reference_make_cone, gens)
        assert got == want, gens
        key = want[1] if want[0] in (ConeError, CertificationError) else len(gens[0])
        kinds[key] = kinds.get(key, 0) + 1
    for key in (2, 3, 4, 5, "cone contains a line", "cone is not full-dimensional"):
        assert kinds.get(key, 0) >= 20, kinds


def test_certification_rejects_tampered_descriptions():
    """A negated facet, a dropped ray and an extra non-extreme ray each
    raise their own certification message.  The cones are ones whose
    facets each hold exactly n-1 rays, so a dropped ray leaves a facet
    unsupported."""
    for name in ("square", "pentagon", "octahedron"):
        c = cone(name)
        negated = (tuple(-a for a in c.facets[0]),) + c.facets[1:]
        with pytest.raises(CertificationError, match="facet negative on a ray"):
            _certify(c.dim, c.rays, negated)
        with pytest.raises(CertificationError, match="facet not supported"):
            _certify(c.dim, c.rays[1:], c.facets)
        extra = c.rays + (interior_point(c),)
        with pytest.raises(CertificationError, match="ray does not saturate"):
            _certify(c.dim, extra, c.facets)
    flat = ((1, 0, 0), (0, 1, 0))
    with pytest.raises(CertificationError, match="rays do not span"):
        _certify(3, flat, cone("orthant3").facets)
