"""Regenerate the shipped point files under src/coneext/fixtures/.

The cone and polytope files there are the source of the corpus and are not
written here.  Deterministic: the two box points are fixed, the gap points
come from a seeded boundary search on the shipped square and square-skew
cones.  A gap point is found by shooting a ray from a product interior
point along a random direction and taking the largest step length that
keeps level-k membership of the skewed square pair.  A cutting plane finds
that step with membership tests alone: each refuted point's witness bounds
the step, and the first bound whose point is a member is the maximum.  The
point lands on the boundary of the level-k cone and is kept when it lies
outside the minimal tensor product (re-sampled otherwise).

Run from the repository root:  python3 tools/make_fixtures.py
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coneext.cones import interior_point, min_columns
from coneext.fixtures import based_cone, cone
from coneext.formats import serialize_point_file
from coneext.hierarchy import ext_k_membership, point_tensor
from coneext.lp import conic_membership
from coneext.tensors import pairing

SEED = 20260821
OUT = Path(__file__).resolve().parent.parent / "src" / "coneext" / "fixtures"


def write(name, text):
    (OUT / name).write_text(text)
    print("wrote", name)


def shoot_boundary(a_cone, based, k, x0, d):
    """The largest t with x0 + t*d in the level-k cone, for x0 in that cone;
    returns (t, entries), or None when d is in the cone and t is unbounded.

    A witness zeta of a non-member is nonnegative on the cone and negative
    at the point, so it bounds t <= -zeta(x0)/zeta(d).  Each bound's point
    is tested in turn; the first member is the maximum (Kelley 1960)."""
    def test(entries):
        return ext_k_membership(point_tensor(a_cone, based.cone, entries),
                                a_cone, based, k)

    x0_t, d_t = (point_tensor(a_cone, based.cone, v) for v in (x0, d))
    verdict = test(d)
    if verdict.member:
        return None
    while True:
        zeta = verdict.witness
        t = Fraction(-pairing(zeta, x0_t), pairing(zeta, d_t))
        entries = tuple(a + t * b for a, b in zip(x0, d))
        verdict = test(entries)
        if verdict.member:
            return t, entries


def find_gap_point(k, rng):
    sq = cone("square")
    based = based_cone("square-skew")
    s = interior_point(sq)
    x0 = tuple(Fraction(a) * Fraction(b) for a in s for b in s)
    gens = min_columns(sq, sq)
    while True:
        d = tuple(Fraction(rng.randint(-3, 3)) for _ in range(9))
        got = shoot_boundary(sq, based, k, x0, d)
        if got is None:
            continue
        t, entries = got
        if t <= 0:
            continue
        # shoot_boundary's last test made it a member of the level-k cone
        if not conic_membership(entries, gens).member:
            return entries


def main():
    write("box.pt", serialize_point_file(
        "box", (3, 3), [Fraction(v) for v in (2, 0, 0, 0, 1, 1, 0, 1, -1)]))
    write("box-interior.pt", serialize_point_file(
        "box-interior", (3, 3),
        [Fraction(v) for v in (3, 0, 0, 0, 1, 1, 0, 1, -1)]))

    rng = random.Random(SEED)
    for k in (2, 3):
        entries = find_gap_point(k, rng)
        write(f"gap-k{k}.pt", serialize_point_file(f"gap-k{k}", (3, 3), entries))


if __name__ == "__main__":
    main()
