"""Regenerate the shipped point files under src/coneext/fixtures/.

The cone and polytope files there are the source of the corpus and are not
written here.  Deterministic: the two box points are fixed, the gap points
come from a seeded boundary search on the shipped square and square-skew
cones.  A gap point is found by shooting a ray from a product interior
point along a random direction, maximizing the step length subject to
level-k membership of the skewed square pair; the optimum lands on the
boundary of the level-k cone and is kept when it lies outside the minimal
tensor product (re-sampled otherwise).

Run from the repository root:  python3 tools/make_fixtures.py
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coneext.cones import interior_point
from coneext.fixtures import based_cone, cone
from coneext.formats import serialize_point_file
from coneext.hierarchy import (_ext_k_rows, ext_k_membership,
                               min_tensor_generators, point_tensor)
from coneext.lp import FEASIBLE, LpProblem, conic_membership, solve

SEED = 20260821
OUT = Path(__file__).resolve().parent.parent / "src" / "coneext" / "fixtures"


def write(name, text):
    (OUT / name).write_text(text)
    print("wrote", name)


def shoot_boundary(a_cone, based, k, x0, d):
    """Maximize t with x0 + t*d in the level-k cone; returns (t, entries)
    or None when the direction is infeasible from the start."""
    nA, nB = a_cone.dim, based.cone.dim
    ge, eq = _ext_k_rows(a_cone, based, k)
    nv = len(eq[0]) + 1
    ge_rows = [(row + (Fraction(0),), Fraction(0)) for row in ge]
    eq_rows = [(row + (-d[ij],), x0[ij]) for ij, row in enumerate(eq)]
    objective = tuple([Fraction(0)] * (nv - 1) + [Fraction(-1)])
    out = solve(LpProblem.build(nv, eq_rows=eq_rows, ge_rows=ge_rows,
                                objective=objective))
    if out.status != FEASIBLE:
        return None
    t = out.point[-1]
    entries = tuple(x0[i] + t * d[i] for i in range(nA * nB))
    return t, entries


def find_gap_point(k, rng):
    sq = cone("square")
    based = based_cone("square-skew")
    s = interior_point(sq)
    x0 = tuple(Fraction(a) * Fraction(b) for a in s for b in s)
    gens = [tuple(g.entries) for g in min_tensor_generators(sq, sq)]
    while True:
        d = tuple(Fraction(rng.randint(-3, 3)) for _ in range(9))
        got = shoot_boundary(sq, based, k, x0, d)
        if got is None:
            continue
        t, entries = got
        if t <= 0:
            continue
        if conic_membership(entries, gens).member:
            continue
        # confirm the certificates the acceptance checks will re-derive
        x = point_tensor(sq, sq, entries)
        if not ext_k_membership(x, sq, based, k).member:
            raise RuntimeError(f"boundary point is not in the level-{k} cone")
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
