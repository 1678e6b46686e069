"""Print the in-process Ext_k ladder, one JSON object per rung and line.

The rungs are the shipped points gap-k3 and gap-k2 on square x square-skew
at k = 3..6, and the pentagon diagonal sum_i e_i ox e_i on
pentagon x pentagon at k = 2..4.  Each object gives the verdict, the wall
seconds of ``ext_k_membership``, its pivots, the degenerate ones among them
(the leaving row's rhs is 0) and the calls of ``lp._eliminate``.  The
counts come from wrapping ``lp._Tableau.pivot`` and ``lp._eliminate`` from
outside; nothing under src/ changes, and the wrappers' cost is in the time.

Run from the repository root:  python3 tools/ladder.py

The tool imports ``coneext`` from the src/ of its own checkout, so two
checkouts' ladders can be set side by side.  The tests load the shipped
points through ``coneext.fixtures.point``, as ``case`` does; ``case`` still
builds the pentagon diagonal, which ships as no file.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coneext import lp
from coneext.fixtures import based_cone, point
from coneext.hierarchy import ext_k_membership, point_tensor

RUNGS = [*((p, k) for p in ("gap-k3", "gap-k2") for k in range(3, 7)),
         *(("pentagon-diagonal", k) for k in range(2, 5))]


def case(name, b_name="square-skew"):
    """(x, A, based B) of a point: the pentagon diagonal on
    pentagon x pentagon, or a shipped point on square x B."""
    if name == "pentagon-diagonal":
        based = based_cone("pentagon")
        n = based.cone.dim
        entries = [int(i == j) for i in range(n) for j in range(n)]
        return point_tensor(based.cone, based.cone, entries), based.cone, based
    a_cone, based = based_cone("square").cone, based_cone(b_name)
    return point(name, a_cone, based.cone), a_cone, based


def measure(point, k):
    """The rung's verdict, seconds and counts, as one dict."""
    counts = {"pivots": 0, "degenerate": 0, "eliminate_calls": 0}
    pivot, eliminate = lp._Tableau.pivot, lp._eliminate

    def counting_pivot(tab, r, c):
        counts["pivots"] += 1
        counts["degenerate"] += not tab.T[r].get(lp._RHS, 0)
        pivot(tab, r, c)

    def counting_eliminate(other, row, c):
        counts["eliminate_calls"] += 1
        eliminate(other, row, c)

    x, a_cone, based = case(point)
    lp._Tableau.pivot, lp._eliminate = counting_pivot, counting_eliminate
    try:
        start = time.perf_counter()
        member = ext_k_membership(x, a_cone, based, k).member
        seconds = time.perf_counter() - start
    finally:
        lp._Tableau.pivot, lp._eliminate = pivot, eliminate
    return {"point": point, "k": k, "verdict": "member" if member else "NON-MEMBER",
            "seconds": round(seconds, 3), **counts}


def main():
    for point, k in RUNGS:
        print(json.dumps(measure(point, k)), flush=True)


if __name__ == "__main__":
    main()
