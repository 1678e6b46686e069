"""Hand-written table of expected verdicts, with where each one comes from.

Every verdict the benchmark sees is compared with this table.  A verdict
that no note or law fixes is marked "pinned": it was read once from the
package at the commit that introduced this benchmark, and a later change
that flips it is reported as a failure, to be looked at.
"""

# Smallest k at which the level-k reduction map of the based cone is
# entanglement breaking; None means at no level (the base is not a product
# of simplices).
EB_LEVELS = {
    "triangle": 1,
    "orthant2": 1,
    "orthant3": 1,
    "square": 2,
    "square-skew": None,
    "prism": 2,
    "cube": 3,
    "pentagon": None,
    "octahedron": None,
    "quad": None,
}

# Which shipped polytopes are products of simplices: a triangle, a square
# (1x1), a cube (1x1x1) and a prism (2x1) are; a pentagon, a quadrilateral
# that is not a parallelogram and an octahedron are not.  The affine-hull
# commutation test agrees with this by the same structure theorem.
FACTORABLE = {
    "triangle": True,
    "square": True,
    "cube": True,
    "prism": True,
    "pentagon": False,
    "quad": False,
    "octahedron": False,
}

# Largest k at which the vertex-facet tensor is interior: every vertex of
# the base avoids more than k facets (facets minus facets through a vertex).
OMEGA_MAX_K = {
    "triangle": 0,
    "orthant2": 0,
    "orthant3": 0,
    "square": 1,
    "square-skew": 1,
    "prism": 1,
    "cube": 2,
    "pentagon": 2,
    "octahedron": 3,
    "quad": 1,
}

# Ext_k membership on the ladder: (point, k) -> (member, source).  The gap
# points sit on square x square-skew, box on square x square.
EXT_LADDER = {
    ("gap-k3", 1): (True, "fixture note gap-k3 in Ext_3; order law"),
    ("gap-k3", 2): (True, "fixture note gap-k3 in Ext_3; order law"),
    ("gap-k3", 3): (True, "fixture note gap-k3 in Ext_3"),
    ("gap-k2", 1): (True, "fixture note gap-k2 in Ext_2; order law"),
    ("gap-k2", 2): (True, "fixture note gap-k2 in Ext_2"),
    ("gap-k2", 3): (False, "pinned"),
    ("box", 1): (True, "Ext_1 = max and box is in max"),
    ("box", 2): (False, "square breaks at level 2 so Ext_2 = min; box is outside min"),
}

# Level at which the dual hierarchy search finishes (fixture note).
DUAL_LEVEL = {"box-interior": 2}

# min-check verdicts on square x square(-skew): the gap points and box are
# outside min by the fixture notes; box-interior is pinned.
MIN_MEMBER = {
    "gap-k2": (False, "fixture note: outside min"),
    "gap-k3": (False, "fixture note: outside min"),
    "box": (False, "fixture note: outside min"),
    "box-interior": (False, "pinned"),
}


def eb_breaking(name, k):
    level = EB_LEVELS[name]
    return level is not None and k >= level
