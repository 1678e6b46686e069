"""A vertex finder for the tests, built on feasibility tests alone."""

from coneext.linalg import dot
from coneext.lp import conic_membership


def _least_on_slice(c, halfspaces, norm, start):
    """The point z of the slice {h . z >= 0 for every h, norm . z = 1} at
    which c . z is least, by Dinkelbach's parametric method (Management
    Science 13, 1967).  ``start`` lies in the cone {h . z >= 0} with
    norm . start > 0, and norm is positive on the rest of that cone.

    Scale z onto the slice and let T = c . z.  If c - T norm lies in
    cone{h}, say sum_h w_h h with w >= 0, then c . z' - T = sum_h w_h h . z'
    >= 0 at every slice point z', so z is least.  Otherwise the separator s
    of ``conic_membership`` has h . s >= 0 for every h and
    s . (c - T norm) < 0, so s is in the cone and its slice point has a
    smaller value than T: it is the next z."""
    z = start
    while True:
        scale = dot(norm, z)
        z = tuple(v / scale for v in z)
        t = dot(c, z)
        out = conic_membership([a - t * b for a, b in zip(c, norm)], halfspaces)
        if out.member:
            return z
        z = out.separating
