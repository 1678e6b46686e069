"""Certificate re-checks with plain Fraction arithmetic.

These run outside the timed section and use none of coneext's code, so a
defect in the package's own verifiers cannot hide a wrong verdict.  Each
function returns None when the certificate holds and a one-line reason when
it does not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations


def dot(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def read_fixture(path):
    """Keyword -> list of rows of a coneext text file (``ray``, ``phi``,
    ``row``, ``vertex`` ...); header lines keep their raw tokens."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            body = raw.split("#", 1)[0].split()
            if body:
                rows.setdefault(body[0], []).append(body[1:])
    return rows


def fractions(tokens):
    return tuple(Fraction(t) for t in tokens)


def point_entries(path):
    return tuple(e for row in read_fixture(path)["row"] for e in fractions(row))


def _contract_last(entries, vec):
    n = len(vec)
    return [sum((entries[i + j] * vec[j] for j in range(n)), Fraction(0))
            for i in range(0, len(entries), n)]


def in_max(x, facets_a, facets_b):
    """Whether x (row-major nA x nB) is nonnegative on every facet pair."""
    nb = len(facets_b[0])
    for f in facets_a:
        for g in facets_b:
            val = sum((f[a] * g[b] * x[a * nb + b]
                       for a in range(len(f)) for b in range(nb)), Fraction(0))
            if val < 0:
                return False
    return True


def check_extension(x, facets_a, facets_b, phi, k, y):
    """y in V_A ox V_B^{ox k}: symmetric over the B slots, nonnegative on
    every max half-space, and reducing to x."""
    nb = len(phi)
    na = len(y) // nb ** k
    if len(y) != na * nb ** k:
        return "extension has the wrong number of entries"
    classes = {}
    for idx, val in enumerate(y):
        a, rest = divmod(idx, nb ** k)
        digits = []
        for _ in range(k):
            rest, d = divmod(rest, nb)
            digits.append(d)
        key = (a, tuple(sorted(digits)))
        if classes.setdefault(key, val) != val:
            return "extension is not symmetric over the B slots"
    for f in facets_a:
        for combo in combinations_with_replacement(facets_b, k):
            t = list(y)
            for g in reversed(combo):
                t = _contract_last(t, g)
            if dot(f, t) < 0:
                return "extension is negative on a max half-space"
    t = list(y)
    for _ in range(k - 1):
        t = _contract_last(t, phi)
    if tuple(t) != tuple(x):
        return "extension does not reduce to the point"
    return None


def check_separates(h, target):
    if dot(h, target) >= 0:
        return "witness is not negative on the target"
    return None


def check_conic(target, gens, weights=None, separating=None):
    """Member: nonnegative weights that re-sum to the target.  Non-member:
    h(target) < 0 <= h(g) for every generator g."""
    if weights is not None:
        if len(weights) != len(gens) or any(w < 0 for w in weights):
            return "weights are not nonnegative and aligned"
        total = [Fraction(0)] * len(target)
        for w, g in zip(weights, gens):
            if w:
                for i, a in enumerate(g):
                    total[i] += w * a
        if tuple(total) != tuple(target):
            return "weights do not re-sum to the target"
        return None
    if dot(separating, target) >= 0:
        return "separating functional is not negative on the target"
    if any(dot(separating, g) < 0 for g in gens):
        return "separating functional is negative on a generator"
    return None


def check_cone(gens, rays, facets):
    """Every facet is nonnegative on every ray and every input generator."""
    if not rays or len(facets) < len(gens[0]):
        return "cone has too few rays or facets"
    for f in facets:
        if any(dot(f, r) < 0 for r in rays) or any(dot(f, g) < 0 for g in gens):
            return "a facet is negative on a ray or generator"
    return None


def reduction_reps(n, k):
    return [js + (i,) for js in combinations_with_replacement(range(n), k)
            for i in range(n)]


def reduction_compressed(phi, k):
    """The level-k reduction tensor at sorted representatives: entry
    (j1..jk, i) = (1/k) sum over positions p with j_p = i of the product of
    phi over the other positions."""
    out = []
    for rep in reduction_reps(len(phi), k):
        js, i = rep[:k], rep[k]
        total = Fraction(0)
        for p in range(k):
            if js[p] == i:
                term = Fraction(1)
                for q in range(k):
                    if q != p:
                        term *= phi[js[q]]
                total += term
        out.append(total / k)
    return out


def _sym_product(vectors, js):
    """Entry js of the symmetrization of the tensor product of ``vectors``."""
    total = Fraction(0)
    count = 0
    for order in permutations(range(len(js))):
        term = Fraction(1)
        for v, p in zip(vectors, order):
            term *= v[js[p]]
        total += term
        count += 1
    return total / count


def check_eb_terms(phi, k, vertices, functionals, terms):
    """Breaking: positive weights on sym(psi_c1..psi_ck) ox vertex that
    re-sum to the reduction tensor."""
    gamma = reduction_compressed(phi, k)
    total = [Fraction(0)] * len(gamma)
    for facets, v, w in terms:
        if w <= 0:
            return "breaking decomposition has a nonpositive weight"
        psis = [functionals[j][1:] for j in facets]
        for idx, rep in enumerate(reduction_reps(len(phi), k)):
            total[idx] += w * _sym_product(psis, rep[:k]) * vertices[v][rep[k]]
    if total != gamma:
        return "breaking decomposition does not re-sum to the reduction tensor"
    return None


def check_eb_refutation(phi, k, h):
    if dot(h, reduction_compressed(phi, k)) >= 0:
        return "refutation is not negative on the reduction tensor"
    return None


def check_dual_hierarchy(x, rays_a, rays_b, phi, k, generators, weights):
    """Positive weights on sym(ray_a ox rays_b...) that re-sum to the
    symmetrized pad of x with the normalized ray sum of B."""
    nb = len(phi)
    y = [sum(col) for col in zip(*rays_b)]
    scale = dot(phi, y)
    y = [Fraction(v) / scale for v in y]
    for a in range(len(rays_a[0])):
        for js in combinations_with_replacement(range(nb), k):
            want = Fraction(0)
            for p in range(k):
                term = x[a * nb + js[p]]
                for q in range(k):
                    if q != p:
                        term *= y[js[q]]
                want += term
            want /= k
            got = Fraction(0)
            for (ia, combo), w in zip(generators, weights):
                if w <= 0:
                    return "hierarchy decomposition has a nonpositive weight"
                got += (w * rays_a[ia][a]
                        * _sym_product([rays_b[j] for j in combo], js))
            if got != want:
                return "hierarchy decomposition does not re-sum"
    return None


def min_avoided(rays, facets):
    """Smallest number of facets a ray of the cone avoids."""
    return min(sum(1 for f in facets if dot(f, r) != 0) for r in rays)
