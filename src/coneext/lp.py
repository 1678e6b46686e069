"""Exact rational linear programming with self-verifying certificates.

Two-phase primal simplex with Bland's rule, so every run terminates and
identical problems pivot identically.  The tableau is fraction-free and
sparse: each row maps its nonzero columns to int numerators over one
positive int denominator, is pivoted by cross-multiplication over the union
of the two supports and gcd-reduced after every update (Edmonds 1967), so
it takes the same pivots as a dense tableau of Fractions while a pivot
touches only nonzero entries.  No floating point, no presolve.  Every
outcome is re-verified against the original problem before it is returned:

* feasible: the point satisfies every row exactly (and the optimum, when
  an objective is present, equals objective . point);
* infeasible: Farkas multipliers (free on equality rows, nonnegative on
  inequality rows) combine the rows into ``r . x >= rho`` with ``rho > 0``
  while ``r`` is nonpositive on nonnegative variables and zero on free
  ones, which no point can satisfy;
* unbounded: a feasible point plus a recession direction that keeps all
  rows satisfied while the objective decreases.

A failed re-verification raises ``CertificateError``, an explicit raise
that ``python -O`` does not strip.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .linalg import dot, primitive, vec

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RHS = -1  # key of the right-hand side in a sparse tableau row


class CertificateError(AssertionError):
    """A result failed its exact re-check against the problem data."""


@dataclass(frozen=True)
class LpProblem:
    """min objective . x  subject to  eq rows (= rhs), ge rows (>= rhs),
    x_j >= 0 for j in nonneg, remaining variables free."""

    num_vars: int
    eq_rows: tuple
    ge_rows: tuple
    nonneg: frozenset
    objective: tuple | None = None

    @staticmethod
    def build(num_vars, eq_rows=(), ge_rows=(), nonneg=(), objective=None):
        eqs = tuple((vec(r), Fraction(b)) for r, b in eq_rows)
        ges = tuple((vec(r), Fraction(b)) for r, b in ge_rows)
        for r, _ in eqs + ges:
            if len(r) != num_vars:
                raise ValueError("row length does not match num_vars")
        obj = vec(objective) if objective is not None else None
        if obj is not None and len(obj) != num_vars:
            raise ValueError("objective length does not match num_vars")
        return LpProblem(num_vars, eqs, ges, frozenset(nonneg), obj)


@dataclass(frozen=True)
class LpOutcome:
    status: str
    point: tuple | None = None
    certificate: tuple | None = None  # Farkas multipliers: eq rows then ge rows
    optimum: Fraction | None = None
    ray: tuple | None = None          # recession direction when unbounded


def verify_point(problem, point):
    if len(point) != problem.num_vars:
        raise AssertionError("point arity mismatch")
    for r, b in problem.eq_rows:
        if dot(r, point) != b:
            raise AssertionError("equality row violated")
    for r, b in problem.ge_rows:
        if dot(r, point) < b:
            raise AssertionError("inequality row violated")
    for j in problem.nonneg:
        if point[j] < 0:
            raise AssertionError("sign constraint violated")


def verify_farkas(problem, mult):
    ne = len(problem.eq_rows)
    if len(mult) != ne + len(problem.ge_rows):
        raise AssertionError("multiplier arity mismatch")
    for lam in mult[ne:]:
        if lam < 0:
            raise AssertionError("inequality multiplier must be nonnegative")
    combined = [Fraction(0)] * problem.num_vars
    rho = Fraction(0)
    for lam, (r, b) in zip(mult, problem.eq_rows + problem.ge_rows):
        if lam == 0:
            continue
        for j, a in enumerate(r):
            combined[j] += lam * a
        rho += lam * b
    if rho <= 0:
        raise AssertionError("Farkas combination has nonpositive rhs")
    for j, a in enumerate(combined):
        if j in problem.nonneg:
            if a > 0:
                raise AssertionError("Farkas row positive on a nonnegative variable")
        elif a != 0:
            raise AssertionError("Farkas row nonzero on a free variable")


def verify_ray(problem, point, ray):
    verify_point(problem, point)
    for r, _ in problem.eq_rows:
        if dot(r, ray) != 0:
            raise AssertionError("ray leaves an equality row")
    for r, _ in problem.ge_rows:
        if dot(r, ray) < 0:
            raise AssertionError("ray leaves an inequality row")
    for j in problem.nonneg:
        if ray[j] < 0:
            raise AssertionError("ray leaves the sign orthant")
    if problem.objective is None or dot(problem.objective, ray) >= 0:
        raise AssertionError("ray does not improve the objective")


class _Tableau:
    """Sparse simplex tableau over integers.  Row i is a dict ``T[i]`` from
    column to nonzero int numerator, with the right-hand side under the key
    ``_RHS``, over one int denominator ``den[i] > 0``: the real row is
    ``T[i] / den[i]``, and a column missing from the dict is zero there.
    The reduced-cost row ``z`` over ``zden > 0`` stays a dense list (one int
    per column) whose last place, also ``z[_RHS]``, holds the negated
    objective value.  Every row is kept reduced, ``gcd(den, *row) == 1``
    over its nonzeros.  Columns are described by tags:
    ("var", j, s) for s * x_j of a split variable, ("sur", i) for the surplus
    of ge row i, ("art", i) for the artificial of standard row i."""

    def __init__(self, problem):
        self.problem = problem
        rows = [(r, b, None) for r, b in problem.eq_rows]
        rows += [(r, b, i) for i, (r, b) in enumerate(problem.ge_rows)]
        self.cols = []
        for j in range(problem.num_vars):
            self.cols.append(("var", j, 1))
            if j not in problem.nonneg:
                self.cols.append(("var", j, -1))
        self.sur0 = len(self.cols)
        for i in range(len(problem.ge_rows)):
            self.cols.append(("sur", i))
        nstruct = len(self.cols)
        # a ge row with nonpositive rhs is flipped so its surplus column can
        # start basic; only the remaining rows need artificial variables
        self.art_of_row = {}
        for ridx, (r, b, surplus) in enumerate(rows):
            if surplus is None or b > 0:
                self.art_of_row[ridx] = len(self.art_of_row)
        self.nart = len(self.art_of_row)
        for ridx in sorted(self.art_of_row, key=self.art_of_row.get):
            self.cols.append(("art", ridx))
        self.sigma = []
        self.T = []
        self.den = []
        self.basis = []
        for ridx, (r, b, surplus) in enumerate(rows):
            if surplus is not None and b <= 0:
                sg = -1
            else:
                sg = -1 if b < 0 else 1
            self.sigma.append(sg)
            # the row times d, the least common denominator of its entries
            d = lcm(b.denominator, *(a.denominator for a in r))
            row = {}
            for c, (_, j, s) in enumerate(self.cols[:self.sur0]):
                a = r[j]
                if a:
                    row[c] = sg * s * a.numerator * (d // a.denominator)
            if surplus is not None:
                row[self.sur0 + surplus] = -sg * d
            art = self.art_of_row.get(ridx)
            if art is not None:
                row[nstruct + art] = d
            if b:
                row[_RHS] = sg * b.numerator * (d // b.denominator)
            self.T.append(row)
            self.den.append(d)
            if art is not None:
                self.basis.append(nstruct + art)
            else:
                self.basis.append(self.sur0 + surplus)
        self.banned = set()

    def set_costs(self, costs):
        """Reduced costs ``costs - c_B . rows`` for the current basis;
        ``costs`` holds one int or Fraction per column."""
        den = lcm(*(c.denominator for c in costs))
        z = [c.numerator * (den // c.denominator) for c in costs] + [0]
        for row, d, bcol in zip(self.T, self.den, self.basis):
            cb = costs[bcol]
            if cb != 0:
                # z/den - (n/m) * row/d over the denominator den*m*d
                n, m = cb.numerator, cb.denominator
                zs, rs = m * d, n * den
                z = [a * zs for a in z]
                for c, b in row.items():
                    z[c] -= b * rs
                z, den = _reduced(z, den * zs)
        self.z, self.zden = z, den

    @property
    def value(self):
        return Fraction(-self.z[_RHS], self.zden)

    def pivot(self, r, c):
        row = self.T[r]
        p = row[c]
        if p < 0:
            row = {j: -a for j, a in row.items()}
            p = -p
        # row / p is the pivot row scaled to a unit pivot entry
        g = gcd(p, *row.values())
        if g > 1:
            row = {j: a // g for j, a in row.items()}
            p //= g
        self.T[r] = row
        self.den[r] = p
        items = row.items()
        for i, other in enumerate(self.T):
            f = other.get(c)
            if f is None or i == r:
                continue
            # p * other - f * row over the union of the two supports
            if p != 1:
                for j in other:
                    other[j] *= p
            for j, b in items:
                a = other.get(j, 0) - f * b
                if a:
                    other[j] = a
                else:
                    del other[j]
            d = self.den[i] * p
            g = gcd(d, *other.values())
            if g > 1:
                for j in other:
                    other[j] //= g
                d //= g
            self.den[i] = d
        f = self.z[c]
        if f != 0:
            z = [p * a for a in self.z] if p != 1 else self.z
            for j, b in items:
                z[j] -= f * b
            self.z, self.zden = _reduced(z, self.zden * p)
        self.basis[r] = c

    def run(self):
        """Bland-rule iterations; returns "optimal" or "unbounded"."""
        ncols = len(self.cols)
        while True:
            z = self.z
            enter = None
            for c in range(ncols):
                if z[c] < 0 and c not in self.banned:
                    enter = c
                    break
            if enter is None:
                return "optimal"
            # min ratio rhs_i / a_i over a_i > 0; the row denominators cancel
            leave = None
            for i, row in enumerate(self.T):
                a = row.get(enter, 0)
                if a > 0:
                    rn = row.get(_RHS, 0)
                    if leave is None or rn * ba < bn * a or (
                            rn * ba == bn * a
                            and self.basis[i] < self.basis[leave]):
                        leave, bn, ba = i, rn, a
            if leave is None:
                self.unbounded_col = enter
                return "unbounded"
            self.pivot(leave, enter)

    def entry(self, i, c):
        return Fraction(self.T[i].get(c, 0), self.den[i])

    def reduced_cost(self, c):
        return Fraction(self.z[c], self.zden)

    def extract_point(self):
        x = [Fraction(0)] * self.problem.num_vars
        for i, bcol in enumerate(self.basis):
            tag = self.cols[bcol]
            if tag[0] == "var":
                _, j, s = tag
                x[j] += s * self.entry(i, _RHS)
        return tuple(x)

    def extract_ray(self, enter):
        d = [Fraction(0)] * self.problem.num_vars
        tag = self.cols[enter]
        if tag[0] == "var":
            d[tag[1]] += tag[2]
        for i, bcol in enumerate(self.basis):
            btag = self.cols[bcol]
            if btag[0] == "var":
                _, j, s = btag
                d[j] -= s * self.entry(i, enter)
        return tuple(d)


def _reduced(row, den):
    """(row, den) divided by their common gcd."""
    g = gcd(den, *row)
    if g > 1:
        return [a // g for a in row], den // g
    return row, den


def solve(problem):
    """Exact two-phase simplex.  Deterministic; outcome verified before return."""
    tab = _Tableau(problem)
    nart = tab.nart
    art0 = len(tab.cols) - nart
    tab.set_costs([0] * art0 + [1] * nart)
    if tab.run() != "optimal":
        raise CertificateError("phase 1 unbounded, but it is bounded below by zero")
    if tab.value > 0:
        mult = []
        ne = len(problem.eq_rows)
        nrows = ne + len(problem.ge_rows)
        for i in range(nrows):
            art = tab.art_of_row.get(i)
            if art is not None:
                y = 1 - tab.reduced_cost(art0 + art)
            else:
                y = -tab.reduced_cost(tab.sur0 + (i - ne))
            mult.append(tab.sigma[i] * y)
        cert = tuple(mult)
        verify_farkas(problem, cert)
        return LpOutcome(status=INFEASIBLE, certificate=cert)

    # drive leftover artificials out of the basis, dropping redundant rows
    for i in range(len(tab.basis) - 1, -1, -1):
        bcol = tab.basis[i]
        if tab.cols[bcol][0] != "art":
            continue
        pivot_col = min((c for c in tab.T[i] if 0 <= c < art0), default=None)
        if pivot_col is None:
            del tab.T[i]
            del tab.den[i]
            del tab.basis[i]
        else:
            tab.pivot(i, pivot_col)
    tab.banned = set(range(art0, len(tab.cols)))

    if problem.objective is None:
        point = tab.extract_point()
        verify_point(problem, point)
        return LpOutcome(status=FEASIBLE, point=point)

    costs = [0] * len(tab.cols)
    for c, tag in enumerate(tab.cols):
        if tag[0] == "var":
            _, j, s = tag
            costs[c] = s * problem.objective[j]
    tab.set_costs(costs)
    status = tab.run()
    if status == "unbounded":
        point = tab.extract_point()
        ray = tab.extract_ray(tab.unbounded_col)
        verify_ray(problem, point, ray)
        return LpOutcome(status=UNBOUNDED, point=point, ray=ray)
    point = tab.extract_point()
    verify_point(problem, point)
    optimum = dot(problem.objective, point)
    if optimum != tab.value:
        raise CertificateError("optimum does not match the tableau value")
    return LpOutcome(status=FEASIBLE, point=point, optimum=optimum)


@dataclass(frozen=True)
class ConicOutcome:
    member: bool
    weights: tuple | None = None      # aligned with the generator list
    separating: tuple | None = None   # h with h(target) < 0 <= h(generator)


def conic_membership(target, generators):
    """Exact membership of ``target`` in the cone spanned by ``generators``.

    Member: nonnegative weights whose combination re-sums to the target
    exactly.  Non-member: a separating functional derived from the Farkas
    certificate, normalized to a primitive integer vector.
    """
    target = vec(target)
    gens = [vec(g) for g in generators]
    n = len(target)
    for g in gens:
        if len(g) != n:
            raise ValueError("generator dimension mismatch")
    eq_rows = [(tuple(g[i] for g in gens), target[i]) for i in range(n)]
    problem = LpProblem.build(len(gens), eq_rows=eq_rows, nonneg=range(len(gens)))
    out = solve(problem)
    if out.status == FEASIBLE:
        weights = out.point
        total = [Fraction(0)] * n
        for w, g in zip(weights, gens):
            for i, a in enumerate(g):
                total[i] += w * a
        if tuple(total) != target:
            raise CertificateError("decomposition does not re-sum")
        return ConicOutcome(member=True, weights=weights)
    if out.status != INFEASIBLE:
        raise CertificateError(f"unexpected LP status {out.status!r}")
    h = primitive([-lam for lam in out.certificate])
    if dot(h, target) >= 0 or any(dot(h, g) < 0 for g in gens):
        raise CertificateError("separating functional failed verification")
    return ConicOutcome(member=False, separating=h)
