"""Exact rational feasibility with self-verifying certificates.

An LP here has no objective: ``solve`` decides whether the rows have a
solution, by phase 1 of the primal simplex with guarded Dantzig pricing:
free columns first, ratio ties broken lexicographically (Dantzig, Orden and
Wolfe 1955), and Bland's rule once a run of degenerate pivots repeats a
basis, so every run terminates and identical problems pivot identically
(``_Tableau.run``).  The tableau is fraction-free and sparse, with one kind
of row: a dict of int entries whose denominator is its own positive entry
at its basic column.  The reduced costs of the phase 1 objective are one
more such row.  One step, cross-multiplication over the union of two
supports and a gcd reduction (Edmonds 1967), does every pivot and prices
the cost row, so the tableau takes the same pivots as a dense tableau of
Fractions while a pivot touches only nonzero entries.  A free variable that
enters is frozen and an artificial that leaves is deleted (``solve``); an
infeasible problem's Farkas multipliers come from the final basis
(``_Tableau.multipliers``).  No floating point, no presolve.  The API
takes int or Fraction rows and returns points, weights and Farkas
certificates as Fractions, and a conic separator as primitive ints.  A
problem holds its rows only cleared to integers (``LpProblem.int_rows``);
the tableau and the two judges below, ``verify_point`` and
``verify_farkas``, read them, each judge an exact comparison.  ``build``
clears Fraction rows once.  A conic LP arrives as such rows, one per
coordinate with the target's entry as the rhs: ``conic_membership`` clears
each coordinate of a list of generators once, the hierarchy builds its rows
from ints, and both hand them to ``conic_solve``, which returns the point
of ``solve`` as the weights or only rescales its certificate into a
primitive separator.  ``solve`` judges every outcome once, against the
original problem, before it is returned:

* feasible: the point satisfies every row exactly;
* infeasible: Farkas multipliers (free on equality rows, nonnegative on
  inequality rows) combine the rows into ``r . x >= rho`` with ``rho > 0``
  while ``r`` is nonpositive on nonnegative variables and zero on free
  ones, which no point can satisfy.

A failed re-verification raises ``CertificateError``, an explicit raise
that ``python -O`` does not strip.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .linalg import clear_denominators, primitive
from .linalg import solve as linear_solve
from .records import record
from .scalars import rational

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

_RHS = -1  # key of the right-hand side in a sparse tableau row
_OBJ = -2  # key of the objective column, where the reduced-cost row is basic


class CertificateError(AssertionError):
    """A result failed its exact re-check against the problem data."""


class LpProblem:
    """Find x with eq rows (= rhs), ge rows (>= rhs), x_j >= 0 for j in
    nonneg and the remaining variables free.

    The rows are held cleared to integers, the first ``num_eq`` of them eq
    rows: each of ``int_rows`` is ``(ints, d)``, a tuple of ``num_vars + 1``
    ints with the rhs last over the least common denominator d > 0 of the
    row.  ``build`` makes a problem from Fraction rows.  The solver and its
    re-checks read only ``int_rows``; ``eq_rows`` and ``ge_rows`` are the
    rows as Fractions, formed each time they are read."""

    def __init__(self, num_vars, int_rows, num_eq, nonneg):
        for ints, d in int_rows:
            if len(ints) != num_vars + 1:
                raise ValueError("row length does not match num_vars")
            if d <= 0:
                raise ValueError("row denominator must be positive")
        if not 0 <= num_eq <= len(int_rows):
            raise ValueError("num_eq out of range")
        if any(not 0 <= j < num_vars for j in nonneg):
            raise ValueError("nonneg index out of range")
        self.num_vars, self.int_rows = num_vars, int_rows
        self.num_eq, self.nonneg = num_eq, nonneg

    @staticmethod
    def build(num_vars, eq_rows=(), ge_rows=(), nonneg=()):
        """The problem of int or Fraction rows (r, b), each cleared once."""
        eqs = tuple(eq_rows)
        rows = tuple((tuple(ints), d) for ints, d in (
            clear_denominators(rational((*r, b))) for r, b in (*eqs, *ge_rows)))
        return LpProblem(num_vars, rows, len(eqs), frozenset(nonneg))

    def __repr__(self):
        return (f"LpProblem(num_vars={self.num_vars!r}, eq_rows={self.eq_rows!r}, "
                f"ge_rows={self.ge_rows!r}, nonneg={self.nonneg!r})")

    @property
    def eq_rows(self):
        return _fraction_rows(self.int_rows[:self.num_eq])

    @property
    def ge_rows(self):
        return _fraction_rows(self.int_rows[self.num_eq:])


def _fraction_rows(int_rows):
    """The rows (r, b) of cleared rows ``(ints, d)``, as Fractions."""
    return tuple((tuple(Fraction(a, d) for a in ints[:-1]), Fraction(ints[-1], d))
                 for ints, d in int_rows)


@record
class LpOutcome:
    status: str
    point: tuple | None = None
    certificate: tuple | None = None  # Farkas multipliers: eq rows then ge rows
    ray: tuple | None = None          # always None; perfbench/tracer.py reads it


def _excess(int_rows, x):
    """For each cleared row (r, b) of ``int_rows``, an int with the sign of
    r . x - b; ``x`` is cleared to integers once for all rows."""
    xs, _ = clear_denominators((*x, -1))
    out = []
    for ints, _ in int_rows:
        if len(ints) != len(xs):
            raise ValueError(f"row of length {len(ints) - 1} against {len(x)} values")
        out.append(sum(map(mul, ints, xs)))
    return out


def _combination(int_rows, mult, width):
    """The row sum sum_i mult_i (r_i, b_i) of rows of ``width`` places (the
    rhs last) as ints with the same signs, entry by entry; the mult_i / d_i
    are cleared to integers once."""
    if len(mult) != len(int_rows):
        raise ValueError(f"{len(mult)} multipliers against {len(int_rows)} rows")
    ms, _ = clear_denominators([Fraction(m, d) for m, (_, d) in zip(mult, int_rows)])
    total = [0] * width
    for m, (ints, _) in zip(ms, int_rows):
        if m:
            total = [t + m * a for t, a in zip(total, ints, strict=True)]
    return total


def verify_point(problem, point):
    if len(point) != problem.num_vars:
        raise CertificateError("point arity mismatch")
    ne = problem.num_eq
    excess = _excess(problem.int_rows, point)
    if any(excess[:ne]):
        raise CertificateError("equality row violated")
    if any(e < 0 for e in excess[ne:]):
        raise CertificateError("inequality row violated")
    for j in problem.nonneg:
        if point[j] < 0:
            raise CertificateError("sign constraint violated")


def verify_farkas(problem, mult):
    ne = problem.num_eq
    if len(mult) != len(problem.int_rows):
        raise CertificateError("multiplier arity mismatch")
    for lam in mult[ne:]:
        if lam < 0:
            raise CertificateError("inequality multiplier must be nonnegative")
    *combined, rho = _combination(problem.int_rows, mult, problem.num_vars + 1)
    if rho <= 0:
        raise CertificateError("Farkas combination has nonpositive rhs")
    for j, a in enumerate(combined):
        if j in problem.nonneg:
            if a > 0:
                raise CertificateError("Farkas row positive on a nonnegative variable")
        elif a != 0:
            raise CertificateError("Farkas row nonzero on a free variable")


class _Tableau:
    """Sparse simplex tableau over integers, with one kind of row.  A row is
    a dict from column to nonzero int, with the right-hand side under the
    key ``_RHS``; a column missing from the dict is zero there.  Row i is
    basic in column ``basis[i]``, and its entry there is positive and is its
    denominator: the real row is ``T[i] / T[i][basis[i]]``.  The reduced-
    cost row ``z`` is one more such row, basic in the objective column
    ``_OBJ``, so that ``-z[_RHS] / z[_OBJ]`` is the objective value.  Every
    row is kept gcd-reduced over its nonzeros.  A column is a position:
    x_j is column j, the surplus of ge row i is column ``sur0 + i``, and
    the artificial of problem row r, if it has one, is column ``art0 + r``.
    ``free`` holds the columns of the free variables.  Once a free column
    is basic, its row leaves ``T`` and ``basis`` for ``kept`` and the
    column joins ``frozen``: the full basis is ``basis`` and ``frozen``.
    The tableau starts at phase 1: each row basic in its artificial or its
    surplus, and ``z`` pricing the sum of the artificials."""

    def __init__(self, problem):
        self.problem = problem
        ne, nv = problem.num_eq, problem.num_vars
        self.free = {j for j in range(nv) if j not in problem.nonneg}
        self.sur0, self.art0 = nv, nv + len(problem.int_rows) - ne
        self.sigma, self.T, self.basis = [], [], []
        self.frozen = []  # basic free columns, whose rows are gone
        self.kept = []  # the row each frozen column took out, as it left
        # row r is sigma_r times ints, the problem row times d, the least
        # common denominator of its entries: ints[-1] has the rhs's sign
        for r, (ints, d) in enumerate(problem.int_rows):
            b, sur = ints[-1], self.sur0 + r - ne
            # a ge row with nonpositive rhs is flipped so its surplus column
            # starts basic; only the remaining rows need an artificial
            flipped = r >= ne and b <= 0
            sg = -1 if flipped or b < 0 else 1
            row = {c: sg * a for c, a in enumerate(ints[:-1]) if a}
            if r >= ne:
                row[sur] = -sg * d
            if b:
                row[_RHS] = sg * b
            bcol = sur if flipped else self.art0 + r
            row[bcol] = d  # the basic entry is d > 0 either way
            self.sigma.append(sg)
            self.T.append(row)
            self.basis.append(bcol)
        # phase 1 costs 1 at each artificial: row r starts basic in column
        # art0 + r exactly when it has one
        self.set_costs([0] * self.art0 + [int(c >= self.art0) for c in self.basis])

    def set_costs(self, costs):
        """The row ``z`` of reduced costs ``costs - c_B . rows`` for the
        current basis; ``costs`` holds one int or Fraction per column."""
        ints, d = clear_denominators(costs)
        z = {c: a for c, a in enumerate(ints) if a}
        z[_OBJ] = d
        for row, bcol in zip(self.T, self.basis):
            if bcol in z:
                _eliminate(z, row, bcol)
        self.z = z

    @property
    def value(self):
        return Fraction(-self.z.get(_RHS, 0), self.z[_OBJ])

    def pivot(self, r, c):
        """Make column c basic in row r.  The ratio test of ``run`` chooses
        a row that reads positive at c, or negative where a free column
        enters downward; such a row is negated once, so its entry at c
        becomes its positive denominator either way.  A free column is then
        frozen with its row taken out."""
        row = self.T[r]
        if self.basis[r] >= self.art0:
            # a leaving artificial leaves the problem: its column is nonzero
            # only in its own row, so deleting that entry drops the column
            del row[self.basis[r]]
        if row[c] < 0:
            for j in row:
                row[j] = -row[j]
        _reduce(row)
        self.basis[r] = c
        for other in (*self.T, self.z):
            if c in other and other is not row:
                _eliminate(other, row, c)
        if c in self.free:
            # a basic free variable never leaves, and its column is now zero
            # in every other row and in z: its row is no longer pivoted, and
            # is kept as it stands for ``extract_point``
            self.kept.append(self.T.pop(r))
            del self.basis[r]
            self.frozen.append(c)

    def run(self):
        """Guarded Dantzig iterations; returns "optimal" or "unbounded".
        A column's price is its reduced cost a, or -|a| for a free column,
        which enters downward when a > 0: the entering column moves in the
        direction s = -sign(z[enter]).  A free column with a nonzero cost
        enters before any sign-constrained one (Maros 2003, ch. 9); within
        each kind the most negative price enters, the lowest index on ties
        (every entry of ``z`` shares the denominator ``z[_OBJ]``, so the
        ints compare directly).  The leaving row has the least ratio
        rhs / entry; a tie goes to the lexicographically least row of
        surplus entries over entries (Dantzig, Orden and Wolfe 1955), and
        then to the lowest basic column.  Through a run of degenerate
        pivots, where the leaving row's rhs is 0, the bases are kept; once
        one repeats, the lowest column of each kind with a negative price
        enters instead and ties go to the lowest basic column alone
        (Bland's rule) until the next non-degenerate pivot.  Only
        structural columns enter: each artificial is basic until it leaves,
        and then its column is gone."""
        art0, free = self.art0, self.free
        seen = set()  # bases left by degenerate pivots since the last other one
        bland = False
        while True:
            if seen and not bland:
                bland = tuple(self.basis) in seen
            enter, best, thawed = None, 0, False
            for c, a in self.z.items():
                if c in free:
                    if not thawed:
                        # a free column outranks every sign-constrained one
                        enter, thawed = None, True
                    a = -abs(a)
                elif thawed or a > 0 or not 0 <= c < art0:
                    continue
                if enter is None or (c < enter if bland else
                                     a < best or a == best and c < enter):
                    enter, best = c, a
            if enter is None:
                return "optimal"
            # min ratio rhs_i / a_i over a_i > 0, where a_i is row i's entry
            # at the entering column times s; the row denominators cancel
            s = 1 if self.z[enter] < 0 else -1
            leave = None
            for i, row in enumerate(self.T):
                a = s * row.get(enter, 0)
                if a > 0:
                    rn = row.get(_RHS, 0)
                    if leave is not None:
                        d = rn * ba - bn * a
                        if d == 0 and not bland:
                            d = self._lex_diff(row, a, self.T[leave], ba)
                        if d > 0 or d == 0 and self.basis[i] > self.basis[leave]:
                            continue
                    leave, bn, ba = i, rn, a
            if leave is None:
                return "unbounded"
            if bn:
                seen.clear()
                bland = False
            elif enter in free:
                seen.clear()  # the live basis shrinks, so none of them recurs
            elif not bland:
                seen.add(tuple(self.basis))
            self.pivot(leave, enter)

    def _lex_diff(self, row, a, other, oa):
        """row[c] oa - other[c] a at the first surplus column c where it is
        not 0, or 0 if there is none, as in an LP without ge rows, which has
        no surplus column: negative when ``row`` over its entry
        a at the entering column is lexicographically less than ``other``
        over its entry oa, both positive.  Under the perturbation of ge row
        i's rhs by -eps^(i+1), which adds eps^(i+1) times the surplus
        column of row i to the rhs column, these are the eps terms of the
        two ratios in turn."""
        for c in range(self.sur0, self.art0):
            if d := row.get(c, 0) * oa - other.get(c, 0) * a:
                return d
        return 0

    def multipliers(self):
        """The Farkas multipliers of an infeasible phase 1, one per problem
        row: m_i = sigma_i * y_i for the duals y = c_B B^-1 of the full final
        basis B, frozen columns included.  Divided by its d_i, row i of the
        tableau is sigma_i times the problem row, with -sigma_i at its
        surplus and 1 at its artificial.  So the surplus column of ge row i
        is -sigma_i e_i at cost 0, and its reduced cost is
        0 - y . (-sigma_i e_i) = m_i: ge row i reads m_i off the cost row as
        z[sur_i] / z[_OBJ], 0 where the surplus is basic.  A basic
        artificial of row i (cost 1, column e_i) gives y_i = 1, so
        m_i = sigma_i, which a ge row's surplus reads as well.  The
        other eq rows, whose artificial has left, are solved from
        y . a_j = 0 at each basic variable column j: sum_i m_i A_ij = 0.
        The artificial and surplus columns of B are multiples of unit
        columns at distinct rows, so the other rows and the basic variable
        columns make a square block of B, nonsingular because B is; the
        unknown rows are rows of that block, hence independent, and the
        solution is unique."""
        rows = self.problem.int_rows
        ne = self.problem.num_eq
        # every m_i times z[_OBJ], where known: ints
        zo = self.z[_OBJ]
        scaled = [None] * ne + [self.z.get(c, 0) for c in range(self.sur0, self.art0)]
        var_cols = []
        for bcol in (*self.basis, *self.frozen):
            if bcol >= self.art0:
                r = bcol - self.art0
                scaled[r] = self.sigma[r] * zo
            elif bcol < self.sur0:
                var_cols.append(bcol)
        known = [i for i, m in enumerate(scaled) if m]
        unknown = [i for i, m in enumerate(scaled) if m is None]
        # sum_i m_i ints_i[j] / d_i = 0 at each basic variable column j;
        # times z[_OBJ] L for the lcm L of the known d_i, in the unknowns
        # u_i = z[_OBJ] L m_i / d_i
        scale = lcm(*(rows[i][1] for i in known))
        weights = [(scaled[i] * (scale // rows[i][1]), rows[i][0]) for i in known]
        system = [[rows[i][0][j] for i in unknown] for j in var_cols]
        rhs = [-sum(w * ints[j] for w, ints in weights) for j in var_cols]
        solution = linear_solve(system, rhs)
        if solution is None:
            raise CertificateError("final phase 1 basis is singular")
        mult = [Fraction(m, zo) if m is not None else None for m in scaled]
        for i, u in zip(unknown, solution):
            mult[i] = u * Fraction(rows[i][1], zo * scale)
        return tuple(mult)

    def extract_point(self):
        """The basic solution.  A live basic column reads its row.  A frozen
        variable x_j is back-substituted from the row it took out of the
        tableau, last frozen first: that row reads x_j at its positive
        entry at column j, and each of its other columns, a variable's or a
        surplus, was nonbasic when it froze (a basic column is zero outside
        its own row), so is now nonbasic (0), live basic (read from its row)
        or frozen later (already solved).  No earlier frozen column is in
        it, since a freeze clears its column from every live row and later
        pivots use live rows only.  The basic solution of a basis is unique,
        so this is the point that solves the problem rows."""
        value = {}  # column -> its nonzero value
        for row, bcol in zip(self.T, self.basis):
            if _RHS in row:  # a live basic column is never free
                value[bcol] = Fraction(row[_RHS], row[bcol])
        for c, row in zip(reversed(self.frozen), reversed(self.kept)):
            # row[c] x_j = rhs - sum_col row[col] value[col], over the lcm
            # L of the values' denominators
            terms = [(a, value[col]) for col, a in row.items() if col in value]
            L = lcm(*(v.denominator for _, v in terms))
            rest = sum(a * v.numerator * (L // v.denominator) for a, v in terms)
            if u := row.get(_RHS, 0) * L - rest:
                value[c] = Fraction(u, L * row[c])
        zero = Fraction(0)
        return tuple(value.get(j, zero) for j in range(self.problem.num_vars))


def _reduce(row):
    """Divide the row in place by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _eliminate(other, row, c):
    """Clear column c of ``other`` in place with ``row``, which is basic in
    column c: with p = row[c] > 0 and f = other[c], ``other`` becomes
    p * other - f * row over the union of the two supports, gcd-reduced
    (Edmonds 1967).  The basic entry of ``other`` lies outside the support
    of ``row``, so it is multiplied by p and stays positive."""
    p, f = row[c], other[c]
    if p != 1:
        for j in other:
            other[j] *= p
    for j, b in row.items():
        a = other.get(j, 0) - f * b
        if a:
            other[j] = a
        else:
            del other[j]
    _reduce(other)


def solve(problem):
    """Exact phase 1 simplex.  Deterministic; outcome verified before return.

    Phase 1 minimizes the sum of the artificials, and an artificial that
    leaves the basis leaves the problem: its column is deleted and never
    enters again.  A free variable that enters is frozen: basic for good,
    its row leaves the tableau, and its column stays zero in the live rows
    and the reduced costs, as every later pivot row is live.  With no sign
    to keep, it never blocks the ratio test.  At minimum 0 the point is read
    from the full final basis, each frozen value back-substituted from the
    row it took out; artificials left basic at level 0 do not change it.
    Three facts make this sound.

    * Minimum 0 exactly when the problem is feasible.  Each deletion fixes
      an artificial at 0, so the restricted phase 1 is the full one with
      some artificials fixed at 0.  A feasible point of the problem, with
      every artificial 0, is feasible for every restriction, so the
      minimum is 0.  Conversely, at minimum 0 every remaining artificial is
      0 and so is every deleted one, and the basic solution solves the rows.
    * The multipliers certify infeasibility.  At a minimum of value w > 0
      with full basis B, live and frozen columns, y = c_B B^-1 prices
      every remaining sign-constrained column at a nonnegative reduced
      cost and every free column at 0, since a reduced cost of either sign
      would let it enter: y . a_j <= 0 for every variable and surplus
      column a_j, whose costs are 0, with equality on a free variable, and
      y . b = w > 0.  Deleted artificial columns do not enter Farkas'
      lemma, which reads only the structural columns.  Take
      m_i = sigma_i y_i, where sigma_i = -1 on the rows the tableau
      negates.  Then sum_i m_i A_ij is zero on a free variable,
      nonpositive on a nonnegative one, and m_i >= 0 on ge row i (its
      surplus), and
      sum_i m_i b_i = w > 0: the certificate ``verify_farkas`` judges.
      ``_Tableau.multipliers`` reads m_i of each ge row off the reduced cost
      of its surplus column, and solves y . B = c_B for the rest.
    * Termination under the guarded rule of ``_Tableau.run``.  Each free
      variable enters at most once, so there are finitely many freezes.
      After the last, no free column ever has a nonzero reduced cost again,
      since it would enter first; the live rows make an LP in
      sign-constrained columns, priced as before free columns came first,
      and the argument below applies to it.  The ratio test's tie-break
      outside Bland's rule, lexicographic or by basic column, plays no part
      in it.  A negative reduced cost always
      meets a blocking row, as the sum of the artificials is at least 0.  A
      non-degenerate pivot strictly lowers the objective: the entering
      reduced cost is negative and the step is positive.  A degenerate
      pivot, and the deletion of an artificial column, which is nonbasic by
      then, leave the basic solution and the objective alone.  The objective
      is a function of the basis, so no basis recurs across a non-degenerate
      pivot, and as there are finitely many bases there are finitely many
      non-degenerate pivots.  A run of degenerate pivots either ends or
      repeats a basis, again because there are finitely many bases; at the
      first repeat Bland's rule takes over until the run ends.  Between
      deletions the column set is fixed and Bland's rule (Bland 1977) cannot
      cycle from any basis: its scan covers every nonbasic column of the
      restricted problem, since the remaining artificials are all basic, and
      under it the ratio test lets the smallest basic column leave on ties,
      reading no lexicographic key.  There are finitely many deletions, so
      the run ends.  The lexicographic tie-break alone would not repeat a
      basis while every live row's rhs and surplus entries are
      lexicographically positive, but an eq row with rhs 0 has no surplus
      entry while its artificial is basic, so the guard stays.
    """
    tab = _Tableau(problem)
    if tab.run() != "optimal":
        raise CertificateError("phase 1 unbounded, but it is bounded below by zero")
    if tab.value > 0:
        cert = tab.multipliers()
        verify_farkas(problem, cert)
        return LpOutcome(status=INFEASIBLE, certificate=cert)
    point = tab.extract_point()
    verify_point(problem, point)
    return LpOutcome(status=FEASIBLE, point=point)


@record
class ConicOutcome:
    member: bool
    weights: tuple | None = None      # aligned with the generator list
    separating: tuple | None = None   # int h, h(target) < 0 <= h(generator)


def conic_membership(target, generators):
    """Exact membership of ``target`` in the cone spanned by the list
    ``generators`` (``conic_solve``): one LP row per coordinate i, the
    generators' entries at i and then the target's, cleared once."""
    target = rational(target)
    gens = [rational(g) for g in generators]
    if any(len(g) != len(target) for g in gens):
        raise ValueError("generator dimension mismatch")
    rows = tuple((tuple(ints), d) for ints, d in map(clear_denominators,
                                                      zip(*gens, target)))
    return conic_solve(len(gens), rows)


def conic_solve(count, rows):
    """Exact membership of a target in the cone spanned by ``count``
    generators, given as the cleared rows ``(ints, d)`` of ``LpProblem``,
    one per coordinate: the generators' entries and then the target's.

    Member: the point of ``solve``, nonnegative weights that re-sum to the
    target exactly.  Non-member: the negated Farkas certificate of
    ``solve`` rescaled to a primitive integer vector h, so that
    h(target) < 0 <= h(generator).  ``solve`` has judged both, and a
    positive rescaling changes nothing ``verify_farkas`` tests, so neither
    is judged again.
    """
    # one eq row per coordinate: the generators' entries = the target's
    out = solve(LpProblem(count, rows, len(rows), frozenset(range(count))))
    if out.status == FEASIBLE:
        return ConicOutcome(member=True, weights=out.point)
    return ConicOutcome(member=False,
                        separating=primitive([-lam for lam in out.certificate]))
