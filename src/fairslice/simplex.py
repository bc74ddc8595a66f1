"""Exact linear programming over rationals.

A two-phase primal simplex on the Fraction tableau, held in integers: each
row is integers over a positive denominator of its own, in lowest terms,
and so are the reduced costs.  A row starts as the row written times s_r,
the lcm of its denominators, over s_r.  A pivot forms each touched row
from integer products and divides it by the gcd of its entries, rhs and
denominator, and leaves alone every row with a zero in the pivot column.
A row in lowest terms is the smallest integer form of its Fraction row,
so no stored integer is larger than the minor an integer-preserving
(Bareiss 1968) tableau would hold, and most are far smaller.  The
tableau is condensed, as in exact simplex codes since Avis & Fukuda
(1992): a row holds only the nonbasic columns, because a basic column is
a unit column that a pivot need not rewrite.  A `>=` row with rhs 0
enters negated as a `<=` row, on its slack, with no artificial.
Dantzig's rule picks the entering column: the largest reduced cost, ties
to the smaller column id.  The leaving row has the least ratio, ties to
the smaller basic column id.  Dantzig's rule can cycle on degenerate
programs, so after more than one degenerate pivot per row in a row the
entering column is picked by Bland's rule (Bland 1977), the smallest
improving column id, until the next pivot that moves the vertex.  Every
rule reads the Fraction tableau's signs, ratios and reduced costs off the
integers as they are, so the pivots are the ones that tableau would take.
Which optimal vertex phase two stops at depends on the pivot path, so a
last stage moves to one that does not: the lexicographically least
optimal x, by column.  Only columns of zero reduced cost enter it, and
together they span the optimal face.  For each structural column j in
turn it pivots x_j down to its least value on the face, entering by
Bland's rule, and then fixes at zero every free column that would raise
x_j again.  An entering column of zero reduced cost leaves the cost row
as it is, so the duals are those phase two ended with.
Every optimal solve is certified in integers before it is returned: the
vertex against each row, the multipliers' signs, dual feasibility
(A^T y >= c) and strong duality.  Fractions appear only at the boundary.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from fairslice.intervals import _scaled, frac

LESS = "<="
EQUAL = "=="
GREATER = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpProblem:
    """Maximize a linear objective over non-negative variables.

    Rows are added one at a time as (coefficients, sense, rhs) with sense
    one of the module constants LESS, EQUAL, GREATER.  Minimization is the
    caller's business: negate the objective.
    """

    def __init__(self, objective):
        self.objective = [frac(c) for c in objective]
        self.rows = []

    @property
    def n_vars(self):
        return len(self.objective)

    def add(self, coefficients, sense, rhs):
        coefficients = [frac(c) for c in coefficients]
        if len(coefficients) != self.n_vars:
            raise ValueError(
                "row has %d coefficients, problem has %d variables"
                % (len(coefficients), self.n_vars)
            )
        if sense not in (LESS, EQUAL, GREATER):
            raise ValueError("sense must be one of <=, ==, >=")
        self.rows.append((coefficients, sense, frac(rhs)))
        return self


@dataclass(frozen=True)
class LpSolution:
    """Outcome of a solve: a status plus, when optimal, the certificate.

    value and x are the exact optimum and the lexicographically least
    optimal x, a vertex.  duals holds one multiplier per input row, a
    certified dual optimum: each has the sign its row's sense asks,
    duals . rhs == value (strong duality) and A^T duals >= objective.  A
    program can have more than one dual optimum, and which one is
    returned can depend on the pivot path.  pivots counts simplex pivots
    across both phases and the last stage.
    """

    status: str
    value: object = None
    x: object = None
    duals: object = None
    pivots: int = 0


def lp_solve(problem, trace=None):
    """Solve an LpProblem exactly; trace, if given, receives tableau text."""
    return _Tableau(problem, trace).solve()


class _Tableau:
    # Column layout: the structural variables, then one slack or surplus
    # per row that is not ==, then one artificial per row that is not <=,
    # each in row order.  Rows are normalized to non-negative rhs up front,
    # and a >= row with rhs 0 to the <= row it negates to; flips are
    # remembered so the duals reported at the end refer to the rows as the
    # caller wrote them.
    #
    # The tableau is condensed: row i and the costs hold only the columns
    # listed in nonbasic, column nonbasic[q] at position q.  Column
    # basis[i] is dens[i] in row i and 0 in every other row, so it is not
    # stored.  A pivot swaps basis[r] and nonbasic[q]; as positions get
    # permuted, every rule breaks ties by column id, never by position.
    # Row i holds ints over its own denominator dens[i]: entry (i, j) of the
    # Fraction tableau, j = nonbasic[q], is body[i][q] / dens[i], and the
    # reduced costs are over cden.  Every row, with its rhs and denominator,
    # is in lowest terms (their gcd is 1), and so are the costs with cden
    # once a pivot has touched them.  Row r starts as the row written times
    # s_r, the lcm of its denominators, over s_r, with a >= row's surplus at
    # -s_r; s_r shares no factor with all of those integers.

    def __init__(self, problem, trace):
        self.problem = problem
        self.trace = trace
        self.pivots = 0
        n = problem.n_vars
        self.objective, self.cost_scale = _scaled(problem.objective)
        rows = []
        # Each row as written times s_r, with the rhs last, and s_r in
        # row_scales, for the certificate.
        self.written = []
        for coefficients, sense, rhs in problem.rows:
            ints, s = _scaled(coefficients + [rhs])
            self.written.append(ints)
            flipped = rhs < 0 or (rhs == 0 and sense == GREATER)
            if flipped:
                ints = [-v for v in ints]
                sense = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}[sense]
            rows.append((ints, sense, s, flipped))

        with_slack = [r for r, row in enumerate(rows) if row[1] != EQUAL]
        with_artificial = [r for r, row in enumerate(rows) if row[1] != LESS]
        slack_col = {r: n + k for k, r in enumerate(with_slack)}
        art_col = {r: n + len(with_slack) + k for k, r in enumerate(with_artificial)}
        self.artificials = set(art_col.values())
        self.cols = n + len(with_slack) + len(with_artificial)
        self.body = []
        self.rhs = []
        self.basis = []
        self.flipped = []
        # The structural columns and the surpluses start nonbasic, the
        # surplus of the k-th >= row at position n + k; every slack of a <=
        # row and every artificial starts basic.
        greater = [r for r, (_, sense, _, _) in enumerate(rows) if sense == GREATER]
        surplus_at = {r: n + k for k, r in enumerate(greater)}
        self.nonbasic = list(range(n)) + [slack_col[r] for r in greater]
        for r, (ints, sense, s, flipped) in enumerate(rows):
            row = ints[:n] + [0] * len(greater)
            if sense == GREATER:
                row[surplus_at[r]] = -s
            self.basis.append(slack_col[r] if sense == LESS else art_col[r])
            self.body.append(row)
            self.rhs.append(ints[n])
            self.flipped.append(flipped)
        self.id_col = list(self.basis)
        self.dens = [s for _, _, s, _ in rows]
        self.row_scales = list(self.dens)
        # Dropped redundant rows keep a dual of zero.
        self.row_of = list(range(len(rows)))

    def solve(self):
        if self.artificials:
            status = self._optimize(self._phase1_costs())
            if status != OPTIMAL or any(
                self.rhs[r] != 0
                for r in range(len(self.body))
                if self.basis[r] in self.artificials
            ):
                return LpSolution(INFEASIBLE, pivots=self.pivots)
            self._expel_artificials()
        status = self._optimize(self._phase2_costs())
        if status == UNBOUNDED:
            return LpSolution(UNBOUNDED, pivots=self.pivots)
        self._canonicalize()
        return self._certify()

    # ------------------------------------------------------------------
    # pivoting

    def _phase1_costs(self):
        # Maximize minus the artificial total.
        costs = [0] * self.cols
        for a in self.artificials:
            costs[a] = -1
        return self._reduce(costs)

    def _phase2_costs(self):
        return self._reduce(self.objective + [0] * (self.cols - len(self.objective)))

    def _reduce(self, costs):
        # Reduced costs of the nonbasic columns (a basic one's is 0), over
        # cden, the lcm of the row denominators.
        self.cden = math.lcm(*self.dens)
        reduced = [self.cden * costs[c] for c in self.nonbasic]
        for r, row in enumerate(self.body):
            factor = costs[self.basis[r]] * (self.cden // self.dens[r])
            if factor != 0:
                reduced = [v - factor * w for v, w in zip(reduced, row)]
        return reduced

    def _entering(self, costs, bland):
        # The position of the entering column, or None at an optimum.
        improving = [
            (c, q)
            for q, (c, v) in enumerate(zip(self.nonbasic, costs))
            if v > 0 and c not in self.artificials
        ]
        if not improving:
            return None
        if bland:
            return min(improving)[1]
        return max(improving, key=lambda cq: (costs[cq[1]], -cq[0]))[1]

    def _leaving(self, q):
        # The row of least rhs / entry over the positive entries at q,
        # compared by cross-multiplying; ties go to the smallest basic
        # column.  None when no entry is positive.
        leaving = None
        for r, row in enumerate(self.body):
            a = row[q]
            if a <= 0:
                continue
            if leaving is not None:
                left = self.rhs[r] * best_a
                right = best_rhs * a
                if left > right or (left == right and self.basis[r] > self.basis[leaving]):
                    continue
            leaving, best_rhs, best_a = r, self.rhs[r], a
        return leaving

    def _optimize(self, costs):
        # Count the degenerate pivots in a row; past one per row, Bland's
        # rule enters until a pivot moves the vertex.
        degenerate = 0
        while True:
            q = self._entering(costs, degenerate > len(self.body))
            if q is None:
                self.costs = costs
                return OPTIMAL
            leaving = self._leaving(q)
            if leaving is None:
                return UNBOUNDED
            degenerate = degenerate + 1 if self.rhs[leaving] == 0 else 0
            self._pivot(leaving, q, costs)

    def _canonicalize(self):
        # Move to the lexicographically least optimal x.  The face is held
        # by the set of columns fixed at zero: at first every artificial and
        # every column of nonzero reduced cost.  Minimizing a basic x_j has
        # reduced costs the entries of its row, signed as the Fraction
        # tableau's: a free column with a positive entry lowers x_j, one
        # with a negative entry raises it.  A column that leaves the basis
        # has zero reduced cost for the objective and each x_j before, so
        # no pivot changes the cost row or what the stage has fixed.
        fixed = self.artificials | {c for c, v in zip(self.nonbasic, self.costs) if v != 0}
        for j in range(self.problem.n_vars):
            while j in self.basis:
                row = self.body[self.basis.index(j)]
                free = [(c, q) for q, c in enumerate(self.nonbasic) if c not in fixed]
                entering = min(((c, q) for c, q in free if row[q] > 0), default=None)
                if entering is None:
                    fixed.update(c for c, q in free if row[q] < 0)
                    break
                q = entering[1]
                self._pivot(self._leaving(q), q)
            else:
                fixed.add(j)

    def _pivot(self, r, q, costs=None):
        # Column nonbasic[q] enters, basis[r] leaves and takes position q.
        self.pivots += 1
        if self.trace is not None:
            self.trace.write(
                "pivot %d: column %d enters, row %d leaves\n"
                % (self.pivots, self.nonbasic[q], r)
            )
        # Row r stays and is now over |p|, which keeps it in lowest terms:
        # its entries, rhs and denominator are the old ones with p and
        # dens[r] swapped.  A negative pivot (only when expelling
        # artificials) first negates row r, which pivots to the same rows.
        # The leaving column was b = dens[r] in row r (-dens[r] once
        # negated) and 0 elsewhere, so at q row r now holds b.  Every other
        # row with g != 0 at q, and the costs, are eliminated at q against
        # row r (_eliminate); a row with g == 0 is left alone.
        row = self.body[r]
        rhs = self.rhs[r]
        p = row[q]
        b = self.dens[r]
        if p < 0:
            p, b = -p, -b
            self.body[r] = row = [-w for w in row]
            self.rhs[r] = rhs = -rhs
        for other, body_row in enumerate(self.body):
            if body_row[q] != 0 and other != r:
                self.body[other], self.rhs[other], self.dens[other] = _eliminate(
                    body_row, self.rhs[other], self.dens[other], row, rhs, p, b, q
                )
        if costs is not None:
            costs[:], _, self.cden = _eliminate(costs, 0, self.cden, row, 0, p, b, q)
        row[q] = b
        self.dens[r] = p
        self.basis[r], self.nonbasic[q] = self.nonbasic[q], self.basis[r]
        if self.trace is not None:
            self._dump()

    def _expel_artificials(self):
        # Basic artificials sit at zero after a feasible phase one; pivot
        # them out where a live column allows it, drop redundant rows.
        keep, dropped = [], []
        for r in range(len(self.body)):
            if self.basis[r] not in self.artificials:
                keep.append(r)
                continue
            col = min(
                (
                    c
                    for c, v in zip(self.nonbasic, self.body[r])
                    if c not in self.artificials and v != 0
                ),
                default=None,
            )
            if col is None:
                dropped.append(self.basis[r])
                continue
            self._pivot(r, self.nonbasic.index(col))
            keep.append(r)
        # A dropped row's artificial is 0 in every row kept: it turns nonbasic.
        self.nonbasic += dropped
        self.body = [self.body[r] + [0] * len(dropped) for r in keep]
        self.rhs = [self.rhs[r] for r in keep]
        self.dens = [self.dens[r] for r in keep]
        self.basis = [self.basis[r] for r in keep]
        self.row_of = [self.row_of[r] for r in keep]

    # ------------------------------------------------------------------
    # certification

    def _certify(self):
        # In ints: row r as written times s_r, with the rhs last; the vertex
        # times den, the lcm of the row denominators and cden; and, read off
        # the costs of the slacks and artificials, the multiplier of each
        # such row times den * the objective's scale.  The sums over rows
        # (strong duality, A^T y >= c) take multiplier r times common // s_r,
        # common the lcm of the s_r, as if every row were over common.
        n = self.problem.n_vars
        den = math.lcm(self.cden, *self.dens)
        written = self.written
        x = [0] * n
        for r, b in enumerate(self.basis):
            if b < n:
                x[b] = self.rhs[r] * (den // self.dens[r])
        duals = [0] * len(written)
        # A basic slack or artificial has reduced cost 0, so its row's dual is 0.
        position = {c: q for q, c in enumerate(self.nonbasic)}
        for original in self.row_of:
            q = position.get(self.id_col[original])
            y = 0 if q is None else -self.costs[q] * (den // self.cden)
            duals[original] = -y if self.flipped[original] else y
        objective = self.objective
        value = sum(c * v for c, v in zip(objective, x))
        common = math.lcm(*self.row_scales)
        weights = [y * (common // s) for y, s in zip(duals, self.row_scales)]

        checks = all(v >= 0 for v in x) and common * value == sum(
            w * row[n] for w, row in zip(weights, written)
        )
        for (_, sense, _), row, y in zip(self.problem.rows, written, duals):
            lhs = sum(a * v for a, v in zip(row, x))
            if sense == LESS:
                checks = checks and lhs <= den * row[n] and y >= 0
            elif sense == GREATER:
                checks = checks and lhs >= den * row[n] and y <= 0
            else:
                checks = checks and lhs == den * row[n]
        # Dual feasibility, A^T y >= c, column by column.
        checks = checks and all(
            sum(w * row[j] for w, row in zip(weights, written)) >= common * den * objective[j]
            for j in range(n)
        )
        if not checks:
            raise RuntimeError("simplex returned an uncertified solution")
        scale = den * self.cost_scale
        duals = tuple(Fraction(y, scale) for y in duals)
        point = tuple(Fraction(v, den) for v in x)
        return LpSolution(OPTIMAL, Fraction(value, scale), point, duals, self.pivots)

    def _dump(self):
        # Each entry as the Fraction tableau holds it, basic columns included.
        for r, row in enumerate(self.body):
            full = [0] * self.cols
            full[self.basis[r]] = self.dens[r]
            for c, v in zip(self.nonbasic, row):
                full[c] = v
            d = self.dens[r]
            self.trace.write(
                "  [%s | %s] basic %d\n"
                % (
                    " ".join(str(Fraction(v, d)) for v in full),
                    Fraction(self.rhs[r], d),
                    self.basis[r],
                )
            )


def _eliminate(v, v_rhs, d, w, w_rhs, p, b, q):
    # Row v, with rhs v_rhs, over d, less g / d times the pivot row w, with
    # rhs w_rhs, over p, where g = v[q] and w[q] = p: (p * v - g * w) over
    # d * p, with p and g first divided by their gcd and the result by its
    # content.  Position q becomes the leaving column, which is b in w and
    # 0 in v.  The costs pass rhs 0.
    g = v[q]
    k = math.gcd(p, g)
    p, g = p // k, g // k
    new = [p * x - g * y for x, y in zip(v, w)]
    new[q] = -g * b
    new_rhs = p * v_rhs - g * w_rhs
    d *= p
    k = math.gcd(d, new_rhs, *new)
    if k == 1:
        return new, new_rhs, d
    return [x // k for x in new], new_rhs // k, d // k
