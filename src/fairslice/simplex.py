"""Exact linear programming over rationals.

A two-phase primal simplex on an integer-preserving tableau (Edmonds
1967; Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 1968).  Each row is scaled to integers
once and keeps its own denominator, so a pivot is integer products and
exact divisions with no gcd, and leaves alone every row with a zero in the
pivot column.  The tableau is condensed, as in exact simplex codes since
Avis & Fukuda (1992): a row holds only the nonbasic columns, because a
basic column is a unit column that a pivot need not rewrite.  A `>=` row
with rhs 0 enters negated as a `<=` row, on its slack, with no
artificial.  Bland's rule picks both the entering and the leaving
variable by smallest column id, trading pivot count for a termination
guarantee on degenerate instances; the scaling keeps every sign and every
ratio order of the Fraction tableau, so the pivots are the ones that
tableau would take.
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

    value and x are the exact optimum and an optimal vertex; duals holds one
    multiplier per input row with duals . rhs == value (strong duality).
    pivots counts simplex pivots across both phases.
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
    # Row r is multiplied by s_r, the lcm of its denominators, and its slack
    # and artificial stand for s_r times the ones of the row as written, so
    # the starting basis is still the identity.  scale[j] is s_r for those
    # two columns and 1 for a structural one.
    #
    # The tableau is condensed: row i and the costs hold only the columns
    # listed in nonbasic, column nonbasic[q] at position q.  Column
    # basis[i] is dens[i] in row i and 0 in every other row, so it is not
    # stored.  A pivot swaps basis[r] and nonbasic[q]; as positions get
    # permuted, Bland's rule compares column ids, never positions.  Row i
    # holds ints over its own denominator dens[i]: entry (i, j) of the
    # Fraction tableau, j = nonbasic[q], is
    # body[i][q] * scale[j] / (dens[i] * scale[basis[i]]).  den is the last
    # pivot, the costs are over den, and a row over den holds what the
    # one-denominator (Bareiss) tableau would.

    def __init__(self, problem, trace):
        self.problem = problem
        self.trace = trace
        self.pivots = 0
        n = problem.n_vars
        rows = []
        # Each row as written times s_r, with the rhs last, for the certificate.
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
        self.den = 1
        self.scale = [1] * self.cols
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
            if sense == LESS:
                self.scale[slack_col[r]] = s
                self.basis.append(slack_col[r])
            elif sense == GREATER:
                row[surplus_at[r]] = -1
                self.scale[slack_col[r]] = self.scale[art_col[r]] = s
                self.basis.append(art_col[r])
            else:
                self.scale[art_col[r]] = s
                self.basis.append(art_col[r])
            self.body.append(row)
            self.rhs.append(ints[n])
            self.flipped.append(flipped)
        self.id_col = list(self.basis)
        self.dens = [1] * len(rows)
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
        return self._certify()

    # ------------------------------------------------------------------
    # pivoting

    def _phase1_costs(self):
        # Maximize minus the artificial total.  An artificial here is s_r
        # times the written one, so it weighs 1/s_r; all weights are taken
        # times the lcm of the s_r to stay integral.
        weight = math.lcm(*(self.scale[a] for a in self.artificials))
        costs = [0] * self.cols
        for a in self.artificials:
            costs[a] = -(weight // self.scale[a])
        return self._reduce(costs)

    def _phase2_costs(self):
        costs, _ = _scaled(self.problem.objective)
        return self._reduce(costs + [0] * (self.cols - len(costs)))

    def _reduce(self, costs):
        # Reduced costs over den, of the nonbasic columns (a basic one's is 0).
        self._align(range(len(self.body)))
        reduced = [self.den * costs[c] for c in self.nonbasic]
        for r, row in enumerate(self.body):
            factor = costs[self.basis[r]]
            if factor != 0:
                reduced = [v - factor * w for v, w in zip(reduced, row)]
        return reduced

    def _align(self, rows):
        # Bring rows over den: exact, as the one-denominator tableau holds the result.
        for r in rows:
            d = self.dens[r]
            if d != self.den:
                self.body[r] = [v * self.den // d for v in self.body[r]]
                self.rhs[r] = self.rhs[r] * self.den // d
                self.dens[r] = self.den

    def _optimize(self, costs):
        artificials = self.artificials
        nonbasic = self.nonbasic
        while True:
            entering = min(
                (
                    c
                    for c, v in zip(nonbasic, costs)
                    if v > 0 and c not in artificials
                ),
                default=None,
            )
            if entering is None:
                self.costs = costs
                return OPTIMAL
            q = nonbasic.index(entering)
            # Smallest rhs / entry, compared by cross-multiplying; ties go
            # to the smallest basic index.
            leaving = None
            for r, row in enumerate(self.body):
                a = row[q]
                if a <= 0:
                    continue
                if leaving is not None:
                    left = self.rhs[r] * best_a
                    right = best_rhs * a
                    if left > right or (
                        left == right and self.basis[r] > self.basis[leaving]
                    ):
                        continue
                leaving, best_rhs, best_a = r, self.rhs[r], a
            if leaving is None:
                return UNBOUNDED
            self._pivot(leaving, q, costs)

    def _pivot(self, r, q, costs=None):
        # Column nonbasic[q] enters, basis[r] leaves and takes position q.
        self.pivots += 1
        if self.trace is not None:
            self.trace.write(
                "pivot %d: column %d enters, row %d leaves\n"
                % (self.pivots, self.nonbasic[q], r)
            )
        # Row r, brought over den, stays and is now over p.  Every other
        # row with g != 0 at q, its rhs and the costs become
        # (p * v - g * w) // d, d their denominator, now p; a row with
        # g == 0 is left alone.  Each division is exact: it yields the
        # one-denominator tableau's entry, by Sylvester's identity a minor
        # of the scaled input.  A negative pivot (only when expelling
        # artificials) first negates row r, which pivots to the same rows.
        # The leaving column was b = den in row r (-den once negated) and 0
        # elsewhere, so at q row r now holds b and the others (-g * b) // d.
        self._align((r,))
        den = self.den
        row = self.body[r]
        rhs = self.rhs[r]
        p = row[q]
        b = den
        if p < 0:
            p, b = -p, -den
            self.body[r] = row = [-w for w in row]
            self.rhs[r] = rhs = -rhs
        for other, body_row in enumerate(self.body):
            g = body_row[q]
            if g == 0 or other == r:
                continue
            d = self.dens[other]
            new = [(p * v - g * w) // d for v, w in zip(body_row, row)]
            new[q] = -g * b // d
            self.body[other] = new
            self.rhs[other] = (p * self.rhs[other] - g * rhs) // d
            self.dens[other] = p
        if costs is not None:
            g = costs[q]
            costs[:] = [(p * v - g * w) // den for v, w in zip(costs, row)]
            costs[q] = -g * b // den
        row[q] = b
        self.den = self.dens[r] = p
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
        # times den; and, read off the costs of the slacks and artificials,
        # the multiplier of each such row times den * the objective's scale.
        self._align(range(len(self.body)))
        n = self.problem.n_vars
        den = self.den
        written = self.written
        x = [0] * n
        for r, b in enumerate(self.basis):
            if b < n:
                x[b] = self.rhs[r]
        duals = [0] * len(written)
        # A basic slack or artificial has reduced cost 0, so its row's dual is 0.
        position = {c: q for q, c in enumerate(self.nonbasic)}
        for original in self.row_of:
            q = position.get(self.id_col[original])
            y = 0 if q is None else -self.costs[q]
            duals[original] = -y if self.flipped[original] else y
        objective, cost_scale = _scaled(self.problem.objective)
        value = sum(c * v for c, v in zip(objective, x))

        checks = all(v >= 0 for v in x) and value == sum(
            y * row[n] for y, row in zip(duals, written)
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
            sum(y * row[j] for y, row in zip(duals, written)) >= den * objective[j]
            for j in range(n)
        )
        if not checks:
            raise RuntimeError("simplex returned an uncertified solution")
        scale = den * cost_scale
        duals = tuple(Fraction(y * self.scale[c], scale) for y, c in zip(duals, self.id_col))
        point = tuple(Fraction(v, den) for v in x)
        return LpSolution(OPTIMAL, Fraction(value, scale), point, duals, self.pivots)

    def _dump(self):
        # Each entry as the Fraction tableau holds it, basic columns included.
        for r, row in enumerate(self.body):
            full = [0] * self.cols
            full[self.basis[r]] = self.dens[r]
            for c, v in zip(self.nonbasic, row):
                full[c] = v
            basic = self.dens[r] * self.scale[self.basis[r]]
            self.trace.write(
                "  [%s | %s] basic %d\n"
                % (
                    " ".join(
                        str(Fraction(v * s, basic)) for v, s in zip(full, self.scale)
                    ),
                    Fraction(self.rhs[r], basic),
                    self.basis[r],
                )
            )
