"""Exact linear programming over rationals.

A two-phase primal simplex on an integer-preserving tableau (Edmonds
1967; Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 1968).  Each row is scaled to integers
once and keeps its own denominator, so a pivot is integer products and
exact divisions with no gcd, and leaves alone every row with a zero in the
pivot column.  A `>=` row with rhs 0 enters negated as a `<=` row, on its
slack, with no artificial.  Bland's rule picks both the entering and the
leaving variable, trading pivot count for a termination guarantee on
degenerate instances; the scaling keeps every sign and every ratio order of
the Fraction tableau, so the pivots are the ones that tableau would take.
Every optimal solve is certified in integers before it is returned: the
vertex against each row, the multipliers' signs, dual feasibility
(A^T y >= c) and strong duality.  Fractions appear only at the boundary.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from fairslice.intervals import frac

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
    # Column layout: structural variables, then one slack or surplus per
    # inequality row, then artificials for rows that need one.  Rows are
    # normalized to non-negative rhs up front, and a >= row with rhs 0 to
    # the <= row it negates to; flips are remembered so the duals reported
    # at the end refer to the rows as the caller wrote them.
    #
    # Row r is multiplied by s_r, the lcm of its denominators, and its slack
    # and artificial stand for s_r times the ones of the row as written, so
    # the starting basis is still the identity.  scale[j] is s_r for those
    # two columns and 1 for a structural one.  Row i holds ints over its own
    # denominator dens[i]: entry (i, j) of the Fraction tableau is
    # body[i][j] * scale[j] / (dens[i] * scale[basis[i]]).  den is the last
    # pivot, the costs are over den, and a row over den holds what the
    # one-denominator (Bareiss) tableau would.

    def __init__(self, problem, trace):
        self.problem = problem
        self.trace = trace
        self.pivots = 0
        n = problem.n_vars
        rows = []
        for coefficients, sense, rhs in problem.rows:
            s = _lcm_of_denominators(coefficients + [rhs])
            ints = _scaled(coefficients + [rhs], s)
            flipped = rhs < 0 or (rhs == 0 and sense == GREATER)
            if flipped:
                ints = [-v for v in ints]
                sense = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}[sense]
            rows.append((ints, sense, s, flipped))

        cols = n
        slack_col = {}
        for r, (_, sense, _, _) in enumerate(rows):
            if sense in (LESS, GREATER):
                slack_col[r] = cols
                cols += 1
        self.artificials = set()
        art_col = {}
        for r, (_, sense, _, _) in enumerate(rows):
            if sense in (GREATER, EQUAL):
                art_col[r] = cols
                self.artificials.add(cols)
                cols += 1

        self.cols = cols
        self.den = 1
        self.scale = [1] * cols
        self.body = []
        self.rhs = []
        self.basis = []
        self.id_col = []
        self.flipped = []
        for r, (ints, sense, s, flipped) in enumerate(rows):
            row = ints[:n] + [0] * (cols - n)
            if sense == LESS:
                row[slack_col[r]] = 1
                self.scale[slack_col[r]] = s
                self.basis.append(slack_col[r])
                self.id_col.append(slack_col[r])
            elif sense == GREATER:
                row[slack_col[r]] = -1
                row[art_col[r]] = 1
                self.scale[slack_col[r]] = self.scale[art_col[r]] = s
                self.basis.append(art_col[r])
                self.id_col.append(art_col[r])
            else:
                row[art_col[r]] = 1
                self.scale[art_col[r]] = s
                self.basis.append(art_col[r])
                self.id_col.append(art_col[r])
            self.body.append(row)
            self.rhs.append(ints[n])
            self.flipped.append(flipped)
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
        objective = self.problem.objective
        self.cost_scale = _lcm_of_denominators(objective)
        costs = _scaled(objective, self.cost_scale) + [0] * (self.cols - len(objective))
        return self._reduce(costs)

    def _reduce(self, costs):
        # Reduced costs over den, basic columns at zero.
        self._align(range(len(self.body)))
        reduced = [self.den * c for c in costs]
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
        while True:
            entering = next(
                (
                    c
                    for c, v in enumerate(costs)
                    if v > 0 and c not in artificials
                ),
                None,
            )
            if entering is None:
                self.costs = costs
                return OPTIMAL
            # Smallest rhs / entry, compared by cross-multiplying; ties go
            # to the smallest basic index.
            leaving = None
            for r, row in enumerate(self.body):
                a = row[entering]
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
            self._pivot(leaving, entering, costs)

    def _pivot(self, r, c, costs=None):
        self.pivots += 1
        if self.trace is not None:
            self.trace.write(
                "pivot %d: column %d enters, row %d leaves\n" % (self.pivots, c, r)
            )
        # Row r, brought over den, stays and is now over p.  Every other
        # row with g != 0 in column c, its rhs and the costs become
        # (p * v - g * w) // d, d their denominator, now p; a row with
        # g == 0 is left alone.  Each division is exact: it yields the
        # one-denominator tableau's entry, by Sylvester's identity a minor
        # of the scaled input.  A negative pivot (only when expelling
        # artificials) first negates row r, which pivots to the same rows.
        self._align((r,))
        den = self.den
        row = self.body[r]
        rhs = self.rhs[r]
        p = row[c]
        if p < 0:
            p = -p
            self.body[r] = row = [-w for w in row]
            self.rhs[r] = rhs = -rhs
        for other, body_row in enumerate(self.body):
            g = body_row[c]
            if g == 0 or other == r:
                continue
            d = self.dens[other]
            self.body[other] = [(p * v - g * w) // d for v, w in zip(body_row, row)]
            self.rhs[other] = (p * self.rhs[other] - g * rhs) // d
            self.dens[other] = p
        if costs is not None:
            g = costs[c]
            costs[:] = [(p * v - g * w) // den for v, w in zip(costs, row)]
        self.den = self.dens[r] = p
        self.basis[r] = c
        if self.trace is not None:
            self._dump()

    def _expel_artificials(self):
        # Basic artificials sit at zero after a feasible phase one; pivot
        # them out where a live column allows it, drop redundant rows.
        keep = []
        for r in range(len(self.body)):
            if self.basis[r] not in self.artificials:
                keep.append(r)
                continue
            col = next(
                (
                    c
                    for c in range(self.cols)
                    if c not in self.artificials and self.body[r][c] != 0
                ),
                None,
            )
            if col is None:
                continue
            self._pivot(r, col)
            keep.append(r)
        self.body = [self.body[r] for r in keep]
        self.rhs = [self.rhs[r] for r in keep]
        self.dens = [self.dens[r] for r in keep]
        self.basis = [self.basis[r] for r in keep]
        self.row_of = [self.row_of[r] for r in keep]

    # ------------------------------------------------------------------
    # certification

    def _certify(self):
        # In ints: row r as written times s_r, with the rhs last; the vertex
        # times den; and, read off the costs of the slacks and artificials,
        # the multiplier of each such row times den * cost_scale.
        self._align(range(len(self.body)))
        n = self.problem.n_vars
        den = self.den
        written = [
            _scaled(c + [rhs], self.scale[col])
            for (c, _, rhs), col in zip(self.problem.rows, self.id_col)
        ]
        x = [0] * n
        for r, b in enumerate(self.basis):
            if b < n:
                x[b] = self.rhs[r]
        duals = [0] * len(written)
        for original in self.row_of:
            y = -self.costs[self.id_col[original]]
            duals[original] = -y if self.flipped[original] else y
        objective = _scaled(self.problem.objective, self.cost_scale)
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
        scale = den * self.cost_scale
        duals = tuple(Fraction(y * self.scale[c], scale) for y, c in zip(duals, self.id_col))
        point = tuple(Fraction(v, den) for v in x)
        return LpSolution(OPTIMAL, Fraction(value, scale), point, duals, self.pivots)

    def _dump(self):
        # Each entry as the Fraction tableau holds it.
        for r, row in enumerate(self.body):
            basic = self.dens[r] * self.scale[self.basis[r]]
            self.trace.write(
                "  [%s | %s] basic %d\n"
                % (
                    " ".join(
                        str(Fraction(v * s, basic)) for v, s in zip(row, self.scale)
                    ),
                    Fraction(self.rhs[r], basic),
                    self.basis[r],
                )
            )


def _lcm_of_denominators(values):
    return math.lcm(*(v.denominator for v in values))


def _scaled(values, scale):
    # Fractions times a common multiple of their denominators, as ints.
    return [v.numerator * (scale // v.denominator) for v in values]
