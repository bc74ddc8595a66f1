"""Exact linear programming over rationals.

A two-phase primal simplex on a dense integer-preserving tableau (Edmonds
1967; Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 1968).  Each row is scaled to integers
once, and every entry is then an int over one common denominator, so a
pivot is integer products and exact divisions with no gcd.  Bland's rule
picks both the entering and the leaving variable, trading pivot count for a
termination guarantee on degenerate instances; the scaling keeps every sign
and every ratio order of the Fraction tableau, so the pivots are the ones
that tableau would take.  Fractions appear only at the boundary (the
problem in, the vertex and duals out) and in the certificate: every optimal
solve is checked before it is returned, the vertex against each constraint
and the row multipliers read off the final tableau against strong duality.
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
    # normalized to non-negative rhs up front; flips are remembered so the
    # duals reported at the end refer to the rows as the caller wrote them.
    #
    # Row r is multiplied by s_r, the lcm of its denominators, and its slack
    # and artificial stand for s_r times the ones of the row as written, so
    # the starting basis is still the identity.  scale[j] is s_r for those
    # two columns and 1 for a structural one.  Entry (i, j) of the Fraction
    # tableau is body[i][j] * scale[j] / (den * scale[basis[i]]).

    def __init__(self, problem, trace):
        self.problem = problem
        self.trace = trace
        self.pivots = 0
        n = problem.n_vars
        rows = []
        for coefficients, sense, rhs in problem.rows:
            flipped = rhs < 0
            if flipped:
                coefficients = [-c for c in coefficients]
                rhs = -rhs
                sense = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}[sense]
            rows.append((coefficients, sense, rhs, flipped))

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
        for r, (coefficients, sense, rhs, flipped) in enumerate(rows):
            s = _lcm_of_denominators(coefficients + [rhs])
            row = _scaled(coefficients, s) + [0] * (cols - n)
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
            self.rhs.append(rhs.numerator * (s // rhs.denominator))
            self.flipped.append(flipped)
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
        # Reduced costs over the common denominator, basic columns at zero.
        reduced = [self.den * c for c in costs]
        for r, row in enumerate(self.body):
            factor = costs[self.basis[r]]
            if factor != 0:
                reduced = [v - factor * w for v, w in zip(reduced, row)]
        return reduced

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
        # Row r stays; every other row, its rhs and the costs become
        # (p * v - f * w) // den, where f is the row's entry in column c (so
        # a row with f == 0 is only rescaled by p / den).  The division is
        # exact: by Sylvester's identity every entry is a minor of the
        # scaled input.  A negative pivot (possible only when expelling
        # artificials) first negates row r, which negates the whole tableau
        # and keeps den positive.
        den = self.den
        row = self.body[r]
        rhs = self.rhs[r]
        p = row[c]
        if p < 0:
            p = -p
            self.body[r] = row = [-w for w in row]
            self.rhs[r] = rhs = -rhs
        for other, body_row in enumerate(self.body):
            if other == r:
                continue
            f = body_row[c]
            if f != 0:
                self.body[other] = [(p * v - f * w) // den for v, w in zip(body_row, row)]
                self.rhs[other] = (p * self.rhs[other] - f * rhs) // den
            elif p != den:
                self.body[other] = [p * v // den for v in body_row]
                self.rhs[other] = p * self.rhs[other] // den
        if costs is not None:
            f = costs[c]
            costs[:] = [(p * v - f * w) // den for v, w in zip(costs, row)]
        self.den = p
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
        self.basis = [self.basis[r] for r in keep]
        self.row_of = [self.row_of[r] for r in keep]

    # ------------------------------------------------------------------
    # certification

    def _certify(self):
        n = self.problem.n_vars
        x = [Fraction(0)] * n
        for r, b in enumerate(self.basis):
            if b < n:
                x[b] = Fraction(self.rhs[r], self.den)
        point = tuple(x)
        value = sum(
            (c * v for c, v in zip(self.problem.objective, point)), Fraction(0)
        )

        # The reduced cost of a row's slack or artificial, in the written
        # variables and the written objective, is minus its multiplier.
        duals = [Fraction(0)] * len(self.problem.rows)
        for original in self.row_of:
            col = self.id_col[original]
            y = Fraction(
                -self.costs[col] * self.scale[col], self.den * self.cost_scale
            )
            duals[original] = -y if self.flipped[original] else y

        checks = all(v >= 0 for v in point) and sum(
            (y * rhs for y, (_, _, rhs) in zip(duals, self.problem.rows)),
            Fraction(0),
        ) == value
        for (coefficients, sense, rhs), y in zip(self.problem.rows, duals):
            lhs = sum((c * v for c, v in zip(coefficients, point)), Fraction(0))
            if sense == LESS:
                checks = checks and lhs <= rhs and y >= 0
            elif sense == GREATER:
                checks = checks and lhs >= rhs and y <= 0
            else:
                checks = checks and lhs == rhs
        if not checks:
            raise RuntimeError("simplex returned an uncertified solution")
        return LpSolution(OPTIMAL, value, point, tuple(duals), self.pivots)

    def _dump(self):
        # Each entry as the Fraction tableau holds it.
        for r, row in enumerate(self.body):
            basic = self.den * self.scale[self.basis[r]]
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
