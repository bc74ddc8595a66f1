"""Welfare-optimal allocations by direct construction and by exact LP.

Foundational reduction: cut the cake at every density endpoint and every
point where two agents' densities cross.  Between consecutive marks each
agent's utility accrues at a constant rate, so once rates are constant per
segment, a portion's worth depends only on how much length it takes from
each segment, never on where inside the segment that length sits.  Any
per-segment length table respecting the segment capacities is therefore
realizable as a genuine allocation (materialized left to right), and
welfare questions become linear programs over those lengths.

The unconstrained utilitarian optimum never needs the LP: handing every
segment to an agent with maximal density on it is already optimal, and that
construction works for affine densities too, and it is also the numerator
of every price-of-fairness ratio.  Criterion-constrained optima and the
Pareto test go through the LP and stay exact end to end.
"""

from dataclasses import dataclass
from fractions import Fraction

from fairslice.audit import Allocation, equity_table, utilitarian_efficiency
from fairslice.simplex import (
    GREATER,
    EQUAL,
    LESS,
    OPTIMAL,
    LpProblem,
    lp_solve,
)
from fairslice.valuation import UnsupportedValuationClass

CRITERIA = ("proportional", "envy-free", "equitable")


@dataclass(frozen=True)
class Segmentation:
    """Sorted cut marks from 0 to 1; consecutive pairs are the segments."""

    marks: tuple

    def __post_init__(self):
        marks = tuple(self.marks)
        if not marks or marks[0] != 0 or marks[-1] != 1:
            raise ValueError("marks must run from 0 to 1")
        if any(a >= b for a, b in zip(marks, marks[1:])):
            raise ValueError("marks must be strictly increasing")
        object.__setattr__(self, "marks", marks)

    def segments(self):
        return list(zip(self.marks, self.marks[1:]))

    def __len__(self):
        return len(self.marks) - 1


def segment(valuations):
    """Mark every density endpoint and pairwise density crossing.

    Between consecutive marks every agent's density is a single affine
    function and no two agents' densities cross, so the pointwise order of
    agents is constant on each segment.  Crossings of rational affine
    pieces land on rational points, which keeps everything exact.
    """
    marks = {Fraction(0), Fraction(1)}
    for v in valuations:
        for piece in v.pieces:
            marks.add(piece.interval.lo)
            marks.add(piece.interval.hi)
    for a in range(len(valuations)):
        for b in range(a + 1, len(valuations)):
            for p in valuations[a].pieces:
                for q in valuations[b].pieces:
                    lo = max(p.interval.lo, q.interval.lo)
                    hi = min(p.interval.hi, q.interval.hi)
                    if lo >= hi or p.slope == q.slope:
                        continue
                    x = (q.intercept - p.intercept) / (p.slope - q.slope)
                    if lo < x < hi:
                        marks.add(x)
    return Segmentation(tuple(sorted(marks)))


@dataclass(frozen=True)
class SegmentRateMatrix:
    """Per-unit-length utility of each agent on each segment.

    Only defined when every density is constant across every segment; each
    agent's rates integrate back to exactly 1 over the cake.
    """

    segmentation: Segmentation
    rates: tuple

    def __post_init__(self):
        for row in self.rates:
            total = sum(
                (r * (hi - lo) for r, (lo, hi) in zip(row, self.segmentation.segments())),
                Fraction(0),
            )
            if total != 1:
                raise ValueError("segment rates do not integrate to 1")


def segment_rates(valuations):
    """Build the rate matrix over the joint segmentation.

    Raises UnsupportedValuationClass when some density actually varies
    inside a segment (an affine piece with nonzero slope), because then
    utilities are not linear in segment lengths and the LP encodings are
    unsound.
    """
    seg = segment(valuations)
    rates = []
    for v in valuations:
        row = []
        for lo, hi in seg.segments():
            mid = (lo + hi) / 2
            piece = next(
                (p for p in v.pieces if p.interval.lo <= lo and hi <= p.interval.hi),
                None,
            )
            if piece is None:
                row.append(Fraction(0))
            elif piece.slope != 0:
                raise UnsupportedValuationClass(
                    "density varies inside a segment; rates undefined"
                )
            else:
                row.append(piece.density_at(mid))
        rates.append(tuple(row))
    return SegmentRateMatrix(seg, tuple(rates))


def utilitarian_optimal(valuations):
    """Hand each segment to an agent with maximal density on it.

    Ties go to the lowest agent index.  Works for affine densities: inside
    a segment no two densities cross, so the midpoint decides the pointwise
    order everywhere.  The resulting total utility is maximal over all
    allocations.
    """
    seg = segment(valuations)
    portions = [[] for _ in valuations]
    for lo, hi in seg.segments():
        mid = (lo + hi) / 2
        densities = [
            sum((p.density_at(mid) for p in v.pieces if p.interval.lo <= mid <= p.interval.hi), Fraction(0))
            for v in valuations
        ]
        winner = max(range(len(valuations)), key=lambda i: (densities[i], -i))
        portions[winner].append((lo, hi))
    return Allocation(portions)


def _allocation_lp(srm, objective, constraint=None, floors=None):
    # Variables: x[i][s] = length of segment s handed to agent i, plus any
    # extras the caller appended to the objective; one capacity row per
    # segment, criterion rows bolt on below.
    n = len(srm.rates)
    m = len(srm.segmentation)
    width = len(objective)
    lengths = [hi - lo for lo, hi in srm.segmentation.segments()]

    def var(i, s):
        return i * m + s

    problem = LpProblem(objective)
    for s in range(m):
        row = [Fraction(0)] * width
        for i in range(n):
            row[var(i, s)] = Fraction(1)
        problem.add(row, LESS, lengths[s])

    def utility_row(i, sign, row=None):
        row = [Fraction(0)] * width if row is None else row
        for s in range(m):
            row[var(i, s)] += sign * srm.rates[i][s]
        return row

    if constraint == "proportional":
        for i in range(n):
            problem.add(utility_row(i, Fraction(1)), GREATER, Fraction(1, n))
    elif constraint == "envy-free":
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                row = [Fraction(0)] * width
                for s in range(m):
                    row[var(i, s)] = srm.rates[i][s]
                    row[var(j, s)] = -srm.rates[i][s]
                problem.add(row, GREATER, 0)
    elif constraint == "equitable":
        for i in range(1, n):
            row = utility_row(0, Fraction(1))
            problem.add(utility_row(i, Fraction(-1), row), EQUAL, 0)
    elif constraint is not None:
        raise ValueError("unknown criterion %r" % (constraint,))

    if floors is not None:
        for i in range(n):
            problem.add(utility_row(i, Fraction(1)), GREATER, floors[i])
    return problem


def _materialize(srm, x):
    # Lay the granted lengths out left to right inside each segment, agents
    # in index order; capacity slack stays unallocated.
    n = len(srm.rates)
    m = len(srm.segmentation)
    portions = [[] for _ in range(n)]
    for s, (lo, hi) in enumerate(srm.segmentation.segments()):
        at = lo
        for i in range(n):
            take = x[i * m + s]
            if take > 0:
                portions[i].append((at, at + take))
                at += take
    return Allocation(portions)


def max_ue(valuations, constraint=None, trace=None):
    """Exact maximal total utility subject to an optional fairness criterion.

    constraint is None or one of "proportional", "envy-free", "equitable".
    Returns (value, allocation) with the allocation realizing the optimum.
    The criterion constraints are always satisfiable (an equal split of
    every segment meets all three at once), so an infeasible status can
    only mean a bug and is raised loudly.
    """
    srm = segment_rates(valuations)
    objective = [r for row in srm.rates for r in row]
    solution = lp_solve(_allocation_lp(srm, objective, constraint), trace)
    if solution.status != OPTIMAL:
        raise RuntimeError("welfare LP came back %s" % solution.status)
    return solution.value, _materialize(srm, solution.x)


def max_ee(valuations):
    """Exact maximal worst-off utility, with a realizing allocation."""
    srm = segment_rates(valuations)
    n = len(srm.rates)
    m = len(srm.segmentation)
    # One extra epigraph variable after the length table.
    problem = _allocation_lp(srm, [Fraction(0)] * (n * m) + [Fraction(1)])
    for i in range(n):
        row = [Fraction(0)] * (n * m + 1)
        for s in range(m):
            row[i * m + s] = srm.rates[i][s]
        row[n * m] = Fraction(-1)
        problem.add(row, GREATER, 0)
    solution = lp_solve(problem)
    if solution.status != OPTIMAL:
        raise RuntimeError("welfare LP came back %s" % solution.status)
    return solution.value, _materialize(srm, solution.x[: n * m])


def pareto_oracle(valuations, allocation):
    """True iff no allocation beats this one for someone and hurts nobody.

    Maximizes total utility subject to every agent keeping at least its
    current utility; the allocation is Pareto efficient exactly when that
    optimum cannot exceed the current total.
    """
    srm = segment_rates(valuations)
    floors = [v.measure(portion) for v, portion in zip(valuations, allocation)]
    objective = [r for row in srm.rates for r in row]
    solution = lp_solve(_allocation_lp(srm, objective, floors=floors))
    if solution.status != OPTIMAL:
        raise RuntimeError("dominance LP came back %s" % solution.status)
    return solution.value == sum(floors, Fraction(0))


def price_of(valuations, criterion):
    """Ratio of the unconstrained welfare optimum to the criterion optimum.

    Always at least 1: the criterion only removes allocations.  Division is
    safe because an equal split of every segment gives total utility 1.
    """
    constrained, _ = max_ue(valuations, criterion)
    top = equity_table(valuations, utilitarian_optimal(valuations))
    return utilitarian_efficiency(top) / constrained
