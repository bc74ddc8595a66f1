"""Welfare-optimal allocations by direct construction and by exact LP.

Foundational reduction: cut the cake at every density endpoint and every
point where two agents' densities cross.  Between consecutive marks each
agent's utility accrues at a constant rate, so once rates are constant per
segment, a portion's worth depends only on how much length it takes from
each segment, never on where inside the segment that length sits.  Any
per-segment length table respecting the segment capacities is therefore
realizable as a genuine allocation (materialized left to right), and
welfare questions become linear programs over those lengths.

Every piece end is a mark, so on a segment each density is one affine
piece or 0, and the segment's mass over its length is the density at its
midpoint.  Rates and the unconstrained optimum therefore come from one
`Valuation.masses_at` sweep per agent over the marks, as integers, the
sweep an equity table makes over a portion's ends.

The unconstrained utilitarian optimum never needs the LP: handing every
segment to an agent of greatest mass on it is already optimal, and that
construction works for affine densities too, and it is also the numerator
of every price-of-fairness ratio.  Criterion-constrained optima and the
Pareto test go through the LP and stay exact end to end.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from fairslice.audit import Allocation, _one_each, _some
from fairslice.intervals import _scaled, frac
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
    """Sorted cut marks from 0 to 1, read as exact numbers; consecutive pairs
    are the segments."""

    marks: tuple

    def __post_init__(self):
        marks = tuple(map(frac, self.marks))
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
    _some(valuations)
    crossings = []
    # Two flat densities never cross.
    flat = [v.is_piecewise_constant() for v in valuations]
    for a in range(len(valuations)):
        for b in range(a + 1, len(valuations)):
            if flat[a] and flat[b]:
                continue
            for p in valuations[a].pieces:
                for q in valuations[b].pieces:
                    if p.slope == q.slope:
                        continue
                    # Pieces that do not overlap leave no x strictly between the bounds.
                    x = (q.intercept - p.intercept) / (p.slope - q.slope)
                    if max(p.interval.lo, q.interval.lo) < x < min(p.interval.hi, q.interval.hi):
                        crossings.append(x.as_integer_ratio())
    # Piece ends and crossings as integers over the lcm of their
    # denominators, merged as integers rather than hashed as Fractions.
    ends = [v.piece_ends() for v in valuations]
    scale = lcm(*[den for _, den in ends], *[den for _, den in crossings])
    marks = {0, scale}
    for points, den in ends:
        marks.update([p * (scale // den) for p in points])
    marks.update([num * (scale // den) for num, den in crossings])
    return Segmentation(tuple([Fraction(m, scale) for m in sorted(marks)]))


@dataclass(frozen=True)
class SegmentRateMatrix:
    """Per-unit-length utility of each agent on each segment.

    Only defined when every density is constant across every segment; each
    agent's rates integrate back to exactly 1 over the cake.  Rates are read
    as exact numbers, one per segment for each of at least one agent.
    """

    segmentation: Segmentation
    rates: tuple

    def __post_init__(self):
        rates = tuple(tuple(map(frac, row)) for row in self.rates)
        _some(rates)
        # In integers: the marks over their common scale S and each row's
        # rates over the row's own scale R integrate to R S.
        marks, scale = _scaled(self.segmentation.marks)
        lengths = [hi - lo for lo, hi in zip(marks, marks[1:])]
        for row in rates:
            _one_each(row, lengths, "%d rates but %d segments")
            units, unit = _scaled(row)
            if sum(u * w for u, w in zip(units, lengths)) != unit * scale:
                raise ValueError("segment rates do not integrate to 1")
        object.__setattr__(self, "rates", rates)


def _rates(valuations, segmentation):
    # Each agent's mass of every segment over its length, from one masses_at
    # sweep over the marks: with the marks and F as integers over S and den,
    # (F(hi) - F(lo)) S / (den (hi - lo)), one Fraction each.
    marks, scale = _scaled(segmentation.marks)
    lengths = [hi - lo for lo, hi in zip(marks, marks[1:])]
    table = []
    for v in valuations:
        below, den = v.masses_at(marks, scale)
        spans = zip(below, below[1:], lengths)
        table.append(tuple(Fraction((b - a) * scale, den * w) for a, b, w in spans))
    return table


def segment_rates(valuations):
    """Build the rate matrix over the joint segmentation.

    Raises UnsupportedValuationClass when some density actually varies
    inside a segment (an affine piece with nonzero slope), because then
    utilities are not linear in segment lengths and the LP encodings are
    unsound.  Every piece spans at least one segment, so that is any
    sloped piece at all.
    """
    if not all(v.is_piecewise_constant() for v in valuations):
        raise UnsupportedValuationClass("density varies inside a segment; rates undefined")
    seg = segment(valuations)
    return SegmentRateMatrix(seg, _rates(valuations, seg))


def utilitarian_optimal(valuations):
    """Hand each segment to the first agent of greatest mass on it.

    Lengths are shared within a segment, so that agent's rate, its density
    at the midpoint, is the greatest.  Works for affine densities: inside a
    segment no two densities cross, so the midpoint decides the pointwise
    order everywhere.  The resulting total utility is maximal over all
    allocations.
    """
    seg = segment(valuations)
    rates = _rates(valuations, seg)
    portions = [[] for _ in valuations]
    for s, span in enumerate(seg.segments()):
        winner = max(range(len(valuations)), key=lambda i: rates[i][s])
        portions[winner].append(span)
    return Allocation(portions)


def _row(srm, width, *terms):
    # One LP row of the given width: for each (sign, i, j) term, sign times
    # agent i's rates over agent j's lengths x[j][s].  Each term names a
    # different agent j, so its rates are written, not added.
    m = len(srm.segmentation)
    row = [Fraction(0)] * width
    for sign, i, j in terms:
        row[j * m : (j + 1) * m] = srm.rates[i] if sign > 0 else [-r for r in srm.rates[i]]
    return row


def _allocation_lp(srm, objective, constraint=None, floors=None):
    # Variables: x[i][s] = length of segment s handed to agent i, at column
    # i * m + s, plus any extras the caller appended to the objective; one
    # capacity row per segment, criterion rows bolt on below.
    n = len(srm.rates)
    m = len(srm.segmentation)
    width = len(objective)
    lengths = [hi - lo for lo, hi in srm.segmentation.segments()]

    problem = LpProblem(objective)
    for s in range(m):
        row = [Fraction(0)] * width
        for i in range(n):
            row[i * m + s] = Fraction(1)
        problem.add(row, LESS, lengths[s])

    if constraint == "proportional":
        for i in range(n):
            problem.add(_row(srm, width, (1, i, i)), GREATER, Fraction(1, n))
    elif constraint == "envy-free":
        for i in range(n):
            for j in range(n):
                if i != j:
                    problem.add(_row(srm, width, (1, i, i), (-1, i, j)), GREATER, 0)
    elif constraint == "equitable":
        for i in range(1, n):
            problem.add(_row(srm, width, (1, 0, 0), (-1, i, i)), EQUAL, 0)
    elif constraint is not None:
        raise ValueError("unknown criterion %r" % (constraint,))

    if floors is not None:
        for i in range(n):
            problem.add(_row(srm, width, (1, i, i)), GREATER, floors[i])
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


def _solve(problem, trace=None):
    # Every welfare LP is feasible and bounded, so any other status is a bug.
    solution = lp_solve(problem, trace)
    if solution.status != OPTIMAL:
        raise RuntimeError("welfare LP came back %s" % solution.status)
    return solution


def _max_ue(srm, constraint=None, floors=None, trace=None):
    # Total utility maximized on a built rate matrix, under an optional
    # criterion and optional per-agent floors.
    objective = [r for row in srm.rates for r in row]
    return _solve(_allocation_lp(srm, objective, constraint, floors), trace)


def max_ue(valuations, constraint=None, trace=None):
    """Exact maximal total utility subject to an optional fairness criterion.

    constraint is None or one of "proportional", "envy-free", "equitable".
    Returns (value, allocation) with the allocation realizing the optimum.
    The criterion constraints are always satisfiable (an equal split of
    every segment meets all three at once), so an infeasible status can
    only mean a bug and is raised loudly.
    """
    srm = segment_rates(valuations)
    solution = _max_ue(srm, constraint, trace=trace)
    return solution.value, _materialize(srm, solution.x)


def max_ee(valuations):
    """Exact maximal worst-off utility, with a realizing allocation."""
    srm = segment_rates(valuations)
    n = len(srm.rates)
    m = len(srm.segmentation)
    # One extra epigraph variable after the length table.
    problem = _allocation_lp(srm, [Fraction(0)] * (n * m) + [Fraction(1)])
    for i in range(n):
        row = _row(srm, n * m + 1, (1, i, i))
        row[n * m] = Fraction(-1)
        problem.add(row, GREATER, 0)
    solution = _solve(problem)
    return solution.value, _materialize(srm, solution.x[: n * m])


def pareto_oracle(valuations, allocation):
    """True iff no allocation beats this one for someone and hurts nobody.

    Maximizes total utility subject to every agent keeping at least its
    current utility; the allocation is Pareto efficient exactly when that
    optimum cannot exceed the current total.
    """
    _one_each(valuations, allocation)
    srm = segment_rates(valuations)
    floors = [v.measure(portion) for v, portion in zip(valuations, allocation)]
    return _max_ue(srm, floors=floors).value == sum(floors, Fraction(0))


def welfare_optima(valuations, criterion, trace=None):
    """The unconstrained and the criterion-constrained welfare optimum.

    Returns (unconstrained, constrained) total utilities over one rate
    matrix; the unconstrained optimum takes the top rate on every segment.
    trace, if given, receives the constrained LP's tableau text.
    """
    srm = segment_rates(valuations)
    columns = zip(zip(*srm.rates), srm.segmentation.segments())
    top = sum((max(rates) * (hi - lo) for rates, (lo, hi) in columns), Fraction(0))
    return top, _max_ue(srm, criterion, trace=trace).value


def price_of(valuations, criterion):
    """Ratio of the unconstrained welfare optimum to the criterion optimum.

    Always at least 1: the criterion only removes allocations.  Division is
    safe because an equal split of every segment gives total utility 1.
    """
    top, constrained = welfare_optima(valuations, criterion)
    return top / constrained
