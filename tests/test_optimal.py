"""Welfare optimization: segmentation, the exact LP, constrained optima, prices."""

import io
import random
from fractions import Fraction

import pytest

from fairslice.audit import Allocation, equity_table, utilitarian_efficiency
from fairslice.intervals import IntervalSet
from fairslice.optimal import (
    CRITERIA,
    Segmentation,
    _materialize,
    max_ee,
    max_ue,
    pareto_oracle,
    price_of,
    segment,
    segment_rates,
    utilitarian_optimal,
)
from fairslice.simplex import (
    GREATER,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    lp_solve,
)
from fairslice.uniform import min_average_mechanism
from fairslice.valuation import Valuation
from helpers import (
    assignment_optimum,
    random_constant_instance,
    random_uniform_instance,
)


def uniform(*pairs):
    return Valuation.uniform_on(list(pairs))


# Shared walk-through instances: two exclusive agents plus one omnivore,
EE_EXAMPLE = [uniform((0, "0.5")), uniform(("0.5", 1)), uniform((0, 1))]
# the three-agent squeeze on the middle fifth,
SQUEEZE = [uniform((0, "0.5")), uniform(("0.5", 1)), uniform(("0.4", "0.6"))]
# the four-agent half-specialists-plus-omnivores instance,
POP4 = [uniform((0, "0.5")), uniform(("0.5", 1)), uniform((0, 1)), uniform((0, 1))]
# and two agents overlapping on the middle fifth.
MIDDLE = [uniform((0, "0.6")), uniform(("0.4", 1))]


# ----------------------------------------------------------------------
# segmentation


def test_segment_goldens():
    assert segment([Valuation.uniform(), Valuation.uniform()]).marks == (0, 1)
    ramp = Valuation.piecewise_linear([((0, 1), 2, 0)])
    assert segment([ramp, Valuation.uniform()]).marks == (0, Fraction(1, 2), 1)
    assert segment(SQUEEZE).marks == (
        0,
        Fraction(2, 5),
        Fraction(1, 2),
        Fraction(3, 5),
        1,
    )


def test_segment_contains_every_piece_endpoint():
    rng = random.Random(5150)
    for _ in range(25):
        agents = random_constant_instance(rng, rng.randint(2, 5))
        marks = set(segment(agents).marks)
        for v in agents:
            for piece in v.pieces:
                assert piece.interval.lo in marks and piece.interval.hi in marks


def test_segmentation_rejects_bad_marks():
    with pytest.raises(ValueError):
        Segmentation((0, Fraction(1, 2)))
    with pytest.raises(ValueError):
        Segmentation((0, Fraction(1, 2), Fraction(1, 2), 1))


def test_rates_golden():
    srm = segment_rates(SQUEEZE)
    assert srm.rates == (
        (2, 2, 0, 0),
        (0, 0, 2, 2),
        (0, 5, 5, 0),
    )


def test_rates_reject_sloped_densities():
    ramp = Valuation.piecewise_linear([((0, 1), 2, 0)])
    with pytest.raises(ValueError):
        segment_rates([ramp])


# ----------------------------------------------------------------------
# direct construction


def test_utilitarian_optimal_goldens():
    best = utilitarian_optimal(EE_EXAMPLE)
    assert best == Allocation(
        [IntervalSet([(0, "0.5")]), IntervalSet([("0.5", 1)]), IntervalSet([])]
    )
    assert utilitarian_efficiency(equity_table(EE_EXAMPLE, best)) == 2

    squeeze = utilitarian_optimal(SQUEEZE)
    assert squeeze == Allocation(
        [
            IntervalSet([(0, "0.4")]),
            IntervalSet([("0.6", 1)]),
            IntervalSet([("0.4", "0.6")]),
        ]
    )


def test_utilitarian_optimal_disjoint_agents_score_n():
    agents = [uniform((0, "0.25")), uniform(("0.25", "0.5")), uniform(("0.5", 1))]
    table = equity_table(agents, utilitarian_optimal(agents))
    assert utilitarian_efficiency(table) == 3


def test_utilitarian_optimal_linear_densities():
    # Rising density 2x against uniform: the uniform agent wins below the
    # crossing at 1/2, the ramp agent above it.
    ramp = Valuation.piecewise_linear([((0, 1), 2, 0)])
    flat = Valuation.uniform()
    best = utilitarian_optimal([ramp, flat])
    assert best == Allocation([IntervalSet([("0.5", 1)]), IntervalSet([(0, "0.5")])])
    assert utilitarian_efficiency(equity_table([ramp, flat], best)) == Fraction(5, 4)


# ----------------------------------------------------------------------
# the LP itself


def test_lp_single_variable():
    solution = lp_solve(LpProblem([1]).add([1], LESS, Fraction(3, 7)))
    assert solution.status == OPTIMAL
    assert solution.value == Fraction(3, 7)
    assert solution.x == (Fraction(3, 7),)


def test_lp_degenerate_instance_terminates():
    # A classic cycling trap for naive pivoting; the smallest-index rule
    # must walk out of it in a modest number of pivots.
    problem = LpProblem([Fraction(3, 4), -150, Fraction(1, 50), -6])
    problem.add([Fraction(1, 4), -60, Fraction(-1, 25), 9], LESS, 0)
    problem.add([Fraction(1, 2), -90, Fraction(-1, 50), 3], LESS, 0)
    problem.add([0, 0, 1, 0], LESS, 1)
    solution = lp_solve(problem)
    assert solution.status == OPTIMAL
    assert solution.value == Fraction(1, 20)
    assert solution.pivots < 50


def test_lp_infeasible_and_unbounded():
    conflicted = LpProblem([1]).add([1], LESS, 1).add([1], GREATER, 2)
    assert lp_solve(conflicted).status == INFEASIBLE
    open_ended = LpProblem([1]).add([1], GREATER, 0)
    assert lp_solve(open_ended).status == UNBOUNDED


def test_lp_trace_is_written():
    buffer = io.StringIO()
    lp_solve(LpProblem([1]).add([1], LESS, 1), trace=buffer)
    assert "pivot 1" in buffer.getvalue()


def test_lp_duality_on_random_programs():
    # max c.x, Ax <= b, x >= 0 against its explicit dual min b.y,
    # A'y >= c, y >= 0.  Bounded pairs must agree exactly; an unbounded
    # primal must leave the dual with no feasible point at all.
    rng = random.Random(20260822)
    bounded = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(m)]
        primal = LpProblem(c)
        for row, rhs in zip(a, b):
            primal.add(row, LESS, rhs)
        dual = LpProblem([-rhs for rhs in b])
        for j in range(n):
            dual.add([a[r][j] for r in range(m)], GREATER, c[j])
        p = lp_solve(primal)
        d = lp_solve(dual)
        if p.status == OPTIMAL:
            bounded += 1
            assert d.status == OPTIMAL and -d.value == p.value
        else:
            assert p.status == UNBOUNDED and d.status == INFEASIBLE
    assert bounded > 50


def test_lp_matches_construction_and_brute_force():
    rng = random.Random(11235)
    for _ in range(120):
        agents = random_constant_instance(rng, rng.randint(2, 5))
        table = equity_table(agents, utilitarian_optimal(agents))
        built = utilitarian_efficiency(table)
        solved, _ = max_ue(agents)
        assert built == solved
        if len(segment(agents)) <= 12:
            assert built == assignment_optimum(agents)


# ----------------------------------------------------------------------
# constrained optima


def test_max_ue_four_agent_goldens():
    value, _ = max_ue(POP4)
    assert value == 2
    held, _ = max_ue(POP4, "proportional")
    assert held == Fraction(3, 2)
    assert value / held >= 1


def test_max_ue_identical_agents():
    agents = [Valuation.uniform() for _ in range(3)]
    for criterion in (None,) + CRITERIA:
        value, _ = max_ue(agents, criterion)
        assert value == 1


def test_max_ue_rejects_unknown_criterion():
    with pytest.raises(ValueError):
        max_ue(MIDDLE, "nice")


def test_constraints_only_lower_the_optimum():
    rng = random.Random(314159)
    for _ in range(30):
        agents = random_constant_instance(rng, rng.randint(2, 4))
        top, _ = max_ue(agents)
        for criterion in CRITERIA:
            value, _ = max_ue(agents, criterion)
            assert value <= top
            if criterion == "proportional":
                assert value >= 1


def test_realized_allocations_reaudit_to_the_lp_value():
    rng = random.Random(27182)
    for _ in range(20):
        agents = random_constant_instance(rng, rng.randint(2, 4))
        for criterion in (None,) + CRITERIA:
            value, allocation = max_ue(agents, criterion)
            table = equity_table(agents, allocation)
            assert utilitarian_efficiency(table) == value
            diagonal = table.diagonal()
            if criterion == "proportional":
                assert all(u >= Fraction(1, len(agents)) for u in diagonal)
            elif criterion == "envy-free":
                assert all(
                    diagonal[i] >= table[i][j]
                    for i in range(len(agents))
                    for j in range(len(agents))
                )
            elif criterion == "equitable":
                assert len(set(diagonal)) == 1


def test_max_ee_goldens():
    value, allocation = max_ee(EE_EXAMPLE)
    assert value == Fraction(1, 2)
    assert min(equity_table(EE_EXAMPLE, allocation).diagonal()) == Fraction(1, 2)

    disjoint = [uniform((0, "0.5")), uniform(("0.5", 1))]
    assert max_ee(disjoint)[0] == 1

    identical = [Valuation.uniform() for _ in range(3)]
    assert max_ee(identical)[0] == Fraction(1, 3)


def test_max_ee_times_n_never_beats_max_ue():
    rng = random.Random(161803)
    for _ in range(30):
        agents = random_constant_instance(rng, rng.randint(2, 4))
        floor, allocation = max_ee(agents)
        top, _ = max_ue(agents)
        assert len(agents) * floor <= top
        assert min(equity_table(agents, allocation).diagonal()) == floor


def test_pareto_goldens():
    assert pareto_oracle(EE_EXAMPLE, utilitarian_optimal(EE_EXAMPLE))
    halves = [uniform((0, "0.5")), uniform(("0.5", 1))]
    swapped = Allocation([IntervalSet([("0.5", 1)]), IntervalSet([(0, "0.5")])])
    assert not pareto_oracle(halves, swapped)


def test_revelation_outputs_are_pareto():
    rng = random.Random(40320)
    for _ in range(25):
        preferences = random_uniform_instance(rng, rng.randint(2, 5))
        allocation = min_average_mechanism(preferences)
        assert pareto_oracle(preferences, allocation)


def test_price_of_goldens():
    single = [Valuation.uniform()]
    for criterion in CRITERIA:
        assert price_of(single, criterion) == 1

    ratio = price_of(POP4, "proportional")
    assert ratio == Fraction(4, 3)
    assert 1 <= ratio <= 3

    assert price_of(MIDDLE, "equitable") == 1


def test_materialized_lengths_carry_exact_utilities():
    # Any feasible per-segment length table, laid out left to right, must
    # audit to exactly the utilities the length view predicts.
    rng = random.Random(65537)
    for _ in range(40):
        agents = random_constant_instance(rng, rng.randint(2, 4))
        srm = segment_rates(agents)
        n = len(agents)
        m = len(srm.segmentation)
        x = [Fraction(0)] * (n * m)
        for s, (lo, hi) in enumerate(srm.segmentation.segments()):
            remaining = hi - lo
            for i in range(n):
                take = remaining * Fraction(rng.randint(0, 8), 16)
                x[i * m + s] = take
                remaining -= take
        allocation = _materialize(srm, x)
        for i in range(n):
            predicted = sum(
                (srm.rates[i][s] * x[i * m + s] for s in range(m)), Fraction(0)
            )
            assert agents[i].measure(allocation[i]) == predicted
