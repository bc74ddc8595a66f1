"""The exact simplex against its Fraction-tableau oracle.

The library pivots on integer rows that each keep a denominator of their
own and stay in lowest terms; `reference_lp_solve` in helpers.py pivots on
Fractions.  Both price by Dantzig's rule on the Fraction tableau's reduced
costs, fall back to Bland's rule on a long degenerate run, walk the
optimal face to the lexicographically least optimal x, and take a `>=`
row with rhs 0 as the `<=` row it negates to, so they must agree on
everything a caller or a reader of --verbose-lp can see: status, value,
vertex, duals, pivot count and the trace text, on random programs and on
the CLI's --verbose-lp.  The x returned must also be the one
`reference_lex_min` finds with one LP per column, and it must not change
when Bland's rule prices every pivot, and the duals, under either rule,
must be a dual optimum of the rows as written.  Further cases pin the
pivot mechanics (rows start as the rows written, over the lcm of their
denominators, a row with a zero in the pivot column is left as it was,
rows hold only the nonbasic columns and stay in lowest terms, envy-free
programs need no artificial) and the integer certificate, which must
refuse a vertex that is feasible but not optimal.
"""

import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairslice.optimal
from fairslice import simplex
from fairslice.cli import main
from fairslice.generator import random_uniform_agents
from fairslice.optimal import max_ee, max_ue
from fairslice.simplex import (
    EQUAL,
    GREATER,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    lp_solve,
)
from helpers import reference_lex_min, reference_lp_solve


def solve_both(problem):
    """Solve with the library and the oracle; assert they agree in full."""
    ours, theirs = io.StringIO(), io.StringIO()
    solution = lp_solve(problem, ours)
    expected = reference_lp_solve(problem, theirs)
    assert solution.status == expected.status
    assert solution.value == expected.value
    assert solution.x == expected.x
    assert solution.duals == expected.duals
    assert solution.pivots == expected.pivots
    assert ours.getvalue() == theirs.getvalue()
    return solution


def rationals():
    # Zero often, so rows go degenerate and redundant; otherwise small
    # numerators over mixed denominators, so rows scale differently.
    return st.one_of(
        st.just(Fraction(0)),
        st.builds(
            Fraction,
            st.integers(min_value=-6, max_value=6),
            st.sampled_from((1, 2, 3, 4, 6, 7)),
        ),
    )


@st.composite
def lp_problems(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=5))
    problem = LpProblem(draw(st.lists(rationals(), min_size=n, max_size=n)))
    for _ in range(m):
        problem.add(
            draw(st.lists(rationals(), min_size=n, max_size=n)),
            draw(st.sampled_from((LESS, EQUAL, GREATER))),
            draw(rationals()),
        )
    return problem


@st.composite
def redundant_lp_problems(draw):
    # lp_problems, with up to two rows repeated times a positive factor:
    # a repeated == row is dropped after phase one, a repeated inequality
    # leaves a second slack on the optimal face.
    problem = draw(lp_problems())
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        coefficients, sense, rhs = draw(st.sampled_from(problem.rows))
        k = draw(st.sampled_from((1, 2, Fraction(1, 3))))
        problem.add([k * c for c in coefficients], sense, k * rhs)
    return problem


@settings(max_examples=400, deadline=None)
@given(lp_problems())
def test_matches_fraction_tableau_on_random_programs(problem):
    solve_both(problem)


def bland_only(patch):
    """Price every pivot by Bland's rule, as the degenerate-run guard does."""
    entering = simplex._Tableau._entering
    patch.setattr(
        simplex._Tableau, "_entering", lambda self, costs, bland: entering(self, costs, True)
    )


@settings(max_examples=300, deadline=None)
@given(redundant_lp_problems())
def test_returns_the_lexicographically_least_optimum_under_either_rule(problem):
    status, value, x = reference_lex_min(problem)
    dantzig = lp_solve(problem)
    with pytest.MonkeyPatch.context() as patch:
        bland_only(patch)
        bland = lp_solve(problem)
    for solution in (dantzig, bland):
        assert (solution.status, solution.value, solution.x) == (status, value, x)


def assert_duals_certify(problem, solution):
    """Check an optimal solution's duals against the rows as written, in Fractions.

    Each multiplier has the sign its row's sense asks (>= 0 on a <= row,
    <= 0 on a >= row, free on an == row), y . b equals the optimum, and
    A^T y >= c column by column.
    """
    duals = solution.duals
    assert len(duals) == len(problem.rows)
    for y, (_, sense, _) in zip(duals, problem.rows):
        assert isinstance(y, Fraction)
        assert (sense != LESS or y >= 0) and (sense != GREATER or y <= 0)
    assert sum(y * rhs for y, (_, _, rhs) in zip(duals, problem.rows)) == solution.value
    for j, c in enumerate(problem.objective):
        assert sum(y * row[j] for y, (row, _, _) in zip(duals, problem.rows)) >= c


@settings(max_examples=300, deadline=None)
@given(redundant_lp_problems())
def test_duals_are_a_dual_optimum_under_either_rule(problem):
    # The duals are one certified dual optimum, which can depend on the
    # pivot path; under either rule they must be a dual optimum.
    dantzig = lp_solve(problem)
    with pytest.MonkeyPatch.context() as patch:
        bland_only(patch)
        bland = lp_solve(problem)
    for solution in (dantzig, bland):
        if solution.status == OPTIMAL:
            assert_duals_certify(problem, solution)


@settings(max_examples=200, deadline=None)
@given(lp_problems())
def test_starting_rows_are_the_written_rows_in_lowest_terms(problem):
    # Row r starts over s_r, the lcm of its denominators: each stored
    # entry over the row's denominator is the coefficient of the row as
    # written (negated when flipped), -1 at the surplus of a >= row and 0
    # at every other surplus, and the rhs is the written one, made
    # non-negative.
    tableau = simplex._Tableau(problem, None)
    n = problem.n_vars
    inequalities = [r for r, (_, sense, _) in enumerate(problem.rows) if sense != EQUAL]
    slack_col = {r: n + k for k, r in enumerate(inequalities)}
    for r, (coefficients, sense, rhs) in enumerate(problem.rows):
        row, d = tableau.body[r], tableau.dens[r]
        assert d > 0 and math.gcd(*row, tableau.rhs[r], d) == 1
        flipped = rhs < 0 or (rhs == 0 and sense == GREATER)
        sign = -1 if flipped else 1
        greater = sense == (LESS if flipped else GREATER)
        assert Fraction(tableau.rhs[r], d) == sign * rhs >= 0
        for c, v in zip(tableau.nonbasic, row):
            if c < n:
                expected = sign * coefficients[c]
            else:
                expected = -1 if greater and c == slack_col[r] else 0
            assert Fraction(v, d) == expected


def test_add_refuses_a_row_of_the_wrong_width():
    with pytest.raises(ValueError, match="row has 1 coefficients, problem has 2 variables"):
        LpProblem([1, 2]).add([1], "<=", 1)


def test_add_refuses_an_unknown_sense():
    with pytest.raises(ValueError, match="sense must be one of <=, ==, >="):
        LpProblem([1]).add([1], "<", 1)


def test_beale_cycling_program(monkeypatch):
    # Degenerate at the origin: Dantzig's rule alone cycles here.  After
    # more than one degenerate pivot per row in a row the guard prices by
    # Bland's rule, which walks out.
    problem = LpProblem([Fraction(3, 4), -150, Fraction(1, 50), -6])
    problem.add([Fraction(1, 4), -60, Fraction(-1, 25), 9], LESS, 0)
    problem.add([Fraction(1, 2), -90, Fraction(-1, 50), 3], LESS, 0)
    problem.add([0, 0, 1, 0], LESS, 1)
    rules = []
    entering = simplex._Tableau._entering

    def spy(self, costs, bland):
        rules.append(bland)
        return entering(self, costs, bland)

    monkeypatch.setattr(simplex._Tableau, "_entering", spy)
    solution = solve_both(problem)
    assert rules[:5] == [False] * 4 + [True]
    assert solution.status == OPTIMAL
    assert solution.value == Fraction(1, 20)
    assert solution.x == (Fraction(1, 25), 0, 1, 0)


def test_redundant_equality_row_is_dropped():
    # The second row is the first times 3/2: its artificial stays basic at
    # zero with no live column to pivot on, so the row is dropped and its
    # dual reads zero.
    problem = LpProblem([1, 2])
    problem.add([Fraction(1, 3), Fraction(1, 3)], EQUAL, Fraction(1, 3))
    problem.add([Fraction(1, 2), Fraction(1, 2)], EQUAL, Fraction(1, 2))
    problem.add([1, 0], LESS, Fraction(1, 2))
    tableau = simplex._Tableau(problem, None)
    tableau.solve()
    assert tableau.row_of == [0, 2]
    # The dropped row's artificial is nonbasic now, at zero in every row kept.
    assert sorted(tableau.nonbasic + tableau.basis) == list(range(tableau.cols))
    assert all(len(row) == len(tableau.nonbasic) for row in tableau.body)
    solution = solve_both(problem)
    assert solution.value == 2
    assert solution.duals[1] == 0


def test_negative_pivot_while_expelling_artificials(monkeypatch):
    # Both rows are flipped for their negative right-hand sides.  Phase one
    # ends with an artificial basic at zero whose row has a negative entry
    # in the first live column, so the tableau pivots on a negative element
    # and must flip its signs to keep its denominator positive; phase two
    # then pivots on the flipped tableau.
    problem = LpProblem([-2, -3])
    problem.add([2, Fraction(-1, 2)], EQUAL, -1)
    problem.add([-1, Fraction(-1, 2)], GREATER, -1)
    expel_pivots = []
    pivot = simplex._Tableau._pivot

    def spy(self, r, q, costs=None):
        if costs is None:
            expel_pivots.append((self.pivots, self.body[r][q]))
        return pivot(self, r, q, costs)

    monkeypatch.setattr(simplex._Tableau, "_pivot", spy)
    solution = solve_both(problem)
    ((before, element),) = expel_pivots
    assert element < 0 and solution.pivots > before + 1
    assert solution.x == (0, 2)
    assert solution.duals == (6, 0)


def test_negative_rhs_rows_report_duals_as_written():
    # Every sense flipped by a negative right-hand side, on rows with
    # different denominators.
    problem = LpProblem([Fraction(-1, 2), Fraction(-1, 3)])
    problem.add([Fraction(-1, 2), Fraction(-1, 5)], LESS, Fraction(-1, 3))
    problem.add([Fraction(-2, 7), -1], LESS, Fraction(-1, 4))
    problem.add([-1, -1], GREATER, Fraction(-5, 2))
    problem.add([1, Fraction(-3, 2)], EQUAL, Fraction(-1, 6))
    solution = solve_both(problem)
    assert solution.status == OPTIMAL
    assert sum(y * rhs for y, (_, _, rhs) in zip(solution.duals, problem.rows)) == (
        solution.value
    )


def test_infeasible_and_unbounded():
    conflicted = LpProblem([1, 1]).add([1, 1], LESS, Fraction(1, 2))
    conflicted.add([Fraction(1, 3), Fraction(1, 3)], GREATER, 1)
    assert solve_both(conflicted).status == INFEASIBLE
    open_ended = LpProblem([1, -1]).add([1, -1], GREATER, Fraction(-1, 2))
    open_ended.add([0, 1], EQUAL, Fraction(3, 4))
    assert solve_both(open_ended).status == UNBOUNDED


def welfare_program(monkeypatch, n, criterion="envy-free"):
    programs = []

    def record(problem, trace=None):
        programs.append(problem)
        return lp_solve(problem, trace)

    monkeypatch.setattr(fairslice.optimal, "lp_solve", record)
    value, _ = max_ue(random_uniform_agents(0, n), criterion)
    (problem,) = programs
    return problem, value


def test_envy_free_welfare_program(monkeypatch):
    # The largest LP the welfare workload solves: n(n-1) envy rows at
    # n = 5, every one of them started on its slack.
    problem, value = welfare_program(monkeypatch, 5)
    solution = solve_both(problem)
    assert solution.value == value
    assert solution.pivots == 61


@pytest.mark.parametrize("n", [4, 5])
def test_envy_free_welfare_program_is_the_lexicographically_least(monkeypatch, n):
    problem, value = welfare_program(monkeypatch, n)
    assert reference_lex_min(problem) == (OPTIMAL, value, lp_solve(problem).x)


def welfare_solves(agents):
    """max_ue under each criterion and max_ee, with every LP solution they read."""
    solutions = []

    def record(problem, trace=None):
        solutions.append(lp_solve(problem, trace))
        return solutions[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fairslice.optimal, "lp_solve", record)
        results = [max_ue(agents, c) for c in ("proportional", "envy-free", "equitable")]
        results.append(max_ee(agents))
    return results, solutions


@pytest.mark.parametrize("seed, n", [(0, 3), (0, 4), (1, 5)])
def test_welfare_allocations_do_not_depend_on_the_pricing_rule(monkeypatch, seed, n):
    agents = random_uniform_agents(seed, n)
    results, solutions = welfare_solves(agents)
    bland_only(monkeypatch)
    bland_results, bland_solutions = welfare_solves(agents)
    assert bland_results == results
    assert [s.x for s in bland_solutions] == [s.x for s in solutions]
    # The two rules take different paths to that one optimum.
    assert [s.pivots for s in bland_solutions] != [s.pivots for s in solutions]


def test_envy_free_tableau_has_no_artificials(monkeypatch):
    # Capacity rows are <= and envy rows >= 0: every row starts on its
    # slack, so phase one never runs.
    problem, _ = welfare_program(monkeypatch, 4)
    assert sum(sense == GREATER for _, sense, _ in problem.rows) == 12
    tableau = simplex._Tableau(problem, None)
    assert not tableau.artificials
    assert tableau.cols == problem.n_vars + len(problem.rows)


@settings(max_examples=200, deadline=None)
@given(lp_problems())
def test_zero_rhs_greater_rows_solve_as_negated_less_rows(problem):
    negated = LpProblem(problem.objective)
    zero_greater = []
    for coefficients, sense, rhs in problem.rows:
        if sense == GREATER and rhs == 0:
            zero_greater.append(len(negated.rows))
            negated.add([-c for c in coefficients], LESS, 0)
        else:
            negated.add(coefficients, sense, rhs)
    written = lp_solve(problem)
    flipped = lp_solve(negated)
    assert (written.status, written.value, written.x, written.pivots) == (
        flipped.status,
        flipped.value,
        flipped.x,
        flipped.pivots,
    )
    if written.status == OPTIMAL:
        for r, (y, z) in enumerate(zip(written.duals, flipped.duals)):
            assert y == (-z if r in zero_greater else z)


def test_pivot_leaves_a_row_with_zero_in_the_pivot_column_alone():
    problem = LpProblem([1, 1])
    problem.add([2, 0], LESS, 1)
    problem.add([0, 1], LESS, 1)
    tableau = simplex._Tableau(problem, None)
    untouched = tableau.body[1]
    tableau._pivot(0, 0)
    assert (tableau.body[0], tableau.rhs[0]) == ([1, 0], 1)
    assert tableau.body[1] is untouched
    assert tableau.dens == [2, 1]
    assert solve_both(problem).value == Fraction(3, 2)


def test_certificate_refuses_a_feasible_vertex_that_is_not_optimal():
    # max x subject to x <= 1, stopped at its starting basis: x = 0 is
    # feasible and its multiplier 0 meets y . b == c . x, but not A^T y >= c.
    tableau = simplex._Tableau(LpProblem([1]).add([1], LESS, 1), None)
    tableau.costs = tableau._phase2_costs()
    with pytest.raises(RuntimeError):
        tableau._certify()


def checked_pivot(seen):
    """`_Tableau._pivot`, then a check of what every pivot must leave.

    Each column is basic or nonbasic, and each stored row and the costs
    hold one entry per nonbasic column.  Each row, with its rhs and its
    positive denominator, is in lowest terms, and so are the costs with
    cden.  The pivot count goes on seen.
    """
    pivot = simplex._Tableau._pivot

    def checked(self, r, q, costs=None):
        pivot(self, r, q, costs)
        width = self.cols - len(self.basis)
        assert sorted(self.nonbasic + self.basis) == list(range(self.cols))
        assert all(len(row) == width for row in self.body)
        for row, rhs, d in zip(self.body, self.rhs, self.dens):
            assert d > 0 and math.gcd(*row, rhs, d) == 1
        if costs is not None:
            assert len(costs) == width
            assert self.cden > 0 and math.gcd(*costs, self.cden) == 1
        seen.append(self.pivots)

    return checked


@pytest.mark.parametrize("criterion", ["envy-free", "proportional", "equitable"])
def test_rows_hold_only_the_nonbasic_columns(monkeypatch, criterion):
    # Envy-free starts on its slacks; proportional and equitable run phase
    # one on artificials and expel them before phase two.
    problem, _ = welfare_program(monkeypatch, 4, criterion)
    seen = []
    monkeypatch.setattr(simplex._Tableau, "_pivot", checked_pivot(seen))
    tableau = simplex._Tableau(problem, None)
    assert bool(tableau.artificials) == (criterion != "envy-free")
    tableau.solve()
    assert seen == list(range(1, tableau.pivots + 1)) and len(seen) > 1


@settings(max_examples=200, deadline=None)
@given(lp_problems())
def test_rows_stay_in_lowest_terms_on_random_programs(problem):
    # Degenerate, redundant and phase-one programs: every pivot, phase one,
    # expelling artificials and phase two, leaves the same invariants.
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex._Tableau, "_pivot", checked_pivot(seen))
        solution = lp_solve(problem)
    assert seen == list(range(1, solution.pivots + 1))


def assert_verbose_lp_matches_fraction_tableau(tmp_path, capsys, monkeypatch, criterion):
    scenario = {
        "agents": [
            {"id": "a", "valuation": {"type": "uniform", "pieces": [{"lo": 0, "hi": "2/3"}]}},
            {"id": "b", "valuation": {"type": "uniform", "pieces": [{"lo": "1/3", "hi": 1}]}},
            {"id": "c", "valuation": {"type": "uniform", "pieces": [{"lo": "1/5", "hi": "4/5"}]}},
        ]
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    argv = ["optimal", str(path), "--criterion", criterion, "--verbose-lp"]
    assert main(argv) == 0
    ours = capsys.readouterr()
    monkeypatch.setattr(fairslice.optimal, "lp_solve", reference_lp_solve)
    assert main(argv) == 0
    theirs = capsys.readouterr()
    assert "pivot 1:" in ours.err
    assert ours.err == theirs.err
    assert ours.out == theirs.out


def test_verbose_lp_text_matches_fraction_tableau(tmp_path, capsys, monkeypatch):
    assert_verbose_lp_matches_fraction_tableau(tmp_path, capsys, monkeypatch, "envy-free")


@pytest.mark.parametrize("criterion", ["proportional", "equitable"])
def test_verbose_lp_phase_one_text_matches_fraction_tableau(
    tmp_path, capsys, monkeypatch, criterion
):
    # These programs start on artificials, so the trace runs through phase
    # one and the expulsion of the artificials before phase two.
    assert_verbose_lp_matches_fraction_tableau(tmp_path, capsys, monkeypatch, criterion)
