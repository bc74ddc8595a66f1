"""The exact simplex against its Fraction-tableau oracle.

The library pivots on an integer-preserving tableau whose rows each keep a
denominator of their own; `reference_lp_solve` in helpers.py pivots on
Fractions.  Both run Bland's rule and take a `>=` row with rhs 0 as the
`<=` row it negates to, so they must agree on everything a caller or a
reader of --verbose-lp can see: status, value, vertex, duals, pivot count
and the trace text, on random programs and on the CLI's --verbose-lp.
Further cases pin the pivot mechanics (a row with a zero in the pivot
column is left as it was, rows hold only the nonbasic columns, envy-free
programs need no artificial) and the integer certificate, which must
refuse a vertex that is feasible but not optimal.
"""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairslice.optimal
from fairslice import simplex
from fairslice.cli import main
from fairslice.generator import random_uniform_agents
from fairslice.optimal import max_ue
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
from helpers import reference_lp_solve


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


@settings(max_examples=400, deadline=None)
@given(lp_problems())
def test_matches_fraction_tableau_on_random_programs(problem):
    solve_both(problem)


def test_add_refuses_a_row_of_the_wrong_width():
    with pytest.raises(ValueError, match="row has 1 coefficients, problem has 2 variables"):
        LpProblem([1, 2]).add([1], "<=", 1)


def test_add_refuses_an_unknown_sense():
    with pytest.raises(ValueError, match="sense must be one of <=, ==, >="):
        LpProblem([1]).add([1], "<", 1)


def test_beale_cycling_program():
    # Degenerate at the origin: a largest-coefficient rule cycles here,
    # Bland's rule walks out.
    problem = LpProblem([Fraction(3, 4), -150, Fraction(1, 50), -6])
    problem.add([Fraction(1, 4), -60, Fraction(-1, 25), 9], LESS, 0)
    problem.add([Fraction(1, 2), -90, Fraction(-1, 50), 3], LESS, 0)
    problem.add([0, 0, 1, 0], LESS, 1)
    solution = solve_both(problem)
    assert solution.status == OPTIMAL
    assert solution.value == Fraction(1, 20)


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
    assert solution.pivots == 71


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
    assert tableau.den == 2
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


@pytest.mark.parametrize("criterion", ["envy-free", "proportional", "equitable"])
def test_rows_hold_only_the_nonbasic_columns(monkeypatch, criterion):
    # Envy-free starts on its slacks; proportional and equitable run phase
    # one on artificials and expel them before phase two.  After every
    # pivot each column is basic or nonbasic, and each stored row and the
    # costs hold one entry per nonbasic column.
    problem, _ = welfare_program(monkeypatch, 4, criterion)
    seen = []
    pivot = simplex._Tableau._pivot

    def checked(self, r, q, costs=None):
        pivot(self, r, q, costs)
        width = self.cols - len(self.basis)
        assert sorted(self.nonbasic + self.basis) == list(range(self.cols))
        assert all(len(row) == width for row in self.body)
        assert costs is None or len(costs) == width
        seen.append(self.pivots)

    monkeypatch.setattr(simplex._Tableau, "_pivot", checked)
    tableau = simplex._Tableau(problem, None)
    assert bool(tableau.artificials) == (criterion != "envy-free")
    tableau.solve()
    assert seen == list(range(1, tableau.pivots + 1)) and len(seen) > 1


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
