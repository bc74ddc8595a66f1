import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairslice.audit import (
    equity_table,
    is_envy_free,
    is_proportional,
)
from fairslice.intervals import IntervalSet
from fairslice.mechanisms import (
    ArityMismatch,
    cut_and_choose,
    even_paz,
    last_diminisher,
    selfridge,
)
from fairslice.oracle import AgentOracle, sincere_oracles
from fairslice.valuation import Valuation
from helpers import constant_valuations, linear_valuations, uniform_valuations


def uniform(*pairs):
    return Valuation.uniform_on(list(pairs))


def run(mechanism, valuations):
    return mechanism(sincere_oracles(valuations))


def portions_pairs(result):
    return [portion.pairs() for portion in result.allocation]


def test_cut_and_choose_symmetric_tie():
    result = run(cut_and_choose, [Valuation.uniform(), Valuation.uniform()])
    assert portions_pairs(result) == [
        [(Fraction(0), Fraction(1, 2))],
        [(Fraction(1, 2), Fraction(1))],
    ]
    table = equity_table([Valuation.uniform(), Valuation.uniform()], result.allocation)
    assert table.diagonal() == (Fraction(1, 2), Fraction(1, 2))


def test_cut_and_choose_chooser_takes_preferred():
    vals = [Valuation.uniform(), uniform((0, "0.5"))]
    result = run(cut_and_choose, vals)
    assert portions_pairs(result) == [
        [(Fraction(1, 2), Fraction(1))],
        [(Fraction(0), Fraction(1, 2))],
    ]
    assert equity_table(vals, result.allocation).diagonal() == (Fraction(1, 2), Fraction(1))


def test_cut_and_choose_query_pattern():
    result = run(cut_and_choose, [Valuation.uniform(), Valuation.uniform()])
    kinds = [(r.agent, r.kind) for r in result.transcript.records]
    assert kinds == [(0, "cut"), (1, "eval"), (1, "eval")]


def test_cut_and_choose_arity():
    with pytest.raises(ArityMismatch):
        run(cut_and_choose, [Valuation.uniform()] * 3)


def test_last_diminisher_walkthrough_golden():
    vals = [uniform((0, 1)), uniform(("2/5", 1)), uniform(("4/5", 1))]
    result = run(last_diminisher, vals)
    assert portions_pairs(result) == [
        [(Fraction(0), Fraction(1, 3))],
        [(Fraction(1, 3), Fraction(3, 5))],
        [(Fraction(3, 5), Fraction(1))],
    ]
    table = equity_table(vals, result.allocation)
    assert table.entries == (
        (Fraction(1, 3), Fraction(4, 15), Fraction(2, 5)),
        (Fraction(0), Fraction(1, 3), Fraction(2, 3)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_last_diminisher_all_uniform(n):
    result = run(last_diminisher, [Valuation.uniform() for _ in range(n)])
    assert portions_pairs(result) == [
        [(Fraction(i, n), Fraction(i + 1, n))] for i in range(n)
    ]


def test_last_diminisher_arity():
    with pytest.raises(ArityMismatch):
        run(last_diminisher, [Valuation.uniform()])


def test_selfridge_all_uniform_thirds():
    vals = [Valuation.uniform()] * 3
    result = run(selfridge, vals)
    table = equity_table(vals, result.allocation)
    assert table.diagonal() == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert is_envy_free(table)


def test_selfridge_nonempty_trim_branch():
    # Agent 2 piles half its value on the middle third, forcing a real trim.
    vals = [
        Valuation.uniform(),
        Valuation.piecewise_constant(
            [((0, "1/3"), 1), (("1/3", "2/3"), 2), (("2/3", 1), 1)]
        ),
        Valuation.uniform(),
    ]
    result = run(selfridge, vals)
    trims = [r for r in result.transcript.records if r.kind == "cut"]
    assert len(trims) >= 5  # thirds, a genuine trim, and the trim division
    table = equity_table(vals, result.allocation)
    assert is_envy_free(table)


def test_selfridge_arity():
    with pytest.raises(ArityMismatch):
        run(selfridge, [Valuation.uniform()] * 2)


def ramp_then_flat(flat):
    # Density x + 1 on [0,1/2], then the constant `flat`: cuts on the ramp
    # are bisected and may land up to 10^-12 past the true point.
    return Valuation.piecewise_linear([((0, "1/2"), 1, 1), (("1/2", 1), 0, flat)])


@pytest.mark.parametrize(
    "agents",
    [
        # Agent 2's trim lands past X, in the next third.
        ["uniform", "1374999999999991/1500000000000000", "uniform"],
        # The trimming is so thin that its bisected thirds overshoot it.
        ["uniform", "1374999999991/1500000000000", "1374999999991/1500000000000"],
    ],
)
def test_selfridge_holds_bisected_cuts_to_the_slice(agents):
    vals = [Valuation.uniform() if a == "uniform" else ramp_then_flat(a) for a in agents]
    result = run(selfridge, vals)
    assert result.transcript.inexact_cuts > 0
    # The portions are disjoint (Allocation checks that) and cover the cake.
    assert sum(Valuation.uniform().measure(portion) for portion in result.allocation) == 1


def test_even_paz_needs_an_agent():
    with pytest.raises(ArityMismatch):
        even_paz([])


def test_even_paz_single_agent():
    result = run(even_paz, [uniform(("1/4", "3/4"))])
    assert portions_pairs(result) == [[(Fraction(0), Fraction(1))]]
    assert result.transcript.total == 0


def test_even_paz_four_uniform_quarters():
    vals = [Valuation.uniform() for _ in range(4)]
    result = run(even_paz, vals)
    assert portions_pairs(result) == [
        [(Fraction(i, 4), Fraction(i + 1, 4))] for i in range(4)
    ]


def test_even_paz_query_count_power_of_two():
    for k in range(1, 8):
        n = 2**k
        result = run(even_paz, [Valuation.uniform() for _ in range(n)])
        assert result.transcript.total == 2 * n * k
        assert result.transcript.total <= 3 * n * math.log2(n)


def test_replay_determinism():
    vals = [uniform((0, "0.3"), ("0.6", 1)), uniform(("0.2", "0.9")), Valuation.uniform()]
    first = run(last_diminisher, vals)
    second = run(last_diminisher, vals)
    assert first.allocation == second.allocation
    assert first.transcript.records == second.transcript.records


@settings(max_examples=150, deadline=None)
@given(constant_valuations(), constant_valuations())
def test_cut_and_choose_sincere_is_fair(v1, v2):
    vals = [v1, v2]
    table = equity_table(vals, run(cut_and_choose, vals).allocation)
    assert is_envy_free(table)
    assert is_proportional(table)


@settings(max_examples=150, deadline=None)
@given(st.lists(constant_valuations(), min_size=2, max_size=6))
def test_last_diminisher_sincere_is_proportional(vals):
    table = equity_table(vals, run(last_diminisher, vals).allocation)
    assert is_proportional(table)


@settings(max_examples=150, deadline=None)
@given(constant_valuations(), constant_valuations(), constant_valuations())
def test_selfridge_sincere_is_envy_free(v1, v2, v3):
    vals = [v1, v2, v3]
    table = equity_table(vals, run(selfridge, vals).allocation)
    assert is_envy_free(table)


@settings(max_examples=150, deadline=None)
@given(st.lists(constant_valuations(), min_size=1, max_size=6))
def test_even_paz_sincere_is_proportional(vals):
    table = equity_table(vals, run(even_paz, vals).allocation)
    assert is_proportional(table)


class _GreedyLiar(AgentOracle):
    """Claims everything is worth more and cuts shorter than honesty would."""

    def eval(self, a, b):
        true = super().eval(a, b)
        return min(Fraction(1), true * 2)

    def cut(self, a, target):
        return super().cut(a, min(target, self.valuation.eval(a, 1)) / 2)


@settings(max_examples=100, deadline=None)
@given(st.lists(constant_valuations(), min_size=2, max_size=5), st.data())
def test_one_liar_cannot_sink_sincere_guarantee(vals, data):
    # Weak truthfulness: with one distorting agent, every sincere agent keeps
    # its proportional share under last_diminisher.
    liar = data.draw(st.integers(min_value=0, max_value=len(vals) - 1))
    oracles = [
        _GreedyLiar(v) if i == liar else AgentOracle(v) for i, v in enumerate(vals)
    ]
    result = last_diminisher(oracles)
    n = len(vals)
    for i, v in enumerate(vals):
        if i != liar:
            assert v.measure(result.allocation[i]) * n >= 1


@settings(max_examples=100, deadline=None)
@given(constant_valuations(), constant_valuations())
def test_sincere_cutter_never_envies(v1, v2):
    # The cutter's guarantee in cut_and_choose holds whatever the chooser does.
    oracles = [AgentOracle(v1), _GreedyLiar(v2)]
    allocation = cut_and_choose(oracles).allocation
    assert v1.measure(allocation[0]) >= v1.measure(allocation[1])


def test_transcript_counts_inexact_cuts():
    # Halving a ramp density needs sqrt(1/2): the cut is bisected.  A
    # stand-in oracle answering with a bare point is taken as exact.
    ramp = Valuation.piecewise_linear([((0, 1), 2, 0)])
    result = run(cut_and_choose, [ramp, Valuation.uniform()])
    assert (result.transcript.cut_count, result.transcript.inexact_cuts) == (1, 1)
    assert run(cut_and_choose, [Valuation.uniform()] * 2).transcript.inexact_cuts == 0

    class _PointCutter(AgentOracle):
        def cut(self, a, target):
            return super().cut(a, target).point

    result = cut_and_choose([_PointCutter(ramp), AgentOracle(Valuation.uniform())])
    assert (result.transcript.cut_count, result.transcript.inexact_cuts) == (1, 0)
    assert isinstance(result.transcript.records[0].response, Fraction)

    # A bare int or "p/q" answer is read once, at the Recorder, as that
    # Fraction: recorded, asked about and allocated as one, and exact.  A
    # float is refused.
    class _FixedCutter(AgentOracle):
        def __init__(self, answer):
            super().__init__(Valuation.uniform())
            self.answer = answer

        def cut(self, a, target):
            return self.answer

    for answer, pairs in [(0, [[], [(0, 1)]]), ("1/3", [[(0, "1/3")], [("1/3", 1)]])]:
        point = Fraction(answer)
        result = cut_and_choose([_FixedCutter(answer), AgentOracle(Valuation.uniform())])
        assert (result.transcript.cut_count, result.transcript.inexact_cuts) == (1, 0)
        cut, ask, _ = result.transcript.records
        assert type(cut.response) is Fraction and cut.response == point
        assert type(ask.args[1]) is Fraction and ask.args == (0, point)
        assert portions_pairs(result) == [[tuple(map(Fraction, p)) for p in ps] for ps in pairs]
    with pytest.raises(TypeError):
        cut_and_choose([_FixedCutter(0.5), AgentOracle(Valuation.uniform())])


AGENTS = {
    "uniform": uniform_valuations(),
    "constant": constant_valuations(),
    "linear": linear_valuations(),
}
SIZES = {cut_and_choose: (2, 2), selfridge: (3, 3), last_diminisher: (2, 4), even_paz: (1, 5)}


@pytest.mark.parametrize("agents", AGENTS.values(), ids=list(AGENTS))
@pytest.mark.parametrize("mechanism", SIZES, ids=[m.__name__ for m in SIZES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_valuations_are_their_own_sincere_oracles(agents, mechanism, data):
    low, high = SIZES[mechanism]
    vals = data.draw(st.lists(agents, min_size=low, max_size=high))
    direct = mechanism(sincere_oracles(vals))
    wrapped = mechanism([AgentOracle(v) for v in vals])
    assert direct.allocation == wrapped.allocation
    assert direct.transcript.records == wrapped.transcript.records
    assert direct.transcript.inexact_cuts == wrapped.transcript.inexact_cuts
