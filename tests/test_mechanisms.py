import itertools
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
from fairslice.generator import random_uniform_agents
from fairslice.intervals import IntervalSet, frac
from fairslice.mechanisms import (
    ArityMismatch,
    cut_and_choose,
    even_paz,
    last_diminisher,
    selfridge,
)
from fairslice.oracle import AgentOracle, Recorder, sincere_oracles
from fairslice.valuation import Valuation
from helpers import (
    LARGE_DENOMINATORS,
    LARGE_PRIME,
    constant_valuations,
    large_scale_fractions,
    linear_valuations,
    reference_cut_and_choose,
    reference_even_paz,
    reference_last_diminisher,
    reference_selfridge,
    uniform_valuations,
)


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


# Any answer on a 1/64 grid over [-1, 2], as a Fraction, a "p/q" string or,
# when whole, an int.
ANY_ANSWER = st.integers(min_value=-64, max_value=128).flatmap(
    lambda k: st.sampled_from(
        [Fraction(k, 64), "%d/64" % k] + ([k // 64] if k % 64 == 0 else [])
    )
)


class _AnyOracle:
    """Answers every eval and cut with a drawn answer, logged in `given`."""

    def __init__(self, data, given):
        self.data, self.given = data, given

    def _answer(self):
        answer = self.data.draw(ANY_ANSWER)
        self.given.append(answer)
        return answer

    def eval(self, a, b):
        return self._answer()

    def cut(self, a, target):
        return self._answer()


@pytest.mark.parametrize("mechanism", SIZES, ids=[m.__name__ for m in SIZES])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_exact_answers_make_a_valid_run(mechanism, data):
    # The Recorder reads every answer as the Fraction given and holds each
    # cut to the slice it cuts: no run raises, and every portion is a region
    # of the cake, one per agent.
    n = data.draw(st.integers(*SIZES[mechanism]))
    given = []
    result = mechanism([_AnyOracle(data, given) for _ in range(n)])
    responses = [r.response for r in result.transcript.records]
    assert responses == [Fraction(answer) for answer in given]
    kinds = [r.kind for r in result.transcript.records]
    counts = (result.transcript.eval_count, result.transcript.cut_count)
    assert counts == (kinds.count("eval"), kinds.count("cut"))
    assert all(type(response) is Fraction for response in responses)
    assert len(result.allocation) == n
    for portion in result.allocation:
        assert all(0 <= lo <= hi <= 1 for lo, hi in portion.pairs())


class _FloatOracle(AgentOracle):
    """Answers sincerely, but as a float to every question of one kind."""

    def __init__(self, valuation, kind):
        super().__init__(valuation)
        self.kind = kind

    def eval(self, a, b):
        answer = super().eval(a, b)
        return float(answer) if self.kind == "eval" else answer

    def cut(self, a, target):
        answer = super().cut(a, target).point
        return float(answer) if self.kind == "cut" else answer


@pytest.mark.parametrize("kind", ["eval", "cut"])
@pytest.mark.parametrize("mechanism", SIZES, ids=[m.__name__ for m in SIZES])
def test_float_answers_are_refused(mechanism, kind):
    n = max(2, SIZES[mechanism][0])
    with pytest.raises(TypeError):
        mechanism([_FloatOracle(Valuation.uniform(), kind) for _ in range(n)])


REFERENCES = {
    cut_and_choose: reference_cut_and_choose,
    selfridge: reference_selfridge,
    last_diminisher: reference_last_diminisher,
    even_paz: reference_even_paz,
}


class _Scripted:
    """Answers every question, whoever is asked, with the next of `answers`, cycling."""

    def __init__(self, answers):
        self.answers = itertools.cycle(answers)

    def eval(self, a, b):
        return next(self.answers)

    def cut(self, a, target):
        return next(self.answers)


def assert_runs_as_the_reference(mechanism, make_oracles):
    result, reference = mechanism(make_oracles()), REFERENCES[mechanism](make_oracles())
    assert result.transcript.records == reference.transcript.records
    assert result.allocation == reference.allocation
    assert result.transcript.inexact_cuts == reference.transcript.inexact_cuts


@pytest.mark.parametrize("agents", ["generator", "constant", "linear"])
@pytest.mark.parametrize("mechanism", SIZES, ids=[m.__name__ for m in SIZES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sincere_runs_decide_as_the_fraction_reference(mechanism, agents, data):
    n = data.draw(st.integers(*SIZES[mechanism]))
    if agents == "generator":
        vals = random_uniform_agents(data.draw(st.integers(0, 10**6)), n)
    else:
        vals = data.draw(st.lists(AGENTS[agents], min_size=n, max_size=n))
    assert_runs_as_the_reference(mechanism, lambda: sincere_oracles(vals))


@pytest.mark.parametrize("kind", sorted(LARGE_DENOMINATORS))
@pytest.mark.parametrize("mechanism", SIZES, ids=[m.__name__ for m in SIZES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stand_in_answers_decide_as_the_fraction_reference(mechanism, kind, data):
    # The answers come from a pool of at most three, so worths and marks tie
    # often and ties are broken by agent index, in both runs.
    n = data.draw(st.integers(*SIZES[mechanism]))
    pool = data.draw(st.lists(large_scale_fractions(kind), min_size=1, max_size=3))
    answers = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    assert_runs_as_the_reference(mechanism, lambda: [_Scripted(answers)] * n)


# Past a bound by less than any answer over a denominator below 2^61 - 1.
NEAR = Fraction(1, LARGE_PRIME**2)
QUARTER, HALF, THREE_QUARTERS = Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)


@pytest.mark.parametrize(
    "a, end, answer, point",
    [
        (HALF, 1, "2/4", HALF),
        (HALF, 1, 1, Fraction(1)),
        (0, THREE_QUARTERS, "6/8", THREE_QUARTERS),
        (0, THREE_QUARTERS, 0, Fraction(0)),
        (HALF, 1, HALF - NEAR, HALF),
        (HALF, 1, 1 + NEAR, Fraction(1)),
        (QUARTER, THREE_QUARTERS, QUARTER - NEAR, QUARTER),
        (QUARTER, THREE_QUARTERS, THREE_QUARTERS + NEAR, THREE_QUARTERS),
        (QUARTER, THREE_QUARTERS, QUARTER + NEAR, QUARTER + NEAR),
        (QUARTER, THREE_QUARTERS, THREE_QUARTERS - NEAR, THREE_QUARTERS - NEAR),
    ],
)
def test_cut_is_held_to_its_slice_at_the_bounds(a, end, answer, point):
    rec = Recorder([_Scripted([answer])])
    held = rec.cut(0, a, Fraction(1, 3), end)
    assert type(held) is Fraction and held == point
    (record,) = rec.records
    assert type(record.response) is Fraction and record.response == frac(answer)


LINEAR_AGENTS = [
    Valuation.piecewise_linear([((0, "1/2"), k, 1), (("1/2", 1), -1, 2)]) for k in range(1, 6)
]


@pytest.mark.parametrize("agents", ["generator", "linear"])
@pytest.mark.parametrize("mechanism", SIZES, ids=[m.__name__ for m in SIZES])
def test_protocols_take_no_fraction_ordering_comparison(mechanism, agents, monkeypatch):
    # Every decision between answers is taken on integers, the clamp and the
    # Allocation included.  The reference run shows that the count works.
    n = SIZES[mechanism][1]
    vals = random_uniform_agents(1, n) if agents == "generator" else LINEAR_AGENTS[:n]
    compared = []
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):

        def counting(x, y, name=name, compare=getattr(Fraction, name)):
            compared.append(name)
            return compare(x, y)

        monkeypatch.setattr(Fraction, name, counting)
    mechanism(sincere_oracles(vals))
    assert compared == []
    REFERENCES[mechanism](sincere_oracles(vals))
    assert compared
