"""One contract at every public entry that takes parallel lists or agent indices.

A list one agent short or one agent long, empty inputs, and agent indices
below 0 or at the agent count are refused with a ValueError (or a
subclass).  Such input never raises an IndexError, TypeError,
ZeroDivisionError or RuntimeError, and never gets an answer.  An empty
input is refused as needing at least one agent.

Every entry that reads an exact number reads it through one reader, which
refuses an exponent beyond 4,300 before building 10**exponent.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairslice.audit import (
    Allocation, EquityTable, equity_table, is_non_wasteful, utilitarian_equivalent,
)
from fairslice.equilibrium import (
    ReducedProfile,
    best_response,
    best_response_dynamics,
    is_equilibrium,
)
from fairslice.intervals import Interval, IntervalSet, frac
from fairslice.optimal import (
    SegmentRateMatrix,
    Segmentation,
    max_ee,
    max_ue,
    pareto_oracle,
    price_of,
    utilitarian_optimal,
    welfare_optima,
)
from fairslice.oracle import Recorder
from fairslice.simplex import LESS, LpProblem
from fairslice.uniform import (
    Profile,
    exact_allocation,
    lex_order,
    min_average_mechanism,
    min_average_rounds,
    min_average_subset,
)
from fairslice.valuation import Valuation
from helpers import uniform_preferences

COUNT = ("fewer", "more", "empty")
INDEX = ("negative", "beyond")

# Each entry called on (agents, claims, order, index): n agents, n disjoint
# claims (also read as portions), the order 0..n-1 and agent 0, one of which
# the case then breaks.
ENTRIES = {
    "equity_table": (COUNT, lambda p, c, o, i: equity_table(p, Allocation(c))),
    "EquityTable": (("empty",), lambda p, c, o, i: EquityTable([[1] * len(p) for _ in p])),
    "is_non_wasteful": (COUNT, lambda p, c, o, i: is_non_wasteful(p, Allocation(c))),
    "utilitarian_equivalent": (
        COUNT, lambda p, c, o, i: utilitarian_equivalent(p, Allocation(c), Allocation(c))
    ),
    "pareto_oracle": (COUNT, lambda p, c, o, i: pareto_oracle(p, Allocation(c))),
    "Profile.replace": (INDEX, lambda p, c, o, i: Profile(c).replace(i, IntervalSet.unit())),
    "lex_order": (COUNT + INDEX, lambda p, c, o, i: lex_order(Profile(c), o)),
    "is_equilibrium": (COUNT, lambda p, c, o, i: is_equilibrium(p, ReducedProfile(Profile(c)))),
    "best_response": (COUNT + INDEX, lambda p, c, o, i: best_response(p, Profile(c), i)),
    "best_response_dynamics": (COUNT, lambda p, c, o, i: best_response_dynamics(p, Profile(c))),
    "min_average_subset": (
        ("empty",) + INDEX, lambda p, c, o, i: min_average_subset(p, o, IntervalSet.unit())
    ),
    "exact_allocation": (
        ("empty",) + INDEX, lambda p, c, o, i: exact_allocation(p, o, IntervalSet.unit())
    ),
    "min_average_mechanism": (("empty",), lambda p, c, o, i: min_average_mechanism(p)),
    "min_average_rounds": (("empty",), lambda p, c, o, i: min_average_rounds(p)),
    "SegmentRateMatrix": (
        ("empty",),
        lambda p, c, o, i: SegmentRateMatrix(Segmentation((0, 1)), tuple((1,) for _ in p)),
    ),
    "utilitarian_optimal": (("empty",), lambda p, c, o, i: utilitarian_optimal(p)),
    "max_ue": (("empty",), lambda p, c, o, i: max_ue(p)),
    "max_ee": (("empty",), lambda p, c, o, i: max_ee(p)),
    "welfare_optima": (("empty",), lambda p, c, o, i: welfare_optima(p, "envy-free")),
    "price_of": (("empty",), lambda p, c, o, i: price_of(p, "proportional")),
}


def _slices(n):
    return [IntervalSet([(Fraction(k, n), Fraction(k + 1, n))]) for k in range(n)]


@pytest.mark.parametrize("name", sorted(ENTRIES))
@given(data=st.data())
@settings(deadline=None, max_examples=50)
def test_bad_counts_and_indices_are_refused(name, data):
    kinds, call = ENTRIES[name]
    kind = data.draw(st.sampled_from(kinds), label="kind")
    n = data.draw(st.integers(min_value=1, max_value=3), label="n")
    agents = data.draw(uniform_preferences(n), label="agents")
    claims, order, index = _slices(n), list(range(n)), 0
    if kind == "fewer":
        claims = _slices(n - 1)
    elif kind == "more":
        claims = _slices(n + 1)
    elif kind == "empty":
        agents, claims, order = [], [], []
    else:
        index = -1 if kind == "negative" else n
        order[0] = index
    with pytest.raises(ValueError) as caught:
        call(agents, claims, order, index)
    if kind == "empty":
        assert "at least one" in str(caught.value)


class _Answers:
    # A stand-in oracle that answers every query with one text.
    def __init__(self, text):
        self.text = text

    def eval(self, a, b):
        return self.text

    def cut(self, a, target):
        return self.text


# Each entry called on one number text.
NUMBER_ENTRIES = {
    "frac": frac,
    "Interval": lambda t: Interval(0, t),
    "IntervalSet": lambda t: IntervalSet([(0, t)]),
    "IntervalSet.contains": lambda t: IntervalSet.unit().contains(t),
    "Valuation.uniform_on": lambda t: Valuation.uniform_on([(0, t)]),
    "Valuation.piecewise_constant": lambda t: Valuation.piecewise_constant([((0, 1), t)]),
    "Valuation.eval": lambda t: Valuation.uniform().eval(0, t),
    "Valuation.cut": lambda t: Valuation.uniform().cut(0, t),
    "LpProblem.add": lambda t: LpProblem([1]).add([t], LESS, 1),
    "EquityTable": lambda t: EquityTable([[t]]),
    "Recorder.eval": lambda t: Recorder([_Answers(t)]).eval(0, 0, 1),
    "Recorder.cut": lambda t: Recorder([_Answers(t)]).cut(0, 0, Fraction(1, 2)),
    "Segmentation": lambda t: Segmentation((0, t, 1)),
    "SegmentRateMatrix": lambda t: SegmentRateMatrix(Segmentation((0, 1)), ((t,),)),
}


# "1e-999999999" would take hours to build, were it not refused first.
@pytest.mark.parametrize("text", ["1e4301", "1.5E-4301", "1e1_000_000", "1e-999999999"])
@pytest.mark.parametrize("name", sorted(NUMBER_ENTRIES))
def test_out_of_range_exponents_are_refused(name, text):
    with pytest.raises(ValueError, match="exponent beyond 4300"):
        NUMBER_ENTRIES[name](text)
