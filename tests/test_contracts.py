"""One contract at every public entry that takes parallel lists or agent indices.

A list one agent short or one agent long, empty inputs, and agent indices
below 0 or at the agent count are refused with a ValueError (or a
subclass).  Such input never raises an IndexError, TypeError,
ZeroDivisionError or RuntimeError, and never gets an answer.  An empty
input is refused as needing at least one agent.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairslice.audit import Allocation, equity_table, is_non_wasteful, utilitarian_equivalent
from fairslice.equilibrium import (
    ReducedProfile,
    best_response,
    best_response_dynamics,
    is_equilibrium,
)
from fairslice.intervals import IntervalSet
from fairslice.optimal import (
    max_ee,
    max_ue,
    pareto_oracle,
    price_of,
    utilitarian_optimal,
    welfare_optima,
)
from fairslice.uniform import Profile, exact_allocation, lex_order, min_average_subset
from helpers import uniform_preferences

COUNT = ("fewer", "more", "empty")
INDEX = ("negative", "beyond")

# Each entry called on (agents, claims, order, index): n agents, n disjoint
# claims (also read as portions), the order 0..n-1 and agent 0, one of which
# the case then breaks.
ENTRIES = {
    "equity_table": (COUNT, lambda p, c, o, i: equity_table(p, Allocation(c))),
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
