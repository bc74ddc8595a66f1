"""Claim mechanisms for region-valuing agents: priority rules and the
smallest-average-group rule, against worked examples and brute-force oracles."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairslice.audit import equity_table, is_envy_free
import fairslice.uniform
from fairslice.intervals import IntervalSet, union_all
from fairslice.uniform import (
    AgentOrder,
    MAX_SEARCH_AGENTS,
    EmptySubset,
    Profile,
    TooManyAgents,
    UniformPreference,
    average_share,
    exact_allocation,
    length_game,
    lex_order,
    min_average_mechanism,
    min_average_rounds,
    min_average_subset,
    valued_region,
)
from fairslice.valuation import Valuation

from helpers import (
    interval_sets,
    random_subregion,
    random_uniform_instance,
    reference_exact_allocation,
    uniform_preferences,
)

F = Fraction


def region(*spans):
    return IntervalSet(spans)


# The running three-agent instance: two overlapping wanted regions plus a
# third hanging off the right end.
OVERLAP3 = [
    UniformPreference(region(("0", "1/2"))),
    UniformPreference(region(("0", "3/5"))),
    UniformPreference(region(("1/2", "1"))),
]


class TestUniformPreference:
    def test_rescales_to_one(self):
        p = UniformPreference(region(("0", "3/5")))
        assert p.measure(IntervalSet.unit()) == 1
        assert p.measure(region(("3/10", "3/5"))) == F(1, 2)

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            UniformPreference(IntervalSet.empty())

    def test_agrees_with_density_valuation(self):
        wanted = region(("0", "1/10"), ("2/5", "1"))
        p = UniformPreference(wanted)
        v = Valuation.uniform_on(wanted)
        assert p == v
        for probe in [region(("0", "1/2")), region(("1/20", "9/10")), IntervalSet.unit()]:
            assert p.measure(probe) == v.measure(probe)


class TestLexOrder:
    def test_disjoint_claims_keep_everything(self):
        profile = Profile([region((0, "1/4")), region(("1/2", "3/4"))])
        allocation = lex_order(profile, AgentOrder([1, 0]))
        assert allocation.portions == profile.strategies

    def test_identical_claims_go_to_the_first(self):
        profile = Profile([IntervalSet.unit(), IntervalSet.unit()])
        allocation = lex_order(profile, AgentOrder([0, 1]))
        assert allocation[0] == IntervalSet.unit()
        assert allocation[1] == IntervalSet.empty()

    def test_later_agent_loses_the_overlap(self):
        profile = Profile([region((0, "1/2")), region((0, "3/5"))])
        allocation = lex_order(profile, AgentOrder([1, 0]))
        assert allocation[0] == IntervalSet.empty()
        assert allocation[1] == region((0, "3/5"))

    def test_order_must_be_a_permutation(self):
        with pytest.raises(ValueError):
            AgentOrder([0, 0, 1])
        with pytest.raises(ValueError):
            lex_order(Profile([IntervalSet.unit()]), AgentOrder([0, 1]))

    @given(uniform_preferences(3))
    def test_portions_stay_inside_claims(self, prefs):
        profile = Profile([p.support() for p in prefs])
        allocation = lex_order(profile, AgentOrder([2, 0, 1]))
        for portion, claim in zip(allocation, profile):
            assert portion.difference(claim).is_empty()


class TestLengthGame:
    def test_sincere_disjoint_agents_keep_their_regions(self):
        prefs = [
            UniformPreference(region((0, "1/3"))),
            UniformPreference(region(("1/3", "2/3"))),
            UniformPreference(region(("2/3", "1"))),
        ]
        profile = Profile([p.support() for p in prefs])
        assert length_game(profile).portions == profile.strategies

    def test_disjoint_profile_is_a_fixpoint(self):
        profile = Profile(
            [region((0, "1/10")), region(("1/10", "1/2")), region(("1/2", "1"))]
        )
        assert length_game(profile).portions == profile.strategies

    def test_shorter_claim_wins_the_overlap(self):
        # Claims of length 2/5, 2/5 and 1/2; the tied pair resolves to the
        # lower index, so agent 0 keeps all of [0, 2/5].
        profile = Profile(
            [region((0, "2/5")), region(("1/10", "1/2")), region(("1/2", "1"))]
        )
        allocation = length_game(profile)
        assert allocation[0] == region((0, "2/5"))
        assert allocation[1] == region(("2/5", "1/2"))
        assert allocation[2] == region(("1/2", "1"))

    def test_tie_resolved_the_other_way_via_explicit_order(self):
        # Same profile under an explicit priority putting agent 1 first
        # among the tied pair.
        profile = Profile(
            [region((0, "2/5")), region(("1/10", "1/2")), region(("1/2", "1"))]
        )
        allocation = lex_order(profile, AgentOrder([1, 0, 2]))
        assert allocation[0] == region((0, "1/10"))
        assert allocation[1] == region(("1/10", "1/2"))
        assert allocation[2] == region(("1/2", "1"))

    def test_empty_claims_are_legal_and_sort_first(self):
        profile = Profile([IntervalSet.unit(), IntervalSet.empty()])
        allocation = length_game(profile)
        assert allocation[0] == IntervalSet.unit()
        assert allocation[1] == IntervalSet.empty()


class TestAverageShare:
    def test_two_agents_wanting_everything(self):
        prefs = [UniformPreference(IntervalSet.unit()) for _ in range(2)]
        assert valued_region(prefs, (0, 1), IntervalSet.unit()) == IntervalSet.unit()
        assert average_share(prefs, (0, 1), IntervalSet.unit()) == F(1, 2)

    def test_singleton_share_is_the_region_length(self):
        assert average_share(OVERLAP3, (0,), IntervalSet.unit()) == F(1, 2)
        assert average_share(OVERLAP3, (1,), IntervalSet.unit()) == F(3, 5)

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptySubset):
            average_share(OVERLAP3, (), IntervalSet.unit())
        with pytest.raises(EmptySubset):
            valued_region(OVERLAP3, (), IntervalSet.unit())

    def test_respects_the_remaining_cake(self):
        cake = region(("1/2", "1"))
        assert average_share(OVERLAP3, (1,), cake) == F(1, 10)


def oracle_min_average(prefs, agents, cake):
    # Independent route: bitmask enumeration with the same tie rule.
    agents = sorted(agents)
    best = None
    for mask in range(1, 2 ** len(agents)):
        group = tuple(a for k, a in enumerate(agents) if mask >> k & 1)
        joint = union_all(prefs[i].support().intersect(cake) for i in group)
        key = (Fraction(joint.length, len(group)), len(group), group)
        if best is None or key < best[0]:
            best = (key, group)
    return best[1]


class TestMinAverageSubset:
    def test_disjoint_equal_lengths_tie_to_first_singleton(self):
        prefs = [
            UniformPreference(region((0, "1/4"))),
            UniformPreference(region(("1/4", "1/2"))),
            UniformPreference(region(("1/2", "3/4"))),
        ]
        assert min_average_subset(prefs, range(3), IntervalSet.unit()) == (0,)

    def test_small_wanter_beats_big_wanter(self):
        prefs = [
            UniformPreference(region((0, "1/10"))),
            UniformPreference(IntervalSet.unit()),
        ]
        assert min_average_subset(prefs, range(2), IntervalSet.unit()) == (0,)
        assert average_share(prefs, (0,), IntervalSet.unit()) == F(1, 10)

    @given(uniform_preferences(5, max_denominator=8))
    def test_matches_bitmask_oracle(self, prefs):
        cake = IntervalSet.unit()
        assert min_average_subset(prefs, range(5), cake) == oracle_min_average(
            prefs, range(5), cake
        )

    @given(
        uniform_preferences(5, max_denominator=8),
        interval_sets(max_intervals=3, max_denominator=9),
    )
    def test_matches_bitmask_oracle_on_a_sub_cake(self, prefs, served):
        # Later rounds search what earlier rounds left; the grids differ, so
        # atom lengths need a common denominator finer than either.
        cake = IntervalSet.unit().difference(served)
        assert min_average_subset(prefs, range(5), cake) == oracle_min_average(
            prefs, range(5), cake
        )

    @pytest.mark.parametrize(
        "spans,cake,expected",
        [
            # An identical pair on each side: three groups average 1/8.
            ([[(0, "1/4")], [(0, "1/4")], [("1/2", "3/4")], [("1/2", "3/4")]], None, (0, 1)),
            # The same, interleaved: (0, 2) precedes (1, 3) among the pairs.
            ([[("1/2", "3/4")], [(0, "1/4")], [("1/2", "3/4")], [(0, "1/4")]], None, (0, 2)),
            # Equal-length disjoint singletons lose to the identical pair.
            ([[(0, "1/3")], [("1/3", "2/3")], [("2/3", 1)], [("1/3", "2/3")]], None, (1, 3)),
            # Agents with nothing left in the cake average 0; the first wins.
            ([[(0, "1/4")], [("1/2", "3/4")], [("1/2", "3/4")]], (0, "1/2"), (1,)),
        ],
    )
    def test_ties_resolve_to_the_smallest_then_earliest_group(self, spans, cake, expected):
        prefs = [UniformPreference(region(*s)) for s in spans]
        cake = IntervalSet.unit() if cake is None else region(cake)
        agents = range(len(prefs))
        assert min_average_subset(prefs, agents, cake) == expected
        assert oracle_min_average(prefs, agents, cake) == expected

    @given(uniform_preferences(4, max_denominator=8))
    def test_chosen_average_is_minimal(self, prefs):
        cake = IntervalSet.unit()
        chosen = min_average_subset(prefs, range(4), cake)
        best = average_share(prefs, chosen, cake)
        for size in range(1, 5):
            for group in combinations(range(4), size):
                assert average_share(prefs, group, cake) >= best

    def test_refuses_more_agents_than_the_search_can_hold(self):
        prefs = [UniformPreference(IntervalSet.unit())] * (MAX_SEARCH_AGENTS + 1)
        with pytest.raises(TooManyAgents, match="at most 22 agents, got 23"):
            min_average_subset(prefs, range(len(prefs)), IntervalSet.unit())


class TestExactAllocation:
    def test_disjoint_agents_keep_their_regions(self):
        prefs = [
            UniformPreference(region((0, "1/4"))),
            UniformPreference(region(("1/2", "3/4"))),
        ]
        shares = exact_allocation(prefs, (0, 1), IntervalSet.unit())
        assert shares[0] == region((0, "1/4"))
        assert shares[1] == region(("1/2", "3/4"))

    def test_identical_agents_split_left_to_right(self):
        prefs = [UniformPreference(IntervalSet.unit()) for _ in range(2)]
        shares = exact_allocation(prefs, (0, 1), IntervalSet.unit())
        assert shares[0] == region((0, "1/2"))
        assert shares[1] == region(("1/2", "1"))

    def test_scarcer_agent_served_from_shared_cake(self):
        # Agent 1 only wants the left quarter, so the shared quarter must
        # go to them and agent 0 is served further right.
        prefs = [
            UniformPreference(region((0, "1/2"))),
            UniformPreference(region((0, "1/4"))),
        ]
        shares = exact_allocation(prefs, (0, 1), IntervalSet.unit())
        assert shares[0] == region(("1/4", "1/2"))
        assert shares[1] == region((0, "1/4"))

    def test_transfer_pass_unwinds_a_blocked_fill(self):
        from fairslice.uniform import _augment

        # Atom 0 is shared but fully held by agent 0; atom 1 is agent 0's
        # alone and still free.  Agent 1 can only be served by a transfer.
        held = [{0: F(1, 4)}, {}]
        spare = [F(0), F(1, 4)]
        need = {0: F(0), 1: F(1, 4)}
        owners = [[0, 1], [0]]
        assert _augment(1, need, held, spare, owners)
        assert need[1] == 0
        assert held[0] == {0: F(0), 1: F(1, 4)}
        assert held[1] == {0: F(1, 4)}
        assert spare == [F(0), F(0)]

    @given(uniform_preferences(4, max_denominator=10))
    @settings(deadline=None)
    def test_feasible_for_minimising_groups(self, prefs):
        cake = IntervalSet.unit()
        group = min_average_subset(prefs, range(4), cake)
        quota = average_share(prefs, group, cake)
        shares = exact_allocation(prefs, group, cake)
        assert set(shares) == set(group)
        for i in group:
            assert shares[i].length == quota
            assert shares[i].difference(prefs[i].support()).is_empty()
        assert union_all(shares.values()) == valued_region(prefs, group, cake)


    def test_transfer_pass_runs_inside_a_fill(self, monkeypatch):
        # The greedy fill hands agent 1 the left quarter, which agent 2 also
        # wants, and leaves agent 2 short; one chain of transfers repairs it.
        prefs = [
            UniformPreference(region(("1/4", "3/4"))),
            UniformPreference(region((0, "1/4"), ("1/2", 1))),
            UniformPreference(region((0, "3/4"))),
        ]
        transfers = []
        augment = fairslice.uniform._augment

        def counted(*args):
            transfers.append(augment(*args))
            return transfers[-1]

        monkeypatch.setattr(fairslice.uniform, "_augment", counted)
        shares = exact_allocation(prefs, (0, 1, 2), IntervalSet.unit())
        assert True in transfers
        assert shares == {
            0: region(("1/4", "7/12")),
            1: region((0, "1/12"), ("3/4", 1)),
            2: region(("1/12", "1/4"), ("7/12", "3/4")),
        }
        assert shares == reference_exact_allocation(prefs, (0, 1, 2), IntervalSet.unit())

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                uniform_preferences(n, max_denominator=12),
                st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1),
                interval_sets(max_intervals=3, max_denominator=24),
            )
        )
    )
    @settings(deadline=None, max_examples=150)
    def test_integer_fill_matches_the_fraction_reference(self, instance):
        # Minimising groups of random agents on random sub-cakes, the way
        # later rounds of the mechanism meet them.
        prefs, agents, cake = instance
        group = min_average_subset(prefs, agents, cake)
        assert exact_allocation(prefs, group, cake) == reference_exact_allocation(
            prefs, group, cake
        )


class TestMinAverageMechanism:
    def test_disjoint_agents_get_everything_they_want(self):
        prefs = [
            UniformPreference(region((0, "1/4"))),
            UniformPreference(region(("2/5", "1"))),
        ]
        allocation = min_average_mechanism(prefs)
        assert allocation[0] == region((0, "1/4"))
        assert allocation[1] == region(("2/5", "1"))

    def test_nested_wanters_served_small_first(self):
        prefs = [
            UniformPreference(region((0, "1/10"))),
            UniformPreference(IntervalSet.unit()),
        ]
        allocation = min_average_mechanism(prefs)
        assert allocation[0] == region((0, "1/10"))
        assert allocation[1] == region(("1/10", "1"))
        assert equity_table(prefs, allocation).diagonal() == (1, F(9, 10))

    def test_round_trace_on_nested_wanters(self):
        prefs = [
            UniformPreference(region((0, "1/10"))),
            UniformPreference(IntervalSet.unit()),
        ]
        rounds = min_average_rounds(prefs)
        assert [r.agents for r in rounds] == [(0,), (1,)]
        assert [r.average for r in rounds] == [F(1, 10), F(9, 10)]

    @given(uniform_preferences(4))
    @settings(deadline=None)
    def test_round_averages_never_decrease(self, prefs):
        rounds = min_average_rounds(prefs)
        averages = [r.average for r in rounds]
        assert averages == sorted(averages)

    @given(uniform_preferences(4))
    @settings(deadline=None)
    def test_allocates_exactly_the_wanted_cake(self, prefs):
        allocation = min_average_mechanism(prefs)
        assert allocation.allocated_region() == union_all(
            p.support() for p in prefs
        )
        for portion, pref in zip(allocation, prefs):
            assert portion.difference(pref.support()).is_empty()

    @given(uniform_preferences(4))
    @settings(deadline=None)
    def test_output_is_envy_free(self, prefs):
        assert is_envy_free(equity_table(prefs, min_average_mechanism(prefs)))


class TestTruthfulness:
    def test_misreporting_never_pays(self):
        rng = random.Random(20260822)
        for _ in range(60):
            n = rng.randint(2, 4)
            prefs = random_uniform_instance(rng, n)
            sincere = min_average_mechanism(prefs)
            i = rng.randrange(n)
            truth = prefs[i]
            for _ in range(5):
                lie = random_subregion(rng, truth.support())
                if lie.is_empty() or lie == truth.support():
                    continue
                distorted = list(prefs)
                distorted[i] = UniformPreference(lie)
                outcome = min_average_mechanism(distorted)
                assert truth.measure(outcome[i]) <= truth.measure(sincere[i])
