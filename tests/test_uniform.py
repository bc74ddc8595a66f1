"""Claim mechanisms for region-valuing agents: priority rules and the
smallest-average-group rule, against worked examples and brute-force oracles."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairslice.audit import equity_table, is_envy_free
import fairslice.uniform
from fairslice.generator import random_region, random_uniform_agents
from fairslice.intervals import IntervalSet, _atom_table, _weight, union_all
from fairslice.uniform import (
    AgentOrder,
    EmptySubset,
    Infeasible,
    Profile,
    UniformPreference,
    _check_fill,
    exact_allocation,
    length_game,
    lex_order,
    min_average_mechanism,
    min_average_rounds,
    min_average_subset,
    wanted_regions,
)
from fairslice.valuation import UnsupportedValuationClass, Valuation

from helpers import (
    LARGE_DENOMINATORS,
    claim_profiles,
    interval_sets,
    large_scale_regions,
    random_subregion,
    random_uniform_instance,
    reference_average_share,
    reference_closures,
    reference_exact_allocation,
    reference_length_game,
    reference_leximin_lengths,
    reference_lex_order,
    reference_min_average_rounds,
    reference_min_average_subset,
    reference_valued_region,
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

    def test_order_refuses_what_is_not_an_index(self):
        # A float or a Fraction is never truncated to an agent, nor is a
        # string read as one.
        profile = Profile([IntervalSet.unit(), IntervalSet.unit()])
        for order in ([1.9, 0.2], ["1", "0"], [Fraction(1), 0]):
            with pytest.raises(TypeError):
                AgentOrder(order)
            with pytest.raises(TypeError):
                lex_order(profile, order)

    @given(uniform_preferences(3))
    def test_portions_stay_inside_claims(self, prefs):
        profile = Profile([p.support() for p in prefs])
        allocation = lex_order(profile, AgentOrder([2, 0, 1]))
        for portion, claim in zip(allocation, profile):
            assert portion.difference(claim).is_empty()

    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.tuples(claim_profiles(n), st.permutations(range(n)))
        )
    )
    def test_matches_the_region_reference(self, case):
        # Random claims, empty, repeated and tied among them, in random orders.
        profile, order = case
        assert lex_order(profile, order) == reference_lex_order(profile, order)


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

    @given(st.integers(min_value=1, max_value=5).flatmap(claim_profiles))
    def test_matches_the_region_reference(self, profile):
        assert length_game(profile) == reference_length_game(profile)


class TestAverageShare:
    def test_two_agents_wanting_everything(self):
        prefs = [UniformPreference(IntervalSet.unit()) for _ in range(2)]
        assert reference_valued_region(prefs, (0, 1), IntervalSet.unit()) == IntervalSet.unit()
        assert reference_average_share(prefs, (0, 1), IntervalSet.unit()) == F(1, 2)

    def test_singleton_share_is_the_region_length(self):
        assert reference_average_share(OVERLAP3, (0,), IntervalSet.unit()) == F(1, 2)
        assert reference_average_share(OVERLAP3, (1,), IntervalSet.unit()) == F(3, 5)

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptySubset):
            reference_average_share(OVERLAP3, (), IntervalSet.unit())
        with pytest.raises(EmptySubset):
            reference_valued_region(OVERLAP3, (), IntervalSet.unit())

    def test_respects_the_remaining_cake(self):
        cake = region(("1/2", "1"))
        assert reference_average_share(OVERLAP3, (1,), cake) == F(1, 10)


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
        assert reference_average_share(prefs, (0,), IntervalSet.unit()) == F(1, 10)

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
            # Bitmask order would pick (1, 2), mask 0b0110, before (0, 3),
            # mask 0b1001; lexicographic order picks (0, 3).
            ([[(0, "1/4")], [("1/2", "3/4")], [("1/2", "3/4")], [(0, "1/4")]], None, (0, 3)),
        ],
    )
    def test_ties_resolve_to_the_smallest_then_earliest_group(self, spans, cake, expected):
        prefs = [UniformPreference(region(*s)) for s in spans]
        cake = IntervalSet.unit() if cake is None else region(cake)
        agents = range(len(prefs))
        assert min_average_subset(prefs, agents, cake) == expected
        assert oracle_min_average(prefs, agents, cake) == expected
        assert reference_min_average_subset(prefs, agents, cake) == expected

    def test_repeated_agents_count_once(self):
        cake = IntervalSet.unit()
        assert min_average_subset(OVERLAP3, (0, 0), cake) == (0,)
        assert min_average_subset(OVERLAP3, (1, 1, 1, 1, 0), cake) == (
            min_average_subset(OVERLAP3, (0, 1), cake)
        )
        with pytest.raises(EmptySubset):
            min_average_subset(OVERLAP3, (), cake)

    @given(uniform_preferences(4, max_denominator=8))
    def test_chosen_average_is_minimal(self, prefs):
        cake = IntervalSet.unit()
        chosen = min_average_subset(prefs, range(4), cake)
        best = reference_average_share(prefs, chosen, cake)
        for size in range(1, 5):
            for group in combinations(range(4), size):
                assert reference_average_share(prefs, group, cake) >= best

    def test_matches_the_exhaustive_kernel_on_every_round(self):
        # Every round of the mechanism on generator instances, then the same
        # agents on the cake a random region leaves.
        rng = random.Random(20261018)
        for n in range(2, 17):
            for _ in range(5):
                prefs = random_uniform_agents(rng.randrange(2**32), n)
                remaining, cake = tuple(range(n)), IntervalSet.unit()
                for rnd in min_average_rounds(prefs):
                    assert rnd.agents == reference_min_average_subset(prefs, remaining, cake)
                    cake = cake.difference(rnd.region)
                    remaining = tuple(i for i in remaining if i not in rnd.agents)
                cake = IntervalSet.unit().difference(random_region(rng))
                assert min_average_subset(prefs, range(n), cake) == (
                    reference_min_average_subset(prefs, range(n), cake)
                )

    def test_serves_more_agents_than_an_exhaustive_search_can(self):
        # Any k of them average 1/k, so the group is all 23, past the old bound of 22.
        prefs = [UniformPreference(IntervalSet.unit())] * 23
        assert min_average_subset(prefs, range(23), IntervalSet.unit()) == tuple(range(23))
        allocation = min_average_mechanism(prefs)
        assert [portion.length for portion in allocation] == [F(1, 23)] * 23

    @pytest.mark.parametrize("n", [8, 22, 64])
    def test_closures_match_one_search_per_agent(self, n, monkeypatch):
        # Every round's closing step, on the fill that serves everyone.
        closures = fairslice.uniform._closures
        groups = []

        def checked(held, spare, owned):
            groups.append(closures(held, spare, owned))
            assert groups[-1] == reference_closures(held, spare, owned)
            return groups[-1]

        monkeypatch.setattr(fairslice.uniform, "_closures", checked)
        for seed in range(3):
            min_average_mechanism(random_uniform_agents(seed, n))
        assert len(groups) >= 3

    def test_matches_the_leximin_lengths_at_24_agents(self):
        # Seed 2 serves three singletons before the other 21 agents.
        prefs = random_uniform_agents(2, 24)
        lengths = [portion.length for portion in min_average_mechanism(prefs)]
        assert lengths == reference_leximin_lengths(prefs)


def _atoms_of(mask, atoms):
    return IntervalSet(span for k, span in enumerate(atoms) if mask >> k & 1)


def check_atom_table(regions):
    # The table against region algebra: lengths, each region, and the
    # intersection and differences of every pair.
    marks, weights, bits, scale = _atom_table(regions)
    atoms = [(F(lo, scale), F(hi, scale)) for lo, hi in zip(marks, marks[1:])]
    assert len(weights) == len(atoms) and len(bits) == len(regions)
    # Atoms are consecutive, of positive length, and span every region.
    assert all(lo < hi for lo, hi in atoms)
    assert all(F(w, scale) == hi - lo for w, (lo, hi) in zip(weights, atoms))
    for r, mask in zip(regions, bits):
        assert F(_weight(mask, weights), scale) == r.length
        assert _atoms_of(mask, atoms) == r
    for (x, a), (y, b) in combinations(zip(regions, bits), 2):
        assert _atoms_of(a & b, atoms) == x.intersect(y)
        assert _atoms_of(a & ~b, atoms) == x.difference(y)
        assert _atoms_of(b & ~a, atoms) == y.difference(x)


class TestAtomTable:
    @given(st.lists(interval_sets(max_intervals=3, max_denominator=6), max_size=5))
    # A region outside the first region's span, and an empty one.
    @example([region((0, "1/8")), IntervalSet.empty(), region(("7/8", 1), ("1/4", "1/3"))])
    def test_masks_rebuild_lengths_and_region_algebra(self, regions):
        check_atom_table(regions)


@pytest.mark.parametrize("kind", sorted(LARGE_DENOMINATORS))
class TestLargeScales:
    """Endpoints over large coprime, 2^-40 dyadic and hash-alike denominators."""

    @given(data=st.data())
    @settings(deadline=None, max_examples=50)
    def test_atom_table(self, kind, data):
        check_atom_table(data.draw(st.lists(large_scale_regions(kind), max_size=5)))

    @given(data=st.data())
    @settings(deadline=None, max_examples=50)
    def test_length_game(self, kind, data):
        profile = Profile(data.draw(st.lists(large_scale_regions(kind), min_size=1, max_size=5)))
        assert length_game(profile) == reference_length_game(profile)

    @given(data=st.data())
    @settings(deadline=None, max_examples=30)
    def test_min_average_rounds(self, kind, data):
        supports = large_scale_regions(kind).filter(lambda r: not r.is_empty())
        prefs = data.draw(st.lists(supports.map(UniformPreference), min_size=1, max_size=5))
        check_round_trace(prefs)

    @given(data=st.data())
    @settings(deadline=None, max_examples=30)
    def test_cake_as_pairs(self, kind, data):
        # The group search and the fill take a cake as (lo, hi) pairs, as
        # every entry that takes a region does, with the same answer or error.
        supports = large_scale_regions(kind).filter(lambda r: not r.is_empty())
        prefs = data.draw(st.lists(supports.map(UniformPreference), min_size=1, max_size=4))
        cake = data.draw(large_scale_regions(kind))
        agents = range(len(prefs))
        group = min_average_subset(prefs, agents, cake)
        assert min_average_subset(prefs, agents, cake.pairs()) == group
        for members in (group, agents):
            assert outcome(exact_allocation, prefs, members, cake.pairs()) == (
                outcome(exact_allocation, prefs, members, cake)
            )


def outcome(f, *args):
    # A call's answer, or the class and text of its error.
    try:
        return f(*args)
    except ValueError as error:
        return type(error), str(error)


@pytest.mark.parametrize("entry", [min_average_subset, exact_allocation])
def test_a_float_cake_end_is_refused_as_frac_does(entry):
    prefs = [UniformPreference(region((0, "1/2")))]
    assert entry(prefs, [0], [(0, 1)]) == entry(prefs, [0], IntervalSet.unit())
    with pytest.raises(TypeError, match="expected an exact rational"):
        entry(prefs, [0], [(0, 0.5)])


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
        owned = {0: [0, 1], 1: [0]}
        assert _augment(1, need, held, spare, owned)
        assert need[1] == 0
        assert held[0] == {0: F(0), 1: F(1, 4)}
        assert held[1] == {0: F(1, 4)}
        assert spare == [F(0), F(0)]

    def test_repeated_agents_count_once(self):
        cake = IntervalSet.unit()
        assert exact_allocation(OVERLAP3, (0, 0), cake) == exact_allocation(OVERLAP3, (0,), cake)
        assert exact_allocation(OVERLAP3, (1, 0, 1), cake) == (
            exact_allocation(OVERLAP3, (0, 1), cake)
        )
        with pytest.raises(EmptySubset):
            exact_allocation(OVERLAP3, (), cake)

    def test_group_that_does_not_minimise_the_average_is_infeasible(self):
        # Together the two average 1/2, but agent 0 wants only 1/10.
        prefs = [
            UniformPreference(region((0, "1/10"))),
            UniformPreference(IntervalSet.unit()),
        ]
        with pytest.raises(Infeasible, match="cannot give agent 0 a portion of length 1/2"):
            exact_allocation(prefs, (0, 1), IntervalSet.unit())

    @pytest.mark.parametrize(
        "held,spare,message",
        [
            # Agent 1 holds one unit short of the share.
            ([{0: 2}, {1: 1}], [0, 1], "portions do not meet the average share"),
            # Agent 0 holds part of run 1, which only agent 1 wants.
            ([{0: 1, 1: 1}, {0: 1, 1: 1}], [0, 0], "a portion strays outside"),
            # Both hold the share on their own runs, but run 1 has room left.
            ([{0: 2}, {1: 2}], [0, 1], "portions do not cover the jointly wanted cake"),
        ],
    )
    def test_closing_checks_refuse_a_bad_fill(self, held, spare, message):
        # Agent 0 wants run 0 and agent 1 both runs; the share is 2.
        owned = {0: [0], 1: [0, 1]}
        _check_fill([{0: 2}, {1: 2}], [0, 0], owned, 2)
        with pytest.raises(Infeasible, match=message):
            _check_fill(held, spare, owned, 2)

    @given(uniform_preferences(4, max_denominator=10))
    @settings(deadline=None)
    def test_feasible_for_minimising_groups(self, prefs):
        cake = IntervalSet.unit()
        group = min_average_subset(prefs, range(4), cake)
        quota = reference_average_share(prefs, group, cake)
        shares = exact_allocation(prefs, group, cake)
        assert set(shares) == set(group)
        for i in group:
            assert shares[i].length == quota
            assert shares[i].difference(prefs[i].support()).is_empty()
        assert union_all(shares.values()) == reference_valued_region(prefs, group, cake)


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


def check_round_trace(prefs):
    # Each round's region and average are the group's wanted cake within
    # what the earlier rounds left, and its share per member; every round
    # equals the one the per-round loop records.
    cake = IntervalSet.unit()
    rounds = min_average_rounds(prefs)
    for rnd in rounds:
        assert rnd.region == reference_valued_region(prefs, rnd.agents, cake)
        assert rnd.average == reference_average_share(prefs, rnd.agents, cake)
        cake = cake.difference(rnd.region)
    assert rounds == reference_min_average_rounds(prefs)


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
    def test_round_trace_matches_the_oracles(self, prefs):
        check_round_trace(prefs)

    def test_round_trace_matches_the_oracles_on_generator_instances(self):
        rng = random.Random(20260813)
        for _ in range(60):
            check_round_trace(random_uniform_agents(rng.randrange(2**32), rng.randint(2, 8)))

    @pytest.mark.parametrize("n", [16, 22, 32])
    def test_round_trace_matches_the_oracles_on_large_generator_instances(self, n):
        rng = random.Random(20261019 + n)
        for _ in range(4):
            check_round_trace(random_uniform_agents(rng.randrange(2**32), n))

    def test_cuts_the_cake_into_atoms_once_per_run(self, monkeypatch):
        tables = []
        atom_table = fairslice.uniform._atom_table

        def counted(regions):
            tables.append(regions)
            return atom_table(regions)

        monkeypatch.setattr(fairslice.uniform, "_atom_table", counted)
        # Seed 2 serves three singletons before the other 21 agents.
        assert len(min_average_rounds(random_uniform_agents(2, 24))) == 4
        assert len(tables) == 1

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
        assert union_all(allocation.portions) == union_all(
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


# Agent a wants all the cake, but nine times as much on its right half: not
# piecewise uniform.  The min-average share [0, 1/2] would be worth 1/10 to
# it, against 9/10 for claiming b's half.
STEEP = [
    Valuation.piecewise_constant([((0, "1/2"), 1), (("1/2", 1), 9)]),
    Valuation.uniform_on([("1/2", 1)]),
]


@pytest.mark.parametrize(
    "entry",
    [
        wanted_regions,
        min_average_mechanism,
        min_average_rounds,
        lambda prefs: min_average_subset(prefs, [0, 1], IntervalSet.unit()),
        lambda prefs: exact_allocation(prefs, [0, 1], IntervalSet.unit()),
    ],
    ids=["wanted_regions", "min_average_mechanism", "min_average_rounds",
         "min_average_subset", "exact_allocation"],
)
def test_revelation_entries_refuse_other_agents(entry):
    with pytest.raises(UnsupportedValuationClass, match="need piecewise-uniform agents"):
        entry(STEEP)


def test_wanted_regions_are_the_supports():
    prefs = [Valuation.uniform_on([(0, "1/4"), ("1/2", 1)]), Valuation.uniform()]
    assert wanted_regions(prefs) == [region((0, F(1, 4)), (F(1, 2), 1)), IntervalSet.unit()]
