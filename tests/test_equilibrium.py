"""Equilibrium machinery for the shortest-claim-first game: reduction,
the two-condition characterisation, best responses, and dynamics."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairslice.audit import equity_table, is_envy_free, utilitarian_equivalent
from fairslice.equilibrium import (
    EquilibriumReport,
    LengthOrderViolation,
    NotReduced,
    NotWellBehaved,
    ReducedProfile,
    UnallocatedValuedCake,
    _board,
    _candidates,
    best_response,
    best_response_dynamics,
    is_equilibrium,
    reduce_profile,
)
from fairslice.generator import random_uniform_agents
from fairslice.intervals import IntervalSet, union_all
from fairslice.uniform import (
    Profile,
    UniformPreference,
    length_game,
    min_average_mechanism,
)
from fairslice.valuation import UnsupportedValuationClass, Valuation

from helpers import (
    claim_profiles,
    fine_claim_profiles,
    full_profiles,
    random_subregion,
    random_uniform_instance,
    reference_best_response,
    reference_best_response_dynamics,
    reference_candidates,
    reference_is_equilibrium,
    reference_uncontested_region,
    uniform_preferences,
)

F = Fraction


def region(*spans):
    return IntervalSet(spans)


OVERLAP3 = [
    UniformPreference(region(("0", "1/2"))),
    UniformPreference(region(("0", "3/5"))),
    UniformPreference(region(("1/2", "1"))),
]


class TestReduceProfile:
    def test_disjoint_profile_is_already_reduced(self):
        profile = Profile([region((0, "1/4")), region(("1/2", "1"))])
        reduced = reduce_profile(profile)
        assert reduced.profile == profile

    def test_overlapping_claims_shrink_to_their_winnings(self):
        # Claim lengths 2/5, 2/5, 1/2; the tied pair resolves to the lower
        # index, so agent 0 keeps its whole claim and agent 1 is pushed off.
        profile = Profile(
            [region((0, "2/5")), region(("1/10", "1/2")), region(("1/2", "1"))]
        )
        reduced = reduce_profile(profile).profile
        assert reduced.strategies == (
            region((0, "2/5")),
            region(("2/5", "1/2")),
            region(("1/2", "1")),
        )

    @given(uniform_preferences(4))
    @settings(deadline=None)
    def test_idempotent_and_allocation_preserving(self, prefs):
        profile = Profile([p.support() for p in prefs])
        reduced = reduce_profile(profile).profile
        assert reduce_profile(reduced).profile == reduced
        assert length_game(profile) == length_game(reduced)


class TestUncontestedRegion:
    def test_disjoint_preferences_are_fully_uncontested(self):
        prefs = [
            UniformPreference(region((0, "1/3"))),
            UniformPreference(region(("2/3", "1"))),
        ]
        assert reference_uncontested_region(prefs, 0) == region((0, "1/3"))
        assert reference_uncontested_region(prefs, 1) == region(("2/3", "1"))

    def test_overlapping_instance(self):
        assert reference_uncontested_region(OVERLAP3, 0) == IntervalSet.empty()
        assert reference_uncontested_region(OVERLAP3, 1) == IntervalSet.empty()
        assert reference_uncontested_region(OVERLAP3, 2) == region(("3/5", "1"))

    def test_identical_preferences_leave_nothing_uncontested(self):
        prefs = [UniformPreference(IntervalSet.unit()) for _ in range(3)]
        for i in range(3):
            assert reference_uncontested_region(prefs, i) == IntervalSet.empty()


@st.composite
def equilibrium_inputs(draw):
    """Preferences and a profile on which any check of `is_equilibrium` may fail.

    The profile is random (often not reduced, not well behaved, with empty
    claims), reduced, reduced after trimming to the wanted regions, or a
    full split of the wanted cake.  It comes as a ReducedProfile or bare,
    and the preferences are now and then one agent too many or too few.
    The profile may be empty.
    """
    n = draw(st.integers(min_value=0, max_value=4))
    prefs = draw(uniform_preferences(n))
    # reduce_profile refuses an empty profile, which is raw.
    kind = draw(st.sampled_from(["raw", "reduced", "trimmed", "full"] if n else ["raw"]))
    if kind == "full":
        profile = draw(full_profiles(prefs))
    else:
        profile = draw(claim_profiles(n))
        if kind == "trimmed":
            profile = Profile([c.intersect(p.support()) for c, p in zip(profile, prefs)])
        if kind != "raw":
            profile = reduce_profile(profile).profile
    extra = draw(st.sampled_from([0, 0, 0, 1, -1]))
    if extra > 0:
        prefs = prefs + draw(uniform_preferences(1))
    elif extra < 0:
        prefs = prefs[:-1]
    if draw(st.sampled_from([False] * 4 + [True])):
        return prefs, profile
    return prefs, ReducedProfile(profile)


def _outcome(check, prefs, reduced):
    # The report, or the class and message of the error raised.
    try:
        return check(prefs, reduced)
    except ValueError as error:
        return type(error), str(error)


class TestIsEquilibrium:
    def test_sincere_disjoint_profile_is_an_equilibrium(self):
        prefs = [
            UniformPreference(region((0, "1/3"))),
            UniformPreference(region(("1/3", "1"))),
        ]
        reduced = reduce_profile(Profile([p.support() for p in prefs]))
        report = is_equilibrium(prefs, reduced)
        assert report == EquilibriumReport(True)

    def test_unclaimed_wanted_cake_is_reported(self):
        # [1/2, 3/5] is wanted by agents 1 and 2 but claimed by nobody.
        profile = Profile(
            [region((0, "1/10")), region(("1/10", "1/2")), region(("3/5", "1"))]
        )
        report = is_equilibrium(OVERLAP3, ReducedProfile(profile))
        assert not report.is_equilibrium
        assert report.violated_condition == UnallocatedValuedCake(
            region(("1/2", "3/5"))
        )
        assert report.deviating_agent == 1

    def test_longer_claim_on_contested_cake_is_reported(self):
        prefs = [
            UniformPreference(region((0, "1/2"))),
            UniformPreference(region((0, "1/2"))),
        ]
        profile = Profile([region((0, "1/2")), IntervalSet.empty()])
        report = is_equilibrium(prefs, ReducedProfile(profile))
        assert not report.is_equilibrium
        assert report.violated_condition == LengthOrderViolation(
            0, 1, region((0, "1/2"))
        )
        assert report.deviating_agent == 1

    def test_uncertified_profile_rejected(self):
        profile = Profile([region((0, "1/2")), IntervalSet.empty()])
        prefs = [UniformPreference(IntervalSet.unit()) for _ in range(2)]
        with pytest.raises(NotReduced):
            is_equilibrium(prefs, profile)

    def test_wrong_certificate_rejected(self):
        overlapping = Profile([region((0, "1/2")), region((0, "1/2"))])
        prefs = [UniformPreference(IntervalSet.unit()) for _ in range(2)]
        with pytest.raises(NotReduced):
            is_equilibrium(prefs, ReducedProfile(overlapping))

    def test_ill_behaved_profile_rejected(self):
        prefs = [
            UniformPreference(region((0, "1/4"))),
            UniformPreference(region(("1/2", "1"))),
        ]
        profile = Profile([region((0, "1/2")), region(("1/2", "1"))])
        with pytest.raises(NotWellBehaved):
            is_equilibrium(prefs, ReducedProfile(profile))

    @pytest.mark.parametrize(
        "second, error, message",
        [
            # Not reduced, one preference too many and not well behaved.
            ((0, "1/2"), NotReduced, "certificate is wrong: some claim loses part of itself"),
            # Reduced, one preference too many and not well behaved.
            (("1/2", 1), ValueError, "3 preferences but 2 strategies"),
        ],
    )
    def test_checks_run_in_order(self, second, error, message):
        profile = ReducedProfile(Profile([region((0, "1/2")), region(second)]))
        prefs = [UniformPreference(region((0, "1/4")))] * 3
        for check in (is_equilibrium, reference_is_equilibrium):
            with pytest.raises(error) as caught:
                check(prefs, profile)
            assert type(caught.value) is error and str(caught.value) == message

    @given(equilibrium_inputs())
    @settings(deadline=None, max_examples=300)
    def test_matches_the_region_reference(self, case):
        prefs, reduced = case
        assert _outcome(is_equilibrium, prefs, reduced) == _outcome(
            reference_is_equilibrium, prefs, reduced
        )

    @given(uniform_preferences(4))
    @settings(deadline=None)
    def test_min_average_outputs_are_equilibria(self, prefs):
        allocation = min_average_mechanism(prefs)
        reduced = ReducedProfile(Profile(allocation.portions))
        assert is_equilibrium(prefs, reduced).is_equilibrium

    @given(
        st.integers(min_value=2, max_value=4)
        .flatmap(lambda n: uniform_preferences(n, max_denominator=8))
        .flatmap(lambda prefs: st.tuples(st.just(prefs), full_profiles(prefs)))
    )
    @settings(deadline=None)
    def test_full_profiles_are_equilibria_exactly_at_the_mechanism_lengths(self, instance):
        # The equilibrium lengths are the lexicographically optimal base of
        # the coverage polymatroid, which the min-average rule computes
        # (Fujishige, 1980); about one profile in nine drawn here is one.
        prefs, profile = instance
        report = is_equilibrium(prefs, ReducedProfile(profile))
        lengths = [portion.length for portion in min_average_mechanism(prefs)]
        assert report.is_equilibrium == ([claim.length for claim in profile] == lengths)


class TestBestResponse:
    def test_single_agent_claims_everything_wanted(self):
        prefs = [UniformPreference(region((0, "1/4"), ("1/2", "1")))]
        strategy, gain = best_response(prefs, Profile([IntervalSet.empty()]), 0)
        assert strategy == region((0, "1/4"), ("1/2", "1"))
        assert gain == 1

    def test_claiming_unclaimed_cake_with_priority_kept(self):
        # Reduced profile ([0,1/10], [1/10,1/2], [1/2,1]) on the running
        # instance.  Agent 1 wants [0,3/5]; growing its claim to cover
        # [1/2,3/5] lifts its length to 1/2, which still wins the tie
        # against agent 2, so the whole extension is kept.
        profile = Profile(
            [region((0, "1/10")), region(("1/10", "1/2")), region(("1/2", "1"))]
        )
        strategy, gain = best_response(OVERLAP3, profile, 1)
        assert strategy == region(("1/10", "3/5"))
        assert gain == F(5, 6) - F(2, 3)

    def test_no_gain_at_equilibrium(self):
        prefs = [
            UniformPreference(region((0, "1/3"))),
            UniformPreference(region(("1/3", "1"))),
        ]
        profile = Profile([p.support() for p in prefs])
        for i in range(2):
            strategy, gain = best_response(prefs, profile, i)
            assert gain == 0
            assert strategy == profile[i]

    def test_shrinking_beats_a_shorter_rival(self):
        # Both want [0,1/2]; agent 1 claims nothing, agent 0 claims all of
        # it.  Agent 1's best move is a shorter claim inside [0,1/2].
        prefs = [
            UniformPreference(region((0, "1/2"))),
            UniformPreference(region((0, "1/2"))),
        ]
        profile = Profile([region((0, "1/2")), IntervalSet.empty()])
        strategy, gain = best_response(prefs, profile, 1)
        assert gain > 0
        assert strategy.length < F(1, 2)
        assert strategy.difference(region((0, "1/2"))).is_empty()

    @given(uniform_preferences(3, max_denominator=8))
    @settings(deadline=None, max_examples=60)
    def test_agrees_with_the_equilibrium_conditions(self, prefs):
        # On certified reduced well behaved profiles, "someone gains" and
        # "a condition fails" must be the same statement.
        profile = reduce_profile(
            Profile([p.support() for p in prefs])
        ).profile
        report = is_equilibrium(prefs, ReducedProfile(profile))
        gains = [best_response(prefs, profile, i)[1] for i in range(3)]
        assert report.is_equilibrium == all(g == 0 for g in gains)

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.tuples(
                uniform_preferences(n, max_denominator=8),
                claim_profiles(n, max_denominator=8),
            )
        )
    )
    @settings(deadline=None, max_examples=80)
    def test_matches_the_replaying_reference(self, instance):
        prefs, profile = instance
        for i in range(len(prefs)):
            assert best_response(prefs, profile, i) == reference_best_response(
                prefs, profile, i
            )

    @given(
        st.integers(min_value=1, max_value=6)
        .flatmap(lambda n: uniform_preferences(n, max_denominator=12))
        .flatmap(lambda prefs: st.tuples(st.just(prefs), fine_claim_profiles(prefs))),
        st.booleans(),
    )
    @settings(deadline=None, max_examples=120)
    def test_atom_kernel_matches_the_region_reference(self, instance, reduced):
        # The kernel's candidate family, as regions, is the reference's, and
        # so is every best response, on raw and on reduced profiles.
        prefs, profile = instance
        if reduced:
            profile = reduce_profile(profile).profile
        for i in range(len(prefs)):
            board = _board(prefs, profile, i, IntervalSet.empty())
            keys = _candidates(board)
            regions = {board.region(key) for key in keys}
            assert regions == reference_candidates(prefs, profile, i)
            assert len(regions) == len(keys)
            assert best_response(prefs, profile, i) == reference_best_response(
                prefs, profile, i
            )

    @given(claim_profiles(6, max_denominator=8), st.integers(min_value=0, max_value=3))
    @settings(deadline=None)
    def test_a_claim_wins_itself_minus_the_rivals_ahead(self, drawn, i):
        # The fifth claim is agent i's new claim: fresh, a copy of a rival's
        # or tied with one in length.  Agent i wants it and the sixth region,
        # or the whole cake when both are empty; rivals' claims may stray.
        profile, claim = Profile(drawn.strategies[:4]), drawn[4]
        wanted = claim.union(drawn[5])
        prefs = [UniformPreference(wanted if wanted.length else region((0, 1)))] * 4
        board = _board(prefs, profile, i, claim)
        won = board.won(board.first_length, board.first)
        assert F(won, board.unit) == length_game(profile.replace(i, claim))[i].length

    def test_fine_grained_deviations_never_beat_the_family(self):
        rng = random.Random(777)
        for _ in range(40):
            n = rng.randint(2, 4)
            prefs = random_uniform_instance(rng, n)
            start = Profile(
                [random_subregion(rng, p.support(), 12) for p in prefs]
            )
            profile = reduce_profile(start).profile
            for i in range(n):
                _, family_gain = best_response(prefs, profile, i)
                if family_gain > 0:
                    continue
                truth = prefs[i]
                base = truth.measure(length_game(profile)[i])
                for _ in range(8):
                    deviation = random_subregion(rng, truth.support(), 720)
                    moved = length_game(profile.replace(i, deviation))
                    assert truth.measure(moved[i]) <= base


class TestDynamics:
    @pytest.mark.parametrize("max_rounds", [1, 2, None])
    def test_matches_the_region_reference(self, max_rounds):
        # Small budgets cover runs that end on the budget, not a fixpoint.
        rng = random.Random(4242)
        for _ in range(40):
            n = rng.randint(2, 6)
            prefs = random_uniform_agents(rng.randrange(2**32), n)
            start = Profile([random_subregion(rng, p.support()) for p in prefs])
            assert best_response_dynamics(
                prefs, start, max_rounds
            ) == reference_best_response_dynamics(prefs, start, max_rounds)

    def test_disjoint_sincere_start_converges_immediately(self):
        prefs = [
            UniformPreference(region((0, "1/3"))),
            UniformPreference(region(("1/3", "1"))),
        ]
        profile, converged = best_response_dynamics(
            prefs, Profile([p.support() for p in prefs])
        )
        assert converged
        assert profile.strategies == (region((0, "1/3")), region(("1/3", "1")))

    def test_fixpoints_include_uncontested_regions(self):
        rng = random.Random(31337)
        for _ in range(20):
            prefs = random_uniform_instance(rng, 3)
            start = Profile([random_subregion(rng, p.support(), 12) for p in prefs])
            profile, converged = best_response_dynamics(prefs, start)
            if not converged:
                continue
            for i in range(3):
                free = reference_uncontested_region(prefs, i)
                assert free.difference(profile[i]).is_empty()

    def test_fixpoints_allocate_exactly_the_wanted_cake(self):
        rng = random.Random(99)
        for _ in range(20):
            prefs = random_uniform_instance(rng, 3)
            start = Profile([random_subregion(rng, p.support(), 12) for p in prefs])
            profile, converged = best_response_dynamics(prefs, start)
            if not converged:
                continue
            assert union_all(profile.strategies) == union_all(
                p.support() for p in prefs
            )

    def test_fixpoints_match_the_revelation_mechanism(self):
        # Different equilibria, identical payoffs: every converged fixpoint
        # agrees with the smallest-average-group rule agent by agent.
        rng = random.Random(2718)
        for _ in range(15):
            n = rng.randint(2, 4)
            prefs = random_uniform_instance(rng, n)
            target = min_average_mechanism(prefs)
            fixpoints = []
            for _ in range(3):
                start = Profile(
                    [random_subregion(rng, p.support(), 12) for p in prefs]
                )
                profile, converged = best_response_dynamics(prefs, start)
                if converged:
                    fixpoints.append(length_game(profile))
            for allocation in fixpoints:
                assert utilitarian_equivalent(prefs, allocation, target)
                assert is_envy_free(equity_table(prefs, allocation))


@pytest.mark.parametrize(
    "entry",
    [
        lambda prefs, profile: is_equilibrium(prefs, reduce_profile(profile)),
        lambda prefs, profile: best_response(prefs, profile, 0),
        lambda prefs, profile: best_response_dynamics(prefs, profile),
    ],
    ids=["is_equilibrium", "best_response", "best_response_dynamics"],
)
def test_equilibrium_entries_refuse_other_agents(entry):
    # Agent a is worth 1/10 on [0, 1/2] and 9/10 on [1/2, 1].  Reading only
    # its support, the sincere profile would pass as an equilibrium in which
    # a gains nothing by deviating, though claiming [1/2, 1] wins it 9/10.
    steep = Valuation.piecewise_constant([((0, "1/2"), 1), (("1/2", 1), 9)])
    prefs = [steep, UniformPreference([("1/2", 1)])]
    profile = Profile([p.support() for p in prefs])
    with pytest.raises(UnsupportedValuationClass, match="need piecewise-uniform agents"):
        entry(prefs, profile)
