"""Equilibrium analysis for the shortest-claim-first game.

A profile is reduced when every claim equals the portion it wins; reduced
profiles are pairwise disjoint, so the allocation no longer depends on the
priority order.  For well behaved reduced profiles, equilibrium is decided
by two checks: all wanted cake is claimed, and nobody holds cake wanted by
an agent with a strictly shorter claim.  A finite best-response search and
a round-robin dynamics harness sit on top.
"""

from dataclasses import dataclass
from fractions import Fraction

from fairslice.intervals import IntervalSet, union_all
from fairslice.uniform import Profile, length_game, min_average_mechanism


class NotWellBehaved(ValueError):
    """A claim strays outside its owner's wanted region."""


class NotReduced(ValueError):
    """The profile is not certified reduced, or its certificate is wrong."""


@dataclass(frozen=True)
class ReducedProfile:
    """A profile whose claims are exactly the portions they win."""

    profile: Profile
    certified_reduced: bool


def reduce_profile(profile):
    """Replace every claim by the portion it wins.

    The result allocates exactly as the input does, and because its claims
    are pairwise disjoint it does so under any priority order.
    """
    allocation = length_game(profile)
    return ReducedProfile(Profile(allocation.portions), True)


def uncontested_region(preferences, i):
    """The part of agent i's wanted region that no other agent wants."""
    others = union_all(
        p.support() for j, p in enumerate(preferences) if j != i
    )
    return preferences[i].support().difference(others)


@dataclass(frozen=True)
class UnallocatedValuedCake:
    """Wanted cake that nobody claims."""

    witness: IntervalSet


@dataclass(frozen=True)
class LengthOrderViolation:
    """Agent `claimer` holds cake wanted by `wanter`, whose claim is strictly shorter."""

    claimer: int
    wanter: int
    witness: IntervalSet


@dataclass(frozen=True)
class EquilibriumReport:
    is_equilibrium: bool
    violated_condition: object = None
    deviating_agent: object = None


def is_equilibrium(preferences, reduced):
    """Decide equilibrium for a certified reduced, well behaved profile.

    Reports the first violation found: unclaimed wanted cake, then claim
    pairs in (claimer, wanter) index order.  Witnesses always have positive
    length.
    """
    if not isinstance(reduced, ReducedProfile) or not reduced.certified_reduced:
        raise NotReduced("expected a certified ReducedProfile")
    profile = reduced.profile
    if length_game(profile).portions != profile.strategies:
        raise NotReduced("certificate is wrong: some claim loses part of itself")
    if not profile.is_well_behaved(preferences):
        raise NotWellBehaved("some claim strays outside its owner's wanted region")

    supports = [p.support() for p in preferences]
    missing = union_all(supports).difference(union_all(profile.strategies))
    if not missing.is_empty():
        deviator = next(i for i, s in enumerate(supports) if s.overlaps(missing))
        return EquilibriumReport(False, UnallocatedValuedCake(missing), deviator)

    n = len(profile)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            witness = profile[i].intersect(supports[j])
            if not witness.is_empty() and profile[i].length > profile[j].length:
                return EquilibriumReport(
                    False, LengthOrderViolation(i, j, witness), j
                )
    return EquilibriumReport(True)


def _prefix_of(region, length):
    # The leftmost sub-region of the given total length: the region up to
    # the point where that much of it lies to the left.
    if length <= 0:
        return IntervalSet.empty()
    for iv in region:
        if length <= iv.length:
            return region.intersect(IntervalSet([(0, iv.lo + length)]))
        length -= iv.length
    return region


def _ahead(profile, i, length):
    # The rival claims the length game serves before agent i when i claims
    # this length: ranked by (length, index).  Agent i wins its claim minus
    # their union.
    return union_all(
        s for j, s in enumerate(profile) if j != i and (s.length, j) < (length, i)
    )


def _candidates(preferences, profile, i):
    # Finite family of counter-claims for agent i.  Built from two sources:
    # length targets (each opponent length, each free-region length, and
    # midpoints between consecutive targets, claimed greedily from the cake
    # not blocked at that length), and direct repairs (claim wanted cake
    # nobody claims; slip under a longer rival's claim).
    pref = preferences[i].support()
    own = profile[i].intersect(pref)
    others = [j for j in range(len(profile)) if j != i]

    lengths = {Fraction(0), pref.length, own.length}
    for j in others:
        lengths.add(min(profile[j].length, pref.length))
    by_rank = sorted(others, key=lambda j: (profile[j].length, j))
    blocked = IntervalSet.empty()
    for p in range(len(by_rank) + 1):
        lengths.add(min(pref.difference(blocked).length, pref.length))
        if p < len(by_rank):
            blocked = blocked.union(profile[by_rank[p]])
    targets = sorted(lengths)
    for a, b in zip(targets, targets[1:]):
        lengths.add((a + b) / 2)

    out = set()
    for target in lengths:
        free = pref.difference(_ahead(profile, i, target))
        out.add(_prefix_of(free, min(target, free.length)))

    unclaimed = pref.difference(union_all(profile.strategies))
    if not unclaimed.is_empty():
        out.add(own.union(unclaimed))

    for j in others:
        overlap = profile[j].intersect(pref).difference(own)
        cap = profile[j].length - own.length
        if overlap.is_empty() or cap <= 0:
            continue
        if i < j:
            take = min(overlap.length, cap)
        else:
            take = overlap.length if overlap.length < cap else cap / 2
        out.add(own.union(_prefix_of(overlap, take)))

    return out


def best_response(preferences, profile, i):
    """Best counter-claim for agent i within a finite candidate family.

    Every candidate stays inside the agent's wanted region.  Returns the
    pair (strategy, gain); a gain of 0 means no candidate beats the current
    claim, which is then returned unchanged.  A candidate is worth what it
    wins: the claim minus the rival claims ranked ahead of it, so the gains
    are exact; ties go to the lexicographically smallest strategy.
    """
    current = preferences[i].measure(
        profile[i].difference(_ahead(profile, i, profile[i].length))
    )
    best_strategy = None
    best_utility = None
    for candidate in _candidates(preferences, profile, i):
        won = candidate.difference(_ahead(profile, i, candidate.length))
        utility = preferences[i].measure(won)
        if (
            best_utility is None
            or utility > best_utility
            or (utility == best_utility and candidate.pairs() < best_strategy.pairs())
        ):
            best_strategy, best_utility = candidate, utility
    if best_utility is None or best_utility <= current:
        return profile[i], Fraction(0)
    return best_strategy, best_utility - current


def best_response_dynamics(preferences, start, max_rounds=None):
    """Round-robin improving moves with reduction after each, until nothing moves.

    Claims are first trimmed to each agent's wanted region, keeping the
    whole run well behaved.  Pure greedy counter-claiming can chase an open
    supremum forever (rivals leapfrog by ever-thinner margins), so each
    agent first tries the claim the direct-revelation mechanism would hand
    it and keeps that whenever it strictly improves; only otherwise does it
    fall back to the best counter-claim search.  Returns (profile,
    converged): converged means a full round passed with no improving move
    and the fixpoint is a certified equilibrium; hitting the round budget
    reports False.
    """
    n = len(start)
    if max_rounds is None:
        max_rounds = 100 * n
    fair = min_average_mechanism(preferences).portions
    trimmed = Profile(
        [start[k].intersect(preferences[k].support()) for k in range(n)]
    )
    profile = reduce_profile(trimmed).profile
    for _ in range(max_rounds):
        moved = False
        for k in range(n):
            current = preferences[k].measure(profile[k])
            won = fair[k].difference(_ahead(profile, k, fair[k].length))
            if preferences[k].measure(won) > current:
                profile = reduce_profile(profile.replace(k, fair[k])).profile
                moved = True
                continue
            strategy, gain = best_response(preferences, profile, k)
            if gain > 0:
                profile = reduce_profile(profile.replace(k, strategy)).profile
                moved = True
        if not moved:
            report = is_equilibrium(preferences, ReducedProfile(profile, True))
            return profile, report.is_equilibrium
    return profile, False
