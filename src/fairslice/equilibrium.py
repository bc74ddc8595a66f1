"""Equilibrium analysis for the shortest-claim-first game.

A profile is reduced when every claim equals the portion it wins; reduced
profiles are pairwise disjoint, so the allocation no longer depends on the
priority order.  For well behaved reduced profiles, equilibrium is decided
by two checks: all wanted cake is claimed, and nobody holds cake wanted by
an agent with a strictly shorter claim.  A finite best-response search and
a round-robin dynamics harness sit on top.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from fairslice.intervals import IntervalSet, union_all
from fairslice.uniform import (
    Profile,
    _atom_table,
    _weight,
    length_game,
    min_average_mechanism,
)


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


def _ahead(profile, i, length):
    # The rival claims the length game serves before agent i when i claims
    # this length: ranked by (length, index).  Agent i wins its claim minus
    # their union.
    return union_all(
        s for j, s in enumerate(profile) if j != i and (s.length, j) < (length, i)
    )


def _prefix(mask, length, weights):
    # The leftmost part of the atoms in mask of the given integer length, as
    # (whole atoms, partial atom, amount of it): a walk over the atoms'
    # weights that stops in the atom where the length runs out.  The partial
    # atom is its left part; amount 0 means there is none.
    taken = 0
    while mask and length > 0:
        low = mask & -mask
        k = low.bit_length() - 1
        if length < weights[k]:
            return taken, k, length
        taken |= low
        length -= weights[k]
        mask ^= low
    return taken, 0, 0


@dataclass(frozen=True, slots=True)
class _Board:
    """Agent i's wanted region as atoms cut at every claim's endpoints.

    Lengths are integers over one unit, doubled so that every midpoint the
    candidate family takes is an integer too.  Each claim is the bitmask of
    the atoms it covers with the integer length of the whole claim.  Rivals
    are ranked once by (length, index); ahead[p] is the union of the first
    p of them, so the rivals served before a claim are one bisect.
    """

    i: int
    atoms: tuple
    weights: tuple
    unit: int
    claims: tuple
    lengths: tuple
    ranks: tuple
    ahead: tuple

    def blocking(self, length):
        """Atoms taken by the rivals served before agent i's claim of this length."""
        return self.ahead[bisect_left(self.ranks, (length, self.i))]

    def region(self, key):
        """The candidate (whole atoms, partial atom, amount) as a region."""
        mask, k, amount = key
        spans = [span for j, span in enumerate(self.atoms) if mask >> j & 1]
        if amount:
            lo = self.atoms[k][0]
            spans.append((lo, lo + Fraction(amount, self.unit)))
        return IntervalSet(spans)


def _board(preferences, profile, i):
    claims = profile.strategies
    atoms, weights, bits, scale = _atom_table(
        [preferences[i].support()], claims, [s.length for s in claims]
    )
    unit = 2 * scale
    lengths = tuple(s.length.numerator * (unit // s.length.denominator) for s in claims)
    rivals = sorted((j for j in range(len(claims)) if j != i), key=lambda j: (lengths[j], j))
    ahead = [0]
    for j in rivals:
        ahead.append(ahead[-1] | bits[1 + j])
    return _Board(
        i, tuple(atoms), tuple(2 * w for w in weights), unit, tuple(bits[1:]), lengths,
        tuple((lengths[j], j) for j in rivals), tuple(ahead),
    )


@dataclass(frozen=True, slots=True)
class _Family:
    """Distinct candidates, each a key (whole atoms, partial atom, amount) on one board."""

    board: _Board
    keys: frozenset

    def __len__(self):
        return len(self.keys)


def _candidates(preferences, profile, i):
    # Finite family of counter-claims for agent i.  Built from two sources:
    # length targets (each opponent length, each free-region length, and
    # midpoints between consecutive targets, claimed greedily from the cake
    # not blocked at that length), and direct repairs (claim wanted cake
    # nobody claims; slip under a longer rival's claim).
    board = _board(preferences, profile, i)
    weights = board.weights
    wanted = (1 << len(weights)) - 1
    whole = sum(weights)
    own = board.claims[i]
    own_length = _weight(own, weights)
    others = [j for j in range(len(profile)) if j != i]

    lengths = {0, whole, own_length}
    lengths.update(min(board.lengths[j], whole) for j in others)
    lengths.update(whole - _weight(blocked, weights) for blocked in board.ahead)
    targets = sorted(lengths)
    lengths.update((a + b) // 2 for a, b in zip(targets, targets[1:]))

    keys = {_prefix(wanted & ~board.blocking(t), t, weights) for t in lengths}

    unclaimed = wanted & ~(board.ahead[-1] | own)
    if unclaimed:
        keys.add((own | unclaimed, 0, 0))

    for j in others:
        overlap = board.claims[j] & ~own
        cap = board.lengths[j] - own_length
        if not overlap or cap <= 0:
            continue
        size = _weight(overlap, weights)
        if i < j:
            take = min(size, cap)
        else:
            take = size if size < cap else cap // 2
        mask, k, amount = _prefix(overlap, take, weights)
        keys.add((own | mask, k, amount))

    return _Family(board, frozenset(keys))


def best_response(preferences, profile, i):
    """Best counter-claim for agent i within a finite candidate family.

    Every candidate stays inside the agent's wanted region.  Returns the
    pair (strategy, gain); a gain of 0 means no candidate beats the current
    claim, which is then returned unchanged.  A candidate is worth what it
    wins: the claim minus the rival claims ranked ahead of it, so the gains
    are exact; ties go to the lexicographically smallest strategy.

    Agents are piecewise uniform, so a utility is a won length over the
    wanted length.  The work runs on one atom table per call: the agent's
    wanted region cut at every claim's endpoints, lengths as integers.  A
    candidate is a bitmask of whole atoms plus at most one partial atom, and
    what it wins is an integer sum.  Only the best candidates become
    regions, for the tie-break.
    """
    family = _candidates(preferences, profile, i)
    board = family.board
    weights = board.weights
    current = _weight(board.claims[i] & ~board.blocking(board.lengths[i]), weights)
    won = {}
    for key in family.keys:
        mask, k, amount = key
        blocked = board.blocking(_weight(mask, weights) + amount)
        won[key] = _weight(mask & ~blocked, weights) + (0 if blocked >> k & 1 else amount)
    best = max(won.values())
    if best <= current:
        return profile[i], Fraction(0)
    strategy = min(
        (board.region(key) for key, x in won.items() if x == best), key=IntervalSet.pairs
    )
    return strategy, Fraction(best - current, sum(weights))


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
