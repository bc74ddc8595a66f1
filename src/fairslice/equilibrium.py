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
from functools import reduce
from operator import or_

from fairslice.audit import _one_each
from fairslice.intervals import IntervalSet, _atom_table, _region, _weight
from fairslice.uniform import (
    Profile, _check_agent, length_game, min_average_mechanism, wanted_regions,
)

_MISMATCH = "%d preferences but %d strategies"


class NotWellBehaved(ValueError):
    """A claim strays outside its owner's wanted region."""


class NotReduced(ValueError):
    """The profile is not a ReducedProfile, or some claim loses part of itself."""


@dataclass(frozen=True)
class ReducedProfile:
    """A profile whose claims are exactly the portions they win."""

    profile: Profile


def reduce_profile(profile):
    """Replace every claim by the portion it wins.

    The result allocates exactly as the input does, and because its claims
    are pairwise disjoint it does so under any priority order.
    """
    allocation = length_game(profile)
    return ReducedProfile(Profile(allocation.portions))


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
    """Decide equilibrium for a reduced, well behaved profile.

    Reports the first violation found: unclaimed wanted cake, then claim
    pairs in (claimer, wanter) index order.  Witnesses always have positive
    length.  Each check is a bitmask test on one atom table over the claims
    and the wanted regions; only a witness becomes a region.
    """
    if not isinstance(reduced, ReducedProfile):
        raise NotReduced("expected a ReducedProfile")
    n = len(reduced.profile)
    marks, weights, bits, scale = _atom_table(
        [*reduced.profile.strategies, *wanted_regions(preferences)]
    )
    claims, supports = bits[:n], bits[n:]
    # No claim loses part of itself when the claim masks add without a carry.
    claimed = reduce(or_, claims, 0)
    if sum(claims) != claimed:
        raise NotReduced("certificate is wrong: some claim loses part of itself")
    _one_each(preferences, reduced.profile, _MISMATCH)
    if any(claim & ~support for claim, support in zip(claims, supports)):
        raise NotWellBehaved("some claim strays outside its owner's wanted region")

    missing = reduce(or_, supports, 0) & ~claimed
    if missing:
        deviator = next(i for i, support in enumerate(supports) if support & missing)
        witness = _region(missing, marks, scale)
        return EquilibriumReport(False, UnallocatedValuedCake(witness), deviator)

    lengths = [_weight(claim, weights) for claim in claims]
    for i in range(n):
        for j in range(n):
            witness = claims[i] & supports[j]
            if i != j and witness and lengths[i] > lengths[j]:
                return EquilibriumReport(
                    False, LengthOrderViolation(i, j, _region(witness, marks, scale)), j
                )
    return EquilibriumReport(True)


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
    """Atoms cut at every endpoint of agent i's wanted region, of every claim
    and of one more claim `first`.

    Cuts and lengths are integers over one unit, doubled so that every
    midpoint the candidate family takes is an integer too.  `wanted` is the
    bitmask of agent i's wanted atoms; each claim, and `first`, is the
    bitmask of the wanted atoms it covers, with the integer length of the
    whole claim.
    Rivals are ranked once by (length, index); ahead[p] is the union of the
    first p of them, so the rivals served before a claim are one bisect.
    """

    i: int
    marks: tuple
    weights: tuple
    unit: int
    wanted: int
    claims: tuple
    lengths: tuple
    first: int
    first_length: int
    ranks: tuple
    ahead: tuple

    def blocking(self, length):
        """Atoms taken by the rivals served before agent i's claim of this length."""
        return self.ahead[bisect_left(self.ranks, (length, self.i))]

    def won(self, length, mask, k=0, amount=0):
        """What agent i's claim of this length wins: its wanted atoms (and
        `amount` of the left part of atom k) minus the rivals served before it."""
        blocked = self.blocking(length)
        return _weight(mask & ~blocked, self.weights) + (0 if blocked >> k & 1 else amount)

    def region(self, key):
        """The candidate (whole atoms, partial atom, amount) as a region."""
        mask, k, amount = key
        marks = self.marks
        if amount:
            # Cut atom k after `amount` and take its left part, atom k of the
            # new table; the atoms above k move up by one.
            marks = marks[: k + 1] + (marks[k] + amount,) + marks[k + 1 :]
            low = mask & ((1 << k) - 1)
            mask = low | 1 << k | (mask ^ low) << 1
        return _region(mask, marks, self.unit)


def _board(preferences, profile, i, first):
    (support,) = wanted_regions([preferences[i]])
    marks, weights, bits, scale = _atom_table([support, first, *profile.strategies])
    weights = tuple(2 * w for w in weights)
    wanted = bits[0]
    claims = tuple(mask & wanted for mask in bits[2:])
    lengths = tuple(_weight(mask, weights) for mask in bits[2:])
    rivals = sorted((j for j in range(len(claims)) if j != i), key=lambda j: (lengths[j], j))
    ahead = [0]
    for j in rivals:
        ahead.append(ahead[-1] | claims[j])
    return _Board(
        i, tuple(2 * x for x in marks), weights, 2 * scale, wanted, claims, lengths,
        bits[1] & wanted, _weight(bits[1], weights),
        tuple((lengths[j], j) for j in rivals), tuple(ahead),
    )


def _candidates(board):
    # Finite family of counter-claims for agent i, as distinct keys (whole
    # atoms, partial atom, amount) on the board.  Built from two sources:
    # length targets (each opponent length, each free-region length, and
    # midpoints between consecutive targets, claimed greedily from the cake
    # not blocked at that length), and direct repairs (claim wanted cake
    # nobody claims; slip under a longer rival's claim).
    i = board.i
    weights = board.weights
    wanted = board.wanted
    whole = _weight(wanted, weights)
    own = board.claims[i]
    own_length = _weight(own, weights)
    others = [j for j in range(len(board.claims)) if j != i]

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

    return frozenset(keys)


def _respond(preferences, profile, i, first):
    # Agent i's move on one board: `first` whenever it strictly gains,
    # otherwise the best candidate, otherwise the current claim with gain 0.
    # The current claim keeps its whole length, wanted or not.
    board = _board(preferences, profile, i, first)
    whole = _weight(board.wanted, board.weights)
    current = board.won(board.lengths[i], board.claims[i])
    claimed = board.won(board.first_length, board.first)
    if claimed > current:
        return first, Fraction(claimed - current, whole)
    won = {
        key: board.won(_weight(key[0], board.weights) + key[2], *key)
        for key in _candidates(board)
    }
    best = max(won.values())
    if best <= current:
        return profile[i], Fraction(0)
    strategy = min(
        (board.region(key) for key, x in won.items() if x == best), key=IntervalSet.pairs
    )
    return strategy, Fraction(best - current, whole)


def best_response(preferences, profile, i):
    """Best counter-claim for agent i within a finite candidate family.

    Every candidate stays inside the agent's wanted region.  Returns the
    pair (strategy, gain); a gain of 0 means no candidate beats the current
    claim, which is then returned unchanged.  A candidate is worth what it
    wins: the claim minus the rival claims ranked ahead of it, so the gains
    are exact; ties go to the lexicographically smallest strategy.

    Agents are piecewise uniform, so a utility is a won length over the
    wanted length.  The work runs on one atom table per call: the cake cut
    at every endpoint of the agent's wanted region and of every claim,
    lengths as integers.  A candidate is a bitmask of wanted atoms plus at
    most one partial atom, and what it wins is an integer sum.  Only the
    best candidates become regions, for the tie-break.
    """
    _one_each(preferences, profile, _MISMATCH)
    _check_agent(i, len(preferences))
    return _respond(preferences, profile, i, IntervalSet.empty())


def best_response_dynamics(preferences, start, max_rounds=None):
    """Round-robin improving moves with reduction after each, until nothing moves.

    Claims are first trimmed to each agent's wanted region, keeping the
    whole run well behaved.  Pure greedy counter-claiming can chase an open
    supremum forever (rivals leapfrog by ever-thinner margins), so each
    agent first tries the claim the direct-revelation mechanism would hand
    it and keeps that whenever it strictly improves; only otherwise does it
    fall back to the best counter-claim search, scored on the same atom
    table.  Returns (profile,
    converged): converged means a full round passed with no improving move
    and the fixpoint is a certified equilibrium; hitting the round budget
    reports False.
    """
    _one_each(preferences, start, _MISMATCH)
    n = len(start)
    if max_rounds is None:
        max_rounds = 100 * n
    wanted = wanted_regions(preferences)
    fair = min_average_mechanism(preferences).portions
    profile = reduce_profile(Profile([start[k].intersect(wanted[k]) for k in range(n)])).profile
    for _ in range(max_rounds):
        moved = False
        for k in range(n):
            strategy, gain = _respond(preferences, profile, k, fair[k])
            if gain > 0:
                profile = reduce_profile(profile.replace(k, strategy)).profile
                moved = True
        if not moved:
            report = is_equilibrium(preferences, ReducedProfile(profile))
            return profile, report.is_equilibrium
    return profile, False
