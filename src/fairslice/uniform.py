"""Claim-based mechanisms for agents with uniform tastes over a region.

Agents here are piecewise-uniform `Valuation`s: each cares only about a
fixed region of the cake (its support) and values any piece by the share of
that region it covers.  A strategy is itself a region (a claim), and a
profile is one claim per agent.  Three allocation rules are provided:
priority allocation under an explicit agent order, the same with priority
given to shorter claims, and a direct-revelation rule that repeatedly
serves the group of agents whose jointly wanted cake is smallest per head.

All lengths and utilities are exact rationals.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from fairslice.audit import Allocation
from fairslice.intervals import IntervalSet, union_all
from fairslice.valuation import Valuation


# min_average_subset keeps two lists of 2^k entries: 209 MB at k = 22, 4x per two more.
MAX_SEARCH_AGENTS = 22


class EmptySubset(ValueError):
    """An operation that needs at least one agent received none."""


class TooManyAgents(ValueError):
    """The exhaustive group search was asked for more agents than it can hold."""


class Infeasible(ValueError):
    """No disjoint portions of the required lengths exist.

    Raised by exact_allocation when its precondition (the group minimises
    the average share) was violated by the caller.
    """


def _as_region(x):
    return x if isinstance(x, IntervalSet) else IntervalSet(x)


# The agent who wants a given region, under its older name; an empty region
# raises ValueError.
UniformPreference = Valuation.uniform_on


@dataclass(frozen=True, slots=True)
class Profile:
    """One claimed region per agent, in agent order.  Empty claims are legal."""

    strategies: tuple

    def __init__(self, strategies):
        object.__setattr__(
            self, "strategies", tuple(_as_region(s) for s in strategies)
        )

    def is_well_behaved(self, preferences):
        """True when no agent claims cake they do not want."""
        if len(preferences) != len(self.strategies):
            raise ValueError(
                "%d preferences but %d strategies"
                % (len(preferences), len(self.strategies))
            )
        return all(
            s.difference(p.support()).is_empty()
            for s, p in zip(self.strategies, preferences)
        )

    def replace(self, i, strategy):
        """A copy with agent i's claim swapped out."""
        strategies = list(self.strategies)
        strategies[i] = _as_region(strategy)
        return Profile(strategies)

    def __len__(self):
        return len(self.strategies)

    def __iter__(self):
        return iter(self.strategies)

    def __getitem__(self, i):
        return self.strategies[i]


@dataclass(frozen=True, slots=True)
class AgentOrder:
    """A priority order over agents 0..n-1; earlier agents claim first."""

    sequence: tuple

    def __init__(self, sequence):
        seq = tuple(int(i) for i in sequence)
        if sorted(seq) != list(range(len(seq))):
            raise ValueError("order must be a permutation of 0..n-1, got %r" % (seq,))
        object.__setattr__(self, "sequence", seq)

    def __len__(self):
        return len(self.sequence)

    def __iter__(self):
        return iter(self.sequence)


def lex_order(profile, order):
    """Allocate by priority: each agent receives their claim minus all earlier claims."""
    if not isinstance(order, AgentOrder):
        order = AgentOrder(order)
    if len(order) != len(profile):
        raise ValueError(
            "order covers %d agents but the profile has %d" % (len(order), len(profile))
        )
    portions = [None] * len(profile)
    claimed = IntervalSet.empty()
    for i in order:
        portions[i] = profile[i].difference(claimed)
        claimed = claimed.union(profile[i])
    return Allocation(portions)


def length_game(profile):
    """Allocate with priority to shorter claims; equal lengths go to the lower index."""
    order = sorted(range(len(profile)), key=lambda i: (profile[i].length, i))
    return lex_order(profile, AgentOrder(order))


def valued_region(preferences, agents, cake):
    """The part of the cake wanted by at least one of the given agents."""
    agents = tuple(agents)
    if not agents:
        raise EmptySubset("need at least one agent")
    return union_all(preferences[i].support().intersect(cake) for i in agents)


def average_share(preferences, agents, cake):
    """Length of the group's jointly wanted cake per member of the group."""
    agents = tuple(agents)
    if not agents:
        raise EmptySubset("need at least one agent")
    return Fraction(valued_region(preferences, agents, cake).length, len(agents))


def min_average_subset(preferences, agents, cake):
    """The group minimising the average share; smallest then earliest group on ties.

    Exhaustive over all nonempty groups, scanned by size and then in
    lexicographic order, so the first strictly smaller average wins.  The
    agents' wanted cake is split into atoms once per call; every group's
    jointly wanted length is then an integer sum over a bitmask of atoms,
    and averages are compared by cross-multiplying integers.  The cost is
    2^k small-integer steps for k agents, plus one pass over the atoms.
    Raises TooManyAgents for more than MAX_SEARCH_AGENTS agents.
    """
    agents = tuple(sorted(agents))
    if not agents:
        raise EmptySubset("need at least one agent")
    if len(agents) > MAX_SEARCH_AGENTS:
        raise TooManyAgents(
            "the exhaustive group search takes at most %d agents, got %d"
            % (MAX_SEARCH_AGENTS, len(agents))
        )
    _, weights, bits, _ = _atom_table(
        [preferences[i].support().intersect(cake) for i in agents]
    )
    # cover[m] holds the atoms wanted by the group with member bitmask m,
    # length[m] their total weight; each mask extends the one without its
    # lowest member.
    full = 1 << len(agents)
    cover = [0] * full
    length = [0] * full
    for m in range(1, full):
        low = m & -m
        rest = m ^ low
        own = bits[low.bit_length() - 1]
        length[m] = length[rest] + _weight(own & ~cover[rest], weights)
        cover[m] = cover[rest] | own
    members = [1 << j for j in range(len(agents))]
    best = best_length = best_size = None
    for size in range(1, len(agents) + 1):
        for group in combinations(members, size):
            mask = sum(group)
            if best is None or length[mask] * best_size < best_length * size:
                best, best_length, best_size = mask, length[mask], size
    return tuple(a for j, a in enumerate(agents) if best >> j & 1)


def _weight(mask, weights):
    # Total integer length of the atoms in a bitmask.
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def _atom_table(wanted, marked=(), lengths=()):
    # Split the union of the wanted regions at every endpoint of every
    # wanted or marked region, so each atom lies wholly inside or wholly
    # outside each of them.  Returns the atoms as (lo, hi) pairs in order,
    # their lengths as integers over the least common denominator of those
    # lengths and of the given extra lengths, that denominator, and per
    # wanted then marked region a bitmask of the atoms it covers.
    marks = sorted({x for region in (*wanted, *marked) for iv in region for x in iv})
    spans = []
    for iv in union_all(wanted):
        cuts = marks[bisect_left(marks, iv.lo) : bisect_right(marks, iv.hi)]
        spans.extend(zip(cuts, cuts[1:]))
    starts = [lo for lo, _ in spans]
    bits = []
    for region in (*wanted, *marked):
        mask = 0
        for iv in region:
            first = bisect_left(starts, iv.lo)
            stop = bisect_left(starts, iv.hi)
            mask |= (1 << stop) - (1 << first)
        bits.append(mask)
    sizes = [hi - lo for lo, hi in spans]
    scale = lcm(*(x.denominator for x in (*sizes, *lengths)))
    weights = [x.numerator * (scale // x.denominator) for x in sizes]
    return spans, weights, bits, scale


def exact_allocation(preferences, agents, cake):
    """Disjoint portions of equal length for a group, each within its owner's wanted cake.

    Every agent in the group receives exactly the group's average share,
    made up only of cake they want.  Portions are filled greedily left to
    right, preferring the agent with the least wanted cake still open; a
    transfer pass repairs the rare greedy dead end.  The fill runs on the
    group's atom table: amounts are integers in units of one over the
    table's denominator times the group size, so each atom's length and the
    average share are whole numbers, and portions become exact endpoints
    once, at the end.  Raises Infeasible when no such portions exist,
    meaning the group did not minimise the average.
    """
    agents = tuple(sorted(agents))
    if not agents:
        raise EmptySubset("need at least one agent")
    wanted = {i: preferences[i].support().intersect(cake) for i in agents}
    region = union_all(wanted.values())
    quota = Fraction(region.length, len(agents))

    # Amounts are integers over `unit`: atom k is weights[k] times the group
    # size long, and the average share is the total weight.
    atoms, weights, bits, scale = _atom_table(list(wanted.values()))
    unit = scale * len(agents)
    lengths = [w * len(agents) for w in weights]
    owners = [
        [i for i, mask in zip(agents, bits) if mask >> k & 1] for k in range(len(atoms))
    ]

    # held[k][i] is how much of atom k agent i holds; spare[k] is unassigned.
    held = [dict() for _ in atoms]
    spare = list(lengths)
    need = dict.fromkeys(agents, sum(weights))
    open_length = {
        i: sum(x for k, x in enumerate(lengths) if i in owners[k]) for i in agents
    }

    for k in range(len(atoms)):
        while spare[k] > 0:
            ready = [i for i in owners[k] if need[i] > 0]
            if not ready:
                break
            i = min(ready, key=lambda i: (open_length[i], i))
            take = min(need[i], spare[k])
            held[k][i] = held[k].get(i, 0) + take
            spare[k] -= take
            need[i] -= take
        for i in owners[k]:
            open_length[i] -= lengths[k] - spare[k]

    for i in agents:
        while need[i] > 0 and _augment(i, need, held, spare, owners):
            pass
        if need[i] > 0:
            raise Infeasible("cannot give agent %d a portion of length %s" % (i, quota))

    portions = {i: [] for i in agents}
    for k, (pos, _) in enumerate(atoms):
        for i in sorted(held[k]):
            amount = held[k][i]
            if amount > 0:
                end = pos + Fraction(amount, unit)
                portions[i].append((pos, end))
                pos = end
    result = {i: IntervalSet(spans) for i, spans in portions.items()}

    if any(result[i].length != quota for i in agents):
        raise Infeasible("portions do not meet the average share")
    if any(not result[i].difference(wanted[i]).is_empty() for i in agents):
        raise Infeasible("a portion strays outside its owner's wanted cake")
    if union_all(result.values()) != region:
        raise Infeasible("portions do not cover the jointly wanted cake")
    return result


def _augment(start, need, held, spare, owners):
    # Breadth-first search for a chain of transfers ending in spare capacity:
    # start -> atom -> holder -> atom -> ... -> atom with room.  Shifts the
    # largest amount the chain supports toward the starting agent.  Amounts
    # may be ints or Fractions.
    parent = {start: None}
    queue = [start]
    while queue:
        agent = queue.pop(0)
        for k in range(len(held)):
            if agent not in owners[k]:
                continue
            if spare[k] > 0:
                # Walk back, moving cake toward `start`.
                amount = min(need[start], spare[k])
                node = agent
                while parent[node] is not None:
                    prev_atom, prev_agent = parent[node]
                    amount = min(amount, held[prev_atom][node])
                    node = prev_agent
                if amount <= 0:
                    continue
                spare[k] -= amount
                held[k][agent] = held[k].get(agent, 0) + amount
                node = agent
                while parent[node] is not None:
                    prev_atom, prev_agent = parent[node]
                    held[prev_atom][node] -= amount
                    held[prev_atom][prev_agent] = held[prev_atom].get(prev_agent, 0) + amount
                    node = prev_agent
                need[start] -= amount
                return True
            for other, amount in held[k].items():
                if other not in parent and amount > 0:
                    parent[other] = (k, agent)
                    queue.append(other)
    return False


@dataclass(frozen=True)
class ServiceRound:
    """One round of the smallest-average-group rule."""

    agents: tuple
    average: Fraction
    region: IntervalSet
    portions: tuple  # pairs (agent, IntervalSet)


def min_average_rounds(preferences):
    """Trace of the smallest-average-group rule, one record per round."""
    remaining = tuple(range(len(preferences)))
    cake = IntervalSet.unit()
    rounds = []
    while remaining:
        group = min_average_subset(preferences, remaining, cake)
        region = valued_region(preferences, group, cake)
        avg = Fraction(region.length, len(group))
        shares = exact_allocation(preferences, group, cake)
        rounds.append(
            ServiceRound(group, avg, region, tuple(sorted(shares.items())))
        )
        cake = cake.difference(region)
        remaining = tuple(i for i in remaining if i not in set(group))
    return rounds


def min_average_mechanism(preferences):
    """Serve the group wanting the least cake per head first, then recurse.

    Reporting one's true wanted region is a dominant strategy under this
    rule, and the resulting allocation is envy free.
    """
    portions = [IntervalSet.empty()] * len(preferences)
    for rnd in min_average_rounds(preferences):
        for agent, share in rnd.portions:
            portions[agent] = share
    return Allocation(portions)
