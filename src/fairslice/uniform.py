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

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from fairslice.audit import Allocation
from fairslice.intervals import IntervalSet, union_all
from fairslice.valuation import Valuation


class EmptySubset(ValueError):
    """An operation that needs at least one agent received none."""


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


def min_average_subset(preferences, agents, cake):
    """The group minimising the average share; smallest then earliest group on ties.

    A Dinkelbach loop over the fill of `exact_allocation`, on atoms cut once
    per call.  Every agent asks for a candidate average λ of wanted cake,
    first the least of the singletons' and the whole group's.  When the fill
    cannot serve an agent, the agents its transfer search reaches want less
    than λ per head, and their average is the next λ.  Once everyone is
    served, no group averages less (Hall), and the groups averaging λ are
    those whose wanted cake is all held by their own members (Fujishige,
    1980).  They are closed under union and intersection, so the smallest
    one containing an agent is the agent's closure along wanted atoms and
    their holders, and the minimal ones are disjoint: the smallest closure
    wins, and on equal sizes the one with the lowest member.
    """
    agents = tuple(sorted(agents))
    if not agents:
        raise EmptySubset("need at least one agent")
    _, weights, bits, _ = _atom_table([cake, *(preferences[i].support() for i in agents)])
    wanted = {i: mask & bits[0] for i, mask in zip(agents, bits[1:])}
    owned = {i: [k for k in range(len(weights)) if mask >> k & 1] for i, mask in wanted.items()}

    def average(group):
        cover = 0
        for i in group:
            cover |= wanted[i]
        return Fraction(_weight(cover, weights), len(group))

    # Atom weights are scaled by λ's denominator, so λ is its numerator.
    lam = min(average(group) for group in (agents, *((i,) for i in agents)))
    while True:
        lengths = [w * lam.denominator for w in weights]
        held, spare, short = _fill(owned, lengths, dict.fromkeys(agents, lam.numerator))
        if short is None:
            break
        lam = average(_reach(short, held, spare, owned)[0])
    closures = (_reach(i, held, spare, owned) for i in agents)
    return tuple(sorted(min((group for group, room in closures if room is None), key=len)))


def _weight(mask, weights):
    # Total integer length of the atoms in a bitmask.
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def _atom_table(regions):
    # Cut the cake at every endpoint of every region; each atom lies wholly
    # inside or outside each region.  Returns the atoms as (lo, hi) pairs in
    # order, their lengths as integers over their least common denominator,
    # that denominator, and per region the bitmask of its atoms.
    marks = sorted({x for region in regions for iv in region for x in iv})
    bits = []
    for region in regions:
        mask = 0
        for iv in region:
            mask |= (1 << bisect_left(marks, iv.hi)) - (1 << bisect_left(marks, iv.lo))
        bits.append(mask)
    spans = list(zip(marks, marks[1:]))
    sizes = [hi - lo for lo, hi in spans]
    scale = lcm(*(x.denominator for x in sizes))
    weights = [x.numerator * (scale // x.denominator) for x in sizes]
    return spans, weights, bits, scale


def exact_allocation(preferences, agents, cake):
    """Disjoint portions of equal length for a group, each within its owner's wanted cake.

    Every agent in the group receives exactly the group's average share,
    made up only of cake they want.  Portions are filled greedily left to
    right, preferring the agent with the least wanted cake still open; a
    transfer pass repairs the rare greedy dead end.  The fill runs on the
    atoms between the members' wanted endpoints; gap atoms have no owner.
    Amounts are integers in units of one over the table's denominator times
    the group size, so each atom's length and the average share are whole
    numbers, and portions become exact endpoints once, at the end.  Raises
    Infeasible when no such portions exist, meaning the group did not
    minimise the average.
    """
    agents = tuple(sorted(agents))
    if not agents:
        raise EmptySubset("need at least one agent")
    wanted = {i: preferences[i].support().intersect(cake) for i in agents}
    region = union_all(wanted.values())
    quota = Fraction(region.length, len(agents))

    # Amounts are integers over `unit`: atom k is weights[k] times the group
    # size long, and the average share is the weight of the owned atoms.
    atoms, weights, bits, scale = _atom_table(list(wanted.values()))
    unit = scale * len(agents)
    owned = {i: [k for k in range(len(atoms)) if mask >> k & 1] for i, mask in zip(agents, bits)}
    share = sum(weights[k] for k in set().union(*owned.values()))
    held, _, short = _fill(owned, [w * len(agents) for w in weights], dict.fromkeys(agents, share))
    if short is not None:
        raise Infeasible("cannot give agent %d a portion of length %s" % (short, quota))

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


def _fill(owned, lengths, need):
    # Serve each agent in `need`, mapped in order to the amount it asks for,
    # from its atoms in `owned`.  Atoms are filled greedily left to right,
    # preferring the agent with the least wanted cake still open, then the
    # lower index; transfer chains then serve the agents left short, in
    # order.  Returns how much of each atom each agent holds, what is left
    # of each atom, and the first agent that cannot be served, or None.
    held = [dict() for _ in lengths]
    spare = list(lengths)
    owners = [[] for _ in lengths]
    open_length = {}
    for i, atoms in owned.items():
        for k in atoms:
            owners[k].append(i)
        open_length[i] = sum(lengths[k] for k in atoms)
    for k in range(len(lengths)):
        while spare[k] > 0:
            ready = [(open_length[i], i) for i in owners[k] if need[i] > 0]
            if not ready:
                break
            _, i = min(ready)
            take = min(need[i], spare[k])
            held[k][i] = held[k].get(i, 0) + take
            spare[k] -= take
            need[i] -= take
        for i in owners[k]:
            open_length[i] -= lengths[k] - spare[k]

    for i in need:
        while need[i] > 0 and _augment(i, need, held, spare, owned):
            pass
        if need[i] > 0:
            return held, spare, i
    return held, spare, None


def _reach(start, held, spare, owned):
    # Breadth-first search from `start` along agent -> wanted atom -> agent
    # holding some of it.  Returns the agents reached, each mapped to the
    # (atom, agent) it was reached through, and the first (agent, atom) with
    # room; when no atom with room is reachable, that is None and the agents
    # reached hold all the cake any of them wants.
    parent = {start: None}
    queue = [start]
    for agent in queue:
        for k in owned[agent]:
            if spare[k] > 0:
                return parent, (agent, k)
            for other, amount in held[k].items():
                if amount > 0 and other not in parent:
                    parent[other] = (k, agent)
                    queue.append(other)
    return parent, None


def _augment(start, need, held, spare, owned):
    # Shift the largest amount a chain of transfers supports toward `start`:
    # start -> atom -> holder -> atom -> ... -> atom with room.  Returns
    # whether such a chain exists.  Amounts may be ints or Fractions.
    parent, room = _reach(start, held, spare, owned)
    if room is None:
        return False
    agent, k = room
    # Walking back to `start`, each agent gives up, to the one it was
    # reached from, the amount of the atom it was reached through.
    steps = []
    node = agent
    while parent[node] is not None:
        atom, prev = parent[node]
        steps.append((atom, node, prev))
        node = prev
    amount = min([need[start], spare[k], *(held[atom][node] for atom, node, _ in steps)])
    spare[k] -= amount
    held[k][agent] = held[k].get(agent, 0) + amount
    for atom, node, prev in steps:
        held[atom][node] -= amount
        held[atom][prev] = held[atom].get(prev, 0) + amount
    need[start] -= amount
    return True


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
        shares = exact_allocation(preferences, group, cake)
        # exact_allocation checks that the shares cover the group's wanted cake.
        region = union_all(shares.values())
        avg = Fraction(region.length, len(group))
        rounds.append(
            ServiceRound(group, avg, region, tuple(sorted(shares.items())))
        )
        cake = cake.difference(region)
        remaining = tuple(sorted(set(remaining).difference(group)))
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
