"""Claim-based mechanisms for agents with uniform tastes over a region.

Agents here are piecewise-uniform `Valuation`s: each cares only about a
fixed region of the cake (its support) and values any piece by the share of
that region it covers.  The guarantees hold for no other agents, so the
revelation layer reads supports only through `wanted_regions`, which
refuses them.  A strategy is itself a region (a claim), and a profile is
one claim per agent.  Three allocation rules are provided: priority
allocation under an explicit agent order, the same with priority given to
shorter claims, and a direct-revelation rule that repeatedly serves the
group of agents whose jointly wanted cake is smallest per head.

All lengths and utilities are exact rationals.  The rules run on integer
atom tables (`intervals._atom_table`), and a result becomes a region
straight from a table's integer cuts, with no Fraction on the way.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import index, or_

from fairslice.audit import Allocation, EmptySubset, _one_each, _some
from fairslice.intervals import (
    IntervalSet, _as_region, _atom_table, _merged, _region, _spans_region, _weight,
)
from fairslice.valuation import UnsupportedValuationClass, Valuation


class Infeasible(ValueError):
    """No disjoint portions of the required lengths exist.

    Raised by exact_allocation when its precondition (the group minimises
    the average share) was violated by the caller.
    """


# The agent who wants a given region, under its older name; an empty region
# raises ValueError.
UniformPreference = Valuation.uniform_on


def wanted_regions(preferences):
    """Each agent's support; UnsupportedValuationClass unless all are piecewise uniform."""
    if not all(p.is_piecewise_uniform() for p in preferences):
        raise UnsupportedValuationClass("revelation mechanisms need piecewise-uniform agents")
    return [p.support() for p in preferences]


def _check_agent(i, n):
    if not 0 <= i < n:
        raise ValueError("agent index %d is out of range for %d agents" % (i, n))


@dataclass(frozen=True, slots=True)
class Profile:
    """One claimed region per agent, in agent order.  Empty claims are legal."""

    strategies: tuple

    def __init__(self, strategies):
        object.__setattr__(
            self, "strategies", tuple(_as_region(s) for s in strategies)
        )

    def replace(self, i, strategy):
        """A copy with agent i's claim swapped out."""
        _check_agent(i, len(self))
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
        seq = tuple(map(index, sequence))  # an int, never a truncated float
        if sorted(seq) != list(range(len(seq))):
            raise ValueError("order must be a permutation of 0..n-1, got %r" % (seq,))
        object.__setattr__(self, "sequence", seq)

    def __len__(self):
        return len(self.sequence)

    def __iter__(self):
        return iter(self.sequence)


def lex_order(profile, order):
    """Allocate by priority: each agent receives their claim minus all earlier claims.

    The claims are cut into one atom table; a portion is the bitmask
    `claim & ~claimed`, and becomes a region once.
    """
    if not isinstance(order, AgentOrder):
        order = AgentOrder(order)
    _one_each(order, profile, "order covers %d agents but the profile has %d")
    return _priority(profile, order)


def length_game(profile):
    """Allocate with priority to shorter claims; equal lengths go to the lower index.

    Lengths are the claims' integer weights on the atom table of `lex_order`.
    """
    return _priority(profile, None)


def _priority(profile, order):
    # `lex_order` on one atom table of the claims; with no order, shorter
    # claims first, ties to the lower index.
    _some(profile)
    marks, weights, bits, scale = _atom_table(profile.strategies)
    if order is None:
        order = sorted(range(len(bits)), key=lambda i: _weight(bits[i], weights))
    portions = [None] * len(bits)
    claimed = 0
    for i in order:
        portions[i] = _region(bits[i] & ~claimed, marks, scale)
        claimed |= bits[i]
    return Allocation(portions)


def min_average_subset(preferences, agents, cake):
    """The group minimising the average share; smallest then earliest group on ties.

    `agents` is read as a set: a repeated index counts once.  A Dinkelbach
    loop over the fill of `exact_allocation`, on one atom table over the
    cake and the agents' supports.  Every agent asks for a candidate
    average λ of wanted cake, first the least of the singletons' and the
    whole group's.  When the fill cannot serve an agent, the agents its
    transfer search reaches want less than λ per head, and their average is
    the next λ.  Once everyone is served, no group averages less (Hall), and
    the groups averaging λ are those whose wanted cake is all held by their
    own members (Fujishige, 1980).  They are closed under union and
    intersection, so the smallest one containing an agent is the agent's
    closure along wanted atoms and their holders, and the minimal ones are
    disjoint: the smallest closure wins, and on equal sizes the one with
    the lowest member.  All the closures come from one pass over the runs
    and a transitive closure on bitmasks of agents.
    """
    wanted, _, weights, _ = _wanted_atoms(preferences, agents, cake)
    return _min_average_group(wanted, weights)


def _wanted_atoms(preferences, agents, cake):
    # One atom table over the cake and the agents' supports, the agents read
    # as a set: each agent's wanted cake as a bitmask, in order, then the table.
    agents = sorted(set(agents))
    _some(agents)
    for i in (agents[0], agents[-1]):
        _check_agent(i, len(preferences))
    supports = wanted_regions([preferences[i] for i in agents])
    marks, weights, bits, scale = _atom_table([_as_region(cake), *supports])
    return {i: mask & bits[0] for i, mask in zip(agents, bits[1:])}, marks, weights, scale


def _min_average_group(wanted, weights):
    # The search of `min_average_subset` over the agents of `wanted`.
    agents = tuple(wanted)
    _, sizes, owned = _runs(wanted, weights)

    def average(group):
        cover = set().union(*(owned[i] for i in group))
        return Fraction(sum(sizes[k] for k in cover), len(group))

    # Run weights are scaled by λ's denominator, so λ is its numerator.
    lam = min(average(group) for group in (agents, *((i,) for i in agents)))
    while True:
        lengths = [w * lam.denominator for w in sizes]
        held, spare, short = _fill(owned, lengths, dict.fromkeys(agents, lam.numerator))
        if short is None:
            return _closures(held, spare, owned)
        lam = average(_reach(short, held, spare, owned)[0])


def _closures(held, spare, owned):
    # The first smallest closure, on a fill that serves everyone: the agents
    # an agent reaches along wanted run -> holder, when none of them wants a
    # run with room.  As bitmasks over the agents in order: each agent and
    # the holders of the runs it wants, closed by Warshall's algorithm.
    bit = {i: 1 << p for p, i in enumerate(owned)}
    holders = [sum(bit[i] for i, x in amounts.items() if x > 0) for amounts in held]
    reach = [reduce(or_, (holders[k] for k in runs), bit[i]) for i, runs in owned.items()]
    room = sum(bit[i] for i, runs in owned.items() if any(spare[k] > 0 for k in runs))
    for q in range(len(reach)):
        for p, mask in enumerate(reach):
            if mask >> q & 1:
                reach[p] = mask | reach[q]
    best = min((mask for mask in reach if not mask & room), key=int.bit_count)
    return tuple(sorted(i for i in owned if best & bit[i]))


def _runs(wanted, weights):
    # Merge adjacent atoms that the same agents want into runs, leaving out
    # atoms nobody wants: the atoms of a table cut at the wanted endpoints
    # alone, as each endpoint of a canonical region changes its owner's
    # membership.  Returns each run's first atom and weight, and each agent's
    # runs.  The agents wanting each atom come from one walk over each
    # agent's runs of set bits, found as in `_region`.
    wanting = [[] for _ in weights]
    for i, mask in wanted.items():
        while mask:
            lo = (mask & -mask).bit_length() - 1
            rest = mask + (1 << lo)
            for k in range(lo, (rest & -rest).bit_length() - 1):
                wanting[k].append(i)
            mask &= rest
    firsts, sizes, owned = [], [], {i: [] for i in wanted}
    last = ()
    for k, (weight, owners) in enumerate(zip(weights, wanting)):
        if owners and owners == last:
            sizes[-1] += weight
        elif owners:
            for i in owners:
                owned[i].append(len(firsts))
            firsts.append(k)
            sizes.append(weight)
        last = owners
    return firsts, sizes, owned


def exact_allocation(preferences, agents, cake):
    """Disjoint portions of equal length for a group, each within its owner's wanted cake.

    `agents` is read as a set: a repeated index counts once.  Every agent in
    the group receives exactly the group's average share, made up only of
    cake they want.  Portions are filled greedily left to right, preferring
    the agent with the least wanted cake still open; a transfer pass repairs
    the rare greedy dead end.  The fill runs on one atom table over the cake
    and the members' supports, on runs of adjacent atoms that the same
    members want.  Amounts and positions are integers over the table's
    scale times the group size, so runs and the average share are whole
    numbers; each portion's spans merge in integers into a region over that
    unit, and no endpoint becomes a `Fraction`.  Raises Infeasible when no
    such portions exist, meaning the group did not minimise the average.
    """
    return _equal_shares(*_wanted_atoms(preferences, agents, cake))


def _equal_shares(wanted, marks, weights, scale):
    # The fill of `exact_allocation` for the group of `wanted`.  Amounts are
    # integers over `unit`: a run is its weight times the group size long,
    # and the average share is the weight of all the runs.
    unit = scale * len(wanted)
    firsts, sizes, owned = _runs(wanted, weights)
    share = sum(sizes)
    lengths = [w * len(wanted) for w in sizes]
    held, spare, short = _fill(owned, lengths, dict.fromkeys(wanted, share))
    if short is not None:
        quota = Fraction(share, unit)
        raise Infeasible("cannot give agent %d a portion of length %s" % (short, quota))
    _check_fill(held, spare, owned, share)

    portions = {i: [] for i in wanted}
    for k, amounts in zip(firsts, held):
        pos = marks[k] * len(wanted)
        for i in sorted(amounts):
            portions[i] += (pos, pos + amounts[i])
            pos += amounts[i]
    return {i: _spans_region(_merged(ends, unit), unit) for i, ends in portions.items()}


def _check_fill(held, spare, owned, share):
    # The closing checks of `exact_allocation` on a fill of runs that members
    # want: each member holds the share, only on runs it wants, and no run has room.
    if any(sum(amounts.get(i, 0) for amounts in held) != share for i in owned):
        raise Infeasible("portions do not meet the average share")
    for k, amounts in enumerate(held):
        if any(x > 0 and k not in owned[i] for i, x in amounts.items()):
            raise Infeasible("a portion strays outside its owner's wanted cake")
    if any(spare):
        raise Infeasible("portions do not cover the jointly wanted cake")


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
    # whether such a chain exists.
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
    """Trace of the smallest-average-group rule, one record per round.

    A round serves exactly its group's wanted cake, so the cake left is
    always a union of atoms cut at the supports' endpoints: the supports
    are cut once per run, and the cake is a bitmask of their atoms.  A
    round's region and average are read off the bitmask of its group's
    wanted cake.
    """
    _some(preferences)
    marks, weights, bits, scale = _atom_table(wanted_regions(preferences))
    remaining = tuple(range(len(preferences)))
    cake = (1 << len(weights)) - 1
    rounds = []
    while remaining:
        wanted = {i: bits[i] & cake for i in remaining}
        group = _min_average_group(wanted, weights)
        shares = _equal_shares({i: wanted[i] for i in group}, marks, weights, scale)
        # _equal_shares checks that the shares cover the group's wanted cake.
        served = reduce(or_, (wanted[i] for i in group))
        avg = Fraction(_weight(served, weights), scale * len(group))
        rounds.append(
            ServiceRound(group, avg, _region(served, marks, scale), tuple(sorted(shares.items())))
        )
        cake &= ~served
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
