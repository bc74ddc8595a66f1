"""The four classical query-model protocols.

Each mechanism takes a list of oracles (anything exposing eval/cut; a
Valuation is its own sincere oracle, and AgentOracle wraps one for
stand-in agents), runs the protocol with every query recorded, and returns
a MechanismResult carrying the allocation and the transcript.

cut_and_choose   2 agents; one halves, the other picks.  Envy free and
                 proportional for sincere agents.
last_diminisher  n agents; a candidate slice shrinks as agents trim it to
                 exactly a 1/n share, the last trimmer takes it.  Proportional;
                 query count grows quadratically.
selfridge        3 agents; trim-and-divide in two rounds.  Envy free.
even_paz         n agents; divide-and-conquer halving.  Proportional in
                 O(n log n) queries.

Determinism pins every tie: the chooser in cut_and_choose takes the right
slice when indifferent; in selfridge agent 3 takes the trimmed slice X' on
any tie and prefers Y to Z wherever they lie, and every other tie goes to
the leftmost slice; equal marks in even_paz order by agent index.  Each cut
names its slice and the Recorder holds the answer to it, so any exact
answers make a valid allocation.  An inexact cut (bisected through a linear density) is taken at
its word; audits against the true valuations show that.

Answers reach a protocol as the reduced integer pairs the Recorder read,
and every decision between them is taken on integers: answers are ranked
over one scale (`intervals._scaled_pairs`) and a worth is tested against
a share by cross-multiplying, never by a Fraction comparison.  Points,
shares and targets are pairs too, and each portion becomes a region
straight from its slices' pairs, over the lcm of their denominators
(`intervals._merged`, `_spans_region`), with no Fraction at all.
"""

from fairslice.audit import Allocation
from fairslice.intervals import _merged, _scaled_pairs, _spans_region
from fairslice.oracle import MechanismResult, Recorder

_ZERO, _ONE = (0, 1), (1, 1)


class ArityMismatch(ValueError):
    """Raised when a mechanism is handed the wrong number of agents."""


def _result(portions, recorder):
    # Each portion is a list of slices whose ends are integer pairs, made a
    # region over the lcm of their denominators with no Fraction.
    regions = []
    for p in portions:
        ends, scale = _scaled_pairs([end for piece in p for end in piece])
        regions.append(_spans_region(_merged(ends, scale), scale))
    return MechanismResult(Allocation(regions), recorder)


def cut_and_choose(oracles):
    """One agent halves the cake, the other takes the slice it likes better.

    The first agent cuts at its own half-value point a.  The second takes
    [0,a] only when it strictly prefers it; on a tie it takes [a,1].
    """
    if len(oracles) != 2:
        raise ArityMismatch("cut_and_choose needs exactly 2 agents, got %d" % len(oracles))
    rec = Recorder(oracles)
    a = rec._cut_pair(0, _ZERO, (1, 2))
    (left, right), _ = _scaled_pairs([rec._eval_pair(1, _ZERO, a), rec._eval_pair(1, a, _ONE)])
    if left > right:
        portions = [[(a, _ONE)], [(_ZERO, a)]]
    else:
        portions = [[(_ZERO, a)], [(a, _ONE)]]
    return _result(portions, rec)


def last_diminisher(oracles):
    """A candidate slice passes down the line, trimmed by anyone who values
    it above a 1/n share; whoever trimmed it last keeps it.

    Agents are scanned once per round in index order.  An agent valuing the
    current candidate [s,l] above 1/n trims it to exactly 1/n with its own
    cut (no trim when only one claimant remains).  The round's slice goes to
    the last trimmer; if nobody spoke up, to the lowest-indexed remaining
    agent.  The final agent ends up with the entire residual cake.
    """
    n = len(oracles)
    if n < 2:
        raise ArityMismatch("last_diminisher needs at least 2 agents, got %d" % n)
    rec = Recorder(oracles)
    share = (1, n)
    portions = [[] for _ in range(n)]
    remaining = list(range(n))
    s = _ZERO
    while remaining:
        l = _ONE
        last = None
        for i in remaining:
            num, den = rec._eval_pair(i, s, l)
            if num * n > den:
                last = i
                if len(remaining) > 1:
                    l = rec._cut_pair(i, s, share, l)
        if last is None:
            last = remaining[0]
        portions[last].append((s, l))
        s = l
        remaining.remove(last)
    return _result(portions, rec)


def selfridge(oracles):
    """Envy-free division for three agents by trimming the best slice.

    Round one: agent 1 cuts thirds; agent 2 trims its favourite slice X down
    to X' so that X' ties with its second favourite; agent 3 then picks any
    slice, agent 2 picks next but must take X' whenever agent 3 passed on it,
    and agent 1 takes the last slice.  Round two: whichever of agents 2 and 3
    did not take X' divides the trimming into thirds of its own valuation;
    the X'-taker picks first, then agent 1, the divider keeps the rest.

    The pick order protects agent 2: picking after agent 1 instead would let
    agent 1 walk off with agent 2's second favourite and leave agent 2 with
    its worst slice.  Agent 3 takes X' on any tie and otherwise prefers Y
    to Z on a tie, wherever those slices lie; every other tie resolves to
    the leftmost slice in the running.
    """
    if len(oracles) != 3:
        raise ArityMismatch("selfridge needs exactly 3 agents, got %d" % len(oracles))
    rec = Recorder(oracles)
    a = rec._cut_pair(0, _ZERO, (1, 3))
    b = rec._cut_pair(0, a, (1, 3))
    thirds = [(_ZERO, a), (a, b), (b, _ONE)]
    worth = [rec._eval_pair(1, lo, hi) for lo, hi in thirds]
    rank, _ = _scaled_pairs(worth)

    x_index = max(range(3), key=lambda k: (rank[k], -k))
    x1, x2 = thirds[x_index]
    z_index = min(
        (k for k in range(3) if k != x_index), key=lambda k: (rank[k], k)
    )
    z = thirds[z_index]
    (y_index,) = set(range(3)) - {x_index, z_index}
    y = thirds[y_index]

    # Trim X to tie with Y in agent 2's eyes; the trimming T may be empty.
    c = rec._cut_pair(1, x1, worth[y_index], x2)
    x_prime = (x1, c)
    trim = (c, x2)

    portions = [[], [], []]
    pick_3, _ = _scaled_pairs([rec._eval_pair(2, lo, hi) for lo, hi in (x_prime, y, z)])
    if pick_3[0] >= pick_3[1] and pick_3[0] >= pick_3[2]:
        # Agent 3 takes the trimmed slice; agent 2 keeps its second
        # favourite third (Y by construction) and agent 1 the remaining one.
        portions[2].append(x_prime)
        portions[1].append(y)
        portions[0].append(z)
        divider = 1
    else:
        portions[2].append(y if pick_3[1] >= pick_3[2] else z)
        portions[1].append(x_prime)
        portions[0].append(z if pick_3[1] >= pick_3[2] else y)
        divider = 2

    # The cut c is held to [x1, x2], so the trimming is empty iff c is x2.
    if c != x2:
        _divide_trimming(rec, divider, trim, portions)
    return _result(portions, rec)


def _divide_trimming(rec, divider, trim, portions):
    # The divider thirds the trimming by its own measure; the agent of
    # {2,3} that took the trimmed slice picks first, then agent 1.
    c, x2 = trim
    first_picker = 2 if divider == 1 else 1
    un, ud = rec._eval_pair(divider, c, x2)
    third = (un, 3 * ud)
    d = rec._cut_pair(divider, c, third, x2)
    e = rec._cut_pair(divider, d, third, x2)
    slices = [(c, d), (d, e), (e, x2)]
    values, _ = _scaled_pairs([rec._eval_pair(first_picker, lo, hi) for lo, hi in slices])
    best = max(range(3), key=lambda k: (values[k], -k))
    portions[first_picker].append(slices[best])
    rest = [slices[k] for k in range(3) if k != best]
    (first, second), _ = _scaled_pairs([rec._eval_pair(0, lo, hi) for lo, hi in rest])
    if first >= second:
        portions[0].append(rest[0])
        portions[divider].append(rest[1])
    else:
        portions[0].append(rest[1])
        portions[divider].append(rest[0])


def even_paz(oracles):
    """Proportional division by recursive near-halving.

    In a group of k agents, every agent marks the point where the working
    slice reaches floor(k/2)/k of its value for them (the midpoint fraction,
    rounded down when k is odd).  The group splits at the floor(k/2)-th
    smallest mark (ties by agent index): the floor(k/2) agents with the
    smaller marks recurse on the left part, the rest on the right.  A lone
    agent takes the whole slice.  Each level costs two queries per agent,
    so the total is O(n log n).
    """
    n = len(oracles)
    if n < 1:
        raise ArityMismatch("even_paz needs at least 1 agent")
    rec = Recorder(oracles)
    portions = [[] for _ in range(n)]

    def subroutine(group, s, t):
        if len(group) == 1:
            portions[group[0]].append((s, t))
            return
        half, k = len(group) // 2, len(group)
        marks = {}
        for i in group:
            num, den = rec._eval_pair(i, s, t)
            marks[i] = rec._cut_pair(i, s, (num * half, den * k), t)
        rank = dict(zip(marks, _scaled_pairs(list(marks.values()))[0]))
        ordered = sorted(sorted(group), key=rank.__getitem__)  # ties by index
        split = marks[ordered[half - 1]]
        subroutine(ordered[:half], s, split)
        subroutine(ordered[half:], split, t)

    subroutine(list(range(n)), _ZERO, _ONE)
    return _result(portions, rec)
