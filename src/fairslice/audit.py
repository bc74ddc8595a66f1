"""Allocations and every equity / efficiency check over them.

An allocation hands each agent a region of the cake; regions may share only
boundary points.  All criteria are decided from the n x n equity table whose
entry (i, j) is agent i's value for agent j's portion: proportionality,
envy-freeness and equitability are statements about diagonals and rows, so
one exact table computation feeds every predicate.

An allocation holds only its portions, each a region in integers
(`intervals`).  The overlap check puts every portion's ends over one
scale, the lcm of the portions' scales, and sweeps the spans by left end.
An equity table ranks the portions' ends once (`intervals._ranking`): the
distinct ends in order, as integers over one scale S.  Agent i's row of
the table holds integers over one denominator M_i S^2, where M_i is the
valuation's mass scale: each is a difference of the agent's cumulative
mass at integer points.  The criteria compare within a row or
cross-multiply across rows; an entry is printed from its integers
(`intervals._text`) and becomes a reduced Fraction only when it is read.
The waste check is three bitmask tests on one atom table over the
portions and the agents' supports, as the equilibrium check tests claims
against supports.  A valuation is read only through its methods:
`masses_at`, `measure` and `support`.

Everything here compares exact rationals for equality.  There are no
tolerances in this module.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key, reduce
from operator import itemgetter, or_

from fairslice.intervals import (
    _as_region, _atom_table, _common, _ranking, _ratio, _scaled_pairs, _text,
)


@dataclass(frozen=True, slots=True)
class Allocation:
    """An n-tuple of pairwise disjoint portions, one region per agent."""

    portions: tuple

    def __init__(self, portions):
        cleaned = tuple(_as_region(portion) for portion in portions)
        # Sweep the spans by left end, over one scale; equal left ends
        # overlap in any order.  Spans of one canonical portion never
        # overlap, so a span starting before the furthest right end seen so
        # far overlaps the portion that reached it.
        parts, _ = _common(cleaned)
        reach, owner = 0, None
        spans = [(lo, hi, k) for k, e in enumerate(parts) for lo, hi in zip(e[::2], e[1::2])]
        for lo, hi, k in sorted(spans, key=itemgetter(0)):
            if lo < reach:
                i, j = sorted((owner, k))
                raise ValueError(
                    "portions %d and %d overlap on %r"
                    % (i, j, cleaned[i].intersect(cleaned[j]))
                )
            reach, owner = hi, k
        object.__setattr__(self, "portions", cleaned)

    def __len__(self):
        return len(self.portions)

    def __iter__(self):
        return iter(self.portions)

    def __getitem__(self, i):
        return self.portions[i]


@dataclass(frozen=True, slots=True, eq=False)
class EquityTable:
    """Square matrix of exact utilities: entries[i][j] = value of portion j to agent i.

    Row i is held as integers over one denominator; `table[i]` builds row
    i's reduced Fractions and `entries` every row's, on each read.  Tables
    compare and hash by entries.
    """

    _rows: tuple = field(repr=False)
    _dens: tuple = field(repr=False)

    def __init__(self, entries):
        rows = [_scaled_pairs([_ratio(x) for x in row]) for row in entries]
        if any(len(row) != len(rows) for row, _ in rows):
            raise ValueError("equity table must be square")
        _some(rows)
        _store(self, [row for row, _ in rows], [den for _, den in rows])

    @property
    def entries(self):
        return tuple(self[i] for i in range(self.n))

    @property
    def n(self):
        return len(self._rows)

    def strings(self):
        """Rows of the entries as str() prints them, each reduced by one gcd
        without building a Fraction."""
        return [[_text(x, den) for x in row] for row, den in zip(self._rows, self._dens)]

    def diagonal(self):
        return tuple(Fraction(num, den) for num, den in self._diagonal())

    def _diagonal(self):
        # (numerator, denominator) of each diagonal entry, unreduced.
        return [(row[i], den) for i, (row, den) in enumerate(zip(self._rows, self._dens))]

    def __getitem__(self, i):
        return tuple(Fraction(x, self._dens[i]) for x in self._rows[i])

    def __eq__(self, other):
        if not isinstance(other, EquityTable):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "EquityTable(entries=%r)" % (self.entries,)


def _store(table, rows, dens):
    object.__setattr__(table, "_rows", tuple(tuple(row) for row in rows))
    object.__setattr__(table, "_dens", tuple(dens))
    return table


class EmptySubset(ValueError):
    """An operation that needs at least one agent received none."""


def _some(agents):
    # The one refusal of an empty input.
    if not agents:
        raise EmptySubset("need at least one agent")


def _one_each(agents, items, mismatch="%d valuations but %d portions"):
    # The count rule of every entry that takes one item per agent.
    if len(agents) != len(items):
        raise ValueError(mismatch % (len(agents), len(items)))
    _some(agents)


def equity_table(valuations, allocation):
    """Exact utility matrix of every agent for every portion."""
    _one_each(valuations, allocation)
    scale, marks, spans = _ranking(allocation.portions)
    rows, dens = [], []
    for v in valuations:
        below, den = v.masses_at(marks, scale)
        rows.append([
            below[pairs[0][1]] - below[pairs[0][0]] if len(pairs) == 1
            else sum(below[j] - below[i] for i, j in pairs)
            for pairs in spans
        ])
        dens.append(den)
    # The rows are square by construction, so they are stored as they are
    # instead of through EquityTable's coercion.
    return _store(object.__new__(EquityTable), rows, dens)


def is_proportional(table):
    """Every agent gets at least a 1/n share by its own measure."""
    n = table.n
    return all(num * n >= den for num, den in table._diagonal())


def is_envy_free(table):
    """No agent values another portion above its own."""
    return all(row[i] >= max(row) for i, row in enumerate(table._rows))


def is_equitable(table):
    """All agents receive the same subjective value."""
    diag = table._diagonal()
    return all(num * diag[0][1] == diag[0][0] * den for num, den in diag)


def utilitarian_efficiency(table):
    """Sum of the diagonal: total subjective welfare."""
    nums, den = _scaled_pairs(table._diagonal())
    return Fraction(sum(nums), den)


# Orders (numerator, denominator) pairs with positive denominators by value.
_by_value = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def egalitarian_efficiency(table):
    """Minimum of the diagonal: the worst-off agent's value."""
    return Fraction(*min(table._diagonal(), key=_by_value))


def is_non_wasteful(valuations, allocation):
    """No one holds cake worthless to them that someone else wants.

    Cake valued by somebody but handed to nobody is a separate concern.
    """
    # Every kept piece has positive density inside it, so an agent values a
    # region exactly when it meets the agent's support in positive length.
    # Cake outside its owner's support is wanted by someone else exactly
    # when it meets somebody's support.
    _one_each(valuations, allocation)
    _, _, bits, _ = _atom_table([*allocation, *(v.support() for v in valuations)])
    portions, supports = bits[:len(allocation)], bits[len(allocation):]
    wanted = reduce(or_, supports, 0)
    return not any(portion & ~support & wanted for portion, support in zip(portions, supports))


def utilitarian_equivalent(valuations, a, b):
    """True when every agent is exactly indifferent between a and b."""
    _one_each(valuations, a)
    _one_each(valuations, b)
    return all(v.measure(x) == v.measure(y) for v, x, y in zip(valuations, a, b))
