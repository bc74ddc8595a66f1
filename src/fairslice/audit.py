"""Allocations and every equity / efficiency check over them.

An allocation hands each agent a region of the cake; regions may share only
boundary points.  All criteria are decided from the n x n equity table whose
entry (i, j) is agent i's value for agent j's portion: proportionality,
envy-freeness and equitability are statements about diagonals and rows, so
one exact table computation feeds every predicate.

Everything runs on one ranking of the allocation's endpoints, made when the
allocation is built (`intervals._ranking`): every portion's integer ends go
over one scale S, the lcm of the portions' scales, each known by its rank.
The overlap check sorts and sweeps the ranks.  Agent i's row of the table
holds integers over one denominator M_i S^2, where M_i is the valuation's
mass scale: each is a difference of the agent's cumulative mass at integer
points.  The criteria compare within a row or cross-multiply across rows;
an entry is printed from its integers (`intervals._text`) and becomes a
reduced Fraction only when it is read.  The waste check ranks the
allocation's endpoints together with the agents' integer piece ends and
tests bitmasks over the atoms between them.

Everything here compares exact rationals for equality.  There are no
tolerances in this module.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key, reduce
from math import lcm
from operator import itemgetter, or_

from fairslice.intervals import _as_region, _ranking, _scaled, _text, frac


@dataclass(frozen=True, slots=True)
class Allocation:
    """An n-tuple of pairwise disjoint portions, one region per agent."""

    portions: tuple
    # The endpoints ranked once: (scale, endpoints as integers over it in
    # order, per portion its spans as pairs of indices into them).
    _ranks: tuple = field(compare=False, repr=False)

    def __init__(self, portions):
        cleaned = [_as_region(portion) for portion in portions]
        scale, marks, spans = _ranking(cleaned)
        # Sweep the spans by left end; equal left ends overlap in any order.
        # Spans of one canonical portion never overlap, so a span starting before
        # the furthest right end seen so far overlaps the portion that reached it.
        reach, owner = 0, None
        ranked = [(lo, hi, k) for k, pairs in enumerate(spans) for lo, hi in pairs]
        for lo, hi, k in sorted(ranked, key=itemgetter(0)):
            if lo < reach:
                i, j = sorted((owner, k))
                raise ValueError(
                    "portions %d and %d overlap on %r"
                    % (i, j, cleaned[i].intersect(cleaned[j]))
                )
            reach, owner = hi, k
        object.__setattr__(self, "portions", tuple(cleaned))
        object.__setattr__(self, "_ranks", (scale, marks, spans))

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
        rows = [_scaled([frac(x) for x in row]) for row in entries]
        if any(len(row) != len(rows) for row, _ in rows):
            raise ValueError("equity table must be square")
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


def _one_each(agents, items, mismatch="%d valuations but %d portions"):
    # The count rule of every entry that takes one item per agent.
    if len(agents) != len(items):
        raise ValueError(mismatch % (len(agents), len(items)))
    if not agents:
        raise ValueError("need at least one agent")


def equity_table(valuations, allocation):
    """Exact utility matrix of every agent for every portion."""
    _one_each(valuations, allocation)
    scale, marks, spans = allocation._ranks
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
    diag = table._diagonal()
    den = lcm(*(d for _, d in diag))
    return Fraction(sum(num * (den // d) for num, d in diag), den)


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
    # region exactly when it meets the agent's pieces in positive length.
    # Cake outside its owner's pieces is wanted by someone else exactly
    # when it meets somebody's pieces.  The allocation's ranked endpoints
    # and every piece end go over one common scale, and each is ranked by
    # its first place among them all, sorted; a region is then a bitmask
    # over the gaps between consecutive places.
    _one_each(valuations, allocation)
    scale, marks, spans = allocation._ranks
    common = lcm(scale, *(v._scale for v in valuations))
    ends = [mark * (common // scale) for mark in marks]
    for v in valuations:
        step = common // v._scale
        ends += [x * step for x in v._los + v._his]
    order = sorted(ends)
    bits = [1 << bisect_left(order, x) for x in ends]
    portions = [sum(bits[hi] - bits[lo] for lo, hi in pairs) for pairs in spans]
    supports, start = [], len(marks)
    for v in valuations:
        middle = start + len(v._los)
        end = middle + len(v._los)
        supports.append(sum(bits[middle:end]) - sum(bits[start:middle]))
        start = end
    wanted = reduce(or_, supports, 0)
    return not any(portion & ~support & wanted for portion, support in zip(portions, supports))


def utilitarian_equivalent(valuations, a, b):
    """True when every agent is exactly indifferent between a and b."""
    _one_each(valuations, a)
    _one_each(valuations, b)
    return all(v.measure(x) == v.measure(y) for v, x, y in zip(valuations, a, b))
