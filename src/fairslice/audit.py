"""Allocations and every equity / efficiency check over them.

An allocation hands each agent a region of the cake; regions may share only
boundary points.  All criteria are decided from the n x n equity table whose
entry (i, j) is agent i's value for agent j's portion: proportionality,
envy-freeness and equitability are statements about diagonals and rows, so
one exact table computation feeds every predicate.  Waste and efficiency
checks take the valuations themselves where the table is not enough.

Everything here compares exact rationals for equality.  There are no
tolerances in this module.
"""

from dataclasses import dataclass
from fractions import Fraction

from fairslice.intervals import IntervalSet, union_all


@dataclass(frozen=True, slots=True)
class Allocation:
    """An n-tuple of pairwise disjoint portions, one region per agent."""

    portions: tuple

    def __init__(self, portions):
        cleaned = []
        for portion in portions:
            if not isinstance(portion, IntervalSet):
                portion = IntervalSet(portion)
            cleaned.append(portion)
        # Sweep every span by its left end.  Spans of one canonical portion
        # never overlap, so a span starting before the furthest right end
        # seen so far overlaps the portion that reached it.
        reach, owner = 0, None
        for lo, hi, k in sorted(
            (iv.lo, iv.hi, k) for k, portion in enumerate(cleaned) for iv in portion
        ):
            if lo < reach:
                i, j = sorted((owner, k))
                raise ValueError(
                    "portions %d and %d overlap on %r"
                    % (i, j, cleaned[i].intersect(cleaned[j]))
                )
            reach, owner = hi, k
        object.__setattr__(self, "portions", tuple(cleaned))

    def __len__(self):
        return len(self.portions)

    def __iter__(self):
        return iter(self.portions)

    def __getitem__(self, i):
        return self.portions[i]

    def allocated_region(self):
        return union_all(self.portions)


@dataclass(frozen=True, slots=True)
class EquityTable:
    """Square matrix of exact utilities: entries[i][j] = value of portion j to agent i."""

    entries: tuple

    def __init__(self, entries):
        rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("equity table must be square")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self):
        return len(self.entries)

    def diagonal(self):
        return tuple(self.entries[i][i] for i in range(self.n))

    def __getitem__(self, i):
        return self.entries[i]


def equity_table(valuations, allocation):
    """Exact utility matrix of every agent for every portion."""
    if len(valuations) != len(allocation):
        raise ValueError(
            "%d valuations but %d portions" % (len(valuations), len(allocation))
        )
    return EquityTable(
        [[v.measure(portion) for portion in allocation] for v in valuations]
    )


def is_proportional(table):
    """Every agent gets at least a 1/n share by its own measure."""
    n = table.n
    return all(entry * n >= 1 for entry in table.diagonal())


def is_envy_free(table):
    """No agent values another portion above its own."""
    return all(
        table[i][i] >= table[i][j] for i in range(table.n) for j in range(table.n)
    )


def is_equitable(table):
    """All agents receive the same subjective value."""
    diag = table.diagonal()
    return all(entry == diag[0] for entry in diag)


def utilitarian_efficiency(table):
    """Sum of the diagonal: total subjective welfare."""
    return sum(table.diagonal(), Fraction(0))


def egalitarian_efficiency(table):
    """Minimum of the diagonal: the worst-off agent's value."""
    return min(table.diagonal())


def is_non_wasteful(valuations, allocation):
    """No one holds cake worthless to them that someone else wants.

    Cake valued by somebody but handed to nobody is a separate concern;
    uncovered_valued_cake reports it.
    """
    for i, owner in enumerate(valuations):
        worthless = allocation[i].difference(owner.support())
        if worthless.is_empty():
            continue
        for j, other in enumerate(valuations):
            if j != i and other.measure(worthless) > 0:
                return False
    return True


def uncovered_valued_cake(valuations, allocation):
    """Region valued by at least one agent yet allocated to none."""
    wanted = union_all(v.support() for v in valuations)
    return wanted.difference(allocation.allocated_region())


def pareto_dominates(valuations, a, b):
    """True when a gives every agent at least as much as b, someone strictly more."""
    diag_a = equity_table(valuations, a).diagonal()
    diag_b = equity_table(valuations, b).diagonal()
    if any(x < y for x, y in zip(diag_a, diag_b)):
        return False
    return any(x > y for x, y in zip(diag_a, diag_b))


def utilitarian_equivalent(valuations, a, b):
    """True when every agent is exactly indifferent between a and b."""
    diag_a = equity_table(valuations, a).diagonal()
    diag_b = equity_table(valuations, b).diagonal()
    return diag_a == diag_b
