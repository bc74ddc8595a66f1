"""Closed subintervals of the unit segment and canonical finite unions of them.

The cake is [0,1].  A slice is a closed interval with exact rational endpoints;
a region is a finite union of slices kept in canonical form: sorted, pairwise
disjoint, touching slices merged, zero-length slices dropped.  Because single
points carry no measure, two regions count as disjoint when their intersection
has length zero, which the canonical form renders as emptiness.  Intersection,
difference and complement are one merge of two regions' endpoints; its result
is canonical as built and stored as it is.  Length is computed once, on making.

All endpoints are `fractions.Fraction`.  Floats are refused at the boundary:
Fraction(0.4) is not 2/5, and we never want to find that out the hard way.
"""

from dataclasses import dataclass, field
from fractions import Fraction


def frac(x):
    """Coerce ints, Fractions, and strings like "3/7" or "0.4" to Fraction.

    Floats are rejected: their binary expansions silently break exactness.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("expected an exact rational (int, Fraction, or string), got %r" % (x,))


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval [lo, hi] inside the unit segment, possibly degenerate."""

    lo: Fraction
    hi: Fraction

    def __init__(self, lo, hi):
        lo = frac(lo)
        hi = frac(hi)
        if not (0 <= lo <= hi <= 1):
            raise ValueError("need 0 <= lo <= hi <= 1, got [%s, %s]" % (lo, hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def length(self):
        return self.hi - self.lo

    def contains(self, x):
        return self.lo <= x <= self.hi

    def __repr__(self):
        return "[%s, %s]" % (self.lo, self.hi)

    def __iter__(self):
        yield self.lo
        yield self.hi


def _canonical(intervals):
    # Sort by left endpoint, merge anything overlapping or merely touching,
    # and drop what is left with zero length.
    spans = sorted((iv.lo, iv.hi) for iv in intervals)
    merged = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return tuple(Interval(lo, hi) for lo, hi in merged if hi > lo)


def _merge(x, y, keep):
    # Walk both regions' endpoints in order.  Past a point, a region's count
    # of endpoints so far is odd exactly when the walk is inside it.  An edge
    # falls wherever keep, False outside both, changes value; a shared point
    # is passed in both at once, so no touching or zero-length span appears.
    a = [p for iv in x.intervals for p in (iv.lo, iv.hi)]
    b = [p for iv in y.intervals for p in (iv.lo, iv.hi)]
    i = j = 0
    kept = False
    edges = []
    while i < len(a) or j < len(b):
        if j == len(b) or (i < len(a) and a[i] <= b[j]):
            point = a[i]
            i += 1
            if j < len(b) and b[j] == point:
                j += 1
        else:
            point = b[j]
            j += 1
        if keep(i % 2 == 1, j % 2 == 1) != kept:
            kept = not kept
            edges.append(point)
    spans = tuple(Interval(lo, hi) for lo, hi in zip(edges[::2], edges[1::2]))
    return _store(object.__new__(IntervalSet), spans)


def _store(region, spans):
    object.__setattr__(region, "intervals", spans)
    object.__setattr__(region, "length", sum((iv.hi - iv.lo for iv in spans), Fraction(0)))
    return region


@dataclass(frozen=True, slots=True)
class IntervalSet:
    """Canonical finite union of closed intervals within [0,1].

    Supports the usual region algebra: union, intersection, difference,
    complement (relative to the cake), and total length.  Instances are
    immutable and compare by value.
    """

    intervals: tuple
    length: Fraction = field(compare=False, repr=False)

    def __init__(self, intervals=()):
        ivs = []
        for item in intervals:
            if isinstance(item, Interval):
                ivs.append(item)
            else:
                lo, hi = item
                ivs.append(Interval(lo, hi))
        _store(self, _canonical(ivs))

    @classmethod
    def unit(cls):
        return cls([(0, 1)])

    @classmethod
    def empty(cls):
        return cls(())

    def is_empty(self):
        return not self.intervals

    def contains(self, x):
        return any(iv.contains(x) for iv in self.intervals)

    def union(self, other):
        return IntervalSet(self.intervals + other.intervals)

    def intersect(self, other):
        return _merge(self, other, lambda a, b: a and b)

    def difference(self, other):
        return _merge(self, other, lambda a, b: a and not b)

    def complement(self):
        """The rest of the cake, [0,1] minus this region."""
        return _UNIT.difference(self)

    def overlaps(self, other):
        """True when the shared region has positive length."""
        return not self.intersect(other).is_empty()

    def pairs(self):
        """Endpoint pairs, handy for serialization."""
        return [(iv.lo, iv.hi) for iv in self.intervals]

    def __len__(self):
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __repr__(self):
        if not self.intervals:
            return "IntervalSet(empty)"
        return "IntervalSet(%s)" % " u ".join(repr(iv) for iv in self.intervals)


_UNIT = IntervalSet.unit()


def union_all(regions):
    """Union of an iterable of IntervalSets."""
    return IntervalSet(iv for region in regions for iv in region.intervals)
