"""Closed subintervals of the unit segment and canonical finite unions of them.

The cake is [0,1].  A slice is a closed interval with exact rational endpoints;
a region is a finite union of slices kept in canonical form: sorted, pairwise
disjoint, touching slices merged, zero-length slices dropped.  Because single
points carry no measure, two regions count as disjoint when their intersection
has length zero, which the canonical form renders as emptiness.  Union,
intersection, difference and complement are one merge of two regions'
endpoints; its result is canonical as built and stored as it is.  Length is
summed whenever it is read.  `_as_region` is the one coercion of a
region-like value (an IntervalSet or (lo, hi) pairs) to a region.

Rationals become integers in one place: `_scaled` writes some values as
integers over one scale, the lcm of their denominators; its body,
`_scaled_pairs`, takes them as integer pairs.  Integer spans become a
region in one place too: `_merged` checks spans over one scale as an
Interval checks its ends and merges them as a region does.  Code that
compares many endpoints at once ranks them first: `_ranking` scales every
endpoint of some regions and sorts those integers, so no Fraction is
compared.  An atom table cuts the cake at the ranked endpoints, and a
region is then a bitmask over its atoms.  Allocations, equity tables and
the revelation games all work on these ranks.

All endpoints are `fractions.Fraction`.  Floats are refused at the boundary:
Fraction(0.4) is not 2/5, and we never want to find that out the hard way.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import attrgetter


def frac(x):
    """Coerce ints, Fractions, and strings like "3/7" or "0.4" to Fraction.

    Floats are rejected: their binary expansions silently break exactness.
    """
    # isinstance against Fraction, whose metaclass is ABCMeta, is slow for
    # anything but a Fraction, so subclasses are tested for last.
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError("expected an exact rational (int, Fraction, or string), got %r" % (x,))


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval [lo, hi] inside the unit segment, possibly degenerate."""

    lo: Fraction
    hi: Fraction

    def __init__(self, lo, hi):
        lo = frac(lo)
        hi = frac(hi)
        # On integers, as Fraction's comparisons go through numbers.Rational;
        # on a failure, `_check_span` over the scale ld hd raises the error.
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        if not (0 <= ln and ln * hd <= hn * ld and hn <= hd):
            _check_span(ln * hd, hn * ld, ld * hd)
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


def _span(lo, hi, scale):
    # The integer span [lo, hi] / scale as an Interval prints it.
    return "[%s, %s]" % (Fraction(lo, scale), Fraction(hi, scale))


def _check_span(lo, hi, scale):
    # The range check of an Interval, on the integer span [lo, hi] / scale.
    if not 0 <= lo <= hi <= scale:
        raise ValueError("need 0 <= lo <= hi <= 1, got " + _span(lo, hi, scale))


def _merged(los, his, scale):
    # The integer spans [los[k], his[k]] / scale, each checked in input
    # order, as the spans of a canonical region: sorted, overlapping and
    # touching spans merged, zero-length ones dropped: (starts, ends).
    for lo, hi in zip(los, his):
        _check_span(lo, hi, scale)
    starts, ends = [], []
    for lo, hi in sorted(zip(los, his)):
        if ends and lo <= ends[-1]:
            if hi > ends[-1]:
                ends[-1] = hi
        elif lo < hi:
            starts.append(lo)
            ends.append(hi)
    return starts, ends


def _spans_region(los, his, scale):
    # The region of the integer spans [los[k], his[k]] / scale (see `_merged`).
    spans = zip(*_merged(los, his, scale))
    return IntervalSet.from_canonical((Fraction(a, scale), Fraction(b, scale)) for a, b in spans)


def _canonical(intervals):
    # Sort by left end, merge anything overlapping or merely touching, drop
    # what has zero length; a slice that merges with nothing is kept as is.
    spans = []
    for iv in sorted(intervals, key=attrgetter("lo")):
        if spans and iv.lo <= spans[-1].hi:
            if iv.hi > spans[-1].hi:
                spans[-1] = Interval(spans[-1].lo, iv.hi)
        else:
            spans.append(iv)
    return tuple(iv for iv in spans if iv.hi > iv.lo)


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
    return IntervalSet.from_canonical(zip(edges[::2], edges[1::2]))


@dataclass(frozen=True, slots=True)
class IntervalSet:
    """Canonical finite union of closed intervals within [0,1].

    Supports the usual region algebra: union, intersection, difference,
    complement (relative to the cake), and total length.  Instances are
    immutable and compare by value.
    """

    intervals: tuple

    def __init__(self, intervals=()):
        ivs = []
        for item in intervals:
            if isinstance(item, Interval):
                ivs.append(item)
            else:
                lo, hi = item
                ivs.append(Interval(lo, hi))
        object.__setattr__(self, "intervals", _canonical(ivs))

    @classmethod
    def from_canonical(cls, pairs):
        """The region of (lo, hi) pairs already in canonical form, stored as given:
        sorted, of positive length, neither overlapping nor touching."""
        region = object.__new__(cls)
        object.__setattr__(region, "intervals", tuple(Interval(lo, hi) for lo, hi in pairs))
        return region

    @classmethod
    def unit(cls):
        return cls([(0, 1)])

    @classmethod
    def empty(cls):
        return cls(())

    @property
    def length(self):
        return sum((iv.length for iv in self.intervals), Fraction(0))

    def is_empty(self):
        return not self.intervals

    def contains(self, x):
        return any(iv.contains(x) for iv in self.intervals)

    def union(self, other):
        return _merge(self, other, lambda a, b: a or b)

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


def _as_region(x):
    # A region as given, or one built from (lo, hi) pairs.
    return x if isinstance(x, IntervalSet) else IntervalSet(x)


def union_all(regions):
    """Union of an iterable of IntervalSets."""
    return IntervalSet(iv for region in regions for iv in region.intervals)


def _scaled(values):
    # Fractions as integers over one scale, the lcm of their denominators
    # (1 for none): values[k] is integers[k] / scale.
    return _scaled_pairs([x.as_integer_ratio() for x in values])


def _scaled_pairs(pairs):
    # The body of `_scaled`, for rationals given as (numerator, denominator)
    # pairs, the denominator positive and the pair not necessarily reduced.
    scale = lcm(*{den for _, den in pairs})
    return [num * (scale // den) for num, den in pairs], scale


def _ranking(regions):
    # Rank every endpoint of the regions as an integer over the scale of
    # `_scaled`.  The ranks come from sorting, never from hashing: integers
    # that differ by a multiple of 2^61 - 1 hash alike.  Returns the scale,
    # the distinct endpoints in order as integers over it and as Fractions,
    # and per region its spans as pairs of ranks.
    points = [x for region in regions for iv in region.intervals for x in (iv.lo, iv.hi)]
    ends, scale = _scaled(points)
    marks, firsts, rank = [], [], [0] * len(ends)
    for k in sorted(range(len(ends)), key=ends.__getitem__):
        if not marks or marks[-1] != ends[k]:
            marks.append(ends[k])
            firsts.append(points[k])
        rank[k] = len(marks) - 1
    pairs = list(zip(rank[::2], rank[1::2]))
    spans, start = [], 0
    for region in regions:
        end = start + len(region.intervals)
        spans.append(pairs[start:end])
        start = end
    return scale, marks, firsts, spans


def _atom_table(regions):
    # Cut the cake at every endpoint of every region; each atom lies wholly
    # inside or outside each region.  Returns the atoms as (lo, hi) pairs of
    # endpoints in order, their lengths as integers over the scale of
    # `_ranking`, per region the bitmask of its atoms, and the scale.
    scale, marks, points, spans = _ranking(regions)
    bits = [sum((1 << hi) - (1 << lo) for lo, hi in pairs) for pairs in spans]
    weights = [hi - lo for lo, hi in zip(marks, marks[1:])]
    return list(zip(points, points[1:])), weights, bits, scale


def _weight(mask, weights):
    # Total integer length of the atoms in a bitmask.
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def _region(mask, atoms):
    # The atoms of a bitmask as a region, one span per run of adjacent atoms:
    # adding the lowest set bit carries through its run.
    spans = []
    while mask:
        lo = (mask & -mask).bit_length() - 1
        rest = mask + (1 << lo)
        hi = (rest & -rest).bit_length() - 1
        spans.append((atoms[lo][0], atoms[hi - 1][1]))
        mask &= rest
    return IntervalSet.from_canonical(spans)
