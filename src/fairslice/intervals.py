"""Closed subintervals of the unit segment and canonical finite unions of them.

The cake is [0,1].  A slice is a closed interval with exact rational endpoints;
a region is a finite union of slices kept in canonical form: sorted, pairwise
disjoint, touching slices merged, zero-length slices dropped.  Because single
points carry no measure, two regions count as disjoint when their intersection
has length zero, which the canonical form renders as emptiness.

A region holds that form once, in integers, as a valuation does: its ends
in order over one scale that shares no factor with all of them, so equal
regions hold equal integers.  `_scaled` writes rationals as integers over
the lcm of their denominators, `_merged` checks integer spans as an
Interval checks its ends and merges them, and every region is stored by
`_store` (`_spans_region` for a new one).  Union, intersection, difference
and complement are one walk over two regions' ends over the lcm of their
scales, and `contains` tests a point on the integers.  Intervals and
Fractions are built only when a region is iterated or read as pairs, a
length or text; `_text` prints an integer ratio as its Fraction would.
`_as_region` is the one coercion of a region-like value (an IntervalSet or
(lo, hi) pairs) to a region.

Code that compares many endpoints at once ranks them: `_ranking` puts the
ends of some regions over one scale and sorts those integers.  An atom
table cuts the cake at the ranked ends, and a region is then a bitmask
over its atoms.  Equity tables, the waste check and the revelation games
work on these ranks.

Every endpoint a region hands out is a `fractions.Fraction`.  `_ratio` is
the one reader of an exact number, for the library and the scenario reader
alike: an int, a Fraction or text becomes an integer pair, behind one bound
on exponents; `frac` is that pair as a Fraction.  Floats, bools and every
other type are refused at the boundary: Fraction(0.4) is not 2/5, and we
never want to find that out the hard way.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

# Fraction("1e999999999") builds 10**999999999 before anything can look at
# the result, so exponents are held to the interpreter's limit on integer
# digits, 4,300.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _exponent_out_of_range(text):
    match = _EXPONENT.search(text)
    if match is None:
        return False
    exponent = match.group(1).replace("_", "")
    return len(exponent) > _MAX_EXPONENT or abs(int(exponent)) > _MAX_EXPONENT


def _ratio(x):
    # An exact number as an integer pair (numerator, denominator > 0), not
    # necessarily reduced: exactly an int or a Fraction, a "p" or "p/q" of
    # at most 40 ASCII digits with q > 0, or any other text as Fraction
    # reads it once its exponent is in range.  A bool is refused, as a
    # float is.
    if type(x) is Fraction or type(x) is int:
        return x.as_integer_ratio()
    if isinstance(x, str):
        if len(x) <= 40 and x.isascii():
            num, slash, den = x.partition("/")
            if num.isdigit() and (den.isdigit() or not slash):
                den = int(den) if slash else 1
                if den:
                    return int(num), den
        if _exponent_out_of_range(x):
            raise ValueError("exponent beyond %d" % _MAX_EXPONENT)
        return Fraction(x).as_integer_ratio()
    raise TypeError("expected an exact rational (int, Fraction, or string), got %r" % (x,))


def frac(x):
    """Coerce ints, Fractions, and strings like "3/7" or "0.4" to Fraction.

    Floats are rejected: their binary expansions silently break exactness.
    So is an exponent beyond 4,300, which would build a huge integer first.
    """
    return x if type(x) is Fraction else Fraction(*_ratio(x))


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

    def __repr__(self):
        return "[%s, %s]" % (self.lo, self.hi)

    def __iter__(self):
        yield self.lo
        yield self.hi


def _scaled(values):
    # Fractions as integers over one scale, the lcm of their denominators
    # (1 for none): values[k] is integers[k] / scale.
    return _scaled_pairs([x.as_integer_ratio() for x in values])


def _scaled_pairs(pairs):
    # The body of `_scaled`, for rationals given as (numerator, denominator)
    # pairs, the denominator positive and the pair not necessarily reduced.
    scale = lcm(*{den for _, den in pairs})
    return [num * (scale // den) for num, den in pairs], scale


def _text(num, den):
    # str(Fraction(num, den)) for den > 0, from one gcd and no Fraction.
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _span(lo, hi, scale):
    # The integer span [lo, hi] / scale as an Interval prints it.
    return "[%s, %s]" % (_text(lo, scale), _text(hi, scale))


def _check_span(lo, hi, scale):
    # The range check of an Interval, on the integer span [lo, hi] / scale.
    if not 0 <= lo <= hi <= scale:
        raise ValueError("need 0 <= lo <= hi <= 1, got " + _span(lo, hi, scale))


def _merged(ends, scale):
    # The integer spans [ends[2k], ends[2k + 1]] / scale, each checked in
    # input order, as the ends of a canonical region: sorted, overlapping
    # and touching spans merged, zero-length ones dropped.
    spans = list(zip(ends[::2], ends[1::2]))
    for lo, hi in spans:  # the test of `_check_span`, inline: most spans pass
        if not 0 <= lo <= hi <= scale:
            _check_span(lo, hi, scale)
    spans.sort()
    merged = []
    for lo, hi in spans:
        if merged and lo <= merged[-1]:
            if hi > merged[-1]:
                merged[-1] = hi
        elif lo < hi:
            merged += (lo, hi)
    return merged


def _store(region, ends, scale):
    # Hold the ends of a canonical region on it, with the scale and the ends
    # divided by their gcd, so that equal regions hold equal integers.
    g = gcd(scale, *ends)
    if g > 1:
        ends = [x // g for x in ends]
        scale //= g
    object.__setattr__(region, "_ends", tuple(ends))
    object.__setattr__(region, "_scale", scale)
    return region


def _spans_region(ends, scale):
    # The region of integer ends over one scale already in canonical form:
    # strictly ascending, so spans [ends[2k], ends[2k + 1]] / scale are
    # sorted, of positive length, neither overlapping nor touching.
    return _store(object.__new__(IntervalSet), ends, scale)


def _common(regions):
    # Each region's ends over one scale, the lcm of the regions' scales.
    scale = lcm(*{region._scale for region in regions})
    return [[x * (scale // region._scale) for x in region._ends] for region in regions], scale


def _merge(x, y, keep):
    # Walk both regions' ends in order, over one scale.  Past a point, a
    # region's count of ends so far is odd exactly when the walk is inside
    # it.  An edge falls wherever keep, False outside both, changes value; a
    # shared point is passed in both at once, so no touching or zero-length
    # span appears.
    (a, b), scale = _common((x, y))
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
    return _spans_region(edges, scale)


@dataclass(frozen=True, slots=True)
class IntervalSet:
    """Canonical finite union of closed intervals within [0,1].

    Supports the usual region algebra: union, intersection, difference,
    complement (relative to the cake), and total length.  Instances are
    immutable and compare by value.
    """

    # Span k is [_ends[2k], _ends[2k + 1]] / _scale.  The ends ascend
    # strictly, and _scale shares no factor with all of them, so the empty
    # region has scale 1.
    _ends: tuple
    _scale: int

    def __init__(self, intervals=()):
        pairs = []
        for lo, hi in intervals:
            pairs += (_ratio(lo), _ratio(hi))
        ends, scale = _scaled_pairs(pairs)
        _store(self, _merged(ends, scale), scale)

    @classmethod
    def unit(cls):
        return cls([(0, 1)])

    @classmethod
    def empty(cls):
        return cls(())

    @property
    def intervals(self):
        """The spans in order, as Intervals."""
        return tuple(Interval(lo, hi) for lo, hi in self.pairs())

    @property
    def length(self):
        ends = self._ends
        return Fraction(sum(ends[1::2]) - sum(ends[::2]), self._scale)

    def is_empty(self):
        return not self._ends

    def contains(self, x):
        """True when the exact number x lies in some span, ends included."""
        p, r = _ratio(x)
        point, ends = p * self._scale, self._ends
        return any(lo * r <= point <= hi * r for lo, hi in zip(ends[::2], ends[1::2]))

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
        ends = [Fraction(x, self._scale) for x in self._ends]
        return list(zip(ends[::2], ends[1::2]))

    def __len__(self):
        return len(self._ends) // 2

    def __iter__(self):
        return iter(self.intervals)

    def __repr__(self):
        if not self._ends:
            return "IntervalSet(empty)"
        return "IntervalSet(%s)" % " u ".join(repr(iv) for iv in self.intervals)


_UNIT = IntervalSet.unit()


def _as_region(x):
    # A region as given, or one built from (lo, hi) pairs.
    return x if isinstance(x, IntervalSet) else IntervalSet(x)


def union_all(regions):
    """Union of an iterable of IntervalSets."""
    parts, scale = _common(list(regions))
    return _spans_region(_merged([x for ends in parts for x in ends], scale), scale)


def _ranking(regions):
    # Rank every end of the regions as an integer over one scale, the lcm of
    # their scales.  The ranks come from sorting, never from hashing:
    # integers that differ by a multiple of 2^61 - 1 hash alike.  Returns
    # the scale, the distinct ends in order as integers over it, and per
    # region its spans as pairs of ranks.
    parts, scale = _common(regions)
    ends = [x for part in parts for x in part]
    marks, rank = [], [0] * len(ends)
    for k in sorted(range(len(ends)), key=ends.__getitem__):
        if not marks or marks[-1] != ends[k]:
            marks.append(ends[k])
        rank[k] = len(marks) - 1
    pairs = zip(rank[::2], rank[1::2])
    return scale, marks, [list(islice(pairs, len(part) // 2)) for part in parts]


def _atom_table(regions):
    # Cut the cake at every end of every region; each atom lies wholly
    # inside or outside each region.  Returns the cuts in order, atom k
    # being [marks[k], marks[k + 1]], and the atoms' lengths, both integers
    # over the scale of `_ranking`; per region the bitmask of its atoms; and
    # the scale.
    scale, marks, spans = _ranking(regions)
    bits = [sum((1 << hi) - (1 << lo) for lo, hi in pairs) for pairs in spans]
    weights = [hi - lo for lo, hi in zip(marks, marks[1:])]
    return marks, weights, bits, scale


def _weight(mask, weights):
    # Total integer length of the atoms in a bitmask.
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def _region(mask, marks, scale):
    # The atoms of a bitmask over the cuts marks / scale as a region, one
    # span per run of adjacent atoms: adding the lowest set bit carries
    # through its run.
    ends = []
    while mask:
        lo = (mask & -mask).bit_length() - 1
        rest = mask + (1 << lo)
        hi = (rest & -rest).bit_length() - 1
        ends += (marks[lo], marks[hi])
        mask &= rest
    return _spans_region(ends, scale)
