"""Agent preferences over the cake as densities with exact integration.

A valuation is a probability measure on [0,1] given by a piecewise affine
density: finitely many non-overlapping closed intervals, each carrying a
density slope*x + intercept that is non-negative there, zero density in the
gaps.  Total mass is exactly 1, so the measure is normalised, additive,
non-atomic and non-negative by construction.

Three preference families cover everything downstream:

  uniform      indicator of a region scaled by one over its length
  constant     step densities (rational steps)
  linear       affine densities per piece (rational slope and intercept)

A valuation holds its cumulative mass function F(x), the mass of [0, x],
once: the piece starts, the mass left of each piece, and F on each piece as
integer coefficients over one denominator.  eval(a, b) is F(b) - F(a), with
F found by bisecting the piece starts; measure sums F(hi) - F(lo) over a
region's spans; cut bisects the cumulative masses for the piece its answer
lies on; portion_masses reads F at many sorted points in one merge, which
is how an equity table is built.  Sums of F values are kept as unreduced
integer pairs and reduced once, into one Fraction.

Integration and cutting stay in exact rationals whenever the answer is
rational; the only escape hatch is a cut through a linear piece whose
quadratic has an irrational root, which is bisected to a tolerance and
flagged as inexact.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from fairslice.intervals import Interval, IntervalSet, frac

BISECT_TOLERANCE = Fraction(1, 10**12)


class ZeroMassError(ValueError):
    """Raised when a density with zero total mass is asked to normalise."""


class UnsupportedValuationClass(ValueError):
    """The command needs a valuation family the scenario does not provide."""


class TargetUnreachable(ValueError):
    """Raised by cut when the requested mass exceeds what lies to the right."""


@dataclass(frozen=True)
class Piece:
    """One density piece: slope*x + intercept on the interval, zero outside."""

    interval: Interval
    slope: Fraction
    intercept: Fraction

    def density_at(self, x):
        return self.slope * x + self.intercept

    def mass(self, a, b):
        """Exact integral of the density over [a,b], a part of the piece."""
        mass = self.intercept * (b - a)
        if self.slope:
            mass += self.slope * (b * b - a * a) / 2
        return mass

    def is_zero(self):
        return self.slope == 0 and self.intercept == 0


@dataclass(frozen=True)
class CutResult:
    """A cut point plus whether it is exact or a bisection approximation."""

    point: Fraction
    exact: bool


@dataclass(frozen=True, slots=True)
class Valuation:
    """A normalised piecewise affine measure on the cake.

    Built from raw (interval-like, slope, intercept) triples, usually through
    the classmethods: pieces with a negative density or overlapping another
    are rejected, and the rest are scaled so the total mass is exactly 1.
    Raises ZeroMassError when there is nothing to scale.
    """

    pieces: tuple
    # Piece k starts at _starts[k]; _below[k] is the mass left of it and
    # _below[-1] the total; _poly[k] holds integers (alpha, beta, delta, q)
    # with F(p/r) = (alpha p^2 + beta p r + delta r^2) / (q r^2) on piece k,
    # where F(x) is the mass of [0, x].  _support is the region of the pieces,
    # built on the first call to support(): most valuations are never asked.
    _starts: tuple = field(compare=False, repr=False)
    _below: tuple = field(compare=False, repr=False)
    _poly: tuple = field(compare=False, repr=False)
    _support: IntervalSet = field(compare=False, repr=False)

    def __init__(self, raw_pieces):
        pieces = []
        for interval, slope, intercept in raw_pieces:
            if not isinstance(interval, Interval):
                interval = Interval(*interval)
            piece = Piece(interval, frac(slope), frac(intercept))
            # An affine density is non-negative on an interval iff it is at both ends.
            if piece.density_at(interval.lo) < 0 or piece.density_at(interval.hi) < 0:
                raise ValueError("density negative on %r" % (interval,))
            if not piece.is_zero():
                pieces.append(piece)
        pieces.sort(key=lambda p: (p.interval.lo, p.interval.hi))
        for prev, nxt in zip(pieces, pieces[1:]):
            if nxt.interval.lo < prev.interval.hi:
                raise ValueError("pieces overlap: %r and %r" % (prev.interval, nxt.interval))
        # A zero-length piece carries no mass.  It is dropped only after the
        # overlap check, so a point inside another piece is still rejected;
        # one at another piece's left end sorts first, so it is not, in any
        # input order.
        pieces = [p for p in pieces if p.interval.lo < p.interval.hi]
        below = [Fraction(0)]
        for p in pieces:
            below.append(below[-1] + p.mass(*p.interval))
        total = below[-1]
        if total == 0:
            raise ZeroMassError("density has zero total mass")
        scaled = tuple(Piece(p.interval, p.slope / total, p.intercept / total) for p in pieces)
        below = tuple(b / total for b in below)
        object.__setattr__(self, "pieces", scaled)
        object.__setattr__(self, "_starts", tuple(p.interval.lo for p in scaled))
        object.__setattr__(self, "_below", below)
        object.__setattr__(self, "_poly", tuple(map(_poly, scaled, below)))
        object.__setattr__(self, "_support", None)

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def normalize(cls, raw_pieces):
        """Scale raw (interval-like, slope, intercept) triples to total mass 1."""
        return cls(raw_pieces)

    @classmethod
    def uniform_on(cls, region):
        """Uniform over a region: indicator scaled by 1/length."""
        if not isinstance(region, IntervalSet):
            region = IntervalSet(region)
        return cls([(iv, 0, 1) for iv in region])

    @classmethod
    def piecewise_constant(cls, steps):
        """From (interval-like, value) steps; values are scaled to mass 1."""
        return cls([(iv, 0, value) for iv, value in steps])

    @classmethod
    def piecewise_linear(cls, specs):
        """From (interval-like, slope, intercept) triples, scaled to mass 1."""
        return cls(specs)

    @classmethod
    def uniform(cls):
        """Uniform over the whole cake."""
        return cls.uniform_on(IntervalSet.unit())

    # ------------------------------------------------------------------
    # structure

    def support(self):
        """Region of positive density (up to measure zero)."""
        if self._support is None:
            object.__setattr__(self, "_support", IntervalSet(p.interval for p in self.pieces))
        return self._support

    def is_piecewise_constant(self):
        return all(p.slope == 0 for p in self.pieces)

    def is_piecewise_uniform(self):
        if not self.is_piecewise_constant():
            return False
        values = {p.intercept for p in self.pieces}
        return len(values) <= 1

    # ------------------------------------------------------------------
    # measure

    def _mass_below(self, x):
        # F(x), the mass of [0, x], as an unreduced integer pair.
        k = bisect_right(self._starts, x) - 1
        if k < 0:
            return 0, 1
        if x > self.pieces[k].interval.hi:
            below = self._below[k + 1]
            return below.numerator, below.denominator
        return _at(self._poly[k], x)

    def eval(self, a, b):
        """Exact mass of [a,b], as F(b) - F(a).

        >>> v = Valuation.uniform_on([(0, "0.6")])
        >>> v.eval(Fraction(1, 2), 1)
        Fraction(1, 6)
        """
        a = frac(a)
        b = frac(b)
        if b < a:
            raise ValueError("need a <= b")
        return _mass_of([(self._mass_below(a), self._mass_below(b))])

    def measure(self, region):
        """Exact mass of an IntervalSet."""
        return _mass_of((self._mass_below(iv.lo), self._mass_below(iv.hi)) for iv in region)

    def portion_masses(self, points, portions):
        """Exact mass of each portion, all read off one sweep of the points.

        points is an ascending sequence of Fractions, and a portion is a
        list of (i, j) index pairs, each the span [points[i], points[j]].
        One merge of the points with the pieces gives F at every point.
        """
        below = []
        done = 0
        for piece, mass, poly in zip(self.pieces, self._below, self._poly):
            start = bisect_left(points, piece.interval.lo, done)
            end = bisect_right(points, piece.interval.hi, start)
            below += [(mass.numerator, mass.denominator)] * (start - done)
            below += [_at(poly, x) for x in points[start:end]]
            done = end
        below += [(1, 1)] * (len(points) - done)
        return [_mass_of([(below[i], below[j]) for i, j in spans]) for spans in portions]

    # ------------------------------------------------------------------
    # cutting

    def cut(self, a, target):
        """Smallest b with mass of [a,b] equal to target.

        The smallest-b rule pins the answer down when the density vanishes on
        part of the cake: a cut never stretches across a zero-density gap it
        does not need.  Constant pieces cut exactly; a linear piece cuts
        exactly when its quadratic root is rational and otherwise bisects to
        BISECT_TOLERANCE with exact=False on the result.

        >>> v = Valuation.uniform_on([(0, "0.1"), ("0.4", 1)])
        >>> v.cut(0, Fraction(1, 7)).point
        Fraction(1, 10)
        """
        a = frac(a)
        target = frac(target)
        if not 0 <= a <= 1:
            raise ValueError("cut start must lie in [0,1]")
        if target < 0:
            raise ValueError("cut target must be non-negative")
        if target == 0:
            return CutResult(a, True)
        # The cut lies on the first piece whose right end reaches the goal.
        goal = Fraction(*self._mass_below(a)) + target
        k = bisect_left(self._below, goal, 1) - 1
        if k == len(self.pieces):
            raise TargetUnreachable(
                "requested mass %s exceeds mass %s right of %s" % (target, self.eval(a, 1), a)
            )
        piece = self.pieces[k]
        if a >= piece.interval.lo:
            return _solve_piece(piece, a, piece.interval.hi, target)
        return _solve_piece(piece, piece.interval.lo, piece.interval.hi, goal - self._below[k])


def _poly(piece, below):
    # F on the piece is (slope/2) x^2 + intercept x + const; put the three
    # coefficients over one denominator q.
    half = piece.slope / 2
    lo = piece.interval.lo
    coefficients = (half, piece.intercept, below - (half * lo + piece.intercept) * lo)
    q = math.lcm(*(c.denominator for c in coefficients))
    return tuple(c.numerator * (q // c.denominator) for c in coefficients) + (q,)


def _at(poly, x):
    # F(p/r) = (alpha p^2 + beta p r + delta r^2) / (q r^2), unreduced.
    alpha, beta, delta, q = poly
    p, r = x.numerator, x.denominator
    return (alpha * p + beta * r) * p + delta * r * r, q * r * r


def _mass_of(spans):
    # Sum F(hi) - F(lo) over spans of integer pairs by cross-multiplying;
    # the Fraction reduces the total once.
    num, den = 0, 1
    for (nl, dl), (nh, dh) in spans:
        d = dl * dh
        num, den = num * d + (nh * dl - nl * dh) * den, den * d
    return Fraction(num, den)


def _solve_piece(piece, lo, hi, remaining):
    # Find the smallest b in [lo,hi] with integral lo..b of the density equal
    # to remaining.  The integral is monotone here, so the root is unique.
    if piece.slope == 0:
        return CutResult(lo + remaining / piece.intercept, True)
    # (slope/2) b^2 + intercept b - C = 0 with C fixed by the left endpoint.
    half = piece.slope / 2
    c = half * lo * lo + piece.intercept * lo + remaining
    disc = piece.intercept * piece.intercept + 4 * half * c
    root = _rational_sqrt(disc)
    if root is not None:
        for candidate in ((-piece.intercept + root) / piece.slope, (-piece.intercept - root) / piece.slope):
            if lo <= candidate <= hi and half * candidate * candidate + piece.intercept * candidate - c == 0:
                return CutResult(candidate, True)
    return _bisect_piece(piece, lo, hi, remaining)


def _rational_sqrt(x):
    """Exact square root of a non-negative Fraction, or None if irrational."""
    if x < 0:
        return None
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def _bisect_piece(piece, lo, hi, remaining):
    # Exact-arithmetic bisection on the mass function; midpoints are dyadic
    # so this is deterministic across platforms.
    left, right = lo, hi
    while right - left > BISECT_TOLERANCE:
        mid = (left + right) / 2
        if piece.mass(lo, mid) < remaining:
            left = mid
        else:
            right = mid
    return CutResult(right, False)
