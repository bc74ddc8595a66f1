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

Integration and cutting stay in exact rationals whenever the answer is
rational; the only escape hatch is a cut through a linear piece whose
quadratic has an irrational root, which is bisected to a tolerance and
flagged as inexact.
"""

import math
from dataclasses import dataclass
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

    def mass(self, lo=None, hi=None):
        """Exact integral of the density over [lo,hi] clipped to the piece."""
        a = self.interval.lo if lo is None else max(lo, self.interval.lo)
        b = self.interval.hi if hi is None else min(hi, self.interval.hi)
        if b <= a:
            return Fraction(0)
        return self.slope * (b * b - a * a) / 2 + self.intercept * (b - a)

    def is_zero(self):
        return self.slope == 0 and self.intercept == 0


def _make_piece(interval, slope, intercept):
    slope = frac(slope)
    intercept = frac(intercept)
    piece = Piece(interval, slope, intercept)
    # An affine density is non-negative on an interval iff it is at both ends.
    if piece.density_at(interval.lo) < 0 or piece.density_at(interval.hi) < 0:
        raise ValueError("density negative on %r" % (interval,))
    return piece


@dataclass(frozen=True)
class CutResult:
    """A cut point plus whether it is exact or a bisection approximation."""

    point: Fraction
    exact: bool


@dataclass(frozen=True, slots=True)
class Valuation:
    """A normalised piecewise affine measure on the cake.

    Use the classmethods to build one; the constructor insists on total mass
    exactly 1 and rejects overlapping or negative pieces.
    """

    pieces: tuple

    def __init__(self, pieces):
        cleaned = tuple(p for p in sorted(pieces, key=lambda p: p.interval.lo) if not p.is_zero())
        for prev, nxt in zip(cleaned, cleaned[1:]):
            if nxt.interval.lo < prev.interval.hi:
                raise ValueError("pieces overlap: %r and %r" % (prev.interval, nxt.interval))
        total = sum((p.mass() for p in cleaned), Fraction(0))
        if total != 1:
            raise ValueError("total mass is %s, not 1; use Valuation.normalize" % total)
        object.__setattr__(self, "pieces", cleaned)

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def normalize(cls, raw_pieces):
        """Scale a raw piece list so total mass is exactly 1.

        raw_pieces: iterable of (interval-like, slope, intercept).
        Raises ZeroMassError when there is nothing to scale.
        """
        pieces = []
        for spec in raw_pieces:
            interval, slope, intercept = spec
            if not isinstance(interval, Interval):
                interval = Interval(*interval)
            pieces.append(_make_piece(interval, slope, intercept))
        total = sum((p.mass() for p in pieces), Fraction(0))
        if total == 0:
            raise ZeroMassError("density has zero total mass")
        scaled = [Piece(p.interval, p.slope / total, p.intercept / total) for p in pieces]
        return cls(scaled)

    @classmethod
    def uniform_on(cls, region):
        """Uniform over a region: indicator scaled by 1/length."""
        if not isinstance(region, IntervalSet):
            region = IntervalSet(region)
        return cls.normalize([(iv, 0, 1) for iv in region])

    @classmethod
    def piecewise_constant(cls, steps):
        """From (interval-like, value) steps; values are scaled to mass 1."""
        return cls.normalize([(iv, 0, value) for iv, value in steps])

    @classmethod
    def piecewise_linear(cls, specs):
        """From (interval-like, slope, intercept) triples, scaled to mass 1."""
        return cls.normalize(list(specs))

    @classmethod
    def uniform(cls):
        """Uniform over the whole cake."""
        return cls.uniform_on(IntervalSet.unit())

    # ------------------------------------------------------------------
    # structure

    def support(self):
        """Region of positive density (up to measure zero)."""
        return IntervalSet(p.interval for p in self.pieces)

    def is_piecewise_constant(self):
        return all(p.slope == 0 for p in self.pieces)

    def is_piecewise_uniform(self):
        if not self.is_piecewise_constant():
            return False
        values = {p.intercept for p in self.pieces}
        return len(values) <= 1

    # ------------------------------------------------------------------
    # measure

    def eval(self, a, b):
        """Exact mass of [a,b].

        >>> v = Valuation.uniform_on([(0, "0.6")])
        >>> v.eval(Fraction(1, 2), 1)
        Fraction(1, 6)
        """
        a = frac(a)
        b = frac(b)
        if b < a:
            raise ValueError("need a <= b")
        return sum((p.mass(a, b) for p in self.pieces), Fraction(0))

    def measure(self, region):
        """Exact mass of an IntervalSet."""
        total = Fraction(0)
        for iv in region:
            total += self.eval(iv.lo, iv.hi)
        return total

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
        remaining = target
        for piece in self.pieces:
            lo = max(a, piece.interval.lo)
            hi = piece.interval.hi
            if hi <= lo:
                continue
            mass = piece.mass(lo, hi)
            if mass < remaining:
                remaining -= mass
                continue
            return _solve_piece(piece, lo, hi, remaining)
        raise TargetUnreachable(
            "requested mass %s exceeds mass %s right of %s" % (target, self.eval(a, 1), a)
        )


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
