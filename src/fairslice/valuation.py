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
once and in integers: the piece ends over one scale D, the mass left of
each piece over one scale M, and F on each piece as integer coefficients
over M.  A query point p/r falls on the piece whose start is the last one
at or below floor(p*D/r), and F(p/r) comes out as an unreduced integer
pair.  eval(a, b) is F(b) - F(a), reduced into one Fraction.  masses_at
reads F at many sorted points over one scale S in one merge, as integers
over M S^2, which is how an equity table is built and `optimal` rates
its segments; measure reads a region's integer ends, over the region's
own scale, in one such sweep.

Every constructor, the raw-piece one included, ends in the integer
constructor that `from_integers` exposes: piece ends over one scale and
density coefficients over one unit, in input order.  It checks the
pieces (their ranges as an Interval does) and builds the integer arrays
in canonical form, the scale the lcm of the piece ends' denominators and
the coefficients with no common factor, so equal valuations hold equal
arrays.  `uniform_on` hands it a region's integer ends as they are and
keeps the region as the support; otherwise the Piece tuple and the
support are built from the arrays on first read, the support by the
integer span merge of `intervals`.  The raw-piece constructor, eval and
cut read their numbers as integer pairs through `intervals._ratio`.

cut adds its target to F(a), finds the piece where F reaches that goal by
bisecting the integer masses for ceil(goal*M), and solves F(x) = goal there
as one integer equation A x^2 + B x + C = 0.  A constant piece (A = 0) and
a linear piece whose discriminant is a square give the exact rational
root; only an irrational root is bisected, in integers, to
BISECT_TOLERANCE and flagged as inexact.  Every other answer is an exact
Fraction.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from fairslice.intervals import (
    Interval, IntervalSet, _as_region, _check_span, _merged, _ratio, _scaled_pairs, _span,
    _spans_region, _text,
)

BISECT_TOLERANCE = Fraction(1, 10**12)

_ZERO, _ONE = Fraction(0), Fraction(1)


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


@dataclass(frozen=True, slots=True)
class CutResult:
    """A cut point plus whether it is exact or a bisection approximation."""

    point: Fraction
    exact: bool


def _build(valuation, los, his, scale, slopes, intercepts):
    # The one constructor: piece k is [los[k], his[k]] / scale with density
    # (slopes[k] x + intercepts[k]) / unit.  Each piece is checked in input
    # order; an affine density is non-negative on a piece iff it is at both
    # ends.  Pieces of zero density are dropped, and the rest sort as
    # integers.
    kept = []
    for lo, hi, s, c in zip(los, his, slopes, intercepts):
        _check_span(lo, hi, scale)
        if s * lo + c * scale < 0 or s * hi + c * scale < 0:
            raise ValueError("density negative on %s" % _span(lo, hi, scale))
        if s or c:
            kept.append((lo, hi, s, c))
    kept.sort()
    # A zero-length piece carries no mass.  It is dropped only after the
    # overlap check, so a point inside another piece is still rejected;
    # one at another piece's left end sorts first, so it is not, in any
    # input order.  A piece of positive length and non-zero density has
    # positive mass, so what is left has mass exactly when it is not empty.
    pieces = []
    prev_lo = prev_hi = 0
    for piece in kept:
        lo, hi = piece[0], piece[1]
        if lo < prev_hi:
            raise ValueError(
                "pieces overlap: %s and %s" % (_span(prev_lo, prev_hi, scale), _span(lo, hi, scale))
            )
        prev_lo, prev_hi = lo, hi
        if lo < hi:
            pieces.append(piece)
    if not pieces:
        raise ZeroMassError("density has zero total mass")
    # The canonical form: ends over the lcm of their denominators, and
    # coefficients with no common factor.
    g = math.gcd(scale, *[x for piece in pieces for x in piece[:2]])
    h = math.gcd(*[x for piece in pieces for x in piece[2:]])
    if g > 1 or h > 1:
        scale //= g
        pieces = [(lo // g, hi // g, s // h, c // h) for lo, hi, s, c in pieces]
    # With slope s and intercept c over some unit, a piece [lo, hi] / scale
    # has mass (hi - lo) (2 scale c + s (hi + lo)) / (2 scale^2 unit).  The
    # masses keep only the numerators, so their sum M is the scale that
    # normalises them.  Scaled to mass 1 the density is (2 scale^2 / M)
    # (s x + c); F on a piece is its left mass plus the integral of that
    # from lo / scale.
    square, twice = scale * scale, 2 * scale
    below, masses, poly = 0, [0], []
    for lo, hi, s, c in pieces:
        poly.append((square * s, twice * scale * c, below - lo * (s * lo + twice * c)))
        below += (hi - lo) * (twice * c + s * (hi + lo))
        masses.append(below)
    object.__setattr__(valuation, "_los", tuple([piece[0] for piece in pieces]))
    object.__setattr__(valuation, "_his", tuple([piece[1] for piece in pieces]))
    object.__setattr__(valuation, "_scale", scale)
    object.__setattr__(valuation, "_masses", tuple(masses))
    object.__setattr__(valuation, "_poly", tuple(poly))
    object.__setattr__(valuation, "_pieces", None)
    object.__setattr__(valuation, "_support", None)


@dataclass(frozen=True, slots=True)
class Valuation:
    """A normalised piecewise affine measure on the cake.

    Built from raw (interval-like, slope, intercept) triples, usually through
    the classmethods: pieces with a negative density or overlapping another
    are rejected, and the rest are scaled so the total mass is exactly 1.
    Raises ZeroMassError when there is nothing to scale.  Valuations
    compare and hash by their canonical integer arrays, so equal pieces
    hold equal arrays, and print by their pieces.
    """

    # Piece k is [_los[k], _his[k]] / _scale.  _masses[k] / _masses[-1] is
    # the mass left of piece k, so _masses[-1] is the scale M of every mass.
    # _poly[k] holds integers (alpha, beta, delta) with
    # F(p/r) = (alpha p^2 + beta p r + delta r^2) / (M r^2) on piece k,
    # where F(x) is the mass of [0, x].  _pieces and _support are built on
    # first read.  _masses follows from the other arrays, so it is not
    # compared.
    _los: tuple
    _his: tuple
    _scale: int
    _masses: tuple = field(compare=False)
    _poly: tuple
    _pieces: tuple = field(compare=False)
    _support: IntervalSet = field(compare=False)

    def __init__(self, raw_pieces):
        pairs, coefficients = [], []
        for interval, slope, intercept in raw_pieces:
            lo, hi = interval
            pairs += (_ratio(lo), _ratio(hi))
            coefficients += (_ratio(slope), _ratio(intercept))
        ends, scale = _scaled_pairs(pairs)
        units, _ = _scaled_pairs(coefficients)
        _build(self, ends[::2], ends[1::2], scale, units[::2], units[1::2])

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_integers(cls, los, his, scale, slopes, intercepts):
        """From integer pieces: piece k is [los[k], his[k]] / scale with density
        (slopes[k] x + intercepts[k]) / unit, for any positive unit; scaled to
        mass 1.  Checks and errors are those of the raw-piece constructor.

        >>> Valuation.from_integers([0], [1], 2, [0], [1]) == Valuation.uniform_on([(0, "1/2")])
        True
        """
        valuation = object.__new__(cls)
        _build(valuation, los, his, scale, slopes, intercepts)
        return valuation

    @classmethod
    def uniform_on(cls, region):
        """Uniform over a region: indicator scaled by 1/length."""
        region = _as_region(region)
        ends, n = region._ends, len(region)
        valuation = cls.from_integers(ends[::2], ends[1::2], region._scale, [0] * n, [1] * n)
        object.__setattr__(valuation, "_support", region)
        return valuation

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

    @property
    def pieces(self):
        """The density pieces in order, as `Piece`s of slope and intercept."""
        if self._pieces is None:
            # Scaled to mass 1 the density on a piece is 2 alpha x / M + beta / M.
            scale, total = self._scale, self._masses[-1]
            pieces = tuple(
                Piece(
                    Interval(Fraction(lo, scale), Fraction(hi, scale)),
                    Fraction(2 * alpha, total) if alpha else _ZERO,
                    Fraction(beta, total) if beta else _ZERO,
                )
                for lo, hi, (alpha, beta, _) in zip(self._los, self._his, self._poly)
            )
            object.__setattr__(self, "_pieces", pieces)
        return self._pieces

    def piece_ends(self):
        """Every piece's two ends as integers over one scale: (ends, scale).

        >>> Valuation.uniform_on([(0, "1/4"), ("1/2", 1)]).piece_ends()
        ((0, 2, 1, 4), 4)
        """
        return self._los + self._his, self._scale

    def support(self):
        """Region of positive density (up to measure zero)."""
        if self._support is None:
            ends = [x for span in zip(self._los, self._his) for x in span]
            region = _spans_region(_merged(ends, self._scale), self._scale)
            object.__setattr__(self, "_support", region)
        return self._support

    def __repr__(self):
        return "%s(pieces=%r)" % (type(self).__qualname__, self.pieces)

    # Slope 0 is alpha 0, and equal intercepts are equal betas.
    def is_piecewise_constant(self):
        return not any(alpha for alpha, _, _ in self._poly)

    def is_piecewise_uniform(self):
        return self.is_piecewise_constant() and len({beta for _, beta, _ in self._poly}) == 1

    # ------------------------------------------------------------------
    # measure

    def _mass_below(self, p, r):
        # F(p/r), the mass of [0, p/r], as an unreduced integer pair.  On a
        # piece it is (alpha p^2 + beta p r + delta r^2) / (M r^2); on a
        # constant piece alpha is 0 and r cancels once.
        scaled = p * self._scale
        k = bisect_right(self._los, scaled // r) - 1
        if k < 0:
            return 0, 1
        if scaled > self._his[k] * r:
            return self._masses[k + 1], self._masses[-1]
        alpha, beta, delta = self._poly[k]
        total = self._masses[-1]
        if alpha:
            return (alpha * p + beta * r) * p + delta * r * r, total * r * r
        return beta * p + delta * r, total * r

    def eval(self, a, b):
        """Exact mass of [a,b], as F(b) - F(a).

        >>> v = Valuation.uniform_on([(0, "0.6")])
        >>> v.eval(Fraction(1, 2), 1)
        Fraction(1, 6)
        """
        pa, ra = _ratio(a)
        pb, rb = _ratio(b)
        if pb * ra < pa * rb:
            raise ValueError("need a <= b")
        nl, dl = self._mass_below(pa, ra)
        nh, dh = self._mass_below(pb, rb)
        return Fraction(nh * dl - nl * dh, dl * dh)

    def measure(self, region):
        """Exact mass of a region, from one masses_at sweep of its ends."""
        region = _as_region(region)
        below, den = self.masses_at(region._ends, region._scale)
        return Fraction(sum(below[1::2]) - sum(below[::2]), den)

    def masses_at(self, marks, scale):
        """F at many points at once, in integers: (values, denominator).

        marks is an ascending sequence of integers, the points marks[k] /
        scale; F there is values[k] / denominator, where the denominator is
        M * scale**2 for the valuation's mass scale M.  One merge of the
        points with the pieces gives every value; points in one gap share
        one value, so a span inside a gap weighs 0.  This is how an equity
        table is built, a region measured and a segment rated: a segment's
        mass over its length.
        """
        square = scale * scale
        below = []
        done = 0
        for lo, hi, mass, (alpha, beta, delta) in zip(
            self._los, self._his, self._masses, self._poly
        ):
            # Point p / scale lies on [lo, hi] / D iff ceil(lo scale / D) <= p
            # <= floor(hi scale / D).
            start = bisect_left(marks, -(-lo * scale // self._scale), done)
            end = bisect_right(marks, hi * scale // self._scale, start)
            below += [mass * square] * (start - done)
            if alpha:
                below += [(alpha * p + beta * scale) * p + delta * square for p in marks[start:end]]
            else:
                below += [(beta * p + delta * scale) * scale for p in marks[start:end]]
            done = end
        total = self._masses[-1] * square
        below += [total] * (len(marks) - done)
        return below, total

    # ------------------------------------------------------------------
    # cutting

    def cut(self, a, target):
        """Smallest b with mass of [a,b] equal to target.

        The smallest-b rule pins the answer down when the density vanishes on
        part of the cake: a cut never stretches across a zero-density gap it
        does not need.  A constant piece, or a linear piece whose quadratic
        has a rational root, cuts exactly.  An irrational root is bisected
        to within BISECT_TOLERANCE above it, with exact=False on the result.

        >>> v = Valuation.uniform_on([(0, "0.1"), ("0.4", 1)])
        >>> v.cut(0, Fraction(1, 7)).point
        Fraction(1, 10)
        >>> ramp = Valuation.piecewise_linear([((0, 1), 2, 0)])  # F(x) = x^2
        >>> ramp.cut(0, Fraction(1, 4))
        CutResult(point=Fraction(1, 2), exact=True)
        >>> ramp.cut(0, Fraction(1, 2))
        CutResult(point=Fraction(388736063997, 549755813888), exact=False)
        """
        p, r = _ratio(a)
        tn, td = _ratio(target)
        if not 0 <= p <= r:
            raise ValueError("cut start must lie in [0,1]")
        if tn < 0:
            raise ValueError("cut target must be non-negative")
        if tn == 0:
            return CutResult(Fraction(p, r), True)
        # The goal F(a) + target is gn / gd.  The cut lies on the first piece
        # whose right end reaches it: masses[k + 1] >= goal * M, an integer
        # inequality that holds iff masses[k + 1] >= ceil(goal * M).
        nl, dl = self._mass_below(p, r)
        gn, gd = nl * td + tn * dl, dl * td
        total = self._masses[-1]
        k = bisect_left(self._masses, -(-gn * total // gd), 1) - 1
        if k == len(self._los):
            raise TargetUnreachable(
                "requested mass %s exceeds mass %s right of %s"
                % (_text(tn, td), self.eval(a, 1), _text(p, r))
            )
        # On piece k, F(x) = goal is A x^2 + B x + C = 0 in integers.  F
        # rises there, so its root in the piece is the one where the
        # derivative 2 A x + B is non-negative.
        alpha, beta, delta = self._poly[k]
        A, B, C = alpha * gd, beta * gd, delta * gd - gn * total
        if not A:
            return CutResult(Fraction(-C, B), True)
        disc = B * B - 4 * A * C
        root = math.isqrt(disc)
        if root * root == disc:
            return CutResult(Fraction(root - B, 2 * A), True)
        # Bisect [lo, hi] / d, from the later of a and the piece start to the
        # piece end, with dyadic midpoints: keep the right half while F is
        # below the goal at the midpoint.
        if p * self._scale >= self._los[k] * r:
            lo, hi, d = p * self._scale, self._his[k] * r, r * self._scale
        else:
            lo, hi, d = self._los[k], self._his[k], self._scale
        eps_n, eps_d = BISECT_TOLERANCE.numerator, BISECT_TOLERANCE.denominator
        while (hi - lo) * eps_d > eps_n * d:
            mid = lo + hi
            lo, hi, d = 2 * lo, 2 * hi, 2 * d
            if (A * mid + B * d) * mid + C * d * d < 0:
                lo = mid
            else:
                hi = mid
        return CutResult(Fraction(hi, d), False)
