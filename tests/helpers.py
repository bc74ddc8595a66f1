"""Shared strategies and independent oracles for the test suite.

Oracles here are deliberately dumber than the library: grid scans, exhaustive
enumeration, midpoint sums.  They exist so the fast implementations have
something independent to disagree with.
"""

import math
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from fairslice.audit import Allocation
from fairslice.equilibrium import (
    EquilibriumReport,
    LengthOrderViolation,
    NotReduced,
    NotWellBehaved,
    ReducedProfile,
    UnallocatedValuedCake,
    best_response,
    is_equilibrium,
    reduce_profile,
)
from fairslice.intervals import Interval, IntervalSet, _atom_table, _weight, frac, union_all
from fairslice.optimal import SegmentRateMatrix, Segmentation
from fairslice.oracle import MechanismResult, QueryRecord
from fairslice.simplex import (
    EQUAL,
    GREATER,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    LpSolution,
    lp_solve,
)
from fairslice.uniform import (
    EmptySubset,
    Infeasible,
    Profile,
    ServiceRound,
    UniformPreference,
    _augment,
    _reach,
    length_game,
    min_average_mechanism,
    min_average_subset,
)
from fairslice.valuation import (
    BISECT_TOLERANCE,
    CutResult,
    Piece,
    TargetUnreachable,
    UnsupportedValuationClass,
    Valuation,
    ZeroMassError,
)


def grid_fractions(max_denominator=64):
    """Exact rationals in [0,1] with denominator at most max_denominator."""

    def build(den, num_scale):
        return Fraction(round(num_scale * den), den)

    return st.builds(
        build,
        st.integers(min_value=1, max_value=max_denominator),
        st.floats(min_value=0, max_value=1, allow_nan=False),
    )


def interval_sets(max_intervals=4, max_denominator=64):
    """Canonical IntervalSets with grid endpoints."""

    def build(points):
        pairs = []
        for a, b in points:
            lo, hi = min(a, b), max(a, b)
            pairs.append((lo, hi))
        return IntervalSet(pairs)

    pair = st.tuples(grid_fractions(max_denominator), grid_fractions(max_denominator))
    return st.builds(build, st.lists(pair, min_size=0, max_size=max_intervals))


def nonempty_interval_sets(max_intervals=4, max_denominator=64):
    return interval_sets(max_intervals, max_denominator).filter(lambda s: not s.is_empty())


def uniform_valuations(max_intervals=4, max_denominator=64):
    """Piecewise uniform valuations with grid breakpoints."""
    return nonempty_interval_sets(max_intervals, max_denominator).map(Valuation.uniform_on)


def constant_valuations(max_pieces=4, max_denominator=16, max_value=5):
    """Piecewise constant valuations: random step heights over a random grid."""

    def build(breaks, values):
        points = sorted(set(breaks) | {Fraction(0), Fraction(1)})
        steps = []
        for lo, hi, value in zip(points, points[1:], values):
            if value > 0:
                steps.append(((lo, hi), Fraction(value)))
        if not steps:
            steps = [((Fraction(0), Fraction(1)), Fraction(1))]
        return Valuation.piecewise_constant(steps)

    return st.builds(
        build,
        st.lists(grid_fractions(max_denominator), min_size=0, max_size=max_pieces),
        st.lists(st.integers(min_value=0, max_value=max_value), min_size=max_pieces + 1, max_size=max_pieces + 1),
    )


def linear_valuations(max_pieces=3, max_denominator=16):
    """Piecewise-linear valuations over a random grid, some with zero-length pieces.

    Each grid cell carries a density with a random slope and a random
    non-negative value at its low end, or nothing; a cell may be preceded by
    a zero-length piece at its left end.
    """

    @st.composite
    def build(draw):
        breaks = draw(st.lists(grid_fractions(max_denominator), max_size=max_pieces))
        points = sorted(set(breaks) | {Fraction(0), Fraction(1)})
        specs = []
        for lo, hi in zip(points, points[1:]):
            slope = draw(st.integers(min_value=-3, max_value=3))
            intercept = draw(st.integers(min_value=0, max_value=3)) - min(slope * lo, slope * hi)
            if draw(st.booleans()):
                specs.append(((lo, lo), slope, intercept))
            if draw(st.booleans()):
                specs.append(((lo, hi), slope, intercept))
        if not any(hi > lo and (slope or intercept) for (lo, hi), slope, intercept in specs):
            specs = [((Fraction(0), Fraction(1)), 1, 0)]
        return Valuation.piecewise_linear(specs)

    return build()


def any_valuations():
    """Uniform, piecewise-constant or piecewise-linear valuations."""
    return st.one_of(uniform_valuations(), constant_valuations(), linear_valuations())


def raw_valuation_specs(max_pieces=4, max_denominator=16):
    """Raw (interval, slope, intercept) lists, most of them valid.

    Pieces lie on a random grid as in linear_valuations, zero-length and
    zero-density pieces among them.  Now and then a density dips below zero
    at one end, or a stray constant piece goes in anywhere in the list,
    where it may overlap the others or have its ends swapped.  A list may
    also carry no mass at all.
    """
    point = grid_fractions(max_denominator)

    @st.composite
    def build(draw):
        breaks = draw(st.lists(point, max_size=max_pieces))
        points = sorted(set(breaks) | {Fraction(0), Fraction(1)})
        specs = []
        for lo, hi in zip(points, points[1:]):
            slope = draw(st.sampled_from([0, 0, -3, -1, 1, 2]))
            floor = draw(st.sampled_from([0, 0, 1, 2, 3, 0, 1, -1]))
            intercept = floor - min(slope * lo, slope * hi)
            if draw(st.booleans()):
                specs.append(((lo, lo), slope, intercept))
            if draw(st.booleans()):
                specs.append(((lo, hi), slope, intercept))
        if draw(st.booleans()):
            ends = (draw(point), draw(point))
            if draw(st.integers(min_value=0, max_value=5)):
                ends = tuple(sorted(ends))
            stray = (ends, 0, draw(st.integers(min_value=0, max_value=2)))
            specs.insert(draw(st.integers(min_value=0, max_value=len(specs))), stray)
        return specs

    return build()


def reference_valuation(raw_pieces):
    """A valuation's pieces and cumulative masses, built in two passes.

    The first pass checks each raw piece and scales them all to mass 1; the
    second sorts the scaled pieces, drops those with zero density, checks
    overlaps and sums each scaled piece's mass into the table of masses
    left of each piece.  The library does this in one pass and also drops
    zero-length pieces; otherwise both must keep the same pieces and masses
    and raise the same exceptions.  Returns (pieces, below).
    """
    pieces = []
    for interval, slope, intercept in raw_pieces:
        if not isinstance(interval, Interval):
            interval = Interval(*interval)
        piece = Piece(interval, frac(slope), frac(intercept))
        if piece.density_at(interval.lo) < 0 or piece.density_at(interval.hi) < 0:
            raise ValueError("density negative on %r" % (interval,))
        pieces.append(piece)
    total = sum((reference_mass(p, *p.interval) for p in pieces), Fraction(0))
    if total == 0:
        raise ZeroMassError("density has zero total mass")
    scaled = [Piece(p.interval, p.slope / total, p.intercept / total) for p in pieces]
    ordered = sorted(scaled, key=lambda p: (p.interval.lo, p.interval.hi))
    cleaned = tuple(p for p in ordered if p.slope or p.intercept)
    for prev, nxt in zip(cleaned, cleaned[1:]):
        if nxt.interval.lo < prev.interval.hi:
            raise ValueError("pieces overlap: %r and %r" % (prev.interval, nxt.interval))
    below = [Fraction(0)]
    for p in cleaned:
        below.append(below[-1] + reference_mass(p, *p.interval))
    if below[-1] != 1:
        raise ValueError("total mass is %s, not 1" % below[-1])
    return cleaned, tuple(below)


# A large prime that is also CPython's hash modulus: every Fraction over it
# hashes alike, so code that keys dicts by such points degrades.
LARGE_PRIME = 2**61 - 1


# Denominators far from the grid: large coprime primes, the 2^-40 grid that
# bisected cuts leave, and multiples of the hash modulus 2^61 - 1, on which
# every Fraction hashes alike.
LARGE_DENOMINATORS = {
    "coprime": (1000003, 999983),
    "dyadic": (2**40,),
    "hash-alike": (LARGE_PRIME, 2 * LARGE_PRIME, 3 * LARGE_PRIME),
}


def large_scale_fractions(kind):
    """Rationals in [0,1] over one kind of LARGE_DENOMINATORS, now and then 0, 1/2 or 1."""
    far = st.sampled_from(LARGE_DENOMINATORS[kind]).flatmap(
        lambda d: st.integers(min_value=0, max_value=d).map(lambda k: Fraction(k, d))
    )
    return st.one_of(far, far, st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]))


def large_scale_regions(kind, max_intervals=3):
    """IntervalSets with endpoints from `large_scale_fractions(kind)`."""
    pair = st.tuples(large_scale_fractions(kind), large_scale_fractions(kind)).map(sorted)
    return st.lists(pair, max_size=max_intervals).map(IntervalSet)


def large_scale_valuations(kind):
    """Uniform, constant or linear valuations on a `large_scale_regions(kind)` region.

    Each span of the region is a piece; a constant or linear density is at
    least 1 on it, with a random integer slope.
    """

    @st.composite
    def build(draw):
        region = draw(large_scale_regions(kind).filter(lambda r: not r.is_empty()))
        family = draw(st.sampled_from(["uniform", "constant", "linear"]))
        if family == "uniform":
            return Valuation.uniform_on(region)
        specs = []
        for iv in region:
            slope = draw(st.integers(min_value=-3, max_value=3)) if family == "linear" else 0
            floor = draw(st.integers(min_value=1, max_value=3))
            specs.append((iv, slope, floor - min(slope * iv.lo, slope * iv.hi)))
        return Valuation(specs)

    return build()


def reference_canonical(intervals):
    """Intervals in canonical form by Fraction comparisons: sorted by left
    end, anything overlapping or merely touching merged, zero-length ones
    dropped.  The library merges the same spans as integers over one scale.
    """
    spans = []
    for iv in sorted(intervals, key=lambda iv: iv.lo):
        if spans and iv.lo <= spans[-1].hi:
            if iv.hi > spans[-1].hi:
                spans[-1] = Interval(spans[-1].lo, iv.hi)
        else:
            spans.append(iv)
    return tuple(iv for iv in spans if iv.hi > iv.lo)


def reference_region(items):
    """The canonical Intervals of Intervals or (lo, hi) pairs, each pair
    checked as an Interval in input order."""
    return reference_canonical([iv if isinstance(iv, Interval) else Interval(*iv) for iv in items])


def reference_merge(x, y, keep):
    """The region algebra on canonical Interval tuples by Fraction comparisons.

    Walks both tuples' endpoints in order; past a point, a tuple's count of
    endpoints so far is odd exactly when the walk is inside it, and an edge
    falls wherever keep changes value.  The library walks integers over the
    lcm of the two regions' scales.
    """
    a = [p for iv in x for p in (iv.lo, iv.hi)]
    b = [p for iv in y for p in (iv.lo, iv.hi)]
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
    return tuple(Interval(lo, hi) for lo, hi in zip(edges[::2], edges[1::2]))


def raw_spans(kind, max_spans=5):
    """Spans as IntervalSet takes them, over one kind of LARGE_DENOMINATORS:
    Intervals, Fraction pairs and "p/q" string pairs, unsorted, overlapping,
    touching, zero-length, reversed, and now and then out of [0, 1]."""
    outside = st.sampled_from(LARGE_DENOMINATORS[kind]).flatmap(
        lambda d: st.sampled_from([Fraction(-1, d), 1 + Fraction(1, d)])
    )
    point = st.one_of(large_scale_fractions(kind), large_scale_fractions(kind), outside)

    @st.composite
    def build(draw):
        # Each span runs from a point of a small sorted pool to the same
        # point, the next or the one after, so spans often touch, overlap or
        # have zero length; one span in eight is reversed.
        pool = sorted(draw(st.lists(point, min_size=1, max_size=5)))
        spans = []
        for _ in range(draw(st.integers(min_value=0, max_value=max_spans))):
            k = draw(st.integers(min_value=0, max_value=len(pool) - 1))
            step = draw(st.integers(min_value=0, max_value=2))
            lo, hi = pool[k], pool[min(k + step, len(pool) - 1)]
            if draw(st.integers(min_value=0, max_value=7)) == 0:
                lo, hi = hi, lo
            form = draw(st.sampled_from(["interval", "fractions", "strings"]))
            if form == "interval" and 0 <= lo <= hi <= 1:
                spans.append(Interval(lo, hi))
            elif form == "strings":
                spans.append((str(lo), str(hi)))
            else:
                spans.append((lo, hi))
        return spans

    return build()


def query_points():
    """Points of [0,1] on the grid, off it, and over a large prime denominator."""
    return st.one_of(
        grid_fractions(64),
        st.fractions(min_value=0, max_value=1, max_denominator=10**6),
        st.integers(min_value=0, max_value=LARGE_PRIME).map(lambda k: Fraction(k, LARGE_PRIME)),
    )


def query_regions(max_intervals=4):
    """IntervalSets whose endpoints are query points."""
    pair = st.tuples(query_points(), query_points()).map(sorted)
    return st.lists(pair, max_size=max_intervals).map(IntervalSet)


def uniform_preferences(n, max_intervals=3, max_denominator=12):
    """Lists of n region-valuing agents with grid endpoints."""
    one = nonempty_interval_sets(max_intervals, max_denominator).map(UniformPreference)
    return st.lists(one, min_size=n, max_size=n)


def claim_profiles(n, max_intervals=3, max_denominator=12):
    """Profiles of n claims, with repeated claims and equal-length ties.

    Each claim is a fresh random region, a copy of an earlier claim, or an
    interval as long as an earlier claim placed elsewhere.  Claims ignore
    what their owners want, so they may stray outside it.
    """

    @st.composite
    def build(draw):
        claims = []
        for _ in range(n):
            kind = draw(st.sampled_from(["fresh", "copy", "tie"])) if claims else "fresh"
            if kind == "fresh":
                claims.append(draw(interval_sets(max_intervals, max_denominator)))
                continue
            earlier = draw(st.sampled_from(claims))
            if kind == "copy":
                claims.append(earlier)
            else:
                start = (1 - earlier.length) * draw(grid_fractions(max_denominator))
                claims.append(IntervalSet([(start, start + earlier.length)]))
        return Profile(claims)

    return build()


def fine_claim_profiles(preferences, denominator=720):
    """Profiles of claims on a fine grid, unrelated to the wanted regions' endpoints.

    Each claim is a random region with endpoints k/denominator, a random
    sub-region of its owner's wanted region cut on that grid, a copy of an
    earlier claim, or an interval as long as an earlier claim placed
    elsewhere.  Lengths off the wanted regions' grid put the prefix cuts of
    the candidate family inside atoms.
    """
    point = st.integers(min_value=0, max_value=denominator).map(
        lambda k: Fraction(k, denominator)
    )
    span = st.tuples(point, point).map(sorted)

    @st.composite
    def build(draw):
        claims = []
        for pref in preferences:
            kinds = ["grid", "inside"] + (["copy", "tie"] if claims else [])
            kind = draw(st.sampled_from(kinds))
            if kind == "grid":
                claims.append(IntervalSet(draw(st.lists(span, max_size=3))))
            elif kind == "inside":
                cuts = []
                for iv in pref.support():
                    a, b = draw(span)
                    cuts.append((iv.lo + iv.length * a, iv.lo + iv.length * b))
                claims.append(IntervalSet(cuts))
            elif kind == "copy":
                claims.append(draw(st.sampled_from(claims)))
            else:
                earlier = draw(st.sampled_from(claims))
                start = (1 - earlier.length) * draw(point)
                claims.append(IntervalSet([(start, start + earlier.length)]))
        return Profile(claims)

    return build()


def full_profiles(preferences, cuts=(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))):
    """Reduced, well behaved profiles that claim all of the wanted cake.

    The wanted cake is cut at every endpoint of every wanted region.  Each
    piece goes whole to one agent who wants it, or is cut at one of `cuts`
    of its length and split between two such agents.
    """
    supports = [p.support() for p in preferences]
    marks = sorted({x for s in supports for iv in s for x in iv})
    pieces = [
        (lo, hi, [i for i, s in enumerate(supports) if s.overlaps(IntervalSet([(lo, hi)]))])
        for lo, hi in zip(marks, marks[1:])
    ]

    @st.composite
    def build(draw):
        claims = [[] for _ in preferences]
        for lo, hi, owners in pieces:
            if owners:
                left, right = draw(st.sampled_from(owners)), draw(st.sampled_from(owners))
                cut = lo + (hi - lo) * draw(st.sampled_from(cuts))
                claims[left].append((lo, cut))
                claims[right].append((cut, hi))
        return Profile([IntervalSet(c) for c in claims])

    return build()


def random_uniform_instance(rng, n, denominator=12, max_intervals=3):
    """Seeded plain-random counterpart of uniform_preferences."""
    prefs = []
    while len(prefs) < n:
        spans = []
        for _ in range(rng.randint(1, max_intervals)):
            a = Fraction(rng.randint(0, denominator), denominator)
            b = Fraction(rng.randint(0, denominator), denominator)
            spans.append((min(a, b), max(a, b)))
        region = IntervalSet(spans)
        if not region.is_empty():
            prefs.append(UniformPreference(region))
    return prefs


def random_subregion(rng, region, denominator=720):
    """A random sub-region of `region`, cut on a fine grid unrelated to its endpoints."""
    spans = []
    for iv in region:
        lo, hi = iv.lo, iv.hi
        a = lo + (hi - lo) * Fraction(rng.randint(0, denominator), denominator)
        b = lo + (hi - lo) * Fraction(rng.randint(0, denominator), denominator)
        if rng.random() < 0.8:
            spans.append((min(a, b), max(a, b)))
    return IntervalSet(spans)


def random_constant_instance(rng, n):
    """Seeded piecewise-constant agents, sized to keep brute force feasible.

    All breakpoints sit on one grid, so the joint segmentation has at most
    `denominator` segments and enumerating every whole-segment assignment
    stays cheap for the agent counts used here.
    """
    if n >= 4:
        cuts, denominator = 2, 4
    elif n == 3:
        cuts, denominator = 4, 8
    else:
        cuts, denominator = 4, rng.choice([8, 16, 32, 64])
    agents = []
    while len(agents) < n:
        points = {Fraction(0), Fraction(1)}
        for _ in range(rng.randint(1, cuts)):
            points.add(Fraction(rng.randint(0, denominator), denominator))
        breaks = sorted(points)
        steps = []
        for lo, hi in zip(breaks, breaks[1:]):
            value = rng.randint(0, 3)
            if value > 0:
                steps.append(((lo, hi), Fraction(value)))
        if steps:
            agents.append(Valuation.piecewise_constant(steps))
    return agents


def reference_segment(valuations):
    """Every piece end and every crossing of two pieces' densities, all pairs tried."""
    marks = {Fraction(0), Fraction(1)}
    for v in valuations:
        for piece in v.pieces:
            marks.add(piece.interval.lo)
            marks.add(piece.interval.hi)
    for a, b in combinations(valuations, 2):
        for p in a.pieces:
            for q in b.pieces:
                if p.slope == q.slope:
                    continue
                x = (q.intercept - p.intercept) / (p.slope - q.slope)
                if max(p.interval.lo, q.interval.lo) < x < min(p.interval.hi, q.interval.hi):
                    marks.add(x)
    return Segmentation(tuple(sorted(marks)))


def reference_segment_rates(valuations):
    """The rate matrix by scanning every piece for each segment.

    The library walks each valuation's sorted pieces against the segments
    once; this scan finds each segment's piece afresh and takes the density
    at the segment's midpoint.
    """
    seg = reference_segment(valuations)
    rates = []
    for v in valuations:
        row = []
        for lo, hi in seg.segments():
            mid = (lo + hi) / 2
            piece = next(
                (p for p in v.pieces if p.interval.lo <= lo and hi <= p.interval.hi),
                None,
            )
            if piece is None:
                row.append(Fraction(0))
            elif piece.slope != 0:
                raise UnsupportedValuationClass(
                    "density varies inside a segment; rates undefined"
                )
            else:
                row.append(piece.density_at(mid))
        rates.append(tuple(row))
    return SegmentRateMatrix(seg, tuple(rates))


def reference_utilitarian_optimal(valuations):
    """Each segment to a densest agent at its midpoint, summing every piece there."""
    seg = reference_segment(valuations)
    portions = [[] for _ in valuations]
    for lo, hi in seg.segments():
        mid = (lo + hi) / 2
        densities = [
            sum((p.density_at(mid) for p in v.pieces if p.interval.lo <= mid <= p.interval.hi), Fraction(0))
            for v in valuations
        ]
        winner = max(range(len(valuations)), key=lambda i: (densities[i], -i))
        portions[winner].append((lo, hi))
    return Allocation(portions)


def assignment_optimum(valuations):
    """Exhaustive utilitarian optimum over whole-segment assignments.

    Tries every way of handing each segment to one agent; with constant
    per-segment rates no allocation can beat the best assignment, so this
    is a complete (if slow) oracle for the unconstrained optimum.
    """
    import itertools

    from fairslice.optimal import segment_rates

    srm = segment_rates(valuations)
    lengths = [hi - lo for lo, hi in srm.segmentation.segments()]
    n = len(srm.rates)
    best = Fraction(0)
    for owners in itertools.product(range(n), repeat=len(lengths)):
        total = sum(
            (srm.rates[i][s] * lengths[s] for s, i in enumerate(owners)),
            Fraction(0),
        )
        best = max(best, total)
    return best


def midpoint_mass(valuation, a, b):
    """Independent integral oracle: midpoint rule per clipped piece.

    Exact for affine densities, which is all the library supports, so this
    must agree with Valuation.eval to the last digit.
    """
    total = Fraction(0)
    for piece in valuation.pieces:
        lo = max(a, piece.interval.lo)
        hi = min(b, piece.interval.hi)
        if hi > lo:
            mid = (lo + hi) / 2
            total += piece.density_at(mid) * (hi - lo)
    return total


def reference_mass(piece, a, b):
    """Integral of one piece's density over [a,b] clipped to the piece."""
    lo = max(a, piece.interval.lo)
    hi = min(b, piece.interval.hi)
    if hi <= lo:
        return Fraction(0)
    return piece.slope * (hi * hi - lo * lo) / 2 + piece.intercept * (hi - lo)


def reference_eval(valuation, a, b):
    """Mass of [a,b] summed over every piece.

    The library reads it off the cumulative mass as F(b) - F(a) instead.
    """
    return sum((reference_mass(p, a, b) for p in valuation.pieces), Fraction(0))


def reference_measure(valuation, region):
    """Mass of a region, one reference_eval per span."""
    return sum((reference_eval(valuation, iv.lo, iv.hi) for iv in region), Fraction(0))


def reference_cut(valuation, a, target):
    """Cut by walking the pieces left to right, subtracting each one's mass.

    The library bisects its integer cumulative masses instead and solves
    every piece as one integer quadratic.  Here a constant piece is solved
    in Fractions as lo + remaining / intercept, and a linear piece goes to
    reference_solve_piece.
    """
    if target == 0:
        return CutResult(a, True)
    remaining = target
    for piece in valuation.pieces:
        lo = max(a, piece.interval.lo)
        hi = piece.interval.hi
        if hi <= lo:
            continue
        mass = reference_mass(piece, lo, hi)
        if mass < remaining:
            remaining -= mass
            continue
        if piece.slope == 0:
            return CutResult(lo + remaining / piece.intercept, True)
        return reference_solve_piece(piece, lo, hi, remaining)
    raise TargetUnreachable(
        "requested mass %s exceeds mass %s right of %s"
        % (target, reference_eval(valuation, a, 1), a)
    )


def reference_solve_piece(piece, lo, hi, remaining):
    # Find the smallest b in [lo,hi] with integral lo..b of the linear
    # density equal to remaining.  The integral is monotone here, so the
    # root is unique.
    # (slope/2) b^2 + intercept b - C = 0 with C fixed by the left endpoint.
    half = piece.slope / 2
    c = half * lo * lo + piece.intercept * lo + remaining
    disc = piece.intercept * piece.intercept + 4 * half * c
    root = reference_rational_sqrt(disc)
    if root is not None:
        for candidate in ((-piece.intercept + root) / piece.slope, (-piece.intercept - root) / piece.slope):
            if lo <= candidate <= hi and half * candidate * candidate + piece.intercept * candidate - c == 0:
                return CutResult(candidate, True)
    return reference_bisect_piece(piece, lo, hi, remaining)


def reference_rational_sqrt(x):
    """Exact square root of a non-negative Fraction, or None if irrational."""
    if x < 0:
        return None
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def reference_bisect_piece(piece, lo, hi, remaining):
    # Exact-arithmetic bisection on the mass function; midpoints are dyadic
    # so this is deterministic across platforms.
    left, right = lo, hi
    while right - left > BISECT_TOLERANCE:
        mid = (left + right) / 2
        if reference_mass(piece, lo, mid) < remaining:
            left = mid
        else:
            right = mid
    return CutResult(right, False)


def reference_equity_table(valuations, allocation):
    """The n x n table as one reference_measure per cell."""
    return tuple(
        tuple(reference_measure(v, portion) for portion in allocation) for v in valuations
    )


def reference_criteria(entries):
    """Proportionality, envy-freeness, equitability, UE and EE of a square
    table of Fractions, decided on the Fractions themselves."""
    n = len(entries)
    diagonal = [entries[i][i] for i in range(n)]
    return {
        "proportional": all(x * n >= 1 for x in diagonal),
        "envy-free": all(entries[i][i] >= entries[i][j] for i in range(n) for j in range(n)),
        "equitable": all(x == diagonal[0] for x in diagonal),
        "ue": sum(diagonal, Fraction(0)),
        "ee": min(diagonal),
    }


def reference_is_non_wasteful(valuations, allocation):
    """is_non_wasteful on regions: whether some agent's portion outside its
    support has positive mass for another agent."""
    for i, owner in enumerate(valuations):
        worthless = allocation[i].difference(owner.support())
        if worthless.is_empty():
            continue
        for j, other in enumerate(valuations):
            if j != i and other.measure(worthless) > 0:
                return False
    return True


def reference_overlap_error(portions):
    """The message Allocation raises for these regions, or None, from a sort
    and sweep of the spans as Fractions.

    Spans go by left end, equal left ends in input order; a span starting
    before the last right end reached overlaps the portion that reached it.
    """
    spans = [(iv.lo, iv.hi, k) for k, portion in enumerate(portions) for iv in portion]
    reach, owner = 0, None
    for lo, hi, k in sorted(spans, key=lambda span: span[0]):
        if lo < reach:
            i, j = sorted((owner, k))
            return "portions %d and %d overlap on %r" % (i, j, portions[i].intersect(portions[j]))
        reach, owner = hi, k
    return None


def pairwise_overlap(portions):
    """First pair (i, j), i < j, of regions sharing positive length, else None.

    The all-pairs scan Allocation once ran; its one-pass sweep must accept
    and reject exactly the same portion lists.
    """
    for i in range(len(portions)):
        for j in range(i + 1, len(portions)):
            if portions[i].overlaps(portions[j]):
                return i, j
    return None


def near_partitions(max_portions=5, max_cuts=8, max_extras=2, max_denominator=24, point=None):
    """Portion lists, most of them disjoint and some overlapping.

    Segments between random cuts go to random owners or to nobody, so the
    portions start out disjoint; a few random extra spans handed to random
    owners then may or may not create an overlap.  Cuts and the extra
    spans' ends are drawn from `point`, by default grid fractions.
    """
    if point is None:
        point = grid_fractions(max_denominator)

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_portions))
        points = draw(st.lists(point, max_size=max_cuts))
        cuts = sorted(set(points) | {Fraction(0), Fraction(1)})
        spans = [[] for _ in range(n)]
        for lo, hi in zip(cuts, cuts[1:]):
            owner = draw(st.integers(min_value=-1, max_value=n - 1))
            if owner >= 0:
                spans[owner].append((lo, hi))
        for _ in range(draw(st.integers(min_value=0, max_value=max_extras))):
            a = draw(point)
            b = draw(point)
            spans[draw(st.integers(min_value=0, max_value=n - 1))].append((min(a, b), max(a, b)))
        return [IntervalSet(s) for s in spans]

    return build()


def _reference_prefix_of(region, length):
    # The leftmost sub-region of the given total length: the region up to
    # the point where that much of it lies to the left.
    if length <= 0:
        return IntervalSet.empty()
    for iv in region:
        if length <= iv.length:
            return region.intersect(IntervalSet([(0, iv.lo + length)]))
        length -= iv.length
    return region


def _reference_ahead(profile, i, length):
    # The rival claims the length game serves before agent i when i claims
    # this length: ranked by (length, index).
    return union_all(
        s for j, s in enumerate(profile) if j != i and (s.length, j) < (length, i)
    )


def reference_candidates(preferences, profile, i):
    """The candidate family of `equilibrium._candidates`, as a set of regions.

    Built on region algebra instead of the library's integer atoms: length
    targets (each opponent length, each free-region length, and midpoints
    between consecutive targets, claimed greedily from the cake not blocked
    at that length), and direct repairs (claim wanted cake nobody claims;
    slip under a longer rival's claim).
    """
    pref = preferences[i].support()
    own = profile[i].intersect(pref)
    others = [j for j in range(len(profile)) if j != i]

    lengths = {Fraction(0), pref.length, own.length}
    for j in others:
        lengths.add(min(profile[j].length, pref.length))
    by_rank = sorted(others, key=lambda j: (profile[j].length, j))
    blocked = IntervalSet.empty()
    for p in range(len(by_rank) + 1):
        lengths.add(min(pref.difference(blocked).length, pref.length))
        if p < len(by_rank):
            blocked = blocked.union(profile[by_rank[p]])
    targets = sorted(lengths)
    for a, b in zip(targets, targets[1:]):
        lengths.add((a + b) / 2)

    out = set()
    for target in lengths:
        free = pref.difference(_reference_ahead(profile, i, target))
        out.add(_reference_prefix_of(free, min(target, free.length)))

    unclaimed = pref.difference(union_all(profile.strategies))
    if not unclaimed.is_empty():
        out.add(own.union(unclaimed))

    for j in others:
        overlap = profile[j].intersect(pref).difference(own)
        cap = profile[j].length - own.length
        if overlap.is_empty() or cap <= 0:
            continue
        if i < j:
            take = min(overlap.length, cap)
        else:
            take = overlap.length if overlap.length < cap else cap / 2
        out.add(own.union(_reference_prefix_of(overlap, take)))

    return out


def reference_best_response(preferences, profile, i):
    """Best counter-claim for agent i, scoring each candidate by a full replay.

    The library scores a candidate on integer atoms as the claim minus the
    rival claims ranked ahead of it; this builds the family with
    `reference_candidates` and replays the whole shortest-claim-first game
    for every candidate instead, and must return the same (strategy, gain).
    """
    current = preferences[i].measure(length_game(profile)[i])
    best_strategy = None
    best_utility = None
    for candidate in reference_candidates(preferences, profile, i):
        utility = preferences[i].measure(length_game(profile.replace(i, candidate))[i])
        if (
            best_utility is None
            or utility > best_utility
            or (utility == best_utility and candidate.pairs() < best_strategy.pairs())
        ):
            best_strategy, best_utility = candidate, utility
    if best_utility is None or best_utility <= current:
        return profile[i], Fraction(0)
    return best_strategy, best_utility - current


def reference_best_response_dynamics(preferences, start, max_rounds=None):
    """`equilibrium.best_response_dynamics` with the fair claim scored on regions.

    Each agent's mechanism claim is worth its wanted length minus the rival
    claims `_reference_ahead` of it, measured by the agent's valuation; the
    library scores it on the best-response atom table instead, and must
    return the same (profile, converged).
    """
    n = len(start)
    if max_rounds is None:
        max_rounds = 100 * n
    fair = min_average_mechanism(preferences).portions
    trimmed = Profile(
        [start[k].intersect(preferences[k].support()) for k in range(n)]
    )
    profile = reduce_profile(trimmed).profile
    for _ in range(max_rounds):
        moved = False
        for k in range(n):
            current = preferences[k].measure(profile[k])
            won = fair[k].difference(_reference_ahead(profile, k, fair[k].length))
            if preferences[k].measure(won) > current:
                profile = reduce_profile(profile.replace(k, fair[k])).profile
                moved = True
                continue
            strategy, gain = best_response(preferences, profile, k)
            if gain > 0:
                profile = reduce_profile(profile.replace(k, strategy)).profile
                moved = True
        if not moved:
            report = is_equilibrium(preferences, ReducedProfile(profile))
            return profile, report.is_equilibrium
    return profile, False


def reference_exact_allocation(preferences, agents, cake):
    """The min-average fill of `uniform.exact_allocation` in `Fraction` amounts.

    The library fills the same atoms greedily with integer amounts and
    turns them into endpoints once, at the end; this fills them with exact
    rationals throughout and must return the same portions.
    """
    agents = tuple(sorted(agents))
    if not agents:
        raise EmptySubset("need at least one agent")
    wanted = {i: preferences[i].support().intersect(cake) for i in agents}
    region = union_all(wanted.values())
    quota = Fraction(region.length, len(agents))

    marks, _, bits, scale = _atom_table(list(wanted.values()))
    atoms = [(Fraction(lo, scale), Fraction(hi, scale)) for lo, hi in zip(marks, marks[1:])]
    lengths = [hi - lo for lo, hi in atoms]
    owners = [
        [i for i, mask in zip(agents, bits) if mask >> k & 1] for k in range(len(atoms))
    ]

    # held[k][i] is how much of atom k agent i holds; spare[k] is unassigned.
    held = [dict() for _ in atoms]
    spare = list(lengths)
    need = {i: quota for i in agents}
    open_length = {
        i: sum((x for k, x in enumerate(lengths) if i in owners[k]), Fraction(0))
        for i in agents
    }

    for k in range(len(atoms)):
        while spare[k] > 0:
            ready = [i for i in owners[k] if need[i] > 0]
            if not ready:
                break
            i = min(ready, key=lambda i: (open_length[i], i))
            take = min(need[i], spare[k])
            held[k][i] = held[k].get(i, Fraction(0)) + take
            spare[k] -= take
            need[i] -= take
        for i in owners[k]:
            open_length[i] -= lengths[k] - spare[k]

    owned = {i: [k for k, o in enumerate(owners) if i in o] for i in agents}
    for i in agents:
        while need[i] > 0 and _augment(i, need, held, spare, owned):
            pass
        if need[i] > 0:
            raise Infeasible("cannot give agent %d a portion of length %s" % (i, quota))

    portions = {i: [] for i in agents}
    for k, (pos, _) in enumerate(atoms):
        for i in sorted(held[k]):
            amount = held[k][i]
            if amount > 0:
                portions[i].append((pos, pos + amount))
                pos += amount
    result = {i: IntervalSet(spans) for i, spans in portions.items()}

    if any(result[i].length != quota for i in agents):
        raise Infeasible("portions do not meet the average share")
    if any(not result[i].difference(wanted[i]).is_empty() for i in agents):
        raise Infeasible("a portion strays outside its owner's wanted cake")
    if union_all(result.values()) != region:
        raise Infeasible("portions do not cover the jointly wanted cake")
    return result


def reference_min_average_subset(preferences, agents, cake):
    """The min-average group by exhaustive search over every group.

    Every group's wanted length is an integer sum over a bitmask of atoms,
    and groups are scanned by size, then in lexicographic order, so the
    first strictly smaller average wins.  `uniform.min_average_subset`
    finds the same group with a transfer search instead.  This keeps two
    lists of 2^k entries for k agents, so it suits k up to about 16.
    """
    agents = tuple(sorted(agents))
    if not agents:
        raise EmptySubset("need at least one agent")
    _, weights, bits, _ = _atom_table([cake, *(preferences[i].support() for i in agents)])
    wanted = [mask & bits[0] for mask in bits[1:]]
    # cover[m] holds the atoms wanted by the group with member bitmask m,
    # length[m] their total weight; each mask extends the one without its
    # lowest member.
    full = 1 << len(agents)
    cover = [0] * full
    length = [0] * full
    for m in range(1, full):
        low = m & -m
        rest = m ^ low
        own = wanted[low.bit_length() - 1]
        length[m] = length[rest] + _weight(own & ~cover[rest], weights)
        cover[m] = cover[rest] | own
    members = [1 << j for j in range(len(agents))]
    best = best_length = best_size = None
    for size in range(1, len(agents) + 1):
        for group in combinations(members, size):
            mask = sum(group)
            if best is None or length[mask] * best_size < best_length * size:
                best, best_length, best_size = mask, length[mask], size
    return tuple(a for j, a in enumerate(agents) if best >> j & 1)


def reference_min_average_rounds(preferences):
    """The min-average rounds of `uniform.min_average_rounds`, one cake region per round.

    Each round searches the cake the earlier rounds left, fills the group's
    shares in `Fraction` amounts on a table of the group's wanted cake, and
    takes their union off the cake; the library cuts the supports once per
    run and keeps the cake as a bitmask.  A round with more than 16 agents
    left, beyond the exhaustive search, takes its group from
    `uniform.min_average_subset` on that round's cake.
    """
    remaining = tuple(range(len(preferences)))
    cake = IntervalSet.unit()
    rounds = []
    while remaining:
        search = reference_min_average_subset if len(remaining) <= 16 else min_average_subset
        group = search(preferences, remaining, cake)
        shares = reference_exact_allocation(preferences, group, cake)
        region = union_all(shares.values())
        avg = Fraction(region.length, len(group))
        rounds.append(ServiceRound(group, avg, region, tuple(sorted(shares.items()))))
        cake = cake.difference(region)
        remaining = tuple(sorted(set(remaining).difference(group)))
    return rounds


def reference_closures(held, spare, owned):
    """The closing step of `uniform._min_average_group`, one `_reach` per agent.

    On a fill that serves every agent of `owned`, each agent's breadth-first
    search along wanted run -> holder either finds a run with room or
    returns the agent's closure; the smallest closure wins, the first on
    ties.  `uniform._closures` finds every closure at once, by one pass over
    the runs and a transitive closure on bitmasks of agents, and must
    return the same group.
    """
    closures = (_reach(i, held, spare, owned) for i in owned)
    return tuple(sorted(min((group for group, room in closures if room is None), key=len)))


def reference_lex_order(profile, order):
    """Priority allocation on region algebra: one `difference` and one `union` per agent.

    `uniform.lex_order` reads each portion off one atom table of the claims
    as the bitmask `claim & ~claimed`, and must return the same portions.
    """
    portions = [None] * len(profile)
    claimed = IntervalSet.empty()
    for i in order:
        portions[i] = profile[i].difference(claimed)
        claimed = claimed.union(profile[i])
    return Allocation(portions)


def reference_length_game(profile):
    """`reference_lex_order` with shorter claims first, equal lengths to the lower index."""
    return reference_lex_order(
        profile, sorted(range(len(profile)), key=lambda i: (profile[i].length, i))
    )


def reference_is_equilibrium(preferences, reduced):
    """The checks of `equilibrium.is_equilibrium` on region algebra, in the same order.

    The certificate is a replay of the length game, good behaviour one
    `difference` per claim, unclaimed cake a difference of two unions and
    the length order n^2 intersections.  The library runs the same checks
    as bitmask tests on one atom table, and must raise the same error or
    return the same report.
    """
    if not isinstance(reduced, ReducedProfile):
        raise NotReduced("expected a ReducedProfile")
    profile = reduced.profile
    if reference_length_game(profile).portions != profile.strategies:
        raise NotReduced("certificate is wrong: some claim loses part of itself")
    if len(preferences) != len(profile):
        raise ValueError("%d preferences but %d strategies" % (len(preferences), len(profile)))
    if not preferences:
        raise EmptySubset("need at least one agent")
    if not all(s.difference(p.support()).is_empty() for s, p in zip(profile, preferences)):
        raise NotWellBehaved("some claim strays outside its owner's wanted region")

    supports = [p.support() for p in preferences]
    missing = union_all(supports).difference(union_all(profile.strategies))
    if not missing.is_empty():
        deviator = next(i for i, s in enumerate(supports) if s.overlaps(missing))
        return EquilibriumReport(False, UnallocatedValuedCake(missing), deviator)

    n = len(profile)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            witness = profile[i].intersect(supports[j])
            if not witness.is_empty() and profile[i].length > profile[j].length:
                return EquilibriumReport(False, LengthOrderViolation(i, j, witness), j)
    return EquilibriumReport(True)


def reference_valued_region(preferences, agents, cake):
    """The part of the cake wanted by at least one of the given agents.

    `uniform.min_average_rounds` reads a round's region off the union of
    the group's shares instead.
    """
    agents = tuple(agents)
    if not agents:
        raise EmptySubset("need at least one agent")
    return union_all(preferences[i].support().intersect(cake) for i in agents)


def reference_average_share(preferences, agents, cake):
    """Length of the group's jointly wanted cake per member of the group."""
    agents = tuple(agents)
    if not agents:
        raise EmptySubset("need at least one agent")
    return Fraction(reference_valued_region(preferences, agents, cake).length, len(agents))


def reference_uncontested_region(preferences, i):
    """The part of agent i's wanted region that no other agent wants."""
    others = union_all(p.support() for j, p in enumerate(preferences) if j != i)
    return preferences[i].support().difference(others)


def reference_leximin_lengths(preferences):
    """The leximin portion lengths, by a sequence of exact LPs.

    The wanted cake is cut into atoms at every endpoint, and each variable
    is the amount of one atom given to one agent who wants it.  Each stage
    maximises the least length t among the agents not yet fixed, and fixes
    at t every agent whose row `t <= length` has a positive multiplier: by
    complementary slackness that agent is at t in every optimum, and the
    multipliers sum to at least 1, so each stage fixes one agent or more.
    The lengths of the lexicographically optimal base of the coverage
    polymatroid (Fujishige, 1980) are these, and the min-average mechanism
    must give the same; nothing here comes from `uniform.py`.
    """
    n = len(preferences)
    supports = [p.support() for p in preferences]
    marks = sorted({x for s in supports for iv in s for x in iv})
    atoms = []
    pairs = []
    for lo, hi in zip(marks, marks[1:]):
        wanters = [i for i, s in enumerate(supports) if any(iv.lo < hi and lo < iv.hi for iv in s)]
        if wanters:
            pairs += [(i, len(atoms)) for i in wanters]
            atoms.append(hi - lo)
    fixed = {}
    while len(fixed) < n:
        # Columns: one per (agent, atom) pair, then t.
        lp = LpProblem([0] * len(pairs) + [1])
        for k, length in enumerate(atoms):
            lp.add([int(a == k) for _, a in pairs] + [0], LESS, length)
        for i in range(n):
            row = [int(j == i) for j, _ in pairs]
            if i in fixed:
                lp.add(row + [0], EQUAL, fixed[i])
            else:
                lp.add([-x for x in row] + [1], LESS, 0)
        solution = lp_solve(lp)
        assert solution.status == OPTIMAL
        for i, y in enumerate(solution.duals[len(atoms):]):
            if i not in fixed and y > 0:
                fixed[i] = solution.value
    return [fixed[i] for i in range(n)]


# ----------------------------------------------------------------------
# the query protocols, deciding by Fraction comparisons


class ReferenceRecorder:
    """A transcript in Fractions, sharing no code with the library's Recorder.

    Each answer is read by `frac` and recorded as given, and each cut is
    held to its slice by Fraction max and min.
    """

    def __init__(self, oracles):
        self.oracles = list(oracles)
        self.records = []
        self.inexact_cuts = 0

    @property
    def total(self):
        return len(self.records)

    @property
    def eval_count(self):
        return sum(1 for r in self.records if r.kind == "eval")

    @property
    def cut_count(self):
        return sum(1 for r in self.records if r.kind == "cut")

    def eval(self, i, a, b):
        response = frac(self.oracles[i].eval(a, b))
        self.records.append(QueryRecord(i, "eval", (a, b), response))
        return response

    def cut(self, i, a, target, end=1):
        response = self.oracles[i].cut(a, target)
        if isinstance(response, CutResult):
            self.inexact_cuts += not response.exact
            response = response.point
        response = frac(response)
        self.records.append(QueryRecord(i, "cut", (a, target), response))
        return max(frac(a), min(response, frac(end)))


def _reference_result(portions, rec):
    return MechanismResult(Allocation(portions), rec)


def reference_cut_and_choose(oracles):
    """cut_and_choose, the chooser comparing its two answers as Fractions."""
    rec = ReferenceRecorder(oracles)
    a = rec.cut(0, 0, Fraction(1, 2))
    if rec.eval(1, 0, a) > rec.eval(1, a, 1):
        portions = [[(a, 1)], [(0, a)]]
    else:
        portions = [[(0, a)], [(a, 1)]]
    return _reference_result(portions, rec)


def reference_last_diminisher(oracles):
    """last_diminisher, each worth compared with the Fraction share 1/n."""
    n = len(oracles)
    rec = ReferenceRecorder(oracles)
    share = Fraction(1, n)
    portions = [[] for _ in range(n)]
    remaining = list(range(n))
    s = Fraction(0)
    while remaining:
        l = Fraction(1)
        last = None
        for i in remaining:
            if rec.eval(i, s, l) > share:
                last = i
                if len(remaining) > 1:
                    l = rec.cut(i, s, share, l)
        if last is None:
            last = remaining[0]
        portions[last].append((s, l))
        s = l
        remaining.remove(last)
    return _reference_result(portions, rec)


def reference_selfridge(oracles):
    """selfridge, every pick made by Fraction max, min and comparison."""
    rec = ReferenceRecorder(oracles)
    a = rec.cut(0, 0, Fraction(1, 3))
    b = rec.cut(0, a, Fraction(1, 3))
    thirds = [(Fraction(0), a), (a, b), (b, Fraction(1))]
    worth = [rec.eval(1, lo, hi) for lo, hi in thirds]
    x_index = max(range(3), key=lambda k: (worth[k], -k))
    x1, x2 = thirds[x_index]
    z_index = min((k for k in range(3) if k != x_index), key=lambda k: (worth[k], k))
    z = thirds[z_index]
    (y_index,) = set(range(3)) - {x_index, z_index}
    y = thirds[y_index]
    c = rec.cut(1, x1, worth[y_index], x2)
    x_prime = (x1, c)
    trim = (c, x2)
    portions = [[], [], []]
    pick_3 = [rec.eval(2, *x_prime), rec.eval(2, *y), rec.eval(2, *z)]
    if pick_3[0] >= pick_3[1] and pick_3[0] >= pick_3[2]:
        portions[2].append(x_prime)
        portions[1].append(y)
        portions[0].append(z)
        divider = 1
    else:
        portions[2].append(y if pick_3[1] >= pick_3[2] else z)
        portions[1].append(x_prime)
        portions[0].append(z if pick_3[1] >= pick_3[2] else y)
        divider = 2
    if trim[1] > trim[0]:
        c, x2 = trim
        first_picker = 2 if divider == 1 else 1
        u = rec.eval(divider, c, x2)
        d = rec.cut(divider, c, u / 3, x2)
        e = rec.cut(divider, d, u / 3, x2)
        slices = [(c, d), (d, e), (e, x2)]
        values = [rec.eval(first_picker, lo, hi) for lo, hi in slices]
        best = max(range(3), key=lambda k: (values[k], -k))
        portions[first_picker].append(slices[best])
        rest = [slices[k] for k in range(3) if k != best]
        if rec.eval(0, *rest[0]) >= rec.eval(0, *rest[1]):
            portions[0].append(rest[0])
            portions[divider].append(rest[1])
        else:
            portions[0].append(rest[1])
            portions[divider].append(rest[0])
    return _reference_result(portions, rec)


def reference_even_paz(oracles):
    """even_paz, each group sorted by its Fraction marks, ties by index."""
    n = len(oracles)
    rec = ReferenceRecorder(oracles)
    portions = [[] for _ in range(n)]

    def subroutine(group, s, t):
        if len(group) == 1:
            portions[group[0]].append((s, t))
            return
        left_share = Fraction(len(group) // 2, len(group))
        marks = {}
        for i in group:
            marks[i] = rec.cut(i, s, rec.eval(i, s, t) * left_share, t)
        ordered = sorted(sorted(group), key=marks.__getitem__)
        half = len(group) // 2
        split = marks[ordered[half - 1]]
        subroutine(ordered[:half], s, split)
        subroutine(ordered[half:], split, t)

    subroutine(list(range(n)), Fraction(0), Fraction(1))
    return _reference_result(portions, rec)


# ----------------------------------------------------------------------
# the simplex on a Fraction tableau


def reference_lp_solve(problem, trace=None):
    """The two-phase simplex on a dense tableau of Fractions.

    Dantzig's rule enters the largest reduced cost, ties to the smaller
    column; after more than one degenerate pivot per row in a row, Bland's
    rule enters until the next pivot that moves the vertex.  A last stage
    walks the optimal face to the lexicographically least optimal x.  The
    library pivots on integer rows in lowest terms instead; it must take
    the same pivots, print the same trace and return the same vertex and
    duals as this one.
    """
    return _ReferenceTableau(problem, trace).solve()


def reference_lex_min(problem):
    """The lexicographically least optimal x of an LpProblem, column by column.

    Solves for the optimum z* with `reference_lp_solve`, then for each
    column j in turn minimizes x_j subject to the rows, c . x == z* and
    every earlier x fixed at its minimum (substituted into the rows).
    Only the optimal values of those programs are read, never a vertex, so
    the result does not depend on where any solve stops.  Returns
    (status, z*, x), the last two None unless optimal.
    """
    solution = reference_lp_solve(problem)
    if solution.status != OPTIMAL:
        return solution.status, None, None
    n = problem.n_vars
    rows = list(problem.rows) + [(problem.objective, EQUAL, solution.value)]
    least = []
    for j in range(n):
        # The fixed x_k are substituted: columns j.. remain, x_j first.
        step = LpProblem([-1] + [0] * (n - j - 1))
        for coefficients, sense, rhs in rows:
            fixed = sum((a * v for a, v in zip(coefficients, least)), Fraction(0))
            step.add(coefficients[j:], sense, rhs - fixed)
        least.append(-reference_lp_solve(step).value)
    return OPTIMAL, solution.value, tuple(least)


class _ReferenceTableau:
    # Column layout: structural variables, then one slack or surplus per
    # inequality row, then artificials for rows that need one.  Rows are
    # normalized to non-negative rhs up front, and a >= row with rhs 0 to
    # the <= row it negates to; flips are remembered so the duals reported
    # at the end refer to the rows as the caller wrote them.

    def __init__(self, problem, trace):
        self.problem = problem
        self.trace = trace
        self.pivots = 0
        n = problem.n_vars
        rows = []
        for coefficients, sense, rhs in problem.rows:
            coefficients = list(coefficients)
            flipped = rhs < 0 or (rhs == 0 and sense == GREATER)
            if flipped:
                coefficients = [-c for c in coefficients]
                rhs = -rhs
                sense = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}[sense]
            rows.append([coefficients, sense, rhs, flipped])

        cols = n
        slack_col = {}
        for r, (_, sense, _, _) in enumerate(rows):
            if sense in (LESS, GREATER):
                slack_col[r] = cols
                cols += 1
        self.artificials = set()
        art_col = {}
        for r, (_, sense, _, _) in enumerate(rows):
            if sense in (GREATER, EQUAL):
                art_col[r] = cols
                self.artificials.add(cols)
                cols += 1

        self.cols = cols
        self.body = []
        self.rhs = []
        self.basis = []
        self.id_col = []
        self.flipped = []
        for r, (coefficients, sense, rhs, flipped) in enumerate(rows):
            row = coefficients + [Fraction(0)] * (cols - n)
            if sense == LESS:
                row[slack_col[r]] = Fraction(1)
                self.basis.append(slack_col[r])
                self.id_col.append(slack_col[r])
            elif sense == GREATER:
                row[slack_col[r]] = Fraction(-1)
                row[art_col[r]] = Fraction(1)
                self.basis.append(art_col[r])
                self.id_col.append(art_col[r])
            else:
                row[art_col[r]] = Fraction(1)
                self.basis.append(art_col[r])
                self.id_col.append(art_col[r])
            self.body.append(row)
            self.rhs.append(rhs)
            self.flipped.append(flipped)
        # Dropped redundant rows keep a dual of zero.
        self.row_of = list(range(len(rows)))

    def solve(self):
        if self.artificials:
            status = self._optimize(self._phase1_costs(), allow=self._not_artificial)
            if status != OPTIMAL or any(
                self.rhs[r] != 0
                for r in range(len(self.body))
                if self.basis[r] in self.artificials
            ):
                return LpSolution(INFEASIBLE, pivots=self.pivots)
            self._expel_artificials()
        status = self._optimize(self._phase2_costs(), allow=self._not_artificial)
        if status == UNBOUNDED:
            return LpSolution(UNBOUNDED, pivots=self.pivots)
        self._canonicalize()
        return self._certify()

    # ------------------------------------------------------------------
    # pivoting

    def _phase1_costs(self):
        # Maximize minus the artificial total; basic columns eliminated.
        costs = [Fraction(0)] * self.cols
        for a in self.artificials:
            costs[a] = Fraction(-1)
        return self._reduce(costs)

    def _phase2_costs(self):
        costs = list(self.problem.objective) + [Fraction(0)] * (
            self.cols - self.problem.n_vars
        )
        return self._reduce(costs)

    def _reduce(self, costs):
        for r, row in enumerate(self.body):
            factor = costs[self.basis[r]]
            if factor != 0:
                for c in range(self.cols):
                    costs[c] -= factor * row[c]
        return costs

    def _not_artificial(self, col):
        return col not in self.artificials

    def _optimize(self, costs, allow):
        degenerate = 0
        while True:
            candidates = [c for c in range(self.cols) if costs[c] > 0 and allow(c)]
            if not candidates:
                self.costs = costs
                return OPTIMAL
            if degenerate > len(self.body):
                entering = candidates[0]
            else:
                entering = max(candidates, key=lambda c: (costs[c], -c))
            leaving = self._leaving(entering)
            if leaving is None:
                return UNBOUNDED
            degenerate = degenerate + 1 if self.rhs[leaving] == 0 else 0
            self._pivot(leaving, entering, costs)

    def _leaving(self, entering):
        leaving = None
        best = None
        for r, row in enumerate(self.body):
            if row[entering] <= 0:
                continue
            ratio = self.rhs[r] / row[entering]
            if (
                best is None
                or ratio < best
                or (ratio == best and self.basis[r] < self.basis[leaving])
            ):
                best = ratio
                leaving = r
        return leaving

    def _canonicalize(self):
        # For each structural column j, minimize x_j over the columns still
        # free: at first those of zero reduced cost, then less every column
        # whose entry in x_j's row would raise x_j at its minimum.
        fixed = set(self.artificials)
        fixed.update(
            c for c in range(self.cols) if c not in self.basis and self.costs[c] != 0
        )
        for j in range(self.problem.n_vars):
            while j in self.basis:
                row = self.body[self.basis.index(j)]
                free = [c for c in range(self.cols) if c not in self.basis and c not in fixed]
                entering = next((c for c in free if row[c] > 0), None)
                if entering is None:
                    fixed.update(c for c in free if row[c] < 0)
                    break
                self._pivot(self._leaving(entering), entering, self.costs)
            else:
                fixed.add(j)

    def _pivot(self, r, c, costs):
        self.pivots += 1
        if self.trace is not None:
            self.trace.write(
                "pivot %d: column %d enters, row %d leaves\n" % (self.pivots, c, r)
            )
        row = self.body[r]
        factor = row[c]
        self.body[r] = row = [v / factor for v in row]
        self.rhs[r] /= factor
        for other, body_row in enumerate(self.body):
            if other == r or body_row[c] == 0:
                continue
            f = body_row[c]
            self.body[other] = [v - f * w for v, w in zip(body_row, row)]
            self.rhs[other] -= f * self.rhs[r]
        f = costs[c]
        if f != 0:
            for j in range(self.cols):
                costs[j] -= f * row[j]
        self.basis[r] = c
        if self.trace is not None:
            self._dump()

    def _expel_artificials(self):
        # Basic artificials sit at zero after a feasible phase one; pivot
        # them out where a live column allows it, drop redundant rows.
        keep = []
        for r in range(len(self.body)):
            if self.basis[r] not in self.artificials:
                keep.append(r)
                continue
            col = next(
                (
                    c
                    for c in range(self.cols)
                    if c not in self.artificials and self.body[r][c] != 0
                ),
                None,
            )
            if col is None:
                continue
            self._pivot(r, col, [Fraction(0)] * self.cols)
            keep.append(r)
        self.body = [self.body[r] for r in keep]
        self.rhs = [self.rhs[r] for r in keep]
        self.basis = [self.basis[r] for r in keep]
        self.row_of = [self.row_of[r] for r in keep]

    # ------------------------------------------------------------------
    # certification

    def _certify(self):
        n = self.problem.n_vars
        x = [Fraction(0)] * self.cols
        for r, b in enumerate(self.basis):
            x[b] = self.rhs[r]
        point = tuple(x[:n])
        value = sum(
            (c * v for c, v in zip(self.problem.objective, point)), Fraction(0)
        )

        duals = [Fraction(0)] * len(self.problem.rows)
        for live, original in enumerate(self.row_of):
            y = -self.costs[self.id_col[original]]
            duals[original] = -y if self.flipped[original] else y

        checks = all(v >= 0 for v in point) and sum(
            (y * rhs for y, (_, _, rhs) in zip(duals, self.problem.rows)),
            Fraction(0),
        ) == value
        for (coefficients, sense, rhs), y in zip(self.problem.rows, duals):
            lhs = sum((c * v for c, v in zip(coefficients, point)), Fraction(0))
            if sense == LESS:
                checks = checks and lhs <= rhs and y >= 0
            elif sense == GREATER:
                checks = checks and lhs >= rhs and y <= 0
            else:
                checks = checks and lhs == rhs
        # Dual feasibility, A^T y >= c, column by column.
        checks = checks and all(
            sum(
                (y * coefficients[j] for y, (coefficients, _, _) in zip(duals, self.problem.rows)),
                Fraction(0),
            )
            >= c
            for j, c in enumerate(self.problem.objective)
        )
        if not checks:
            raise RuntimeError("simplex returned an uncertified solution")
        return LpSolution(OPTIMAL, value, point, tuple(duals), self.pivots)

    def _dump(self):
        for r, row in enumerate(self.body):
            self.trace.write(
                "  [%s | %s] basic %d\n"
                % (" ".join(str(v) for v in row), self.rhs[r], self.basis[r])
            )
