"""Shared strategies and independent oracles for the test suite.

Oracles here are deliberately dumber than the library: grid scans, exhaustive
enumeration, midpoint sums.  They exist so the fast implementations have
something independent to disagree with.
"""

from fractions import Fraction

from hypothesis import strategies as st

from fairslice.intervals import IntervalSet
from fairslice.uniform import UniformPreference
from fairslice.valuation import Valuation


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


def uniform_preferences(n, max_intervals=3, max_denominator=12):
    """Lists of n region-valuing agents with grid endpoints."""
    one = nonempty_interval_sets(max_intervals, max_denominator).map(UniformPreference)
    return st.lists(one, min_size=n, max_size=n)


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


def scan_cut(valuation, a, target, steps=4096):
    """Brute cut oracle: walk a fine grid and return the first point reaching target.

    Only meaningful when the true cut lies on the grid; callers pick targets
    that make that so.
    """
    best = None
    for k in range(steps + 1):
        b = a + (Fraction(1) - a) * Fraction(k, steps)
        if valuation.eval(a, b) >= target:
            best = b
            break
    return best


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


def near_partitions(max_portions=5, max_cuts=8, max_extras=2, max_denominator=24):
    """Portion lists, most of them disjoint and some overlapping.

    Grid segments between random cuts go to random owners or to nobody, so
    the portions start out disjoint; a few random extra spans handed to
    random owners then may or may not create an overlap.
    """

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_portions))
        points = draw(st.lists(grid_fractions(max_denominator), max_size=max_cuts))
        cuts = sorted(set(points) | {Fraction(0), Fraction(1)})
        spans = [[] for _ in range(n)]
        for lo, hi in zip(cuts, cuts[1:]):
            owner = draw(st.integers(min_value=-1, max_value=n - 1))
            if owner >= 0:
                spans[owner].append((lo, hi))
        for _ in range(draw(st.integers(min_value=0, max_value=max_extras))):
            a = draw(grid_fractions(max_denominator))
            b = draw(grid_fractions(max_denominator))
            spans[draw(st.integers(min_value=0, max_value=n - 1))].append((min(a, b), max(a, b)))
        return [IntervalSet(s) for s in spans]

    return build()
