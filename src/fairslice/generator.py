"""Seeded random instances for experiments and benchmarks.

Piecewise-uniform agents drawn from a fixed grid: between one and four
intervals per agent, endpoints restricted to multiples of 1/64.  The grid
keeps every arising number a small rational, so exhaustive cross-checks
stay cheap downstream.  Everything is driven by an explicit seed and is
reproducible across runs and platforms.
"""

import random
from fractions import Fraction

from fairslice.intervals import IntervalSet
from fairslice.valuation import Valuation

GRID = 64
MAX_INTERVALS = 4


def random_region(rng):
    """A non-empty union of up to MAX_INTERVALS grid-aligned intervals."""
    while True:
        spans = []
        for _ in range(rng.randint(1, MAX_INTERVALS)):
            a = Fraction(rng.randint(0, GRID), GRID)
            b = Fraction(rng.randint(0, GRID), GRID)
            spans.append((min(a, b), max(a, b)))
        region = IntervalSet(spans)
        if not region.is_empty():
            return region


def random_uniform_agents(seed, n):
    """n agents, each uniform over a random grid region; fixed seed, fixed output."""
    rng = random.Random(seed)
    return [Valuation.uniform_on(random_region(rng)) for _ in range(n)]
