"""Seeded random instances for experiments and benchmarks.

Piecewise-uniform agents drawn from a fixed grid: between one and four
intervals per agent, endpoints restricted to multiples of 1/64.  The grid
keeps every arising number a small rational, so exhaustive cross-checks
stay cheap downstream.  Everything is driven by an explicit seed and is
reproducible across runs and platforms.
"""

import random

from fairslice.intervals import _merged, _spans_region
from fairslice.valuation import Valuation

GRID = 64
MAX_INTERVALS = 4


def random_region(rng):
    """A non-empty union of up to MAX_INTERVALS grid-aligned intervals."""
    while True:
        ends = []
        for _ in range(rng.randint(1, MAX_INTERVALS)):
            ends += sorted((rng.randint(0, GRID), rng.randint(0, GRID)))
        region = _spans_region(_merged(ends, GRID), GRID)
        if not region.is_empty():
            return region


def random_uniform_agents(seed, n):
    """n agents, each uniform over a random grid region; fixed seed, fixed output."""
    rng = random.Random(seed)
    return [Valuation.uniform_on(random_region(rng)) for _ in range(n)]
