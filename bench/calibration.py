"""A CPU-speed probe that scales request times to one reference speed.

On a shared host, the speed a process gets changes over minutes: on the
2-vCPU virtual machine the benchmark was tuned on, whole runs of the same
requests took up to 1.6 times longer than others.  The timed run therefore
interleaves a fixed probe with the requests: a few milliseconds of
exact-rational arithmetic, sorting and JSON encoding, like fairslice's own
work but independent of its code.  A request's time is scaled by
REFERENCE_S over the median probe time around it.  At the reference speed,
scaled times equal wall times.  Between runs taken in quiet and in busy
spells, scaling cut the spread of total request time from 21% to 7%.
"""

import json
import random
import statistics
import time
from fractions import Fraction

# Seconds one probe takes at the reference speed: the quiet state of the
# 2-vCPU virtual machine on a shared host that the benchmark was tuned on.
REFERENCE_S = 0.006

# A probe runs after every EVERY requests; a request is scaled by the median
# of the probes within WINDOW probes of its own.
EVERY = 4
WINDOW = 3


def _kernel():
    rng = random.Random(7)
    total = Fraction(0)
    spans = []
    for _ in range(300):
        a = Fraction(rng.randint(1, 64), 64)
        b = Fraction(rng.randint(1, 64), 64)
        lo, hi = min(a, b), max(a, b)
        spans.append((lo, hi))
        total += (hi - lo) * Fraction(rng.randint(1, 9), rng.randint(1, 9))
    spans.sort()
    merged = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return json.dumps({"merged": [[str(a), str(b)] for a, b in merged], "total": str(total)})


def probe():
    """Seconds one run of the fixed kernel takes now."""
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started


def scale(seconds, probes):
    """Scale request times to the reference speed.

    probes[j] was taken after request EVERY * j - 1, so probes[0] precedes
    the first request; len(probes) must be len(seconds) // EVERY + 1.
    """
    scaled = []
    for i, raw in enumerate(seconds):
        j = i // EVERY
        nearby = probes[max(0, j - WINDOW + 1): j + WINDOW + 1]
        scaled.append(raw * REFERENCE_S / statistics.median(nearby))
    return scaled
