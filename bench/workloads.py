"""Seeded scenario generation for the three benchmark workloads.

Set-up writes every scenario file a run reads plus a manifest: the ordered
request list, each request with the check its response must pass.  The
program under test sees only those files.  Inputs that are themselves
program outputs (an even-paz allocation to audit, a reduced mechanism
output to certify) are computed here; reference values for the checks are
computed by the checks, outside the timed requests.

A workload's request list is a head of a few heavy requests followed by
blocks.  Every block has the same request kinds and sizes in the same order;
only the seeded instances differ.
"""

import json
import os
import random
from fractions import Fraction

from fairslice.equilibrium import reduce_profile
from fairslice.generator import random_region, random_uniform_agents
from fairslice.intervals import IntervalSet
from fairslice.mechanisms import even_paz
from fairslice.optimal import segment, utilitarian_optimal
from fairslice.oracle import sincere_oracles
from fairslice.scenario import Scenario, serialize_scenario
from fairslice.uniform import Profile, UniformPreference, min_average_mechanism
from fairslice.valuation import Valuation

GRID = 64


def _grid_points(rng, count, denominator=GRID):
    inner = set()
    while len(inner) < count:
        inner.add(Fraction(rng.randint(1, denominator - 1), denominator))
    return [Fraction(0)] + sorted(inner) + [Fraction(1)]


def constant_agent(rng, max_steps=6, denominator=GRID):
    """Piecewise-constant density: 1..max_steps steps on a 1/denominator grid."""
    points = _grid_points(rng, rng.randint(0, max_steps - 1), denominator)
    steps = [((lo, hi), rng.choice((0, 1, 1, 2, 3, 4))) for lo, hi in zip(points, points[1:])]
    steps = [(span, value) for span, value in steps if value]
    if not steps:
        steps = [((points[0], points[1]), 1)]
    return Valuation.piecewise_constant(steps)


def linear_agent(rng):
    """Piecewise-linear density; most of its cuts have irrational roots."""
    points = _grid_points(rng, rng.randint(0, 2))
    specs = []
    for lo, hi in zip(points, points[1:]):
        slope = rng.choice((-2, -1, 1, 2, 3))
        low = min(slope * lo, slope * hi)
        specs.append(((lo, hi), slope, rng.randint(1, 3) - low))
    return Valuation.piecewise_linear(specs)


def uniform_agent(rng):
    return Valuation.uniform_on(random_region(rng))


def _subregion(rng, region, denominator=720):
    # A random claim inside a wanted region, on a grid unrelated to its ends.
    spans = []
    for iv in region:
        a = iv.lo + iv.length * Fraction(rng.randint(0, denominator), denominator)
        b = iv.lo + iv.length * Fraction(rng.randint(0, denominator), denominator)
        if rng.random() < 0.8:
            spans.append((min(a, b), max(a, b)))
    return IntervalSet(spans)


class _Writer:
    """Writes scenario files into one directory and collects the manifest."""

    def __init__(self, directory):
        self.directory = directory
        self.requests = []
        self.files = 0

    def scenario(self, valuations, profile=None, allocation=None):
        path = os.path.join(self.directory, "s%04d.json" % self.files)
        self.files += 1
        ids = tuple("a%d" % i for i in range(len(valuations)))
        text = serialize_scenario(
            Scenario("1", ids, tuple(valuations), profile, allocation)
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def cli(self, kind, argv, check, **expected):
        self.requests.append({"kind": kind, "argv": argv, "check": check, **expected})

    def library(self, kind, path):
        self.requests.append({"kind": kind, "scenario": path, "check": kind})


def _even_paz_bound(n):
    return 2 * n * (n - 1).bit_length()


def _agents(rng, family, n):
    if family == "gen":
        return random_uniform_agents(rng.randrange(2**32), n)
    maker = {"constant": constant_agent, "uniform": uniform_agent, "linear": linear_agent}[family]
    return [maker(rng) for _ in range(n)]


def _preferences(valuations):
    return [UniformPreference(v.support()) for v in valuations]


# Block layouts.  Request costs differ by orders of magnitude, so each block
# is laid out around the two percentiles it reports: a run of similar
# requests covers the middle ranks and another covers ranks 80-95%, with as
# many cheaper requests below each as dearer ones above.  A percentile then
# reads the cost of one kind of request instead of jumping across a gap
# between two kinds.


def _protocol_run(w, mechanism, path, n):
    argv = ["run", path, "--mechanism", mechanism, "--expect-proportional"]
    if mechanism == "even-paz":
        w.cli("run:even-paz", argv, "queries", bound=_even_paz_bound(n))
    else:
        w.cli("run:" + mechanism, argv, "exit0")


def _protocols_head(w, rng):
    w.cli("bench", ["bench", "--mechanism", "even-paz", "--n-range", "2..64",
                    "--seed", str(rng.randrange(2**31))], "bench")
    for n, family in ((128, "constant"), (256, "gen")):
        _protocol_run(w, "even-paz", w.scenario(_agents(rng, family, n)), n)


def _protocols_block(w, rng):
    # Linear densities stay in on purpose: their cuts are bisected, and
    # AgentOracle.cut drops the inexact flag, so some of these fail --expect-*.
    for family in ("uniform", "constant", "linear") * 2:
        w.cli("run:cut-and-choose",
              ["run", w.scenario(_agents(rng, family, 2)), "--mechanism", "cut-and-choose",
               "--expect-envy-free"], "exit0")
        w.cli("run:selfridge",
              ["run", w.scenario(_agents(rng, family, 3)), "--mechanism", "selfridge",
               "--expect-envy-free"], "exit0")
    # Median: even-paz and last-diminisher on the same 16-agent scenarios.
    for n, family in ((16, "gen"), (16, "constant")) * 3 + ((32, "gen"), (32, "constant")):
        path = w.scenario(_agents(rng, family, n))
        _protocol_run(w, "even-paz", path, n)
        _protocol_run(w, "last-diminisher", path, n)
    for n, family in ((16, "constant"), (32, "gen")):
        agents = _agents(rng, family, n)
        allocation = even_paz(sincere_oracles(agents)).allocation
        w.cli("audit", ["audit", w.scenario(agents, allocation=allocation),
                        "--expect-proportional"], "exit0")
    # 90th percentile: even-paz at n = 64.
    for family in ("gen", "constant", "gen"):
        _protocol_run(w, "even-paz", w.scenario(_agents(rng, family, 64)), 64)
    for family in ("constant", "gen"):
        _protocol_run(w, "last-diminisher", w.scenario(_agents(rng, family, 64)), 64)


def _procaccia(w, agents):
    w.cli("run:procaccia", ["run", w.scenario(agents), "--mechanism", "procaccia",
                            "--expect-envy-free"], "exit0")


def _dynamics(w, rng, n):
    agents = random_uniform_agents(rng.randrange(2**32), n)
    start = Profile([_subregion(rng, v.support()) for v in agents])
    w.library("dynamics", w.scenario(agents, profile=start))


def _revelation_head(w, rng):
    for n in (11, 12):
        _procaccia(w, random_uniform_agents(rng.randrange(2**32), n))
    _dynamics(w, rng, 6)


def _revelation_block(w, rng):
    for n in (2, 3, 4, 5, 6, 8):
        agents = random_uniform_agents(rng.randrange(2**32), n)
        claims = Profile([_subregion(rng, v.support()) for v in agents])
        mechanism = ("length-game", "lex-order")[n % 2]
        w.cli("run:" + mechanism,
              ["run", w.scenario(agents, profile=claims), "--mechanism", mechanism], "claims")
    for n in (3, 4, 5, 6, 7, 8):
        agents = random_uniform_agents(rng.randrange(2**32), n)
        output = min_average_mechanism(_preferences(agents))
        path = w.scenario(agents, profile=reduce_profile(Profile(list(output))).profile)
        w.cli("equilibrium", ["equilibrium", path, "--expect-equilibrium"], "exit0")
    for n in (2, 2, 3, 3, 4, 4, 5):
        _dynamics(w, rng, n)
    # Median: the subset search at n = 7; 90th percentile: at n = 9.
    for n in (6,) * 2 + (7,) * 8 + (8,) * 4 + (9,) * 6 + (10,):
        _procaccia(w, random_uniform_agents(rng.randrange(2**32), n))


def landmark_agents(rng, n, landmarks=5):
    """Piecewise-constant agents whose steps all break at one shared set of points.

    Every landmark is a breakpoint of some agent, so the joint segmentation
    has exactly landmarks + 1 segments and the LP size is fixed by n.
    """
    points = sorted(Fraction(p, GRID) for p in rng.sample(range(1, GRID), landmarks))
    while True:
        agents = []
        for _ in range(n):
            mine = [Fraction(0)] + [p for p in points if rng.random() < 0.5] + [Fraction(1)]
            steps = [((lo, hi), rng.choice((1, 2, 3, 4))) for lo, hi in zip(mine, mine[1:])]
            agents.append(Valuation.piecewise_constant(steps))
        if len(segment(agents)) == landmarks + 1:
            return agents


def _welfare_block(w, rng):
    for n in (2, 3, 4, 5, 6, 7, 3, 6):
        agents = [linear_agent(rng) for _ in range(n)] if n in (3, 6) else landmark_agents(rng, n)
        w.cli("optimal", ["optimal", w.scenario(agents)], "optimal")
    # Median: proportional and equitable optima at n = 3.
    for n in (2,) + (3,) * 6 + (4, 5, 6, 7):
        agents = landmark_agents(rng, n)
        path = w.scenario(agents)
        for criterion in ("proportional", "equitable") if n < 6 else ("proportional",):
            w.cli("optimal:" + criterion,
                  ["optimal", path, "--criterion", criterion, "--expect-" + criterion],
                  "constrained")
        if n == 2:
            w.cli("optimal:envy-free",
                  ["optimal", path, "--criterion", "envy-free", "--expect-envy-free"],
                  "constrained")
        if n in (2, 4):
            w.library("pareto", w.scenario(agents, allocation=utilitarian_optimal(agents)))
        if n == 5:
            w.library("max_ee", path)
        if n in (6, 7):
            w.cli("pof:equitable", ["pof", path, "--criterion", "equitable"], "pof")
    # 90th percentile: envy-free optima at n = 4, every row needing an artificial.
    for _ in range(6):
        w.cli("optimal:envy-free",
              ["optimal", w.scenario(landmark_agents(rng, 4)), "--criterion", "envy-free",
               "--expect-envy-free"], "constrained")


def _welfare_head(w, rng):
    path = w.scenario(landmark_agents(rng, 5))
    w.cli("optimal:envy-free",
          ["optimal", path, "--criterion", "envy-free", "--expect-envy-free"], "constrained")
    w.cli("pof:envy-free", ["pof", path, "--criterion", "envy-free"], "pof")


# workload: (head builder, block builder, distinct blocks per run)
_BUILDERS = {
    "protocols": (_protocols_head, _protocols_block, 3),
    "revelation": (_revelation_head, _revelation_block, 5),
    "welfare": (_welfare_head, _welfare_block, 3),
}


def build(workload, seed, directory):
    """Write the workload's scenarios and manifest for one seed.

    Returns the manifest: {"workload", "seed", "head", "block", "requests"}.
    requests[:head] are the head; the rest form blocks of `block` requests
    each.  The same seed always writes the same files.
    """
    head_builder, block_builder, blocks = _BUILDERS[workload]
    os.makedirs(directory, exist_ok=True)
    rng = random.Random("%s:%d" % (workload, seed))
    w = _Writer(directory)
    head_builder(w, rng)
    head = len(w.requests)
    for _ in range(blocks):
        block_builder(w, rng)
    manifest = {
        "workload": workload,
        "seed": seed,
        "head": head,
        "block": (len(w.requests) - head) // blocks,
        "requests": w.requests,
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    return manifest
