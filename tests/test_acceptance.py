"""Acceptance checks for the whole engine, one verdict line per criterion.

Each test prints `criterion NN pass/FAIL (time): label` before asserting, so
a `pytest tests/test_acceptance.py -s` run reads as a scoreboard.  Golden
numbers are exact rationals; randomized checks use fixed seeds.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

from fairslice.audit import (
    Allocation,
    equity_table,
    is_envy_free,
    is_proportional,
    utilitarian_efficiency,
    utilitarian_equivalent,
)
from fairslice.equilibrium import (
    best_response,
    best_response_dynamics,
    is_equilibrium,
    reduce_profile,
)
from fairslice.generator import random_uniform_agents
from fairslice.intervals import Interval, IntervalSet, union_all
from fairslice.mechanisms import cut_and_choose, even_paz, last_diminisher, selfridge
from fairslice.optimal import (
    max_ee,
    max_ue,
    pareto_oracle,
    price_of,
    segment,
    utilitarian_optimal,
)
from fairslice.oracle import sincere_oracles
from fairslice.uniform import (
    Profile,
    UniformPreference,
    min_average_mechanism,
    min_average_subset,
)
from fairslice.valuation import Valuation

from helpers import (
    assignment_optimum,
    random_constant_instance,
    random_subregion,
    reference_leximin_lengths,
)

F = Fraction


def verdict(number, label, passed, started, detail=""):
    status = "pass" if passed else "FAIL"
    elapsed = time.perf_counter() - started
    suffix = " [%s]" % detail if detail else ""
    print("criterion %2d %s (%5.2fs): %s%s" % (number, status, elapsed, label, suffix))
    assert passed, "criterion %d: %s%s" % (number, label, suffix)


def uniform(*pairs):
    return Valuation.uniform_on(list(pairs))


def alloc(*portion_pairs):
    return Allocation([IntervalSet(pairs) for pairs in portion_pairs])


# ----------------------------------------------------------------------


def test_criterion_1_golden_tables():
    started = time.perf_counter()
    checks = []

    three = [uniform((0, "1/10")), uniform(("2/5", 1)), uniform(("2/5", 1))]
    table = equity_table(three, alloc([(0, "1/10")], [("2/5", "4/5")], [("4/5", 1)]))
    checks.append(
        table.entries
        == ((F(1), F(0), F(0)), (F(0), F(2, 3), F(1, 3)), (F(0), F(2, 3), F(1, 3)))
    )

    halves = [uniform((0, "1/2")), uniform(("1/2", 1))]
    table = equity_table(halves, alloc([], [("1/2", 1)]))
    checks.append(table.entries == ((F(0), F(0)), (F(0), F(1))))

    overlap = [uniform((0, "3/5")), uniform(("2/5", 1))]
    table = equity_table(overlap, alloc([("1/2", 1)], [(0, "1/2")]))
    checks.append(table.entries == ((F(1, 6), F(5, 6)), (F(5, 6), F(1, 6))))

    walk = [uniform((0, 1)), uniform(("2/5", 1)), uniform(("4/5", 1))]
    result = last_diminisher(sincere_oracles(walk))
    checks.append(
        [portion.pairs() for portion in result.allocation]
        == [[(F(0), F(1, 3))], [(F(1, 3), F(3, 5))], [(F(3, 5), F(1))]]
    )
    checks.append(
        equity_table(walk, result.allocation).entries
        == (
            (F(1, 3), F(4, 15), F(2, 5)),
            (F(0), F(1, 3), F(2, 3)),
            (F(0), F(0), F(1)),
        )
    )

    elapsed = time.perf_counter() - started
    verdict(
        1,
        "four golden tables reproduced with exact rational equality",
        all(checks) and elapsed < 1.0,
        started,
        "%d/%d tables, %.2fs < 1s" % (sum(checks), len(checks), elapsed),
    )


def test_criterion_2_mechanism_equity_properties():
    started = time.perf_counter()
    rng = random.Random(20260802)
    violations = 0
    runs = {"cut-and-choose": 0, "selfridge": 0, "last-diminisher": 0, "even-paz": 0}
    for k in range(1000):
        n = rng.choice([2, 3]) if k < 500 else rng.randint(2, 6)
        vals = random_constant_instance(rng, n)
        for name, mechanism in (("last-diminisher", last_diminisher), ("even-paz", even_paz)):
            table = equity_table(vals, mechanism(sincere_oracles(vals)).allocation)
            runs[name] += 1
            violations += not is_proportional(table)
        if n == 2:
            table = equity_table(vals, cut_and_choose(sincere_oracles(vals)).allocation)
            runs["cut-and-choose"] += 1
            violations += not (is_envy_free(table) and is_proportional(table))
        if n == 3:
            table = equity_table(vals, selfridge(sincere_oracles(vals)).allocation)
            runs["selfridge"] += 1
            violations += not is_envy_free(table)
    covered = all(count >= 100 for count in runs.values())
    verdict(
        2,
        "equity guarantees hold on 1000 randomized instances",
        violations == 0 and covered,
        started,
        "violations=%d runs=%s" % (violations, runs),
    )


def test_criterion_3_envy_free_implies_proportional():
    started = time.perf_counter()
    rng = random.Random(20260803)
    tables = []
    for _ in range(600):
        n = rng.randint(2, 5)
        vals = random_constant_instance(rng, n)
        marks = sorted(
            {F(0), F(1)} | {F(rng.randint(1, 63), 64) for _ in range(rng.randint(1, 6))}
        )
        portions = [[] for _ in range(n)]
        for lo, hi in zip(marks, marks[1:]):
            portions[rng.randrange(n)].append((lo, hi))
        tables.append(equity_table(vals, alloc(*portions)))
    for _ in range(200):
        vals = random_constant_instance(rng, 2)
        tables.append(equity_table(vals, cut_and_choose(sincere_oracles(vals)).allocation))
    for _ in range(200):
        n = rng.randint(2, 6)
        vals = random_constant_instance(rng, n)
        tables.append(equity_table(vals, even_paz(sincere_oracles(vals)).allocation))
    envy_free_seen = sum(is_envy_free(t) for t in tables)
    counterexamples = sum(is_envy_free(t) and not is_proportional(t) for t in tables)
    verdict(
        3,
        "envy-freeness implies proportionality on 1000 full allocations",
        counterexamples == 0 and envy_free_seen >= 100,
        started,
        "envy-free seen %d times, counterexamples=%d" % (envy_free_seen, counterexamples),
    )


def test_criterion_4_query_complexity():
    started = time.perf_counter()
    over_budget = 0
    for n in range(2, 129):
        agents = [Valuation.uniform() for _ in range(n)]
        total = even_paz(sincere_oracles(agents)).transcript.total
        over_budget += total > 3 * n * math.log2(n)
    q = {}
    for n in (16, 32, 64, 128):
        agents = [Valuation.uniform() for _ in range(n)]
        q[n] = last_diminisher(sincere_oracles(agents)).transcript.total
    ratios = [F(q[2 * n], q[n]) for n in (16, 32, 64)]
    quadratic = all(F(7, 2) <= r <= F(9, 2) for r in ratios)
    elapsed = time.perf_counter() - started
    verdict(
        4,
        "query counts stay logarithmic-linear and quadratic respectively",
        over_budget == 0 and quadratic and elapsed < 30.0,
        started,
        "doubling ratios %s, %.1fs < 30s" % (["%.3f" % float(r) for r in ratios], elapsed),
    )


def test_criterion_5_utilitarian_optimum_cross_oracle():
    started = time.perf_counter()
    rng = random.Random(20260805)
    mismatches = 0
    brute_checked = 0
    for _ in range(500):
        n = rng.randint(2, 5)
        vals = random_constant_instance(rng, n)
        built = utilitarian_efficiency(equity_table(vals, utilitarian_optimal(vals)))
        solved, _ = max_ue(vals)
        mismatches += built != solved
        if len(segment(vals)) <= 12:
            brute_checked += 1
            mismatches += solved != assignment_optimum(vals)
    verdict(
        5,
        "construction, exact LP, and brute force agree on 500 instances",
        mismatches == 0 and brute_checked >= 150,
        started,
        "mismatches=%d brute-forced=%d" % (mismatches, brute_checked),
    )


def test_criterion_6_efficiency_example():
    started = time.perf_counter()
    vals = [uniform((0, "1/2")), uniform(("1/2", 1)), uniform((0, 1))]
    best_total, _ = max_ue(vals)
    best_floor, low_allocation = max_ee(vals)
    realized = min(equity_table(vals, low_allocation).diagonal())
    verdict(
        6,
        "welfare optima on the three-agent example are 2 and 1/2 exactly",
        best_total == 2 and best_floor == F(1, 2) and realized == F(1, 2),
        started,
        "ue=%s ee=%s" % (best_total, best_floor),
    )


def test_criterion_7_price_of_proportionality_instance():
    started = time.perf_counter()
    vals = [
        uniform((0, "1/2")),
        uniform(("1/2", 1)),
        uniform((0, 1)),
        uniform((0, 1)),
    ]
    top, _ = max_ue(vals)
    ratio = price_of(vals, "proportional")
    verdict(
        7,
        "four-agent optimum is 2 = sqrt(4); proportionality ratio within [1, 3]",
        top == 2 and top * top == len(vals) and 1 <= ratio <= 3,
        started,
        "optimum=%s ratio=%s" % (top, ratio),
    )


# Criterion 8 produces the certified equilibria criterion 9 re-checks, so the
# 500-instance study runs once and both read from it.
_STUDY = None


def equilibrium_study():
    global _STUDY
    if _STUDY is not None:
        return _STUDY
    rng = random.Random(20260808)
    runs = []
    for _ in range(500):
        n = rng.randint(2, 6)
        vals = random_uniform_agents(rng.randrange(2**32), n)
        prefs = [UniformPreference(v.support()) for v in vals]
        output = min_average_mechanism(prefs)
        reduced = reduce_profile(Profile(list(output)))
        certified = is_equilibrium(prefs, reduced).is_equilibrium
        gains = [best_response(prefs, reduced.profile, i)[1] for i in range(n)]
        stuck = 0
        agreeing = True
        for _ in range(5):
            start = Profile([random_subregion(rng, p.support()) for p in prefs])
            profile, converged = best_response_dynamics(prefs, start)
            if not converged:
                stuck += 1
                continue
            fixpoint = Allocation(list(profile))
            agreeing &= utilitarian_equivalent(prefs, fixpoint, output)
        runs.append((vals, output, certified, gains, agreeing, stuck))
    _STUDY = runs
    return runs


def test_criterion_8_equilibrium_correspondence():
    started = time.perf_counter()
    runs = equilibrium_study()
    uncertified = sum(not certified for _, _, certified, _, _, _ in runs)
    gainful = sum(any(g != 0 for g in gains) for _, _, _, gains, _, _ in runs)
    disagreeing = sum(not agreeing for _, _, _, _, agreeing, _ in runs)
    nonconverged = sum(stuck > 0 for _, _, _, _, _, stuck in runs)
    verdict(
        8,
        "mechanism output is the equilibrium every converged run reaches",
        uncertified == 0
        and gainful == 0
        and disagreeing == 0
        and nonconverged < 25,
        started,
        "500 instances, uncertified=%d gainful=%d disagreeing=%d nonconverged=%d"
        % (uncertified, gainful, disagreeing, nonconverged),
    )


def test_criterion_9_equilibria_are_pareto_efficient():
    started = time.perf_counter()
    runs = equilibrium_study()
    inefficient = sum(
        not pareto_oracle(vals, output)
        for vals, output, certified, _, _, _ in runs
        if certified
    )
    verdict(
        9,
        "every certified equilibrium passes the exact efficiency oracle",
        inefficient == 0,
        started,
        "%d allocations checked, inefficient=%d" % (len(runs), inefficient),
    )


def breakpoint_atoms(region, marks):
    atoms = []
    for iv in region:
        cuts = sorted({iv.lo, iv.hi} | {m for m in marks if iv.lo < m < iv.hi})
        atoms.extend(Interval(lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    return atoms


def test_criterion_10_truthfulness_spot_check():
    started = time.perf_counter()
    rng = random.Random(20260810)
    improvements = 0
    deviations = 0
    for _ in range(200):
        n = rng.randint(2, 6)
        vals = random_uniform_agents(rng.randrange(2**32), n)
        prefs = [UniformPreference(v.support()) for v in vals]
        truthful = min_average_mechanism(prefs)
        marks = set()
        for pref in prefs:
            for iv in pref.support():
                marks.add(iv.lo)
                marks.add(iv.hi)
        for _ in range(20):
            i = rng.randrange(n)
            atoms = breakpoint_atoms(prefs[i].support(), marks)
            kept = [a for a in atoms if rng.random() < 0.5]
            if not kept:
                kept = [atoms[rng.randrange(len(atoms))]]
            lie = UniformPreference(IntervalSet([(a.lo, a.hi) for a in kept]))
            reported = prefs[:i] + [lie] + prefs[i + 1 :]
            award = min_average_mechanism(reported)[i]
            deviations += 1
            improvements += prefs[i].measure(award) > prefs[i].measure(truthful[i])
    verdict(
        10,
        "no well-behaved misreport ever beats truth-telling",
        improvements == 0 and deviations == 200 * 20,
        started,
        "%d deviations, improvements=%d" % (deviations, improvements),
    )


def exhaustive_min_average(prefs, agents, cake):
    # Size-major, then lexicographic: mirrors the documented tie rule.
    best, best_avg = None, None
    agents = tuple(sorted(agents))
    for size in range(1, len(agents) + 1):
        for group in combinations(agents, size):
            wanted = union_all(prefs[i].support().intersect(cake) for i in group)
            avg = F(wanted.length, size)
            if best_avg is None or avg < best_avg:
                best, best_avg = group, avg
    return best, best_avg


def test_criterion_11_min_average_subset_oracle():
    started = time.perf_counter()
    rng = random.Random(20260811)
    cake = IntervalSet([(0, 1)])
    cases = 0
    disagreements = 0
    for n in range(2, 13):
        for _ in range(3):
            vals = random_uniform_agents(rng.randrange(2**32), n)
            prefs = [UniformPreference(v.support()) for v in vals]
            sub = random_subregion(rng, cake)
            for region in (cake, sub if not sub.is_empty() else cake):
                group = min_average_subset(prefs, range(n), region)
                expected, expected_avg = exhaustive_min_average(prefs, range(n), region)
                wanted = union_all(prefs[i].support().intersect(region) for i in group)
                cases += 1
                disagreements += group != expected
                disagreements += F(wanted.length, len(group)) != expected_avg
    # A deliberately tie-heavy instance: equal disjoint slices for everyone.
    prefs = [UniformPreference(IntervalSet([(F(i, 8), F(i + 1, 8))])) for i in range(8)]
    group = min_average_subset(prefs, range(8), cake)
    cases += 1
    disagreements += group != exhaustive_min_average(prefs, range(8), cake)[0]
    verdict(
        11,
        "group selection matches the exhaustive enumeration oracle",
        disagreements == 0,
        started,
        "%d cases up to 12 agents, disagreements=%d" % (cases, disagreements),
    )


def test_criterion_12_mechanism_lengths_are_the_leximin_lengths():
    started = time.perf_counter()
    rng = random.Random(20260812)
    disagreements = 0
    for _ in range(200):
        n = rng.randint(2, 6)
        prefs = random_uniform_agents(rng.randrange(2**32), n)
        lengths = [portion.length for portion in min_average_mechanism(prefs)]
        disagreements += lengths != reference_leximin_lengths(prefs)
    verdict(
        12,
        "min-average portion lengths equal the leximin LP sequence's",
        disagreements == 0,
        started,
        "200 instances, disagreements=%d" % disagreements,
    )
