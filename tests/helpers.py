"""Shared strategies and independent oracles for the test suite.

Oracles here are deliberately dumber than the library: grid scans, exhaustive
enumeration, midpoint sums.  They exist so the fast implementations have
something independent to disagree with.
"""

from fractions import Fraction

from hypothesis import strategies as st

from fairslice.intervals import IntervalSet, union_all
from fairslice.simplex import (
    EQUAL,
    GREATER,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    UNBOUNDED,
    LpSolution,
)
from fairslice.uniform import (
    EmptySubset,
    Infeasible,
    Profile,
    UniformPreference,
    _atom_table,
    _augment,
    length_game,
)
from fairslice.valuation import CutResult, TargetUnreachable, Valuation, _solve_piece


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


# A large prime that is also CPython's hash modulus: every Fraction over it
# hashes alike, so code that keys dicts by such points degrades.
LARGE_PRIME = 2**61 - 1


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

    The library bisects the cumulative masses instead; both must hand the
    same (lo, hi, remaining) to the piece solver.
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
        return _solve_piece(piece, lo, hi, remaining)
    raise TargetUnreachable(
        "requested mass %s exceeds mass %s right of %s"
        % (target, reference_eval(valuation, a, 1), a)
    )


def reference_equity_table(valuations, allocation):
    """The n x n table as one reference_measure per cell."""
    return tuple(
        tuple(reference_measure(v, portion) for portion in allocation) for v in valuations
    )


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

    atoms, _, bits, _ = _atom_table(list(wanted.values()))
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

    for i in agents:
        while need[i] > 0 and _augment(i, need, held, spare, owners):
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


# ----------------------------------------------------------------------
# the simplex on a Fraction tableau


def reference_lp_solve(problem, trace=None):
    """The two-phase Bland simplex on a dense tableau of Fractions.

    The library pivots on an integer-preserving tableau instead; it must
    take the same pivots, print the same trace and return the same vertex
    and duals as this one.
    """
    return _ReferenceTableau(problem, trace).solve()


class _ReferenceTableau:
    # Column layout: structural variables, then one slack or surplus per
    # inequality row, then artificials for rows that need one.  Rows are
    # normalized to non-negative rhs up front; flips are remembered so the
    # duals reported at the end refer to the rows as the caller wrote them.

    def __init__(self, problem, trace):
        self.problem = problem
        self.trace = trace
        self.pivots = 0
        n = problem.n_vars
        rows = []
        for coefficients, sense, rhs in problem.rows:
            coefficients = list(coefficients)
            flipped = rhs < 0
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
        while True:
            entering = next(
                (
                    c
                    for c in range(self.cols)
                    if costs[c] > 0 and allow(c)
                ),
                None,
            )
            if entering is None:
                self.costs = costs
                return OPTIMAL
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
            if leaving is None:
                return UNBOUNDED
            self._pivot(leaving, entering, costs)

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
        if not checks:
            raise RuntimeError("simplex returned an uncertified solution")
        return LpSolution(OPTIMAL, value, point, tuple(duals), self.pivots)

    def _dump(self):
        for r, row in enumerate(self.body):
            self.trace.write(
                "  [%s | %s] basic %d\n"
                % (" ".join(str(v) for v in row), self.rhs[r], self.basis[r])
            )
