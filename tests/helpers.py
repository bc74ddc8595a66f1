"""Shared strategies and independent oracles for the test suite.

Oracles here are deliberately dumber than the library: grid scans, exhaustive
enumeration, midpoint sums.  They exist so the fast implementations have
something independent to disagree with.
"""

from fractions import Fraction

from hypothesis import strategies as st

from fairslice.equilibrium import _candidates
from fairslice.intervals import IntervalSet
from fairslice.simplex import (
    EQUAL,
    GREATER,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    UNBOUNDED,
    LpSolution,
)
from fairslice.uniform import Profile, UniformPreference, length_game
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


def reference_best_response(preferences, profile, i):
    """Best counter-claim for agent i, scoring each candidate by a full replay.

    The library scores a candidate as the claim minus the rival claims
    ranked ahead of it; this replays the whole shortest-claim-first game for
    every candidate instead, and must return the same (strategy, gain).
    """
    current = preferences[i].measure(length_game(profile)[i])
    best_strategy = None
    best_utility = None
    for candidate in _candidates(preferences, profile, i):
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
