import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairslice.intervals import IntervalSet
from fairslice.valuation import CutResult, TargetUnreachable, Valuation, ZeroMassError
from helpers import (
    LARGE_DENOMINATORS,
    any_valuations,
    constant_valuations,
    grid_fractions,
    interval_sets,
    large_scale_regions,
    large_scale_valuations,
    linear_valuations,
    midpoint_mass,
    query_points,
    query_regions,
    raw_valuation_specs,
    reference_cut,
    reference_eval,
    reference_measure,
    reference_valuation,
    uniform_valuations,
)


def test_uniform_eval_example():
    v = Valuation.uniform_on([(0, "0.6")])
    assert v.eval("0.5", 1) == Fraction(1, 6)
    assert v.eval(0, 1) == 1


def test_eval_whole_cake_is_one():
    v = Valuation.piecewise_constant([((0, "1/4"), 1), (("1/4", 1), 3)])
    assert v.eval(0, 1) == 1


def test_linear_density_eval():
    # density 2x on [0,1]
    v = Valuation.piecewise_linear([((0, 1), 2, 0)])
    assert v.eval(0, "1/2") == Fraction(1, 4)
    assert v.eval(0, 1) == 1


def test_normalize_scales_constants():
    v = Valuation.piecewise_constant([((0, 1), 2)])
    assert v.pieces[0].intercept == 1
    v = Valuation.uniform_on([(0, "1/2")])
    assert v.pieces[0].intercept == 2
    v = Valuation.piecewise_constant([((0, "1/4"), 1), (("1/4", 1), 3)])
    # mass 1/4 + 9/4 scales by 2/5
    assert v.pieces[0].intercept == Fraction(2, 5)
    assert v.pieces[1].intercept == Fraction(6, 5)
    assert v.eval(0, "1/4") == Fraction(1, 10)


def test_zero_mass_rejected():
    with pytest.raises(ZeroMassError):
        Valuation.piecewise_constant([((0, 1), 0)])
    with pytest.raises(ZeroMassError):
        Valuation([])


def test_negative_density_rejected():
    with pytest.raises(ValueError):
        Valuation.piecewise_constant([((0, 1), -1)])
    with pytest.raises(ValueError):
        # slope drags the density below zero at the right end
        Valuation.piecewise_linear([((0, 1), -3, 1)])


def test_eval_refuses_a_reversed_span():
    with pytest.raises(ValueError, match="need a <= b"):
        Valuation.uniform().eval(Fraction(1, 2), Fraction(1, 3))


@pytest.mark.parametrize("start", [-1, Fraction(3, 2)])
def test_cut_refuses_a_start_off_the_cake(start):
    with pytest.raises(ValueError, match=r"cut start must lie in \[0,1\]"):
        Valuation.uniform().cut(start, Fraction(1, 4))


def test_cut_refuses_a_negative_target():
    with pytest.raises(ValueError, match="cut target must be non-negative"):
        Valuation.uniform().cut(0, Fraction(-1, 4))


def test_overlapping_pieces_rejected():
    with pytest.raises(ValueError):
        Valuation.piecewise_constant([((0, "1/2"), 1), (("1/4", 1), 1)])


def test_point_piece_leaves_the_valuation_unchanged():
    # A zero-length step carries no mass, whatever its value.
    plain = Valuation.piecewise_constant([((0, "1/2"), 1)])
    pointed = Valuation.piecewise_constant([((0, "1/2"), 1), (("1/2", "1/2"), 5)])
    assert pointed == plain
    assert pointed.is_piecewise_uniform()
    with pytest.raises(ValueError, match="overlap"):
        Valuation.piecewise_constant([((0, "1/2"), 1), (("1/4", "1/4"), 5)])


def test_point_piece_at_a_left_end_is_accepted_in_either_order():
    plain = Valuation.piecewise_constant([((0, "1/2"), 1)])
    steps = [((0, "1/2"), 1), ((0, 0), 5)]
    assert Valuation.piecewise_constant(steps) == plain
    assert Valuation.piecewise_constant(steps[::-1]) == plain
    inside = [((0, "1/2"), 1), (("1/4", "1/4"), 5)]
    for order in (inside, inside[::-1]):
        with pytest.raises(ValueError, match="overlap"):
            Valuation.piecewise_constant(order)


@settings(max_examples=300)
@given(raw_valuation_specs())
@example([((0, 1), 0, -1)])
@example([((0, "1/2"), 0, 1), (("1/4", 1), 0, 1)])
@example([((0, 1), 0, 0), (("1/2", "1/2"), 0, 3)])
@example([(("1/2", "1/4"), 0, 1)])
@example([((0, "1/2"), 0, 1), ((0, 0), 0, 5)])
def test_one_pass_construction_matches_the_two_pass_reference(specs):
    try:
        pieces, below = reference_valuation(specs)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            Valuation(specs)
        assert type(raised.value) is type(error)
        return
    v = Valuation(specs)
    kept = [k for k, p in enumerate(pieces) if p.interval.lo < p.interval.hi]
    assert v.pieces == tuple(pieces[k] for k in kept)
    assert tuple(Fraction(lo, v._scale) for lo in v._los) == tuple(
        pieces[k].interval.lo for k in kept
    )
    assert tuple(Fraction(hi, v._scale) for hi in v._his) == tuple(
        pieces[k].interval.hi for k in kept
    )
    assert tuple(Fraction(m, v._masses[-1]) for m in v._masses) == (0,) + tuple(
        below[k + 1] for k in kept
    )
    for k, p in enumerate(pieces):
        assert v.eval(0, p.interval.lo) == below[k]
        assert v.eval(0, p.interval.hi) == below[k + 1]


def test_cut_uniform_halves():
    got = Valuation.uniform().cut(0, "1/2")
    assert (got.point, got.exact) == (Fraction(1, 2), True)


def test_cut_skips_zero_density_gap():
    v = Valuation.uniform_on([(0, "0.1"), ("0.4", 1)])
    got = v.cut(0, Fraction(1, 7))
    assert got.exact
    assert got.point == Fraction(1, 10)


def test_cut_smallest_b_at_trailing_gap():
    v = Valuation.uniform_on([(0, "1/2")])
    got = v.cut(0, 1)
    assert got.exact
    assert got.point == Fraction(1, 2)


def test_cut_zero_target_stays_put():
    v = Valuation.uniform_on([("1/2", 1)])
    assert v.cut("1/4", 0).point == Fraction(1, 4)


def test_cut_linear_rational_root():
    v = Valuation.piecewise_linear([((0, 1), 2, 0)])
    got = v.cut(0, "1/4")
    assert got.exact
    assert got.point == Fraction(1, 2)


def test_cut_linear_irrational_root_bisects():
    v = Valuation.piecewise_linear([((0, 1), 2, 0)])
    got = v.cut(0, "1/2")
    assert not got.exact
    assert abs(v.eval(0, got.point) - Fraction(1, 2)) <= Fraction(1, 10**11)


def test_cut_target_too_large():
    v = Valuation.uniform()
    with pytest.raises(TargetUnreachable):
        v.cut("1/2", Fraction(3, 4))


def test_support_and_classes():
    v = Valuation.uniform_on([(0, "0.1"), ("0.4", 1)])
    assert v.support() == IntervalSet([(0, "0.1"), ("0.4", 1)])
    assert v.is_piecewise_uniform()
    w = Valuation.piecewise_constant([((0, "1/4"), 1), (("1/4", 1), 3)])
    assert w.is_piecewise_constant()
    assert not w.is_piecewise_uniform()
    x = Valuation.piecewise_linear([((0, 1), 2, 0)])
    assert not x.is_piecewise_constant()


@given(constant_valuations(), interval_sets(max_denominator=16), interval_sets(max_denominator=16))
def test_eval_additive_over_disjoint_regions(v, x, y):
    x = x.difference(y)
    assert v.measure(x) + v.measure(y) == v.measure(x.union(y))


@given(constant_valuations(), grid_fractions(16))
def test_non_atomicity(v, a):
    assert v.eval(a, a) == 0


@given(constant_valuations(), grid_fractions(16), grid_fractions(16))
def test_eval_matches_midpoint_oracle(v, a, b):
    a, b = min(a, b), max(a, b)
    assert v.eval(a, b) == midpoint_mass(v, a, b)


@settings(max_examples=200)
@given(uniform_valuations(), grid_fractions(8), grid_fractions(8))
def test_cut_eval_round_trip(v, a, share):
    available = v.eval(a, 1)
    target = share * available
    got = v.cut(a, target)
    assert got.exact
    assert v.eval(a, got.point) == target


# Points off the cake lie outside every piece too; eval clips them.
OFF_CAKE = st.sampled_from([Fraction(-1, 3), Fraction(4, 3)])


def piece_ends(v):
    return sorted({x for piece in v.pieces for x in piece.interval})


@settings(max_examples=300)
@given(any_valuations(), st.data())
def test_eval_matches_piecewise_reference(v, data):
    # Query points (some over LARGE_PRIME), points off the cake, and the
    # piece ends, where a point leaves one piece's integer key for the next.
    point = st.one_of(query_points(), OFF_CAKE, st.sampled_from(piece_ends(v)))
    a, b = sorted((data.draw(point), data.draw(point)))
    assert v.eval(a, b) == reference_eval(v, a, b)
    assert v.eval(a, a) == 0


@settings(max_examples=300)
@given(any_valuations(), query_regions())
def test_measure_matches_piecewise_reference(v, region):
    assert v.measure(region) == reference_measure(v, region)


@st.composite
def cut_queries(draw):
    # Targets up to and beyond the mass right of a, and arbitrary ones.
    # Linear valuations, whose cuts solve a quadratic, come up more often.
    v = draw(st.one_of(any_valuations(), linear_valuations()))
    a = draw(query_points())
    share = draw(st.one_of(query_points(), st.just(Fraction(1)), st.fractions(1, 2)))
    target = draw(st.sampled_from([share * reference_eval(v, a, 1), share]))
    return v, a, target


def linear_cut(specs, a, target):
    return Valuation.piecewise_linear(specs), Fraction(a), Fraction(target)


RAMP_DOWN = [((0, 1), -2, 2)]  # density 2 - 2x, F(x) = 2x - x^2
RAMP_THEN_FLAT = [((0, "1/2"), 1, 1), (("1/2", 1), 0, 1)]  # F(1/2) = 5/9


@settings(max_examples=300)
@given(cut_queries())
# A negative slope with an irrational root, 1 - 1/sqrt(2).
@example(linear_cut(RAMP_DOWN, 0, "1/2"))
# The density vanishes at the piece end, where the discriminant is 0.
@example(linear_cut(RAMP_DOWN, 0, 1))
# Bisected from a start inside a linear piece (b^2 = 1/9 + 1/4) and from
# a start in the gap before one (b^2 = 5/8).
@example(linear_cut([((0, 1), 2, 0)], "1/3", "1/4"))
@example(linear_cut([(("1/2", 1), 2, 0)], "1/4", "1/2"))
# Goals exactly at a linear piece's end, from 0 and from F(1/4) = 1/4.
@example(linear_cut(RAMP_THEN_FLAT, 0, "5/9"))
@example(linear_cut(RAMP_THEN_FLAT, "1/4", "11/36"))
def test_cut_matches_piecewise_reference(query):
    v, a, target = query
    try:
        expected = reference_cut(v, a, target)
    except TargetUnreachable as unreachable:
        with pytest.raises(TargetUnreachable, match=re.escape(str(unreachable))):
            v.cut(a, target)
    else:
        got = v.cut(a, target)
        assert got == expected and type(got.point) is Fraction


# ----------------------------------------------------------------------
# Edge cases of the integer keys: goals on cumulative masses, and spans that
# start or stop exactly where a piece does.


@st.composite
def valuations_with_piece_end(draw):
    v = draw(any_valuations())
    return v, draw(st.sampled_from(piece_ends(v)))


@settings(max_examples=300)
@given(valuations_with_piece_end(), st.data())
def test_cut_to_a_cumulative_mass_stops_at_the_piece_end(case, data):
    # The goal F(a) + target is exactly the mass left of `end`.  No piece
    # has `end` inside, so F is flat from the last piece end at or before
    # `end` up to it: across a gap every b there reaches the goal, and the
    # smallest is that piece end.
    v, end = case
    a = data.draw(
        st.one_of(
            st.sampled_from([x for x in piece_ends(v) if x <= end]),
            query_points().map(lambda share: share * end),
        )
    )
    target = reference_eval(v, a, end)
    got = v.cut(a, target)
    assert got == reference_cut(v, a, target)
    if target:
        last = max(piece.interval.hi for piece in v.pieces if piece.interval.hi <= end)
        assert got == CutResult(last, True)


@settings(max_examples=300)
@given(any_valuations(), st.lists(query_points(), max_size=6), st.data())
def test_measure_matches_reference_with_points_on_piece_ends(v, extra, data):
    # Region ends on piece ends are the boundary case of the masses_at sweep.
    points = sorted(set(piece_ends(v)) | set(extra) | {Fraction(0), Fraction(1)})
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        # Disjoint spans: consecutive pairs of distinct ascending indices,
        # some of them one point wide.
        ends = sorted(data.draw(st.sets(st.integers(0, len(points) - 1), max_size=6)))
        spans = list(zip(ends[::2], ends[1::2]))
        if data.draw(st.booleans()):
            spans.append((ends[-1], ends[-1]) if ends else (0, 0))
        region = IntervalSet((points[i], points[j]) for i, j in spans)
        mass = v.measure(region)
        assert type(mass) is Fraction
        assert mass == reference_measure(v, region)


@pytest.mark.parametrize("kind", sorted(LARGE_DENOMINATORS))
@settings(max_examples=150)
@given(data=st.data())
def test_measure_on_large_scales_matches_the_reference(kind, data):
    # One lcm scale per region: coprime, 2^-40 dyadic and hash-alike
    # denominators in both the valuation and the region.
    v = data.draw(large_scale_valuations(kind))
    region = data.draw(large_scale_regions(kind))
    mass = v.measure(region)
    assert type(mass) is Fraction
    assert mass == reference_measure(v, region)
