import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairslice.intervals import Interval, IntervalSet, _scaled, frac, union_all
from helpers import LARGE_DENOMINATORS, interval_sets, large_scale_fractions


def iset(*pairs):
    return IntervalSet(pairs)


def test_frac_accepts_exact_forms():
    assert frac("3/7") == Fraction(3, 7)
    assert frac("0.4") == Fraction(2, 5)
    assert frac(1) == Fraction(1)
    assert frac(Fraction(1, 3)) == Fraction(1, 3)


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.4)


def test_interval_bounds_checked():
    with pytest.raises(ValueError):
        Interval(-1, 0)
    with pytest.raises(ValueError):
        Interval("1/2", "1/3")
    with pytest.raises(ValueError):
        Interval(0, 2)


def test_length_examples():
    assert iset((0, "1/2"), ("3/4", 1)).length == Fraction(3, 4)
    assert IntervalSet.empty().length == 0
    assert IntervalSet.unit().length == 1


def test_canonical_form_merges_and_sorts():
    s = iset(("1/2", 1), (0, "1/4"), ("1/4", "1/2"))
    assert s == IntervalSet.unit()
    assert iset((0, 0), ("1/2", "1/2")).is_empty()
    assert iset((0, "0.6"), ("0.5", 1)) == IntervalSet.unit()


def test_intersect_example():
    assert iset((0, "0.6")).intersect(iset(("0.5", 1))) == iset(("0.5", "0.6"))


def test_touching_intersection_is_empty():
    assert iset((0, "1/2")).intersect(iset(("1/2", 1))).is_empty()


def test_difference_example():
    got = IntervalSet.unit().difference(iset(("0.4", "0.6")))
    assert got == iset((0, "0.4"), ("0.6", 1))


def test_union_touching_merges():
    assert iset((0, "1/2")).union(iset(("1/2", 1))) == IntervalSet.unit()


def test_complement():
    assert IntervalSet.empty().complement() == IntervalSet.unit()
    assert iset(("1/4", "1/2")).complement() == iset((0, "1/4"), ("1/2", 1))


def test_contains():
    s = iset((0, "1/4"), ("1/2", 1))
    assert s.contains(Fraction(1, 8))
    assert s.contains(Fraction(1, 4))
    assert not s.contains(Fraction(3, 8))


@given(interval_sets())
def test_canonicalization_idempotent(s):
    again = IntervalSet(s.pairs())
    assert again == s
    assert again.length == s.length


@given(interval_sets(), interval_sets())
def test_inclusion_exclusion(x, y):
    assert x.length + y.length == x.union(y).length + x.intersect(y).length


@given(interval_sets(), interval_sets())
def test_difference_is_intersection_with_complement(x, y):
    assert x.difference(y) == x.intersect(y.complement())


@given(interval_sets())
def test_complement_involution(x):
    assert x.complement().complement() == x
    assert x.length + x.complement().length == 1


@given(interval_sets(), interval_sets())
def test_union_commutes_and_contains_parts(x, y):
    u = x.union(y)
    assert u == y.union(x)
    assert x.intersect(u) == x
    assert u.difference(x).difference(y).is_empty()


def test_union_all():
    parts = [iset((0, "1/4")), iset(("1/4", "1/2")), IntervalSet.empty()]
    assert union_all(parts) == iset((0, "1/2"))


def regions():
    return st.one_of(
        interval_sets(), st.just(IntervalSet.empty()), st.just(IntervalSet.unit())
    )


def endpoints(*sets):
    return sorted({p for r in sets for iv in r for p in iv} | {Fraction(0), Fraction(1)})


@st.composite
def region_pairs(draw):
    """Two regions; half the time the second is cut at the first's endpoints."""
    x = draw(regions())
    if draw(st.booleans()):
        return x, draw(regions())
    ends = st.sampled_from(endpoints(x))
    spans = draw(st.lists(st.tuples(ends, ends), max_size=4))
    return x, IntervalSet(sorted(span) for span in spans)


OPERATIONS = {
    "intersect": (IntervalSet.intersect, lambda a, b: a and b),
    "difference": (IntervalSet.difference, lambda a, b: a and not b),
    "complement": (lambda x, y: x.complement(), lambda a, b: not a),
    "union": (IntervalSet.union, lambda a, b: a or b),
}


@pytest.mark.parametrize("name", OPERATIONS)
@given(pair=region_pairs())
def test_operations_follow_their_boolean_rule(name, pair):
    operation, rule = OPERATIONS[name]
    x, y = pair
    result = operation(x, y)
    # Between consecutive endpoints membership is the rule itself; an
    # endpoint belongs to the closed result when a gap beside it does.
    points = endpoints(x, y)
    mids = [(a + b) / 2 for a, b in zip(points, points[1:])]
    inside = [rule(x.contains(m), y.contains(m)) for m in mids]
    assert [result.contains(m) for m in mids] == inside
    beside = [any(inside[max(k - 1, 0) : k + 1]) for k in range(len(points))]
    assert [result.contains(p) for p in points] == beside
    assert result == IntervalSet(result.pairs())
    for region in (x, y, result):
        assert region.length == sum((iv.length for iv in region), Fraction(0))


TINY = Fraction(1, 10**40)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (-TINY, Fraction(1, 2)),
        (Fraction(1, 2), 1 + TINY),
        (-TINY, -TINY),
        (1 + TINY, 1 + TINY),
        (Fraction(1, 3) + TINY, Fraction(1, 3)),
        (1, 1 - TINY),
    ],
)
def test_interval_bounds_refused_by_a_hair(lo, hi):
    message = "need 0 <= lo <= hi <= 1, got [%s, %s]" % (lo, hi)
    with pytest.raises(ValueError) as refused:
        Interval(lo, hi)
    assert str(refused.value) == message


@given(st.fractions(), st.fractions())
def test_interval_bounds_agree_with_fraction_comparisons(lo, hi):
    if 0 <= lo <= hi <= 1:
        assert tuple(Interval(lo, hi)) == (lo, hi)
    else:
        with pytest.raises(ValueError, match="need 0 <= lo <= hi <= 1"):
            Interval(lo, hi)


def test_unmerged_intervals_are_kept_as_given():
    left, right = Interval(0, "1/4"), Interval("1/2", "3/4")
    region = IntervalSet([right, ("1/4", "1/3"), left])
    assert region.intervals == (Interval(0, "1/3"), right)
    assert region.intervals[1] is right


def test_scaled_empty_list_has_scale_one():
    assert _scaled([]) == ([], 1)


@pytest.mark.parametrize("kind", sorted(LARGE_DENOMINATORS))
@given(data=st.data())
def test_scaled_writes_each_value_over_the_lcm_of_the_denominators(kind, data):
    values = data.draw(st.lists(large_scale_fractions(kind), max_size=8))
    integers, scale = _scaled(values)
    assert scale == math.lcm(*(x.denominator for x in values))
    assert [Fraction(i, scale) for i in integers] == values
    assert all(type(i) is int for i in integers)
