from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairslice.intervals import Interval, IntervalSet, frac, union_all
from helpers import interval_sets


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
    assert result.length == sum((iv.length for iv in result), Fraction(0))
