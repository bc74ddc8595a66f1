import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairslice.audit import (
    Allocation,
    EquityTable,
    egalitarian_efficiency,
    equity_table,
    is_envy_free,
    is_equitable,
    is_non_wasteful,
    is_proportional,
    utilitarian_efficiency,
    utilitarian_equivalent,
)
from fairslice.intervals import IntervalSet, union_all
from fairslice.optimal import pareto_oracle
from fairslice.valuation import Valuation
from helpers import (
    LARGE_DENOMINATORS,
    any_valuations,
    large_scale_fractions,
    large_scale_regions,
    large_scale_valuations,
    near_partitions,
    pairwise_overlap,
    query_points,
    reference_criteria,
    reference_equity_table,
    reference_is_non_wasteful,
    reference_overlap_error,
    uniform_valuations,
)


def uniform(*pairs):
    return Valuation.uniform_on(list(pairs))


def alloc(*portion_pairs):
    return Allocation([IntervalSet(pairs) for pairs in portion_pairs])


# The three walk-through instances exercised everywhere below:
# three agents where two compete for the right part of the cake,
THREE_AGENTS = [uniform((0, "0.1")), uniform(("0.4", 1)), uniform(("0.4", 1))]
THREE_SPLIT = alloc([(0, "0.1")], [("0.4", "0.8")], [("0.8", 1)])
# two agents with disjoint halves,
HALVES = [uniform((0, "0.5")), uniform(("0.5", 1))]
# and two agents overlapping on the middle fifth.
OVERLAP = [uniform((0, "0.6")), uniform(("0.4", 1))]


def test_three_agent_table_golden():
    table = equity_table(THREE_AGENTS, THREE_SPLIT)
    assert table.entries == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(2, 3), Fraction(1, 3)),
        (Fraction(0), Fraction(2, 3), Fraction(1, 3)),
    )
    assert is_proportional(table)
    assert not is_envy_free(table)  # the third agent envies the second
    assert not is_equitable(table)


def test_thrown_away_cake_table_golden():
    table = equity_table(HALVES, alloc([], [("0.5", 1)]))
    assert table.entries == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)))
    assert is_envy_free(table)
    assert not is_proportional(table)
    assert not is_equitable(table)


def test_swapped_halves_table_golden():
    table = equity_table(OVERLAP, alloc([("0.5", 1)], [(0, "0.5")]))
    assert table.entries == (
        (Fraction(1, 6), Fraction(5, 6)),
        (Fraction(5, 6), Fraction(1, 6)),
    )
    assert is_equitable(table)
    assert not is_envy_free(table)
    assert not is_proportional(table)


def test_empty_allocation_all_zero():
    table = equity_table(THREE_AGENTS, alloc([], [], []))
    assert all(entry == 0 for row in table.entries for entry in row)
    assert is_envy_free(table)
    assert not is_proportional(table)


def test_overlapping_portions_rejected():
    with pytest.raises(ValueError):
        alloc([(0, "0.6")], [("0.5", 1)])


@pytest.mark.parametrize(
    "portions, pair, shared",
    [
        # Overlaps between later portions, with earlier ones disjoint.
        ([[(0, "0.1")], [("0.2", "0.3")], [("0.25", "0.9")]], (1, 2), "[1/4, 3/10]"),
        ([[(0, "0.1"), ("0.5", "0.6")], [("0.2", "0.3")], [("0.55", "0.9")]], (0, 2), "[11/20, 3/5]"),
        # The overlapping span of portion 3 starts before portion 1's span.
        ([[(0, "0.1")], [("0.6", "0.7")], [("0.2", "0.3")], [("0.5", "0.65")]], (1, 3), "[3/5, 13/20]"),
    ],
)
def test_overlap_named_beyond_first_pair(portions, pair, shared):
    with pytest.raises(ValueError) as caught:
        Allocation([IntervalSet(p) for p in portions])
    assert str(caught.value) == "portions %d and %d overlap on IntervalSet(%s)" % (
        pair + (shared,)
    )


def test_touching_portions_allowed():
    a = alloc([(0, "0.5")], [("0.5", 1)])
    assert len(a) == 2


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        equity_table(HALVES, THREE_SPLIT)


def test_table_must_be_square():
    with pytest.raises(ValueError):
        EquityTable([[1, 0]])


def test_table_entries_must_be_exact():
    assert EquityTable([[1, "1/2"], [0, Fraction(1, 3)]]).entries == (
        (Fraction(1), Fraction(1, 2)),
        (Fraction(0), Fraction(1, 3)),
    )
    with pytest.raises(TypeError):
        EquityTable([[0.1]])


def test_efficiency_metrics_golden():
    agents = [uniform((0, "0.5")), uniform(("0.5", 1)), uniform((0, 1))]
    best = equity_table(agents, alloc([(0, "0.5")], [("0.5", 1)], []))
    assert utilitarian_efficiency(best) == 2
    assert egalitarian_efficiency(best) == 0
    fair = equity_table(agents, alloc([(0, "0.25")], [("0.75", 1)], [("0.25", "0.75")]))
    assert egalitarian_efficiency(fair) == Fraction(1, 2)
    assert utilitarian_efficiency(fair) == Fraction(3, 2)


def test_non_wasteful_examples():
    both = [Valuation.uniform(), Valuation.uniform()]
    assert is_non_wasteful(both, alloc([(0, 1)], []))
    skewed = [uniform((0, "0.1")), Valuation.uniform()]
    assert not is_non_wasteful(skewed, alloc([(0, 1)], []))


def test_utilitarian_equivalent():
    a = alloc([(0, "0.5")], [("0.5", 1)])
    b = alloc([(0, "0.25"), ("0.25", "0.5")], [("0.5", 1)])
    assert utilitarian_equivalent(HALVES, a, a)
    assert utilitarian_equivalent(HALVES, a, b)
    assert not utilitarian_equivalent(HALVES, a, alloc([], [("0.5", 1)]))


def random_full_allocations(n):
    """Full-cake allocations: every boundary point on a grid, cake fully handed out."""

    def build(cuts, owners):
        points = sorted(set(cuts) | {Fraction(0), Fraction(1)})
        portions = [[] for _ in range(n)]
        for lo, hi, owner in zip(points, points[1:], owners):
            portions[owner % n].append((lo, hi))
        return Allocation([IntervalSet(p) for p in portions])

    cut = st.integers(min_value=0, max_value=16).map(lambda k: Fraction(k, 16))
    return st.builds(
        build,
        st.lists(cut, min_size=0, max_size=5),
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=6, max_size=6),
    )


@settings(max_examples=300)
@given(
    st.lists(uniform_valuations(max_denominator=16), min_size=2, max_size=3),
    st.data(),
)
def test_envy_free_full_allocation_is_proportional(valuations, data):
    allocation = data.draw(random_full_allocations(len(valuations)))
    assert union_all(allocation.portions) == IntervalSet.unit()
    table = equity_table(valuations, allocation)
    if is_envy_free(table):
        assert is_proportional(table)


@settings(max_examples=200)
@given(
    st.lists(uniform_valuations(max_denominator=16), min_size=2, max_size=3),
    st.data(),
)
def test_row_sums_one_on_full_allocations(valuations, data):
    allocation = data.draw(random_full_allocations(len(valuations)))
    table = equity_table(valuations, allocation)
    for row in table.entries:
        assert sum(row) == 1


@settings(max_examples=200)
@given(
    st.lists(uniform_valuations(max_denominator=16), min_size=2, max_size=3),
    st.data(),
)
def test_scaled_egalitarian_never_beats_utilitarian(valuations, data):
    allocation = data.draw(random_full_allocations(len(valuations)))
    table = equity_table(valuations, allocation)
    n = len(valuations)
    assert n * egalitarian_efficiency(table) <= utilitarian_efficiency(table)


def check_overlap_sweep(portions):
    # Allocation accepts exactly the portion lists the all-pairs scan finds
    # disjoint, and refuses the others with the Fraction sweep's message.
    message = reference_overlap_error(portions)
    assert (message is None) == (pairwise_overlap(portions) is None)
    if message is None:
        assert Allocation(portions).portions == tuple(portions)
    else:
        with pytest.raises(ValueError) as caught:
            Allocation(portions)
        assert str(caught.value) == message


@pytest.mark.parametrize("kind", sorted(LARGE_DENOMINATORS))
@settings(max_examples=150)
@given(data=st.data())
def test_overlap_sweep_on_large_scales_matches_the_references(kind, data):
    portions = data.draw(st.one_of(
        near_partitions(point=large_scale_fractions(kind)),
        st.lists(large_scale_regions(kind), min_size=1, max_size=4),
    ))
    check_overlap_sweep(portions)


@settings(max_examples=400)
@given(near_partitions())
def test_overlap_sweep_matches_pairwise_oracle(portions):
    if pairwise_overlap(portions) is None:
        assert Allocation(portions).portions == tuple(portions)
        return
    with pytest.raises(ValueError) as caught:
        Allocation(portions)
    match = re.fullmatch(r"portions (\d+) and (\d+) overlap on (.*)", str(caught.value))
    i, j = int(match[1]), int(match[2])
    assert i < j and portions[i].overlaps(portions[j])
    assert match[3] == repr(portions[i].intersect(portions[j]))


@st.composite
def audited_allocations(draw, valuation=any_valuations(), point=query_points()):
    """Valuations and a disjoint allocation cut at piece boundaries and other points.

    Cells between consecutive cut points go to a random agent or to nobody,
    so portions may be empty, span several cells or touch piece boundaries.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    valuations = draw(st.lists(valuation, min_size=n, max_size=n))
    boundaries = sorted({x for v in valuations for piece in v.pieces for x in piece.interval})
    cuts = draw(st.lists(st.one_of(st.sampled_from(boundaries), point), max_size=8))
    points = sorted(set(cuts) | {Fraction(0), Fraction(1)})
    spans = [[] for _ in range(n)]
    for lo, hi in zip(points, points[1:]):
        owner = draw(st.integers(min_value=-1, max_value=n - 1))
        if owner >= 0:
            spans[owner].append((lo, hi))
    return valuations, Allocation([IntervalSet(s) for s in spans])


@settings(max_examples=300)
@given(audited_allocations())
def test_equity_table_matches_cell_by_cell_reference(case):
    valuations, allocation = case
    table = equity_table(valuations, allocation)
    assert table.entries == reference_equity_table(valuations, allocation)
    # Entries over gaps and one-span portions take their own paths; each
    # must be a Fraction, not merely a number that compares equal to one.
    assert all(type(entry) is Fraction for row in table.entries for entry in row)


def criteria(table):
    return {
        "proportional": is_proportional(table),
        "envy-free": is_envy_free(table),
        "equitable": is_equitable(table),
        "ue": utilitarian_efficiency(table),
        "ee": egalitarian_efficiency(table),
    }


def check_report(valuations, allocation):
    # Everything a report reads off the integer rows agrees with the cell by
    # cell Fractions: printed entries, criteria, UE and EE, the same table
    # built from those Fractions, and the waste check on regions.
    table = equity_table(valuations, allocation)
    reference = reference_equity_table(valuations, allocation)
    assert table.strings() == [[str(x) for x in row] for row in reference]
    expected = reference_criteria(reference)
    rebuilt = EquityTable(reference)
    for got in (criteria(table), criteria(rebuilt)):
        assert got == expected
        assert type(got["ue"]) is Fraction and type(got["ee"]) is Fraction
    assert rebuilt.entries == table.entries == reference
    assert rebuilt == table and hash(rebuilt) == hash(table)
    assert rebuilt.strings() == table.strings()
    assert is_non_wasteful(valuations, allocation) == reference_is_non_wasteful(
        valuations, allocation
    )


@settings(max_examples=300)
@given(audited_allocations())
def test_report_matches_the_fraction_reference(case):
    check_report(*case)


@pytest.mark.parametrize("kind", sorted(LARGE_DENOMINATORS))
@settings(max_examples=100)
@given(data=st.data())
def test_report_on_large_scales_matches_the_fraction_reference(kind, data):
    check_report(*data.draw(audited_allocations(
        large_scale_valuations(kind), large_scale_fractions(kind)
    )))


@settings(max_examples=200)
@given(st.lists(st.lists(query_points(), min_size=3, max_size=3), min_size=3, max_size=3))
def test_equity_table_round_trips_its_entries(rows):
    table = EquityTable(rows)
    assert table.entries == tuple(tuple(row) for row in rows)
    assert EquityTable(table.entries) == table
    assert table.strings() == [[str(x) for x in row] for row in rows]
    assert criteria(table) == reference_criteria(rows)


@pytest.mark.parametrize("valuations", [HALVES[:1], THREE_AGENTS], ids=["fewer", "more"])
@pytest.mark.parametrize("report", [equity_table, is_non_wasteful, pareto_oracle])
def test_reports_need_one_valuation_per_portion(report, valuations):
    with pytest.raises(ValueError, match="%d valuations but 2 portions" % len(valuations)):
        report(valuations, alloc([(0, "0.5")], [("0.5", 1)]))
