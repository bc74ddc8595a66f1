"""The core value types: immutable, compared and hashed by value, each
holding one form that only its own module reads."""

import ast
import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

import fairslice
from fairslice.audit import Allocation, EquityTable
from fairslice.intervals import Interval, IntervalSet
from fairslice.oracle import QueryRecord
from fairslice.uniform import AgentOrder, Profile, UniformPreference
from fairslice.valuation import Valuation

# Each builder makes a fresh instance equal to the last one it made.
BUILDERS = {
    "Interval": lambda: Interval(0, "1/2"),
    "IntervalSet": lambda: IntervalSet([("1/2", 1), (0, "1/3")]),
    "Valuation": lambda: Valuation.piecewise_constant([((0, "1/2"), 1), (("1/2", 1), 3)]),
    "UniformPreference": lambda: UniformPreference([(0, "1/2")]),
    "Profile": lambda: Profile([[(0, "1/2")], []]),
    "AgentOrder": lambda: AgentOrder([1, 0, 2]),
    "Allocation": lambda: Allocation([[(0, "1/2")], [("1/2", 1)]]),
    "EquityTable": lambda: EquityTable([[1, "1/2"], [0, 1]]),
    "QueryRecord": lambda: QueryRecord(0, "cut", (Fraction(0), Fraction(1, 2)), Fraction(1, 3)),
}


def field_names(value):
    # A named tuple lists its own fields; every other value is a dataclass.
    if isinstance(value, tuple):
        return value._fields
    return [field.name for field in dataclasses.fields(value)]


@pytest.mark.parametrize("build", BUILDERS.values(), ids=list(BUILDERS))
def test_refuses_attribute_assignment(build):
    value = build()
    for name in field_names(value):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    # Slotted instances have nowhere to keep a new name.  Python 3.11's
    # frozen slotted dataclasses refuse it with TypeError (a CPython defect
    # in their generated __setattr__), later versions with AttributeError.
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1


@pytest.mark.parametrize("build", BUILDERS.values(), ids=list(BUILDERS))
def test_equal_values_compare_and_hash_equal(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_different_values_compare_unequal():
    assert Interval(0, "1/2") != Interval(0, "1/3")
    assert IntervalSet([(0, "1/2")]) != IntervalSet([(0, "1/2"), ("3/4", 1)])
    assert Valuation.uniform() != Valuation.uniform_on([(0, "1/2")])
    assert Profile([[(0, 1)]]) != Profile([[]])
    assert AgentOrder([0, 1]) != AgentOrder([1, 0])
    assert Interval(0, 1) != IntervalSet([(0, 1)])


def test_region_reprs_feed_error_messages():
    assert repr(Interval(0, "1/2")) == "[0, 1/2]"
    assert repr(IntervalSet([(0, "1/3"), ("1/2", 1)])) == "IntervalSet([0, 1/3] u [1/2, 1])"
    assert repr(IntervalSet.empty()) == "IntervalSet(empty)"


# A valuation's integer arrays.  `_scale` is left out: a region has one too.
VALUATION_ARRAYS = {"_los", "_his", "_masses", "_poly"}


def test_each_form_is_read_in_its_own_module():
    # Outside valuation.py a valuation is read through its methods, and no
    # value keeps a ranking of its ends beside its own form.
    strays = []
    for path in sorted(Path(fairslice.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                name = node.attr
                if name in VALUATION_ARRAYS and path.name != "valuation.py":
                    strays.append("%s:%d reads %s" % (path.name, node.lineno, name))
            else:
                name = getattr(node, "id", None) or getattr(node, "value", None)
            if name == "_ranks":
                strays.append("%s:%d names _ranks" % (path.name, node.lineno))
    assert strays == []


def test_only_valuation_reads_a_density():
    # Every other module reads an agent's worth from the cumulative mass
    # (`masses_at`, `eval`, `measure`), never from a piece's density.
    strays = []
    for path in sorted(Path(fairslice.__file__).parent.glob("*.py")):
        if path.name == "valuation.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "density_at":
                strays.append("%s:%d reads density_at" % (path.name, node.lineno))
    assert strays == []


def test_only_audit_refuses_no_agents():
    # `audit._some` is the one refusal of an empty input; every other module
    # calls it rather than raising the error itself.
    strays = []
    for path in sorted(Path(fairslice.__file__).parent.glob("*.py")):
        if path.name == "audit.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                for part in ast.walk(node):
                    text = getattr(part, "value", None)
                    if isinstance(text, str) and "need at least one agent" in text:
                        strays.append("%s:%d raises it" % (path.name, node.lineno))
    assert strays == []


def _literal(node):
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def test_number_text_is_read_only_in_intervals():
    # `intervals._ratio` is the one reader of number text, behind the one
    # exponent bound: no other module builds a Fraction from one value that
    # is not a literal, or names the bound.
    strays = []
    for path in sorted(Path(fairslice.__file__).parent.glob("*.py")):
        if path.name == "intervals.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                args = node.args
                if callee == "Fraction" and len(args) == 1 and not node.keywords:
                    if not isinstance(args[0], ast.Starred) and not _literal(args[0]):
                        strays.append("%s:%d reads a Fraction" % (path.name, node.lineno))
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in ("_EXPONENT", "_MAX_EXPONENT"):
                strays.append("%s:%d names %s" % (path.name, node.lineno, name))
    assert strays == []
