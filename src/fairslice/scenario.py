"""Scenario files: exact JSON in, one canonical JSON form out.

A scenario names its agents and their valuations, and may carry a strategy
profile or a ready-made allocation to audit.  Every number travels as an
exact token: a "p/q" string, an integer, or a decimal string like "0.4"
(converted exactly, so "0.1" means one tenth, not the nearest float).  Bare
JSON decimals are converted from their literal text for the same reason;
a float never exists at any point.

Parsing is strict and failures carry position where the decoder knows it:
syntax errors report line and column, structural errors name the offending
path.  Serializing normalizes pieces and reorders keys, after which the
text is a fixpoint: serialize(parse(text)) == text for canonical files.
"""

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from fairslice.audit import Allocation
from fairslice.intervals import IntervalSet
from fairslice.uniform import Profile
from fairslice.valuation import Valuation


class ParseError(ValueError):
    """Bad scenario text, with line/column when the decoder has them."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = "line %d column %d: %s" % (line, column, message)
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: agents plus optional profile and allocation."""

    version: str
    ids: tuple
    valuations: tuple
    profile: object = None
    allocation: object = None

    def __len__(self):
        return len(self.valuations)


# Fraction("1e999999999") builds 10**999999999 before anything can look at
# the result, so exponents are held to the interpreter's limit on integer
# digits, 4,300.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _exponent_out_of_range(text):
    match = _EXPONENT.search(text)
    if match is None:
        return False
    exponent = match.group(1).replace("_", "")
    return len(exponent) > _MAX_EXPONENT or abs(int(exponent)) > _MAX_EXPONENT


def _decimal_literal(text):
    # parse_float hook: bare JSON decimals, read exactly.
    if _exponent_out_of_range(text):
        raise ValueError("exponent beyond %d" % _MAX_EXPONENT)
    return Fraction(text)


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, str, Fraction)):
        raise ParseError("%s: expected an exact number token, got %r" % (path, value))
    if isinstance(value, str) and _exponent_out_of_range(value):
        raise ParseError(
            "%s: cannot read a number: exponent beyond %d" % (path, _MAX_EXPONENT)
        )
    try:
        if isinstance(value, str):  # "p/q" in digits skips Fraction's regex
            num, slash, den = value.partition("/")
            if slash and num.isdecimal() and den.isdecimal():
                return Fraction(int(num), int(den))
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        if len(value) > 40:  # only a string fails; a long one is shown by its ends
            value = "%s...%s, %d characters" % (value[:20], value[-12:], len(value))
        raise ParseError("%s: cannot read %r as a rational" % (path, value))


def _field(mapping, key, path):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError("%s: missing field %r" % (path, key))
    return mapping[key]


def _region(value, path):
    if not isinstance(value, list):
        raise ParseError("%s: expected a list of [lo, hi] pairs" % path)
    pairs = []
    for k, span in enumerate(value):
        if not isinstance(span, list) or len(span) != 2:
            raise ParseError("%s[%d]: expected a [lo, hi] pair" % (path, k))
        pairs.append((_number(span[0], path), _number(span[1], path)))
    try:
        return IntervalSet(pairs)
    except ValueError as error:
        raise ParseError("%s: %s" % (path, error))


# Each valuation type: the Valuation classmethod that builds it and the
# fields of a piece besides lo and hi, in the order the method takes them.
# The last field is the density's intercept, and the one before it, if any,
# its slope.
_TYPES = {
    "uniform": ("uniform_on", ()),
    "constant": ("piecewise_constant", ("value",)),
    "linear": ("piecewise_linear", ("slope", "intercept")),
}


def _valuation(spec, path):
    kind = _field(spec, "type", path)
    pieces = _field(spec, "pieces", path)
    if not isinstance(pieces, list) or not pieces:
        raise ParseError("%s.pieces: expected a non-empty list" % path)
    wheres = ["%s.pieces[%d]" % (path, k) for k in range(len(pieces))]
    spans = [
        (_number(_field(piece, "lo", where), where), _number(_field(piece, "hi", where), where))
        for piece, where in zip(pieces, wheres)
    ]
    if not isinstance(kind, str) or kind not in _TYPES:
        raise ParseError("%s.type: unknown valuation type %r" % (path, kind))
    method, fields = _TYPES[kind]
    if fields:
        spans = [
            (span, *(_number(_field(piece, name, where), where) for name in fields))
            for span, piece, where in zip(spans, pieces, wheres)
        ]
    try:
        return getattr(Valuation, method)(spans)
    except ValueError as error:
        raise ParseError("%s: %s" % (path, error))


def _per_agent(data, key, item, build, count):
    # The region list under key, one per agent, handed to build; None when
    # the scenario has no such list.
    if key not in data:
        return None
    rows = data[key]
    if not isinstance(rows, list) or len(rows) != count:
        raise ParseError("%s: expected one %s per agent" % (key, item))
    regions = [_region(row, "%s[%d]" % (key, k)) for k, row in enumerate(rows)]
    try:
        return build(regions)
    except ValueError as error:
        raise ParseError("%s: %s" % (key, error))


def parse_scenario(text):
    """Parse scenario text; raises ParseError on any defect."""
    try:
        data = json.loads(text, parse_float=_decimal_literal, parse_int=int)
    except json.JSONDecodeError as error:
        raise ParseError(error.msg, error.lineno, error.colno)
    except ValueError as error:
        # A number literal longer than Python converts from text, or with
        # an exponent out of range.
        raise ParseError("cannot read a number: %s" % error)
    except RecursionError:
        raise ParseError("nesting too deep")
    if not isinstance(data, dict):
        raise ParseError("top level: expected an object")

    agents = _field(data, "agents", "top level")
    if not isinstance(agents, list) or not agents:
        raise ParseError("agents: expected a non-empty list")
    ids = []
    valuations = []
    for k, agent in enumerate(agents):
        path = "agents[%d]" % k
        agent_id = _field(agent, "id", path)
        if not isinstance(agent_id, str):
            raise ParseError("%s.id: expected a string" % path)
        ids.append(agent_id)
        valuations.append(_valuation(_field(agent, "valuation", path), path))
    if len(set(ids)) != len(ids):
        raise ParseError("agents: ids are not unique")

    profile = _per_agent(data, "profile", "strategy", Profile, len(agents))
    allocation = _per_agent(data, "allocation", "portion", Allocation, len(agents))
    version = data.get("version", "1")
    return Scenario(str(version), tuple(ids), tuple(valuations), profile, allocation)


def region_pairs(region):
    """An IntervalSet as [[lo, hi], ...] with exact string endpoints."""
    return [[str(iv.lo), str(iv.hi)] for iv in region]


def _valuation_spec(valuation):
    if valuation.is_piecewise_uniform():
        # Read back as one region, which merges touching pieces: write it so.
        kind, rows = "uniform", [(iv, ()) for iv in valuation.support()]
    else:
        kind = "constant" if valuation.is_piecewise_constant() else "linear"
        rows = [(p.interval, (p.intercept, p.slope)) for p in valuation.pieces]
    fields = _TYPES[kind][1][::-1]
    return {
        "type": kind,
        "pieces": [
            {"lo": str(iv.lo), "hi": str(iv.hi), **{f: str(x) for f, x in zip(fields, values)}}
            for iv, values in rows
        ],
    }


def serialize_scenario(scenario):
    """Render a Scenario as canonical text: sorted keys, exact strings."""
    data = {
        "version": scenario.version,
        "agents": [
            {"id": agent_id, "valuation": _valuation_spec(valuation)}
            for agent_id, valuation in zip(scenario.ids, scenario.valuations)
        ],
    }
    for key in ("profile", "allocation"):
        regions = getattr(scenario, key)
        if regions is not None:
            data[key] = [region_pairs(region) for region in regions]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
