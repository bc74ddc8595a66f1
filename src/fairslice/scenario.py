"""Scenario files: exact JSON in, one canonical JSON form out.

A scenario names its agents and their valuations, and may carry a strategy
profile or a ready-made allocation to audit.  Every number travels as an
exact token: a "p/q" string, an integer, or a decimal string like "0.4"
(converted exactly, so "0.1" means one tenth, not the nearest float).  Bare
JSON decimals are converted from their literal text for the same reason;
a float never exists at any point.

One token reader, `_token`, turns every number into an integer pair.  A
valuation's pairs go straight to the integers `Valuation.from_integers`
takes, piece ends over one scale and coefficients over another; a region
list's ends are scaled, checked and merged in integers by `intervals`.

Parsing is strict and failures carry position where the decoder knows it:
syntax errors report line and column, structural errors name the offending
path.  Serializing normalizes pieces and reorders keys, after which the
text is a fixpoint: serialize(parse(text)) == text for canonical files.
Scenarios and the CLI's JSON reports are written by one writer,
`json_text`, whose text is that of json.dumps(indent=2, sort_keys=True).
"""

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from fairslice.audit import Allocation
from fairslice.intervals import _scaled_pairs, _spans_region
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


def _token(value, path):
    # An exact number token as an integer pair (numerator, denominator > 0),
    # not necessarily reduced: a JSON integer, a Fraction from
    # `_decimal_literal`, a "p" or "p/q" of at most 40 ASCII digits with
    # q > 0, or any other string as Fraction reads it.
    if type(value) is str:
        if len(value) <= 40 and value.isascii():
            num, slash, den = value.partition("/")
            if num.isdigit() and (den.isdigit() or not slash):
                den = int(den) if slash else 1
                if den:
                    return int(num), den
        if _exponent_out_of_range(value):
            raise ParseError("%s: cannot read a number: exponent beyond %d" % (path, _MAX_EXPONENT))
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            if len(value) > 40:  # a long token is shown by its ends
                value = "%s...%s, %d characters" % (value[:20], value[-12:], len(value))
            raise ParseError("%s: cannot read %r as a rational" % (path, value))
    elif type(value) is int:
        return value, 1
    elif type(value) is not Fraction:
        raise ParseError("%s: expected an exact number token, got %r" % (path, value))
    return value.as_integer_ratio()


def _scaled_fields(pieces, keys, path):
    # The fields keys of every piece, piece by piece, as integers over one
    # scale (see `intervals._scaled`).  A piece's path is formatted only
    # for an error: a token that fails is read again under it.
    tokens = [piece.get(key) if type(piece) is dict else None for piece in pieces for key in keys]
    pairs = []
    for i, token in enumerate(tokens):
        try:
            pairs.append(_token(token, path))
        except ParseError:
            k, j = divmod(i, len(keys))
            where = "%s.pieces[%d]" % (path, k)
            pairs.append(_token(_field(pieces[k], keys[j], where), where))
    return _scaled_pairs(pairs)


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
        pairs += (_token(span[0], path), _token(span[1], path))
    ends, scale = _scaled_pairs(pairs)
    try:
        return _spans_region(ends[::2], ends[1::2], scale)
    except ValueError as error:
        raise ParseError("%s: %s" % (path, error))


# The fields of a piece besides lo and hi, per valuation type.  The last
# is the density's intercept, and the one before it, if any, its slope; a
# uniform piece has neither.
_TYPES = {
    "uniform": (),
    "constant": ("value",),
    "linear": ("slope", "intercept"),
}


def _valuation(spec, path):
    kind = _field(spec, "type", path)
    pieces = _field(spec, "pieces", path)
    if not isinstance(pieces, list) or not pieces:
        raise ParseError("%s.pieces: expected a non-empty list" % path)
    ends, scale = _scaled_fields(pieces, ("lo", "hi"), path)
    if not isinstance(kind, str) or kind not in _TYPES:
        raise ParseError("%s.type: unknown valuation type %r" % (path, kind))
    fields = _TYPES[kind]
    if fields:
        units, _ = _scaled_fields(pieces, fields, path)
        slopes = units[::2] if len(fields) == 2 else [0] * len(pieces)
        intercepts = units[len(fields) - 1 :: len(fields)]
    try:
        if not fields:
            return Valuation.uniform_on_spans(ends[::2], ends[1::2], scale)
        return Valuation.from_integers(ends[::2], ends[1::2], scale, slopes, intercepts)
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
    fields = _TYPES[kind][::-1]
    return {
        "type": kind,
        "pieces": [
            {"lo": str(iv.lo), "hi": str(iv.hi), **{f: str(x) for f, x in zip(fields, values)}}
            for iv, values in rows
        ],
    }


def json_text(value):
    """value as json.dumps(value, indent=2, sort_keys=True) writes it.

    value is built of dicts with string keys, lists, tuples, strings,
    integers, True, False and None.  A list of strings is written with one
    join.
    """
    parts = []
    _json_parts(value, "\n", parts)
    return "".join(parts)


def _json_parts(value, newline, parts):
    # Append value's text to parts; newline is a line break plus the
    # indentation of the line the value starts on.
    if type(value) is str:
        parts.append(_quote(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        if type(value[0]) is str:
            try:  # _quote refuses anything but a string
                parts.append("[" + inner + ("," + inner).join(map(_quote, value)) + newline + "]")
                return
            except TypeError:
                pass
        separator = "[" + inner
        for x in value:
            parts.append(separator)
            _json_parts(x, inner, parts)
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            parts.append(separator + _quote(key) + ": ")
            _json_parts(value[key], inner, parts)
            separator = "," + inner
        parts.append(newline + "}")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif value is None:
        parts.append("null")
    elif type(value) is int:
        parts.append(int.__repr__(value))
    else:
        parts.append(json.dumps(value))


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
    return json_text(data) + "\n"
