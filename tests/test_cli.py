"""Scenario files and the command-line front end: exact parsing, canonical
serialization, the seeded generator, and all six subcommands end to end."""

import contextlib
import copy
import csv
import io
import json
import subprocess
import sys
import unittest.mock
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairslice.cli
import fairslice.optimal
from fairslice.audit import Allocation
from fairslice.cli import MECHANISMS, QUERY_MECHANISMS, main
from fairslice.generator import GRID, random_uniform_agents
from fairslice.intervals import IntervalSet, _exponent_out_of_range, frac
from fairslice.scenario import (
    ParseError,
    Scenario,
    _scaled_fields,
    _token,
    json_text,
    parse_scenario,
    region_pairs,
    serialize_scenario,
)
from fairslice.simplex import INFEASIBLE, LpSolution
from fairslice.uniform import Profile
from fairslice.valuation import Valuation
from helpers import (
    LARGE_DENOMINATORS,
    any_valuations,
    large_scale_regions,
    large_scale_valuations,
    query_points,
)

F = Fraction


def agent(agent_id, *pairs):
    return {
        "id": agent_id,
        "valuation": {
            "type": "uniform",
            "pieces": [{"lo": lo, "hi": hi} for lo, hi in pairs],
        },
    }


def text_of(agents, **extra):
    return json.dumps({"agents": agents, **extra})


HALVES = text_of([agent("left", (0, "1/2")), agent("right", ("1/2", 1))])
OVERLAP = text_of([agent("a", (0, "2/3")), agent("b", ("1/3", 1))])
DISJOINT = text_of(
    [agent("a", (0, "1/3")), agent("b", ("1/3", "2/3")), agent("c", ("2/3", 1))]
)
WALKTHROUGH = text_of([agent("a", (0, 1)), agent("b", ("2/5", 1)), agent("c", ("4/5", 1))])
POP4 = text_of(
    [
        agent("p", (0, "1/2")),
        agent("q", ("1/2", 1)),
        agent("r", (0, 1)),
        agent("s", (0, 1)),
    ]
)
RAMP = text_of(
    [
        {
            "id": "ramp",
            "valuation": {
                "type": "linear",
                "pieces": [{"lo": 0, "hi": 1, "slope": 2, "intercept": 0}],
            },
        },
        agent("flat", (0, 1)),
    ]
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, text, name="scenario.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# parsing


def test_parse_halves():
    scenario = parse_scenario(HALVES)
    assert len(scenario) == 2
    assert scenario.ids == ("left", "right")
    assert scenario.version == "1"
    assert scenario.valuations[0].support().pairs() == [(F(0), F(1, 2))]
    assert scenario.valuations[1].support().pairs() == [(F(1, 2), F(1))]
    assert scenario.profile is None and scenario.allocation is None


def test_parse_number_forms_are_exact():
    # "p/q" strings, decimal strings, bare integers, and bare JSON decimals
    # all land on the same exact rational; no float is ever involved.
    scenario = parse_scenario(
        text_of([agent("a", ("0.1", "3/10"), (0.5, 1))])
    )
    assert scenario.valuations[0].support().pairs() == [
        (F(1, 10), F(3, 10)),
        (F(1, 2), F(1)),
    ]


def test_parse_rejects_boolean_numbers():
    bad = text_of([agent("a", (True, 1))])
    with pytest.raises(ParseError, match="agents\\[0\\].*exact number token"):
        parse_scenario(bad)


def test_profile_entry_that_is_not_a_list_exits_2(tmp_path, capsys):
    path = write(tmp_path, text_of([agent("a", (0, 1))], profile=[5]))
    code, out, err = run_cli(capsys, "equilibrium", path)
    assert (code, out) == (2, "")
    assert err == "error: profile[0]: expected a list of [lo, hi] pairs\n"


def pieces_of(valuation):
    return [{"id": "a", "valuation": valuation}]


@pytest.mark.parametrize(
    "text,message",
    [
        (
            text_of([agent("a", (0, 1))], profile=[[["1/2", "1/3"]]]),
            "profile[0]: need 0 <= lo <= hi <= 1, got [1/2, 1/3]",
        ),
        (
            text_of([agent("a", (0, 1))], allocation=[[["1/2", "1/3"]]]),
            "allocation[0]: need 0 <= lo <= hi <= 1, got [1/2, 1/3]",
        ),
        (
            text_of(pieces_of({"type": "uniform", "pieces": []})),
            "agents[0].pieces: expected a non-empty list",
        ),
        (
            text_of(pieces_of({"type": "uniform", "pieces": {}})),
            "agents[0].pieces: expected a non-empty list",
        ),
        (
            text_of(pieces_of({"type": ["uniform"], "pieces": [{"lo": 0, "hi": 1}]})),
            "agents[0].type: unknown valuation type ['uniform']",
        ),
    ],
)
def test_scenario_error_names_its_path(tmp_path, capsys, text, message):
    code, out, err = run_cli(capsys, "equilibrium", write(tmp_path, text))
    assert (code, out) == (2, "")
    assert err == "error: %s\n" % message


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as caught:
        parse_scenario('{\n  "agents": [,]\n}')
    assert caught.value.line == 2
    assert caught.value.column is not None
    assert str(caught.value).startswith("line 2 column")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[]", "top level"),
        ('{"agents": []}', "non-empty list"),
        (text_of([agent("a", (0, 1)), agent("a", (0, 1))]), "not unique"),
        (
            text_of([{"id": "a", "valuation": {"type": "triangular", "pieces": [{"lo": 0, "hi": 1}]}}]),
            "unknown valuation type",
        ),
        (text_of([{"id": "a", "valuation": {"type": "uniform"}}]), "missing field 'pieces'"),
        (
            text_of([{"id": "a", "valuation": {"type": "constant", "pieces": [{"lo": 0, "hi": 1}]}}]),
            "missing field 'value'",
        ),
        (text_of([agent("a", (0, 1))], profile=[["0", "1"]]), "expected a \\[lo, hi\\] pair"),
        (text_of([agent("a", (0, 1))], profile=[[["0", "1"]], [["0", "1"]]]), "one strategy per agent"),
        (
            text_of(
                [agent("a", (0, 1)), agent("b", (0, 1))],
                allocation=[[["0", "3/4"]], [["1/2", "1"]]],
            ),
            "allocation",
        ),
        (text_of([agent("a", ("1/2", "1/3"))]), "agents\\[0\\]"),
    ],
)
def test_parse_semantic_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment) as caught:
        parse_scenario(text)
    assert caught.value.line is None
    assert not str(caught.value).startswith("line")


# ----------------------------------------------------------------------
# canonical serialization


MIXED = text_of(
    [
        agent("u", ("0.25", "0.5")),
        {
            "id": "c",
            "valuation": {
                "type": "constant",
                "pieces": [
                    {"lo": 0, "hi": "1/2", "value": "0.5"},
                    {"lo": "1/2", "hi": 1, "value": "3/2"},
                ],
            },
        },
        {
            "id": "l",
            "valuation": {
                "type": "linear",
                "pieces": [{"lo": 0, "hi": 1, "slope": 2, "intercept": 0}],
            },
        },
    ],
    profile=[[["0", "1/4"]], [["1/4", "1/2"]], [["1/2", "1"]]],
    allocation=[[["0", "1/4"]], [["1/4", "1/2"]], [["1/2", "1"]]],
)


# Equal touching steps: the valuation is uniform, and is written as one piece.
FLAT_STEPS = text_of([
    {
        "id": "c",
        "valuation": {
            "type": "constant",
            "pieces": [{"lo": 0, "hi": "1/8", "value": 1}, {"lo": "1/8", "hi": "1/4", "value": 1}],
        },
    },
])


@pytest.mark.parametrize("text", [HALVES, OVERLAP, WALKTHROUGH, MIXED, FLAT_STEPS])
def test_serialize_parse_fixpoint(text):
    once = serialize_scenario(parse_scenario(text))
    again = serialize_scenario(parse_scenario(once))
    assert once == again
    assert once.endswith("\n")


def test_serialize_normalizes_decimals():
    out = serialize_scenario(parse_scenario(text_of([agent("a", ("0.5", 1))])))
    assert '"1/2"' in out
    assert "0.5" not in out


def test_serialize_keeps_profile_and_allocation():
    rebuilt = parse_scenario(serialize_scenario(parse_scenario(MIXED)))
    assert rebuilt.profile is not None and rebuilt.allocation is not None
    assert region_pairs(rebuilt.allocation[2]) == [["1/2", "1"]]


def _rewritten(valuation):
    # The valuation read back from the canonical text of a one-agent scenario.
    text = serialize_scenario(Scenario("1", ("a",), (valuation,)))
    return parse_scenario(text).valuations[0]


@settings(max_examples=150, deadline=None)
@given(st.data())
@pytest.mark.parametrize("kind", ["grid", *LARGE_DENOMINATORS])
def test_reader_rebuilds_the_valuation_the_writer_wrote(kind, data):
    v = data.draw(any_valuations() if kind == "grid" else large_scale_valuations(kind))
    rebuilt = _rewritten(v)
    # A piecewise-uniform valuation is written as its support, which merges
    # touching pieces; anything else is written piece by piece.
    expected = Valuation.uniform_on(v.support()) if v.is_piecewise_uniform() else v
    assert rebuilt == expected
    for name in ("_los", "_his", "_scale", "_masses", "_poly"):
        assert getattr(rebuilt, name) == getattr(expected, name), name
    assert rebuilt.pieces == expected.pieces
    assert rebuilt.support() == v.support()
    a, b = sorted(data.draw(st.lists(query_points(), min_size=2, max_size=2)))
    assert rebuilt.eval(a, b) == v.eval(a, b)
    target = v.eval(a, 1) * data.draw(st.sampled_from([0, F(1, 3), F(1, 2), 1]))
    assert rebuilt.cut(a, target) == v.cut(a, target)


@pytest.mark.parametrize(
    "token, read",
    [
        ("1" + "0" * 30 + "/2" + "0" * 30, F(1, 2)),
        ("1" * 41 + "/0", "cannot read '11111111111111111111...1111111111/0, 43 characters'"),
        ("1/0", "cannot read '1/0' as a rational"),
        (" 1/2", F(1, 2)),
        ("+1/2", F(1, 2)),
        ("1e3/2", "cannot read '1e3/2' as a rational"),
        ("\u0661/\u0662", F(1, 2)),
    ],
)
def test_reader_tokens_off_the_integer_path(token, read):
    # Tokens that are not a short "p/q" in ASCII digits with q > 0 are read
    # as Fraction reads them, or refused with the token in the message.
    text = text_of([agent("a", (0, token))])
    if isinstance(read, Fraction):
        assert parse_scenario(text).valuations[0].support().pairs() == [(0, read)]
    else:
        with pytest.raises(ParseError) as raised:
            parse_scenario(text)
        assert str(raised.value).startswith("agents[0].pieces[0]: " + read)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(), st.text(alphabet="0123456789\u0663/_-+.e ", max_size=12)))
@example("0/7")
@example("007/010")
@example("1/0")
@example("5/")
def test_piece_fields_read_tokens_as_number_does(token):
    # The integer path of the reader agrees with `_token`, refusals included.
    pieces = [{"v": token}, {"v": "1/3"}]
    try:
        expected = Fraction(*_token(token, "x.pieces[0]"))
    except ParseError as error:
        with pytest.raises(ParseError) as raised:
            _scaled_fields(pieces, ("v",), "x")
        assert str(raised.value) == str(error)
    else:
        (num, third), scale = _scaled_fields(pieces, ("v",), "x")
        assert (Fraction(num, scale), Fraction(third, scale)) == (expected, Fraction(1, 3))


@pytest.mark.parametrize(
    "token, read",
    [
        ("1" + "0" * 30 + "/2" + "0" * 30, F(1, 2)),
        ("1" * 41 + "/0", "cannot read '11111111111111111111...1111111111/0, 43 characters'"),
        ("1/0", "cannot read '1/0' as a rational"),
        (" 1/2", F(1, 2)),
        ("+1/2", F(1, 2)),
        ("1e3/2", "cannot read '1e3/2' as a rational"),
        ("\u0661/\u0662", F(1, 2)),
    ],
)
def test_profile_endpoints_read_tokens_as_pieces_do(token, read):
    # The tokens of test_reader_tokens_off_the_integer_path, as a claim's
    # right end: one token reader serves region lists and pieces alike.
    text = text_of([agent("a", (0, 1))], profile=[[[0, token]]])
    if isinstance(read, Fraction):
        assert parse_scenario(text).profile[0].pairs() == [(0, read)]
    else:
        with pytest.raises(ParseError) as raised:
            parse_scenario(text)
        assert str(raised.value).startswith("profile[0]: " + read)


def _token_forms(x):
    # Every JSON token that reads as x: "p/q", an integer, and a decimal
    # string or bare decimal when x has a finite decimal expansion.
    forms = ['"%s"' % x]
    if x.denominator == 1:
        forms.append(str(x))
    decimal = str(Decimal(x.numerator) / Decimal(x.denominator))
    if "." in decimal and Fraction(decimal) == x:
        forms += ['"%s"' % decimal, decimal]
    return forms


# Ends on a coarse grid, so that spans often overlap, touch or have zero
# length, now and then just outside the cake.
REGION_ENDS = st.sampled_from(
    [F(k, 8) for k in range(9)] * 3 + [F(1, 3), F(3, 40)] * 3 + [F(-1, 8), F(9, 8)]
)
SORTED_SPAN = st.tuples(REGION_ENDS, REGION_ENDS).map(lambda pair: tuple(sorted(pair)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(SORTED_SPAN, SORTED_SPAN, st.tuples(REGION_ENDS, REGION_ENDS)), max_size=5),
    st.data(),
)
def test_region_reader_matches_interval_set(spans, data):
    # A profile entry reads as IntervalSet(pairs) reads the same spans,
    # whatever their order and form, or fails with its error.
    tokens = ["[%s, %s]" % tuple(data.draw(st.sampled_from(_token_forms(x))) for x in span)
              for span in spans]
    text = text_of([agent("a", (0, 1))], profile=["ENTRY"])
    text = text.replace('"ENTRY"', "[%s]" % ", ".join(tokens))
    try:
        expected = IntervalSet(spans)
    except ValueError as error:
        with pytest.raises(ParseError) as raised:
            parse_scenario(text)
        assert str(raised.value) == "profile[0]: %s" % error
    else:
        assert parse_scenario(text).profile[0] == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
@pytest.mark.parametrize("kind", sorted(LARGE_DENOMINATORS))
def test_reader_rebuilds_the_regions_the_writer_wrote(kind, data):
    claims = data.draw(st.lists(large_scale_regions(kind), min_size=1, max_size=4))
    portions, taken = [], IntervalSet.empty()
    for claim in claims:
        portions.append(claim.difference(taken))
        taken = taken.union(claim)
    ids = tuple("a%d" % k for k in range(len(claims)))
    valuations = (Valuation.uniform(),) * len(claims)
    scenario = Scenario("1", ids, valuations, Profile(claims), Allocation(portions))
    text = serialize_scenario(scenario)
    rebuilt = parse_scenario(text)
    assert list(rebuilt.profile) == claims
    assert list(rebuilt.allocation) == portions
    assert serialize_scenario(rebuilt) == text


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({"": [], "\u00e9\x00": {"\n": [[], {}, [[]]]}, "z": {}})
@example([-12345678901234567890, 0, 7, True, False, None, "\u2028\x1f\"\\"])
@example({"\U0001f370": ["", "\x7f", "caf\u00e9"], "k": [["a"], [1, "b"]]})
@example([])
@example({})
def test_json_text_is_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# generator


def test_generator_is_deterministic():
    first = random_uniform_agents(7, 5)
    second = random_uniform_agents(7, 5)
    assert [v.support().pairs() for v in first] == [v.support().pairs() for v in second]


def test_generator_respects_grid():
    for seed in range(10):
        for valuation in random_uniform_agents(seed, 4):
            support = valuation.support()
            assert not support.is_empty()
            assert 1 <= len(support.pairs()) <= 4
            for lo, hi in support.pairs():
                assert (lo * GRID).denominator == 1
                assert (hi * GRID).denominator == 1


def test_generator_seed_changes_output():
    pairs = lambda seed: [v.support().pairs() for v in random_uniform_agents(seed, 6)]
    assert pairs(0) != pairs(1)


# ----------------------------------------------------------------------
# run


def test_run_last_diminisher_walkthrough(tmp_path, capsys):
    path = write(tmp_path, WALKTHROUGH)
    code, out, _ = run_cli(capsys, "run", path, "--mechanism", "last-diminisher")
    assert code == 0
    report = json.loads(out)
    assert report["agents"] == ["a", "b", "c"]
    assert report["allocation"] == [[["0", "1/3"]], [["1/3", "3/5"]], [["3/5", "1"]]]
    assert report["equity_table"] == [
        ["1/3", "4/15", "2/5"],
        ["0", "1/3", "2/3"],
        ["0", "0", "1"],
    ]
    assert report["criteria"] == {
        "proportional": True,
        "envy-free": False,
        "equitable": False,
        "non-wasteful": False,
    }
    assert report["ue"] == "5/3" and report["ee"] == "1/3"
    assert report["queries"] == {"total": 8, "eval": 6, "cut": 2}


def test_run_min_average_on_disjoint_preferences(tmp_path, capsys):
    path = write(tmp_path, DISJOINT)
    code, out, _ = run_cli(
        capsys, "run", path, "--mechanism", "procaccia",
        "--expect-proportional", "--expect-envy-free", "--expect-equitable",
    )
    assert code == 0
    report = json.loads(out)
    assert report["allocation"] == [[["0", "1/3"]], [["1/3", "2/3"]], [["2/3", "1"]]]
    assert report["ue"] == "3"
    assert "queries" not in report


def test_run_length_game_ue_matches_optimal(tmp_path, capsys):
    path = write(tmp_path, OVERLAP)
    code, played, _ = run_cli(capsys, "run", path, "--mechanism", "length-game")
    assert code == 0
    code, best, _ = run_cli(capsys, "optimal", path)
    assert code == 0
    assert json.loads(played)["ue"] == json.loads(best)["ue"] == "3/2"


def test_run_expectation_failure_exits_1(tmp_path, capsys):
    path = write(tmp_path, HALVES)
    code, out, err = run_cli(
        capsys, "run", path, "--mechanism", "cut-and-choose", "--expect-equitable"
    )
    assert code == 1
    assert "expectation failed: equitable" in err
    assert json.loads(out)["criteria"]["equitable"] is False


def test_failed_expectation_after_bisected_cuts_says_so(tmp_path, capsys):
    # The ramp's half-value cut has an irrational root, so it is bisected;
    # the chooser then takes the slightly larger left slice and the ramp
    # envies it.  The note goes to stderr only: stdout and the exit code
    # are those of the same run without it.
    path = write(tmp_path, RAMP)
    argv = ("run", path, "--mechanism", "cut-and-choose")
    code, out, err = run_cli(capsys, *argv, "--expect-envy-free")
    assert code == 1
    assert err.splitlines() == [
        "note: 1 of 1 cuts were bisected to within 1/1000000000000, not solved exactly",
        "expectation failed: envy-free",
    ]
    assert run_cli(capsys, *argv) == (0, out, "")
    # Exact cuts leave no note.
    code, _, err = run_cli(
        capsys, "run", write(tmp_path, HALVES, "halves.json"), "--mechanism", "cut-and-choose",
        "--expect-equitable",
    )
    assert code == 1 and err == "expectation failed: equitable\n"


def ramp_then_flat(agent_id, flat):
    pieces = [
        {"lo": 0, "hi": "1/2", "slope": 1, "intercept": 1},
        {"lo": "1/2", "hi": 1, "slope": 0, "intercept": flat},
    ]
    return {"id": agent_id, "valuation": {"type": "linear", "pieces": pieces}}


def bisecting_selfridge(flats):
    # Three agents whose selfridge run bisects some cuts: uniform where
    # flat is None, else a ramp on [0, 1/2] and that flat density after it.
    return text_of([
        agent(name, (0, 1)) if flat is None else ramp_then_flat(name, flat)
        for name, flat in zip("abc", flats)
    ])


BISECTED_FLATS = [
    (None, "1374999999999991/1500000000000000", None),
    (None, "1374999999991/1500000000000", "1374999999991/1500000000000"),
]


@pytest.mark.parametrize(
    "flats, bisected, cuts", [(BISECTED_FLATS[0], 1, 3), (BISECTED_FLATS[1], 3, 5)]
)
def test_selfridge_with_bisected_cuts_reports_instead_of_crashing(tmp_path, capsys, flats, bisected, cuts):
    # Bisected cuts used to land past the slice they trim, and the run
    # ended in a traceback on overlapping or reversed portions.
    argv = ("run", write(tmp_path, bisecting_selfridge(flats)), "--mechanism", "selfridge")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out)["queries"]["cut"] == cuts
    code, again, err = run_cli(capsys, *argv, "--expect-envy-free")
    assert code == 1 and again == out
    assert err.splitlines() == [
        "note: %d of %d cuts were bisected to within 1/1000000000000, not solved exactly"
        % (bisected, cuts),
        "expectation failed: envy-free",
    ]


def test_run_expectations_pass_exit_0(tmp_path, capsys):
    path = write(tmp_path, HALVES)
    code, _, err = run_cli(
        capsys, "run", path, "--mechanism", "cut-and-choose",
        "--expect-proportional", "--expect-envy-free",
    )
    assert code == 0 and err == ""


def test_run_arity_mismatch_exits_2(tmp_path, capsys):
    path = write(tmp_path, HALVES)
    code, out, err = run_cli(capsys, "run", path, "--mechanism", "selfridge")
    assert code == 2 and out == ""
    assert "error:" in err and "3" in err


def test_run_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(HALVES))
    code, out, _ = run_cli(capsys, "run", "-", "--mechanism", "cut-and-choose")
    assert code == 0
    assert json.loads(out)["criteria"]["envy-free"] is True


def test_run_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "run", str(tmp_path / "absent.json"), "--mechanism", "even-paz"
    )
    assert code == 2 and "error:" in err


def test_run_bad_json_exits_2_with_position(tmp_path, capsys):
    path = write(tmp_path, '{\n  "agents": [,]\n}')
    code, _, err = run_cli(capsys, "run", path, "--mechanism", "even-paz")
    assert code == 2
    assert "line 2 column" in err


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_run_input_that_is_not_utf8_exits_2(tmp_path, capsys, monkeypatch, source):
    # A file and standard input are decoded alike, as strict UTF-8.
    data = b'{"agents": \xff}'
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        path = "-"
    code, out, err = run_cli(capsys, "run", str(path), "--mechanism", "even-paz")
    assert (code, out) == (2, "")
    assert err == "error: input is not UTF-8: invalid start byte at byte 11\n"


def test_run_reads_utf8_bytes_from_stdin(capsys, monkeypatch):
    text = HALVES.replace('"left"', '"caf\u00e9"')
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode("utf-8"))))
    code, out, _ = run_cli(capsys, "run", "-", "--mechanism", "cut-and-choose")
    assert code == 0
    assert json.loads(out)["agents"] == ["caf\u00e9", "right"]


def test_run_overlong_integer_exits_2(tmp_path, capsys):
    # Python refuses to convert integer text of more than 4,300 digits.
    text = text_of([agent("a", (0, "HUGE"))]).replace('"HUGE"', "1" + "0" * 4400)
    path = write(tmp_path, text)
    code, out, err = run_cli(capsys, "run", path, "--mechanism", "even-paz")
    assert code == 2 and out == ""
    assert "cannot read a number" in err


def test_run_overlong_string_token_exits_2(tmp_path, capsys):
    # int() refuses the numerator inside the reader, and the message quotes
    # the token by its ends and its length.
    text = text_of([agent("a", (0, "1" + "0" * 4400 + "/3"))])
    path = write(tmp_path, text)
    code, out, err = run_cli(capsys, "run", path, "--mechanism", "even-paz")
    assert code == 2 and out == ""
    assert "cannot read '10000" in err and "4403 characters" in err
    assert len(err) < 200


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789\u0663/_-.e ", max_size=10))
@example("0/0")
@example("1/0")
@example("007/010")
@example("\u0663/4")
def test_number_reads_string_tokens_as_fraction_does(text):
    # The library's `frac` reads each text as the scenario reader does.
    if _exponent_out_of_range(text):
        # Refused before Fraction would build 10**exponent.
        with pytest.raises(ParseError, match="exponent beyond"):
            _token(text, "x")
        with pytest.raises(ValueError, match="exponent beyond"):
            frac(text)
        return
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError, match="cannot read"):
            _token(text, "x")
        with pytest.raises((ValueError, ZeroDivisionError)):
            frac(text)
    else:
        assert Fraction(*_token(text, "x")) == expected
        assert frac(text) == expected


@pytest.mark.parametrize(
    "token",
    ["1e999999999", "1e-999999999", "1.5E+4301", '"1e999999999"', '"1E-999999999"', '"1e1_000_000"'],
)
def test_parse_rejects_out_of_range_exponents(token):
    # Fraction would build 10**exponent first; the bound refuses it.
    text = text_of([agent("a", (0, "HUGE"))]).replace('"HUGE"', token)
    with pytest.raises(ParseError, match="cannot read a number: exponent beyond 4300"):
        parse_scenario(text)


def test_parse_keeps_exponents_within_range():
    text = text_of([agent("a", ("2.5e-1", "TOKEN"))]).replace('"TOKEN"', "5E-1")
    assert parse_scenario(text).valuations[0].support().pairs() == [(F(1, 4), F(1, 2))]
    text = text_of([agent("a", (0, "1e-4300"))])
    assert parse_scenario(text).valuations[0].support().pairs() == [(0, F(1, 10**4300))]


@pytest.mark.parametrize("token", ["1e999999999", '"1e-999999999"'])
def test_run_out_of_range_exponent_exits_2(tmp_path, capsys, token):
    text = text_of([agent("a", (0, "HUGE"))]).replace('"HUGE"', token)
    path = write(tmp_path, text)
    code, out, err = run_cli(capsys, "run", path, "--mechanism", "even-paz")
    assert code == 2 and out == ""
    assert "cannot read a number" in err


TINY_STEP = text_of(
    [
        {
            "id": "step",
            "valuation": {
                "type": "constant",
                "pieces": [{"lo": 0, "hi": "1e-4300", "value": 1}],
            },
        },
        agent("flat", (0, 1)),
    ]
)


@pytest.mark.parametrize(
    "text,argv",
    [
        (text_of([agent("a", (0, 1))], allocation=[[["1e-4300", "1e-4299"]]]), ["audit"]),
        (TINY_STEP, ["run", "--mechanism", "even-paz"]),
        (TINY_STEP, ["optimal"]),
        (TINY_STEP, ["pof", "--criterion", "proportional"]),
    ],
    ids=["audit", "run", "optimal", "pof"],
)
def test_result_past_the_digit_limit_exits_2(tmp_path, capsys, text, argv):
    # Every input number is within range, but the report needs a
    # denominator of 4,301 digits, which Python will not turn into text.
    path = write(tmp_path, text)
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: cannot write a number of more than 4300 digits\n"


def test_traced_lp_past_the_digit_limit_exits_2(tmp_path, capsys):
    # The pivot trace itself needs the 4,301-digit density; the error ends
    # the trace instead of passing for an unsupported valuation class.
    path = write(tmp_path, TINY_STEP)
    code, out, err = run_cli(
        capsys, "optimal", path, "--criterion", "equitable", "--verbose-lp"
    )
    assert (code, out) == (2, "")
    assert err.startswith("pivot ")
    assert err.endswith("\nerror: cannot write a number of more than 4300 digits\n")


def test_run_deep_nesting_exits_2(tmp_path, capsys):
    path = write(tmp_path, "[" * 100000)
    code, out, err = run_cli(capsys, "run", path, "--mechanism", "even-paz")
    assert code == 2 and out == ""
    assert "nesting too deep" in err


def test_run_report_reproducible(tmp_path, capsys):
    path = write(tmp_path, WALKTHROUGH)
    argv = ("run", path, "--mechanism", "last-diminisher")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("agent_id", [[1], 7, None])
def test_run_non_string_id_exits_2(tmp_path, capsys, agent_id):
    path = write(tmp_path, text_of([agent(agent_id, (0, 1))]))
    code, out, err = run_cli(capsys, "run", path, "--mechanism", "procaccia")
    assert code == 2 and out == ""
    assert "agents[0].id: expected a string" in err


@pytest.mark.parametrize(
    "version",
    ["[1]", '{"major": 1}', "true", "null", "1.5", "1e4300"],
    ids=["list", "object", "bool", "null", "decimal", "long-decimal"],
)
def test_run_version_of_another_kind_exits_2(tmp_path, capsys, version):
    # A version is a JSON string or integer.  Anything else was once read
    # through str(): [1] came back as "[1]", and 1e4300 failed as a number
    # too long to write.
    text = text_of([agent("a", (0, 1))], version="V").replace('"V"', version)
    with pytest.raises(ParseError, match="^version: expected a string or an integer$"):
        parse_scenario(text)
    code, out, err = run_cli(capsys, "run", write(tmp_path, text), "--mechanism", "even-paz")
    assert (code, out) == (2, "")
    assert err == "error: version: expected a string or an integer\n"


@pytest.mark.parametrize("version", ['"2"', "2"])
def test_parse_reads_a_string_or_integer_version(version):
    text = text_of([agent("a", (0, 1))], version="V").replace('"V"', version)
    scenario = parse_scenario(text)
    assert scenario.version == "2"
    assert json.loads(serialize_scenario(scenario))["version"] == "2"


def test_run_revelation_needs_uniform_agents(tmp_path, capsys):
    path = write(tmp_path, RAMP)
    code, _, err = run_cli(capsys, "run", path, "--mechanism", "length-game")
    assert code == 2 and "piecewise-uniform" in err


@pytest.mark.parametrize("mechanism", ["lex-order", "length-game"])
def test_run_explicit_profile_still_needs_uniform_agents(tmp_path, capsys, mechanism):
    path = write(tmp_path, json.dumps({**json.loads(RAMP), "profile": [[[0, 1]], []]}))
    code, out, err = run_cli(capsys, "run", path, "--mechanism", mechanism)
    assert (code, out) == (2, "") and "piecewise-uniform" in err


def test_run_procaccia_ignores_a_point_step(tmp_path, capsys):
    # A zero-length step of another value carries no mass, so agent a stays
    # piecewise uniform and the report is the one without the step.
    def scenario(*steps):
        pieces = [{"lo": lo, "hi": hi, "value": value} for lo, hi, value in steps]
        return text_of(
            [
                {"id": "a", "valuation": {"type": "constant", "pieces": pieces}},
                agent("b", ("1/4", 1)),
            ]
        )

    pointed = write(tmp_path, scenario((0, "1/2", 1), ("1/2", "1/2", 5)), "pointed.json")
    plain = write(tmp_path, scenario((0, "1/2", 1)), "plain.json")
    code, out, err = run_cli(capsys, "run", pointed, "--mechanism", "procaccia")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "run", plain, "--mechanism", "procaccia")[1]


def test_run_procaccia_on_23_agents_exits_0(tmp_path, capsys):
    # One more agent than the exhaustive group search used to take.
    path = write(tmp_path, text_of([agent("a%d" % k, (0, 1)) for k in range(23)]))
    code, out, err = run_cli(capsys, "run", path, "--mechanism", "procaccia", "--expect-envy-free")
    assert (code, err) == (0, "")
    allocation = json.loads(out)["allocation"]
    assert allocation == [[[str(F(k, 23)), str(F(k + 1, 23))]] for k in range(23)]


def test_run_csv_and_table_formats(tmp_path, capsys):
    path = write(tmp_path, HALVES)
    _, out, _ = run_cli(
        capsys, "run", path, "--mechanism", "cut-and-choose", "--format", "csv"
    )
    lines = out.splitlines()
    assert lines[0] == "field,value"
    assert "envy-free,true" in lines
    _, out, _ = run_cli(
        capsys, "run", path, "--mechanism", "cut-and-choose", "--format", "table"
    )
    assert "agent left:" in out and "criteria:" in out and "queries:" in out


# ----------------------------------------------------------------------
# audit


def test_audit_envy_free_but_not_proportional(tmp_path, capsys):
    # One agent gets nothing, the other its whole region: no envy, yet the
    # empty-handed agent is below the 1/n guarantee.
    scenario = json.loads(HALVES)
    scenario["allocation"] = [[], [["1/2", "1"]]]
    path = write(tmp_path, json.dumps(scenario))
    code, out, _ = run_cli(capsys, "audit", path)
    assert code == 0
    report = json.loads(out)
    assert report["criteria"]["envy-free"] is True
    assert report["criteria"]["proportional"] is False
    code, _, err = run_cli(capsys, "audit", path, "--expect-proportional")
    assert code == 1 and "proportional" in err


def test_audit_without_allocation_exits_2(tmp_path, capsys):
    path = write(tmp_path, HALVES)
    code, _, err = run_cli(capsys, "audit", path)
    assert code == 2 and "allocation" in err


def test_audit_reproduces_run_flags(tmp_path, capsys):
    path = write(tmp_path, WALKTHROUGH)
    _, out, _ = run_cli(capsys, "run", path, "--mechanism", "last-diminisher")
    ran = json.loads(out)
    scenario = json.loads(WALKTHROUGH)
    scenario["allocation"] = ran["allocation"]
    _, out, _ = run_cli(capsys, "audit", write(tmp_path, json.dumps(scenario), "audit.json"))
    audited = json.loads(out)
    assert audited["criteria"] == ran["criteria"]
    assert audited["equity_table"] == ran["equity_table"]


# ----------------------------------------------------------------------
# equilibrium


def test_equilibrium_of_min_average_output(tmp_path, capsys):
    path = write(tmp_path, OVERLAP)
    _, out, _ = run_cli(capsys, "run", path, "--mechanism", "procaccia")
    scenario = json.loads(OVERLAP)
    scenario["profile"] = json.loads(out)["allocation"]
    back = write(tmp_path, json.dumps(scenario), "back.json")
    code, out, _ = run_cli(capsys, "equilibrium", back, "--expect-equilibrium")
    assert code == 0
    report = json.loads(out)
    assert report["equilibrium"]["is_equilibrium"] is True
    assert report["equilibrium"]["condition"] is None


def test_equilibrium_length_order_violation(tmp_path, capsys):
    scenario = json.loads(OVERLAP)
    scenario["profile"] = [[["0", "1/3"]], [["1/3", "1"]]]
    path = write(tmp_path, json.dumps(scenario))
    code, out, err = run_cli(capsys, "equilibrium", path, "--expect-equilibrium")
    assert code == 1 and "expectation failed: equilibrium" in err
    verdict = json.loads(out)["equilibrium"]
    assert verdict["is_equilibrium"] is False
    assert verdict["condition"] == "length-order"
    assert verdict["deviating_agent"] == "a"
    assert verdict["claimer"] == "b"
    assert verdict["witness"] == [["1/3", "2/3"]]


def test_equilibrium_unclaimed_valued_cake(tmp_path, capsys):
    scenario = json.loads(OVERLAP)
    scenario["profile"] = [[["0", "1/3"]], [["2/3", "1"]]]
    path = write(tmp_path, json.dumps(scenario))
    code, out, _ = run_cli(capsys, "equilibrium", path)
    assert code == 0
    verdict = json.loads(out)["equilibrium"]
    assert verdict["is_equilibrium"] is False
    assert verdict["condition"] == "unclaimed-valued-cake"
    assert verdict["deviating_agent"] == "a"
    assert verdict["witness"] == [["1/3", "2/3"]]


def test_equilibrium_defaults_to_sincere_profile(tmp_path, capsys):
    path = write(tmp_path, DISJOINT)
    code, out, _ = run_cli(capsys, "equilibrium", path, "--expect-equilibrium")
    assert code == 0
    assert json.loads(out)["equilibrium"]["is_equilibrium"] is True


# ----------------------------------------------------------------------
# optimal


def test_optimal_unconstrained(tmp_path, capsys):
    path = write(tmp_path, OVERLAP)
    code, out, _ = run_cli(capsys, "optimal", path)
    assert code == 0
    assert json.loads(out)["ue"] == "3/2"


def test_optimal_with_criterion(tmp_path, capsys):
    path = write(tmp_path, HALVES)
    code, out, _ = run_cli(
        capsys, "optimal", path, "--criterion", "equitable", "--expect-equitable"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ue"] == "2"
    assert report["criteria"]["equitable"] is True


def test_optimal_linear_unconstrained_works_constrained_does_not(tmp_path, capsys):
    # The direct construction handles affine densities; the criterion path
    # needs segment-constant rates and refuses a genuine slope.
    path = write(tmp_path, RAMP)
    code, out, _ = run_cli(capsys, "optimal", path)
    assert code == 0 and json.loads(out)["ue"] != "0"
    code, _, err = run_cli(capsys, "optimal", path, "--criterion", "proportional")
    assert code == 2 and "rates undefined" in err


def test_optimal_verbose_lp_traces_pivots(tmp_path, capsys):
    path = write(tmp_path, DISJOINT)
    code, _, err = run_cli(
        capsys, "optimal", path, "--criterion", "proportional", "--verbose-lp"
    )
    assert code == 0 and "pivot" in err


def uncertified_solve(problem, trace=None):
    raise RuntimeError("simplex returned an uncertified solution")


def infeasible_solve(problem, trace=None):
    return LpSolution(INFEASIBLE)


@pytest.mark.parametrize(
    "solve,message",
    [
        (uncertified_solve, "simplex returned an uncertified solution"),
        (infeasible_solve, "welfare LP came back infeasible"),
    ],
)
def test_optimal_unvouched_answer_exits_1(tmp_path, capsys, monkeypatch, solve, message):
    # A failed certificate, or an LP status the welfare code cannot explain,
    # is an answer the program cannot vouch for: exit 1, no traceback.
    monkeypatch.setattr(fairslice.optimal, "lp_solve", solve)
    path = write(tmp_path, POP4)
    code, out, err = run_cli(capsys, "optimal", path, "--criterion", "proportional")
    assert code == 1 and out == ""
    assert err == "error: %s\n" % message


# ----------------------------------------------------------------------
# pof


def test_pof_csv_golden(tmp_path, capsys):
    path = write(tmp_path, POP4)
    code, out, _ = run_cli(capsys, "pof", path, "--criterion", "proportional")
    assert code == 0
    header, row = out.splitlines()
    assert header == "instance,n,ue_optimal,ue_constrained,ratio"
    fields = row.split(",")
    assert fields == [path, "4", "2", "3/2", "4/3"]
    assert F(fields[4]) >= 1


@pytest.mark.parametrize("name", ["x,y.json", 'a"b.json'])
def test_pof_csv_quotes_a_field_with_a_comma_or_a_quote(tmp_path, capsys, name):
    path = write(tmp_path, OVERLAP, name)
    code, out, _ = run_cli(capsys, "pof", path, "--criterion", "envy-free")
    assert code == 0
    header, row = out.splitlines()
    assert row == '"%s",2,3/2,3/2,1' % path.replace('"', '""')
    assert list(csv.reader([header, row])) == [
        ["instance", "n", "ue_optimal", "ue_constrained", "ratio"],
        [path, "2", "3/2", "3/2", "1"],
    ]


def test_pof_json_format(tmp_path, capsys):
    path = write(tmp_path, POP4)
    code, out, _ = run_cli(
        capsys, "pof", path, "--criterion", "proportional", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)
    assert row["ratio"] == "4/3" and row["n"] == 4


@pytest.mark.parametrize("path", ["-", None])
def test_pof_names_standard_input_stdin(capsys, monkeypatch, path):
    monkeypatch.setattr(sys, "stdin", io.StringIO(POP4))
    argv = ["pof"] + ([path] if path else []) + ["--criterion", "proportional"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == "instance,n,ue_optimal,ue_constrained,ratio\nstdin,4,2,3/2,4/3\n"


@pytest.mark.parametrize("criterion", ["proportional", "envy-free", "equitable"])
def test_pof_ratio_at_least_one(tmp_path, capsys, criterion):
    path = write(tmp_path, OVERLAP)
    code, out, _ = run_cli(capsys, "pof", path, "--criterion", criterion)
    assert code == 0
    ratio = F(out.splitlines()[1].split(",")[4])
    assert ratio >= 1


def test_pof_linear_density_exits_2(tmp_path, capsys):
    path = write(tmp_path, RAMP)
    code, out, err = run_cli(capsys, "pof", path, "--criterion", "proportional")
    assert code == 2 and out == ""
    assert "rates undefined" in err


# ----------------------------------------------------------------------
# bench


def test_bench_deterministic_for_fixed_seed(capsys):
    argv = ("bench", "--mechanism", "last-diminisher", "--n-range", "2..8", "--seed", "5")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    assert first.splitlines()[0] == "n,total,eval,cut"
    assert len(first.splitlines()) == 8


def test_bench_seed_changes_instances(capsys):
    runs = []
    for seed in ("0", "1"):
        _, out, _ = run_cli(
            capsys, "bench", "--mechanism", "last-diminisher", "--n-range", "2..6",
            "--seed", seed,
        )
        runs.append(out)
    assert runs[0] != runs[1]


def test_bench_single_agent_base_case(capsys):
    code, out, _ = run_cli(capsys, "bench", "--mechanism", "even-paz", "--n-range", "1")
    assert code == 0
    assert out == "n,total,eval,cut\n1,0,0,0\n"


def test_bench_even_paz_counts_grow(capsys):
    _, out, _ = run_cli(capsys, "bench", "--mechanism", "even-paz", "--n-range", "2..8")
    totals = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert totals == sorted(totals)
    assert all(total > 0 for total in totals)


def test_bench_fixed_arity_rows_only_match(capsys):
    _, out, _ = run_cli(capsys, "bench", "--mechanism", "selfridge", "--n-range", "2..5")
    rows = out.splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("3,")
    _, out, _ = run_cli(capsys, "bench", "--mechanism", "cut-and-choose", "--n-range", "2..5")
    rows = out.splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("2,")


@pytest.mark.parametrize(
    "mechanism, n_range, kept",
    [
        ("cut-and-choose", "1..4", [2]),
        ("selfridge", "0..4", [3]),
        ("last-diminisher", "1..4", [2, 3, 4]),
        ("even-paz", "0..3", [1, 2, 3]),
    ],
)
def test_bench_skips_every_n_the_protocol_refuses(capsys, mechanism, n_range, kept):
    code, out, err = run_cli(capsys, "bench", "--mechanism", mechanism, "--n-range", n_range)
    assert (code, err) == (0, "")
    assert [int(line.split(",")[0]) for line in out.splitlines()[1:]] == kept


def test_bench_draws_agents_only_for_a_fixed_arity(capsys, monkeypatch):
    # cut-and-choose takes 2 agents, so 1..300 draws once and prints the
    # row that n = 2 alone prints.
    _, alone, _ = run_cli(capsys, "bench", "--mechanism", "cut-and-choose", "--n-range", "2")
    draws = []

    def counting(seed, n):
        draws.append(n)
        return random_uniform_agents(seed, n)

    monkeypatch.setattr(fairslice.cli, "random_uniform_agents", counting)
    code, out, err = run_cli(
        capsys, "bench", "--mechanism", "cut-and-choose", "--n-range", "1..300"
    )
    assert (code, err, draws) == (0, "", [2])
    assert out == alone


def test_bench_rejects_revelation_mechanisms(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["bench", "--mechanism", "procaccia", "--n-range", "2..4"])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert "--mechanism" in err and "Traceback" not in err
    assert all(name in err for name in QUERY_MECHANISMS)


@pytest.mark.parametrize("text", ["abc", "2..", "x..4"])
def test_bench_malformed_n_range_exits_2(capsys, text):
    with pytest.raises(SystemExit) as caught:
        main(["bench", "--mechanism", "even-paz", "--n-range", text])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert "--n-range" in err and "Traceback" not in err


def test_bench_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--mechanism", "even-paz", "--n-range", "2..3",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["n"] for row in rows] == [2, 3]
    assert all(row["total"] == row["eval"] + row["cut"] for row in rows)


def test_bench_table_format_exits_2(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["bench", "--mechanism", "even-paz", "--n-range", "2", "--format", "table"])
    assert caught.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--format" in captured.err


# ----------------------------------------------------------------------
# byte goldens: stdout, stderr and exit code of every subcommand in every
# format, each run on one scenario written to ./scenario.json

GOLDENS = Path(__file__).parent / "goldens"

AUDITED = text_of(json.loads(HALVES)["agents"], allocation=[[], [["1/2", "1"]]])
CONTESTED = text_of(json.loads(OVERLAP)["agents"], profile=[[["0", "1/3"]], [["1/3", "1"]]])
UNCLAIMED = text_of(json.loads(OVERLAP)["agents"], profile=[[["0", "1/3"]], [["2/3", "1"]]])

CLI_GOLDENS = {
    "run-query.json": (WALKTHROUGH, ["run", "--mechanism", "last-diminisher"], 0, ""),
    "run-query.csv": (
        WALKTHROUGH, ["run", "--mechanism", "last-diminisher", "--format", "csv"], 0, "",
    ),
    "run-query.table": (
        WALKTHROUGH, ["run", "--mechanism", "last-diminisher", "--format", "table"], 0, "",
    ),
    "run-revelation.json": (OVERLAP, ["run", "--mechanism", "procaccia"], 0, ""),
    "run-revelation.csv": (
        OVERLAP, ["run", "--mechanism", "procaccia", "--format", "csv"], 0, "",
    ),
    "run-revelation.table": (
        POP4, ["run", "--mechanism", "length-game", "--format", "table"], 0, "",
    ),
    "audit.json": (AUDITED, ["audit"], 0, ""),
    "audit.csv": (AUDITED, ["audit", "--format", "csv", "--expect-envy-free"], 0, ""),
    "audit.table": (
        AUDITED,
        ["audit", "--format", "table", "--expect-proportional", "--expect-non-wasteful"],
        1,
        "expectation failed: proportional\n",
    ),
    "equilibrium-holds.json": (DISJOINT, ["equilibrium", "--expect-equilibrium"], 0, ""),
    "equilibrium-holds.table": (DISJOINT, ["equilibrium", "--format", "table"], 0, ""),
    "equilibrium-violated.json": (CONTESTED, ["equilibrium"], 0, ""),
    "equilibrium-violated.csv": (
        CONTESTED,
        ["equilibrium", "--format", "csv", "--expect-equilibrium"],
        1,
        "expectation failed: equilibrium\n",
    ),
    "equilibrium-violated.table": (
        CONTESTED,
        ["equilibrium", "--format", "table", "--expect-equilibrium"],
        1,
        "expectation failed: equilibrium\n",
    ),
    "equilibrium-unclaimed.table": (UNCLAIMED, ["equilibrium", "--format", "table"], 0, ""),
    "optimal.json": (OVERLAP, ["optimal"], 0, ""),
    "optimal.csv": (RAMP, ["optimal", "--format", "csv"], 0, ""),
    "optimal-criterion.json": (
        HALVES, ["optimal", "--criterion", "equitable", "--expect-equitable"], 0, "",
    ),
    "optimal-criterion.table": (
        POP4, ["optimal", "--criterion", "envy-free", "--format", "table"], 0, "",
    ),
    "pof.json": (POP4, ["pof", "--criterion", "proportional", "--format", "json"], 0, ""),
    "pof.csv": (POP4, ["pof", "--criterion", "proportional"], 0, ""),
    "pof.table": (POP4, ["pof", "--criterion", "envy-free", "--format", "table"], 0, ""),
    "bench.json": (
        None, ["bench", "--mechanism", "even-paz", "--n-range", "1..4", "--format", "json"], 0, "",
    ),
    "bench.csv": (
        None, ["bench", "--mechanism", "last-diminisher", "--n-range", "2..5", "--seed", "3"], 0, "",
    ),
    "error.json": (
        DISJOINT,
        ["run", "--mechanism", "cut-and-choose"],
        2,
        "error: cut-and-choose needs exactly 2 agents, scenario has 3\n",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_cli_golden(name, tmp_path, capsys, monkeypatch):
    text, argv, code, err = CLI_GOLDENS[name]
    monkeypatch.chdir(tmp_path)
    if text is not None:
        write(tmp_path, text)
        argv = [argv[0], "scenario.json"] + argv[1:]
    expected = (GOLDENS / name).read_bytes().decode("utf-8")
    assert run_cli(capsys, *argv) == (code, expected, err)


def test_one_parser_serves_a_sequence_of_calls(tmp_path, capsys, monkeypatch):
    # main() builds its parser once per process.  No call may leave a flag,
    # a format default or an argparse error behind for the next one: every
    # golden, run in one varied sequence, still comes out byte for byte.
    monkeypatch.chdir(tmp_path)

    def call(name, *extra):
        text, argv, code, err = CLI_GOLDENS[name]
        if text is not None:
            write(tmp_path, text)
            argv = [argv[0], "scenario.json"] + argv[1:]
        expected = (GOLDENS / name).read_bytes().decode("utf-8")
        return run_cli(capsys, *argv, *extra), (code, expected, err)

    def golden(name):
        got, expected = call(name)
        assert got == expected, name

    golden("pof.csv")
    golden("optimal-criterion.json")
    (code, out, err), (_, expected, _) = call("optimal-criterion.json", "--verbose-lp")
    assert (code, out) == (0, expected)
    assert err.startswith("pivot ")
    golden("optimal-criterion.json")
    golden("pof.json")
    golden("audit.table")
    golden("audit.json")
    golden("audit.csv")
    golden("equilibrium-violated.table")
    golden("equilibrium-violated.json")
    with pytest.raises(SystemExit) as caught:
        main(["bench", "--mechanism", "even-paz", "--n-range", "abc"])
    assert caught.value.code == 2
    assert "--n-range" in capsys.readouterr().err
    golden("bench.csv")
    golden("bench.json")
    with pytest.raises(SystemExit) as caught:
        main(["pof", "scenario.json", "--format", "xml"])
    assert caught.value.code == 2
    capsys.readouterr()
    golden("pof.csv")
    golden("error.json")
    for name in sorted(CLI_GOLDENS, reverse=True):
        golden(name)


def test_serialize_mixed_golden():
    golden = (GOLDENS / "mixed-scenario.json").read_bytes().decode("utf-8")
    assert serialize_scenario(parse_scenario(MIXED)) == golden


# ----------------------------------------------------------------------
# fuzzing: mutated scenarios never end in an exception


def json_leaves(value, path=()):
    """The path to every number, string, bool or null inside a JSON value."""
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from json_leaves(child, path + (key,))
    else:
        yield path


FUZZ_BASES = [HALVES, POP4, RAMP, MIXED, AUDITED, CONTESTED, UNCLAIMED]
# Mostly number tokens, in range or just out of it, so that many mutants
# still parse; then values of the wrong type.  Containers are copied, so
# that no mutant holds one list twice and no mutation makes a cycle.
FUZZ_NUMBERS = st.sampled_from(
    [0, 1, "1/2", "2/3", "1/3", "0.25", "3/4", "1e-4300", "1/0", "-1/3", "3/2", 2]
)
FUZZ_LEAVES = st.one_of(
    FUZZ_NUMBERS,
    FUZZ_NUMBERS,
    st.sampled_from(["x", "", "uniform", "linear", 0.5, True, None, [], {}, [["0", "1"]]]),
).map(copy.deepcopy)
FUZZ_COMMANDS = [
    ["run", "--mechanism", mechanism] for mechanism in MECHANISMS
] + [
    ["audit", "--format", "table", "--expect-envy-free"],
    ["equilibrium", "--format", "csv", "--expect-equilibrium"],
    ["optimal"],
    ["optimal", "--criterion", "envy-free"],
    ["pof", "--criterion", "equitable", "--format", "table"],
]


@settings(max_examples=150, deadline=None)
@given(
    base=st.sampled_from(FUZZ_BASES),
    argv=st.sampled_from(FUZZ_COMMANDS),
    data=st.data(),
)
def test_mutated_scenarios_exit_0_1_or_2(base, argv, data):
    scenario = json.loads(base)
    for _ in range(data.draw(st.integers(1, 3))):
        leaves = list(json_leaves(scenario))
        if not leaves:
            break
        path = data.draw(st.sampled_from(leaves))
        # Most mutations replace a leaf; some replace or delete a container
        # above it.
        action = data.draw(st.sampled_from(["leaf"] * 6 + ["container", "delete"]))
        if action != "leaf":
            path = path[: data.draw(st.integers(1, len(path)))]
        parent = scenario
        for key in path[:-1]:
            parent = parent[key]
        if action == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(FUZZ_LEAVES)
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(json.dumps(scenario))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with unittest.mock.patch.object(sys, "stdin", stdin):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")


# ----------------------------------------------------------------------
# contract: every subcommand on drawn scenarios exits 0, 1 or 2, the same
# way twice, with output in its format or one error line

CONTRACT_GRID = 8
EXPECT_FLAGS = ["--expect-" + c for c in ("proportional", "envy-free", "equitable", "non-wasteful")]


def grid_region(cells):
    return [[str(F(c, CONTRACT_GRID)), str(F(c + 1, CONTRACT_GRID))] for c in cells]


@st.composite
def grid_pieces(draw):
    # Disjoint spans between consecutive drawn grid points, some left out.
    points = sorted(draw(st.sets(st.integers(0, CONTRACT_GRID), min_size=2, max_size=6)))
    spans = [(F(a, CONTRACT_GRID), F(b, CONTRACT_GRID)) for a, b in zip(points, points[1:])]
    return [span for span in spans if draw(st.booleans())] or spans[:1]


KINDS = st.sampled_from(["uniform", "constant", "linear"])


@st.composite
def contract_valuations(draw, kind):
    pieces = []
    for lo, hi in draw(grid_pieces()):
        piece = {"lo": str(lo), "hi": str(hi)}
        if kind == "constant":
            piece["value"] = draw(st.sampled_from(["1", "2", "3", "1/2"]))
        elif kind == "linear":
            slope = draw(st.integers(-2, 2))
            piece["slope"] = str(slope)
            piece["intercept"] = str(draw(st.integers(1, 3)) - min(slope * lo, slope * hi))
        pieces.append(piece)
    return {"type": kind, "pieces": pieces}


def break_scenario(data, defect):
    first = data["agents"][0]["valuation"]["pieces"][0]
    if defect == "reversed":
        first["lo"], first["hi"] = first["hi"], first["lo"]
    elif defect == "outside the cake":
        first["hi"] = "3/2"
    elif defect == "unknown type":
        data["agents"][0]["valuation"]["type"] = "step"
    elif defect == "duplicate ids":
        data["agents"].append(data["agents"][0])
    elif defect == "short profile":
        data["profile"] = []


@st.composite
def contract_scenarios(draw):
    """(text, valid): mostly valid scenarios of n <= 5 agents, some broken."""
    n = draw(st.integers(1, 5))
    # Half the scenarios give every agent one kind, so that the revelation
    # mechanisms and the LPs see more than their error paths.
    kinds = [draw(KINDS)] * n if draw(st.booleans()) else [draw(KINDS) for _ in range(n)]
    agents = [
        {"id": "a%d" % k, "valuation": draw(contract_valuations(kind))}
        for k, kind in enumerate(kinds)
    ]
    data = {"agents": agents}
    if draw(st.booleans()):
        data["profile"] = [
            [[str(lo), str(hi)] for lo, hi in draw(st.just([]) | grid_pieces())]
            for _ in range(n)
        ]
    if draw(st.booleans()):
        owners = draw(st.lists(st.integers(-1, n - 1), min_size=CONTRACT_GRID, max_size=CONTRACT_GRID))
        data["allocation"] = [
            grid_region(c for c, owner in enumerate(owners) if owner == k) for k in range(n)
        ]
    defect = draw(st.sampled_from([None] * 6 + [
        "reversed", "outside the cake", "unknown type", "duplicate ids", "short profile",
        "truncated",
    ]))
    break_scenario(data, defect)
    text = json.dumps(data)
    if defect == "truncated":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text, defect is None


@st.composite
def contract_argv(draw):
    command = draw(st.sampled_from(["run", "audit", "equilibrium", "optimal", "pof", "bench"]))
    argv = [command]
    if command in ("run", "bench"):
        argv += ["--mechanism", draw(st.sampled_from(MECHANISMS))]
    if command == "bench":
        lo = draw(st.integers(1, 4))
        argv += ["--n-range", "%d..%d" % (lo, draw(st.integers(lo, 5)))]
        argv += ["--seed", str(draw(st.integers(0, 3)))]
    # pof without a criterion is an argparse error, kept on purpose.
    if command in ("optimal", "pof") and draw(st.booleans()):
        argv += ["--criterion", draw(st.sampled_from(fairslice.optimal.CRITERIA))]
    if command not in ("pof", "bench"):
        argv += draw(st.lists(st.sampled_from(EXPECT_FLAGS), unique=True, max_size=2))
    if command == "equilibrium" and draw(st.booleans()):
        argv.append("--expect-equilibrium")
    # bench has no table format: another argparse error.
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv", "table"]))]
    return argv


def contract_call(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with unittest.mock.patch.object(sys, "stdin", io.StringIO(text)):
            try:
                code = main(argv)
            except SystemExit as stop:
                code = ("argparse", stop.code)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(scenario=contract_scenarios(), argv=contract_argv())
@example(
    scenario=(bisecting_selfridge(BISECTED_FLATS[0]), True),
    argv=["run", "--mechanism", "selfridge", "--expect-envy-free"],
)
@example(
    scenario=(bisecting_selfridge(BISECTED_FLATS[1]), True),
    argv=["run", "--mechanism", "selfridge", "--format", "table"],
)
def test_cli_contract(scenario, argv):
    text, valid = scenario
    if valid:
        once = serialize_scenario(parse_scenario(text))
        assert serialize_scenario(parse_scenario(once)) == once
    code, out, err = contract_call(argv, text)
    assert contract_call(argv, text) == (code, out, err)
    if code == ("argparse", 2):
        assert sum("error: " in line for line in err.splitlines()) == 1
    elif code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    elif code == 0:
        default = "csv" if argv[0] in ("pof", "bench") else "json"
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else default
        if fmt == "json":
            json.loads(out)
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))
            assert rows and all(len(row) == len(rows[0]) for row in rows)
        else:
            assert out.strip() and all(": " in line for line in out.splitlines())
    else:
        assert code == 1


# ----------------------------------------------------------------------
# process-level wiring


def test_module_entry_point(tmp_path):
    path = write(tmp_path, HALVES)
    done = subprocess.run(
        [sys.executable, "-m", "fairslice.cli", "run", path, "--mechanism", "cut-and-choose"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["criteria"]["proportional"] is True


def test_package_entry_point(tmp_path):
    path = write(tmp_path, HALVES)
    done = subprocess.run(
        [sys.executable, "-m", "fairslice", "run", path, "--mechanism", "cut-and-choose"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["criteria"]["proportional"] is True
