"""Command-line front end over scenario files.

Six subcommands: run a mechanism, audit a given allocation, certify an
equilibrium, compute (constrained) optima, price a fairness criterion, and
benchmark query counts.  Reports are exact: every number prints as p/q.
Every result goes to stdout through one writer, `_write`, as JSON, CSV or
a plain table; the JSON text comes from `scenario.json_text`.  Exit codes
follow one contract everywhere: 0 on success, 1 when an --expect-*
assertion fails, 2 on bad input.
"""

import argparse
import csv
import functools
import sys

from fairslice.audit import (
    Allocation, egalitarian_efficiency, equity_table, is_envy_free, is_equitable, is_non_wasteful,
    is_proportional, utilitarian_efficiency,
)
from fairslice.equilibrium import (
    NotWellBehaved, UnallocatedValuedCake, is_equilibrium, reduce_profile,
)
from fairslice.generator import random_uniform_agents
from fairslice.mechanisms import ArityMismatch, cut_and_choose, even_paz, last_diminisher, selfridge
from fairslice.optimal import CRITERIA, max_ue, utilitarian_optimal, welfare_optima
from fairslice.oracle import sincere_oracles
from fairslice.scenario import ParseError, json_text, parse_scenario, region_pairs
from fairslice.uniform import (
    AgentOrder, Profile, length_game, lex_order, min_average_mechanism, wanted_regions,
)
from fairslice.valuation import BISECT_TOLERANCE, UnsupportedValuationClass


QUERY_MECHANISMS = {
    "cut-and-choose": cut_and_choose,
    "last-diminisher": last_diminisher,
    "even-paz": even_paz,
    "selfridge": selfridge,
}
REVELATION_MECHANISMS = ("lex-order", "length-game", "procaccia")
MECHANISMS = tuple(QUERY_MECHANISMS) + REVELATION_MECHANISMS

# Fixed agent counts: `run` names them in its error, and `bench` skips every
# other n before it draws agents.
FIXED_ARITY = {"cut-and-choose": 2, "selfridge": 3}


def _read_scenario(args):
    # The bytes of the file or of standard input, decoded as strict UTF-8.
    if args.scenario not in (None, "-"):
        with open(args.scenario, "rb") as handle:
            data = handle.read()
    elif hasattr(sys.stdin, "buffer"):
        data = sys.stdin.buffer.read()
    else:  # a text stream, such as io.StringIO, holds no bytes
        return parse_scenario(sys.stdin.read())
    try:
        return parse_scenario(data.decode("utf-8"))
    except UnicodeDecodeError as error:
        raise ParseError("input is not UTF-8: %s at byte %d" % (error.reason, error.start))


def _profile(scenario):
    wanted = wanted_regions(scenario.valuations)
    return Profile(wanted) if scenario.profile is None else scenario.profile


def _report(scenario, allocation, transcript=None, equilibrium=None):
    table = equity_table(scenario.valuations, allocation)
    report = {
        "agents": list(scenario.ids),
        "allocation": [region_pairs(p) for p in allocation],
        "equity_table": table.strings(),
        "criteria": {
            "proportional": is_proportional(table),
            "envy-free": is_envy_free(table),
            "equitable": is_equitable(table),
            "non-wasteful": is_non_wasteful(scenario.valuations, allocation),
        },
        "ue": str(utilitarian_efficiency(table)),
        "ee": str(egalitarian_efficiency(table)),
    }
    if transcript is not None:
        report["queries"] = {
            "total": transcript.total,
            "eval": transcript.eval_count,
            "cut": transcript.cut_count,
        }
    if equilibrium is not None:
        report["equilibrium"] = equilibrium
    return report


def _report_rows(report):
    yield "field", "value"
    yield "ue", report["ue"]
    yield "ee", report["ee"]
    yield from sorted(report["criteria"].items())
    if "queries" in report:
        yield from sorted(report["queries"].items())
    if "equilibrium" in report:
        yield "equilibrium", report["equilibrium"]["is_equilibrium"]


def _report_lines(report):
    for agent, portions in zip(report["agents"], report["allocation"]):
        spans = " ".join("%s..%s" % (lo, hi) for lo, hi in portions) or "nothing"
        yield "agent %s: %s" % (agent, spans)
    for agent, row in zip(report["agents"], report["equity_table"]):
        yield "values[%s]: %s" % (agent, " ".join(row))
    flags = sorted(report["criteria"].items())
    yield "criteria: " + " ".join("%s=%s" % (key, _plain(value)) for key, value in flags)
    yield "ue: " + report["ue"]
    yield "ee: " + report["ee"]
    if "queries" in report:
        q = report["queries"]
        yield "queries: total=%d eval=%d cut=%d" % (q["total"], q["eval"], q["cut"])
    if "equilibrium" in report:
        e = report["equilibrium"]
        line = "equilibrium: %s" % _plain(e["is_equilibrium"])
        if e["condition"]:
            line += " (%s, deviating agent %s)" % (e["condition"], e["deviating_agent"])
        yield line


def _plain(value):
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _write(fmt, data, rows=(), lines=()):
    """Print one result: data as JSON, rows (header first) as CSV, or lines.

    rows and lines may be generators, so only the chosen format is built.
    """
    if fmt == "csv":
        # A field holding a comma, a quote or a line break is quoted (RFC 4180).
        csv.writer(sys.stdout, lineterminator="\n").writerows(map(_plain, row) for row in rows)
    else:
        sys.stdout.write((json_text(data) if fmt == "json" else "\n".join(lines)) + "\n")


def _answer(args, scenario, allocation, transcript=None, equilibrium=None):
    """Write the report on an allocation; exit 1 if an --expect-* flag fails."""
    report = _report(scenario, allocation, transcript, equilibrium)
    _write(args.format, report, _report_rows(report), _report_lines(report))
    failed = [
        key
        for key, held in report["criteria"].items()
        if not held and getattr(args, "expect_" + key.replace("-", "_"))
    ]
    if getattr(args, "expect_equilibrium", False) and not equilibrium["is_equilibrium"]:
        failed.append("equilibrium")
    if failed and transcript is not None and transcript.inexact_cuts:
        # A bisected cut is off by up to BISECT_TOLERANCE, enough to tip an
        # exact comparison; the report itself stays as computed.
        print(
            "note: %d of %d cuts were bisected to within %s, not solved exactly"
            % (transcript.inexact_cuts, transcript.cut_count, BISECT_TOLERANCE),
            file=sys.stderr,
        )
    for name in failed:
        print("expectation failed: %s" % name, file=sys.stderr)
    return 1 if failed else 0


# ----------------------------------------------------------------------
# subcommands


def cmd_run(args):
    scenario = _read_scenario(args)
    name = args.mechanism
    arity = FIXED_ARITY.get(name)
    if arity is not None and len(scenario) != arity:
        raise ArityMismatch(
            "%s needs exactly %d agents, scenario has %d" % (name, arity, len(scenario))
        )
    transcript = None
    if name in QUERY_MECHANISMS:
        result = QUERY_MECHANISMS[name](sincere_oracles(scenario.valuations))
        allocation, transcript = result.allocation, result.transcript
    elif name == "procaccia":
        allocation = min_average_mechanism(scenario.valuations)
    elif name == "lex-order":
        profile = _profile(scenario)
        allocation = lex_order(profile, AgentOrder(range(len(profile))))
    else:
        allocation = length_game(_profile(scenario))
    return _answer(args, scenario, allocation, transcript=transcript)


def cmd_audit(args):
    scenario = _read_scenario(args)
    if scenario.allocation is None:
        raise ParseError("audit needs an allocation in the scenario")
    return _answer(args, scenario, scenario.allocation)


def cmd_equilibrium(args):
    scenario = _read_scenario(args)
    reduced = reduce_profile(_profile(scenario))
    verdict = is_equilibrium(scenario.valuations, reduced)
    equilibrium = {
        "is_equilibrium": verdict.is_equilibrium,
        "condition": None,
        "deviating_agent": None,
        "witness": None,
    }
    if not verdict.is_equilibrium:
        violation = verdict.violated_condition
        equilibrium["deviating_agent"] = scenario.ids[verdict.deviating_agent]
        equilibrium["witness"] = region_pairs(violation.witness)
        if isinstance(violation, UnallocatedValuedCake):
            equilibrium["condition"] = "unclaimed-valued-cake"
        else:
            equilibrium["condition"] = "length-order"
            equilibrium["claimer"] = scenario.ids[violation.claimer]
    allocation = Allocation(list(reduced.profile))
    return _answer(args, scenario, allocation, equilibrium=equilibrium)


def cmd_optimal(args):
    scenario = _read_scenario(args)
    if args.criterion is None:
        allocation = utilitarian_optimal(scenario.valuations)
    else:
        _, allocation = max_ue(
            scenario.valuations, args.criterion, sys.stderr if args.verbose_lp else None
        )
    return _answer(args, scenario, allocation)


def cmd_pof(args):
    scenario = _read_scenario(args)
    top, held = welfare_optima(
        scenario.valuations, args.criterion, sys.stderr if args.verbose_lp else None
    )
    row = {
        "instance": "stdin" if args.scenario in (None, "-") else args.scenario,
        "n": len(scenario),
        "ue_optimal": str(top),
        "ue_constrained": str(held),
        "ratio": str(top / held),
    }
    lines = ("%s: %s" % item for item in row.items())
    _write(args.format, row, [row.keys(), row.values()], lines)
    return 0


def _n_range(text):
    lo, dots, hi = text.partition("..")
    try:
        first = int(lo)
        last = int(hi) if dots else first
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected N or LO..HI with integer bounds, got %r" % text
        )
    return range(first, last + 1)


def cmd_bench(args):
    mechanism = QUERY_MECHANISMS[args.mechanism]
    rows = [("n", "total", "eval", "cut")]
    for n in args.n_range:
        if FIXED_ARITY.get(args.mechanism, n) != n:
            continue  # a fixed count rules n out before any agent is drawn
        agents = random_uniform_agents(args.seed * 1000003 + n, n)
        try:
            transcript = mechanism(sincere_oracles(agents)).transcript
        except ArityMismatch:
            continue  # the protocol refuses n agents: no row
        rows.append((n, transcript.total, transcript.eval_count, transcript.cut_count))
    _write(args.format, [dict(zip(rows[0], row)) for row in rows[1:]], rows)
    return 0


# ----------------------------------------------------------------------
# wiring


def _add_scenario_argument(parser):
    parser.add_argument(
        "scenario",
        nargs="?",
        help="scenario file path; omit or '-' to read standard input",
    )


def _add_report_arguments(parser):
    parser.add_argument("--format", choices=("json", "csv", "table"), default="json")
    for criterion in ("proportional", "envy-free", "equitable", "non-wasteful"):
        parser.add_argument(
            "--expect-" + criterion,
            action="store_true",
            dest="expect_" + criterion.replace("-", "_"),
            help="exit 1 unless the produced allocation is %s" % criterion,
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fairslice",
        description="Exact cake cutting: mechanisms, audits, equilibria, optima.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a mechanism on a scenario")
    _add_scenario_argument(run)
    run.add_argument("--mechanism", choices=MECHANISMS, required=True)
    _add_report_arguments(run)
    run.set_defaults(func=cmd_run)

    audit = commands.add_parser("audit", help="audit the scenario's allocation")
    _add_scenario_argument(audit)
    _add_report_arguments(audit)
    audit.set_defaults(func=cmd_audit)

    equilibrium = commands.add_parser(
        "equilibrium", help="certify the scenario's profile as an equilibrium"
    )
    _add_scenario_argument(equilibrium)
    _add_report_arguments(equilibrium)
    equilibrium.add_argument(
        "--expect-equilibrium",
        action="store_true",
        help="exit 1 unless the profile is a certified equilibrium",
    )
    equilibrium.set_defaults(func=cmd_equilibrium)

    optimal = commands.add_parser("optimal", help="compute a welfare optimum")
    _add_scenario_argument(optimal)
    optimal.add_argument("--criterion", choices=CRITERIA)
    optimal.add_argument("--verbose-lp", action="store_true")
    _add_report_arguments(optimal)
    optimal.set_defaults(func=cmd_optimal)

    pof = commands.add_parser("pof", help="price of a fairness criterion")
    _add_scenario_argument(pof)
    pof.add_argument("--criterion", choices=CRITERIA, required=True)
    pof.add_argument("--verbose-lp", action="store_true")
    pof.add_argument("--format", choices=("json", "csv", "table"), default="csv")
    pof.set_defaults(func=cmd_pof)

    bench = commands.add_parser("bench", help="query-count sweep over n")
    bench.add_argument("--mechanism", choices=tuple(QUERY_MECHANISMS), required=True)
    bench.add_argument(
        "--n-range", type=_n_range, required=True, help="like 2..128, or a single n"
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--format", choices=("json", "csv"), default="csv")
    bench.set_defaults(func=cmd_bench)

    return parser


@functools.cache
def _parser():
    # parse_args keeps no state in the parser, so one serves every call.
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ArityMismatch, UnsupportedValuationClass, NotWellBehaved, OSError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    except ValueError as error:
        # An exact result too long to print: the interpreter refuses to
        # convert an int of more digits than its limit to text.
        if "integer string conversion" not in str(error):
            raise
        limit = sys.get_int_max_str_digits()
        print("error: cannot write a number of more than %d digits" % limit, file=sys.stderr)
        return 2
    except RuntimeError as error:
        # The program could not vouch for its answer, for example an LP
        # solution that failed its certificate.
        print("error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
