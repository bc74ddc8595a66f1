"""The closed-loop client: issue manifest requests one at a time, then check them.

CLI requests go through `fairslice.cli.main(argv)` in this process with
stdout and stderr captured; the three library requests (best-response
dynamics, max_ee, the Pareto oracle) read and parse their scenario file and
call the library, because no subcommand reaches them.  A request is timed
from the call to its return.  Checks run afterwards, outside the timed span.

Outcomes:
  ok         exit 0 and the output passes its check
  exit       an exit code other than 0 (an --expect-* flag failed, or bad input)
  exception  main() or the library call raised; the traceback is kept
  wrong      exit 0 but the output breaks its check: a wrong answer

All but `ok` count as failed.  Only `wrong` makes a run incorrect: the other
two are failures the program reports itself.
"""

import contextlib
import hashlib
import io
import json
import time
import traceback
from fractions import Fraction

import fairslice.cli
from fairslice import audit, equilibrium, optimal, scenario, uniform
from fairslice.uniform import UniformPreference


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return scenario.parse_scenario(handle.read())


# Converged runs take 2 to 4 rounds, rarely up to 13 at n = 6.  A start that
# never converges would spend the default 100n rounds, about a minute at
# n = 6, so dynamics get 3n rounds and such starts count as nonconverged.
def _dynamics(sc):
    prefs = [UniformPreference(v.support()) for v in sc.valuations]
    profile, converged = equilibrium.best_response_dynamics(
        prefs, sc.profile, max_rounds=3 * len(prefs))
    shown = {"profile": [scenario.region_pairs(s) for s in profile], "converged": converged}
    return (profile, converged), shown


def _max_ee(sc):
    value, allocation = optimal.max_ee(sc.valuations)
    shown = {"ee": str(value), "allocation": [scenario.region_pairs(p) for p in allocation]}
    return (value, allocation), shown


def _pareto(sc):
    efficient = optimal.pareto_oracle(sc.valuations, sc.allocation)
    return efficient, {"pareto_efficient": efficient}


LIBRARY = {"dynamics": _dynamics, "max_ee": _max_ee, "pareto": _pareto}


class Response:
    __slots__ = ("request", "code", "stdout", "stderr", "value", "seconds", "outcome", "detail")

    def __init__(self, request, code, stdout, stderr, value, seconds):
        self.request = request
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.value = value
        self.seconds = seconds
        self.outcome = "ok" if code == 0 else ("exception" if code is None else "exit")
        self.detail = stderr.strip().splitlines()[-1] if code != 0 and stderr.strip() else ""


def issue(request):
    """Run one request and return its Response; never raises for the program's faults."""
    out, err = io.StringIO(), io.StringIO()
    value = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in request:
                code = fairslice.cli.main(list(request["argv"]))
            else:
                value, shown = LIBRARY[request["kind"]](_read(request["scenario"]))
                out.write(json.dumps(shown, sort_keys=True) + "\n")
                code = 0
    except SystemExit as stop:
        # argparse rejects bad arguments by exiting 2.
        code = stop.code if isinstance(stop.code, int) else 2
    except Exception:
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - started
    return Response(request, code, out.getvalue(), err.getvalue(), value, seconds)


# ----------------------------------------------------------------------
# checks: each returns None when the output is right, else a reason


def _report(response):
    return json.loads(response.stdout)


def _check_exit0(response):
    report = _report(response)
    if "criteria" in report and len(report["allocation"]) != len(report["agents"]):
        return "allocation does not cover every agent"
    return None


def _check_queries(response):
    total = _report(response)["queries"]["total"]
    if total > response.request["bound"]:
        return "even-paz used %d queries, bound %d" % (total, response.request["bound"])
    return None


def _check_bench(response):
    lines = response.stdout.splitlines()
    if lines[0] != "n,total,eval,cut" or len(lines) != 64:
        return "bench sweep should list n = 2..64"
    for line in lines[1:]:
        n, total, evals, cuts = (int(x) for x in line.split(","))
        if total != evals + cuts or total > 2 * n * (n - 1).bit_length():
            return "bench row %s breaks the even-paz query bound" % line
    return None


def _inside(portion, claim):
    # Both are sorted lists of disjoint [lo, hi] pairs.
    claim = [(Fraction(lo), Fraction(hi)) for lo, hi in claim]
    for lo, hi in portion:
        lo, hi = Fraction(lo), Fraction(hi)
        if not any(a <= lo and hi <= b for a, b in claim):
            return False
    return True


def _check_claims(response):
    report = _report(response)
    claims = [scenario.region_pairs(s) for s in _read(_path(response)).profile]
    for agent, portion, claim in zip(report["agents"], report["allocation"], claims):
        if not _inside(portion, claim):
            return "agent %s receives cake it did not claim" % agent
    return None


def _path(response):
    return response.request.get("scenario") or response.request["argv"][1]


def _reference_ue(response):
    # The utilitarian optimum by direct construction, which needs no LP.
    valuations = _read(_path(response)).valuations
    return audit.utilitarian_efficiency(
        audit.equity_table(valuations, optimal.utilitarian_optimal(valuations)))


def _check_optimal(response):
    ue, reference = Fraction(_report(response)["ue"]), _reference_ue(response)
    if ue != reference:
        return "optimal UE %s differs from utilitarian_optimal's %s" % (ue, reference)
    return None


def _check_constrained(response):
    ue = Fraction(_report(response)["ue"])
    if ue > _reference_ue(response):
        return "constrained UE %s exceeds the unconstrained optimum" % ue
    return None


def _check_pof(response):
    header, row = response.stdout.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    if Fraction(fields["ratio"]) < 1:
        return "price of fairness %s is below 1" % fields["ratio"]
    if Fraction(fields["ue_optimal"]) != _reference_ue(response):
        return "LP optimum %s differs from utilitarian_optimal's" % fields["ue_optimal"]
    return None


def _check_dynamics(response):
    profile, converged = response.value
    if not converged:
        return None
    prefs = [UniformPreference(v.support()) for v in _read(_path(response)).valuations]
    output = uniform.min_average_mechanism(prefs)
    if not audit.utilitarian_equivalent(prefs, audit.Allocation(list(profile)), output):
        return "converged fixpoint is not utilitarian-equivalent to the mechanism output"
    return None


def _check_max_ee(response):
    value, allocation = response.value
    sc = _read(_path(response))
    realized = min(audit.equity_table(sc.valuations, allocation).diagonal())
    if realized != value or value < Fraction(1, len(sc.valuations)):
        return "max_ee %s is not realized (%s) or is below 1/n" % (value, realized)
    return None


def _check_pareto(response):
    return None if response.value else "the utilitarian optimum was reported Pareto-dominated"


CHECKS = {
    "exit0": _check_exit0,
    "queries": _check_queries,
    "bench": _check_bench,
    "claims": _check_claims,
    "optimal": _check_optimal,
    "constrained": _check_constrained,
    "pof": _check_pof,
    "dynamics": _check_dynamics,
    "max_ee": _check_max_ee,
    "pareto": _check_pareto,
}


def check(response):
    """Set response.outcome to `wrong` when an exit-0 output breaks its check."""
    if response.outcome != "ok":
        return
    try:
        reason = CHECKS[response.request["check"]](response)
    except (ValueError, KeyError, IndexError, TypeError) as error:
        reason = "unreadable output: %r" % (error,)
    if reason is not None:
        response.outcome = "wrong"
        response.detail = reason


class Digest:
    """sha256 over (exit code, stdout) of each response, in request order."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, response):
        self._hash.update(("%r\n" % (response.code,)).encode())
        self._hash.update(response.stdout.encode())

    def hexdigest(self):
        return self._hash.hexdigest()
