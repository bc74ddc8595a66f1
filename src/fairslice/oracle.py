"""Query-model runtime: agents as oracles, every question on the record.

Protocols in this family interact with agents only through two questions:

  eval(a, b)      how much is [a,b] worth to you?
  cut(a, target)  where does [a, b] reach the given worth, starting at a?

A Valuation answers both, so it is its own sincere oracle.  Anything with
the same two methods can stand in for one: the tests' lying agents build on
AgentOracle, which wraps a valuation.  A Recorder sits between a running
mechanism and its oracles and logs every query and reply as a QueryRecord
named tuple; it is the transcript a MechanismResult carries, so runs can be
audited and query complexity is measurable.

The Recorder owns what an answer is: each is read once as an exact
rational (an int, a Fraction or a string such as "3/7", never a float) and
recorded as given, and a cut of the slice [a, end] is held to it.  Answers
are compared as integers, here and in the protocols: the clamp
cross-multiplies the answer's numerator and denominator with the bounds',
never through a Fraction comparison.  A cut through a linear density may
have an irrational answer, which the valuation bisects to a tolerance;
Valuation.cut hands back the whole CutResult so the Recorder can count
such inexact cuts.  A bare point is taken as exact.
"""

from dataclasses import dataclass
from typing import NamedTuple

from fairslice.intervals import _ratio, frac
from fairslice.valuation import CutResult


class AgentOracle:
    """Sincere adapter: answers exactly from the underlying valuation."""

    def __init__(self, valuation):
        self.valuation = valuation

    def eval(self, a, b):
        return self.valuation.eval(a, b)

    def cut(self, a, target):
        return self.valuation.cut(a, target)


def sincere_oracles(valuations):
    return list(valuations)


class QueryRecord(NamedTuple):
    agent: int
    kind: str  # "eval" or "cut"
    args: tuple
    response: object


class Recorder:
    """Routes queries to oracles (0-indexed agents) and is the run's transcript."""

    def __init__(self, oracles):
        self.oracles = list(oracles)
        self.records = []
        self.inexact_cuts = 0

    @property
    def total(self):
        return len(self.records)

    @property
    def eval_count(self):
        return self.total - self.cut_count

    @property
    def cut_count(self):
        return sum(1 for r in self.records if r.kind == "cut")

    def eval(self, i, a, b):
        response = frac(self.oracles[i].eval(a, b))
        self.records.append(QueryRecord(i, "eval", (a, b), response))
        return response

    def cut(self, i, a, target, end=1):
        """Agent i's cut of the slice [a, end], held to the slice."""
        response = self.oracles[i].cut(a, target)
        if isinstance(response, CutResult):
            self.inexact_cuts += not response.exact
            response = response.point
        response = frac(response)
        self.records.append(QueryRecord(i, "cut", (a, target), response))
        n, d = response.as_integer_ratio()
        (an, ad), (en, ed) = _ratio(a), _ratio(end)
        if n * ad <= an * d:
            return frac(a)
        if n * ed >= en * d:
            return frac(end)
        return response


@dataclass(frozen=True)
class MechanismResult:
    """What a protocol run produces: the allocation and how it was reached."""

    allocation: object
    transcript: Recorder
