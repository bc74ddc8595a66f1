"""Query-model runtime: agents as oracles, every question on the record.

Protocols in this family interact with agents only through two questions:

  eval(a, b)      how much is [a,b] worth to you?
  cut(a, target)  where does [a, b] reach the given worth, starting at a?

A Valuation answers both, so it is its own sincere oracle.  Anything with
the same two methods can stand in for one: the tests' lying agents build on
AgentOracle, which wraps a valuation.  A Recorder sits between a running
mechanism and its oracles and logs every query and reply; it is the
transcript a MechanismResult carries, so runs can be audited and query
complexity is measurable.

Questions and answers pass through the Recorder as integer pairs
(numerator, denominator > 0), answers in lowest terms.  A Valuation is
asked through its pair kernels, `_eval_pair` and `_cut_pair`; any other
oracle through one `_StandIn` adapter, made when the Recorder is, which
hands it Fractions and reads its answer once as an exact rational (an int,
a Fraction or a string such as "3/7", never a float) through `_ratio`.  A
cut through a linear density may have an irrational answer, which the
valuation bisects to a tolerance; the cut kernel says whether its answer
is exact, a stand-in's CutResult says so too, and a bare point is taken as
exact, so the Recorder counts inexact cuts.  An answer is recorded as
given, and a cut of the slice [a, end] is held to it by cross-multiplying
the answer's pair with the bounds', never through a Fraction comparison.
The log is raw tuples with running counts; `records` builds their
QueryRecord named tuples of Fractions on each read.  The public `eval`
and `cut` are the pair methods with Fractions in and out.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from fairslice.intervals import _lowest, _ratio
from fairslice.valuation import CutResult, Valuation


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


class _StandIn:
    """Puts pair questions to an oracle that is not a Valuation, as Fractions.

    Its answers are read through `_ratio` into reduced pairs; a cut answer
    may be a CutResult or a bare point, which counts as exact.
    """

    def __init__(self, oracle):
        self.oracle = oracle

    def _eval_pair(self, a, b):
        return _lowest(*_ratio(self.oracle.eval(Fraction(*a), Fraction(*b))))

    def _cut_pair(self, a, target):
        response = self.oracle.cut(Fraction(*a), Fraction(*target))
        if isinstance(response, CutResult):
            return (*_lowest(*_ratio(response.point)), response.exact)
        return (*_lowest(*_ratio(response)), True)


class Recorder:
    """Routes queries to oracles (0-indexed agents) and is the run's transcript.

    Points, targets and answers are kept as integer pairs (numerator,
    denominator > 0); `records` builds their QueryRecords of Fractions on
    each read.
    """

    def __init__(self, oracles):
        self._agents = [o if type(o) is Valuation else _StandIn(o) for o in oracles]
        self._log = []
        self.cut_count = 0
        self.inexact_cuts = 0

    @property
    def records(self):
        return [
            QueryRecord(i, kind, (Fraction(*x), Fraction(*y)), Fraction(*response))
            for i, kind, x, y, response in self._log
        ]

    @property
    def total(self):
        return len(self._log)

    @property
    def eval_count(self):
        return len(self._log) - self.cut_count

    def eval(self, i, a, b):
        return Fraction(*self._eval_pair(i, _ratio(a), _ratio(b)))

    def cut(self, i, a, target, end=1):
        """Agent i's cut of the slice [a, end], held to the slice."""
        return Fraction(*self._cut_pair(i, _ratio(a), _ratio(target), _ratio(end)))

    def _eval_pair(self, i, a, b):
        # Agent i's worth of [a, b], all three as integer pairs.
        response = self._agents[i]._eval_pair(a, b)
        self._log.append((i, "eval", a, b, response))
        return response

    def _cut_pair(self, i, a, target, end=(1, 1)):
        # Agent i's cut of the slice [a, end], held to the slice, all as
        # integer pairs: a bound is returned as given.
        n, d, exact = self._agents[i]._cut_pair(a, target)
        self._log.append((i, "cut", a, target, (n, d)))
        self.cut_count += 1
        self.inexact_cuts += not exact
        (an, ad), (en, ed) = a, end
        if n * ad <= an * d:
            return a
        if n * ed >= en * d:
            return end
        return n, d


@dataclass(frozen=True)
class MechanismResult:
    """What a protocol run produces: the allocation and how it was reached."""

    allocation: object
    transcript: Recorder
