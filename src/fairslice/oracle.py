"""Query-model runtime: agents as oracles, every question on the record.

Protocols in this family interact with agents only through two questions:

  eval(a, b)      how much is [a,b] worth to you?
  cut(a, target)  where does [a, b] reach the given worth, starting at a?

AgentOracle answers sincerely from a Valuation.  Anything with the same two
methods can stand in for it, which is how the tests model agents that lie.
A Recorder sits between a running mechanism and its oracles, logging every
query and reply so runs are replayable and query complexity is measurable.
"""

from dataclasses import dataclass, field


class AgentOracle:
    """Sincere adapter: answers exactly from the underlying valuation."""

    def __init__(self, valuation):
        self.valuation = valuation

    def eval(self, a, b):
        return self.valuation.eval(a, b)

    def cut(self, a, target):
        return self.valuation.cut(a, target).point


def sincere_oracles(valuations):
    return [AgentOracle(v) for v in valuations]


@dataclass(frozen=True)
class QueryRecord:
    agent: int
    kind: str  # "eval" or "cut"
    args: tuple
    response: object


@dataclass
class QueryTranscript:
    """Ordered log of every oracle interaction in one mechanism run."""

    records: list = field(default_factory=list)

    def add(self, agent, kind, args, response):
        self.records.append(QueryRecord(agent, kind, tuple(args), response))

    @property
    def total(self):
        return len(self.records)

    def count(self, kind=None):
        return sum(1 for r in self.records if kind is None or r.kind == kind)

    @property
    def eval_count(self):
        return self.count("eval")

    @property
    def cut_count(self):
        return self.count("cut")

    def replay(self, oracles):
        """Re-issue every recorded query; True when all responses match."""
        for r in self.records:
            answer = getattr(oracles[r.agent], r.kind)(*r.args)
            if answer != r.response:
                return False
        return True


class Recorder:
    """Routes queries to oracles (0-indexed agents) and logs them."""

    def __init__(self, oracles):
        self.oracles = list(oracles)
        self.transcript = QueryTranscript()

    def eval(self, i, a, b):
        response = self.oracles[i].eval(a, b)
        self.transcript.add(i, "eval", (a, b), response)
        return response

    def cut(self, i, a, target):
        response = self.oracles[i].cut(a, target)
        self.transcript.add(i, "cut", (a, target), response)
        return response


@dataclass(frozen=True)
class MechanismResult:
    """What a protocol run produces: the allocation and how it was reached."""

    allocation: object
    transcript: QueryTranscript
