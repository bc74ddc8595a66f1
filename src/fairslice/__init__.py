"""Exact-arithmetic cake cutting on the unit interval.

Mechanisms for dividing [0,1] among agents with additive non-atomic
preferences, equity and efficiency audits for the resulting allocations,
equilibrium analysis for the revelation games over piecewise uniform
preferences, and exact linear programming for constrained welfare optima.
"""

from types import ModuleType as _ModuleType

from fairslice.intervals import Interval, IntervalSet, frac, union_all
from fairslice.valuation import Valuation, Piece, CutResult, TargetUnreachable
from fairslice.audit import (
    Allocation,
    equity_table,
    is_proportional,
    is_envy_free,
    is_equitable,
    is_non_wasteful,
    uncovered_valued_cake,
    utilitarian_efficiency,
    egalitarian_efficiency,
    pareto_dominates,
    utilitarian_equivalent,
)
from fairslice.oracle import (
    AgentOracle,
    MechanismResult,
    QueryRecord,
    QueryTranscript,
    Recorder,
    sincere_oracles,
)
from fairslice.mechanisms import (
    ArityMismatch,
    cut_and_choose,
    even_paz,
    last_diminisher,
    selfridge,
)
from fairslice.uniform import (
    AgentOrder,
    EmptySubset,
    Infeasible,
    Profile,
    ServiceRound,
    TooManyAgents,
    UniformPreference,
    average_share,
    exact_allocation,
    length_game,
    lex_order,
    min_average_mechanism,
    min_average_rounds,
    min_average_subset,
    valued_region,
)
from fairslice.equilibrium import (
    EquilibriumReport,
    LengthOrderViolation,
    NotReduced,
    NotWellBehaved,
    ReducedProfile,
    UnallocatedValuedCake,
    best_response,
    best_response_dynamics,
    is_equilibrium,
    reduce_profile,
    uncontested_region,
)
from fairslice.simplex import LpProblem, LpSolution, lp_solve
from fairslice.optimal import (
    CRITERIA,
    SegmentRateMatrix,
    Segmentation,
    max_ee,
    max_ue,
    pareto_oracle,
    price_of,
    segment,
    segment_rates,
    utilitarian_optimal,
)
from fairslice.scenario import (
    ParseError,
    Scenario,
    parse_scenario,
    region_pairs,
    serialize_scenario,
)
from fairslice.generator import random_region, random_uniform_agents

# Every public name imported above, none of the submodules.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
