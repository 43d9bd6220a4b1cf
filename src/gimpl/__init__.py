"""Payment promises that implement desired strategy sets in finite games.

Core objects live in :mod:`gimpl.model`, weak dominance in
:mod:`gimpl.domination`, cost/verification in :mod:`gimpl.checking`, the
minimum-budget search and exactification in :mod:`gimpl.solver`,
definition-level cross-checks in :mod:`gimpl.oracle`, and the hardness
constructions in :mod:`gimpl.reductions`.
"""

from .checking import VerifyReport, cost, verify
from .domination import dominates, find_dominator, undominated, undominated_region
from .instancefmt import FormatError, InstanceDoc, parse_instance, serialize_instance
from .model import (
    Game,
    GraphicalGame,
    ModifiedGameView,
    PaymentPromise,
    RectRegion,
    expand_graphical,
    expand_graphical_promise,
)
from .oracle import OracleResult, oracle_min_budget, oracle_zero_cost
from .solver import (
    DominatorMapping,
    PneReport,
    SolveResult,
    compute_v,
    exactify,
    is_equitable,
    is_pne,
    min_budget_solve,
    pne_promise,
    solve_exact,
)
from .values import INF, ZERO, ExtValue

__all__ = [
    "DominatorMapping",
    "ExtValue",
    "FormatError",
    "Game",
    "GraphicalGame",
    "INF",
    "InstanceDoc",
    "ModifiedGameView",
    "OracleResult",
    "PaymentPromise",
    "PneReport",
    "RectRegion",
    "SolveResult",
    "VerifyReport",
    "ZERO",
    "compute_v",
    "cost",
    "dominates",
    "exactify",
    "expand_graphical",
    "expand_graphical_promise",
    "find_dominator",
    "is_equitable",
    "is_pne",
    "min_budget_solve",
    "oracle_min_budget",
    "oracle_zero_cost",
    "parse_instance",
    "pne_promise",
    "serialize_instance",
    "solve_exact",
    "undominated",
    "undominated_region",
    "verify",
]
