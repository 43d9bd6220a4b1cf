"""Payment promises that implement desired strategy sets in finite games.

Core objects live in :mod:`gimpl.model`, weak dominance in
:mod:`gimpl.domination`, cost/verification in :mod:`gimpl.checking`, the
minimum-budget search and exactification in :mod:`gimpl.solver`,
definition-level cross-checks in :mod:`gimpl.oracle`, and the hardness
constructions in :mod:`gimpl.reductions`.

``_HOMES`` lists each public name once, under the module that defines it.
Importing the package loads none of those modules: a public name, or one of
the modules, is imported on first use (``__getattr__``) and kept in the
package namespace, so later lookups are plain attribute reads.
"""

import importlib

_HOMES = {
    "checking": ("VerifyReport", "cost", "verify"),
    "domination": ("dominates", "find_dominator", "undominated", "undominated_region"),
    "instancefmt": ("FormatError", "InstanceDoc", "parse_instance", "serialize_instance"),
    "model": (
        "Game", "GraphicalGame", "ModifiedGameView", "PaymentPromise", "RectRegion",
        "expand_graphical", "expand_graphical_promise",
    ),
    "oracle": ("OracleResult", "oracle_min_budget", "oracle_zero_cost"),
    "solver": (
        "DominatorMapping", "PneReport", "SolveResult", "compute_v", "exactify",
        "is_equitable", "is_pne", "min_budget_solve", "pne_promise", "solve_exact",
    ),
    "values": ("INF", "ZERO", "ExtValue"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME_OF)


def __getattr__(name: str) -> object:
    if name in _HOMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
