"""Definition-level cross-checks for the solver.

Promises are rebuilt here from the raw payment formula, with none of the
solver's code paths. ``oracle_min_budget`` re-verifies every domination
payoff by payoff through ``ModifiedGameView.payoff`` and re-sums worst-case
payments directly over the desired region, so its agreement with the
solver's search is independent evidence.

``oracle_verify`` judges a promise the same way from the definition of
cost: each player's undominated set from payoff-by-payoff dominance over all
pairs, and the largest payment total over the product of those sets. It
shares no code with ``checking.verify`` and only returns its report type.
``oracle_zero_cost`` builds its promise here and decides through
``oracle_verify``, so criterion 06 (``is_pne == oracle_zero_cost ==
(delta == 0)``) cross-checks the stability test and the search's price
against a second verifier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .checking import VerifyReport
from .model import (
    MAX_PROFILES,
    Game,
    GraphicalGame,
    ModifiedGameView,
    PaymentPromise,
    Profile,
    RectRegion,
)
from .solver import DominatorMapping
from .values import INF, ZERO, ExtValue, ValueLike

MAX_MAPPINGS = 10**6


@dataclass(frozen=True)
class OracleResult:
    """The full landscape of worst-case payments over the assignment space."""

    delta: ExtValue
    all_optimal_mappings: tuple[DominatorMapping, ...]
    per_mapping_costs: dict[DominatorMapping, ExtValue]


def _require_normal(game):
    if isinstance(game, GraphicalGame):
        raise ValueError("the oracle works on normal-form games; expand the graphical game first")
    return game


def _refuse_large(game: Game) -> None:
    """Refuse a game in which some player has more than ``MAX_PROFILES``
    opponent profiles, then one with more than ``MAX_PROFILES`` profiles,
    before any of them is enumerated."""
    for i in range(game.n_players):
        count = math.prod(size for j, size in enumerate(game.sizes) if j != i)
        if count > MAX_PROFILES:
            raise ValueError(
                f"player {i} has {count} opponent profiles, above the {MAX_PROFILES} "
                "cap on the oracle's enumeration"
            )
    count = math.prod(game.sizes)
    if count > MAX_PROFILES:
        raise ValueError(
            f"the game has {count} profiles, above the {MAX_PROFILES} cap on the oracle's "
            "enumeration"
        )


def _dominates_by_definition(view: ModifiedGameView, player: int, x: int, y: int) -> bool:
    """Whether x is never worse than y against any opponent choice and
    strictly better against one, read payoff by payoff."""
    strict = False
    for opp in view.game.opponent_profiles(player):
        px, py = view.payoff(player, x, opp), view.payoff(player, y, opp)
        if px < py:
            return False
        strict = strict or py < px
    return strict


def _off_region_infinities(game: Game, region: RectRegion, player: int) -> dict[Profile, ExtValue]:
    """Infinity on every desired row of ``player`` against each opponent
    choice in which some opponent leaves the region."""
    desired_sets = [set(members) for members in region.sets]
    opp_players = [j for j in range(game.n_players) if j != player]
    table: dict[Profile, ExtValue] = {}
    for opp in itertools.product(*(range(game.sizes[j]) for j in opp_players)):
        if all(s in desired_sets[j] for s, j in zip(opp, opp_players)):
            continue
        for o_i in region.sets[player]:
            table[game.key_of(player, o_i, opp)] = INF
    return table


def _promise_for(game: Game, region: RectRegion, mapping: DominatorMapping) -> PaymentPromise:
    tables: list[dict[Profile, ExtValue]] = []
    for i in range(game.n_players):
        table: dict[Profile, ExtValue] = {}
        opp_players = [j for j in range(game.n_players) if j != i]
        for o_i in region.sets[i]:
            preimage = mapping.preimage(i, o_i)
            if preimage:
                for opp in itertools.product(*(region.sets[j] for j in opp_players)):
                    profile = game.key_of(i, o_i, opp)
                    base = game.utility(i, profile)
                    lift = ZERO
                    for x in preimage:
                        gap = game.utility(i, game.key_of(i, x, opp)) - base
                        if lift < gap:
                            lift = gap
                    if lift != ZERO:
                        table[profile] = lift
        table.update(_off_region_infinities(game, region, i))
        tables.append(table)
    return PaymentPromise.make(game, tables)


def oracle_min_budget(game: Game, region: RectRegion) -> OracleResult:
    """Exhaustively price every dominator assignment from first principles.

    For each assignment the promise is rebuilt from the raw formula, every
    undesired strategy is re-checked to be dominated by its assigned desired
    strategy, and the worst-case payment over the desired region is re-summed
    directly. Raises if an assignment fails its domination check. That
    happens when no opponent profile leaves the region (only one player has
    undesired strategies, or the game has one player): nothing then breaks a
    tie between a strategy and its assigned dominator. Assignment spaces above
    ``MAX_MAPPINGS``, games above ``MAX_PROFILES`` profiles and players with
    more than ``MAX_PROFILES`` opponent profiles are refused before any
    promise is built.
    """
    game = _require_normal(game)
    region.validate_for(game)
    domains = tuple(region.complement(game, i) for i in range(game.n_players))
    space_size = 1
    for i in range(game.n_players):
        space_size *= len(region.sets[i]) ** len(domains[i])
    if space_size > MAX_MAPPINGS:
        raise ValueError(f"assignment space has {space_size} elements, above the {MAX_MAPPINGS} cap")
    _refuse_large(game)

    landscape: dict[DominatorMapping, ExtValue] = {}
    best: ExtValue | None = None
    optima: list[DominatorMapping] = []
    per_player = [
        itertools.product(region.sets[i], repeat=len(domains[i]))
        for i in range(game.n_players)
    ]
    for targets in itertools.product(*[list(p) for p in per_player]):
        mapping = DominatorMapping(domains=domains, targets=targets)
        promise = _promise_for(game, region, mapping)
        view = ModifiedGameView(game, promise)
        for i in range(game.n_players):
            for x, t in zip(domains[i], targets[i]):
                if not _dominates_by_definition(view, i, t, x):
                    raise ValueError(
                        f"assignment {t}<-{x} for player {i} fails its domination check: the "
                        "two tie, and no opponent profile leaves the region to break the tie"
                    )
        worst = ZERO
        for profile in region.profiles():
            total: ExtValue = ZERO
            for i in range(game.n_players):
                total = total + promise.value(i, profile)
            if worst < total:
                worst = total
        landscape[mapping] = worst
        if best is None or worst < best:
            best = worst
            optima = [mapping]
        elif worst == best:
            optima.append(mapping)
    assert best is not None
    return OracleResult(
        delta=best,
        all_optimal_mappings=tuple(optima),
        per_mapping_costs=landscape,
    )


def oracle_verify(
    game: Game,
    promise: PaymentPromise | None,
    region: RectRegion,
    budget: ValueLike,
    mode: str = "subset",
) -> VerifyReport:
    """``checking.verify`` re-derived from the definitions.

    A strategy is undominated when no other strategy of its player dominates
    it payoff by payoff; the cost is the largest sum of the promised payments
    over the product of the undominated sets. The violation is the first
    (player, strategy) in index order that is undominated but undesired or,
    in exact mode, also desired but dominated. ``_refuse_large`` refuses
    oversized games before any payoff is read.
    """
    if mode not in ("subset", "exact"):
        raise ValueError(f"mode must be 'subset' or 'exact', got {mode!r}")
    budget = ExtValue(budget)
    game = _require_normal(game)
    region.validate_for(game)
    _refuse_large(game)
    view = ModifiedGameView(game, promise)
    kept_sets = []
    violation: tuple[int, int] | None = None
    for i, size in enumerate(game.sizes):
        kept = [
            y for y in range(size)
            if not any(_dominates_by_definition(view, i, x, y) for x in range(size) if x != y)
        ]
        kept_sets.append(kept)
        desired = set(region.sets[i])
        wrong = set(kept) ^ desired if mode == "exact" else set(kept) - desired
        if wrong and violation is None:
            violation = (i, min(wrong))
    worst = ZERO
    if promise is not None:
        for profile in itertools.product(*kept_sets):
            total: ExtValue = ZERO
            for i in range(game.n_players):
                total = total + promise.value(i, profile)
            if worst < total:
                worst = total
    return VerifyReport(
        mode=mode,
        holds=violation is None and worst <= budget,
        undominated_region=RectRegion.make(kept_sets),
        cost=worst,
        budget=budget,
        violation=violation,
    )


def oracle_zero_cost(game: Game, region: RectRegion) -> bool:
    """Whether the full desired region implements itself at budget 0: build
    the pay-infinity-off-region promise and judge it with ``oracle_verify``
    at budget 0.

    This is the same full-region test as ``is_pne`` (criterion 06), with the
    promise built and judged from first principles.
    It does not decide zero-cost implementability: a region can still be
    implemented at zero cost through a smaller undominated sub-region, which
    this check never tries.
    """
    game = _require_normal(game)
    region.validate_for(game)
    _refuse_large(game)
    tables = [_off_region_infinities(game, region, i) for i in range(game.n_players)]
    promise = PaymentPromise.make(game, tables)
    return oracle_verify(game, promise, region, ZERO).holds
