"""Cost of a payment promise and verification of (exact) implementation.

The cost of a promise is the worst-case total payment over the modified
game's undominated region only; payments attached to dominated profiles are
free. A promise implements a desired region when every undominated strategy
is desired (subset mode) and implements it exactly when, in addition, every
desired strategy stays undominated.

Both steps compute on exact numbers, never on floats: dominance compares the
view's rank columns, and pricing sums the payments as ``ExtValue.exact``
gives them (ints where integral, Fractions otherwise). Reports carry
``ExtValue``s.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .domination import undominated_region
from .model import MAX_PROFILES, AnyGame, ModifiedGameView, PaymentPromise, RectRegion
from .values import INF, ZERO, ExtValue


@dataclass(frozen=True)
class VerifyReport:
    mode: str  # "subset" | "exact"
    holds: bool
    undominated_region: RectRegion
    cost: ExtValue
    budget: ExtValue
    violation: tuple[int, int] | None  # (player, strategy), first in index order


def _max_payment_over(view: ModifiedGameView, region: RectRegion) -> ExtValue:
    """Largest total payment over the profiles of ``region``; regions with
    more than ``MAX_PROFILES`` profiles are refused before any enumeration.

    Each player's payments over the profiles are read once, through
    ``key_at``, as the exact numbers of ``ExtValue.exact``; any infinite
    payment makes the answer infinite."""
    count = math.prod(map(len, region.sets))
    if count > MAX_PROFILES:
        raise ValueError(
            f"cost needs the {count} profiles of the undominated region, above the "
            f"{MAX_PROFILES} cap"
        )
    if view.promise is None:
        return ZERO
    profiles = list(itertools.product(*region.sets))
    key_at, exact = view.game.key_at, operator.attrgetter("exact")
    totals = [0] * count
    for i, table in enumerate(view.promise.entries):
        keys = map(key_at, itertools.repeat(i), profiles)
        payments = list(map(exact, map(table.get, keys, itertools.repeat(ZERO))))
        if None in payments:
            return INF
        totals = list(map(operator.add, totals, payments))
    return ExtValue(max(totals))


def cost(game: AnyGame, promise: PaymentPromise | None) -> ExtValue:
    """Worst-case total payment over the modified game's undominated region."""
    view = ModifiedGameView(game, promise)
    return _max_payment_over(view, undominated_region(view))


def verify(
    game: AnyGame,
    promise: PaymentPromise | None,
    region: RectRegion,
    budget: ExtValue,
    mode: str = "subset",
) -> VerifyReport:
    """Check whether ``promise`` implements ``region`` within ``budget``."""
    if mode not in ("subset", "exact"):
        raise ValueError(f"mode must be 'subset' or 'exact', got {mode!r}")
    region.validate_for(game)
    view = ModifiedGameView(game, promise)
    star = undominated_region(view)

    violation: tuple[int, int] | None = None
    for i in range(game.n_players):
        star_i = set(star.sets[i])
        desired_i = set(region.sets[i])
        for s in range(game.sizes[i]):
            outside = s in star_i and s not in desired_i
            missing = mode == "exact" and s in desired_i and s not in star_i
            if outside or missing:
                violation = (i, s)
                break
        if violation is not None:
            break

    total = _max_payment_over(view, star)
    holds = violation is None and total <= budget
    return VerifyReport(
        mode=mode,
        holds=holds,
        undominated_region=star,
        cost=total,
        budget=budget,
        violation=violation,
    )
