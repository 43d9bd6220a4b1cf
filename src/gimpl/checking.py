"""Cost of a payment promise and verification of (exact) implementation.

The cost of a promise is the worst-case total payment over the modified
game's undominated region only; payments attached to dominated profiles are
free. A promise implements a desired region when every undominated strategy
is desired (subset mode) and implements it exactly when, in addition, every
desired strategy stays undominated.

Both steps compute on exact numbers, never on floats: dominance compares the
view's rank columns, and pricing sums each profile's payments as
``ExtValue.exact`` gives them (ints where integral, Fractions otherwise).
Reports carry ``ExtValue``s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domination import undominated_region
from .model import MAX_PROFILES, AnyGame, ModifiedGameView, PaymentPromise, RectRegion
from .values import INF, ZERO, ExtValue, ValueLike


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

    Each profile's payments are read through ``key_at`` and summed as the
    exact numbers of ``ExtValue.exact``; any infinite payment makes the
    answer infinite."""
    count = math.prod(map(len, region.sets))
    if count > MAX_PROFILES:
        raise ValueError(
            f"cost needs the {count} profiles of the undominated region, above the "
            f"{MAX_PROFILES} cap"
        )
    if view.promise is None:
        return ZERO
    key_at, tables = view.game.key_at, tuple(enumerate(view.promise.entries))
    worst = 0
    for profile in region.profiles():
        total = 0
        for i, table in tables:
            number = table.get(key_at(i, profile), ZERO).exact
            if number is None:
                return INF
            total += number
        worst = max(worst, total)
    return ExtValue(worst)


def cost(game: AnyGame, promise: PaymentPromise | None) -> ExtValue:
    """Worst-case total payment over the modified game's undominated region."""
    view = ModifiedGameView(game, promise)
    return _max_payment_over(view, undominated_region(view))


def verify(
    game: AnyGame,
    promise: PaymentPromise | None,
    region: RectRegion,
    budget: ValueLike,
    mode: str = "subset",
) -> VerifyReport:
    """Check whether ``promise`` implements ``region`` within ``budget``,
    read as an ``ExtValue`` (so ``0`` and ``"1/2"`` are budgets too)."""
    if mode not in ("subset", "exact"):
        raise ValueError(f"mode must be 'subset' or 'exact', got {mode!r}")
    budget = ExtValue(budget)
    region.validate_for(game)
    view = ModifiedGameView(game, promise)
    star = undominated_region(view)

    violation: tuple[int, int] | None = None
    for i, (kept, desired) in enumerate(zip(star.sets, region.sets)):
        wrong = set(kept) ^ set(desired) if mode == "exact" else set(kept) - set(desired)
        if wrong:
            violation = (i, min(wrong))
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
