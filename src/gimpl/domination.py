"""Weak dominance on plain and payment-modified games.

A strategy x dominates y for player i when x is never worse than y against
any joint opponent choice and strictly better against at least one. For
graphical views the opponent choices range over the neighborhood only.
No iterated elimination happens here; undominatedness is one-shot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModifiedGameView, RectRegion


@dataclass(frozen=True)
class DominanceWitness:
    """Evidence that ``dominating`` weakly beats ``dominated`` for ``player``,
    with strictness at the opponent profile ``strict_at``."""

    player: int
    dominating: int
    dominated: int
    strict_at: tuple[int, ...]


def dominates(
    view: ModifiedGameView, player: int, x: int, y: int
) -> DominanceWitness | None:
    """Return a witness if strategy x dominates strategy y, else None."""
    if x == y:
        raise ValueError("a strategy cannot dominate itself")
    strict: tuple[int, ...] | None = None
    for opp in view.opponent_profiles(player):
        px = view.payoff(player, x, opp)
        py = view.payoff(player, y, opp)
        if px < py:
            return None
        if strict is None and py < px:
            strict = opp
    if strict is None:
        return None
    return DominanceWitness(player, x, y, strict)


def undominated(view: ModifiedGameView, player: int) -> tuple[int, ...]:
    """Strategies of ``player`` that no other strategy dominates."""
    size = view.sizes[player]
    kept = []
    for y in range(size):
        if not any(dominates(view, player, x, y) is not None for x in range(size) if x != y):
            kept.append(y)
    return tuple(kept)


def undominated_region(view: ModifiedGameView) -> RectRegion:
    """Product of the per-player undominated sets; never empty."""
    return RectRegion.make([undominated(view, i) for i in range(view.n_players)])


def find_dominator(view: ModifiedGameView, player: int, y: int) -> int:
    """Smallest-index undominated strategy dominating ``y``.

    Raises ValueError when ``y`` is itself undominated.
    """
    for x in undominated(view, player):
        if x != y and dominates(view, player, x, y) is not None:
            return x
    raise ValueError(f"strategy {y} of player {player} is undominated")
