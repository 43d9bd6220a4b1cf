"""Weak dominance on plain and payment-modified games.

A strategy x dominates y for player i when x is never worse than y against
any joint opponent choice and strictly better against at least one. For
graphical views the opponent choices range over the neighborhood only.
No iterated elimination happens here; undominatedness is one-shot.
"""

from __future__ import annotations

from .model import ModifiedGameView, RectRegion


def dominates(view: ModifiedGameView, player: int, x: int, y: int) -> bool:
    """Whether strategy x dominates strategy y."""
    if x == y:
        raise ValueError("a strategy cannot dominate itself")
    strict = False
    for opp in view.opponent_profiles(player):
        px = view.payoff(player, x, opp)
        py = view.payoff(player, y, opp)
        if px < py:
            return False
        strict = strict or py < px
    return strict


def undominated(view: ModifiedGameView, player: int) -> tuple[int, ...]:
    """Strategies of ``player`` that no other strategy dominates."""
    size = view.sizes[player]
    kept = []
    for y in range(size):
        if not any(dominates(view, player, x, y) for x in range(size) if x != y):
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
        if x != y and dominates(view, player, x, y):
            return x
    raise ValueError(f"strategy {y} of player {player} is undominated")
