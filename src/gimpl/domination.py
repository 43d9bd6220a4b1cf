"""Weak dominance on plain and payment-modified games.

A strategy x dominates y for player i when x is never worse than y against
any joint opponent choice and strictly better against at least one. For
graphical views the opponent choices range over the neighborhood only.
Both tests compare the view's integer payoff columns, which it builds once
per player. No iterated elimination happens here; undominatedness is
one-shot.
"""

from __future__ import annotations

import operator

from .model import ModifiedGameView, RectRegion


def _beats(cx: list[int], cy: list[int]) -> bool:
    """Whether payoff column ``cx`` is never below ``cy`` and not equal to it."""
    return all(map(operator.ge, cx, cy)) and cx != cy


def dominates(view: ModifiedGameView, player: int, x: int, y: int) -> bool:
    """Whether strategy x dominates strategy y."""
    if x == y:
        raise ValueError("a strategy cannot dominate itself")
    columns = view.columns(player)
    return _beats(columns[x], columns[y])


def undominated(view: ModifiedGameView, player: int) -> tuple[int, ...]:
    """Strategies of ``player`` that no other strategy dominates."""
    columns = view.columns(player)
    return tuple(
        y
        for y, cy in enumerate(columns)
        if not any(_beats(cx, cy) for x, cx in enumerate(columns) if x != y)
    )


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
