"""Weak dominance on plain and payment-modified games.

A strategy x dominates y for player i when x is never worse than y against
any joint opponent choice and strictly better against at least one. For
graphical views the opponent choices range over the neighborhood only.
Both tests compare the view's integer payoff columns, built once per player;
``undominated`` stops at each strategy's first dominator in index order. No
iterated elimination happens here; undominatedness is one-shot.
"""

from __future__ import annotations

import operator

from .model import ModifiedGameView, RectRegion


def _beats(cx: list[int], cy: list[int]) -> bool:
    """Whether payoff column ``cx`` is never below ``cy`` and not equal to it."""
    return all(map(operator.ge, cx, cy)) and cx != cy


def _check_strategy(columns: list[list[int]], player: int, s: int) -> None:
    """Refuse ``s`` unless it is an int naming one of the player's strategies."""
    if type(s) is not int or not 0 <= s < len(columns):
        raise ValueError(f"player {player} has no strategy {s!r}")


def dominates(view: ModifiedGameView, player: int, x: int, y: int) -> bool:
    """Whether strategy x dominates strategy y; an index naming no player or
    strategy is refused before x and y are compared."""
    columns = view.columns(player)
    for s in (x, y):
        _check_strategy(columns, player, s)
    if x == y:
        raise ValueError("a strategy cannot dominate itself")
    return _beats(columns[x], columns[y])


def undominated(view: ModifiedGameView, player: int) -> tuple[int, ...]:
    """Strategies of ``player`` that no other strategy dominates."""
    columns = view.columns(player)
    kept = []
    for y, cy in enumerate(columns):
        for x, cx in enumerate(columns):
            if x != y and _beats(cx, cy):
                break
        else:
            kept.append(y)
    return tuple(kept)


def undominated_region(view: ModifiedGameView) -> RectRegion:
    """Product of the per-player undominated sets, each sorted and never empty."""
    return RectRegion(tuple(undominated(view, i) for i in range(view.n_players)))


def find_dominator(view: ModifiedGameView, player: int, y: int) -> int:
    """Smallest-index undominated strategy dominating ``y``.

    Raises ValueError when ``y`` names no strategy or is itself undominated.
    """
    _check_strategy(view.columns(player), player, y)
    for x in undominated(view, player):
        if x != y and dominates(view, player, x, y):
            return x
    raise ValueError(f"strategy {y} of player {player} is undominated")
