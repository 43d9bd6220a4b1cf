"""Weak dominance on plain and payment-modified games.

A strategy x dominates y for player i when x is never worse than y against
any joint opponent choice and strictly better against at least one. For
graphical views the opponent choices range over the neighborhood only.
Every test compares the view's integer payoff columns, which the view
builds per call and never keeps, so each function reads one layout of the
player and compares all its pairs on it; ``undominated`` stops at each
strategy's first dominator in index order. No iterated elimination happens
here; undominatedness is one-shot.
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


def _undominated(columns: list[list[int]]) -> tuple[int, ...]:
    """Strategies whose payoff column no other strategy's column beats."""
    kept = []
    for y, cy in enumerate(columns):
        for x, cx in enumerate(columns):
            if x != y and _beats(cx, cy):
                break
        else:
            kept.append(y)
    return tuple(kept)


def undominated(view: ModifiedGameView, player: int) -> tuple[int, ...]:
    """Strategies of ``player`` that no other strategy dominates."""
    return _undominated(view.columns(player))


def undominated_region(view: ModifiedGameView) -> RectRegion:
    """Product of the per-player undominated sets, each sorted and never empty."""
    return RectRegion(tuple(undominated(view, i) for i in range(view.n_players)))


def find_dominator(view: ModifiedGameView, player: int, y: int) -> int:
    """Smallest-index undominated strategy dominating ``y``.

    Raises ValueError when ``y`` names no strategy or is itself undominated.
    """
    columns = view.columns(player)
    _check_strategy(columns, player, y)
    for x in _undominated(columns):
        if x != y and _beats(columns[x], columns[y]):
            return x
    raise ValueError(f"strategy {y} of player {player} is undominated")
