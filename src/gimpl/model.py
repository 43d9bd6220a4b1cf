"""Finite games, rectangular regions, payment promises, and modified views.

Players and strategies are identified by position; names are labels only.
A strategy profile is a plain tuple of strategy indices, one per player in
player order. Utility and promise tables are sparse dicts with an implicit
default of 0, since the interesting constructions set only finitely many
nonzero entries.

All objects here are immutable after construction and safe to share across
workers; build them through the ``make`` classmethods, which canonicalize
(zero entries dropped, index sets sorted) so that equality is structural.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .values import ZERO, ExtValue, ValueLike

Profile = tuple[int, ...]
LocalKey = tuple[int, ...]  # (own strategy, *neighbor strategies), graphical games

# Largest number of full strategy profiles ``expand_graphical`` enumerates.
MAX_PROFILES = 2**16


def _check_profile(profile: Sequence[int], sizes: Sequence[int], what: str) -> Profile:
    prof = tuple(profile)
    if len(prof) != len(sizes):
        raise ValueError(f"{what} has {len(prof)} entries, expected {len(sizes)}")
    for pos, (idx, size) in enumerate(zip(prof, sizes)):
        if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < size:
            raise ValueError(f"index out of range in {what}: position {pos} holds {idx!r}")
    return prof


def _canonical_table(
    raw: Mapping[Sequence[int], ValueLike] | None,
    sizes: Sequence[int],
    what: str,
    *,
    allow_infinite: bool,
    allow_negative: bool,
) -> dict[tuple[int, ...], ExtValue]:
    table: dict[tuple[int, ...], ExtValue] = {}
    for key, value in (raw or {}).items():
        prof = _check_profile(key, sizes, what)
        ext = ExtValue(value)
        if not ext.is_finite:
            if not allow_infinite:
                raise ValueError(f"infinite utility at {what} {prof}")
        elif not allow_negative and ext < ZERO:
            raise ValueError(f"negative promise at {what} {prof}")
        if ext != ZERO:
            table[prof] = ext
    return table


def _check_players(
    players: Iterable[str], strategies: Iterable[Iterable[str]], tables: Sequence[object]
) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
    """Names and strategy lists of a game, checked against one table per player."""
    names = tuple(players)
    strats = tuple(tuple(s) for s in strategies)
    if not names:
        raise ValueError("a game needs at least one player")
    if len(strats) != len(names):
        raise ValueError("players and strategy lists disagree in length")
    for i, options in enumerate(strats):
        if not options:
            raise ValueError(f"player {i} has no strategies")
    if len(tables) != len(names):
        raise ValueError("one utility table per player is required")
    return names, strats


def _max_utility(tables: Iterable[tuple[Mapping[tuple[int, ...], ExtValue], int]]) -> ExtValue:
    """Largest value over (sparse table, full table size) pairs, counting the
    implicit 0 of every table that leaves some entry unset."""
    values = []
    for table, full in tables:
        values.extend(table.values())
        if len(table) < full:
            values.append(ZERO)
    return max(values, default=ZERO)


def _embed(opp: tuple[int, ...], player: int, strategy: int) -> Profile:
    """The full profile in which ``player`` plays ``strategy`` against the
    joint choice ``opp`` of all other players."""
    return opp[:player] + (strategy,) + opp[player:]


@dataclass(frozen=True)
class Game:
    """A finite normal-form game with exact rational utilities.

    ``utilities[i]`` maps full strategy profiles to finite values; omitted
    profiles have utility 0.
    """

    players: tuple[str, ...]
    strategies: tuple[tuple[str, ...], ...]
    utilities: tuple[dict[Profile, ExtValue], ...]

    @classmethod
    def make(
        cls,
        players: Iterable[str],
        strategies: Iterable[Iterable[str]],
        utilities: Sequence[Mapping[Sequence[int], ValueLike] | None],
    ) -> "Game":
        names, strats = _check_players(players, strategies, utilities)
        sizes = tuple(len(s) for s in strats)
        tables = tuple(
            _canonical_table(
                utilities[i], sizes, f"utility profile of player {i}",
                allow_infinite=False, allow_negative=True,
            )
            for i in range(len(names))
        )
        return cls(names, strats, tables)

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strategies)

    def utility(self, player: int, profile: Profile) -> ExtValue:
        return self.utilities[player].get(profile, ZERO)

    def profiles(self) -> Iterator[Profile]:
        return itertools.product(*(range(n) for n in self.sizes))

    def max_utility(self) -> ExtValue:
        """Largest utility any player receives anywhere (0 for unset entries)."""
        full = _product(self.sizes)
        return _max_utility((table, full) for table in self.utilities)


def _product(sizes: Iterable[int]) -> int:
    total = 1
    for n in sizes:
        total *= n
    return total


@dataclass(frozen=True)
class GraphicalGame:
    """A game on an undirected graph; each utility is neighborhood-local.

    ``local_utilities[i]`` maps ``(own strategy, *neighbor strategies)`` to a
    finite value, neighbors taken in ascending player order. Omitted keys
    have utility 0.
    """

    players: tuple[str, ...]
    strategies: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[int, int], ...]
    neighborhoods: tuple[tuple[int, ...], ...]
    local_utilities: tuple[dict[LocalKey, ExtValue], ...]

    @classmethod
    def make(
        cls,
        players: Iterable[str],
        strategies: Iterable[Iterable[str]],
        edges: Iterable[Sequence[int]],
        local_utilities: Sequence[Mapping[Sequence[int], ValueLike] | None],
    ) -> "GraphicalGame":
        names, strats = _check_players(players, strategies, local_utilities)
        n = len(names)
        canon_edges: set[tuple[int, int]] = set()
        for edge in edges:
            a, b = edge
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge {edge!r} references an unknown player")
            if a == b:
                raise ValueError(f"self-loop on player {a}")
            canon_edges.add((min(a, b), max(a, b)))
        ngb: list[list[int]] = [[] for _ in range(n)]
        for a, b in canon_edges:
            ngb[a].append(b)
            ngb[b].append(a)
        neighborhoods = tuple(tuple(sorted(js)) for js in ngb)
        sizes = tuple(len(s) for s in strats)
        tables = []
        for i in range(n):
            local_sizes = (sizes[i],) + tuple(sizes[j] for j in neighborhoods[i])
            tables.append(
                _canonical_table(
                    local_utilities[i], local_sizes, f"local utility key of player {i}",
                    allow_infinite=False, allow_negative=True,
                )
            )
        return cls(names, strats, tuple(sorted(canon_edges)), neighborhoods, tuple(tables))

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strategies)

    def neighbors(self, player: int) -> tuple[int, ...]:
        return self.neighborhoods[player]

    def degree(self) -> int:
        return max((len(js) for js in self.neighborhoods), default=0)

    def local_key(self, player: int, profile: Profile) -> LocalKey:
        return (profile[player],) + tuple(profile[j] for j in self.neighborhoods[player])

    def local_utility(self, player: int, key: LocalKey) -> ExtValue:
        return self.local_utilities[player].get(key, ZERO)

    def profiles(self) -> Iterator[Profile]:
        return itertools.product(*(range(n) for n in self.sizes))

    def max_utility(self) -> ExtValue:
        sizes = self.sizes
        return _max_utility(
            (table, sizes[i] * _product(sizes[j] for j in self.neighborhoods[i]))
            for i, table in enumerate(self.local_utilities)
        )


AnyGame = Union[Game, GraphicalGame]


@dataclass(frozen=True)
class RectRegion:
    """A rectangular strategy-profile region: one index set per player."""

    sets: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, sets: Iterable[Iterable[int]]) -> "RectRegion":
        canon = []
        for i, raw in enumerate(sets):
            members = tuple(sorted(set(int(x) for x in raw)))
            if not members:
                raise ValueError(f"empty desired set for player {i}")
            canon.append(members)
        if not canon:
            raise ValueError("a region needs at least one player")
        return cls(tuple(canon))

    @classmethod
    def full(cls, game: AnyGame) -> "RectRegion":
        return cls(tuple(tuple(range(n)) for n in game.sizes))

    def validate_for(self, game: AnyGame) -> None:
        if len(self.sets) != game.n_players:
            raise ValueError(
                f"region has {len(self.sets)} players, game has {game.n_players}"
            )
        for i, (members, size) in enumerate(zip(self.sets, game.sizes)):
            if members[-1] >= size:
                raise ValueError(f"region of player {i} references strategy {members[-1]}")

    def complement(self, game: AnyGame, player: int) -> tuple[int, ...]:
        inside = set(self.sets[player])
        return tuple(s for s in range(game.sizes[player]) if s not in inside)

    def is_full_for(self, game: AnyGame, player: int) -> bool:
        return len(self.sets[player]) == game.sizes[player]

    def profiles(self) -> Iterator[Profile]:
        return itertools.product(*self.sets)

    def contains(self, profile: Profile) -> bool:
        return all(s in members for s, members in zip(profile, self.sets))


@dataclass(frozen=True)
class PaymentPromise:
    """Per-player promised bonus payments, nonnegative or infinite.

    Keys are full profiles for normal-form games and local keys
    ``(own strategy, *neighbor strategies)`` for graphical games; omitted
    keys promise 0.
    """

    kind: str  # "normal" | "graphical"
    entries: tuple[dict[tuple[int, ...], ExtValue], ...]

    @classmethod
    def make(
        cls,
        game: AnyGame,
        entries: Sequence[Mapping[Sequence[int], ValueLike] | None],
    ) -> "PaymentPromise":
        graphical = isinstance(game, GraphicalGame)
        if len(entries) != game.n_players:
            raise ValueError("one promise table per player is required")
        tables = []
        for i in range(game.n_players):
            if graphical:
                sizes = (game.sizes[i],) + tuple(game.sizes[j] for j in game.neighborhoods[i])
            else:
                sizes = game.sizes
            tables.append(
                _canonical_table(
                    entries[i], sizes, f"promise key of player {i}",
                    allow_infinite=True, allow_negative=False,
                )
            )
        return cls("graphical" if graphical else "normal", tuple(tables))

    @classmethod
    def empty(cls, game: AnyGame) -> "PaymentPromise":
        kind = "graphical" if isinstance(game, GraphicalGame) else "normal"
        return cls(kind, tuple({} for _ in range(game.n_players)))

    def value(self, player: int, key: tuple[int, ...]) -> ExtValue:
        return self.entries[player].get(key, ZERO)

    def is_zero(self) -> bool:
        return all(not table for table in self.entries)


class ModifiedGameView:
    """A game together with an optional payment promise, read as one game.

    The view exposes the pointwise sums ``utility + promise`` without
    materializing them. For graphical games all queries run over neighbor
    profiles only, which is sound because both the utilities and any
    graphical promise are neighborhood-local.
    """

    def __init__(self, game: AnyGame, promise: PaymentPromise | None = None):
        self.game = game
        self.graphical = isinstance(game, GraphicalGame)
        if promise is not None:
            expected = "graphical" if self.graphical else "normal"
            if promise.kind != expected:
                raise ValueError(f"promise kind {promise.kind!r} does not match a {expected} game")
            if len(promise.entries) != game.n_players:
                raise ValueError("promise and game disagree on the number of players")
        self.promise = promise
        self._utilities = game.local_utilities if self.graphical else game.utilities

    @property
    def n_players(self) -> int:
        return self.game.n_players

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.game.sizes

    def opponents(self, player: int) -> tuple[int, ...]:
        """Players whose choices matter to ``player``, in ascending order."""
        if self.graphical:
            return self.game.neighborhoods[player]
        return tuple(j for j in range(self.game.n_players) if j != player)

    def opponent_profiles(
        self, player: int, region: RectRegion | None = None
    ) -> Iterator[tuple[int, ...]]:
        """All joint opponent choices, optionally restricted to a region."""
        axes = []
        for j in self.opponents(player):
            axes.append(region.sets[j] if region is not None else range(self.sizes[j]))
        return itertools.product(*axes)

    def key_of(self, player: int, strategy: int, opp: tuple[int, ...]) -> tuple[int, ...]:
        """Table key for a strategy against a joint opponent choice: the full
        profile for normal form, the local key for graphical games."""
        if self.graphical:
            return (strategy,) + opp
        return _embed(opp, player, strategy)

    def payoff(self, player: int, strategy: int, opp: tuple[int, ...]) -> ExtValue:
        """Modified utility of ``player`` for ``strategy`` against ``opp``."""
        key = self.key_of(player, strategy, opp)
        base = self._utilities[player].get(key, ZERO)
        if self.promise is None:
            return base
        bonus = self.promise.entries[player].get(key)
        return base if bonus is None else base + bonus

    def modified_utility(self, player: int, profile: Profile) -> ExtValue:
        """Modified utility at a full strategy profile."""
        opp = tuple(profile[j] for j in self.opponents(player))
        return self.payoff(player, profile[player], opp)

    def promise_at(self, player: int, profile: Profile) -> ExtValue:
        """Promised payment to ``player`` at a full strategy profile."""
        if self.promise is None:
            return ZERO
        key = self.game.local_key(player, profile) if self.graphical else profile
        return self.promise.entries[player].get(key, ZERO)


def _flatten(
    gg: GraphicalGame, local_tables: Sequence[Mapping[LocalKey, ExtValue]]
) -> list[dict[Profile, ExtValue]]:
    """Neighborhood-local tables rewritten over full strategy profiles.

    The rewrite is exponential in the number of players, so games with more
    than ``MAX_PROFILES`` full profiles are refused before any enumeration.
    """
    count = _product(gg.sizes)
    if count > MAX_PROFILES:
        raise ValueError(
            f"graphical game has {count} full strategy profiles, above the "
            f"{MAX_PROFILES} expansion cap"
        )
    tables: list[dict[Profile, ExtValue]] = [{} for _ in local_tables]
    for profile in gg.profiles():
        for i, local in enumerate(local_tables):
            value = local.get(gg.local_key(i, profile), ZERO)
            if value != ZERO:
                tables[i][profile] = value
    return tables


def expand_graphical(gg: GraphicalGame) -> Game:
    """Flatten a graphical game to normal form over full strategy profiles;
    raises ValueError above ``MAX_PROFILES`` profiles."""
    return Game.make(gg.players, gg.strategies, _flatten(gg, gg.local_utilities))


def expand_graphical_promise(gg: GraphicalGame, promise: PaymentPromise) -> PaymentPromise:
    """Rewrite a neighborhood-local promise over full strategy profiles."""
    if promise.kind != "graphical":
        raise ValueError("expected a graphical promise")
    normal = Game.make(gg.players, gg.strategies, [None] * gg.n_players)
    return PaymentPromise.make(normal, _flatten(gg, promise.entries))
