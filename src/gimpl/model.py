"""Finite games, rectangular regions, payment promises, and modified views.

Players and strategies are identified by position; names are labels only.
A strategy profile is a plain tuple of strategy indices, one per player in
player order. Utility and promise tables are sparse dicts with an implicit
default of 0, since the interesting constructions set only finitely many
nonzero entries.

Each game owns its key layout: which table holds the utilities and how a
(player, strategy, opponents) triple becomes a key. A normal-form key is the
full profile; a graphical key is ``(own strategy, *neighbor strategies)``.
Promises, views and the instance writer read that layout instead of asking
which kind of game they hold.

All objects here are immutable after construction; build them through the
``make`` classmethods, which canonicalize (zero entries dropped, index sets
sorted) so that equality is structural.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import ClassVar, Iterable, Iterator, Mapping, Sequence, Union

from .values import ZERO, ExtValue, ValueLike

Profile = tuple[int, ...]
LocalKey = tuple[int, ...]  # (own strategy, *neighbor strategies), graphical games

# Largest number of full strategy profiles ``expand_graphical`` enumerates, of
# undominated profiles ``checking`` sums payments over, of desired profiles
# the solver prices, and of opponent profiles of one player that dominance
# and the solver's off-region payments range over.
MAX_PROFILES = 2**16
# Largest number of payoffs a view lays out in columns for one player.
MAX_PAYOFFS = 2**22


def _check_profile(profile: Sequence[int], sizes: Sequence[int], what: str) -> Profile:
    prof = tuple(profile)
    if len(prof) != len(sizes):
        raise ValueError(f"{what} has {len(prof)} entries, expected {len(sizes)}")
    for pos, (idx, size) in enumerate(zip(prof, sizes)):
        if type(idx) is not int:
            raise ValueError(f"{what}: position {pos} holds {idx!r}, not a strategy index")
        if not 0 <= idx < size:
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
    """``raw`` with zero entries dropped and every key and value checked; the
    first fault in table order raises its own message.

    The keys are checked for the whole table at once (tuples of
    ``len(sizes)`` exact ints in range) and key by key only when that check
    fails. Each distinct value object is checked once, in order of first
    use, so the first faulty value is the one at the first faulty entry. A
    table that needs nothing converted or dropped comes back as a plain
    copy.
    """
    raw = raw or {}
    keys = raw.keys()
    keys_ok = (
        set(map(type, keys)) <= {tuple}
        and set(map(len, keys)) <= {len(sizes)}
        and set(map(type, itertools.chain.from_iterable(keys))) <= {int}
        and all(
            min(column) >= 0 and max(column) < size
            for column, size in zip(zip(*keys), sizes)
        )
    )
    exts: dict[int, ExtValue | None] = {}  # by id of each raw value; None for zero

    def check(value: object, prof: Sequence[int] | None = None) -> None:
        ext = value if type(value) is ExtValue else ExtValue(value)
        fault = None
        if not ext.is_finite:
            fault = None if allow_infinite else "infinite utility"
        elif ext.fraction.numerator < 0:
            fault = None if allow_negative else "negative promise"
        elif not ext.fraction.numerator:
            ext = None
        if fault is not None:
            if prof is None:
                prof = next(key for key, other in raw.items() if other is value)
            raise ValueError(f"{fault} at {what} {prof}")
        exts[id(value)] = ext

    if not keys_ok:
        checked = {}
        for key, value in raw.items():
            prof = _check_profile(key, sizes, what)
            if id(value) not in exts:
                check(value, prof)
            checked[prof] = value
        raw = checked
    values = raw.values()
    objects = dict(zip(map(id, values), values))
    for ident, value in objects.items():
        if ident not in exts:
            check(value)
    if all(exts[ident] is value for ident, value in objects.items()):
        return dict(raw)
    exts_of = map(exts.__getitem__, map(id, values))
    return {key: ext for key, ext in zip(raw, exts_of) if ext is not None}


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


def _embed(opp: tuple[int, ...], player: int, strategy: int) -> Profile:
    """The full profile in which ``player`` plays ``strategy`` against the
    joint choice ``opp`` of all other players."""
    return opp[:player] + (strategy,) + opp[player:]


@dataclass(frozen=True)
class _GameBase:
    """What normal-form and graphical games share: players, strategies and
    the key layout of their per-player tables.

    Subclasses set ``kind`` and provide ``tables`` (one sparse utility table
    per player), ``key_sizes(i)`` (the index range of each key position),
    ``opponents(i)`` (the players whose choices enter player i's keys),
    ``key_of(i, s, opp)`` (the key of strategy s against the joint choice
    ``opp`` of those players), ``keys(i, s, region=None)`` (the keys of s
    against every such joint choice, optionally restricted to a region, in
    ``ModifiedGameView.opponent_profiles`` order: the same keys as
    ``key_of`` over those choices, built in one ``itertools.product``) and
    ``key_at(i, profile)`` (the key that a full profile selects). Both kinds
    read a table entry through ``utility(i, key)``.
    """

    kind: ClassVar[str]
    players: tuple[str, ...]
    strategies: tuple[tuple[str, ...], ...]

    @property
    def n_players(self) -> int:
        return len(self.players)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strategies)

    def utility(self, player: int, key: tuple[int, ...]) -> ExtValue:
        return self.tables[player].get(key, ZERO)

    def max_utility(self) -> ExtValue:
        """Largest utility any player receives anywhere (0 for unset entries)."""
        values = [v for table in self.tables for v in table.values()]
        if any(
            len(table) < math.prod(self.key_sizes(i)) for i, table in enumerate(self.tables)
        ):
            values.append(ZERO)
        return max(values, default=ZERO)


@dataclass(frozen=True)
class Game(_GameBase):
    """A finite normal-form game with exact rational utilities.

    ``utilities[i]`` maps full strategy profiles to finite values; omitted
    profiles have utility 0.
    """

    utilities: tuple[dict[Profile, ExtValue], ...]

    kind = "normal"

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
    def tables(self) -> tuple[dict[Profile, ExtValue], ...]:
        return self.utilities

    def key_sizes(self, player: int) -> tuple[int, ...]:
        return self.sizes

    def opponents(self, player: int) -> tuple[int, ...]:
        """Every other player, in ascending order."""
        return tuple(j for j in range(self.n_players) if j != player)

    def key_of(self, player: int, strategy: int, opp: tuple[int, ...]) -> Profile:
        return _embed(opp, player, strategy)

    def keys(
        self, player: int, strategy: int, region: RectRegion | None = None
    ) -> Iterator[Profile]:
        axes = list(region.sets) if region is not None else [range(n) for n in self.sizes]
        axes[player] = (strategy,)
        return itertools.product(*axes)

    def key_at(self, player: int, profile: Profile) -> Profile:
        return profile


@dataclass(frozen=True)
class GraphicalGame(_GameBase):
    """A game on an undirected graph; each utility is neighborhood-local.

    ``local_utilities[i]`` maps ``(own strategy, *neighbor strategies)`` to a
    finite value, neighbors taken in ascending player order. Omitted keys
    have utility 0.
    """

    edges: tuple[tuple[int, int], ...]
    neighborhoods: tuple[tuple[int, ...], ...]
    local_utilities: tuple[dict[LocalKey, ExtValue], ...]

    kind = "graphical"

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
            if not (
                isinstance(edge, (list, tuple))
                and len(edge) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in edge)
            ):
                raise ValueError(f"edge {edge!r} is not a pair of player indices")
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
        # the key layout needs only the strategies and the neighborhoods
        shape = cls(names, strats, tuple(sorted(canon_edges)), neighborhoods, ())
        tables = tuple(
            _canonical_table(
                local_utilities[i], shape.key_sizes(i), f"local utility key of player {i}",
                allow_infinite=False, allow_negative=True,
            )
            for i in range(n)
        )
        return cls(names, strats, shape.edges, neighborhoods, tables)

    @property
    def tables(self) -> tuple[dict[LocalKey, ExtValue], ...]:
        return self.local_utilities

    def key_sizes(self, player: int) -> tuple[int, ...]:
        sizes = self.sizes
        return (sizes[player],) + tuple(sizes[j] for j in self.neighborhoods[player])

    def opponents(self, player: int) -> tuple[int, ...]:
        """The neighbors of ``player``, in ascending order."""
        return self.neighborhoods[player]

    def key_of(self, player: int, strategy: int, opp: tuple[int, ...]) -> LocalKey:
        return (strategy,) + opp

    def keys(
        self, player: int, strategy: int, region: RectRegion | None = None
    ) -> Iterator[LocalKey]:
        return itertools.product(
            (strategy,),
            *(
                region.sets[j] if region is not None else range(self.sizes[j])
                for j in self.neighborhoods[player]
            ),
        )

    def key_at(self, player: int, profile: Profile) -> LocalKey:
        return (profile[player],) + tuple(profile[j] for j in self.neighborhoods[player])


AnyGame = Union[Game, GraphicalGame]


@dataclass(frozen=True)
class RectRegion:
    """A rectangular strategy-profile region: one index set per player."""

    sets: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, sets: Iterable[Iterable[int]]) -> "RectRegion":
        canon = []
        for i, raw in enumerate(sets):
            members = tuple(raw)
            for x in members:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError(f"region of player {i} holds {x!r}, not a strategy index")
            if not members:
                raise ValueError(f"empty desired set for player {i}")
            canon.append(tuple(sorted(set(members))))
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
            for s in (members[-1], members[0]):
                if not 0 <= s < size:
                    raise ValueError(f"region of player {i} references strategy {s}")

    def complement(self, game: AnyGame, player: int) -> tuple[int, ...]:
        inside = set(self.sets[player])
        return tuple(s for s in range(game.sizes[player]) if s not in inside)

    def profiles(self) -> Iterator[Profile]:
        return itertools.product(*self.sets)


@dataclass(frozen=True)
class PaymentPromise:
    """Per-player promised bonus payments, nonnegative or infinite.

    Keys are full profiles for normal-form games and local keys
    ``(own strategy, *neighbor strategies)`` for graphical games; omitted
    keys promise 0.
    """

    kind: str  # the game's kind: "normal" | "graphical"
    entries: tuple[dict[tuple[int, ...], ExtValue], ...]

    @classmethod
    def make(
        cls,
        game: AnyGame,
        entries: Sequence[Mapping[Sequence[int], ValueLike] | None],
    ) -> "PaymentPromise":
        if len(entries) != game.n_players:
            raise ValueError("one promise table per player is required")
        tables = tuple(
            _canonical_table(
                entries[i], game.key_sizes(i), f"promise key of player {i}",
                allow_infinite=True, allow_negative=False,
            )
            for i in range(game.n_players)
        )
        return cls(game.kind, tables)

    def value(self, player: int, key: tuple[int, ...]) -> ExtValue:
        return self.entries[player].get(key, ZERO)


class ModifiedGameView:
    """A game together with an optional payment promise, read as one game.

    The view exposes the pointwise sums ``utility + promise`` without
    materializing them, apart from the integer payoff columns that dominance
    compares, built once per player. For graphical games all queries run
    over neighbor profiles only, which is sound because both the utilities
    and any graphical promise are neighborhood-local.
    """

    def __init__(self, game: AnyGame, promise: PaymentPromise | None = None):
        self.game = game
        if promise is not None:
            if promise.kind != game.kind:
                raise ValueError(f"promise kind {promise.kind!r} does not match a {game.kind} game")
            if len(promise.entries) != game.n_players:
                raise ValueError("promise and game disagree on the number of players")
        self.promise = promise
        self._tables = game.tables
        self._columns: dict[int, list[list[int]]] = {}

    @property
    def n_players(self) -> int:
        return self.game.n_players

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.game.sizes

    def opponent_profiles(
        self, player: int, region: RectRegion | None = None
    ) -> Iterator[tuple[int, ...]]:
        """All joint choices of the players whose choices matter to ``player``
        (``game.opponents``), optionally restricted to a region."""
        axes = []
        for j in self.game.opponents(player):
            axes.append(region.sets[j] if region is not None else range(self.sizes[j]))
        return itertools.product(*axes)

    def payoff(self, player: int, strategy: int, opp: tuple[int, ...]) -> ExtValue:
        """Modified utility of ``player`` for ``strategy`` against ``opp``."""
        key = self.game.key_of(player, strategy, opp)
        base = self._tables[player].get(key, ZERO)
        if self.promise is None:
            return base
        bonus = self.promise.entries[player].get(key)
        return base if bonus is None else base + bonus

    def columns(self, player: int) -> list[list[int]]:
        """Per strategy of ``player``, its payoffs against every joint choice
        of ``opponent_profiles(player)``, each as the rank of its value among
        the distinct payoffs (infinity highest, 0 for unset keys), so that
        the ints order as the payoffs do.

        Built once per player, straight from the tables, on the exact
        numbers of ``ExtValue.exact`` (ints where integral, Fractions
        otherwise, never floats): only keys that both the utility and the
        promise table hold are summed, infinity absorbing. More than
        ``MAX_PROFILES`` opponent profiles, or more than ``MAX_PAYOFFS``
        payoffs, are refused before any is built.
        """
        if player in self._columns:
            return self._columns[player]
        parts = math.prod(self.sizes[j] for j in self.game.opponents(player))
        if parts > MAX_PROFILES:
            raise ValueError(
                f"dominance for player {player} ranges over {parts} opponent profiles, "
                f"above the {MAX_PROFILES} cap"
            )
        count = self.sizes[player] * parts
        if count > MAX_PAYOFFS:
            raise ValueError(
                f"dominance for player {player} needs {count} payoffs, above the "
                f"{MAX_PAYOFFS} cap"
            )
        base = self._tables[player]
        totals = dict(base)
        # the keys both tables hold, summed; None (infinity) absorbs
        sums: dict[tuple[int, ...], int | Fraction | None] = {}
        if self.promise is not None:
            bonus = self.promise.entries[player]
            totals.update(bonus)
            for key in base.keys() & bonus.keys():
                extra = totals.pop(key).exact
                sums[key] = None if extra is None else base[key].exact + extra
        # every other value is read once per distinct object, by id
        values = list(totals.values())
        objects = dict(zip(map(id, values), values))
        exact = {ident: value.exact for ident, value in objects.items()}
        finite = {0, *exact.values(), *sums.values()}
        finite.discard(None)
        rank = {number: r for r, number in enumerate(sorted(finite))}
        rank[None] = len(finite)
        rank_of = {ident: rank[number] for ident, number in exact.items()}
        ranked = dict(zip(totals, map(rank_of.__getitem__, map(id, values))))
        ranked.update(zip(sums, map(rank.__getitem__, sums.values())))
        keys, get, zero = self.game.keys, ranked.get, itertools.repeat(rank[0])
        columns = [list(map(get, keys(player, s), zero)) for s in range(self.sizes[player])]
        self._columns[player] = columns
        return columns


def _flatten(
    gg: GraphicalGame, local_tables: Sequence[Mapping[LocalKey, ExtValue]]
) -> tuple[dict[Profile, ExtValue], ...]:
    """Canonical neighborhood-local tables rewritten over full strategy
    profiles: each local entry is fanned out over the strategies of the
    players outside that player's neighborhood.

    The rewrite is exponential in the number of players, so games with more
    than ``MAX_PROFILES`` full profiles are refused before any enumeration.
    """
    count = math.prod(gg.sizes)
    if count > MAX_PROFILES:
        raise ValueError(
            f"graphical game has {count} full strategy profiles, above the "
            f"{MAX_PROFILES} expansion cap"
        )
    tables = []
    for i, local in enumerate(local_tables):
        inside = (i, *gg.neighborhoods[i])
        outside = tuple(j for j in range(gg.n_players) if j not in inside)
        # a local key followed by an outside part, reordered into a profile
        # (one player: the local key is the profile)
        order = inside + outside
        place = operator.itemgetter(*map(order.index, range(len(order))))
        if len(order) == 1:
            place = tuple
        rests = list(itertools.product(*(range(gg.sizes[j]) for j in outside)))
        table: dict[Profile, ExtValue] = {}
        for key, value in local.items():
            table.update(dict.fromkeys(map(place, map(key.__add__, rests)), value))
        tables.append(table)
    return tuple(tables)


def expand_graphical(gg: GraphicalGame) -> Game:
    """Flatten a graphical game to normal form over full strategy profiles;
    raises ValueError above ``MAX_PROFILES`` profiles."""
    return Game(gg.players, gg.strategies, _flatten(gg, gg.local_utilities))


def expand_graphical_promise(gg: GraphicalGame, promise: PaymentPromise) -> PaymentPromise:
    """Rewrite a neighborhood-local promise over full strategy profiles."""
    if promise.kind != "graphical":
        raise ValueError("expected a graphical promise")
    return PaymentPromise(Game.kind, _flatten(gg, promise.entries))
