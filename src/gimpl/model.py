"""Finite games, rectangular regions, payment promises, and modified views.

Players and strategies are identified by position; names are labels only.
A strategy profile is a plain tuple of strategy indices, one per player in
player order. Utility and promise tables are sparse dicts with an implicit
default of 0, since the interesting constructions set only finitely many
nonzero entries.

The two kinds of game differ in one fact, their key layout: per player, the
players whose choices make up its table key, in key order (normal form: every
player in order, so a key is the full profile; graphical: the player, then its
neighbors in ascending order). Key sizes, opponents and keys derive from it, so
promises and views read it instead of asking which kind of game they hold.

All objects here are immutable after construction; build them through the
``make`` classmethods, which canonicalize (zero entries dropped, index sets
sorted) so that equality is structural. They also share what they check:
every table key, the name and strategy tuples and each region index set
come from ``_shared``, one bounded table for the process (``_SHARED``, which
also holds the gipf-1 reader's decoded values), so equal pieces of all models
are one tuple.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import (
    Callable, ClassVar, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union
)

from .values import ZERO, ExtValue, ValueLike

Profile = tuple[int, ...]
LocalKey = tuple[int, ...]  # (own strategy, *neighbor strategies), graphical games

# Largest number of full strategy profiles ``expand_graphical`` enumerates, of
# undominated profiles ``checking`` sums payments over, of desired profiles
# the solver prices, and of opponent profiles of one player that dominance
# and the solver's off-region payments range over.
MAX_PROFILES = 2**16
# Largest number of payoffs a view lays out in columns for one player, of
# payment-vector entries the solver builds for all players' options, and of
# payoff reads the stability check ``is_pne`` may make.
MAX_PAYOFFS = 2**22

# One table for the process, read and written only in this module and shared
# by every model it builds: checked table keys, name and strategy tuples and
# region index sets map to themselves, so equal pieces of all players' tables,
# of a game and its promise, and of many small documents are one tuple; the
# gipf-1 reader's raw int and str values map to their ExtValue through
# _shared_value, so each is decoded once. A tuple never equals an int or a
# str, and callers check exact types first, so a True never meets a 1. Kept
# are ints of at most _SHARED_BITS bits, strs of at most _SHARED_TEXT
# characters, and tuples of at most _SHARED_ITEMS such items whose strs have
# at most _SHARED_TEXT characters between them (keys index strategies, so
# their ints fit). The table is emptied when a batch could take it past
# _SHARED_MAX entries. Filled to that cap, it holds at most about 14.4 MB once
# every model is gone: 8-name lists of wide characters take that, 8-index
# region sets 7.5 MB and values 4.2 MB (tracemalloc, CPython 3.11). Wider
# keys, as in a 12-player normal-form game, are copied without a lookup: two
# more hashes of each such key made `gimpl verify` on one 16% slower. Threads
# building models at once can overshoot the cap by a batch each; each piece
# handed back still equals the piece passed in.
_SHARED: dict[object, object] = {}
_SHARED_MAX = 2**14
_SHARED_ITEMS = 8
_SHARED_TEXT = 32
_SHARED_BITS = 64


def _shared(pieces: Collection, fits: bool, values: Iterable | None = None) -> Iterable:
    """What the table keeps for each of ``pieces``, in order, as an iterator
    to be consumed at once; a new piece is kept with its entry of ``values``
    (by default the piece itself). Nothing is kept, and ``values`` come back
    as they are, unless the caller's ``fits`` says that every piece meets the
    size rule and there are at most ``_SHARED_MAX`` of them."""
    values = pieces if values is None else values
    if not fits or len(pieces) > _SHARED_MAX:
        return values
    if len(_SHARED) + len(pieces) > _SHARED_MAX:
        _SHARED.clear()
    return map(_SHARED.setdefault, pieces, values)


def _shared_value(raw: int | str) -> ExtValue:
    """The ExtValue of a raw int or str value, decoded once per process while
    the table keeps it. The caller checks the exact type first (``True == 1``);
    a malformed value raises ValueError and is never kept."""
    ext = _SHARED.get(raw)
    if ext is None:
        ext = ExtValue(raw)
        fits = len(raw) <= _SHARED_TEXT if type(raw) is str else raw.bit_length() <= _SHARED_BITS
        (ext,) = _shared((raw,), fits, (ext,))
    return ext


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


def _checked_value(
    value: object, allow_infinite: bool, allow_negative: bool
) -> tuple[ExtValue | None, str | None]:
    """``value`` as an ExtValue (None for zero) and its fault, if it has one."""
    ext = value if type(value) is ExtValue else ExtValue(value)
    if not ext.is_finite:
        return ext, None if allow_infinite else "infinite utility"
    sign = ext.fraction.numerator
    if sign < 0:
        return ext, None if allow_negative else "negative promise"
    return (ext if sign else None), None


def _table_by_key(
    raw: Mapping[Sequence[int], ValueLike],
    sizes: Sequence[int],
    what: str,
    allow_infinite: bool,
    allow_negative: bool,
) -> dict[tuple[int, ...], ExtValue | None]:
    """``raw`` checked entry by entry, each key before its value, as a table
    of key tuples and ExtValues (None for zero); the first fault raises its
    own message."""
    table: dict[tuple[int, ...], ExtValue | None] = {}
    for key, value in raw.items():
        prof = _check_profile(key, sizes, what)
        ext, fault = _checked_value(value, allow_infinite, allow_negative)
        if fault is not None:
            raise ValueError(f"{fault} at {what} {prof}")
        table[prof] = ext
    return table


def _keys_fit(keys: Sequence[object], sizes: Sequence[int]) -> bool:
    """Whether every key is a tuple of ``len(sizes)`` exact ints, each in the
    range of its column: a few passes over all the keys at once. Only once
    every element is known to be an exact int are a column's elements
    reduced to their distinct values (``True`` would merge with ``1``)."""
    if not (
        set(map(type, keys)) <= {tuple}
        and set(map(len, keys)) <= {len(sizes)}
        and set(map(type, itertools.chain.from_iterable(keys))) <= {int}
    ):
        return False
    for pos, size in enumerate(sizes):
        column = set(map(operator.itemgetter(pos), keys))
        if min(column, default=0) < 0 or max(column, default=0) >= size:
            return False
    return True


def _canonical_tables(
    raws: Sequence[Mapping[Sequence[int], ValueLike] | None],
    key_sizes: Sequence[tuple[int, ...]],
    what: str,
    *,
    allow_infinite: bool,
    allow_negative: bool,
) -> tuple[dict[tuple[int, ...], ExtValue], ...]:
    """The canonical tables of one game or promise, one per player: zero
    entries dropped, and every key and value checked. ``key_sizes[i]`` are
    the sizes of player i's key columns, and ``what.format(i)`` names
    player i's table in messages.

    The check runs once per game, not once per table. The keys of all
    players whose keys have the same sizes (in normal form, every player)
    are checked together in a few bulk passes: tuples of the right length,
    exact ints, each column in range. Each distinct value object is checked
    once across all tables. Keys are never merged by equality, so a
    ``True`` in one player's key cannot hide behind a ``1`` in another's.
    Only when a bulk check fails are the tables walked player by player,
    entry by entry (``_table_by_key``), so the fault raised is the first in
    that order, keys before values at each entry. Once checked, each key of
    at most ``_SHARED_ITEMS`` indices is replaced by the process's one tuple
    equal to it (``_shared``).
    """
    raws = [raw or {} for raw in raws]
    # by id of each value object, None for zero; left None when a bulk check fails
    exts: dict[int, ExtValue | None] | None = None
    if set(map(type, raws)) <= {dict}:
        groups: dict[tuple[int, ...], list[object]] = {}
        for raw, sizes in zip(raws, key_sizes):
            groups.setdefault(tuple(sizes), []).extend(raw)
        if all(_keys_fit(keys, sizes) for sizes, keys in groups.items()):
            values = list(itertools.chain.from_iterable(map(dict.values, raws)))
            objects = dict(zip(map(id, values), values))
            exts = {}
            for ident, value in objects.items():
                ext, fault = _checked_value(value, allow_infinite, allow_negative)
                if fault is not None:
                    exts = None
                    break
                exts[ident] = ext
    fits = [len(sizes) <= _SHARED_ITEMS for sizes in key_sizes]
    if exts is None:
        raws = [
            _table_by_key(raw, sizes, what.format(i), allow_infinite, allow_negative)
            for i, (raw, sizes) in enumerate(zip(raws, key_sizes))
        ]
        columns = map(dict.values, raws)
    elif all(exts[ident] is value for ident, value in objects.items()):  # copy, keys shared
        return tuple(
            dict(zip(_shared(raw, True), raw.values())) if fit else dict(raw)
            for raw, fit in zip(raws, fits)
        )
    else:
        columns = (map(exts.__getitem__, map(id, raw.values())) for raw in raws)
    return tuple(
        {key: ext for key, ext in zip(_shared(raw, fit), column) if ext is not None}
        for raw, fit, column in zip(raws, fits, columns)
    )


def _check_players(
    players: Iterable[str], strategies: Iterable[Iterable[str]], tables: Sequence[object]
) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
    """Names and strategy lists of a game, checked against one table per
    player; a name that is not a str is refused."""
    names = tuple(players)
    strats = tuple(map(tuple, strategies))
    if not names:
        raise ValueError("a game needs at least one player")
    if len(strats) != len(names):
        raise ValueError("players and strategy lists disagree in length")
    for i, options in enumerate(strats):
        if not options:
            raise ValueError(f"player {i} has no strategies")
    if len(tables) != len(names):
        raise ValueError("one utility table per player is required")
    pieces = [names, *strats]
    exact = set(map(type, itertools.chain(*pieces))) <= {str}
    if not exact:  # name the first name that is no str, as the gipf-1 reader does
        for name, options in zip(names, strats):
            if not isinstance(name, str):
                raise ValueError(f"player names must be strings, got {name!r}")
            wrong = [option for option in options if not isinstance(option, str)]
            if wrong:
                raise ValueError(f"strategies of player {name!r} must be strings, got {wrong[0]!r}")
    fits = exact and max(map(len, pieces)) <= _SHARED_ITEMS
    names, *options = _shared(pieces, fits and max(map(len, map("".join, pieces))) <= _SHARED_TEXT)
    return names, tuple(options)


def _check_player_index(game: AnyGame, player: int) -> None:
    """Refuse ``player`` unless it is an int naming one of ``game``'s players."""
    if type(player) is not int or not 0 <= player < game.n_players:
        raise ValueError(f"the game has no player {player!r}")


class _KeyLayout(NamedTuple):
    """What a game derives, once per player, from that player's key players."""

    own: int  # position of the player's own strategy in its key
    opponents: tuple[int, ...]  # the key players other than the player, in key order
    at: Callable[[Profile], tuple[int, ...]]  # the key a full profile selects


@dataclass(frozen=True)
class _GameBase:
    """What normal-form and graphical games share: players, strategies and
    the key layout of their per-player tables.

    Subclasses set ``kind`` and provide ``tables`` (one sparse utility table
    per player) and the one fact of their layout, ``key_players[i]``: the
    players whose choices make up player i's table key, in key order, i
    among them. All else derives from it: ``key_sizes(i)``, ``opponents(i)``
    (the key players but i), ``key_of(i, s, opp)`` (the key of s against
    their joint choice ``opp``), ``opponent_profiles(i, region=None)`` (all
    such choices, in ``itertools.product`` order), ``keys(i, s, region=None)``
    (``key_of`` over them, in one product) and ``key_at(i, profile)``.
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

    @cached_property
    def _layout(self) -> tuple[_KeyLayout, ...]:
        layouts = []
        for i, players in enumerate(self.key_players):
            if len(players) > 1:
                at = operator.itemgetter(*players)
            else:
                at = operator.itemgetter(slice(i, i + 1))  # a 1-tuple, not an int
            opponents = tuple(j for j in players if j != i)
            layouts.append(_KeyLayout(players.index(i), opponents, at))
        return tuple(layouts)

    def key_sizes(self, player: int) -> tuple[int, ...]:
        return tuple(map(self.sizes.__getitem__, self.key_players[player]))

    def opponents(self, player: int) -> tuple[int, ...]:
        return self._layout[player].opponents

    def key_of(self, player: int, strategy: int, opp: tuple[int, ...]) -> tuple[int, ...]:
        own = self._layout[player].own
        return opp[:own] + (strategy,) + opp[own:]

    def opponent_profiles(
        self, player: int, region: RectRegion | None = None
    ) -> Iterator[tuple[int, ...]]:
        sets = tuple(map(range, self.sizes)) if region is None else region.sets
        return itertools.product(*map(sets.__getitem__, self._layout[player].opponents))

    def keys(
        self, player: int, strategy: int, region: RectRegion | None = None
    ) -> Iterator[tuple[int, ...]]:
        sets = list(map(range, self.sizes) if region is None else region.sets)
        sets[player] = (strategy,)
        return itertools.product(*map(sets.__getitem__, self.key_players[player]))

    def key_at(self, player: int, profile: Profile) -> tuple[int, ...]:
        return self._layout[player].at(profile)

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
        tables = _canonical_tables(
            utilities, (sizes,) * len(names), "utility profile of player {}",
            allow_infinite=False, allow_negative=True,
        )
        return cls(names, strats, tables)

    @property
    def tables(self) -> tuple[dict[Profile, ExtValue], ...]:
        return self.utilities

    @cached_property
    def key_players(self) -> tuple[tuple[int, ...], ...]:
        """Every player, in order: a key is the full profile."""
        return (tuple(range(self.n_players)),) * self.n_players


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
        tables = _canonical_tables(
            local_utilities, [shape.key_sizes(i) for i in range(n)],
            "local utility key of player {}", allow_infinite=False, allow_negative=True,
        )
        return cls(names, strats, shape.edges, neighborhoods, tables)

    @property
    def tables(self) -> tuple[dict[LocalKey, ExtValue], ...]:
        return self.local_utilities

    @cached_property
    def key_players(self) -> tuple[tuple[int, ...], ...]:
        """The player first, then its neighbors in ascending order."""
        return tuple((i, *js) for i, js in enumerate(self.neighborhoods))


AnyGame = Union[Game, GraphicalGame]


@dataclass(frozen=True)
class RectRegion:
    """A rectangular strategy-profile region: one index set per player."""

    sets: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, sets: Iterable[Iterable[int]]) -> "RectRegion":
        canon = []
        exact = True  # every index an int, none of a subclass
        for i, raw in enumerate(sets):
            members = tuple(raw)
            for x in members:
                if type(x) is not int:
                    if not isinstance(x, int) or isinstance(x, bool):
                        raise ValueError(f"region of player {i} holds {x!r}, not a strategy index")
                    exact = False
            if not members:
                raise ValueError(f"empty desired set for player {i}")
            canon.append(tuple(sorted(set(members))))
        if not canon:
            raise ValueError("a region needs at least one player")
        first, last = operator.itemgetter(0), operator.itemgetter(-1)  # each set is sorted
        fits = exact and max(map(len, canon)) <= _SHARED_ITEMS and 0 <= min(map(first, canon))
        fits = fits and max(map(last, canon)).bit_length() <= _SHARED_BITS
        return cls(tuple(_shared(canon, fits)))

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
        tables = _canonical_tables(
            entries, [game.key_sizes(i) for i in range(game.n_players)],
            "promise key of player {}", allow_infinite=True, allow_negative=False,
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
        of ``game.opponent_profiles(player)``, each as the rank of its value among
        the distinct payoffs (infinity highest, 0 for unset keys), so that
        the ints order as the payoffs do.

        Built once per player in one pass over the utility, then the promise
        entries, on the exact numbers of ``ExtValue.exact`` (never floats);
        a payment on a utility key adds to it, infinity absorbing. An index
        naming no player, more than ``MAX_PROFILES`` opponent profiles, or
        more than ``MAX_PAYOFFS`` payoffs are refused before any is built.
        """
        _check_player_index(self.game, player)  # before the lookup: True == 1
        columns = self._columns.get(player)
        if columns is not None:
            return columns
        size = self.sizes[player]
        parts = math.prod(map(self.sizes.__getitem__, self.game.opponents(player)))
        if parts > MAX_PROFILES:
            raise ValueError(
                f"dominance for player {player} ranges over {parts} opponent profiles, "
                f"above the {MAX_PROFILES} cap"
            )
        count = size * parts
        if count > MAX_PAYOFFS:
            raise ValueError(
                f"dominance for player {player} needs {count} payoffs, above the "
                f"{MAX_PAYOFFS} cap"
            )
        tables = [self._tables[player]]
        if self.promise is not None:
            tables.append(self.promise.entries[player])
        numbers: dict[tuple[int, ...], int | Fraction | None] = {}  # None: infinity
        for key, value in itertools.chain.from_iterable(map(dict.items, tables)):
            number = value.exact
            if number is not None and key in numbers:  # a payment on a utility
                number += numbers[key]
            numbers[key] = number
        finite = sorted({0, *numbers.values()} - {None})
        rank = dict(zip([*finite, None], itertools.count()))
        keys, get, zero = self.game.keys, numbers.get, itertools.repeat(0)
        columns = [list(map(rank.__getitem__, map(get, keys(player, s), zero))) for s in range(size)]
        self._columns[player] = columns
        return columns


def _flatten(
    gg: GraphicalGame, local_tables: Sequence[Mapping[LocalKey, ExtValue]]
) -> tuple[dict[Profile, ExtValue], ...]:
    """Canonical neighborhood-local tables rewritten over full strategy
    profiles: each local entry is fanned out over the strategies of the
    players outside its key.

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
    for players, local in zip(gg.key_players, local_tables):
        # the profiles of a local key: its players fixed, every other one free
        axes: list[Sequence[int]] = [range(n) for n in gg.sizes]
        table: dict[Profile, ExtValue] = {}
        for key, value in local.items():
            for j, s in zip(players, key):
                axes[j] = (s,)
            table.update(dict.fromkeys(itertools.product(*axes), value))
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
