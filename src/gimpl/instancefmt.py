"""The gipf-1 instance document: a single JSON file holding a game plus
optional region, budget, and promise.

Sparse tables: utility and promise entries omitted from the document are 0.
Values are JSON ints, or strings holding an int, a "p/q" or "inf", with any
surrounding whitespace (" 2/4 " reads as 1/2); the writer emits "p/q" in
lowest terms. Floats are rejected to keep everything exact.

Entry lists are read in bulk. ``_decode_entries`` checks the shape of a
whole list at once (entry objects with a player, a profile and a value;
players ints in range, profiles lists, values ints or strings), decodes
each distinct value once and builds the per-player tables. The model then
checks every table key once, in one check per game or promise
(``model._canonical_tables``): its length, the exact type of each index and
its range. Decoded values, and each checked key, name list and region set,
are kept in the process's one table of shared pieces (``model._SHARED``,
whose comment states what it keeps, its cap and its worst case), so many
small documents build one object for each equal piece between them. When a
list fails a bulk check, or the game or promise built from it is refused,
``_first_entry_fault`` walks the list without building anything and names
its first fault. The fault reported is the first malformed entry in
document order, then the first repeated (player, profile) pair, then the
game's or promise's own check, player by player.

``decode_json`` and ``read_document`` are ``parse_instance`` in two steps;
the commands drop the document text between them, so it is freed before any
table is built.

Documents and CLI payloads are written by ``iter_json``, which yields the text
of ``json.dumps(obj, indent=2)`` in chunks. ``instance_to_dict`` builds entry
lists whose profiles are the tables' key tuples; ``iter_json`` renders each of
their entries as one chunk from cached pieces of text, shared by all entry
lists at one depth of the payload, so a player, a profile or a value is
formatted once per payload however often it recurs.
"""

from __future__ import annotations

import json
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Iterator, Mapping, Sequence

from .model import _SHARED, _SHARED_BITS, _SHARED_TEXT, _shared
from .model import AnyGame, Game, GraphicalGame, PaymentPromise, RectRegion
from .values import ZERO, ExtValue

FORMAT_NAME = "gipf-1"


class FormatError(ValueError):
    """Raised for malformed or inconsistent instance documents."""


@dataclass(frozen=True)
class InstanceDoc:
    """Everything a gipf-1 document can carry."""

    game: AnyGame
    region: RectRegion | None = None
    budget: ExtValue | None = None
    promise: PaymentPromise | None = None


def _decode_value(raw: Any, what: str) -> ExtValue:
    """The ExtValue of a raw int or str value, decoded once per process
    while ``model._SHARED`` keeps it; anything else raises FormatError."""
    kind = type(raw)
    if kind is not int and kind is not str:  # before the lookup: True == 1
        raise FormatError(f"{what}: values must be ints or 'p/q' strings, got {raw!r}")
    ext = _SHARED.get(raw)
    if ext is None:
        try:
            ext = ExtValue(raw)
        except ValueError as exc:
            raise FormatError(f"{what}: {exc}") from exc
        fits = len(raw) <= _SHARED_TEXT if kind is str else raw.bit_length() <= _SHARED_BITS
        (ext,) = _shared((raw,), fits, (ext,))
    return ext


Tables = list[dict[tuple[int, ...], ExtValue]]

_PLAYER, _PROFILE, _VALUE = map(operator.itemgetter, ("player", "profile", "value"))


def _decode_entries(raw: Any, n_players: int, what: str) -> Tables:
    """The per-player tables of a list of entry objects whose players are
    ints in range, profiles lists and values ints or strings, each checked
    over the whole list at once; each distinct value is decoded once. The
    elements of the profiles are left to the model. A failed check, an
    unhashable profile element or a repeated (player, profile) pair raises
    a FormatError that names no entry; ``_entry_faults_first`` names it."""
    refused = FormatError(f"{what}: malformed entry list")
    if type(raw) is not list or not set(map(type, raw)) <= {dict}:
        raise refused
    try:
        players = list(map(_PLAYER, raw))
        profiles = list(map(_PROFILE, raw))
        values = list(map(_VALUE, raw))
    except KeyError:
        raise refused from None
    if not (
        set(map(type, players)) <= {int}
        and 0 <= min(players, default=0)
        and max(players, default=0) < n_players
        and set(map(type, profiles)) <= {list}
        and set(map(type, values)) <= {int, str}
    ):
        raise refused
    decoded = {value: _decode_value(value, what) for value in dict.fromkeys(values)}
    tables: Tables = [{} for _ in range(n_players)]
    rows = zip(
        map(tables.__getitem__, players), map(tuple, profiles), map(decoded.__getitem__, values)
    )
    try:
        for table, key, ext in rows:
            table[key] = ext
    except TypeError:  # an unhashable profile element
        raise refused from None
    if sum(map(len, tables)) != len(raw):
        raise refused
    return tables


def _first_entry_fault(raw: Any, n_players: int, what: str) -> None:
    """Raise the first fault of an entry list: its malformed entries in
    document order, then its first repeated (player, profile) pair, which
    is looked for only once every entry has passed. Builds nothing."""
    if not isinstance(raw, list):
        raise FormatError(f"{what} must be a list of entries")
    for entry in raw:
        if not isinstance(entry, dict):
            raise FormatError(f"{what} entries must be objects")
        try:
            player, profile, value = entry["player"], entry["profile"], entry["value"]
        except KeyError as exc:
            raise FormatError(f"{what} entry is missing {exc}") from exc
        # json.loads gives exact types, so type() tests match isinstance here;
        # index ranges and key lengths are checked by the model
        if type(player) is not int or not 0 <= player < n_players:
            raise FormatError(f"{what}: player {player!r} out of range")
        if type(profile) is not list or not set(map(type, profile)) <= {int}:
            raise FormatError(f"{what}: profile must be a list of ints, got {profile!r}")
        _decode_value(value, what)
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for entry in raw:
        key = (entry["player"], tuple(entry["profile"]))
        if key in seen:
            raise FormatError(f"{what}: player {key[0]} has two entries at profile {list(key[1])}")
        seen.add(key)


def parse_instance(text: str) -> InstanceDoc:
    """Parse a gipf-1 document into validated objects; every fault in it
    raises FormatError."""
    return read_document(decode_json(text))


def decode_json(text: str) -> Any:
    """The JSON value of ``text``; malformed JSON raises FormatError. With
    ``read_document``, this is ``parse_instance`` in two steps, so a caller
    that drops the text in between frees it before any table is built."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, too many digits
        raise FormatError(f"malformed JSON: {exc}") from exc


def read_document(doc: Any) -> InstanceDoc:
    """The validated objects of a decoded gipf-1 document; every fault in it
    raises FormatError."""
    try:
        return _read_document(doc)
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


@contextmanager
def _entry_faults_first(raw: Any, n_players: int, what: str) -> Iterator[None]:
    """Build from the entry list ``raw``; when that raises (a bulk refusal,
    a value that fails to decode, or the model's refusal), the first fault
    of ``raw`` is raised instead if it has one, else the original error."""
    try:
        yield
    except ValueError:
        _first_entry_fault(raw, n_players, what)
        raise


def _read_document(doc: Any) -> InstanceDoc:
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object")
    if doc.get("format") != FORMAT_NAME:
        raise FormatError(f"unknown format {doc.get('format')!r}, expected {FORMAT_NAME!r}")
    kind = doc.get("kind")
    if kind not in ("normal", "graphical"):
        raise FormatError(f"kind must be 'normal' or 'graphical', got {kind!r}")

    raw_players = doc.get("players")
    if not isinstance(raw_players, list) or not raw_players:
        raise FormatError("players must be a nonempty list")
    names = []
    strategies = []
    for entry in raw_players:
        if not isinstance(entry, dict) or "name" not in entry or "strategies" not in entry:
            raise FormatError("each player needs a name and a strategy list")
        name, options = entry["name"], entry["strategies"]
        if not isinstance(name, str):
            raise FormatError(f"player names must be strings, got {name!r}")
        if not isinstance(options, list):
            raise FormatError(f"strategies of player {name!r} must be a list, got {options!r}")
        if not options:
            raise FormatError(f"player {name!r} has no strategies")
        for option in options:
            if not isinstance(option, str):
                raise FormatError(f"strategies of player {name!r} must be strings, got {option!r}")
        names.append(name)
        strategies.append(options)
    n_players = len(names)

    raw_utilities = doc.get("utilities", [])
    with _entry_faults_first(raw_utilities, n_players, "utilities"):
        utilities = _decode_entries(raw_utilities, n_players, "utilities")
        if kind == "graphical":
            edges = doc.get("edges")
            if not isinstance(edges, list):
                raise FormatError("graphical documents need an edges list")
            game: AnyGame = GraphicalGame.make(names, strategies, edges, utilities)
        else:
            if "edges" in doc:
                raise FormatError("normal-form documents must not carry edges")
            game = Game.make(names, strategies, utilities)

    region = None
    if "region" in doc:
        raw_region = doc["region"]
        if not isinstance(raw_region, dict) or "sets" not in raw_region:
            raise FormatError("region must be an object with a sets list")
        sets = raw_region["sets"]
        if not isinstance(sets, list) or not all(isinstance(m, list) for m in sets):
            raise FormatError(f"region sets must be a list of index lists, got {sets!r}")
        region = RectRegion.make(sets)
        region.validate_for(game)

    budget = None
    if "budget" in doc:
        budget = _decode_value(doc["budget"], "budget")
        if budget.is_finite and budget < ZERO:
            raise FormatError("negative budget")

    promise = None
    if "promise" in doc:
        with _entry_faults_first(doc["promise"], n_players, "promise"):
            tables = _decode_entries(doc["promise"], n_players, "promise")
            promise = PaymentPromise.make(game, tables)

    return InstanceDoc(game=game, region=region, budget=budget, promise=promise)


class EntryList(list):
    """A gipf-1 entry list built by ``encode_entries``; ``iter_json`` renders
    its entries column by column from cached pieces of text (one per
    player, one per profile, one per value) without checking them."""


def encode_entries(tables: Sequence[Mapping[tuple[int, ...], ExtValue]]) -> EntryList:
    """Per-player sparse tables as the gipf-1 entry list, sorted by player
    and then by key. An entry's profile is the table's own key tuple (JSON
    renders it as an array), and each distinct value object is converted
    with ``to_json`` once."""
    objects = {id(value): value for table in tables for value in table.values()}
    texts = {key: value.to_json() for key, value in objects.items()}
    return EntryList(
        {"player": i, "profile": key, "value": texts[id(value)]}
        for i, table in enumerate(tables)
        for key, value in sorted(table.items())
    )


def instance_to_dict(doc: InstanceDoc) -> dict[str, Any]:
    """Render an instance as a JSON-ready dict with deterministic ordering."""
    game = doc.game
    out: dict[str, Any] = {
        "format": FORMAT_NAME,
        "kind": game.kind,
        "players": [
            {"name": name, "strategies": list(strats)}
            for name, strats in zip(game.players, game.strategies)
        ],
    }
    if isinstance(game, GraphicalGame):
        out["edges"] = [list(edge) for edge in game.edges]
    out["utilities"] = encode_entries(game.tables)
    if doc.region is not None:
        out["region"] = {"sets": [list(members) for members in doc.region.sets]}
    if doc.budget is not None:
        out["budget"] = doc.budget.to_json()
    if doc.promise is not None:
        out["promise"] = encode_entries(doc.promise.entries)
    return out


def serialize_instance(doc: InstanceDoc) -> str:
    return "".join(iter_json(instance_to_dict(doc))) + "\n"


_ATOMS = {
    str: _quote,
    int: int.__repr__,
    bool: lambda flag: "true" if flag else "false",
    type(None): lambda _: "null",
}


class _Pieces(dict):
    """Text pieces by key, each rendered on first use."""

    def __init__(self, render):
        super().__init__()
        self._render = render

    def __missing__(self, key):
        text = self[key] = self._render(key)
        return text


def _entry_pieces(depth: int) -> tuple[_Pieces, _Pieces, _Pieces]:
    """The cached pieces of the entries of an ``EntryList`` at ``depth``: an
    entry is a per-player head (with the comma before it), a per-profile
    index block and a per-value tail."""
    inner = "\n" + "  " * (depth + 1)
    two, three = inner + "  ", inner + "    "
    heads = _Pieces(lambda player: f',{inner}{{{two}"player": {player:d},{two}"profile": [')
    blocks = _Pieces(lambda profile: three + f",{three}".join(map(int.__repr__, profile)))
    tails = _Pieces(
        lambda value: f'{two}],{two}"value": '
        + (int.__repr__(value) if type(value) is int else _quote(value))
        + f"{inner}}}"
    )
    return heads, blocks, tails


def iter_json(obj: Any) -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2)``, in chunks.

    Takes dicts with str keys, lists, tuples, str, int, bool and None, matched
    on exact type; anything else raises TypeError. A list of ints is one
    chunk, and an ``EntryList`` is one chunk per entry. The entry lists of
    one call share their cached pieces of text, depth by depth.
    """
    return _render(obj, 0, _Pieces(_entry_pieces))


def _render(obj: Any, depth: int, pieces: _Pieces) -> Iterator[str]:
    kind = type(obj)
    atom = _ATOMS.get(kind)
    if atom is not None:
        yield atom(obj)
        return
    if kind not in (dict, list, tuple, EntryList):
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not obj:
        yield "{}" if kind is dict else "[]"
        return
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth
    if kind is dict:
        prefix = "{" + inner
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield prefix + _quote(key) + ": "
            yield from _render(value, depth + 1, pieces)
            prefix = "," + inner
        yield outer + "}"
    elif kind is EntryList:
        heads, blocks, tails = pieces[depth]
        chunks = map(
            "".join,
            zip(
                map(heads.__getitem__, map(_PLAYER, obj)),
                map(blocks.__getitem__, map(tuple, map(_PROFILE, obj))),
                map(tails.__getitem__, map(_VALUE, obj)),
            ),
        )
        yield "[" + next(chunks)[1:]  # the first entry has no comma before it
        yield from chunks
        yield outer + "]"
    elif set(map(type, obj)) == {int}:
        yield "[" + inner + f",{inner}".join(map(int.__repr__, obj)) + outer + "]"
    else:
        prefix = "[" + inner
        for item in obj:
            yield prefix
            yield from _render(item, depth + 1, pieces)
            prefix = "," + inner
        yield outer + "]"


class StreamingEncoder(json.JSONEncoder):
    """``json.dump(obj, fp, indent=2, cls=StreamingEncoder)`` writes the text
    of ``json.dumps(obj, indent=2)`` through ``iter_json``, in chunks."""

    def iterencode(self, o: Any, _one_shot: bool = False) -> Iterator[str]:
        settings = (self.indent, self.sort_keys, self.ensure_ascii,
                    self.item_separator, self.key_separator)
        if settings != (2, False, True, ",", ": "):
            raise ValueError("StreamingEncoder writes json.dumps(obj, indent=2) text only")
        return iter_json(o)
