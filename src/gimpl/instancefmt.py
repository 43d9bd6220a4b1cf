"""The gipf-1 instance document: a single JSON file holding a game plus
optional region, budget, and promise.

Sparse tables: utility and promise entries omitted from the document are 0.
Values are JSON ints or strings "p/q" (lowest terms) and "inf"; floats are
rejected to keep everything exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

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
    if isinstance(raw, bool) or isinstance(raw, float):
        raise FormatError(f"{what}: values must be ints or 'p/q' strings, got {raw!r}")
    if not isinstance(raw, (int, str)):
        raise FormatError(f"{what}: values must be ints or 'p/q' strings, got {raw!r}")
    try:
        return ExtValue(raw)
    except ValueError as exc:
        raise FormatError(f"{what}: {exc}") from exc


def _decode_entries(raw: Any, n_players: int, what: str) -> list[dict[tuple[int, ...], ExtValue]]:
    if not isinstance(raw, list):
        raise FormatError(f"{what} must be a list of entries")
    tables: list[dict[tuple[int, ...], ExtValue]] = [{} for _ in range(n_players)]
    for entry in raw:
        if not isinstance(entry, dict):
            raise FormatError(f"{what} entries must be objects")
        try:
            player = entry["player"]
            profile = entry["profile"]
            value = entry["value"]
        except KeyError as exc:
            raise FormatError(f"{what} entry is missing {exc}") from exc
        if not isinstance(player, int) or isinstance(player, bool) or not 0 <= player < n_players:
            raise FormatError(f"{what}: player {player!r} out of range")
        if not isinstance(profile, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in profile
        ):
            raise FormatError(f"{what}: profile must be a list of ints, got {profile!r}")
        tables[player][tuple(profile)] = _decode_value(value, what)
    return tables


def parse_instance(text: str) -> InstanceDoc:
    """Parse a gipf-1 document into validated objects; every fault in it
    raises FormatError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, too many digits
        raise FormatError(f"malformed JSON: {exc}") from exc
    try:
        return _read_document(doc)
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


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
        if not isinstance(entry["strategies"], list) or not entry["strategies"]:
            raise FormatError(f"player {entry.get('name')!r} has no strategies")
        names.append(str(entry["name"]))
        strategies.append([str(s) for s in entry["strategies"]])
    n_players = len(names)

    utilities = _decode_entries(doc.get("utilities", []), n_players, "utilities")

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
        tables = _decode_entries(doc["promise"], n_players, "promise")
        promise = PaymentPromise.make(game, tables)

    return InstanceDoc(game=game, region=region, budget=budget, promise=promise)


def encode_entries(tables: Sequence[Mapping[tuple[int, ...], ExtValue]]) -> list[dict[str, Any]]:
    """Per-player sparse tables as the gipf-1 entry list, sorted by player
    and then by key."""
    return [
        {"player": i, "profile": list(key), "value": value.to_json()}
        for i, table in enumerate(tables)
        for key, value in sorted(table.items())
    ]


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
    return json.dumps(instance_to_dict(doc), indent=2) + "\n"
