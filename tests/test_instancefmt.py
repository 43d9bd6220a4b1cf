"""Parsing and serialization of gipf-1 instance documents."""

import json
import random
from fractions import Fraction
from typing import Any
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gimpl import (
    ExtValue,
    FormatError,
    Game,
    GraphicalGame,
    InstanceDoc,
    PaymentPromise,
    RectRegion,
    parse_instance,
    serialize_instance,
)
from gimpl import instancefmt, model
from gimpl.instancefmt import Tables, _decode_value, decode_json, read_document
from gimpl.cli import run

from _support import random_game

EX1_DOCUMENT = {
    "format": "gipf-1",
    "kind": "normal",
    "players": [
        {"name": "p1", "strategies": ["s1", "s2", "s3"]},
        {"name": "p2", "strategies": ["t1", "t2"]},
    ],
    "utilities": [
        {"player": 0, "profile": [0, 0], "value": 1},
        {"player": 0, "profile": [0, 1], "value": 1},
        {"player": 0, "profile": [1, 0], "value": 2},
        {"player": 0, "profile": [2, 1], "value": 1},
        {"player": 1, "profile": [0, 0], "value": 1},
        {"player": 1, "profile": [0, 1], "value": 1},
        {"player": 1, "profile": [1, 0], "value": 1},
        {"player": 1, "profile": [1, 1], "value": 1},
    ],
    "region": {"sets": [[0, 2], [0]]},
    "budget": "11/10",
    "promise": [
        {"player": 0, "profile": [0, 0], "value": 1},
        {"player": 1, "profile": [0, 0], "value": "1/10"},
    ],
}


def test_parse_worked_example_document(ex1, ex1_promise):
    doc = parse_instance(json.dumps(EX1_DOCUMENT))
    assert doc.game == ex1
    assert doc.game.utility(0, (1, 0)) == ExtValue(2)
    assert doc.region == RectRegion.make([[0, 2], [0]])
    assert doc.budget == ExtValue("11/10")
    assert doc.promise == ex1_promise


def test_missing_utility_entries_read_zero():
    doc = parse_instance(json.dumps(EX1_DOCUMENT))
    # (s2, t2) for p1 is not in the document
    assert doc.game.utility(0, (1, 1)) == ExtValue(0)


def test_empty_desired_set_is_an_error():
    bad = dict(EX1_DOCUMENT, region={"sets": [[0, 2], []]})
    with pytest.raises(FormatError, match="empty desired set"):
        parse_instance(json.dumps(bad))


def test_negative_promise_is_an_error():
    bad = dict(EX1_DOCUMENT, promise=[{"player": 0, "profile": [0, 0], "value": -1}])
    with pytest.raises(FormatError, match="negative promise"):
        parse_instance(json.dumps(bad))


def test_infinite_utility_is_an_error():
    bad = dict(EX1_DOCUMENT)
    bad["utilities"] = bad["utilities"] + [
        {"player": 0, "profile": [2, 0], "value": "inf"}
    ]
    with pytest.raises(FormatError, match="infinite utility"):
        parse_instance(json.dumps(bad))


def test_malformed_documents():
    with pytest.raises(FormatError, match="malformed JSON"):
        parse_instance("{nope")
    with pytest.raises(FormatError, match="format"):
        parse_instance(json.dumps({"format": "gipf-0"}))
    with pytest.raises(FormatError, match="out of range"):
        parse_instance(
            json.dumps(
                dict(
                    EX1_DOCUMENT,
                    utilities=[{"player": 5, "profile": [0, 0], "value": 1}],
                )
            )
        )
    with pytest.raises(FormatError):
        parse_instance(
            json.dumps(
                dict(
                    EX1_DOCUMENT,
                    utilities=[{"player": 0, "profile": [0, 9], "value": 1}],
                )
            )
        )
    with pytest.raises(FormatError, match="floats|ints"):
        parse_instance(
            json.dumps(
                dict(
                    EX1_DOCUMENT,
                    utilities=[{"player": 0, "profile": [0, 0], "value": 1.5}],
                )
            )
        )
    # region members must be in-range ints, and sets a list of lists
    for sets, message in [
        ([[-1], [0]], "references strategy -1"),
        ([[1.7], [0]], "not a strategy index"),
        ([[True], [0]], "not a strategy index"),
        ([["1"], [0]], "not a strategy index"),
        ([1, [0]], "list of index lists"),
        (5, "list of index lists"),
    ]:
        with pytest.raises(FormatError, match=message):
            parse_instance(json.dumps(dict(EX1_DOCUMENT, region={"sets": sets})))
    for region in ([[0], [0]], 5, {"set": [[0], [0]]}):
        with pytest.raises(FormatError, match="region must be an object with a sets list"):
            parse_instance(json.dumps(dict(EX1_DOCUMENT, region=region)))
    for budget in (-1, "-1/2", " -3 "):
        with pytest.raises(FormatError, match="^negative budget$"):
            parse_instance(json.dumps(dict(EX1_DOCUMENT, budget=budget)))
    # player and strategy names are JSON strings, never converted with str()
    named = EX1_DOCUMENT["players"]
    for players, message in [
        ([dict(named[0], name=5), named[1]], "player names must be strings, got 5"),
        ([dict(named[0], name=None), named[1]], "player names must be strings, got None"),
        (
            [named[0], dict(named[1], strategies=[None, {"a": 1}, 1.5])],
            "strategies of player 'p2' must be strings, got None",
        ),
        (
            [dict(named[0], strategies=["s1", 1.5, "s3"]), named[1]],
            "strategies of player 'p1' must be strings, got 1.5",
        ),
        (
            [dict(named[0], strategies="xyz"), named[1]],
            "strategies of player 'p1' must be a list, got 'xyz'",
        ),
        (
            [dict(named[0], strategies=5), named[1]],
            "strategies of player 'p1' must be a list, got 5",
        ),
        (
            [dict(named[0], strategies={"s1": 0}), named[1]],
            r"strategies of player 'p1' must be a list, got \{'s1': 0\}",
        ),
        ([dict(named[0], strategies=[]), named[1]], "player 'p1' has no strategies"),
    ]:
        with pytest.raises(FormatError, match=message):
            parse_instance(json.dumps(dict(EX1_DOCUMENT, players=players)))
    # each edge must be a pair of JSON ints naming two distinct players
    graphical = {
        "format": "gipf-1",
        "kind": "graphical",
        "players": [{"name": "p1", "strategies": ["a"]}, {"name": "p2", "strategies": ["b"]}],
    }
    for edges, message in [
        ([[0, "1"]], "not a pair of player indices"),
        ([5], "not a pair of player indices"),
        ([[0, 1.0]], "not a pair of player indices"),
        ([[True, 1]], "not a pair of player indices"),
        ([[0, 1, 1]], "not a pair of player indices"),
        ([[0, 2]], "unknown player"),
        ([[1, 1]], "self-loop on player 1"),
    ]:
        with pytest.raises(FormatError, match=message):
            parse_instance(json.dumps(dict(graphical, edges=edges)))
    # value strings are ints or p/q only; an exponent must not be expanded
    with pytest.raises(FormatError, match="budget: malformed rational"):
        parse_instance(json.dumps(dict(EX1_DOCUMENT, budget="1e100000000")))


def test_unreadable_json_is_a_format_error():
    with pytest.raises(FormatError, match="malformed JSON"):
        parse_instance("[" * 200000)
    with pytest.raises(FormatError, match="malformed JSON"):
        parse_instance(json.dumps(EX1_DOCUMENT)[:-1] + ', "budget": ' + "9" * 5000 + "}")


def test_round_trip_normal(ex1, ex1_promise):
    doc = InstanceDoc(
        game=ex1,
        region=RectRegion.make([[0, 2], [0]]),
        budget=ExtValue("11/10"),
        promise=ex1_promise,
    )
    again = parse_instance(serialize_instance(doc))
    assert again == doc
    # a second serialize round is byte-identical
    assert serialize_instance(again) == serialize_instance(doc)


def test_round_trip_random_games():
    rng = random.Random(4242)
    for _ in range(15):
        game = random_game(rng)
        doc = InstanceDoc(game=game)
        assert parse_instance(serialize_instance(doc)) == doc


def test_round_trip_graphical():
    gg = GraphicalGame.make(
        ["a0", "C0"],
        [["T", "F"], ["T", "F"]],
        [(0, 1)],
        [{(0, 0): 1, (1, 1): "3/2"}, {}],
    )
    promise = PaymentPromise.make(gg, [{(0, 1): "inf"}, {(1, 0): "1/6"}])
    doc = InstanceDoc(
        game=gg,
        region=RectRegion.make([[0], [0, 1]]),
        budget=ExtValue("1/2"),
        promise=promise,
    )
    payload = serialize_instance(doc)
    again = parse_instance(payload)
    assert again == doc
    raw = json.loads(payload)
    assert raw["kind"] == "graphical"
    assert raw["edges"] == [[0, 1]]


def test_graphical_needs_edges_and_normal_rejects_them():
    gg_doc = {
        "format": "gipf-1",
        "kind": "graphical",
        "players": [{"name": "a", "strategies": ["T", "F"]}],
        "utilities": [],
    }
    with pytest.raises(FormatError, match="edges"):
        parse_instance(json.dumps(gg_doc))
    bad_normal = dict(EX1_DOCUMENT, edges=[[0, 1]])
    with pytest.raises(FormatError, match="edges"):
        parse_instance(json.dumps(bad_normal))


def test_duplicate_entries_are_refused(tmp_path):
    twice = [
        {"player": 0, "profile": [0, 0], "value": 1},
        {"player": 1, "profile": [0, 0], "value": 1},
        {"player": 0, "profile": [0, 0], "value": 5},
    ]
    for field, doc in [
        ("utilities", dict(EX1_DOCUMENT, utilities=twice)),
        ("promise", dict(EX1_DOCUMENT, promise=twice)),
    ]:
        message = f"{field}: player 0 has two entries at profile [0, 0]"
        with pytest.raises(FormatError) as info:
            parse_instance(json.dumps(doc))
        assert str(info.value) == message
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = run(["verify", str(path)])
        assert result.exit_code == 1 and result.payload["error"] == message
    # the same profile under two players is no duplicate
    assert parse_instance(json.dumps(dict(EX1_DOCUMENT, utilities=twice[:2])))


def _values(table):
    """The raw values the shared table holds, apart from its tuples."""
    return {raw: ext for raw, ext in table.items() if type(raw) is not tuple}


def test_a_value_is_decoded_once_per_process(fresh_shared):
    assert _decode_value("7/3", "utilities") is _decode_value("7/3", "utilities")
    assert _decode_value(5, "utilities") is _decode_value(5, "promise")
    # two documents share the ExtValue of each value they have in common
    first = parse_instance(json.dumps(EX1_DOCUMENT))
    second = parse_instance(json.dumps(EX1_DOCUMENT))
    assert first.game.utilities[0][(1, 0)] is second.game.utilities[0][(1, 0)]
    assert first.promise.entries[1][(0, 0)] is second.promise.entries[1][(0, 0)]
    values = _values(fresh_shared)
    assert set(values) == {"7/3", 5, 1, 2, "11/10", "1/10"}
    assert all(ext == ExtValue(raw) and type(ext) is ExtValue for raw, ext in values.items())


def test_a_malformed_value_is_refused_on_every_call_and_never_kept(fresh_shared):
    _decode_value(1, "utilities")  # True == 1, so a cached 1 must not answer True
    for raw, message in [
        ("1.5", "utilities: malformed rational '1.5'"),
        ([1], "utilities: values must be ints or 'p/q' strings, got [1]"),
        (True, "utilities: values must be ints or 'p/q' strings, got True"),
    ]:
        for _ in range(2):
            with pytest.raises(FormatError) as info:
                _decode_value(raw, "utilities")
            assert str(info.value) == message
    assert list(fresh_shared) == [1] and type(next(iter(fresh_shared))) is int


def test_more_distinct_values_than_the_cache_holds(fresh_shared):
    count = model._SHARED_MAX + 100
    document = {
        "format": "gipf-1",
        "kind": "normal",
        "players": [{"name": "a", "strategies": [f"s{k}" for k in range(count)]}],
        "utilities": [
            {"player": 0, "profile": [k], "value": f"{k + 1}/7" if k % 2 else k + 1}
            for k in range(count)
        ],
    }
    doc = parse_instance(json.dumps(document))
    assert doc.game.utilities[0] == {
        (k,): ExtValue(f"{k + 1}/7" if k % 2 else k + 1) for k in range(count)
    }
    assert 0 < len(_values(fresh_shared)) <= len(fresh_shared) <= model._SHARED_MAX


def test_long_strings_and_huge_ints_are_not_kept(fresh_shared):
    long_text, huge = "1" * (model._SHARED_TEXT + 8) + "/3", 2**70
    bits = model._SHARED_BITS
    assert _decode_value(long_text, "utilities") == ExtValue(Fraction(int(long_text[:-2]), 3))
    assert _decode_value(huge, "utilities") == ExtValue(huge)
    assert _decode_value(-(2**bits), "utilities") == ExtValue(-(2**bits))
    assert fresh_shared == {}
    _decode_value(2**bits - 1, "utilities")  # 64 bits: short enough
    assert list(fresh_shared) == [2**bits - 1]


def test_a_raw_value_and_a_tuple_never_answer_for_each_other(fresh_shared, monkeypatch):
    game = Game.make(["a"], [["x", "y"]], [{(1,): 2}])  # keeps ("a",), ("x", "y") and (1,)
    with pytest.raises(FormatError, match="^utilities: malformed rational 'a'$"):
        _decode_value("a", "utilities")
    assert _decode_value(1, "utilities") == ExtValue(1)
    assert Game.make(["a"], [["x", "y"]], [{(1,): 2}]).players is game.players
    (key,) = Game.make(["b"], [["x", "y"]], [{(1,): 3}]).utilities[0]
    assert key is next(iter(game.utilities[0])) and fresh_shared[1] == ExtValue(1)
    assert set(fresh_shared) == {("a",), ("x", "y"), (1,), 1, ("b",)}
    # one cap counts both kinds: a batch that could pass it empties the table
    monkeypatch.setattr(model, "_SHARED_MAX", 4)
    fresh_shared.clear()
    for raw in (1, 2, "3/4"):
        _decode_value(raw, "utilities")
    RectRegion.make([[0], [1]])  # 3 values + 2 sets > 4
    assert set(fresh_shared) == {(0,), (1,)}
    _decode_value(5, "utilities")
    _decode_value("1", "utilities")
    assert set(fresh_shared) == {(0,), (1,), 5, "1"}
    assert _decode_value(6, "utilities") == ExtValue(6)  # 4 + 1 > 4
    assert set(fresh_shared) == {6}


def test_documents_share_their_keys_names_and_region_sets():
    first = parse_instance(json.dumps(EX1_DOCUMENT))
    second = parse_instance(json.dumps(EX1_DOCUMENT))
    by_key = {key: key for key in first.game.utilities[0]}
    for doc in (first, second):
        for table in (*doc.game.utilities, *doc.promise.entries):
            for key in table:
                if key in by_key:
                    assert key is by_key[key]  # across players, documents and the promise
    assert second.game.players is first.game.players
    assert second.game.strategies[1] is first.game.strategies[1]
    assert second.region.sets[0] is first.region.sets[0]


@pytest.mark.parametrize("int_first", [True, False])
def test_a_bool_profile_is_refused_whatever_was_parsed_before(int_first):
    def document(profile):
        return json.dumps(dict(EX1_DOCUMENT, utilities=[{"player": 0, "profile": profile, "value": 3}]))

    message = "utilities: profile must be a list of ints, got [True, 0]"
    for _ in range(2):
        if int_first:
            parse_instance(document([1, 0]))
        with pytest.raises(FormatError) as info:
            parse_instance(document([True, 0]))
        assert str(info.value) == message
        (key,) = parse_instance(document([1, 0])).game.utilities[0]
        assert list(map(type, key)) == [int, int]


def test_parse_instance_is_decode_json_then_read_document():
    text = json.dumps(EX1_DOCUMENT)
    assert parse_instance(text) == read_document(decode_json(text))
    for text in ["{", "[1, 2]", json.dumps(dict(EX1_DOCUMENT, players=[]))]:
        with pytest.raises(FormatError) as whole:
            parse_instance(text)
        with pytest.raises(FormatError) as steps:
            read_document(decode_json(text))
        assert str(steps.value) == str(whole.value)


def test_entry_faults_follow_the_documented_precedence():
    # malformed entries in document order, then the first repeated pair,
    # then the game's own check, player by player
    def entry(player, profile, value):
        return {"player": player, "profile": profile, "value": value}

    float_fault = "utilities: values must be ints or 'p/q' strings, got 1.5"
    for entries, message in [
        ([entry(0, [0, 9], 1), entry(0, [0, 1], 1.5)], float_fault),
        ([entry(0, [0, 0], 1), entry(0, [0, 0], 2), entry(0, [0, 1], 1.5)], float_fault),
        (
            [entry(0, [0, 0], 1), entry(0, [0, 0], 2), entry(0, [0, 9], 1)],
            "utilities: player 0 has two entries at profile [0, 0]",
        ),
        (
            [entry(1, [0, 7], 1), entry(0, [0, 9], 1)],
            "index out of range in utility profile of player 0: position 1 holds 9",
        ),
    ]:
        document = {
            "format": "gipf-1",
            "kind": "normal",
            "players": [
                {"name": "a", "strategies": ["x", "y"]},
                {"name": "b", "strategies": ["x", "y", "z"]},
            ],
            "utilities": entries,
        }
        with pytest.raises(FormatError) as info:
            parse_instance(json.dumps(document))
        assert str(info.value) == message


# Entry lists for a (2, 3) game: clean entries around one spoiled entry, or
# mixed with many. A spoiled entry has a profile element that equals an int
# (True, 1.0), an unhashable or out-of-range one, a missing field, a player
# out of range or a value that is neither an int nor a string; clean
# entries repeat (player, profile) pairs often.
INDEX = st.sampled_from([0, 1, 2, 3, -1, True, False, 1.0, 0.0, [0], "0", None])
CLEAN_ENTRY = st.fixed_dictionaries(
    {
        "player": st.integers(0, 1),
        "profile": st.lists(st.integers(0, 1), min_size=2, max_size=2),
        "value": st.sampled_from([1, -1, 0, "1/2", "-3", "inf"]),
    }
)
SPOILED_ENTRY = st.one_of(
    st.builds(lambda e, x: dict(e, profile=[x, e["profile"][1]]), CLEAN_ENTRY, INDEX),
    st.builds(lambda e, x: dict(e, profile=[e["profile"][0], x]), CLEAN_ENTRY, INDEX),
    st.builds(
        lambda e, p: dict(e, profile=p),
        CLEAN_ENTRY,
        st.lists(INDEX, max_size=3) | st.sampled_from([None, 0, "ab", {"a": 0}]),
    ),
    st.builds(
        lambda e, x: dict(e, player=x),
        CLEAN_ENTRY,
        st.sampled_from([2, -1, True, 1.0, "0", None]),
    ),
    st.builds(
        lambda e, x: dict(e, value=x),
        CLEAN_ENTRY,
        st.sampled_from(["x", "1.5", 1.5, True, None, [1]]),
    ),
    st.builds(
        lambda e, field: {k: v for k, v in e.items() if k != field},
        CLEAN_ENTRY,
        st.sampled_from(["player", "profile", "value"]),
    ),
)
ENTRY_LISTS = st.one_of(
    st.builds(
        lambda clean, spoiled, at: clean[:at] + [spoiled] + clean[at:],
        st.lists(CLEAN_ENTRY, max_size=6),
        SPOILED_ENTRY,
        st.integers(0, 6),
    ),
    st.lists(CLEAN_ENTRY | SPOILED_ENTRY | st.sampled_from([0, "x", None, []]), max_size=8),
    st.lists(CLEAN_ENTRY, max_size=8),
    st.sampled_from([{}, "x", 0]),
)
# a self-loop makes the game refuse its edges after the utilities are read
KINDS = {"normal": None, "graphical": [[0, 1]], "graphical, bad edge": [[0, 0]]}


# The entry-by-entry reader that built the tables before the bulk pass was
# the only builder; the bulk pass must agree with it on tables and errors.
def _per_entry(raw: Any, n_players: int, what: str) -> Tables:
    """The per-player tables of an entry list, checked entry by entry; the
    first fault in document order raises."""
    if not isinstance(raw, list):
        raise FormatError(f"{what} must be a list of entries")
    tables: Tables = [{} for _ in range(n_players)]
    decoded: dict[int | str, ExtValue] = {}  # values repeat; ExtValue is immutable
    for entry in raw:
        if not isinstance(entry, dict):
            raise FormatError(f"{what} entries must be objects")
        try:
            player = entry["player"]
            profile = entry["profile"]
            value = entry["value"]
        except KeyError as exc:
            raise FormatError(f"{what} entry is missing {exc}") from exc
        # json.loads gives exact types, so type() tests match isinstance here;
        # index ranges and key lengths are checked by the model
        if type(player) is not int or not 0 <= player < n_players:
            raise FormatError(f"{what}: player {player!r} out of range")
        if type(profile) is not list or not set(map(type, profile)) <= {int}:
            raise FormatError(f"{what}: profile must be a list of ints, got {profile!r}")
        ext = decoded.get(value) if type(value) in (int, str) else None
        if ext is None:
            ext = decoded[value] = _decode_value(value, what)
        tables[player][tuple(profile)] = ext
    if sum(map(len, tables)) != len(raw):
        seen: set[tuple[int, tuple[int, ...]]] = set()
        for entry in raw:
            key = (entry["player"], tuple(entry["profile"]))
            if key in seen:
                raise FormatError(
                    f"{what}: player {key[0]} has two entries at profile {list(key[1])}"
                )
            seen.add(key)
    return tables


def _parsed(text):
    """Every table of the parsed document with its keys' element types, or
    the error text."""
    try:
        doc = parse_instance(text)
    except FormatError as exc:
        return str(exc)
    tables = doc.game.tables + (doc.promise.entries if doc.promise else ())
    return [[(key, [type(x) for x in key], value) for key, value in t.items()] for t in tables]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["utilities", "promise"]), st.sampled_from(sorted(KINDS)), ENTRY_LISTS)
# players out of range in every run: one equal to the player count, a
# negative one and a bool, each after a clean entry
@example("utilities", "normal", [{"player": 0, "profile": [0, 0], "value": 1},
                                 {"player": 2, "profile": [0, 0], "value": 1}])
@example("promise", "graphical", [{"player": 1, "profile": [0, 1], "value": "1/2"},
                                  {"player": -1, "profile": [0, 0], "value": 1}])
@example("utilities", "normal", [{"player": 0, "profile": [1, 2], "value": -1},
                                 {"player": True, "profile": [0, 0], "value": 1}])
def test_bulk_and_per_entry_readers_agree(field, kind, entries):
    document = {
        "format": "gipf-1",
        "kind": kind.split(",")[0],
        "players": [
            {"name": "a", "strategies": ["x", "y"]},
            {"name": "b", "strategies": ["x", "y", "z"]},
        ],
        field: entries,
    }
    if KINDS[kind] is not None:
        document["edges"] = KINDS[kind]
    text = json.dumps(document)
    bulk = _parsed(text)
    with mock.patch.object(instancefmt, "_decode_entries", _per_entry):
        assert _parsed(text) == bulk
