"""Parsing and serialization of gipf-1 instance documents."""

import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gimpl import (
    ExtValue,
    FormatError,
    GraphicalGame,
    InstanceDoc,
    PaymentPromise,
    RectRegion,
    parse_instance,
    serialize_instance,
)
from gimpl import instancefmt
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
    with mock.patch.object(instancefmt, "_decode_entries", instancefmt._read_entries):
        assert _parsed(text) == bulk
