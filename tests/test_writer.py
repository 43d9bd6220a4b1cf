"""The streaming JSON writer renders exactly ``json.dumps(obj, indent=2)``."""

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gimpl.instancefmt import EntryList, StreamingEncoder, iter_json

TEXT = st.text(max_size=6) | st.sampled_from(['"', "\n", "\\", "é", " ", "\x00", "😀", ""])
INTS = st.integers(min_value=-(10**20), max_value=10**20)
ATOMS = st.none() | st.booleans() | INTS | TEXT

# encode_entries emits key tuples; documents read back hold lists
PROFILES = st.lists(st.integers(0, 9), min_size=1, max_size=4)
ENTRY = st.builds(
    lambda player, profile, value: {"player": player, "profile": profile, "value": value},
    st.integers(0, 5),
    PROFILES | PROFILES.map(tuple),
    INTS | TEXT,
)


SPOILS = ["extra key", "key order", "bool player", "empty profile", "none value"]


def _spoil(entry: dict, how: str) -> dict:
    """An entry that the template must not render."""
    if how == "extra key":
        return dict(entry, note=0)
    if how == "key order":
        return {"value": entry["value"], "player": entry["player"], "profile": entry["profile"]}
    if how == "bool player":
        return dict(entry, player=True)
    if how == "empty profile":
        return dict(entry, profile=[])
    return dict(entry, value=None)


NEAR_MISS = st.builds(_spoil, ENTRY, st.sampled_from(SPOILS))
ENTRY_LISTS = st.lists(ENTRY, min_size=1, max_size=4).map(EntryList) | st.lists(
    ENTRY | NEAR_MISS, max_size=5
)

VALUES = st.recursive(
    ATOMS | ENTRY_LISTS | st.lists(INTS, max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None, database=None)
@given(VALUES)
# int lists take the generic list path, alone, nested and beside entries
@example([])
@example([0])
@example([-1, 10**20])
@example({"sets": [[0, 1], [2]]})
@example(
    {
        "utilities": EntryList([{"player": 0, "profile": (1, 2), "value": "1/2"}]),
        "edges": [0, 1],
    }
)
def test_writer_matches_the_stdlib(value):
    expected = json.dumps(value, indent=2)
    assert "".join(iter_json(value)) == expected
    buffer = io.StringIO()
    json.dump(value, buffer, indent=2, cls=StreamingEncoder)
    assert buffer.getvalue() == expected


@pytest.mark.parametrize("how", SPOILS)
def test_near_entries_take_the_generic_path(how):
    entry = {"player": 1, "profile": [0, 2], "value": "1/2"}
    for value in ([_spoil(entry, how)], [entry, _spoil(entry, how)], {"promise": [_spoil(entry, how)]}):
        assert "".join(iter_json(value)) == json.dumps(value, indent=2)


def test_writer_yields_one_chunk_per_entry():
    entries = EntryList({"player": i, "profile": [i, 0], "value": "1/2"} for i in range(5))
    assert len(list(iter_json(entries))) == 6  # the entries, then the closing bracket


def test_entries_share_their_pieces_across_shapes():
    # one player, profile and value recur as a tuple and as a list, and the
    # int 1 and the string "1" keep their own renderings
    entries = EntryList(
        {"player": player, "profile": profile, "value": value}
        for player in (0, 1, 0)
        for profile in ((0, 1), [0, 1], (1,))
        for value in (1, "1", "inf")
    )
    assert "".join(iter_json({"promise": entries})) == json.dumps({"promise": entries}, indent=2)


@pytest.mark.parametrize("value", [1.5, {1: "a"}, {"a": [float("nan")]}, {"a", "b"}, b"x"])
def test_writer_refuses_what_gimpl_never_emits(value):
    with pytest.raises(TypeError):
        "".join(iter_json(value))


def test_encoder_refuses_other_settings():
    with pytest.raises(ValueError, match="indent=2"):
        json.dumps([1], indent=4, cls=StreamingEncoder)
