"""Game, region, promise, and view construction plus graphical expansion."""

import collections
import itertools
import json
import random
import sys
import threading
from collections.abc import Mapping

import pytest

from gimpl import (
    INF,
    ZERO,
    ExtValue,
    Game,
    GraphicalGame,
    ModifiedGameView,
    PaymentPromise,
    RectRegion,
    expand_graphical,
    expand_graphical_promise,
)

from gimpl import model
from gimpl.instancefmt import FormatError, parse_instance

from _support import random_game


def test_game_validation():
    with pytest.raises(ValueError, match="no strategies"):
        Game.make(["p1"], [[]], [{}])
    with pytest.raises(ValueError, match="out of range"):
        Game.make(["p1", "p2"], [["a"], ["b"]], [{(0, 1): 1}, {}])
    with pytest.raises(ValueError, match="infinite utility"):
        Game.make(["p1"], [["a"]], [{(0,): "inf"}])


# Messages recorded from the per-element key check, before keys of exact ints
# in range got a fast path: (parse_instance, Game.make / PaymentPromise.make).
# The make-path messages of the bool and float cases were later changed to
# name the type fault; a bool or a float index is not out of range.
_BAD_KEYS = {
    "bool": (
        [True, 0],
        "{doc}: profile must be a list of ints, got [True, 0]",
        "{key} of player 1: position 0 holds True, not a strategy index",
    ),
    "float": (
        [0.0, 0],
        "{doc}: profile must be a list of ints, got [0.0, 0]",
        "{key} of player 1: position 0 holds 0.0, not a strategy index",
    ),
    "negative": (
        [-1, 0],
        "index out of range in {key} of player 1: position 0 holds -1",
        "index out of range in {key} of player 1: position 0 holds -1",
    ),
    "out of range": (
        [0, 3],
        "index out of range in {key} of player 1: position 1 holds 3",
        "index out of range in {key} of player 1: position 1 holds 3",
    ),
    "short": (
        [0],
        "{key} of player 1 has 1 entries, expected 2",
        "{key} of player 1 has 1 entries, expected 2",
    ),
    "long": (
        [0, 0, 0],
        "{key} of player 1 has 3 entries, expected 2",
        "{key} of player 1 has 3 entries, expected 2",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_KEYS))
@pytest.mark.parametrize(
    "field, key_name", [("utilities", "utility profile"), ("promise", "promise key")]
)
def test_bad_keys_keep_their_messages(case, field, key_name):
    key, parse_message, make_message = _BAD_KEYS[case]
    names, strategies = ["a", "b"], [["x", "y"], ["x", "y", "z"]]
    document = {
        "format": "gipf-1",
        "kind": "normal",
        "players": [{"name": n, "strategies": s} for n, s in zip(names, strategies)],
        field: [{"player": 1, "profile": key, "value": 1}],
    }
    with pytest.raises(FormatError) as parsed:
        parse_instance(json.dumps(document))
    assert str(parsed.value) == parse_message.format(doc=field, key=key_name)

    game = Game.make(names, strategies, [{}, {}])
    table = {tuple(key): 1}
    with pytest.raises(ValueError) as made:
        if field == "utilities":
            Game.make(names, strategies, [{}, table])
        else:
            PaymentPromise.make(game, [{}, table])
    assert str(made.value) == make_message.format(key=key_name)

# Messages recorded from the table-by-table check, before one check per game
# replaced it.
_TWO_BY_TWO = (["a", "b"], [["x", "y"], ["x", "y"]])


@pytest.mark.parametrize("trap", [True, 1.0])
def test_a_key_equal_to_another_players_int_key_is_still_refused(trap):
    # (True, 0) equals and hashes like player 0's (1, 0); the check of the
    # whole game must not merge them before it tests the element types
    with pytest.raises(ValueError) as made:
        Game.make(*_TWO_BY_TWO, [{(1, 0): 1}, {(trap, 0): 2}])
    assert str(made.value) == (
        f"utility profile of player 1: position 0 holds {trap!r}, not a strategy index"
    )


def test_the_first_players_value_fault_comes_before_a_later_players_key_fault():
    for player_0 in ({(0, 0): "inf"}, {(0, 1): 1, (0, 0): "inf"}):
        with pytest.raises(ValueError) as made:
            Game.make(*_TWO_BY_TWO, [player_0, {(0, 5): 1}])
        assert str(made.value) == "infinite utility at utility profile of player 0 (0, 0)"


def test_a_zero_shared_by_every_table_is_dropped_everywhere():
    zero, three = ExtValue(0), ExtValue(3)
    game = Game.make(*_TWO_BY_TWO, [{(0, 0): zero, (1, 1): three}, {(0, 0): zero, (1, 0): zero}])
    assert game.utilities == ({(1, 1): three}, {})
    assert game.utilities[0][(1, 1)] is three
    promise = PaymentPromise.make(game, [{(0, 1): zero}, {(1, 1): zero, (0, 0): INF}])
    assert promise.entries == ({}, {(0, 0): INF})


def test_graphical_keys_of_different_lengths():
    # a path a - b - c: a and c have (2, 3)-sized keys, b a (3, 2, 2)-sized one
    names, edges = ["a", "b", "c"], [[0, 1], [1, 2]]
    strategies = [["x", "y"], ["x", "y", "z"], ["x", "y"]]
    game = GraphicalGame.make(names, strategies, edges, [{(1, 2): 1}, {(2, 1, 0): 2}, {(1, 1): 3}])
    assert game.local_utilities == (
        {(1, 2): ExtValue(1)}, {(2, 1, 0): ExtValue(2)}, {(1, 1): ExtValue(3)}
    )
    for tables, message in [
        (
            [{(1, 2): 1}, {(2, 1, 0): 2}, {(1, True): 3}],
            "local utility key of player 2: position 1 holds True, not a strategy index",
        ),
        (
            [{(1, 2): 1}, {(2, 1, 1, 0): 2}, {(1, 1): 3}],
            "local utility key of player 1 has 4 entries, expected 3",
        ),
        (
            # (2, 1) fits player 1's first two columns but is one short
            [{(1, 2): 1}, {(2, 1): 2}, {(1, 2): 3}],
            "local utility key of player 1 has 2 entries, expected 3",
        ),
        (
            # 2 is in range for b's key column of player 0, not for c's own
            [{(1, 2): 1}, {(2, 1, 0): 2}, {(2, 1): 3}],
            "index out of range in local utility key of player 2: position 0 holds 2",
        ),
    ]:
        with pytest.raises(ValueError) as made:
            GraphicalGame.make(names, strategies, edges, tables)
        assert str(made.value) == message
    # a triangle: every key has 3 entries, but b's columns are (3, 2, 2)
    # where a's are (2, 3, 2), so b's (0, 2, 0) is out of range for b only
    triangle = [[0, 1], [1, 2], [0, 2]]
    game = GraphicalGame.make(names, strategies, triangle, [{(1, 2, 1): 1}, {(2, 1, 0): 2}, {}])
    assert game.local_utilities == ({(1, 2, 1): ExtValue(1)}, {(2, 1, 0): ExtValue(2)}, {})
    with pytest.raises(ValueError) as made:
        GraphicalGame.make(names, strategies, triangle, [{(1, 2, 0): 1}, {(0, 2, 0): 2}, {}])
    assert str(made.value) == (
        "index out of range in local utility key of player 1: position 1 holds 2"
    )


def test_a_negative_payment_in_the_last_players_table_only():
    game = Game.make(["a", "b", "c"], [["x", "y"]] * 3, [{}, {}, {}])
    for last in ({(0, 1, 0): -1}, {(0, 1, 0): "-1/2", (0, 0, 0): 2}):
        with pytest.raises(ValueError) as made:
            PaymentPromise.make(game, [{(0, 0, 0): 1}, {(1, 1, 1): "inf"}, last])
        assert str(made.value) == "negative promise at promise key of player 2 (0, 1, 0)"


def _keys(table):
    return sorted(table, key=list)


def test_equal_keys_names_and_sets_are_one_object(fresh_shared):
    def fresh_game():  # every key and name tuple built anew
        text = '[["a", "b"], [["x", "y"], ["x", "y"]], [[0, 1], [1, 0]]]'
        names, strategies, keys = json.loads(text)
        one, two = map(tuple, keys)
        three, four = map(tuple, reversed(keys))
        return Game.make(names, strategies, [{one: 2, two: 3}, {three: 1, four: 4}])

    first, second = fresh_game(), fresh_game()
    for game in (first, second):
        for mine, theirs in zip(_keys(game.utilities[1]), _keys(first.utilities[0])):
            assert mine is theirs  # across players and across games
    assert second.players is first.players
    assert second.strategies[0] is first.strategies[0] is first.strategies[1]
    promise = PaymentPromise.make(second, [{(1, 0): 1}, {(0, 1): INF}])
    assert next(iter(promise.entries[0])) is _keys(first.utilities[0])[1]
    assert next(iter(promise.entries[1])) is _keys(first.utilities[1])[0]
    region = RectRegion.make([[1, 0], {0, 1}])
    assert RectRegion.make([[0, 1], [1, 0]]).sets[0] is region.sets[0] is region.sets[1]
    assert region.sets[0] is _keys(first.utilities[0])[0]  # an equal tuple is one tuple


@pytest.mark.parametrize("trap", [True, 1.0])
def test_a_shared_int_key_does_not_answer_for_a_later_trap(fresh_shared, trap):
    # (1, 0) is kept first; (True, 0) equals it and hashes like it, so it must
    # be refused by the type check before any lookup, with the old message
    Game.make(*_TWO_BY_TWO, [{(1, 0): 1}, {}])
    with pytest.raises(ValueError) as made:
        Game.make(*_TWO_BY_TWO, [{}, {(trap, 0): 2}])
    assert str(made.value) == (
        f"utility profile of player 1: position 0 holds {trap!r}, not a strategy index"
    )
    game = Game.make(*_TWO_BY_TWO, [{}, {}])
    with pytest.raises(ValueError) as made:
        PaymentPromise.make(game, [{(0, trap): 1}, {}])
    assert str(made.value) == (
        f"promise key of player 0: position 1 holds {trap!r}, not a strategy index"
    )
    RectRegion.make([[1]])
    with pytest.raises(ValueError, match="holds True, not a strategy index"):
        RectRegion.make([[True]])


def test_names_that_are_not_strs_are_refused_as_the_reader_refuses_them():
    # such a game once wrote a document that did not read back
    for names, strategies, message in [
        (["p", 3], [["x"], ["y", None]], "player names must be strings, got 3"),
        (["p", "q"], [["x"], ["y", None]], "strategies of player 'q' must be strings, got None"),
        ([None, "q"], [[1], ["y"]], "player names must be strings, got None"),
        (["p", "q"], [["x", 1.5], [["y"]]], "strategies of player 'p' must be strings, got 1.5"),
    ]:
        for make in (
            lambda: Game.make(names, strategies, [{}, {}]),
            lambda: GraphicalGame.make(names, strategies, [[0, 1]], [{}, {}]),
        ):
            with pytest.raises(ValueError) as made:
                make()
            assert str(made.value) == message
        players = [{"name": n, "strategies": s} for n, s in zip(names, strategies)]
        document = {"format": "gipf-1", "kind": "normal", "players": players}
        with pytest.raises(FormatError) as read:
            parse_instance(json.dumps(document))
        assert str(read.value) == message


def test_pieces_of_int_and_str_subclasses_keep_their_own_objects(fresh_shared):
    class Index(int):
        pass

    class Name(str):
        pass

    RectRegion.make([[1]])
    Game.make(["a"], [["x"]], [{}])
    (members,) = RectRegion.make([[Index(1)]]).sets
    assert type(members[0]) is Index
    game = Game.make([Name("a")], [["x"]], [{}])
    assert type(game.players[0]) is Name


def test_a_refused_trap_leaves_no_shared_key_behind(fresh_shared):
    with pytest.raises(ValueError):
        Game.make(*_TWO_BY_TWO, [{(True, 0): 1}, {}])
    assert set(fresh_shared) == {("a", "b"), ("x", "y")}  # the names only
    game = Game.make(*_TWO_BY_TWO, [{(1, 0): 1}, {}])
    (key,) = game.utilities[0]
    assert key is fresh_shared[(1, 0)] and list(map(type, key)) == [int, int]


def test_the_shared_table_never_grows_past_its_cap(fresh_shared, monkeypatch):
    monkeypatch.setattr(model, "_SHARED_MAX", 8)
    names, strategies = ["a", "b"], [[f"s{k}" for k in range(6)]] * 2
    profiles = list(itertools.product(range(6), repeat=2))
    rng = random.Random(5)
    for _ in range(40):
        table = {profile: rng.randint(1, 4) for profile in rng.sample(profiles, rng.randint(0, 7))}
        game = Game.make(names, strategies, [table, dict(table)])
        assert game.utilities[0] == game.utilities[1] == {
            key: ExtValue(value) for key, value in table.items()
        }
        assert len(fresh_shared) <= 8
    # a batch larger than the cap is not kept, and the table stays as it was
    kept = dict(fresh_shared)
    game = Game.make(names, strategies, [dict.fromkeys(profiles[:9], 1), {}])
    assert fresh_shared == kept
    assert game.utilities[0] == dict.fromkeys(profiles[:9], ExtValue(1))


def test_pieces_above_the_size_limit_are_not_kept(fresh_shared):
    items, text, index = model._SHARED_ITEMS, model._SHARED_TEXT, 2**model._SHARED_BITS
    wide = items + 1
    names, tables = [f"p{i}" for i in range(wide)], [{(0,) * wide: 1}] + [{}] * items
    game = Game.make(names, [["x"]] * wide, tables)
    assert game.utilities[0] == {(0,) * wide: ExtValue(1)}
    Game.make(["n" * (text + 1)], [["x"]], [{}])
    RectRegion.make([[0, index]])
    RectRegion.make([range(wide)])
    assert fresh_shared == {}
    Game.make(["n" * text], [["x"] * items], [{(items - 1,): 1}])
    RectRegion.make([[0, index - 1]])
    assert set(fresh_shared) == {("n" * text,), ("x",) * items, (items - 1,), (0, index - 1)}


def test_threads_building_games_at_once_keep_their_own_tables(fresh_shared, monkeypatch):
    monkeypatch.setattr(model, "_SHARED_MAX", 16)
    profiles = list(itertools.product(range(3), repeat=2))
    faults: list[str] = []

    def build(seed):
        rng = random.Random(seed)
        for _ in range(300):
            picked = rng.sample(profiles, rng.randint(0, 9))
            table = {profile: rng.randint(1, 4) for profile in picked}
            game = Game.make(["a", "b"], [["x", "y", "z"]] * 2, [table, dict(table)])
            expected = {key: ExtValue(value) for key, value in table.items()}
            if not game.utilities[0] == game.utilities[1] == expected:
                faults.append(f"seed {seed}: {game.utilities} for {table}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert faults == []
    # each of the other threads can add one batch (at most 9 keys) past the cap
    assert len(fresh_shared) <= 16 + 3 * 9
    assert all(key is canonical for key, canonical in fresh_shared.items())


class _PairMapping(Mapping):
    """A mapping over (list key, value) pairs, as a library caller may pass."""

    def __init__(self, pairs):
        self._pairs = pairs

    def __getitem__(self, key):
        return next(value for k, value in self._pairs if list(k) == list(key))

    def __iter__(self):
        return (key for key, _ in self._pairs)

    def __len__(self):
        return len(self._pairs)


def test_list_keys_give_the_same_tables_as_tuple_keys(fresh_shared):
    pairs = [([0, 1], 2), ([1, 0], "1/2"), ([1, 1], 0)]
    by_list = Game.make(*_TWO_BY_TWO, [_PairMapping(pairs), {}])
    by_tuple = Game.make(*_TWO_BY_TWO, [{tuple(k): v for k, v in pairs}, {}])
    assert by_list == by_tuple
    assert by_list.utilities[0] == {(0, 1): ExtValue(2), (1, 0): ExtValue("1/2")}
    for mine, theirs in zip(_keys(by_list.utilities[0]), _keys(by_tuple.utilities[0])):
        assert type(mine) is tuple and mine is theirs
    promise = PaymentPromise.make(by_tuple, [{}, _PairMapping([([1, 1], "inf")])])
    assert promise.entries == ({}, {(1, 1): INF})
    with pytest.raises(ValueError) as made:
        Game.make(*_TWO_BY_TWO, [{}, _PairMapping([([1, True], 1)])])
    assert str(made.value) == (
        "utility profile of player 1: position 1 holds True, not a strategy index"
    )


def test_keys_that_are_not_plain_tuples_are_stored_as_tuples(fresh_shared):
    # a range and a tuple subclass are hashable sequences of ints of the
    # right length; the tables keep plain tuples equal to them
    pair = collections.namedtuple("pair", "first second")
    game = Game.make(*_TWO_BY_TWO, [{range(2): 1}, {pair(1, 0): 2}])
    assert game.utilities == ({(0, 1): ExtValue(1)}, {(1, 0): ExtValue(2)})
    assert [type(key) for table in game.utilities for key in table] == [tuple, tuple]


def test_zero_entries_are_dropped():
    g1 = Game.make(["p1"], [["a", "b"]], [{(0,): 0, (1,): 2}])
    g2 = Game.make(["p1"], [["a", "b"]], [{(1,): 2}])
    assert g1 == g2
    assert g1.utility(0, (0,)) == ZERO


def test_region_validation():
    with pytest.raises(ValueError, match="empty desired set"):
        RectRegion.make([[0], []])
    with pytest.raises(ValueError, match="^a region needs at least one player$"):
        RectRegion.make([])
    region = RectRegion.make([[2, 0, 2]])
    assert region.sets == ((0, 2),)
    game = Game.make(["p1"], [["a", "b"]], [{}])
    with pytest.raises(ValueError):
        RectRegion.make([[5]]).validate_for(game)
    with pytest.raises(ValueError):
        RectRegion.make([[0], [0]]).validate_for(game)
    with pytest.raises(ValueError, match="references strategy -1"):
        RectRegion.make([[-1]]).validate_for(game)
    for member in (1.0, True, "1", None):
        with pytest.raises(ValueError, match="not a strategy index"):
            RectRegion.make([[member]])


def test_promise_rejects_negative_values():
    game = Game.make(["p1"], [["a", "b"]], [{}])
    with pytest.raises(ValueError, match="negative promise"):
        PaymentPromise.make(game, [{(0,): -1}])
    for tables in ([], [{}, {}]):
        with pytest.raises(ValueError, match="^one promise table per player is required$"):
            PaymentPromise.make(game, tables)
    promise = PaymentPromise.make(game, [{(0,): 0, (1,): "inf"}])
    assert promise.value(0, (0,)) == ZERO
    assert promise.value(0, (1,)) == INF


def test_modified_utility_examples(ex1, ex1_promise):
    view = ModifiedGameView(ex1, ex1_promise)
    assert view.payoff(0, 0, (0,)) == ExtValue(2)  # 1 + 1
    assert view.payoff(1, 0, (0,)) == ExtValue("11/10")
    plain = ModifiedGameView(ex1)
    for profile in RectRegion.full(ex1).profiles():
        for i in range(2):
            opp = profile[:i] + profile[i + 1 :]
            assert plain.payoff(i, profile[i], opp) == ex1.utility(i, profile)
    spiked = PaymentPromise.make(ex1, [{(2, 1): "inf"}, {}])
    assert ModifiedGameView(ex1, spiked).payoff(0, 2, (1,)) == INF


def test_promise_kind_must_match_game(ex1):
    gg = GraphicalGame.make(["p1", "p2"], [["a", "b"], ["c", "d"]], [(0, 1)], [{}, {}])
    graphical_promise = PaymentPromise.make(gg, [{}, {}])
    with pytest.raises(ValueError, match="kind"):
        ModifiedGameView(ex1, graphical_promise)
    # a promise of the right kind for another number of players
    one_player = PaymentPromise.make(Game.make(["p1"], [["a", "b"]], [{}]), [{}])
    with pytest.raises(ValueError, match="^promise and game disagree on the number of players$"):
        ModifiedGameView(ex1, one_player)


def test_graphical_game_validation():
    with pytest.raises(ValueError, match="self-loop"):
        GraphicalGame.make(["p1", "p2"], [["a"], ["b"]], [(0, 0)], [{}, {}])
    for edge in [(0, "1"), 5, (0, 1.0), (True, 1), (0, 1, 1), "01", [0]]:
        with pytest.raises(ValueError, match="not a pair of player indices"):
            GraphicalGame.make(["p1", "p2"], [["a"], ["b"]], [edge], [{}, {}])
    assert GraphicalGame.make(["p1", "p2"], [["a"], ["b"]], [[1, 0]], [{}, {}]).edges == ((0, 1),)
    gg = GraphicalGame.make(
        ["p1", "p2", "p3"],
        [["a", "b"], ["c", "d"], ["e", "f"]],
        [(2, 0), (0, 1)],
        [{(0, 1, 0): 3}, {(1, 0): 2}, {(0, 1): 1}],
    )
    assert gg.neighborhoods == ((1, 2), (0,), (0,))
    assert max(map(len, gg.neighborhoods)) == 2
    # local key of player 0 is (own, ngb 1, ngb 2)
    assert gg.utility(0, (0, 1, 0)) == ExtValue(3)
    with pytest.raises(ValueError):
        GraphicalGame.make(["p1", "p2"], [["a"], ["b"]], [(0, 1)], [{(0, 0, 0): 1}, {}])


def test_expand_degree_zero_single_player():
    gg = GraphicalGame.make(["p1"], [["a", "b"]], [], [{(1,): 5}])
    game = expand_graphical(gg)
    assert game.sizes == (2,)
    assert game.utility(0, (1,)) == ExtValue(5)
    assert game.utility(0, (0,)) == ZERO


def test_expand_projection_property():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 4)
        sizes = [rng.randint(2, 3) for _ in range(n)]
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        gg_tables = []
        tmp = GraphicalGame.make(
            [f"p{i}" for i in range(n)],
            [[f"s{k}" for k in range(s)] for s in sizes],
            edges,
            [{} for _ in range(n)],
        )
        for i in range(n):
            local_sizes = [sizes[i]] + [sizes[j] for j in tmp.neighborhoods[i]]
            table = {}
            for key in itertools.product(*(range(s) for s in local_sizes)):
                v = rng.randint(0, 3)
                if v:
                    table[key] = v
            gg_tables.append(table)
        gg = GraphicalGame.make(tmp.players, tmp.strategies, edges, gg_tables)
        game = expand_graphical(gg)
        for profile in RectRegion.full(game).profiles():
            for i in range(n):
                assert game.utility(i, profile) == gg.utility(i, gg.key_at(i, profile))
                # any profile agreeing on {i} u ngb(i) gets the same utility
                twiddled = list(profile)
                for j in range(n):
                    if j != i and j not in gg.neighborhoods[i]:
                        twiddled[j] = (profile[j] + 1) % sizes[j]
                assert game.utility(i, tuple(twiddled)) == game.utility(i, profile)


def test_expansion_refuses_more_profiles_than_the_cap():
    # 17 players with two strategies and no edges: 2^17 full profiles
    n = 17
    gg = GraphicalGame.make([f"p{i}" for i in range(n)], [["a", "b"]] * n, [], [{}] * n)
    promise = PaymentPromise.make(gg, [{}] * n)
    message = "graphical game has 131072 full strategy profiles, above the 65536 expansion cap"
    for expand in (expand_graphical, lambda g: expand_graphical_promise(g, promise)):
        with pytest.raises(ValueError) as refusal:
            expand(gg)
        assert str(refusal.value) == message


def test_expand_graphical_promise_matches_local_payments():
    gg = GraphicalGame.make(
        ["p1", "p2", "p3"],
        [["a", "b"], ["c", "d"], ["e", "f"]],
        [(0, 1)],
        [{}, {}, {}],
    )
    promise = PaymentPromise.make(gg, [{(0, 1): "1/2"}, {}, {(1,): "inf"}])
    flat = expand_graphical_promise(gg, promise)
    assert flat.kind == "normal"
    for profile in RectRegion.full(gg).profiles():
        for i in range(3):
            assert flat.value(i, profile) == promise.value(i, gg.key_at(i, profile))


def test_random_games_round_trip_equality():
    rng = random.Random(99)
    for _ in range(10):
        game = random_game(rng)
        clone = Game.make(game.players, game.strategies, list(game.utilities))
        assert clone == game


def _random_shapes(rng):
    """A seeded normal-form game and a graphical game, with isolated players
    among the graphical ones."""
    yield random_game(rng, n_players=rng.randint(1, 4), min_strats=1, max_strats=3)
    n = rng.randint(1, 6)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
    strategies = [[f"s{k}" for k in range(rng.randint(1, 3))] for _ in range(n)]
    yield GraphicalGame.make([f"p{i}" for i in range(n)], strategies, edges, [None] * n)


def test_keys_follow_key_of_over_the_opponent_profiles():
    rng = random.Random(1414)
    for _ in range(60):
        for game in _random_shapes(rng):
            region = RectRegion.make(
                rng.sample(range(size), rng.randint(1, size)) for size in game.sizes
            )
            for i in range(game.n_players):
                players = game.key_players[i]
                if game.kind == "normal":
                    assert players == tuple(range(game.n_players))
                else:
                    assert players == (i, *game.neighborhoods[i])
                assert game.opponents(i) == tuple(j for j in players if j != i)
                assert game.key_sizes(i) == tuple(game.sizes[j] for j in players)
                for p in RectRegion.full(game).profiles():
                    key = game.key_at(i, p)
                    assert key == game.key_of(i, p[i], tuple(p[j] for j in game.opponents(i)))
                    assert len(key) == len(game.key_sizes(i))
                for s in range(game.sizes[i]):
                    for where in (None, region):
                        assert list(game.keys(i, s, where)) == [
                            game.key_of(i, s, opp) for opp in game.opponent_profiles(i, where)
                        ]
