"""Game, region, promise, and view construction plus graphical expansion."""

import itertools
import json
import random

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

def test_zero_entries_are_dropped():
    g1 = Game.make(["p1"], [["a", "b"]], [{(0,): 0, (1,): 2}])
    g2 = Game.make(["p1"], [["a", "b"]], [{(1,): 2}])
    assert g1 == g2
    assert g1.utility(0, (0,)) == ZERO


def test_region_validation():
    with pytest.raises(ValueError, match="empty desired set"):
        RectRegion.make([[0], []])
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
            view = ModifiedGameView(game)
            region = RectRegion.make(
                rng.sample(range(size), rng.randint(1, size)) for size in game.sizes
            )
            for i in range(game.n_players):
                for s in range(game.sizes[i]):
                    for where in (None, region):
                        assert list(game.keys(i, s, where)) == [
                            game.key_of(i, s, opp) for opp in view.opponent_profiles(i, where)
                        ]
