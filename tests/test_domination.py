"""Weak dominance: worked-example values and the relation's properties."""

import itertools
import random

import pytest

from gimpl import (
    ModifiedGameView,
    GraphicalGame,
    RectRegion,
    dominates,
    expand_graphical,
    find_dominator,
    undominated,
    undominated_region,
)

from _support import random_game


def test_worked_example_witness(ex1):
    view = ModifiedGameView(ex1)
    assert dominates(view, 0, 0, 2) is True  # s1 vs s3: strict against t1
    assert dominates(view, 1, 0, 1) is False  # t1 vs t2: all payoffs equal
    assert dominates(view, 0, 0, 1) is False  # s1 vs s2: 2 > 1 at t1


def test_dominates_rejects_equal_strategies(ex1):
    with pytest.raises(ValueError):
        dominates(ModifiedGameView(ex1), 0, 1, 1)


def test_worked_example_undominated_sets(ex1, ex1_promise):
    plain = ModifiedGameView(ex1)
    assert undominated(plain, 0) == (0, 1)  # {s1, s2}
    assert undominated(plain, 1) == (0, 1)  # {t1, t2}
    assert undominated_region(plain) == RectRegion.make([[0, 1], [0, 1]])
    promised = ModifiedGameView(ex1, ex1_promise)
    assert undominated(promised, 0) == (0,)
    assert undominated(promised, 1) == (0,)


def test_cheap_promise_region(ex1, ex1_promise_cheap):
    view = ModifiedGameView(ex1, ex1_promise_cheap)
    assert undominated_region(view) == RectRegion.make([[0], [0]])


def test_single_strategy_game_keeps_full_region():
    from gimpl import Game

    game = Game.make(["p1", "p2"], [["a"], ["b"]], [{}, {}])
    assert undominated_region(ModifiedGameView(game)) == RectRegion.full(game)


def test_find_dominator(ex1, ce1):
    assert find_dominator(ModifiedGameView(ex1), 0, 2) == 0  # s1 dominates s3
    assert find_dominator(ModifiedGameView(ce1), 0, 1) == 0  # s1 dominates s2
    with pytest.raises(ValueError, match="undominated"):
        find_dominator(ModifiedGameView(ex1), 1, 0)  # t1 is undominated


def _dominance_matrix(view, player):
    size = view.sizes[player]
    return {
        (x, y): dominates(view, player, x, y)
        for x in range(size)
        for y in range(size)
        if x != y
    }


def test_relation_properties_on_random_games():
    rng = random.Random(31337)
    for _ in range(150):
        game = random_game(rng)
        view = ModifiedGameView(game)
        for i in range(game.n_players):
            dom = _dominance_matrix(view, i)
            size = game.sizes[i]
            for x, y in itertools.permutations(range(size), 2):
                # asymmetry
                assert not (dom[(x, y)] and dom[(y, x)])
            for x, y, z in itertools.permutations(range(size), 3):
                # transitivity
                if dom[(x, y)] and dom[(y, z)]:
                    assert dom[(x, z)]
            survivors = undominated(view, i)
            assert survivors  # nonemptiness
            kept = set(survivors)
            for y in range(size):
                if y not in kept:
                    # every dominated strategy has an undominated dominator
                    assert find_dominator(view, i, y) in kept


def test_witnesses_reverify_by_exhaustive_scan():
    rng = random.Random(2718)
    for _ in range(40):
        game = random_game(rng)
        view = ModifiedGameView(game)
        for i in range(game.n_players):
            for x, y in itertools.permutations(range(game.sizes[i]), 2):
                opponents = list(view.opponent_profiles(i))
                never_worse = all(
                    view.payoff(i, x, opp) >= view.payoff(i, y, opp)
                    for opp in opponents
                )
                somewhere_better = any(
                    view.payoff(i, x, opp) > view.payoff(i, y, opp)
                    for opp in opponents
                )
                assert dominates(view, i, x, y) is (never_worse and somewhere_better)


def _random_graphical(rng):
    n = rng.randint(2, 6)
    sizes = [rng.randint(2, 3) for _ in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
    shell = GraphicalGame.make(
        [f"p{i}" for i in range(n)],
        [[f"s{k}" for k in range(s)] for s in sizes],
        edges,
        [{} for _ in range(n)],
    )
    tables = []
    for i in range(n):
        local_sizes = [sizes[i]] + [sizes[j] for j in shell.neighborhoods[i]]
        table = {}
        for key in itertools.product(*(range(s) for s in local_sizes)):
            v = rng.randint(0, 4)
            if v:
                table[key] = v
        tables.append(table)
    return GraphicalGame.make(shell.players, shell.strategies, edges, tables)


def test_graphical_fast_path_agrees_with_expansion():
    rng = random.Random(555)
    for _ in range(30):
        gg = _random_graphical(rng)
        local_view = ModifiedGameView(gg)
        flat_view = ModifiedGameView(expand_graphical(gg))
        for i in range(gg.n_players):
            assert undominated(local_view, i) == undominated(flat_view, i)


def test_graphical_agreement_with_promises():
    from gimpl import PaymentPromise, expand_graphical_promise

    rng = random.Random(556)
    for _ in range(15):
        gg = _random_graphical(rng)
        tables = []
        for i in range(gg.n_players):
            local_sizes = [gg.sizes[i]] + [gg.sizes[j] for j in gg.neighborhoods[i]]
            table = {}
            for key in itertools.product(*(range(s) for s in local_sizes)):
                roll = rng.random()
                if roll < 0.1:
                    table[key] = "inf"
                elif roll < 0.3:
                    table[key] = rng.randint(1, 3)
            tables.append(table)
        promise = PaymentPromise.make(gg, tables)
        local_view = ModifiedGameView(gg, promise)
        flat_view = ModifiedGameView(
            expand_graphical(gg), expand_graphical_promise(gg, promise)
        )
        for i in range(gg.n_players):
            assert undominated(local_view, i) == undominated(flat_view, i)
