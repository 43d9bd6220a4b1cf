"""Weak dominance: worked-example values and the relation's properties."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gimpl import (
    INF,
    ZERO,
    ExtValue,
    Game,
    ModifiedGameView,
    RectRegion,
    dominates,
    expand_graphical,
    find_dominator,
    undominated,
    undominated_region,
    verify,
)
from gimpl.oracle import _dominates_by_definition

from _support import mixed_utility, random_game, random_graphical, random_promise


def test_worked_example_witness(ex1):
    view = ModifiedGameView(ex1)
    assert dominates(view, 0, 0, 2) is True  # s1 vs s3: strict against t1
    assert dominates(view, 1, 0, 1) is False  # t1 vs t2: all payoffs equal
    assert dominates(view, 0, 0, 1) is False  # s1 vs s2: 2 > 1 at t1


def test_dominates_rejects_equal_strategies(ex1):
    with pytest.raises(ValueError):
        dominates(ModifiedGameView(ex1), 0, 1, 1)


def test_player_and_strategy_indices_out_of_range_are_refused():
    # player 0 has strategies 0..2; strategy 0 dominates 1 and 2
    game = Game.make(["a", "b"], [["x", "y", "z"], ["u"]], [{(0, 0): 3, (1, 0): 2}, {}])
    view = ModifiedGameView(game)
    for x, y, bad in [
        (0, -3, -3), (-3, 1, -3), (0, 3, 3), (3, 1, 3), (True, 2, True),
        (True, 1, True), (1, True, True),  # True == 1: checked before "cannot dominate itself"
    ]:
        with pytest.raises(ValueError, match=f"^player 0 has no strategy {bad}$"):
            dominates(view, 0, x, y)
    for y in (-2, -1, 3):
        with pytest.raises(ValueError, match=f"^player 0 has no strategy {y}$"):
            find_dominator(view, 0, y)
    for player in (2, -1, True):
        with pytest.raises(ValueError, match=f"^the game has no player {player}$"):
            undominated(view, player)
    for x, y in [(0, 1), (1, 1)]:
        with pytest.raises(ValueError, match="^the game has no player 2$"):
            dominates(view, 2, x, y)
    assert dominates(view, 0, 0, 2) and find_dominator(view, 0, 2) == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda view: view.columns(True),
        lambda view: dominates(view, True, 0, 1),
        lambda view: undominated(view, True),
        lambda view: find_dominator(view, True, 1),
    ],
    ids=["columns", "dominates", "undominated", "find_dominator"],
)
def test_a_bool_player_is_refused_once_the_columns_are_cached(call):
    # True == 1 and hashes like it, so player 1's cached columns once answered True
    game = Game.make(["a", "b"], [["x", "y"], ["u", "v"]], [{}, {(0, 0): 1}])
    view = ModifiedGameView(game)
    assert dominates(view, 1, 0, 1) and undominated(view, 1) == (0,)
    assert find_dominator(view, 1, 1) == 0
    with pytest.raises(ValueError, match="^the game has no player True$"):
        call(view)


def test_find_dominator_refuses_a_bool_before_comparing_it():
    # strategy 1 is the only undominated one, so the loop meets x = 1, and
    # True == 1 once answered "strategy True of player 0 is undominated"
    game = Game.make(["a", "b"], [["x", "y"], ["u"]], [{(1, 0): 3}, {}])
    view = ModifiedGameView(game)
    for y in (True, False, 1.0):
        with pytest.raises(ValueError, match=f"^player 0 has no strategy {y}$"):
            find_dominator(view, 0, y)
    assert find_dominator(view, 0, 0) == 1
    with pytest.raises(ValueError, match="^strategy 1 of player 0 is undominated$"):
        find_dominator(view, 0, 1)


def test_a_view_keeps_no_layout():
    rng = random.Random(3535)
    for game in (random_game(rng, value=mixed_utility), random_graphical(rng, mixed_utility)):
        promise = random_promise(rng, game)
        view = ModifiedGameView(game, promise)
        for i in range(game.n_players):
            first, second = view.columns(i), view.columns(i)
            assert first == second and first is not second
        region = undominated_region(view)
        assert region == undominated_region(ModifiedGameView(game, promise))
        # the view is its game and its promise, and holds nothing it built
        assert vars(view) == {"game": game, "promise": promise}


@pytest.mark.parametrize("full", [True, False], ids=["full", "region"])
def test_columns_refuse_a_wide_opponent_space(full):
    # 18 players with two strategies: each player's opponents make 2^17 profiles
    n = 18
    view = ModifiedGameView(Game.make([f"p{i}" for i in range(n)], [["a", "b"]] * n, [{}] * n))
    region = None if full else RectRegion.full(view.game)
    with pytest.raises(ValueError) as refusal:
        view.columns(0, region)
    assert str(refusal.value) == (
        "dominance for player 0 ranges over 131072 opponent profiles, above the 65536 cap"
    )


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
                opponents = list(game.opponent_profiles(i))
                never_worse = all(
                    view.payoff(i, x, opp) >= view.payoff(i, y, opp)
                    for opp in opponents
                )
                somewhere_better = any(
                    view.payoff(i, x, opp) > view.payoff(i, y, opp)
                    for opp in opponents
                )
                assert dominates(view, i, x, y) is (never_worse and somewhere_better)


def test_graphical_fast_path_agrees_with_expansion():
    rng = random.Random(555)
    for _ in range(30):
        gg = random_graphical(rng)
        local_view = ModifiedGameView(gg)
        flat_view = ModifiedGameView(expand_graphical(gg))
        for i in range(gg.n_players):
            assert undominated(local_view, i) == undominated(flat_view, i)


def test_graphical_agreement_with_promises():
    from gimpl import PaymentPromise, expand_graphical_promise

    rng = random.Random(556)
    for _ in range(15):
        gg = random_graphical(rng)
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


def _order(a, b) -> int:
    return (a > b) - (a < b)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_rank_columns_order_as_the_payoffs(seed, graphical):
    # negative and fractional utilities, absent entries, and fractional and
    # infinite payments: each column entry sits where its payoff sits
    rng = random.Random(seed)
    if graphical:
        game = random_graphical(rng, mixed_utility)
    else:
        game = random_game(rng, value=mixed_utility)
    view = ModifiedGameView(game, random_promise(rng, game))
    for i in range(game.n_players):
        columns = view.columns(i)
        for k, opp in enumerate(game.opponent_profiles(i)):
            for x, y in itertools.product(range(game.sizes[i]), repeat=2):
                payoffs = _order(view.payoff(i, x, opp), view.payoff(i, y, opp))
                assert _order(columns[x][k], columns[y][k]) == payoffs


def _cost_by_definition(game, promise, region) -> ExtValue:
    """Largest sum of the promised payments over the profiles of ``region``."""
    return max(
        sum((promise.value(i, game.key_at(i, profile)) for i in range(game.n_players)), ZERO)
        for profile in region.profiles()
    )


def test_undominated_and_verify_match_the_definition_under_promises():
    # negative and fractional utilities; fractional, absent and infinite
    # payments; normal and graphical games; random desired regions
    rng = random.Random(9091)
    for k in range(60):
        if k % 2:
            game = random_graphical(rng, mixed_utility)
        else:
            game = random_game(rng, value=mixed_utility)
        promise = random_promise(rng, game)
        view = ModifiedGameView(game, promise)
        survivors = []
        for i, size in enumerate(game.sizes):
            kept = tuple(
                y
                for y in range(size)
                if not any(_dominates_by_definition(view, i, x, y) for x in range(size) if x != y)
            )
            assert undominated(view, i) == kept
            survivors.append(kept)
        star = RectRegion.make(survivors)
        cost = _cost_by_definition(game, promise, star)
        region = RectRegion.make(
            [sorted(rng.sample(range(size), rng.randint(1, size))) for size in game.sizes]
        )
        for desired in (region, star, RectRegion.full(game)):
            for mode in ("subset", "exact"):
                wrong = [
                    (i, s)
                    for i, size in enumerate(game.sizes)
                    for s in range(size)
                    if (s in star.sets[i]) != (s in desired.sets[i])
                    and (mode == "exact" or s in star.sets[i])
                ]
                violation = wrong[0] if wrong else None
                for budget in (ZERO, cost, INF):
                    report = verify(game, promise, desired, budget, mode)
                    assert report.undominated_region == star
                    assert report.cost == cost
                    assert report.violation == violation
                    assert report.holds is (violation is None and cost <= budget)
