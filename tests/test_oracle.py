"""Agreement between the solver and the definition-level oracle."""

import random

import pytest

from gimpl import (
    INF,
    ZERO,
    ExtValue,
    Game,
    GraphicalGame,
    ModifiedGameView,
    RectRegion,
    expand_graphical,
    expand_graphical_promise,
    is_pne,
    min_budget_solve,
    oracle_min_budget,
    oracle_zero_cost,
    verify,
)
from gimpl.oracle import oracle_verify

from _support import mixed_utility, random_game, random_graphical, random_promise, random_region

# budgets on both sides of typical costs, fractional and infinite ones included
BUDGETS = (ZERO, ExtValue("1/2"), ExtValue(2), ExtValue("11/3"), INF)


def test_oracle_worked_example_landscape(ex1, ex1_region):
    result = oracle_min_budget(ex1, ex1_region)
    assert result.delta == ExtValue(1)
    by_targets = {m.targets: v for m, v in result.per_mapping_costs.items()}
    assert by_targets == {
        ((0,), (0,)): ExtValue(1),  # F1(s2)=s1
        ((2,), (0,)): ExtValue(2),  # F1(s2)=s3
    }
    assert [m.targets for m in result.all_optimal_mappings] == [((0,), (0,))]


def test_oracle_counterexample(ce1, ce1_region):
    assert oracle_min_budget(ce1, ce1_region).delta == ZERO


def test_oracle_full_region(ex1):
    result = oracle_min_budget(ex1, RectRegion.full(ex1))
    assert result.delta == ZERO
    assert len(result.per_mapping_costs) == 1
    only = result.all_optimal_mappings[0]
    assert only.domains == ((), ())


def test_oracle_rejects_oversized_spaces():
    game = Game.make(
        ["p1", "p2"],
        [[f"s{k}" for k in range(17)], ["a", "b"]],
        [{}, {}],
    )
    region = RectRegion.make([list(range(10)), [0, 1]])  # 10^7 assignments
    with pytest.raises(ValueError, match="cap"):
        oracle_min_budget(game, region)


def test_oracle_agrees_with_solver_on_random_instances():
    rng = random.Random(909090)
    for _ in range(80):
        game = random_game(rng)
        region = random_region(rng, game)
        solved = min_budget_solve(game, region)
        oracled = oracle_min_budget(game, region)
        assert solved.delta == oracled.delta
        assert solved.mapping in oracled.all_optimal_mappings


@pytest.mark.parametrize(
    "game, sets",
    [
        # two players, no utilities: only player 1 may play anything
        (Game.make(["a", "b"], [["x", "y"], ["u", "v"]], [{}, {}]), [[0], [0, 1]]),
        # one player: the payment of 1/2 on x ties it with y, and there is no opponent
        (Game.make(["a"], [["x", "y"]], [{(1,): "1/2"}]), [[0]]),
    ],
    ids=["two-players", "one-player"],
)
def test_oracle_names_the_tie_no_opponent_can_break(game, sets):
    message = (
        "assignment 0<-1 for player 0 fails its domination check: the two tie, "
        "and no opponent profile leaves the region to break the tie"
    )
    with pytest.raises(ValueError) as refusal:
        oracle_min_budget(game, RectRegion.make(sets))
    assert str(refusal.value) == message


def test_zero_cost_oracle_examples(ce1):
    assert oracle_zero_cost(ce1, RectRegion.make([[0], [0]]))
    assert not oracle_zero_cost(ce1, RectRegion.make([[1], [1]]))
    assert oracle_zero_cost(ce1, RectRegion.full(ce1))


def test_zero_cost_oracle_matches_pne_check():
    rng = random.Random(171717)
    for _ in range(120):
        game = random_game(rng)
        region = random_region(rng, game)
        assert oracle_zero_cost(game, region) == is_pne(game, region).holds


@pytest.mark.parametrize("oracle", [oracle_min_budget, oracle_zero_cost])
def test_oracle_refuses_wide_games_before_enumerating(oracle):
    # 18 two-strategy players: one assignment, but 2^17 opponent profiles each
    n = 18
    game = Game.make([f"p{i}" for i in range(n)], [["a", "b"]] * n, [None] * n)
    with pytest.raises(ValueError, match="player 0 has 131072 opponent profiles"):
        oracle(game, RectRegion.make([[0]] * n))


def test_oracle_search_refuses_a_game_above_the_profile_cap_first(monkeypatch):
    # two players, full region: one assignment and at most 257 opponent
    # profiles per player, but the search prices every profile of the game
    def unavailable(self, player, strategy, opp):
        raise AssertionError("payoff read")

    monkeypatch.setattr(ModifiedGameView, "payoff", unavailable)
    game = Game.make(["a", "b"], [[f"s{k}" for k in range(257)]] * 2, [None] * 2)
    with pytest.raises(ValueError) as info:
        oracle_min_budget(game, RectRegion.full(game))
    assert str(info.value) == (
        "the game has 66049 profiles, above the 65536 cap on the oracle's enumeration"
    )
    game = Game.make(["a", "b"], [[f"s{k}" for k in range(256)]] * 2, [None] * 2)
    assert oracle_min_budget(game, RectRegion.full(game)).delta == ZERO


def test_oracle_verify_equals_verify_on_random_promises():
    rng = random.Random(313131)
    kinds = set()
    for _ in range(150):
        game = random_game(rng, value=mixed_utility)
        promise = random_promise(rng, game) if rng.random() < 0.9 else None
        region = random_region(rng, game)
        budget = rng.choice(BUDGETS)
        for mode in ("subset", "exact"):
            expected = verify(game, promise, region, budget, mode)
            assert oracle_verify(game, promise, region, budget, mode) == expected
            kinds.add((expected.holds, expected.cost.is_finite, expected.violation is None))
    # held and failed, finite and infinite costs, with and without violations
    assert len(kinds) >= 5


def test_oracle_verify_on_the_expansion_equals_verify_on_a_graphical_game():
    rng = random.Random(424242)
    for _ in range(40):
        gg = random_graphical(rng, value=mixed_utility)
        promise = random_promise(rng, gg)
        region = random_region(rng, gg)
        budget = rng.choice(BUDGETS)
        game, flat = expand_graphical(gg), expand_graphical_promise(gg, promise)
        for mode in ("subset", "exact"):
            assert oracle_verify(game, flat, region, budget, mode) == verify(
                gg, promise, region, budget, mode
            )


def test_the_oracle_reads_no_rank_column(monkeypatch):
    # verify's dominance compares the view's rank columns; the oracle's
    # verdicts must come from payoffs alone
    rng = random.Random(535353)
    cases = []
    for _ in range(30):
        game = random_game(rng, value=mixed_utility)
        region = random_region(rng, game)
        promise = random_promise(rng, game)
        cases.append((game, region, promise, verify(game, promise, region, 1, "exact"),
                      is_pne(game, region).holds))

    def unavailable(self, player):
        raise AssertionError("rank columns read")

    monkeypatch.setattr(ModifiedGameView, "columns", unavailable)
    for game, region, promise, expected, stable in cases:
        assert oracle_verify(game, promise, region, 1, "exact") == expected
        assert oracle_zero_cost(game, region) == stable


def test_oracle_verify_refuses_what_it_cannot_enumerate():
    gg = GraphicalGame.make(["a", "b"], [["x"], ["y"]], [], [{}, {}])
    with pytest.raises(ValueError, match="expand the graphical game first"):
        oracle_verify(gg, None, RectRegion.make([[0], [0]]), ZERO)
    # 3 players of 41 strategies: 1,681 opponent profiles each, 68,921 profiles
    game = Game.make(["a", "b", "c"], [[f"s{k}" for k in range(41)]] * 3, [None] * 3)
    with pytest.raises(ValueError, match="the game has 68921 profiles, above the 65536 cap"):
        oracle_verify(game, None, RectRegion.make([[0]] * 3), ZERO)
    with pytest.raises(ValueError, match="the game has 68921 profiles, above the 65536 cap"):
        oracle_zero_cost(game, RectRegion.make([[0]] * 3))
    # 18 two-strategy players: 2^17 opponent profiles each
    game = Game.make([f"p{i}" for i in range(18)], [["a", "b"]] * 18, [None] * 18)
    with pytest.raises(ValueError, match="player 0 has 131072 opponent profiles"):
        oracle_verify(game, None, RectRegion.make([[0]] * 18), ZERO)
    with pytest.raises(ValueError, match="mode must be 'subset' or 'exact'"):
        oracle_verify(game, None, RectRegion.make([[0]] * 18), ZERO, "strict")
