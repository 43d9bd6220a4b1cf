"""Agreement between the solver and the definition-level oracle."""

import random

import pytest

from gimpl import (
    ZERO,
    ExtValue,
    Game,
    RectRegion,
    is_pne,
    min_budget_solve,
    oracle_min_budget,
    oracle_zero_cost,
)

from _support import random_game, random_region


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
