"""Metamorphic relations: transformations of a game and its desired region
whose effect on the solver's answer follows from the definitions of
dominance and cost alone.

Each relation maps (game, region) to a transformed pair and states what the
answer on that pair must be, so it checks the solver at any size without a
second solver. The mapping is compared only under relations that keep the
enumeration order: a relabeling moves the first optimal assignment.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gimpl import INF, ExtValue, Game, RectRegion, is_pne, min_budget_solve

from _support import random_game, random_region

SEEDS = st.integers(0, 2**32 - 1)
SHIFTS = [-3, -1, 0, Fraction(1, 2), 2, Fraction(7, 3)]


def _instance(seed):
    rng = random.Random(seed)
    game = random_game(rng, lo=-2, hi=3)
    return rng, game, random_region(rng, game)


def _remake(game, utility):
    """The game's players and strategies with utility(i, profile) as the
    utility of player i at each profile."""
    tables = [{p: utility(i, p) for p in game.profiles()} for i in range(game.n_players)]
    return Game.make(game.players, game.strategies, tables)


def _value(game, i, profile):
    return game.utility(i, profile).fraction


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_adding_a_function_of_the_opponents_changes_nothing(seed):
    # u_i(x, o_-i) - u_i(o) does not see g_i(o_-i)
    rng, game, region = _instance(seed)
    shifts = [
        {p[:i] + p[i + 1 :]: rng.choice(SHIFTS) for p in game.profiles()}
        for i in range(game.n_players)
    ]
    shifted = _remake(game, lambda i, p: _value(game, i, p) + shifts[i][p[:i] + p[i + 1 :]])
    before, after = min_budget_solve(game, region), min_budget_solve(shifted, region)
    assert after.delta == before.delta
    assert after.mapping == before.mapping
    assert is_pne(shifted, region) == is_pne(game, region)


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_scaling_the_utilities_scales_delta(seed):
    _, game, region = _instance(seed)
    scale = Fraction(3, 2)
    scaled = _remake(game, lambda i, p: _value(game, i, p) * scale)
    before, after = min_budget_solve(game, region), min_budget_solve(scaled, region)
    expected = ExtValue(before.delta.fraction * scale) if before.delta.is_finite else INF
    assert after.delta == expected
    assert after.mapping == before.mapping


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_relabeling_strategies_changes_neither_delta_nor_stability(seed):
    rng, game, region = _instance(seed)
    # new label of each old strategy, per player
    labels = [rng.sample(range(n), n) for n in game.sizes]
    old_of = [sorted(range(n), key=label.__getitem__) for n, label in zip(game.sizes, labels)]
    relabeled = _remake(
        game, lambda i, q: _value(game, i, tuple(old[s] for old, s in zip(old_of, q)))
    )
    moved = RectRegion.make(
        [[label[s] for s in members] for label, members in zip(labels, region.sets)]
    )
    assert min_budget_solve(relabeled, moved).delta == min_budget_solve(game, region).delta
    assert is_pne(relabeled, moved).holds == is_pne(game, region).holds
