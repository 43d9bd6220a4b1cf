"""Metamorphic relations: transformations of a game and its desired region
(and, for ``verify``, of a promise) whose effect on the answer follows from
the definitions of dominance and cost alone.

Each relation maps (game, region) to a transformed pair and states what the
answer on that pair must be, so it checks the solver at any size without a
second solver. The mapping is compared only under relations that keep the
enumeration order: a relabeling moves the first optimal assignment.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gimpl import (
    INF,
    ExtValue,
    Game,
    PaymentPromise,
    RectRegion,
    is_pne,
    min_budget_solve,
    verify,
)

from _support import random_game, random_promise, random_region

SEEDS = st.integers(0, 2**32 - 1)
SHIFTS = [-3, -1, 0, Fraction(1, 2), 2, Fraction(7, 3)]


def _instance(seed):
    rng = random.Random(seed)
    game = random_game(rng, lo=-2, hi=3)
    return rng, game, random_region(rng, game)


def _remake(game, utility):
    """The game's players and strategies with utility(i, profile) as the
    utility of player i at each profile."""
    profiles = list(RectRegion.full(game).profiles())
    tables = [{p: utility(i, p) for p in profiles} for i in range(game.n_players)]
    return Game.make(game.players, game.strategies, tables)


def _value(game, i, profile):
    return game.utility(i, profile).fraction


def _scaled(value, scale):
    return ExtValue(value.fraction * scale) if value.is_finite else INF


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_adding_a_function_of_the_opponents_changes_nothing(seed):
    # u_i(x, o_-i) - u_i(o) does not see g_i(o_-i)
    rng, game, region = _instance(seed)
    shifts = [
        {p[:i] + p[i + 1 :]: rng.choice(SHIFTS) for p in RectRegion.full(game).profiles()}
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
    assert after.delta == _scaled(before.delta, scale)
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


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_relabeling_players_keeps_delta_and_the_verified_cost(seed):
    rng, game, region = _instance(seed)
    order = rng.sample(range(game.n_players), game.n_players)  # new player k is old order[k]

    def new(p):
        return tuple(p[j] for j in order)

    def moved(r):
        return RectRegion.make([r.sets[j] for j in order])

    relabeled = Game.make(
        [game.players[j] for j in order],
        [game.strategies[j] for j in order],
        [{new(p): _value(game, j, p) for p in RectRegion.full(game).profiles()} for j in order],
    )
    before, after = min_budget_solve(game, region), min_budget_solve(relabeled, moved(region))
    assert after.delta == before.delta
    # the solver's promise carried over verifies alike; the relabeled search
    # can settle on another first optimum, whose verified cost may differ
    carried = PaymentPromise.make(
        relabeled, [{new(p): v for p, v in before.promise.entries[j].items()} for j in order]
    )
    report = verify(game, before.promise, region, before.delta, "subset")
    moved_report = verify(relabeled, carried, moved(region), before.delta, "subset")
    assert moved_report.undominated_region == moved(report.undominated_region)
    assert moved_report.cost == report.cost
    assert moved_report.holds and report.holds
    assert verify(relabeled, after.promise, moved(region), after.delta, "subset").holds


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_a_worse_copy_of_a_desired_strategy_leaves_delta(seed):
    # player 0's new last strategy copies a desired strategy d, one lower for
    # player 0 only: assigning it to d costs nothing, and no other gap moves
    rng, game, region = _instance(seed)
    d, copy = rng.choice(region.sets[0]), game.sizes[0]
    sizes = (copy + 1, *game.sizes[1:])

    def utility(i, p):
        if p[0] != copy:
            return _value(game, i, p)
        return _value(game, i, (d, *p[1:])) - (1 if i == 0 else 0)

    copied = Game.make(
        game.players,
        [[*game.strategies[0], "copy"], *game.strategies[1:]],
        [
            {p: utility(i, p) for p in itertools.product(*map(range, sizes))}
            for i in range(game.n_players)
        ],
    )
    assert min_budget_solve(copied, region).delta == min_budget_solve(game, region).delta


def _verify_case(seed):
    """A random instance with a random promise (fractional and infinite
    payments), budget and mode."""
    rng, game, region = _instance(seed)
    promise = random_promise(rng, game)
    budget = ExtValue(rng.choice([0, 1, "5/2", 6, "inf"]))
    return rng, game, region, promise, budget, rng.choice(["subset", "exact"])


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_verify_does_not_see_a_function_of_the_opponents(seed):
    rng, game, region, promise, budget, mode = _verify_case(seed)
    shifts = [
        {p[:i] + p[i + 1 :]: rng.choice(SHIFTS) for p in RectRegion.full(game).profiles()}
        for i in range(game.n_players)
    ]
    shifted = _remake(game, lambda i, p: _value(game, i, p) + shifts[i][p[:i] + p[i + 1 :]])
    assert verify(shifted, promise, region, budget, mode) == verify(
        game, promise, region, budget, mode
    )


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_scaling_utilities_and_promise_scales_the_verified_cost(seed):
    _, game, region, promise, budget, mode = _verify_case(seed)
    scale = Fraction(3, 2)
    scaled = _remake(game, lambda i, p: _value(game, i, p) * scale)
    scaled_promise = PaymentPromise.make(
        scaled, [{p: _scaled(v, scale) for p, v in table.items()} for table in promise.entries]
    )
    before = verify(game, promise, region, budget, mode)
    after = verify(scaled, scaled_promise, region, _scaled(budget, scale), mode)
    assert after.undominated_region == before.undominated_region
    assert after.violation == before.violation
    assert after.cost == _scaled(before.cost, scale)
    assert after.holds == before.holds


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_relabeling_strategies_moves_the_undominated_region(seed):
    rng, game, region, promise, budget, mode = _verify_case(seed)
    labels = [rng.sample(range(n), n) for n in game.sizes]
    old_of = [sorted(range(n), key=label.__getitem__) for n, label in zip(game.sizes, labels)]

    def old(q):
        return tuple(o[s] for o, s in zip(old_of, q))

    def new(p):
        return tuple(label[s] for label, s in zip(labels, p))

    def moved(r):
        return RectRegion.make(
            [[label[s] for s in members] for label, members in zip(labels, r.sets)]
        )

    relabeled = _remake(game, lambda i, q: _value(game, i, old(q)))
    relabeled_promise = PaymentPromise.make(
        relabeled, [{new(p): v for p, v in table.items()} for table in promise.entries]
    )
    before = verify(game, promise, region, budget, mode)
    after = verify(relabeled, relabeled_promise, moved(region), budget, mode)
    assert after.undominated_region == moved(before.undominated_region)
    assert after.cost == before.cost
    assert after.holds == before.holds
