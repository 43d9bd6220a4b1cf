"""Promise cost and implementation verification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gimpl import (
    INF,
    ZERO,
    ExtValue,
    Game,
    PaymentPromise,
    RectRegion,
    cost,
    expand_graphical,
    expand_graphical_promise,
    verify,
)
from gimpl.oracle import oracle_verify

from _support import (
    mixed_utility,
    random_game,
    random_graphical,
    random_promise,
    random_region,
)


def test_worked_example_costs(ex1, ex1_promise, ex1_promise_cheap):
    assert cost(ex1, ex1_promise) == ExtValue("11/10")
    assert cost(ex1, ex1_promise_cheap) == ExtValue(1)
    assert cost(ex1, PaymentPromise.make(ex1, [None] * ex1.n_players)) == ZERO
    assert cost(ex1, None) == ZERO


def test_cost_ignores_payments_on_dominated_profiles(ex1, ex1_promise_cheap):
    # pile a huge payment on player 2 at (s2, t1): s2 stays dominated for
    # player 1, so the profile never enters the undominated region
    tables = [dict(ex1_promise_cheap.entries[0]), dict(ex1_promise_cheap.entries[1])]
    tables[1][(1, 0)] = 1000
    heavy = PaymentPromise.make(ex1, tables)
    assert cost(ex1, heavy) == ExtValue(1)


def test_infinite_promise_on_undominated_profile_costs_infinity(ex1):
    promise = PaymentPromise.make(ex1, [{(0, 1): "inf"}, {}])
    assert cost(ex1, promise) == INF


def test_verify_subset_and_exact(ex1, ex1_promise, ex1_region):
    report = verify(ex1, ex1_promise, ex1_region, ExtValue("11/10"), "subset")
    assert report.holds
    assert report.cost == ExtValue("11/10")
    assert report.violation is None
    assert report.undominated_region == RectRegion.make([[0], [0]])

    exact = verify(ex1, ex1_promise, ex1_region, ExtValue("11/10"), "exact")
    assert not exact.holds
    assert exact.violation == (0, 2)  # s3 is desired but dominated


def test_verify_all_zero_promise_on_counterexample(ce1, ce1_region):
    report = verify(ce1, None, ce1_region, ZERO, "exact")
    assert not report.holds
    assert report.violation == (0, 1)  # player 1's s2 is desired but dominated
    # the subset reading is fine: the undominated region sits inside O
    assert verify(ce1, None, ce1_region, ZERO, "subset").holds


def test_budget_decoupling(ex1, ex1_promise, ex1_region):
    # with an infinite budget only the region condition matters
    assert verify(ex1, ex1_promise, ex1_region, INF, "subset").holds
    tight = verify(ex1, ex1_promise, ex1_region, ExtValue(1), "subset")
    assert not tight.holds
    assert tight.violation is None  # region fine, budget exceeded


def test_verify_reads_the_budget_as_an_extvalue(ex1, ex1_promise, ex1_region):
    # an int or a "p/q" string is a budget too, and the report carries the
    # ExtValue the CLI renders
    report = verify(ex1, None, ex1_region, 0)
    assert report.budget == ZERO and report.budget.to_json() == 0
    for budget, holds in [("1/2", False), ("11/10", True), (2, True)]:
        report = verify(ex1, ex1_promise, ex1_region, budget)
        assert report.holds is holds
        assert report.budget == ExtValue(budget)


def test_cost_refuses_an_undominated_region_above_the_cap():
    # no utilities: every one of 41 strategies per player survives, so the
    # undominated region has 41^3 profiles; each player's dominance is in range
    game = Game.make(["a", "b", "c"], [[f"s{k}" for k in range(41)]] * 3, [{}] * 3)
    message = "cost needs the 68921 profiles of the undominated region, above the 65536 cap"
    with pytest.raises(ValueError) as refused:
        cost(game, None)
    assert str(refused.value) == message
    with pytest.raises(ValueError) as refused:
        verify(game, None, RectRegion.full(game), INF)
    assert str(refused.value) == message


def test_verify_rejects_shape_mismatch(ex1):
    with pytest.raises(ValueError):
        verify(ex1, None, RectRegion.make([[0]]), ZERO, "subset")
    with pytest.raises(ValueError):
        verify(ex1, None, RectRegion.make([[0], [0]]), ZERO, "sideways")


def test_graphical_cost_matches_expanded_cost():
    import itertools
    import random

    from gimpl import GraphicalGame, expand_graphical, expand_graphical_promise

    rng = random.Random(808)
    for _ in range(20):
        n = rng.randint(2, 4)
        sizes = [rng.randint(2, 3) for _ in range(n)]
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        shell = GraphicalGame.make(
            [f"p{k}" for k in range(n)],
            [[f"s{k}" for k in range(s)] for s in sizes],
            edges,
            [{} for _ in range(n)],
        )
        utables, ptables = [], []
        for i in range(n):
            local_sizes = [sizes[i]] + [sizes[j] for j in shell.neighborhoods[i]]
            utable, ptable = {}, {}
            for key in itertools.product(*(range(s) for s in local_sizes)):
                v = rng.randint(0, 3)
                if v:
                    utable[key] = v
                if rng.random() < 0.2:
                    ptable[key] = rng.randint(1, 2)
            utables.append(utable)
            ptables.append(ptable)
        gg = GraphicalGame.make(shell.players, shell.strategies, edges, utables)
        promise = PaymentPromise.make(gg, ptables)
        flat = expand_graphical(gg)
        assert cost(gg, promise) == cost(flat, expand_graphical_promise(gg, promise))


def test_verify_graphical_view_directly():
    from gimpl import GraphicalGame

    gg = GraphicalGame.make(
        ["a", "b"],
        [["T", "F"], ["T", "F"]],
        [(0, 1)],
        [{(0, 0): 2, (0, 1): 1}, {}],
    )
    # player a: T strictly dominates F; player b: all zero, both stay
    region = RectRegion.make([[0], [0, 1]])
    report = verify(gg, None, region, ZERO, "exact")
    assert report.holds
    promise = PaymentPromise.make(gg, [{(0, 0): "1/3"}, {}])
    assert cost(gg, promise) == ExtValue("1/3")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_cost_is_the_largest_payment_total_over_the_undominated_region(seed, graphical):
    # fractional and infinite payments, on normal and graphical views
    rng = random.Random(seed)
    if graphical:
        game = random_graphical(rng, mixed_utility)
    else:
        game = random_game(rng, value=mixed_utility)
    promise = random_promise(rng, game)
    # the region comes from the oracle's definitional dominance, on the
    # expansion of a graphical game
    if graphical:
        flat, flat_promise = expand_graphical(game), expand_graphical_promise(game, promise)
    else:
        flat, flat_promise = game, promise
    star = oracle_verify(flat, flat_promise, RectRegion.full(flat), INF).undominated_region
    expected = max(
        sum((promise.value(i, game.key_at(i, o)) for i in range(game.n_players)), ZERO)
        for o in star.profiles()
    )
    assert cost(game, promise) == expected
    region = random_region(rng, game)
    assert verify(game, promise, region, INF, rng.choice(["subset", "exact"])).cost == expected
