"""Shared samplers, fixture graphs and a time limit for the test suite."""

from __future__ import annotations

import contextlib
import itertools
import random
import signal
from typing import Callable, Iterator

from gimpl import Game, GraphicalGame, PaymentPromise, RectRegion
from gimpl.reductions import ColoringInstance

# non-integral values over several denominators, as gipf-1 "p/q" strings
FRACTIONS = ("1/2", "2/3", "3/5", "5/7", "7/4", "4/3", "11/6")


def mixed_utility(rng: random.Random) -> int | str:
    """A utility that is 0 (an absent entry), a negative or positive int, or
    a non-integral fraction of either sign."""
    roll = rng.random()
    if roll < 0.25:
        return 0
    if roll < 0.6:
        return rng.randint(-3, 3)
    return ("-" if rng.random() < 0.4 else "") + rng.choice(FRACTIONS)


def mixed_payment(rng: random.Random) -> int | str:
    """A promised payment that is 0 (an absent entry), a positive int, a
    non-integral fraction or infinity."""
    roll = rng.random()
    if roll < 0.4:
        return 0
    if roll < 0.45:
        return "inf"
    if roll < 0.75:
        return rng.randint(1, 3)
    return rng.choice(FRACTIONS)


def _table(rng: random.Random, sizes, value: Callable[[random.Random], int | str]) -> dict:
    """One sampled value per key over ``sizes``, zero values left out."""
    table = {}
    for key in itertools.product(*(range(s) for s in sizes)):
        drawn = value(rng)
        if drawn:
            table[key] = drawn
    return table


def random_game(
    rng: random.Random,
    n_players: int | None = None,
    min_strats: int = 2,
    max_strats: int = 4,
    lo: int = 0,
    hi: int = 4,
    value: Callable[[random.Random], int | str] | None = None,
) -> Game:
    """A random normal-form game; utilities are ints in [lo, hi] unless
    ``value`` samples them."""
    n = n_players if n_players is not None else rng.choice([2, 3])
    sizes = [rng.randint(min_strats, max_strats) for _ in range(n)]
    value = value or (lambda r: r.randint(lo, hi))
    return Game.make(
        [f"p{i + 1}" for i in range(n)],
        [[f"s{k}" for k in range(s)] for s in sizes],
        [_table(rng, sizes, value) for _ in range(n)],
    )


def random_graphical(
    rng: random.Random, value: Callable[[random.Random], int | str] | None = None
) -> GraphicalGame:
    """A random graphical game of 2 to 6 players with 2 or 3 strategies each;
    local utilities are ints in [0, 4] unless ``value`` samples them."""
    n = rng.randint(2, 6)
    sizes = [rng.randint(2, 3) for _ in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
    shell = GraphicalGame.make(
        [f"p{i}" for i in range(n)],
        [[f"s{k}" for k in range(s)] for s in sizes],
        edges,
        [{} for _ in range(n)],
    )
    value = value or (lambda r: r.randint(0, 4))
    tables = [_table(rng, shell.key_sizes(i), value) for i in range(n)]
    return GraphicalGame.make(shell.players, shell.strategies, edges, tables)


def random_promise(
    rng: random.Random, game, value: Callable[[random.Random], int | str] = mixed_payment
) -> PaymentPromise:
    """A promise on every key of ``game``'s layout, each payment sampled by
    ``value``."""
    return PaymentPromise.make(
        game, [_table(rng, game.key_sizes(i), value) for i in range(game.n_players)]
    )


def random_region(rng: random.Random, game: Game) -> RectRegion:
    """Random region that is either the full product or leaves at least two
    players with undesired strategies, so every needed dominance can be made
    strict by off-region promises."""
    while True:
        sets = []
        for size in game.sizes:
            k = rng.randint(1, size)
            sets.append(sorted(rng.sample(range(size), k)))
        shy = sum(1 for members, size in zip(sets, game.sizes) if len(members) < size)
        if shy != 1:
            return RectRegion.make(sets)


def random_equitable_instance(
    rng: random.Random, seed_game: Game | None = None
) -> tuple[Game, RectRegion]:
    """Small instance passing the region-size condition, desired sets of one
    or two strategies per player."""
    from gimpl import is_equitable

    while True:
        game = seed_game or random_game(rng, n_players=2, min_strats=3, max_strats=5)
        sets = []
        for size in game.sizes:
            k = rng.randint(1, 2)
            sets.append(sorted(rng.sample(range(size), k)))
        region = RectRegion.make(sets)
        if is_equitable(game, region)[0]:
            return game, region
        seed_game = None


def path_graph(n: int) -> ColoringInstance:
    return ColoringInstance.make(
        [f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)]
    )


def cycle_graph(n: int) -> ColoringInstance:
    return ColoringInstance.make(
        [f"v{i}" for i in range(n)], [(i, (i + 1) % n) for i in range(n)]
    )


def complete_graph(n: int) -> ColoringInstance:
    return ColoringInstance.make(
        [f"v{i}" for i in range(n)],
        [(i, j) for i in range(n) for j in range(i + 1, n)],
    )


def petersen_graph() -> ColoringInstance:
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    return ColoringInstance.make([f"v{i}" for i in range(10)], edges)


class TimeLimitExceeded(Exception):
    """A block ran past its time limit."""


@contextlib.contextmanager
def time_limit(seconds: float, what: str) -> Iterator[None]:
    """Raise ``TimeLimitExceeded`` naming ``what`` in the block once it has
    run ``seconds`` of wall time; main thread only (a SIGALRM timer)."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{what} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
