"""Tables built in bulk equal the tables their definitions give.

Graphical expansion fans each local entry out over the players outside the
neighborhood, the solver builds its promises without ``make``, dominance
compares integer payoff columns, and ``make`` checks all of a game's tables
at once before it falls back to checking them key by key. Each test here
sets one of these against a per-profile, per-key or ``view.payoff`` version
written out in full.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gimpl import (
    INF,
    ExtValue,
    Game,
    GraphicalGame,
    ModifiedGameView,
    PaymentPromise,
    RectRegion,
    dominates,
    expand_graphical,
    expand_graphical_promise,
    is_pne,
    min_budget_solve,
    pne_promise,
    undominated,
)
from gimpl.model import MAX_PAYOFFS, _canonical_tables, _check_profile
from gimpl.oracle import _dominates_by_definition
from gimpl.reductions import gen_x3c, x3c_to_graphical

from _support import random_game, random_region

UTILITIES = [-2, -1, 0, Fraction(1, 2), 1, Fraction(5, 3)]
NEGATIVE = [-2, -1]  # every set payoff below the unset 0
PAYMENTS = [0, Fraction(1, 3), 1, 2, "inf"]


def _random_tables(rng, shape, values, empty=0.25, density=0.6):
    """One sparse table per player over its keys; some left empty."""
    tables = []
    for i in range(shape.n_players):
        keys = itertools.product(*(range(k) for k in shape.key_sizes(i)))
        tables.append(
            {}
            if rng.random() < empty
            else {key: rng.choice(values) for key in keys if rng.random() < density}
        )
    return tables


def _random_graphical(rng, values=UTILITIES):
    n = rng.randint(1, 5)
    names = [f"p{i}" for i in range(n)]
    strategies = [[f"s{k}" for k in range(rng.randint(1, 3))] for _ in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    shape = GraphicalGame.make(names, strategies, edges, [None] * n)
    return GraphicalGame.make(names, strategies, edges, _random_tables(rng, shape, values))


def _random_normal(rng, values):
    n = rng.randint(1, 3)
    names = [f"p{i}" for i in range(n)]
    strategies = [[f"s{k}" for k in range(rng.randint(1, 3))] for _ in range(n)]
    shape = Game.make(names, strategies, [None] * n)
    return Game.make(names, strategies, _random_tables(rng, shape, values))


def _per_profile(gg, local_tables):
    """Each full profile looks its local key up, one profile at a time."""
    tables = [{} for _ in local_tables]
    for profile in RectRegion.full(gg).profiles():
        for i, local in enumerate(local_tables):
            key = gg.key_at(i, profile)
            if key in local:
                tables[i][profile] = local[key]
    return tables


def test_expansion_equals_the_per_profile_expansion():
    rng = random.Random(1201)
    isolated = empty = 0
    for _ in range(150):
        gg = _random_graphical(rng)
        promise = PaymentPromise.make(gg, _random_tables(rng, gg, PAYMENTS))
        isolated += any(not js for js in gg.neighborhoods)
        empty += any(not table for table in gg.local_utilities)

        game = expand_graphical(gg)
        assert game == Game.make(gg.players, gg.strategies, _per_profile(gg, gg.local_utilities))
        flat = expand_graphical_promise(gg, promise)
        normal = Game.make(gg.players, gg.strategies, [None] * gg.n_players)
        assert flat == PaymentPromise.make(normal, _per_profile(gg, promise.entries))
        for table in (*game.utilities, *flat.entries):
            assert all(type(v) is ExtValue for v in table.values())
    assert isolated > 20 and empty > 20


def _assert_canonical(game, promise):
    assert promise == PaymentPromise.make(game, promise.entries)
    for table in promise.entries:
        assert all(type(v) is ExtValue for v in table.values())


def test_solver_promises_equal_their_make():
    rng = random.Random(1202)
    stable = 0
    for _ in range(300):
        game = random_game(rng, lo=-2, hi=3)
        region = random_region(rng, game)
        _assert_canonical(game, min_budget_solve(game, region).promise)
        if is_pne(game, region).holds:
            stable += 1
            _assert_canonical(game, pne_promise(game, region)[1])
    assert stable > 10
    for n_hat in (1, 2):
        gg, region, _ = x3c_to_graphical(gen_x3c(n_hat, 0, "yes"))
        game = expand_graphical(gg)
        _assert_canonical(game, min_budget_solve(game, region).promise)


def test_dominance_equals_the_payoff_definition():
    rng = random.Random(1203)
    found = 0
    for trial in range(200):
        values = NEGATIVE if trial % 3 == 0 else UTILITIES
        game = (_random_graphical if trial % 2 else _random_normal)(rng, values)
        promise = None
        if rng.random() < 0.8:
            promise = PaymentPromise.make(game, _random_tables(rng, game, PAYMENTS, density=0.3))
        view = ModifiedGameView(game, promise)
        for i in range(game.n_players):
            pairs = itertools.permutations(range(game.sizes[i]), 2)
            expected = {(x, y): _dominates_by_definition(view, i, x, y) for x, y in pairs}
            assert {pair: dominates(view, i, *pair) for pair in expected} == expected
            beaten = {y for (_, y), holds in expected.items() if holds}
            assert undominated(view, i) == tuple(
                y for y in range(game.sizes[i]) if y not in beaten
            )
            found += len(beaten)
    assert found > 100


def _primes(count, limit=40_000):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for n in range(2, int(limit**0.5) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytes(len(range(n * n, limit, n)))
    return [n for n in range(limit) if sieve[n]][:count]


def _two_player(rows, cols, utilities=None):
    strategies = [[f"r{k}" for k in range(rows)], [f"c{k}" for k in range(cols)]]
    return Game.make(["a", "b"], strategies, [utilities, None])


def test_columns_stay_small_on_distinct_denominators():
    # 4,096 utilities 1/p over distinct primes p: scaled to a common
    # denominator each payoff would take about 8 kB, ranked it takes a word
    size = 64
    primes = _primes(size * size)
    game = _two_player(
        size, size, {(x, o): Fraction(1, primes[x * size + o]) for x in range(size) for o in range(size)}
    )
    view = ModifiedGameView(game)
    tracemalloc.start()
    try:
        columns = view.columns(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22
    assert sorted(itertools.chain.from_iterable(columns)) == list(range(1, size * size + 1))
    assert undominated(view, 0) == (0,)  # the smallest primes pay the most


def test_dominance_caps_count_opponents_and_payoffs():
    # 300 x 300 payoffs exceed 2^16 but a single opponent's 300 profiles do not
    game = _two_player(300, 300, {(x, 0): x for x in range(300)})
    assert undominated(ModifiedGameView(game), 0) == (299,)
    region = RectRegion.make([[0], [0]])
    assert min_budget_solve(game, region).delta == ExtValue(299)
    rows = MAX_PAYOFFS // 2048 + 1
    with pytest.raises(ValueError, match=f"needs {rows * 2048} payoffs, above the"):
        dominates(ModifiedGameView(_two_player(rows, 2048)), 0, 0, 1)


# (2, 3)-sized keys mixing every kind of fault with clean entries
SIZES = (2, 3)
INDEX = st.integers(0, 1) | st.sampled_from([-1, 2, 3, True, False, 0.0, 1.0])
CLEAN_KEY = st.tuples(st.integers(0, 1), st.integers(0, 2))
# in range and of the right length, but holding True, False, 0.0 or 1.0:
# such a key equals and hashes like an int key and passes every range test,
# so only the type pass refuses it
TRAP_KEY = st.tuples(
    st.sampled_from([0, 1, True, False, 0.0, 1.0]), st.sampled_from([0, 2, True, 1.0, 2.0])
)
KEY = CLEAN_KEY | TRAP_KEY | st.lists(INDEX, min_size=1, max_size=3).map(tuple)
CLEAN_VALUE = st.sampled_from([ExtValue(2), ExtValue("1/2"), INF, ExtValue(-1), 3])
VALUE = CLEAN_VALUE | st.sampled_from(
    [ExtValue(0), 0, -2, "inf", "5/3", Fraction(1, 3), Fraction(0), True, 1.5, None, "x"]
)
TABLES = st.dictionaries(CLEAN_KEY, CLEAN_VALUE, max_size=6) | st.dictionaries(
    KEY, VALUE, max_size=6
)


def _per_key(raw, sizes, what, allow_infinite, allow_negative):
    """The canonical table, checked key by key and value by value."""
    table = {}
    for key, value in raw.items():
        prof = _check_profile(key, sizes, what)
        ext = value if type(value) is ExtValue else ExtValue(value)
        if not ext.is_finite:
            if not allow_infinite:
                raise ValueError(f"infinite utility at {what} {prof}")
            table[prof] = ext
            continue
        sign = ext.fraction.numerator
        if sign < 0 and not allow_negative:
            raise ValueError(f"negative promise at {what} {prof}")
        if sign:
            table[prof] = ext
    return table


def _outcome(build):
    try:
        tables = build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return [[(key, type(key), value, type(value)) for key, value in t.items()] for t in tables]


# one to three players, each with (2, 3)- or (3, 3)-sized keys, so some
# players share their key sizes and are checked together; the sampled
# values are shared objects, so a value recurs across tables
@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(TABLES, st.sampled_from([SIZES, (3, 3)])), min_size=1, max_size=3),
    st.booleans(),
    st.booleans(),
)
# (2, 0) fits the first player's (3, 3) columns but not the second's (2, 3)
@example([({(2, 0): 3}, (3, 3)), ({(2, 0): 3}, SIZES)], False, True)
def test_table_checks_equal_the_per_key_checks(players, allow_infinite, allow_negative):
    raws = [raw for raw, _ in players]
    key_sizes = [sizes for _, sizes in players]
    flags = {"allow_infinite": allow_infinite, "allow_negative": allow_negative}
    assert _outcome(lambda: _canonical_tables(raws, key_sizes, "key of {}", **flags)) == _outcome(
        lambda: [
            _per_key(raw, sizes, f"key of {i}", allow_infinite, allow_negative)
            for i, (raw, sizes) in enumerate(players)
        ]
    )
