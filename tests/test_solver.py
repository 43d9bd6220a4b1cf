"""Minimum-budget search, exactification, and the zero-cost characterization."""

import math
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from gimpl import (
    INF,
    ZERO,
    DominatorMapping,
    ExtValue,
    Game,
    GraphicalGame,
    InstanceDoc,
    ModifiedGameView,
    PaymentPromise,
    RectRegion,
    compute_v,
    dominates,
    exactify,
    is_equitable,
    is_pne,
    min_budget_solve,
    pne_promise,
    serialize_instance,
    solve_exact,
    verify,
)
from gimpl.solver import PneReport, _off_region_rows

from _support import (
    mixed_utility,
    random_equitable_instance,
    random_game,
    random_graphical,
    random_promise,
    random_region,
    time_limit,
)


def _read_nothing(monkeypatch):
    """Make every payoff read and every rank-column build fail the test, so a
    refusal that comes after either is caught."""

    def unread(self, player, strategy, opp):
        raise AssertionError("a payoff was read")

    def unbuilt(self, player, region=None):
        raise AssertionError("rank columns were built")

    monkeypatch.setattr(ModifiedGameView, "payoff", unread)
    monkeypatch.setattr(ModifiedGameView, "columns", unbuilt)


def test_compute_v_worked_example(ex1, ex1_region):
    table = compute_v(ex1, 0, {1: 0}, ex1_region)  # F1(s2) = s1
    assert table[(0, 0)] == ExtValue(1)  # max(0, 2 - 1)
    assert table[(2, 0)] == ZERO
    table2 = compute_v(ex1, 0, {1: 2}, ex1_region)  # F1(s2) = s3
    assert table2[(2, 0)] == ExtValue(2)  # max(0, 2 - 0)
    assert table2[(0, 0)] == ZERO


def test_compute_v_empty_assignment_is_all_zero(ex1):
    region = RectRegion.full(ex1)
    table = compute_v(ex1, 0, {}, region)
    assert set(table) == set(region.profiles())
    assert all(v == ZERO for v in table.values())


def test_compute_v_validates_assignment(ex1, ex1_region):
    with pytest.raises(ValueError):
        compute_v(ex1, 0, {0: 0}, ex1_region)  # s1 is desired
    with pytest.raises(ValueError):
        compute_v(ex1, 0, {1: 1}, ex1_region)  # target s2 is not desired
    with pytest.raises(ValueError, match="not an undesired strategy"):
        compute_v(ex1, 0, {7: 0}, ex1_region)  # p1 has no strategy 7
    # an index naming no player, True (== 1) among them, is refused
    for player in (True, -1, 2, 5, 1.0):
        with pytest.raises(ValueError, match=f"^the game has no player {player}$"):
            compute_v(ex1, player, {}, ex1_region)
    # a region above MAX_PROFILES is refused as the search refuses it
    wide = Game.make([f"p{i}" for i in range(17)], [["a", "b"]] * 17, [None] * 17)
    message = "desired region has 131072 profiles, above the 65536 cap"
    with pytest.raises(ValueError, match=message):
        compute_v(wide, 0, {}, RectRegion.full(wide))
    with pytest.raises(ValueError, match=message):
        min_budget_solve(wide, RectRegion.full(wide))


def test_compute_v_matches_the_oracles_raw_formula():
    # compute_v and the search's promise share one gap builder; the oracle
    # lifts every desired profile by the raw formula on its own
    from gimpl.oracle import _promise_for

    rng = random.Random(2323)
    shared_targets = 0
    for _ in range(150):
        value = mixed_utility if rng.random() < 0.5 else None
        game = random_game(rng, value=value)
        region = random_region(rng, game)
        desired = set(region.profiles())
        domains = tuple(region.complement(game, i) for i in range(game.n_players))
        targets = tuple(
            tuple(rng.choice(region.sets[i]) for _ in domains[i])
            for i in range(game.n_players)
        )
        shared_targets += any(len(set(t)) < len(t) for t in targets)
        oracle = _promise_for(game, region, DominatorMapping(domains, targets))
        result = min_budget_solve(game, region)
        for i in range(game.n_players):
            table = compute_v(game, i, dict(zip(domains[i], targets[i])), region)
            assert set(table) == desired
            lifted = {o: v for o, v in oracle.entries[i].items() if o in desired}
            assert all(v.is_finite for v in lifted.values())
            assert {o: v for o, v in table.items() if v != ZERO} == lifted
            own = dict(zip(result.mapping.domains[i], result.mapping.targets[i]))
            table = compute_v(game, i, own, region)
            finite = {o: v for o, v in result.promise.entries[i].items() if v.is_finite}
            assert {o: v for o, v in table.items() if v != ZERO} == finite
    assert shared_targets >= 30


def test_solver_worked_example(ex1, ex1_region):
    result = min_budget_solve(ex1, ex1_region)
    assert result.delta == ExtValue(1)
    assert result.mapping.domains == ((1,), (1,))
    assert result.mapping.targets == ((0,), (0,))  # F1(s2)=s1, F2(t2)=t1
    assert not result.exactified
    report = verify(ex1, result.promise, ex1_region, result.delta, "subset")
    assert report.holds
    # desired rows pay infinity against undesired opponent play
    assert result.promise.value(0, (0, 1)) == INF  # (s1, t2)
    assert result.promise.value(0, (2, 1)) == INF  # (s3, t2)
    assert result.promise.value(1, (1, 0)) == INF  # p2's t1 against s2


def test_solver_counterexample_game(ce1, ce1_region):
    result = min_budget_solve(ce1, ce1_region)
    assert result.delta == ZERO
    assert result.mapping.targets == ((), (0,))  # F2(s2) = s1, free
    assert verify(ce1, result.promise, ce1_region, ZERO, "subset").holds


def test_solver_full_region_returns_zero(ex1):
    result = min_budget_solve(ex1, RectRegion.full(ex1))
    assert result.delta == ZERO
    assert not any(result.promise.entries)


def test_solver_solves_a_raw_space_of_10_to_the_15():
    from gimpl.reductions import gen_x3c, x3c_to_two_player

    inst = gen_x3c(2, 7, "yes")
    game, region, _ = x3c_to_two_player(inst)  # 18^6 x 18^6 assignments
    assert [len(region.complement(game, i)) for i in range(2)] == [6, 6]
    result = min_budget_solve(game, region)
    assert result.delta == ExtValue(2)
    assert verify(game, result.promise, region, result.delta).holds


def _dense_game(s: int, seed: int) -> tuple[Game, RectRegion]:
    """Two players with ``s`` strategies each, utilities 1..10^6 on every
    profile and ``s / 2`` desired strategies per player."""
    rng = random.Random(1000 * s + seed)
    profiles = [(a, b) for a in range(s) for b in range(s)]
    tables = [{o: rng.randint(1, 10**6) for o in profiles} for _ in range(2)]
    region = RectRegion.make([rng.sample(range(s), s // 2) for _ in range(2)])
    return Game.make(["p1", "p2"], [[f"s{k}" for k in range(s)]] * 2, tables), region


# the deltas of the s = 16 dense games, seeds 0-2, as the search found them
# before it had a work budget
_DENSE_16_DELTAS = (614044, 603443, 510303)


def test_stopped_search_brackets_the_least_price(monkeypatch):
    from gimpl import solver

    bracket = re.compile(
        r"assignment search passed its work budget of (\d+) entry reads after (\d+) nodes; "
        r"the least price lies in \[(\d+), (\d+)\]"
    )
    for seed, delta in enumerate(_DENSE_16_DELTAS):
        game, region = _dense_game(16, seed)
        full = min_budget_solve(game, region)  # at the default budget
        assert full.delta == ExtValue(delta)
        assert verify(game, full.promise, region, full.delta).holds
        for budget in (1, 2**10, 2**14, 2**17, 2**19):
            monkeypatch.setattr(solver, "MAX_SEARCH_WORK", budget)
            with pytest.raises(ValueError) as stopped:
                min_budget_solve(game, region)
            work, nodes, lower, upper = map(int, bracket.fullmatch(str(stopped.value)).groups())
            assert work == budget and nodes >= 1
            assert lower <= delta <= upper
            if (seed, budget) == (0, 2**14):  # the counter's unit and both ends
                assert (nodes, lower, upper) == (53, 603558, 1060226)
        monkeypatch.undo()


def test_solver_requires_normal_form():
    from gimpl import GraphicalGame

    gg = GraphicalGame.make(["a"], [["T", "F"]], [], [{}])
    with pytest.raises(ValueError, match="normal-form"):
        min_budget_solve(gg, RectRegion.full(gg))


def test_solver_infinite_rows_touch_no_undominated_profile(ex1, ex1_region):
    result = min_budget_solve(ex1, ex1_region)
    from gimpl import cost, undominated_region

    view = ModifiedGameView(ex1, result.promise)
    star = undominated_region(view)
    for profile in star.profiles():
        for i in range(ex1.n_players):
            assert result.promise.value(i, profile).is_finite
    assert cost(ex1, result.promise) <= result.delta


def test_solver_dominance_guarantee_on_random_instances():
    from gimpl import cost, undominated_region

    rng = random.Random(1010)
    for _ in range(60):
        game = random_game(rng)
        region = random_region(rng, game)
        result = min_budget_solve(game, region)
        view = ModifiedGameView(game, result.promise)
        for i in range(game.n_players):
            for x, t in zip(result.mapping.domains[i], result.mapping.targets[i]):
                assert dominates(view, i, t, x)
        assert verify(game, result.promise, region, result.delta, "subset").holds
        # the infinite rows never touch a surviving profile, so the real
        # cost stays finite and within the returned budget
        star = undominated_region(view)
        for profile in star.profiles():
            assert all(
                result.promise.value(i, profile).is_finite
                for i in range(game.n_players)
            )
        assert cost(game, result.promise) <= result.delta


def test_per_mapping_upper_bound_claim():
    # for any chosen assignment, the returned minimum never exceeds the
    # worst-case sum of that assignment's utility gaps
    rng = random.Random(7777)
    for _ in range(40):
        game = random_game(rng, n_players=2)
        region = random_region(rng, game)
        result = min_budget_solve(game, region)
        domains = [region.complement(game, i) for i in range(2)]
        for _ in range(3):
            targets = tuple(
                tuple(rng.choice(region.sets[i]) for _ in domains[i]) for i in range(2)
            )
            bound = ZERO
            for profile in region.profiles():
                total = ZERO
                for i in range(2):
                    table = compute_v(
                        game, i, dict(zip(domains[i], targets[i])), region
                    )
                    total = total + table[profile]
                if bound < total:
                    bound = total
            assert result.delta <= bound


def test_determinism(ex1, ex1_region):
    a = min_budget_solve(ex1, ex1_region)
    b = min_budget_solve(ex1, ex1_region)
    assert a == b


def test_solver_returns_the_oracles_first_optimum():
    # the oracle enumerates assignments in the solver's order, so its first
    # optimal mapping is the one the solver's tie-break must pick
    from gimpl.oracle import oracle_min_budget

    rng = random.Random(3030)
    ties = 0
    for _ in range(300):
        game = random_game(rng)
        region = random_region(rng, game)
        result = min_budget_solve(game, region)
        oracle = oracle_min_budget(game, region)
        assert result.delta == oracle.delta
        assert result.mapping == oracle.all_optimal_mappings[0]
        ties += len(oracle.all_optimal_mappings) > 1
    assert ties >= 50


def test_solver_is_exact_on_rational_utilities():
    from gimpl.oracle import oracle_min_budget

    thirds, sixths, sevenths = Fraction(1, 3), Fraction(5, 6), Fraction(2, 7)
    game = Game.make(
        ["p1", "p2"],
        [["a", "b", "c", "d"], ["e", "f", "g"]],
        [
            {(0, 0): thirds, (1, 0): sixths, (2, 0): sevenths, (3, 0): 1,
             (0, 1): sevenths, (1, 1): thirds, (2, 1): 1, (3, 1): sixths},
            {(0, 0): sixths, (0, 1): thirds, (0, 2): 1,
             (1, 0): sevenths, (1, 1): sixths, (1, 2): thirds},
        ],
    )
    region = RectRegion.make([[0, 1], [0, 1]])
    result = min_budget_solve(game, region)
    oracle = oracle_min_budget(game, region)
    assert result.delta == oracle.delta
    assert result.delta.fraction.denominator > 1
    assert result.mapping == oracle.all_optimal_mappings[0]
    assert verify(game, result.promise, region, result.delta, "subset").holds


def test_solver_x3c_two_player_n1_is_fast():
    import time

    from gimpl.reductions import gen_x3c, x3c_to_two_player

    game, region, _ = x3c_to_two_player(gen_x3c(1, 7, "yes"))  # 729^2 assignments
    started = time.perf_counter()
    result = min_budget_solve(game, region)
    assert time.perf_counter() - started < 5.0
    assert result.delta == ExtValue(2)


class _Unreadable(dict):
    """A utility table that fails every read."""

    def _refuse(self, *args):
        raise AssertionError("a utility was read")

    get = __getitem__ = __contains__ = __iter__ = __len__ = items = values = _refuse


def test_solver_refuses_payment_vectors_above_the_cap_before_reading_a_utility():
    from gimpl.reductions import gen_x3c, x3c_to_two_player

    # n_hat = 5: 2,733,750 vector entries, under the 2^22 cap
    game, region, _ = x3c_to_two_player(gen_x3c(5, 7, "yes"))
    assert min_budget_solve(game, region).delta == ExtValue(2)
    # n_hat = 6: 2 players x 18 undesired x 54 desired strategies x 2,916 profiles
    game, region, _ = x3c_to_two_player(gen_x3c(6, 7, "yes"))
    unreadable = Game(game.players, game.strategies, (_Unreadable(), _Unreadable()))
    with pytest.raises(ValueError) as refused:
        min_budget_solve(unreadable, region)
    assert str(refused.value) == "payment vectors need 5668704 entries, above the 4194304 cap"
    # one player, one undesired strategy and d desired ones: d^2 entries
    at_cap, above = (Game.make(["p"], [[f"s{k}" for k in range(d + 1)]], [{}]) for d in (2048, 2049))
    result = min_budget_solve(at_cap, RectRegion.make([range(2048)]))
    assert result.delta == ZERO and result.mapping.targets == ((0,),)
    unreadable = Game(above.players, above.strategies, (_Unreadable(),))
    region = RectRegion.make([range(2049)])
    message = "payment vectors need 4198401 entries, above the 4194304 cap"
    for step in (min_budget_solve, lambda g, r: compute_v(g, 0, {2049: 0}, r)):
        with pytest.raises(ValueError) as refused:
            step(unreadable, region)
        assert str(refused.value) == message


def _wide_game(n_strategies: int, utilities: dict) -> Game:
    return Game.make(
        ["p1", "p2"],
        [[f"s{k}" for k in range(n_strategies)], ["a", "b"]],
        [utilities, {}],
    )


def test_solver_many_single_target_strategies():
    # 1,501 undesired strategies, each with one possible target
    game = _wide_game(1502, {(1501, 0): 3})
    result = min_budget_solve(game, RectRegion.make([[0], [0]]))
    assert result.delta == ExtValue(3)
    assert result.mapping.targets[0] == (0,) * 1501


def test_solver_search_depth_is_not_bounded_by_the_call_stack():
    # 1,500 two-target digits; only the last one prefers its second target,
    # so the search descends through every digit before it improves
    game = _wide_game(1502, {(1501, 0): 3, (1, 0): 3})
    region = RectRegion.make([[0, 1], [0]])
    result = min_budget_solve(game, region)
    assert result.delta == ZERO
    assert result.mapping.targets[0] == (0,) * 1499 + (1,)


def test_off_region_payments_refuse_a_wide_opponent_space_first(tmp_path):
    # 18 players with two strategies each, no utilities and a one-profile
    # region: nothing to search and the region is stable, but player 0's
    # off-region payments would range over 2^17 - 1 opponent profiles
    n = 18
    game = Game.make([f"p{i}" for i in range(n)], [["a", "b"]] * n, [{}] * n)
    region = RectRegion.make([[0]] * n)
    message = "player 0 has 131072 opponent profiles, above the 65536 cap on off-region payments"
    for step in (min_budget_solve, pne_promise):
        with time_limit(5, step.__name__), pytest.raises(ValueError) as refusal:
            step(game, region)
        assert str(refusal.value) == message
    path = tmp_path / "wide.json"
    path.write_text(serialize_instance(InstanceDoc(game=game, region=region)), encoding="utf-8")
    for command in ("solve", "pne"):
        proc = subprocess.run(
            [sys.executable, "-m", "gimpl.cli", command, str(path)],
            capture_output=True,
            timeout=5,
        )
        assert proc.returncode == 1
        assert proc.stderr.decode() == f"gimpl: {message}\n"


def _no_utilities(*sizes: int) -> Game:
    return Game.make(
        [f"p{i}" for i in range(len(sizes))],
        [[f"s{k}" for k in range(size)] for size in sizes],
        [{}] * len(sizes),
    )


def test_solver_refuses_payment_vectors_before_listing_an_off_region_key():
    # region all x {0}: 8,191 undesired strategies of player 1 by 1,024
    # desired profiles, and 1,024 x 8,191 off-region keys of player 0
    game = _no_utilities(1024, 8192)
    region = RectRegion.make([range(1024), [0]])
    with time_limit(1, "min_budget_solve"), pytest.raises(ValueError) as refusal:
        min_budget_solve(game, region)
    assert str(refusal.value) == "payment vectors need 8387584 entries, above the 4194304 cap"


def test_off_region_payments_refuse_their_total_before_listing_a_key():
    # region all x {0} x {0}: each player's 36,864 opponent profiles pass the
    # per-player cap, but 192 x 36,863 + 2 x 36,672 off-region keys do not;
    # the region is stable, so pne_promise reaches its promise
    game = _no_utilities(192, 192, 192)
    region = RectRegion.make([range(192), [0], [0]])
    message = "off-region payments need 7151040 entries, above the 4194304 cap"
    for step in (min_budget_solve, pne_promise):
        with time_limit(2, step.__name__), pytest.raises(ValueError) as refusal:
            step(game, region)
        assert str(refusal.value) == message


def test_exactify_refuses_the_off_region_total_after_verify():
    # three players of 161 strategies: 161^3 payoffs per player, under the
    # dominance cap, so verify answers; region all x 20 x 20 then needs
    # 161 x 25,521 + 2 x 20 x 22,701 off-region keys
    size, desired = 161, 20
    names = [f"s{k}" for k in range(size)]
    # player 0's strategies are pairwise incomparable at the first two profiles
    u0 = {(x, 0, 0): x for x in range(size)} | {(x, 0, 1): -x for x in range(size)}
    game = Game.make(["a", "b", "c"], [names] * 3, [u0, {}, {}])
    region = RectRegion.make([range(size), range(desired), range(desired)])
    # each desired strategy of players 1 and 2 earns 1 at one profile of its own
    bonus = {(0, d, d): 1 for d in range(desired)}
    promise = PaymentPromise.make(game, [{}, bonus, bonus])
    with time_limit(10, "exactify"), pytest.raises(ValueError) as refusal:
        exactify(game, region, promise)
    assert str(refusal.value) == "off-region payments need 5016921 entries, above the 4194304 cap"


def test_is_equitable_examples(ex1, ex1_region, ce1, ce1_region):
    ok, margins = is_equitable(ex1, ex1_region)
    assert not ok
    assert margins[0] < 0  # |O_1| = 2 > |{t2}| = 1
    ok, margins = is_equitable(ce1, ce1_region)
    assert not ok
    game = random_game(random.Random(5), n_players=2, min_strats=4, max_strats=4)
    ok, margins = is_equitable(game, RectRegion.make([[0], [0]]))
    assert ok and margins == (2, 2)
    # a graphical game counts only each player's key opponents: on the path
    # a-b-c with a one-strategy b, neither a nor c has an off-region key
    path = GraphicalGame.make(
        ["a", "b", "c"], [["x", "y"], ["u"], ["p", "q", "r"]], [[0, 1], [1, 2]], [None] * 3
    )
    region = RectRegion.make([[0], [0], [0]])
    assert is_equitable(path, region) == (False, (-1, 4, -1))
    assert [len(_off_region_rows(path, region, i)[0]) for i in range(3)] == [0, 5, 0]


def test_exactify_rejects_non_equitable(ex1, ex1_region):
    result = min_budget_solve(ex1, ex1_region)
    with pytest.raises(ValueError, match="not equitable"):
        exactify(ex1, ex1_region, result.promise)
    with pytest.raises(ValueError, match="not equitable"):
        solve_exact(ex1, ex1_region)


def test_exactify_rejects_full_region(ex1):
    full = RectRegion.full(ex1)
    with pytest.raises(ValueError, match="not equitable"):
        exactify(ex1, full, PaymentPromise.make(ex1, [None] * ex1.n_players))


def test_exactify_refuses_an_oversize_region_by_its_size():
    # an equitable region above MAX_PROFILES is named itself, not as the
    # undominated region the pricing would sum over
    game = Game.make(["p1", "p2", "p3"], [[f"s{k}" for k in range(50)]] * 3, [None] * 3)
    region = RectRegion.make([range(41)] * 3)
    assert is_equitable(game, region) == (True, (778, 778, 778))
    promise = PaymentPromise.make(game, [None] * 3)
    with pytest.raises(ValueError, match="desired region has 68921 profiles, above the 65536 cap"):
        exactify(game, region, promise)


def test_exactify_rejects_graphical_promise():
    game = random_game(random.Random(6), n_players=2, min_strats=4, max_strats=4)
    region = RectRegion.make([[0], [0]])
    assert is_equitable(game, region)[0]
    graphical = GraphicalGame.make(game.players, game.strategies, [(0, 1)], [{}, {}])
    with pytest.raises(ValueError, match="promise"):
        exactify(game, region, PaymentPromise.make(graphical, [None] * graphical.n_players))


def test_exactify_rejects_infinite_promise_on_region():
    game = random_game(random.Random(6), n_players=2, min_strats=4, max_strats=4)
    region = RectRegion.make([[0], [0]])
    promise = PaymentPromise.make(game, [{(0, 0): "inf"}, {}])
    with pytest.raises(ValueError, match="infinite on the desired region"):
        exactify(game, region, promise)


def test_exactify_rejects_non_implementing_promise():
    rng = random.Random(8)
    while True:
        game = random_game(rng, n_players=2, min_strats=4, max_strats=4)
        region = RectRegion.make([[0], [0]])
        if not verify(game, None, region, INF, "subset").holds:
            break
    with pytest.raises(ValueError, match="does not implement"):
        exactify(game, region, PaymentPromise.make(game, [None] * game.n_players))


def test_solve_exact_on_random_equitable_instances():
    rng = random.Random(99)
    for _ in range(25):
        game, region = random_equitable_instance(rng)
        result = solve_exact(game, region)
        assert result.exactified
        report = verify(game, result.promise, region, result.delta, "exact")
        assert report.holds
        worst = ZERO
        for profile in region.profiles():
            total = sum(
                (result.promise.value(i, profile) for i in range(game.n_players)),
                ZERO,
            )
            if worst < total:
                worst = total
        assert worst == result.delta


def test_solve_exact_counterexample_not_equitable(ce1, ce1_region):
    with pytest.raises(ValueError, match="not equitable"):
        solve_exact(ce1, ce1_region)


def test_is_pne_examples(ce1):
    assert is_pne(ce1, RectRegion.make([[0], [0]])).holds
    report = is_pne(ce1, RectRegion.make([[1], [1]]))
    assert not report.holds
    assert report.defector == (0, 0)  # s1 beats s2 against s2
    full = is_pne(ce1, RectRegion.full(ce1))
    assert full.holds and full.assignments == ()


def test_is_pne_witness_assignments(ce1):
    report = is_pne(ce1, RectRegion.make([[0], [0]]))
    assert report.assignments == ((0, 1, 0), (1, 1, 0))


def test_zero_cost_promise_examples(ce1, monkeypatch):
    region = RectRegion.make([[0], [0]])
    promise = pne_promise(ce1, region)[1]
    assert promise.entries[0] == {(0, 1): INF}
    assert promise.entries[1] == {(1, 0): INF}
    report = verify(ce1, promise, region, ZERO, "subset")
    assert report.holds
    assert report.undominated_region == region

    full = pne_promise(ce1, RectRegion.full(ce1))[1]
    assert not any(full.entries)

    # a stable region verify could not price is refused, as solve refuses it
    bare = Game.make(["a", "b"], [[f"s{k}" for k in range(300)]] * 2, [{}, {}])
    _read_nothing(monkeypatch)
    with pytest.raises(ValueError) as refused:
        pne_promise(bare, RectRegion.full(bare))
    assert str(refused.value) == "desired region has 90000 profiles, above the 65536 cap"


def test_pne_promise_pairs_the_check_with_the_free_promise(ce1, monkeypatch):
    # one stability check gives the report and, on a yes, the free promise
    for sets in ([[0], [0]], [[0, 1], [0, 1]], [[1], [1]]):
        region = RectRegion.make(sets)
        report, promise = pne_promise(ce1, region)
        assert report == is_pne(ce1, region)
        if report.holds:
            assert promise == pne_promise(ce1, region)[1]
        else:
            assert promise is None

    # the cap comes before the check, stable region or not: strategy 0 of
    # player 0 beats every desired strategy against desired strategy 1
    game = Game.make(["a", "b"], [[f"s{k}" for k in range(300)]] * 2, [{(0, 1): 1}, {}])
    with monkeypatch.context() as patched:
        _read_nothing(patched)
        for sets in ([range(300)] * 2, [range(1, 300)] * 2):
            region = RectRegion.make([list(s) for s in sets])
            with pytest.raises(ValueError) as refused:
                pne_promise(game, region)
            assert str(refused.value).endswith("profiles, above the 65536 cap")
    assert not is_pne(game, RectRegion.make([list(range(1, 300))] * 2)).holds


def test_is_pne_refuses_a_wide_opponent_space_in_the_region_first(monkeypatch):
    # 21 players with two strategies each, no utilities and region
    # {0} x {0, 1}^20: player 0's undesired strategy would be compared
    # against 2^20 opponent profiles
    n = 21
    game = Game.make([f"p{i}" for i in range(n)], [["a", "b"]] * n, [{}] * n)
    region = RectRegion.make([[0]] + [[0, 1]] * (n - 1))
    with monkeypatch.context() as patched:
        _read_nothing(patched)
        with time_limit(0.5, "is_pne"), pytest.raises(ValueError) as refusal:
            is_pne(game, region)
    assert str(refusal.value) == (
        "player 0 has 1048576 opponent profiles in the region, above the 65536 cap on the "
        "stability check"
    )
    # at the cap it is answered, and players with nothing undesired are not
    # counted: each of the 16 two-strategy players has 3 * 2^15 such profiles
    n = 17
    game = Game.make(
        [f"p{i}" for i in range(n)], [["a", "b", "c", "d"]] + [["a", "b"]] * (n - 1), [{}] * n
    )
    report = is_pne(game, RectRegion.make([[0, 1, 2]] + [[0, 1]] * (n - 1)))
    assert report.holds and report.assignments == ((0, 3, 0),)


def test_is_pne_refuses_more_payoff_reads_than_the_cap_first(monkeypatch):
    # one player with 1,024 undesired and d desired strategies against one
    # opponent strategy: up to 2 * 1,024 * d payoff reads
    def shape(desired):
        game = Game.make(["p1", "p2"], [[f"s{k}" for k in range(1024 + desired)], ["a"]], [{}, {}])
        return game, RectRegion.make([range(desired), [0]])

    report = is_pne(*shape(2048))  # 2^22 reads: at the cap, answered
    assert report.holds and len(report.assignments) == 1024
    game, region = shape(2049)
    _read_nothing(monkeypatch)
    for check in (is_pne, pne_promise):
        with pytest.raises(ValueError) as refused:
            check(game, region)
        assert str(refused.value) == (
            "the stability check needs 4196352 payoff reads, above the 4194304 cap"
        )


def test_is_pne_answers_the_widest_shape_under_the_read_cap_in_time(monkeypatch):
    # one player with 2,896 strategies against one opponent strategy: the
    # first 1,448 desired with utilities 0..1,447, every undesired one at
    # 1,447, so only the last desired strategy counters each undesired one;
    # 2 * 1,448 * 1,448 = 4,193,408 reads, just under the cap
    size, desired = 2896, 1448
    utilities = {(k, 0): min(k, desired - 1) for k in range(size)}
    game = Game.make(["p1", "p2"], [[f"s{k}" for k in range(size)], ["a"]], [utilities, {}])
    region = RectRegion.make([range(desired), [0]])

    def unread(self, player, strategy, opp):
        raise AssertionError("a payoff was read")

    monkeypatch.setattr(ModifiedGameView, "payoff", unread)
    with time_limit(2.0, "is_pne"):
        report = is_pne(game, region)
    assert report.holds
    assert report.assignments == tuple((0, x, desired - 1) for x in range(desired, size))


def _pairwise_pne(view, region):
    """The stability check read payoff pair by payoff pair: the first desired
    counter in region order that is never worse on the region."""
    assignments = []
    for i in range(view.n_players):
        for x in region.complement(view.game, i):
            counters = (
                p for p in region.sets[i]
                if all(
                    view.payoff(i, x, opp) <= view.payoff(i, p, opp)
                    for opp in view.game.opponent_profiles(i, region)
                )
            )
            counter = next(counters, None)
            if counter is None:
                return PneReport(holds=False, defector=(i, x), assignments=None)
            assignments.append((i, x, counter))
    return PneReport(holds=True, defector=None, assignments=tuple(assignments))


def test_is_pne_region_columns_agree_with_payoff_pairs_and_leave_the_cache_alone():
    from gimpl import undominated_region

    # promises with infinite and fractional payments, on both game kinds
    rng = random.Random(343434)
    outcomes = set()
    for _ in range(150):
        if rng.random() < 0.6:
            game = random_game(rng, value=mixed_utility)
        else:
            game = random_graphical(rng, value=mixed_utility)
        promise = random_promise(rng, game) if rng.random() < 0.8 else None
        region = random_region(rng, game)
        fresh = ModifiedGameView(game, promise)
        expected = _pairwise_pne(fresh, region)
        # region columns first, then the full ones: no region layout is kept
        view = ModifiedGameView(game, promise)
        assert is_pne(view, region) == expected
        assert undominated_region(view) == undominated_region(fresh)
        assert [view.columns(i) for i in range(view.n_players)] == [
            ModifiedGameView(game, promise).columns(i) for i in range(view.n_players)
        ]
        # full columns first, then the region's: no full layout is reused
        assert is_pne(fresh, region) == expected
        outcomes.add((expected.holds, bool(expected.assignments)))
    # stable with counters, stable with nothing undesired, and unstable
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_is_pne_counts_only_the_neighbors_of_a_graphical_view():
    from gimpl.reductions import gen_x3c, x3c_to_graphical

    # 262,144 region profiles, but each element player has 3 set neighbors
    gg, region, _ = x3c_to_graphical(gen_x3c(6, 0, "yes"))
    assert math.prod(map(len, region.sets)) == 2**18
    with time_limit(0.1, "is_pne on a graphical n_hat = 6 game"):
        report = is_pne(gg, region)
    assert report.holds is False


def test_is_pne_graphical_agrees_with_expansion():
    import itertools

    from gimpl import GraphicalGame, expand_graphical

    rng = random.Random(321)
    for _ in range(25):
        n = rng.randint(2, 5)
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
        tables = []
        for i in range(n):
            local_sizes = [sizes[i]] + [sizes[j] for j in shell.neighborhoods[i]]
            table = {}
            for key in itertools.product(*(range(s) for s in local_sizes)):
                v = rng.randint(0, 3)
                if v:
                    table[key] = v
            tables.append(table)
        gg = GraphicalGame.make(shell.players, shell.strategies, edges, tables)
        flat = expand_graphical(gg)
        sets = [sorted(rng.sample(range(s), rng.randint(1, s))) for s in sizes]
        region = RectRegion.make(sets)
        assert is_pne(gg, region).holds == is_pne(flat, region).holds


def test_zero_cost_promise_on_graphical_game():
    from gimpl import GraphicalGame

    # two element-style players tied to a hub; T is never worse for them
    gg = GraphicalGame.make(
        ["left", "hub", "right"],
        [["T", "F"], ["T", "F"], ["T", "F"]],
        [(0, 1), (1, 2)],
        [
            {(0, 0): 2, (0, 1): 1},  # left earns more for T
            {},                       # hub indifferent
            {(0, 0): 1},              # right earns for T against hub's T
        ],
    )
    region = RectRegion.make([[0], [0], [0]])
    assert is_pne(gg, region).holds
    promise = pne_promise(gg, region)[1]
    assert promise.kind == "graphical"
    report = verify(gg, promise, region, ZERO, "subset")
    assert report.holds and report.cost == ZERO


def test_is_pne_respects_promises_on_the_view(ce1):
    # a promise can stabilize a region that the bare game rejects
    region = RectRegion.make([[1], [1]])
    assert not is_pne(ce1, region).holds
    sweetener = PaymentPromise.make(ce1, [{(1, 1): 3}, {(1, 1): 3}])
    view = ModifiedGameView(ce1, sweetener)
    assert is_pne(view, region).holds


def test_pne_iff_zero_delta_on_random_instances():
    rng = random.Random(424242)
    for _ in range(120):
        game = random_game(rng)
        region = random_region(rng, game)
        assert is_pne(game, region).holds == (
            min_budget_solve(game, region).delta == ZERO
        )


def test_singleton_pne_region_solves_for_free():
    # a desired profile that is a Nash equilibrium costs nothing to implement
    game = Game.make(
        ["p1", "p2"],
        [["a", "b", "c"], ["d", "e", "f"]],
        [
            {(0, 0): 5, (1, 0): 3, (2, 0): 1, (1, 1): 2},
            {(0, 0): 4, (0, 1): 2, (0, 2): 1, (2, 2): 3},
        ],
    )
    region = RectRegion.make([[0], [0]])
    assert is_pne(game, region).holds
    result = solve_exact(game, region)
    assert result.delta == ZERO
    assert verify(game, result.promise, region, ZERO, "exact").holds
