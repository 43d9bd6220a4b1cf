"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they happen. All comparisons are exact rational equality; the seeded
random corpora are fixed. Criterion 8's equivalence clause is expected to
fail; see the assertion message there for the analysis.
"""

import itertools
import random
import time

import pytest

from gimpl import (
    ZERO,
    ExtValue,
    Game,
    ModifiedGameView,
    RectRegion,
    find_dominator,
    is_pne,
    min_budget_solve,
    oracle_min_budget,
    oracle_zero_cost,
    solve_exact,
    undominated,
    verify,
)
from gimpl.cli import run
from gimpl.domination import dominates
from gimpl.instancefmt import InstanceDoc, serialize_instance
from gimpl.reductions import (
    brute_coloring,
    brute_x3c,
    coloring_forward_promise,
    coloring_to_exact,
    decode_cover_2p,
    decode_cover_graphical,
    decode_coloring,
    gen_x3c,
    validate_cover,
    x3c_forward_promise_2p,
    x3c_forward_promise_graphical,
    x3c_to_graphical,
    x3c_to_two_player,
)

from _support import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_equitable_instance,
    random_game,
    random_region,
)


def _report(number: int, ok: bool, text: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {verdict} - {text}")


def test_criterion_01_worked_example(tmp_path, ex1, ex1_promise, ex1_promise_cheap, ex1_region):
    started = time.perf_counter()
    path = tmp_path / "ex1.json"
    path.write_text(serialize_instance(InstanceDoc(game=ex1)), encoding="utf-8")
    analyzed = run(["analyze", str(path)])
    assert analyzed.payload["undominated"]["names"] == [["s1", "s2"], ["t1", "t2"]]

    pricey = verify(ex1, ex1_promise, ex1_region, ExtValue("11/10"), "subset")
    assert pricey.holds and pricey.cost == ExtValue("11/10")

    cheap = verify(ex1, ex1_promise_cheap, ex1_region, ExtValue(1), "subset")
    assert cheap.holds and cheap.cost == ExtValue(1)
    assert not verify(ex1, ex1_promise_cheap, ex1_region, ExtValue(1), "exact").holds

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, True, f"worked example reproduced in {elapsed:.3f}s")


def test_criterion_02_solver_on_worked_example(ex1, ex1_region):
    started = time.perf_counter()
    result = min_budget_solve(ex1, ex1_region)
    assert result.delta == ExtValue(1)
    assert result.mapping.domains[0] == (1,) and result.mapping.targets[0] == (0,)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, True, f"min-budget solve returns delta 1 with F1(s2)=s1 in {elapsed:.3f}s")


def test_criterion_03_flawed_algorithm_regression(ce1, ce1_region):
    started = time.perf_counter()
    for _ in range(3):  # deterministic across repetitions
        report = verify(ce1, None, ce1_region, ZERO, "exact")
        assert not report.holds
        assert report.violation == (0, 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(3, True, f"all-zero promise is not exact, violation (player 0, s2), {elapsed:.3f}s")


def test_criterion_04_domination_property_suite():
    started = time.perf_counter()
    rng = random.Random(20_040)
    violations = 0
    for _ in range(2000):
        game = random_game(rng, max_strats=4, lo=0, hi=4)
        view = ModifiedGameView(game)
        for i in range(game.n_players):
            size = game.sizes[i]
            dom = {
                (x, y): dominates(view, i, x, y)
                for x in range(size)
                for y in range(size)
                if x != y
            }
            for x, y in itertools.permutations(range(size), 2):
                if dom[(x, y)] and dom[(y, x)]:
                    violations += 1
            for x, y, z in itertools.permutations(range(size), 3):
                if dom[(x, y)] and dom[(y, z)] and not dom[(x, z)]:
                    violations += 1
            survivors = undominated(view, i)
            if not survivors:
                violations += 1
            kept = set(survivors)
            for y in range(size):
                if y in kept:
                    continue
                if find_dominator(view, i, y) not in kept:
                    violations += 1
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert elapsed < 30.0
    _report(4, True, f"2000 games, zero violations of the four properties, {elapsed:.1f}s")


def test_criterion_05_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20_050)
    for _ in range(500):
        game = random_game(rng)
        region = random_region(rng, game)
        space = 1
        for i in range(game.n_players):
            space *= len(region.sets[i]) ** len(region.complement(game, i))
        assert space <= 10_000
        solved = min_budget_solve(game, region)
        oracled = oracle_min_budget(game, region)
        assert solved.delta == oracled.delta
        assert solved.mapping in oracled.all_optimal_mappings
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(5, True, f"500 instances, solver delta equals oracle delta, {elapsed:.1f}s")


def test_criterion_06_zero_cost_equivalence():
    started = time.perf_counter()
    rng = random.Random(20_060)
    disagreements = 0
    for _ in range(1000):
        game = random_game(rng)
        region = random_region(rng, game)
        stable = is_pne(game, region).holds
        end_to_end = oracle_zero_cost(game, region)
        free = min_budget_solve(game, region).delta == ZERO
        if not (stable == end_to_end == free):
            disagreements += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert elapsed < 60.0
    _report(6, True, f"1000 pairs, is_pne == oracle_zero_cost == (delta==0), {elapsed:.1f}s")


def test_criterion_07_exactification():
    started = time.perf_counter()
    rng = random.Random(20_070)
    for _ in range(300):
        game, region = random_equitable_instance(rng)
        result = solve_exact(game, region)
        assert verify(game, result.promise, region, result.delta, "exact").holds
        worst = ZERO
        for profile in region.profiles():
            total = sum(
                (result.promise.value(i, profile) for i in range(game.n_players)),
                ZERO,
            )
            if worst < total:
                worst = total
        assert worst == result.delta
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(7, True, f"300 equitable instances exactified at unchanged delta, {elapsed:.1f}s")


def test_criterion_08_two_player_reduction_end_to_end():
    started = time.perf_counter()
    corpus = [gen_x3c(1, 0, "any")]
    for n_hat in (2, 3):
        for seed in range(10):
            corpus.append(gen_x3c(n_hat, seed, "yes"))
            corpus.append(gen_x3c(n_hat, seed, "no"))

    mismatches = []
    for inst in corpus:
        cover = brute_x3c(inst)
        game, region, budget = x3c_to_two_player(inst)
        stable = is_pne(game, region).holds
        if stable != (cover is not None):
            mismatches.append((inst.n_hat, cover, stable))
        if cover is not None:
            promise = x3c_forward_promise_2p(inst, cover)
            report = verify(game, promise, region, budget, "subset")
            assert report.holds and report.cost == ZERO
            decoded = decode_cover_2p(game, promise)
            validate_cover(inst, decoded)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    ok = not mismatches
    _report(
        8,
        ok,
        f"{len(corpus)} instances; forward certificates verify at budget 0 and decode; "
        f"is_pne<->cover equivalence mismatches: {len(mismatches)}; {elapsed:.1f}s",
    )
    assert ok, (
        "is_pne(reduced game, O) equals cover-existence failed on "
        f"{len(mismatches)} yes-instances (n_hat values "
        f"{sorted({m[0] for m in mismatches})}). The equivalence this clause "
        "assumes, that a rectangular region is zero-cost implementable only "
        "if it is a promise-Nash equilibrium, does not hold: cost binds only "
        "on undominated profiles, so payments against desired-but-dominated "
        "opponent strategies are free, and this construction exploits exactly "
        "that. The forward promise verifies at budget 0 (asserted green "
        "above), so the region IS zero-cost implementable, yet no single "
        "desired strategy weakly beats an element strategy against all "
        "desired columns, so is_pne is false on every yes-instance. "
        "No-instances agree vacuously."
    )


def test_criterion_09_graphical_reduction_forward():
    started = time.perf_counter()
    cases = [(1, 0)] + [(2, seed) for seed in range(5)]
    for n_hat, seed in cases:
        inst = gen_x3c(n_hat, seed, "yes")
        cover = brute_x3c(inst)
        assert cover is not None
        gg, region, budget = x3c_to_graphical(inst)
        assert budget == ExtValue("1/2")
        promise = x3c_forward_promise_graphical(inst, cover, budget)
        report = verify(gg, promise, region, budget, "subset")
        assert report.holds
        view = ModifiedGameView(gg, promise)
        for j in range(len(inst.triples)):
            assert len(undominated(view, inst.n_elements + j)) == 1
        decoded = decode_cover_graphical(gg, promise, budget)
        validate_cover(inst, decoded)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(
        9,
        True,
        f"{len(cases)} planted graphical instances verify within 1/2, decode; "
        f"negative direction not searched (intractable); {elapsed:.1f}s",
    )


def test_criterion_10_coloring_reduction_forward():
    started = time.perf_counter()
    graphs = {
        "K3": complete_graph(3),
        "P4": path_graph(4),
        "C5": cycle_graph(5),
        "Petersen": petersen_graph(),
    }
    for name, graph in graphs.items():
        phi = brute_coloring(graph)
        assert phi is not None, name
        game, region, budget = coloring_to_exact(graph)
        promise = coloring_forward_promise(graph, phi)
        report = verify(game, promise, region, budget, "exact")
        assert report.holds, name
        decoded = decode_coloring(game, promise)
        assert decoded.coloring is not None
        assert all(decoded.coloring[a] != decoded.coloring[b] for a, b in graph.edges)
    assert brute_coloring(complete_graph(4)) is None
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(
        10,
        True,
        "K3/P4/C5/Petersen exact at budget 1 and decoded; K4 has no coloring; "
        f"negative direction not searched (intractable); {elapsed:.1f}s",
    )


def test_criterion_11_runtime_sanity_bound():
    rng = random.Random(20_110)
    sizes = (12, 3)
    utilities = []
    for _ in range(2):
        table = {}
        for profile in itertools.product(*(range(s) for s in sizes)):
            value = rng.randint(0, 4)
            if value:
                table[profile] = value
        utilities.append(table)
    game = Game.make(
        ["p1", "p2"],
        [[f"s{k}" for k in range(12)], ["a", "b", "c"]],
        utilities,
    )
    region = RectRegion.make([[0, 1, 2, 3], [0]])
    space = len(region.sets[0]) ** len(region.complement(game, 0))
    assert space == 4**8 <= 100_000

    started = time.perf_counter()
    result = min_budget_solve(game, region)
    elapsed = time.perf_counter() - started
    assert verify(game, result.promise, region, result.delta, "subset").holds
    assert elapsed < 10.0
    _report(
        11,
        True,
        f"|F| = {space} assignment search finished in {elapsed:.2f}s (< 10s bound)",
    )
