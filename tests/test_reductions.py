"""Hardness-construction generators, certificates, and decoders."""

import itertools

import pytest

from gimpl import (
    ZERO,
    ExtValue,
    Game,
    GraphicalGame,
    ModifiedGameView,
    PaymentPromise,
    RectRegion,
    expand_graphical,
    undominated,
    verify,
)
from gimpl.reductions import (
    ColoringInstance,
    X3CInstance,
    brute_coloring,
    brute_x3c,
    coloring_forward_promise,
    coloring_to_exact,
    decode_cover_2p,
    decode_cover_graphical,
    decode_coloring,
    gen_x3c,
    parse_edge_list,
    validate_cover,
    x3c_forward_promise_2p,
    x3c_forward_promise_graphical,
    x3c_to_graphical,
    x3c_to_two_player,
    x3c_instance_from_game,
)

from _support import complete_graph, path_graph, petersen_graph


# -- instance sampling -------------------------------------------------------


def test_forced_n1_instance_is_unique():
    for seed in (0, 7, 99):
        inst = gen_x3c(1, seed, "any")
        assert inst.triples == ((0, 1, 2),) * 3
    assert brute_x3c(gen_x3c(1, 0, "any")) == (0,)


def test_gen_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gen_x3c(0, 1)
    with pytest.raises(ValueError):
        gen_x3c(2, 1, force="maybe")


def test_gen_is_deterministic_in_seed():
    assert gen_x3c(3, 41, "yes") == gen_x3c(3, 41, "yes")
    assert gen_x3c(2, 5, "no") == gen_x3c(2, 5, "no")


def test_gen_force_yes_plants_a_cover():
    for seed in range(10):
        inst = gen_x3c(2, seed, "yes")
        assert brute_x3c(inst) is not None


def test_gen_force_no_finds_uncoverable_instances():
    for seed in range(5):
        inst = gen_x3c(2, seed, "no")
        assert brute_x3c(inst) is None


def test_gen_force_no_impossible_at_n1():
    with pytest.raises(ValueError, match="no uncoverable instance"):
        gen_x3c(1, 3, "no")


def test_instance_validation():
    with pytest.raises(ValueError, match="three distinct"):
        X3CInstance.make(1, [(0, 1, 2), (0, 1, 2), (0, 0, 1)])
    with pytest.raises(ValueError, match="expected 3 triples"):
        X3CInstance.make(1, [(0, 1, 2)])


def test_validate_cover():
    inst = gen_x3c(1, 0)
    assert validate_cover(inst, (0,)) == (0,)
    with pytest.raises(ValueError):
        validate_cover(inst, (0, 1))
    with pytest.raises(ValueError):
        validate_cover(inst, ())


def test_brute_x3c_planted_two_set_cover():
    inst = gen_x3c(2, 7, "yes")
    cover = brute_x3c(inst)
    assert cover is not None
    validate_cover(inst, cover)


# -- two players, zero budget -------------------------------------------------


def test_two_player_encoding_shape_and_utilities():
    inst = gen_x3c(1, 0)
    game, region, budget = x3c_to_two_player(inst)
    assert budget == ZERO
    assert game.sizes == (12, 12)  # 3n + 9n with n = 1
    assert len(region.sets[0]) == 9
    names = game.strategies[0]
    c00 = names.index("c:a0:C0")
    a0 = names.index("a0")
    a1 = names.index("a1")
    assert game.utility(0, (a0, c00)) == ExtValue(2)
    # each set containing a0 gives the column player 1 against a1
    for j in inst.sets_containing(0):
        c0j = names.index(f"c:a0:C{j}")
        assert game.utility(1, (c0j, a1)) == ExtValue(1)
    assert game.utility(0, (a0, a0)) == ZERO


def test_two_player_forward_promise_verifies_and_decodes():
    inst = gen_x3c(1, 0)
    game, region, _ = x3c_to_two_player(inst)
    promise = x3c_forward_promise_2p(inst, (0,))
    report = verify(game, promise, region, ZERO, "subset")
    assert report.holds and report.cost == ZERO
    view = ModifiedGameView(game, promise)
    survivors = {game.strategies[1][s] for s in undominated(view, 1)}
    assert survivors <= {"c:a0:C0", "c:a1:C0", "c:a2:C0"}
    assert decode_cover_2p(game, promise) == (0,)


def test_two_player_round_trip_on_planted_instances():
    for n_hat, seed in [(2, 3), (2, 11), (3, 1)]:
        inst = gen_x3c(n_hat, seed, "yes")
        cover = brute_x3c(inst)
        game, region, _ = x3c_to_two_player(inst)
        promise = x3c_forward_promise_2p(inst, cover)
        assert verify(game, promise, region, ZERO, "subset").holds
        decoded = decode_cover_2p(game, promise)
        validate_cover(inst, decoded)


def test_two_player_survivor_chain():
    # whenever a pair strategy of element i survives for player 1, some pair
    # strategy of element i+1 survives for player 2
    inst = gen_x3c(2, 3, "yes")
    cover = brute_x3c(inst)
    game, _, _ = x3c_to_two_player(inst)
    promise = x3c_forward_promise_2p(inst, cover)
    view = ModifiedGameView(game, promise)
    names = game.strategies[0]
    survivors1 = {names[s] for s in undominated(view, 0)}
    survivors2 = {names[s] for s in undominated(view, 1)}
    n = inst.n_elements
    for i in range(n):
        if any(name.startswith(f"c:a{i}:") for name in survivors1):
            nxt = (i + 1) % n
            assert any(name.startswith(f"c:a{nxt}:") for name in survivors2)


def test_two_player_decoder_rejects_all_zero_promise():
    inst = gen_x3c(1, 0)
    game, _, _ = x3c_to_two_player(inst)
    with pytest.raises(ValueError, match="does not implement"):
        decode_cover_2p(game, PaymentPromise.make(game, [None] * game.n_players))


def test_two_player_forward_rejects_invalid_cover():
    inst = gen_x3c(1, 0)
    with pytest.raises(ValueError):
        x3c_forward_promise_2p(inst, (0, 1))


def test_x3c_instance_recovered_from_names():
    inst = gen_x3c(2, 3, "yes")
    game, _, _ = x3c_to_two_player(inst)
    assert x3c_instance_from_game(game) == inst


# -- graphical, degree three ---------------------------------------------------


def test_generator_validity_over_many_seeds():
    # every draw satisfies the shape invariants; construction validates them,
    # so re-assert the load-bearing one explicitly
    for seed in range(1000):
        n_hat = 1 + seed % 3
        inst = gen_x3c(n_hat, seed, ("any", "yes")[seed % 2])
        assert len(inst.triples) == 3 * n_hat
        counts = [0] * inst.n_elements
        for triple in inst.triples:
            assert len(set(triple)) == 3
            for x in triple:
                counts[x] += 1
        assert all(c == 3 for c in counts)


def test_graphical_encoding_shape():
    inst = gen_x3c(1, 0)
    gg, region, budget = x3c_to_graphical(inst)
    assert budget == ExtValue("1/2")
    assert gg.n_players == 6
    assert max(map(len, gg.neighborhoods)) == 3
    assert all(len(gg.neighborhoods[i]) == 3 for i in range(3))
    # F pays 1 when all three sets play T
    assert gg.utility(0, (1, 0, 0, 0)) == ExtValue(1)
    assert gg.utility(0, (1, 1, 1, 1)) == ExtValue(1)
    assert gg.utility(0, (1, 0, 1, 1)) == ZERO  # exactly one T
    # set players earn nothing anywhere
    assert all(not gg.local_utilities[3 + j] for j in range(3))
    assert region.sets[:3] == ((0,), (0,), (0,))
    assert region.sets[3:] == ((0, 1), (0, 1), (0, 1))


def test_graphical_expansion_of_forced_instance():
    # flattening the 6-player encoding covers all 64 profiles; an element
    # player earns 1 exactly at the five not-exactly-one-T neighbor combos
    inst = gen_x3c(1, 0)
    gg, _, _ = x3c_to_graphical(inst)
    game = expand_graphical(gg)
    assert game.sizes == (2,) * 6
    profiles = list(RectRegion.full(game).profiles())
    assert len(profiles) == 64
    paying = {
        (p[3], p[4], p[5])
        for p in profiles
        if p[0] == 1 and game.utility(0, p) == ExtValue(1)
    }
    expected = {
        q for q in itertools.product((0, 1), repeat=3) if q.count(0) != 1
    }
    assert paying == expected
    assert all(
        game.utility(0, p) == ZERO for p in profiles if p[0] == 0
    )


def test_graphical_forward_promise_verifies():
    inst = gen_x3c(1, 0)
    gg, region, budget = x3c_to_graphical(inst)
    promise = x3c_forward_promise_graphical(inst, (0,), budget)
    report = verify(gg, promise, region, budget, "subset")
    assert report.holds
    assert report.cost == ExtValue("1/2")
    view = ModifiedGameView(gg, promise)
    assert undominated(view, 3) == (0,)  # covered set plays T
    assert undominated(view, 4) == (1,)
    assert undominated(view, 5) == (1,)
    assert decode_cover_graphical(gg, promise, budget) == (0,)


def test_graphical_round_trip_on_planted_instances():
    for n_hat, seed in [(1, 0), (2, 3), (2, 11)]:
        inst = gen_x3c(n_hat, seed, "yes")
        cover = brute_x3c(inst)
        gg, region, budget = x3c_to_graphical(inst)
        promise = x3c_forward_promise_graphical(inst, cover, budget)
        assert verify(gg, promise, region, budget, "subset").holds
        view = ModifiedGameView(gg, promise)
        for j in range(len(inst.triples)):
            assert len(undominated(view, inst.n_elements + j)) == 1
        decoded = decode_cover_graphical(gg, promise, budget)
        validate_cover(inst, decoded)


def test_graphical_forward_rejects_zero_budget():
    inst = gen_x3c(1, 0)
    with pytest.raises(ValueError, match="positive"):
        x3c_forward_promise_graphical(inst, (0,), ZERO)


def test_graphical_decoder_rejects_two_sided_set_player():
    inst = gen_x3c(1, 0)
    gg, _, budget = x3c_to_graphical(inst)
    promise = x3c_forward_promise_graphical(inst, (0,), budget)
    # wipe the set players' rewards: their strategies tie everywhere again
    tables = [dict(t) for t in promise.entries]
    for j in range(3):
        tables[3 + j] = {}
    broken = PaymentPromise.make(gg, tables)
    with pytest.raises(ValueError, match="both strategies undominated"):
        decode_cover_graphical(gg, broken, budget)


# -- three-coloring -------------------------------------------------------------


def test_coloring_encoding_shape():
    k3 = complete_graph(3)
    game, region, budget = coloring_to_exact(k3)
    assert budget == ExtValue(1)
    assert game.sizes == (21, 21)  # 7 per vertex
    assert len(region.sets[0]) == 9
    names = game.strategies[0]
    c = names.index("c:v0:1")
    assert game.utility(0, (c, c)) == ExtValue(3)
    # adjacent vertices, same color
    d = names.index("c:v1:1")
    assert game.utility(0, (c, d)) == ExtValue(1)
    # adjacent vertices, different colors
    e = names.index("c:v1:2")
    assert game.utility(0, (c, e)) == ExtValue(2)
    # vertex strategy against own color choice
    v0 = names.index("v:v0")
    assert game.utility(0, (v0, c)) == ExtValue(3)
    # symmetric utilities
    for x in (c, d, v0):
        for y in (c, e):
            assert game.utility(1, (x, y)) == game.utility(0, (y, x))


def test_coloring_forward_promise_exact_on_small_graphs():
    for graph in (complete_graph(3), path_graph(3)):
        phi = brute_coloring(graph)
        assert phi is not None
        game, region, budget = coloring_to_exact(graph)
        promise = coloring_forward_promise(graph, phi)
        report = verify(game, promise, region, budget, "exact")
        assert report.holds
        assert report.cost <= ExtValue(1)
        decoded = decode_coloring(game, promise)
        assert decoded.coloring is not None
        assert ColoringInstance.make(graph.vertices, graph.edges, decoded.coloring)


def test_coloring_forward_rejects_improper():
    k3 = complete_graph(3)
    with pytest.raises(ValueError, match="improper"):
        coloring_forward_promise(k3, (1, 1, 2))


def test_coloring_decoder_rejects_all_zero_promise():
    k3 = complete_graph(3)
    game, _, _ = coloring_to_exact(k3)
    with pytest.raises(ValueError, match="does not exactly implement"):
        decode_coloring(game, PaymentPromise.make(game, [None] * game.n_players))


def test_coloring_decoder_refuses_a_large_game_before_reading_a_utility(monkeypatch):
    # 300 vertices: 2,100 strategies a player, so dominance needs 2,100^2
    # payoffs, above the cap, and no vertex pair may be read before that
    game, _, _ = coloring_to_exact(path_graph(300))

    def unavailable(self, player, profile):
        raise AssertionError("utility read")

    monkeypatch.setattr(Game, "utility", unavailable)
    with pytest.raises(ValueError, match="needs 4410000 payoffs"):
        decode_coloring(game, PaymentPromise.make(game, [None] * 2))


def test_brute_coloring_basics():
    assert brute_coloring(complete_graph(3)) == (1, 2, 3)
    assert brute_coloring(complete_graph(4)) is None
    edgeless = ColoringInstance.make(["a", "b", "c"], [])
    assert brute_coloring(edgeless) == (1, 1, 1)
    assert brute_coloring(petersen_graph()) is not None


def test_coloring_instance_validation():
    with pytest.raises(ValueError, match="self-loop"):
        ColoringInstance.make(["a"], [(0, 0)])
    with pytest.raises(ValueError, match="improper"):
        ColoringInstance.make(["a", "b"], [(0, 1)], (2, 2))


def test_parse_edge_list():
    graph = parse_edge_list("# triangle\n0 1\n1 2\n2 0\n3\n")
    assert graph.vertices == ("0", "1", "2", "3")
    assert graph.edges == ((0, 1), (0, 2), (1, 2))
    assert parse_edge_list("10 9\n-2 9\n").vertices == ("-2", "9", "10")
    assert parse_edge_list("b a\nc a\n").vertices == ("a", "b", "c")
    # labels that only look numeric sort as text
    assert parse_edge_list("1 2\n2 --3\n").vertices == ("--3", "1", "2")
    assert parse_edge_list("\u00b2 1\n").vertices == ("1", "\u00b2")
    with pytest.raises(ValueError):
        parse_edge_list("a b c\n")
    with pytest.raises(ValueError):
        parse_edge_list("   \n")


# -- refusals ---------------------------------------------------------------------


def _refusal(call) -> str:
    with pytest.raises(ValueError) as refusal:
        call()
    return str(refusal.value)


# six triples over 0..5, each element in exactly three of them
_TWO_SETS = [(0, 1, 2), (0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)]


@pytest.mark.parametrize(
    "n_hat, triples, message",
    [
        (0, [], "n_hat must be at least 1"),
        (1, [(0, 1, 2)], "expected 3 triples, got 1"),
        (1, [(0, 1, 2), (0, 1, 2), (0, 0, 1)], "triple (0, 1) does not have three distinct elements"),
        (1, [(0, 1, 2), (0, 1, 2), (0, 1, 3)], "element 3 out of range"),
        (2, _TWO_SETS[:5] + [(0, 4, 5)], "elements [0, 3] do not occur in exactly three triples"),
    ],
)
def test_x3c_instance_refusals(n_hat, triples, message):
    assert _refusal(lambda: X3CInstance.make(n_hat, triples)) == message


@pytest.mark.parametrize(
    "cover, message",
    [
        ((0, 0), "cover repeats a set index"),
        ((0,), "cover has 1 sets, expected 2"),
        ((0, 6), "set index 6 out of range"),
        ((0, 1), "set 1 overlaps the rest of the cover"),
    ],
)
def test_validate_cover_refusals(cover, message):
    inst = X3CInstance.make(2, _TWO_SETS)
    assert validate_cover(inst, (0, 5)) == (0, 5)
    assert _refusal(lambda: validate_cover(inst, cover)) == message


@pytest.mark.parametrize(
    "n_hat, force, message",
    [
        (0, "any", "n_hat must be at least 1"),
        (2, "maybe", "force must be 'yes', 'no', or 'any', got 'maybe'"),
        (9, "no", "cover search over 4686825 subsets, above the 1000000 cap"),
    ],
)
def test_gen_x3c_refusals(n_hat, force, message):
    assert _refusal(lambda: gen_x3c(n_hat, 0, force)) == message


@pytest.mark.parametrize(
    "names, message",
    [
        (["a0", "b0"], "strategy name 'b0' does not follow the encoding"),
        (["c:a0:C0", "a0", "a1"], "strategy names do not describe a 3n-element universe"),
    ],
)
def test_two_player_name_refusals(names, message):
    game = Game.make(["p1", "p2"], [names, names], [{}, {}])
    assert _refusal(lambda: x3c_instance_from_game(game)) == message
    promise = PaymentPromise.make(game, [None, None])
    assert _refusal(lambda: decode_cover_2p(game, promise)) == message


@pytest.mark.parametrize(
    "players, message",
    [
        (["a0", "a1", "a2", "S0"], "player name 'S0' does not follow the encoding"),
        (["a0", "a1", "C0"], "element players do not describe a 3n-element universe"),
        (["C0", "a0", "a1", "a2"], "element players do not describe a 3n-element universe"),
    ],
)
def test_graphical_decoder_name_refusals(players, message):
    game = GraphicalGame.make(players, [["T", "F"]] * len(players), [], [None] * len(players))
    promise = PaymentPromise.make(game, [None] * len(players))
    assert _refusal(lambda: decode_cover_graphical(game, promise)) == message


@pytest.mark.parametrize(
    "names, message",
    [
        (["v:x", "d0", "v:y"], "vertex strategies are not a contiguous prefix"),
        (["v:x", "c:y:1"], "color strategy 'c:y:1' references an unknown vertex"),
        (["v:x", "c:x:1", "c:x:2"], "strategy names do not follow the coloring encoding"),
        (["d0"], "strategy names do not follow the coloring encoding"),
    ],
)
def test_coloring_decoder_name_refusals(names, message):
    game = Game.make(["p1", "p2"], [names, names], [{}, {}])
    promise = PaymentPromise.make(game, [None, None])
    assert _refusal(lambda: decode_coloring(game, promise)) == message


@pytest.mark.parametrize(
    "vertices, edges, coloring, message",
    [
        ([], [], None, "the graph needs at least one vertex"),
        (["a", "b", "a"], [], None, "vertex names repeat"),
        (["a", "b"], [(0, 2)], None, "edge (0, 2) references an unknown vertex"),
        (["a", "b"], [(1, 1)], None, "self-loop on vertex 'b'"),
        (["a", "b"], [(0, 1)], (1,), "coloring must assign every vertex a color"),
        (["a", "b"], [(0, 1)], (1, 4), "colors must be 1, 2, or 3"),
        (["a", "b"], [(1, 0)], (2, 2), "improper coloring: edge (a, b) is monochromatic"),
    ],
)
def test_coloring_instance_refusals(vertices, edges, coloring, message):
    assert _refusal(lambda: ColoringInstance.make(vertices, edges, coloring)) == message


def test_neighbors_read_the_edges():
    for graph in (petersen_graph(), path_graph(7), complete_graph(4), parse_edge_list("b a\nc a\nd\n")):
        for v in range(-1, graph.n_vertices + 1):
            scanned = sorted(b if a == v else a for a, b in graph.edges if v in (a, b))
            assert graph.neighbors(v) == tuple(scanned)
