"""Hardness-construction generators, certificate builders, and decoders.

Three families are provided, each with a brute-force oracle for the source
problem, an encoder into a game-plus-region-plus-budget triple, a forward
certificate builder that turns a known combinatorial solution into a
payment promise, and a decoder that recovers a combinatorial solution from
a working promise.

Strategy and player names carry the combinatorial labels ("a3", "c:a3:C1",
"v:x", "c:x:2", ...); the decoders parse these names, so they only apply to
games produced by the encoders here.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .checking import verify
from .domination import dominates
from .model import (
    Game,
    GraphicalGame,
    ModifiedGameView,
    PaymentPromise,
    RectRegion,
)
from .values import INF, ZERO, ExtValue

_SAMPLER_CAP = 10_000
# Largest number of triple subsets ``gen_x3c(force="no")`` lets one cover search try.
MAX_COVER_SUBSETS = 10**6


# ---------------------------------------------------------------------------
# Exact cover by 3-sets


@dataclass(frozen=True)
class X3CInstance:
    """Exact-cover-by-3-sets instance over elements 0..3n-1 in the variant
    where every element occurs in exactly three of the 3n triples.

    Duplicate triples are allowed and are distinguished by index.
    """

    n_hat: int
    triples: tuple[tuple[int, int, int], ...]

    @classmethod
    def make(cls, n_hat: int, triples: Iterable[Iterable[int]]) -> "X3CInstance":
        if n_hat < 1:
            raise ValueError("n_hat must be at least 1")
        canon = tuple(tuple(sorted(set(int(x) for x in t))) for t in triples)
        if len(canon) != 3 * n_hat:
            raise ValueError(f"expected {3 * n_hat} triples, got {len(canon)}")
        counts = [0] * (3 * n_hat)
        for t in canon:
            if len(t) != 3:
                raise ValueError(f"triple {t} does not have three distinct elements")
            for x in t:
                if not 0 <= x < 3 * n_hat:
                    raise ValueError(f"element {x} out of range")
                counts[x] += 1
        bad = [x for x, c in enumerate(counts) if c != 3]
        if bad:
            raise ValueError(f"elements {bad} do not occur in exactly three triples")
        return cls(n_hat, canon)

    @property
    def n_elements(self) -> int:
        return 3 * self.n_hat

    def sets_containing(self, element: int) -> tuple[int, ...]:
        return tuple(j for j, t in enumerate(self.triples) if element in t)


def validate_cover(inst: X3CInstance, cover: Sequence[int]) -> tuple[int, ...]:
    """Check that ``cover`` is an exact cover of the instance; returns it sorted."""
    indices = tuple(sorted(set(int(j) for j in cover)))
    if len(indices) != len(tuple(cover)):
        raise ValueError("cover repeats a set index")
    if len(indices) != inst.n_hat:
        raise ValueError(f"cover has {len(indices)} sets, expected {inst.n_hat}")
    seen: set[int] = set()
    for j in indices:
        if not 0 <= j < len(inst.triples):
            raise ValueError(f"set index {j} out of range")
        triple = set(inst.triples[j])
        if seen & triple:
            raise ValueError(f"set {j} overlaps the rest of the cover")
        seen |= triple
    if len(seen) != inst.n_elements:
        raise ValueError("cover does not reach every element")
    return indices


def brute_x3c(inst: X3CInstance) -> tuple[int, ...] | None:
    """Exhaustive search over all n-subsets of the triples; returns the
    lexicographically first exact cover, or None."""
    universe = set(range(inst.n_elements))
    for combo in itertools.combinations(range(len(inst.triples)), inst.n_hat):
        union: set[int] = set()
        ok = True
        for j in combo:
            triple = set(inst.triples[j])
            if union & triple:
                ok = False
                break
            union |= triple
        if ok and union == universe:
            return combo
    return None


def _chop_into_triples(rng: random.Random, slots: list[int]) -> list[tuple[int, int, int]] | None:
    rng.shuffle(slots)
    triples = []
    for k in range(0, len(slots), 3):
        chunk = slots[k : k + 3]
        if len(set(chunk)) != 3:
            return None
        triples.append(tuple(sorted(chunk)))
    return triples


def _sample_occurrence_multiset(
    rng: random.Random, n_elements: int, copies: int
) -> list[tuple[int, int, int]]:
    base = [x for x in range(n_elements) for _ in range(copies)]
    for _ in range(_SAMPLER_CAP):
        triples = _chop_into_triples(rng, list(base))
        if triples is not None:
            return triples
    raise ValueError("sampler exhausted while building triples with distinct members")


def gen_x3c(n_hat: int, seed: int, force: str = "any") -> X3CInstance:
    """Sample a valid instance, deterministically in ``seed``.

    force="yes" plants a disjoint cover and pads with random triples so that
    each element still occurs exactly three times; force="no" resamples until
    the brute-force oracle finds no cover (no such instance exists at n=1,
    so the attempt cap will trip there) and refuses n_hat >= 9, where one
    search tries over ``MAX_COVER_SUBSETS`` subsets; force="any" samples
    unconditionally.
    """
    if n_hat < 1:
        raise ValueError("n_hat must be at least 1")
    if force not in ("yes", "no", "any"):
        raise ValueError(f"force must be 'yes', 'no', or 'any', got {force!r}")
    rng = random.Random(seed)
    n_elements = 3 * n_hat

    if force == "yes":
        order = list(range(n_elements))
        rng.shuffle(order)
        planted = [tuple(sorted(order[k : k + 3])) for k in range(0, n_elements, 3)]
        padding = _sample_occurrence_multiset(rng, n_elements, 2)
        triples = planted + padding
        rng.shuffle(triples)
        return X3CInstance.make(n_hat, triples)

    if force == "no":
        count = math.comb(n_elements, n_hat)
        if count > MAX_COVER_SUBSETS:
            raise ValueError(f"cover search over {count} subsets, above the {MAX_COVER_SUBSETS} cap")
        for _ in range(_SAMPLER_CAP):
            inst = X3CInstance.make(n_hat, _sample_occurrence_multiset(rng, n_elements, 3))
            if brute_x3c(inst) is None:
                return inst
        raise ValueError(
            f"no uncoverable instance found for n_hat={n_hat} within {_SAMPLER_CAP} attempts"
        )

    return X3CInstance.make(n_hat, _sample_occurrence_multiset(rng, n_elements, 3))


# ---------------------------------------------------------------------------
# Two players, zero budget

_C_NAME = re.compile(r"^c:a(\d+):C(\d+)$")
_A_NAME = re.compile(r"^a(\d+)$")


def _x3c_pairs(inst: X3CInstance) -> list[tuple[int, int]]:
    """(element, set) pairs behind the paired strategies, in index order."""
    return [(i, j) for i in range(inst.n_elements) for j in inst.sets_containing(i)]


def x3c_to_two_player(inst: X3CInstance) -> tuple[Game, RectRegion, ExtValue]:
    """Encode an instance as a two-player game whose desired strategies can
    be implemented within budget 0 exactly when an exact cover exists.

    Both players share the strategy list: one strategy per (element, set)
    incidence pair plus one per element; the desired sets are the pair
    strategies. Unspecified utilities are 0 and the budget is 0.
    """
    pairs = _x3c_pairs(inst)
    pair_index = {pair: k for k, pair in enumerate(pairs)}
    n_pairs = len(pairs)
    a_index = {i: n_pairs + i for i in range(inst.n_elements)}
    names = [f"c:a{i}:C{j}" for i, j in pairs] + [f"a{i}" for i in range(inst.n_elements)]

    u1: dict[tuple[int, int], int] = {}
    u2: dict[tuple[int, int], int] = {}
    for i in range(inst.n_elements):
        for j in inst.sets_containing(i):
            c_ij = pair_index[(i, j)]
            u1[(a_index[i], c_ij)] = 2
            u1[(c_ij, c_ij)] = 2
            for other in inst.triples[j]:
                if other == i:
                    continue
                c_oj = pair_index[(other, j)]
                u1[(a_index[i], c_oj)] = 1
                u1[(c_ij, c_oj)] = 1
    n = inst.n_elements
    for i in range(n):
        prev = (i - 1) % n
        for p in inst.sets_containing(prev):
            row = pair_index[(prev, p)]
            u2[(row, a_index[i])] = 1
            for j in inst.sets_containing(i):
                u2[(row, pair_index[(i, j)])] = 1

    game = Game.make(["p1", "p2"], [names, names], [u1, u2])
    region = RectRegion.make([range(n_pairs), range(n_pairs)])
    return game, region, ZERO


def x3c_forward_promise_2p(inst: X3CInstance, cover: Sequence[int]) -> PaymentPromise:
    """Certificate promise from an exact cover: on each covered pair row, pay
    infinity against every pair strategy of an uncovered set sharing the
    element, plus the matching rule for the column player."""
    chosen = set(validate_cover(inst, cover))
    game, _, _ = x3c_to_two_player(inst)
    pairs = _x3c_pairs(inst)
    pair_index = {pair: k for k, pair in enumerate(pairs)}
    cover_of = {i: j for j in chosen for i in inst.triples[j]}

    v1: dict[tuple[int, int], ExtValue] = {}
    v2: dict[tuple[int, int], ExtValue] = {}
    n = inst.n_elements
    for i in range(n):
        j = cover_of[i]
        row = pair_index[(i, j)]
        for p in inst.sets_containing(i):
            if p == j:
                continue
            for other in inst.triples[p]:
                v1[(row, pair_index[(other, p)])] = INF
    for i in range(n):
        j = cover_of[i]
        col = pair_index[(i, j)]
        prev = (i - 1) % n
        for p in inst.sets_containing(prev):
            if p in chosen:
                continue
            v2[(pair_index[(prev, p)], col)] = INF
    return PaymentPromise.make(game, [v1, v2])


def _parse_x3c_strategies(game: Game) -> tuple[X3CInstance, dict[tuple[int, int], int]]:
    members: dict[int, set[int]] = {}
    pair_index: dict[tuple[int, int], int] = {}
    elements: set[int] = set()
    for idx, name in enumerate(game.strategies[0]):
        m = _C_NAME.match(name)
        if m:
            i, j = int(m.group(1)), int(m.group(2))
            members.setdefault(j, set()).add(i)
            pair_index[(i, j)] = idx
            continue
        m = _A_NAME.match(name)
        if not m:
            raise ValueError(f"strategy name {name!r} does not follow the encoding")
        elements.add(int(m.group(1)))
    n_hat, rem = divmod(len(elements), 3)
    if rem or not elements or not members:
        raise ValueError("strategy names do not describe a 3n-element universe")
    triples = [tuple(sorted(members.get(j, ()))) for j in range(max(members) + 1)]
    inst = X3CInstance.make(n_hat, triples)
    return inst, pair_index


def x3c_instance_from_game(game: Game) -> X3CInstance:
    """Rebuild the instance encoded in a two-player game's strategy names."""
    inst, _ = _parse_x3c_strategies(game)
    return inst


def decode_cover_2p(game: Game, promise: PaymentPromise) -> tuple[int, ...]:
    """Recover an exact cover from a promise implementing the pair strategies
    at budget 0: collect the sets whose pair strategies survive undominated
    for the column player."""
    inst, pair_index = _parse_x3c_strategies(game)
    region = RectRegion.make([sorted(pair_index.values())] * 2)
    report = verify(game, promise, region, ZERO, "subset")
    if not report.holds:
        raise ValueError("promise does not implement the desired region at budget 0")
    survivors = set(report.undominated_region.sets[1])
    cover = sorted({j for (i, j), idx in pair_index.items() if idx in survivors})
    return validate_cover(inst, cover)


# ---------------------------------------------------------------------------
# Graphical, degree three, two strategies

T_INDEX, F_INDEX = 0, 1

_SET_PLAYER = re.compile(r"^C(\d+)$")


def x3c_to_graphical(inst: X3CInstance) -> tuple[GraphicalGame, RectRegion, ExtValue]:
    """Encode an instance as a degree-3 graphical game with two strategies
    per player: one player per element, one per set, edges along membership.

    An element player earns 1 for playing F unless exactly one of its three
    sets plays T; set players earn nothing anywhere. Desired sets: T only
    for element players, anything for set players. Budget 1/2: the encoding
    works for any budget strictly between 0 and 1.
    """
    n = inst.n_elements
    players = [f"a{i}" for i in range(n)] + [f"C{j}" for j in range(len(inst.triples))]
    strategies = [("T", "F")] * len(players)
    edges = [(i, n + j) for j, triple in enumerate(inst.triples) for i in triple]

    tables: list[dict[tuple[int, ...], int]] = [{} for _ in players]
    for i in range(n):
        for q in itertools.product((T_INDEX, F_INDEX), repeat=3):
            if q.count(T_INDEX) != 1:
                tables[i][(F_INDEX,) + q] = 1
    gg = GraphicalGame.make(players, strategies, edges, tables)
    region = RectRegion.make(
        [(T_INDEX,)] * n + [(T_INDEX, F_INDEX)] * len(inst.triples)
    )
    return gg, region, ExtValue("1/2")


def x3c_forward_promise_graphical(
    inst: X3CInstance, cover: Sequence[int], budget: ExtValue
) -> PaymentPromise:
    """Certificate promise from an exact cover: element players get infinite
    promises for T wherever F would have paid, covered sets get a small
    reward for T, uncovered ones the same reward for F."""
    chosen = set(validate_cover(inst, cover))
    budget = ExtValue(budget)
    if not budget.is_finite or budget <= ZERO:
        raise ValueError("budget must be a positive finite value")
    gg, _, _ = x3c_to_graphical(inst)
    share = ExtValue(budget.fraction / len(inst.triples))

    n = inst.n_elements
    tables: list[dict[tuple[int, ...], ExtValue]] = [{} for _ in gg.players]
    for i in range(n):
        for q in itertools.product((T_INDEX, F_INDEX), repeat=3):
            if q.count(T_INDEX) != 1:
                tables[i][(T_INDEX,) + q] = INF
    for j in range(len(inst.triples)):
        own = T_INDEX if j in chosen else F_INDEX
        for q in itertools.product((T_INDEX, F_INDEX), repeat=3):
            tables[n + j][(own,) + q] = share
    return PaymentPromise.make(gg, tables)


def decode_cover_graphical(
    game: GraphicalGame,
    promise: PaymentPromise,
    budget: ExtValue = ExtValue("1/2"),
) -> tuple[int, ...]:
    """Recover an exact cover from a promise implementing the element players'
    T strategies within budget: the sets whose players end up with T as
    their only undominated strategy."""
    element_players = []
    set_players = []
    for idx, name in enumerate(game.players):
        if _A_NAME.match(name):
            element_players.append(idx)
        elif _SET_PLAYER.match(name):
            set_players.append(idx)
        else:
            raise ValueError(f"player name {name!r} does not follow the encoding")
    n = len(element_players)
    n_hat, rem = divmod(n, 3)
    if rem or sorted(element_players) != list(range(n)):
        raise ValueError("element players do not describe a 3n-element universe")
    triples = []
    for j, p in enumerate(sorted(set_players)):
        if p != n + j:
            raise ValueError("set players are not contiguous after the element players")
        triples.append(tuple(sorted(game.neighborhoods[p])))
    inst = X3CInstance.make(n_hat, triples)

    _, region, _ = x3c_to_graphical(inst)
    report = verify(game, promise, region, budget, "subset")
    cover = []
    for j, survivors in enumerate(report.undominated_region.sets[n:]):
        if len(survivors) != 1:
            raise ValueError(
                f"set player C{j} has both strategies undominated; "
                "the promise is not a valid certificate"
            )
        if survivors[0] == T_INDEX:
            cover.append(j)
    if not report.holds:
        raise ValueError("promise does not implement the desired region within budget")
    return validate_cover(inst, cover)


# ---------------------------------------------------------------------------
# Three-coloring, exact implementation

COLORS = (1, 2, 3)

_VERTEX_STRAT = re.compile(r"^v:(.+)$")
_COLOR_STRAT = re.compile(r"^c:(.+):([123])$")


@dataclass(frozen=True)
class ColoringInstance:
    """An undirected graph plus an optional proper 3-coloring."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    coloring: tuple[int, ...] | None = None

    @classmethod
    def make(
        cls,
        vertices: Iterable[str],
        edges: Iterable[Sequence[int]],
        coloring: Sequence[int] | None = None,
    ) -> "ColoringInstance":
        names = tuple(str(v) for v in vertices)
        if not names:
            raise ValueError("the graph needs at least one vertex")
        if len(set(names)) != len(names):
            raise ValueError("vertex names repeat")
        canon: set[tuple[int, int]] = set()
        for edge in edges:
            a, b = edge
            if not (0 <= a < len(names) and 0 <= b < len(names)):
                raise ValueError(f"edge {edge!r} references an unknown vertex")
            if a == b:
                raise ValueError(f"self-loop on vertex {names[a]!r}")
            canon.add((min(a, b), max(a, b)))
        phi = None
        if coloring is not None:
            phi = tuple(int(c) for c in coloring)
            if len(phi) != len(names):
                raise ValueError("coloring must assign every vertex a color")
            if any(c not in COLORS for c in phi):
                raise ValueError("colors must be 1, 2, or 3")
            for a, b in canon:
                if phi[a] == phi[b]:
                    raise ValueError(
                        f"improper coloring: edge ({names[a]}, {names[b]}) is monochromatic"
                    )
        return cls(names, tuple(sorted(canon)), phi)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = [b if a == v else a for a, b in self.edges if v in (a, b)]
        return tuple(sorted(out))


def brute_coloring(graph: ColoringInstance) -> tuple[int, ...] | None:
    """Exhaustive search over all 3^n color assignments; returns the
    lexicographically first proper one, or None."""
    n = graph.n_vertices
    for phi in itertools.product(COLORS, repeat=n):
        if all(phi[a] != phi[b] for a, b in graph.edges):
            return phi
    return None


def _coloring_layout(graph: ColoringInstance) -> tuple[int, int]:
    """Index layout: vertex strategies, then color choices from the first
    base, then dummies from the second."""
    n = graph.n_vertices
    return n, n + 3 * n


def _col(col_base: int, v: int, c: int) -> int:
    """Index of the strategy in which vertex ``v`` takes color ``c``."""
    return col_base + 3 * v + (c - 1)


def coloring_to_exact(graph: ColoringInstance) -> tuple[Game, RectRegion, ExtValue]:
    """Encode a graph as a symmetric two-player game whose color-choice
    strategies can be implemented exactly within budget 1 precisely when
    the graph is 3-colorable.

    Per player: one strategy per vertex, one per (vertex, color) pair, and
    one dummy per color choice paying that choice 1 against it.
    """
    n = graph.n_vertices
    col_base, dummy_base = _coloring_layout(graph)
    col = functools.partial(_col, col_base)

    names = (
        [f"v:{name}" for name in graph.vertices]
        + [f"c:{name}:{c}" for name in graph.vertices for c in COLORS]
        + [f"d{k}" for k in range(3 * n)]
    )

    u1: dict[tuple[int, int], int] = {}
    for v in range(n):
        for c1 in COLORS:
            for c2 in COLORS:
                u1[(col(v, c1), col(v, c2))] = 3 if c1 == c2 else 2
    for a, b in graph.edges:
        for c1 in COLORS:
            for c2 in COLORS:
                value = 1 if c1 == c2 else 2
                u1[(col(a, c1), col(b, c2))] = value
                u1[(col(b, c1), col(a, c2))] = value
    for v in range(n):
        for c in COLORS:
            u1[(v, col(v, c))] = 3
        for u in graph.neighbors(v):
            for c in COLORS:
                u1[(v, col(u, c))] = 2
    for k in range(3 * n):
        u1[(col_base + k, dummy_base + k)] = 1
    u2 = {(x, y): value for (y, x), value in u1.items()}

    game = Game.make(["p1", "p2"], [names, names], [u1, u2])
    region = RectRegion.make([range(col_base, dummy_base)] * 2)
    return game, region, ExtValue(1)


def coloring_forward_promise(
    graph: ColoringInstance, phi: Sequence[int]
) -> PaymentPromise:
    """Certificate promise from a proper coloring: each chosen color choice
    gets 1 against the same vertex's other colors and against neighbors
    playing the same color; promises are symmetric between the players."""
    checked = ColoringInstance.make(graph.vertices, graph.edges, phi)
    assert checked.coloring is not None
    game, _, _ = coloring_to_exact(graph)
    col_base, _ = _coloring_layout(graph)
    col = functools.partial(_col, col_base)

    v1: dict[tuple[int, int], int] = {}
    for v in range(graph.n_vertices):
        c = checked.coloring[v]
        for d in COLORS:
            if d != c:
                v1[(col(v, c), col(v, d))] = 1
        for u in graph.neighbors(v):
            v1[(col(v, c), col(u, c))] = 1
    v2 = {(x, y): value for (y, x), value in v1.items()}
    return PaymentPromise.make(game, [v1, v2])


def decode_coloring(game: Game, promise: PaymentPromise) -> ColoringInstance:
    """Recover a proper coloring from a promise exactly implementing the
    color choices within budget 1: each vertex strategy must be dominated,
    for both players, by a color choice of the same vertex; the shared
    color is the vertex's color."""
    vertices: list[str] = []
    col_index: dict[tuple[int, int], int] = {}
    for idx, name in enumerate(game.strategies[0]):
        m = _VERTEX_STRAT.match(name)
        if m:
            if idx != len(vertices):
                raise ValueError("vertex strategies are not a contiguous prefix")
            vertices.append(m.group(1))
            continue
        m = _COLOR_STRAT.match(name)
        if m:
            if m.group(1) not in vertices:
                raise ValueError(f"color strategy {name!r} references an unknown vertex")
            col_index[(vertices.index(m.group(1)), int(m.group(2)))] = idx
    n = len(vertices)
    if not n or len(col_index) != 3 * n:
        raise ValueError("strategy names do not follow the coloring encoding")

    edges = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if game.utility(0, (a, col_index[(b, 1)])) == ExtValue(2)
    ]
    region = RectRegion.make([sorted(col_index.values())] * 2)
    if not verify(game, promise, region, ExtValue(1), "exact").holds:
        raise ValueError("promise does not exactly implement the color choices within budget 1")

    view = ModifiedGameView(game, promise)
    phi = []
    for v in range(n):
        shared = [
            c
            for c in COLORS
            if dominates(view, 0, col_index[(v, c)], v)
            and dominates(view, 1, col_index[(v, c)], v)
        ]
        if not shared:
            raise ValueError(
                f"no color choice of vertex {vertices[v]!r} dominates it for both players"
            )
        phi.append(shared[0])
    try:
        return ColoringInstance.make(vertices, edges, phi)
    except ValueError as exc:
        raise ValueError(f"decoded coloring is invalid: {exc}") from exc


def parse_edge_list(text: str) -> ColoringInstance:
    """Read a graph from an edge-list file: one "u v" pair per line, single
    tokens for isolated vertices, # starts a comment."""
    labels: list[str] = []
    seen: set[str] = set()
    raw_edges: list[tuple[str, str]] = []

    def note(label: str) -> None:
        if label not in seen:
            seen.add(label)
            labels.append(label)

    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) == 1:
            note(parts[0])
        elif len(parts) == 2:
            note(parts[0])
            note(parts[1])
            raw_edges.append((parts[0], parts[1]))
        else:
            raise ValueError(f"cannot parse edge line {line!r}")
    if not labels:
        raise ValueError("the edge list is empty")
    if all(re.fullmatch(r"-?[0-9]+", label) for label in labels):
        labels.sort(key=int)
    else:
        labels.sort()
    index = {label: k for k, label in enumerate(labels)}
    return ColoringInstance.make(
        labels, [(index[a], index[b]) for a, b in raw_edges]
    )
