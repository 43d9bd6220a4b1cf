"""Correctness checks that do not go through the solver.

Each check returns a list of problems; an empty list means the answer is
right. The expected values come from closed forms, from the definitional
oracle, or from sums computed here over the raw promise tables, never from
the solver's own code paths. The checks run after the timed phase.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Any, Iterable, Sequence

from gimpl import ZERO, oracle_min_budget, parse_instance, verify


def value_of(raw: Any) -> Fraction | float:
    """A gipf-1 value (int, "p/q" or "inf") as a Fraction or math.inf."""
    return math.inf if raw == "inf" else Fraction(raw)


def raw_tables(entries: Iterable[dict], n_players: int) -> list[dict[tuple, Fraction | float]]:
    """Sparse gipf-1 entries as one {profile: value} dict per player."""
    tables: list[dict[tuple, Fraction | float]] = [{} for _ in range(n_players)]
    for entry in entries:
        tables[entry["player"]][tuple(entry["profile"])] = value_of(entry["value"])
    return tables


def promise_tables(promise) -> list[dict[tuple, Fraction | float]]:
    """A PaymentPromise's entries, re-read through their JSON form."""
    return [{key: value_of(v.to_json()) for key, v in t.items()} for t in promise.entries]


def worst_case_sum(tables: Sequence[dict], sets: Sequence[Sequence[int]]) -> Fraction | float:
    """Largest total promised payment over the profiles of a rectangular
    region, summed here entry by entry."""
    worst: Fraction | float = Fraction(0)
    for profile in itertools.product(*sets):
        total = sum((t.get(profile, 0) for t in tables), Fraction(0))
        if total > worst:
            worst = total
    return worst


def scan_expected_delta(doc: dict) -> Fraction:
    """Closed-form minimum budget for a two-player region O1 x {0}.

    Player 2 has one desired strategy, so each of player 1's undesired
    strategies x can be charged to its cheapest desired o independently:
    delta = max(max_o p2(o), max_x min_o (max(0, u1(x,0) - u1(o,0)) + p2(o))),
    with p2(o) = max(0, max_{y != 0} u2(o,y) - u2(o,0)).
    """
    sets = doc["region"]["sets"]
    if len(sets) != 2 or sets[1] != [0]:
        raise ValueError("the closed form needs two players and region O1 x {0}")
    n1, n2 = (len(p["strategies"]) for p in doc["players"])
    u1, u2 = raw_tables(doc["utilities"], 2)
    desired = sets[0]

    def p2(o: int) -> Fraction:
        return max(Fraction(0), max(u2.get((o, y), 0) - u2.get((o, 0), 0) for y in range(1, n2)))

    lift = {o: p2(o) for o in desired}
    charges = [
        min(max(Fraction(0), u1.get((x, 0), 0) - u1.get((o, 0), 0)) + lift[o] for o in desired)
        for x in range(n1)
        if x not in desired
    ]
    return max(list(lift.values()) + charges)


def check_scan(doc: dict, parsed, result) -> list[str]:
    """``parsed`` is the InstanceDoc of ``doc``; ``result`` a SolveResult."""
    problems = []
    delta = value_of(result.delta.to_json())
    expected = scan_expected_delta(doc)
    if delta != expected:
        problems.append(f"delta {delta} != closed form {expected}")
    if not verify(parsed.game, result.promise, parsed.region, result.delta).holds:
        problems.append(f"promise does not verify at delta {delta}")
    worst = worst_case_sum(promise_tables(result.promise), parsed.region.sets)
    if worst != delta:
        problems.append(f"worst-case promise sum {worst} != delta {delta}")
    return problems


def check_sweep(parsed, record) -> list[str]:
    """``record`` is (delta, mapping, verify holds, is_pne holds)."""
    delta, mapping, verified, stable = record
    problems = []
    oracle = oracle_min_budget(parsed.game, parsed.region)
    if delta != oracle.delta:
        problems.append(f"delta {delta} != oracle delta {oracle.delta}")
    if mapping not in oracle.all_optimal_mappings:
        problems.append("mapping is not among the oracle's optima")
    if not verified:
        problems.append(f"promise does not verify at delta {delta}")
    if stable != (delta == ZERO):
        problems.append(f"is_pne says {stable} but delta is {delta}")
    return problems


def check_cli(n_hat: int, codes: Sequence[int], delta: Any, solved_text: str, verdict: dict) -> list[str]:
    """One gen -> solve -> verify pipeline on an X3C graphical instance.

    With every set player on F no element is covered exactly once, and each
    element's gap is at most 1, so the minimum budget is 3 * n_hat.
    """
    problems = []
    if any(code != 0 for code in codes):
        problems.append(f"exit codes {list(codes)}")
    if delta is None or value_of(delta) != 3 * n_hat:
        problems.append(f"delta {delta} != 3 * n_hat = {3 * n_hat}")
    try:
        parse_instance(solved_text)
    except ValueError as exc:
        problems.append(f"solved instance does not parse back: {exc}")
        return problems
    raw = json.loads(solved_text)
    tables = raw_tables(raw.get("promise", []), len(raw["players"]))
    worst = worst_case_sum(tables, raw["region"]["sets"])
    if delta is None or worst != value_of(delta):
        problems.append(f"worst-case promise sum {worst} != delta {delta}")
    if verdict.get("status") != "yes" or verdict.get("holds") is not True:
        problems.append(f"verify answered {verdict.get('status')!r}")
    return problems


def triples_of(gen_doc: dict) -> list[tuple[int, ...]]:
    """The X3C triples behind a graphical gen document: set player 3n+j is
    joined to the elements of triple j."""
    n = sum(1 for p in gen_doc["players"] if p["name"].startswith("a"))
    members: dict[int, list[int]] = {}
    for a, b in gen_doc["edges"]:
        element, set_player = min(a, b), max(a, b)
        members.setdefault(set_player - n, []).append(element)
    return [tuple(sorted(members[j])) for j in sorted(members)]


def find_cover(triples: Sequence[tuple[int, ...]], n_hat: int) -> tuple[int, ...] | None:
    """First exact cover by brute force over n_hat-subsets of the triples."""
    for combo in itertools.combinations(range(len(triples)), n_hat):
        if not check_cover(triples, n_hat, combo):
            return combo
    return None


def check_cover(triples: Sequence[tuple[int, ...]], n_hat: int, cover: Sequence[int]) -> list[str]:
    """Whether ``cover`` picks n_hat disjoint triples covering 0..3n_hat-1."""
    if len(set(cover)) != len(cover) or len(cover) != n_hat:
        return [f"cover {list(cover)} does not hold {n_hat} distinct sets"]
    if not all(0 <= j < len(triples) for j in cover):
        return [f"cover {list(cover)} names a set that does not exist"]
    covered = sorted(x for j in cover for x in triples[j])
    if covered != list(range(3 * n_hat)):
        return [f"cover {list(cover)} covers {covered}, not each element once"]
    return []
