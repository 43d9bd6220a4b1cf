"""Seeded inputs for the benchmark workloads, as gipf-1 documents.

Standard library only: the documents are generated here, apart from gimpl,
and the program receives nothing but their text. The same seed always
gives the same documents.
"""

from __future__ import annotations

import itertools
import random

# The criterion-11 instance: a 12x3 game with utilities 0..4, desired region
# {0..3} x {0}, so the joint assignment space has 4^8 = 65,536 elements.
CRIT11_SEED = 20110
CRIT11_SIZES = (12, 3)
CRIT11_REGION = [[0, 1, 2, 3], [0]]

# One scan round solves this many criterion-11-family games: the
# criterion-11 instance, then games that share its searched entries and draw
# the others from the run seed. A solve's work varies about 4x between family
# members with their own searched entries (65,542 to 262,144 profile visits),
# so drawing members per seed made the seed set the run's speed; sharing the
# searched entries gives every solve the same search work (102,403 visits).
SCAN_INSTANCES = 8

# One sweep round visits this many small random instances.
SWEEP_INSTANCES = 2000

# The cli workload runs gen -> solve -> verify on this many X3C seeds per
# round, each with cover size CLI_N_HAT.
CLI_SEEDS = 2
CLI_N_HAT = 2


def _doc(sizes, utilities, region) -> dict:
    return {
        "format": "gipf-1",
        "kind": "normal",
        "players": [
            {"name": f"p{i + 1}", "strategies": [f"s{k}" for k in range(size)]}
            for i, size in enumerate(sizes)
        ],
        "utilities": utilities,
        "region": {"sets": region},
    }


def _random_utilities(rng: random.Random, sizes, n_tables: int, hi: int) -> list[dict]:
    """Sparse utility entries drawn uniformly from 0..hi, player by player,
    profiles in lexicographic order; zero entries are omitted."""
    entries = []
    for player in range(n_tables):
        for profile in itertools.product(*(range(s) for s in sizes)):
            value = rng.randint(0, hi)
            if value:
                entries.append({"player": player, "profile": list(profile), "value": value})
    return entries


def _searched(player: int, profile) -> bool:
    """Whether the minimum-budget search reads this utility entry of a
    criterion-11-family game: player 1's against player 2's desired
    strategy 0, player 2's on player 1's desired rows."""
    if player == 0:
        return profile[1] in CRIT11_REGION[1]
    return profile[0] in CRIT11_REGION[0]


def crit11_family_doc(family_seed: int, rest_seed: int | None = None) -> dict:
    """One criterion-11-family instance; ``CRIT11_SEED`` gives the
    criterion-11 instance itself. With ``rest_seed``, the entries the
    search does not read (48 of 72) are drawn from it instead: the game
    changes, while the search's work, the budget and the promise stay the
    same."""
    rng = random.Random(family_seed)
    utilities = _random_utilities(rng, CRIT11_SIZES, 2, 4)
    if rest_seed is None:
        return _doc(CRIT11_SIZES, utilities, CRIT11_REGION)
    rest = _random_utilities(random.Random(rest_seed), CRIT11_SIZES, 2, 4)
    merged = [e for e in utilities if _searched(e["player"], e["profile"])]
    merged += [e for e in rest if not _searched(e["player"], e["profile"])]
    merged.sort(key=lambda e: (e["player"], e["profile"]))
    return _doc(CRIT11_SIZES, merged, CRIT11_REGION)


def scan_docs(seed: int) -> list[dict]:
    """The criterion-11 instance, then games with its searched entries and
    their unread entries drawn from ``seed``."""
    rng = random.Random(seed)
    return [crit11_family_doc(CRIT11_SEED)] + [
        crit11_family_doc(CRIT11_SEED, rng.randrange(2**31))
        for _ in range(SCAN_INSTANCES - 1)
    ]


def sweep_doc(rng: random.Random) -> dict:
    """A small random instance: 2 or 3 players, 2..4 strategies each,
    utilities 0..4, and a region that is either the full product or leaves
    at least two players with undesired strategies."""
    n = rng.choice([2, 3])
    sizes = [rng.randint(2, 4) for _ in range(n)]
    utilities = _random_utilities(rng, sizes, n, 4)
    while True:
        sets = [sorted(rng.sample(range(size), rng.randint(1, size))) for size in sizes]
        shy = sum(1 for members, size in zip(sets, sizes) if len(members) < size)
        if shy != 1:
            return _doc(sizes, utilities, sets)


def sweep_docs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [sweep_doc(rng) for _ in range(SWEEP_INSTANCES)]


def cli_seeds(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(CLI_SEEDS)]
