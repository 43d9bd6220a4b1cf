"""Fixture games used across the suite.

EX1 is the worked 3x2 example (one player with strategies s1..s3, one with
t1, t2) together with its two known promises; CE1 is the 2x2 game on which
the all-zero promise is not an exact implementation.
"""

import os
from pathlib import Path

import pytest
from hypothesis import settings

from gimpl import Game, PaymentPromise, RectRegion, model

# every property test draws the same examples on every run (seeded from the
# test itself, no example database), so whether a property catches a fault
# does not depend on the run; each test keeps its own ``max_examples``
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

# the CLI tests run ``python -m gimpl.cli`` in child processes, which find the
# package through PYTHONPATH as this process finds it through pytest's
# ``pythonpath`` setting, with or without an install
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def fresh_shared():
    """The process's one table of shared model pieces and decoded values,
    empty for one test and refilled after it, so tests see none of each
    other's pieces."""
    table = model._SHARED
    kept = dict(table)
    table.clear()
    yield table
    table.clear()
    table.update(kept)


@pytest.fixture
def ex1() -> Game:
    return Game.make(
        ["p1", "p2"],
        [["s1", "s2", "s3"], ["t1", "t2"]],
        [
            {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 0, (2, 0): 0, (2, 1): 1},
            {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1, (2, 0): 0, (2, 1): 0},
        ],
    )


@pytest.fixture
def ex1_region() -> RectRegion:
    # O = {s1, s3} x {t1}
    return RectRegion.make([[0, 2], [0]])


@pytest.fixture
def ex1_promise(ex1) -> PaymentPromise:
    # pay p1 one extra and p2 a tenth extra at (s1, t1); costs 11/10
    return PaymentPromise.make(ex1, [{(0, 0): 1}, {(0, 0): "1/10"}])


@pytest.fixture
def ex1_promise_cheap(ex1) -> PaymentPromise:
    # p2's tenth moves to (s2, t1), which ends up dominated; costs 1
    return PaymentPromise.make(ex1, [{(0, 0): 1}, {(1, 0): "1/10"}])


@pytest.fixture
def ce1() -> Game:
    return Game.make(
        ["p1", "p2"],
        [["s1", "s2"], ["s1", "s2"]],
        [
            {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 0},
            {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 0},
        ],
    )


@pytest.fixture
def ce1_region() -> RectRegion:
    # O = {s1, s2} x {s1}
    return RectRegion.make([[0, 1], [0]])
