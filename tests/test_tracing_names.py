"""The benchmark's tracer (``bench/tracing.py``) wraps gimpl functions by
name and reads some of their arguments by position. A rename or a deleted
function would make its metrics absent, so the names it needs are checked
here, reading the tracer as it is, and one traced round of each workload
must end with a correct result."""

import importlib.util
import inspect
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gimpl import solver

from _support import random_game, random_region

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_TRACING = _BENCH / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()
        assert tracer.absent_metrics() == []
    finally:
        tracer.uninstall()


def test_scan_assignments_keeps_its_positional_bounds():
    # the tracer counts assignments as args[3] - args[2]
    leading = list(inspect.signature(solver._scan_assignments).parameters.values())[:4]
    assert [p.name for p in leading] == ["game", "region", "start", "stop"]
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    assert all(p.kind in positional for p in leading)


def test_payment_vectors_keep_the_layout_the_tracer_counts():
    # solver.vector_candidates sums len(result[1][i]) over the players: one
    # vector per (undesired, target) option, each over the whole region
    rng = random.Random(11)
    for _ in range(30):
        game = random_game(rng)
        region = random_region(rng, game)
        domains = [region.complement(game, i) for i in range(game.n_players)]
        per_player = solver._payment_vectors(game, region, domains)[1]
        size = math.prod(map(len, region.sets))
        assert len(per_player) == game.n_players
        for i, vectors in enumerate(per_player):
            assert len(vectors) == len(domains[i]) * len(region.sets[i])
            assert all(len(vector) == size for vector in vectors)


@pytest.mark.parametrize("workload", ["scan", "sweep", "cli"])
def test_traced_run_ends_with_a_correct_result(workload):
    # one traced round per workload, as the per-layer benchmark runs it
    proc = subprocess.run(
        [sys.executable, str(_BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert "absent:" not in proc.stderr
