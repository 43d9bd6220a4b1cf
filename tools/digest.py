"""Results digest: one sha256 per benchmark corpus, so that a change which
claims to keep every result can show it.

    python3 tools/digest.py [--limit N] [--against REF]

The corpora are the benchmark's documents, made by the generators of
``bench/inputs.py``:

- ``scan``: the criterion-11-family documents of seed 3;
- ``sweep``: the 2,000 small random instances of seed 400;
- ``cli``: the two X3C graphical documents (n_hat = 2) that ``gimpl gen``
  makes for the seeds that seed 7 draws.

For a ``scan`` or ``sweep`` document the hash takes ``min_budget_solve``'s
delta and mapping, the solved instance as ``serialize_instance`` writes it,
``verify`` of that promise at delta in both modes, and ``is_pne``. For a
``cli`` document it takes the bytes and exit codes of ``gimpl gen`` and
``gimpl solve``, ``verify`` in both modes of the instance that ``solve``
emits, and ``is_pne`` of the graphical game. ``--limit N`` hashes only the
first N documents of each corpus.

``--against REF`` also hashes the corpora in a ``git worktree`` of REF,
with this script's code but REF's ``src/`` and ``bench/inputs.py``, prints
both digests and exits 1 if any corpus differs. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCAN_SEED, SWEEP_SEED, CLI_SEED = 3, 400, 7


def _run_cli(tree: Path, *argv: str) -> tuple[int, str]:
    """Exit code and output of one ``gimpl`` command line, run on ``tree``'s
    package in a child process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    child = subprocess.run([sys.executable, "-m", "gimpl.cli", *argv], capture_output=True,
                           text=True, env=env)
    return child.returncode, child.stdout


def _verdicts(gimpl, game, promise, region, budget) -> list:
    reports = [gimpl.verify(game, promise, region, budget, mode) for mode in ("subset", "exact")]
    return [
        [r.mode, r.holds, r.cost.to_json(), r.budget.to_json(), r.undominated_region.sets,
         r.violation]
        for r in reports
    ]


def _stability(gimpl, game, region) -> list:
    report = gimpl.is_pne(game, region)
    return [report.holds, report.defector, report.assignments]


def _solved(gimpl, doc) -> list:
    result = gimpl.min_budget_solve(doc.game, doc.region)
    written = gimpl.serialize_instance(
        gimpl.InstanceDoc(game=doc.game, region=doc.region, budget=result.delta,
                          promise=result.promise)
    )
    return [
        result.delta.to_json(), result.mapping.domains, result.mapping.targets, written,
        _verdicts(gimpl, doc.game, result.promise, doc.region, result.delta),
        _stability(gimpl, doc.game, doc.region),
    ]


def _cli(gimpl, tree: Path, n_hat: int, seed: int, scratch: Path) -> list:
    gen_code, gen_text = _run_cli(tree, "gen", "x3c", "--n", str(n_hat), "--seed", str(seed),
                                  "--force", "yes", "--target", "graphical")
    path = scratch / "gen.json"
    path.write_text(gen_text, encoding="utf-8")
    solve_code, solved = _run_cli(tree, "solve", str(path))
    doc = gimpl.parse_instance(gen_text)
    emitted = gimpl.parse_instance(json.dumps(json.loads(solved)["instance"]))
    return [
        gen_code, gen_text, solve_code, hashlib.sha256(solved.encode()).hexdigest(),
        _verdicts(gimpl, emitted.game, emitted.promise, emitted.region, emitted.budget),
        _stability(gimpl, doc.game, doc.region),
    ]


def digest_lines(tree: Path, limit: int | None) -> list[str]:
    """One ``corpus sha256 documents`` line per corpus, computed with
    ``tree``'s package and input generators."""
    tree = tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import gimpl
    import inputs

    for module in (gimpl, inputs):
        if not Path(module.__file__).resolve().is_relative_to(tree):
            raise RuntimeError(f"{module.__name__} was loaded from {module.__file__}, not {tree}")

    def parsed(docs):
        return [gimpl.parse_instance(json.dumps(raw)) for raw in docs[:limit]]

    with tempfile.TemporaryDirectory() as scratch:
        records = {
            "scan": [_solved(gimpl, doc) for doc in parsed(inputs.scan_docs(SCAN_SEED))],
            "sweep": [_solved(gimpl, doc) for doc in parsed(inputs.sweep_docs(SWEEP_SEED))],
            "cli": [
                _cli(gimpl, tree, inputs.CLI_N_HAT, seed, Path(scratch))
                for seed in inputs.cli_seeds(CLI_SEED)[:limit]
            ],
        }
    lines = []
    for name, listed in records.items():
        digest = hashlib.sha256()
        for record in listed:
            digest.update(json.dumps(record).encode() + b"\n")
        lines.append(f"{name} {digest.hexdigest()} {len(listed)}")
    return lines


def _in_worktree(ref: str, limit: int | None) -> list[str]:
    """The digest lines of ``ref``, computed in a child process on a
    temporary ``git worktree`` of it."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run([*git, "add", "--detach", "--quiet", str(tree), ref], check=True)
        try:
            argv = [sys.executable, __file__, "--tree", str(tree)]
            argv += [] if limit is None else ["--limit", str(limit)]
            child = subprocess.run(argv, capture_output=True, text=True)
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], check=True)
    if child.returncode != 0:
        raise RuntimeError(f"digest of {ref} failed:\n{child.stderr}")
    return child.stdout.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=int, help="hash only the first N documents of each corpus")
    parser.add_argument("--against", metavar="REF", help="also hash a git ref and compare")
    parser.add_argument("--tree", type=Path, default=ROOT, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be at least 1")
    here = digest_lines(args.tree, args.limit)
    if args.against is None:
        print("\n".join(here))
        return 0
    there = _in_worktree(args.against, args.limit)
    for mine, theirs in zip(here, there):
        name, digest, count = mine.split()
        if mine == theirs:
            print(f"{name} equal {digest} {count}")
        else:
            other = theirs.partition(" ")[2]
            print(f"{name} DIFFERS here {digest} {count}; {args.against} {other}")
    return 0 if here == there else 1


if __name__ == "__main__":
    sys.exit(main())
