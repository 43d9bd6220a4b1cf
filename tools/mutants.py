"""Mutation list: each record breaks one check of the program on purpose and
names the tests that must catch it.

    python3 tools/mutants.py [--check]

The records are in ``tools/mutants.json``, a list of objects with

- ``name``: a short label;
- ``file``: a path relative to the repository root;
- ``snippet``: text that must occur exactly once in that file;
- ``replacement``: the text the snippet is replaced with;
- ``tests``: pytest node ids that must fail once it is.

A full run first runs every named test on the unchanged repository; each
must pass there. Then, for each record, it copies the
repository to a temporary directory, applies the record, runs only the
record's tests, and prints one line: ``killed``, ``SURVIVED`` (the tests
passed), ``ERROR`` (pytest could not run them) or ``STALE`` (the snippet
does not occur exactly once; such a record is reported, never skipped).
It exits 1 unless every record is killed. ``--check`` only checks that
each snippet occurs exactly once, which takes well under a second.
Standard library only, plus pytest for the runs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDS = Path(__file__).with_name("mutants.json")
_FIELDS = ("name", "file", "snippet", "replacement", "tests")
_IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "BENCH_*.json"
)


def load() -> list[dict]:
    """The records of ``tools/mutants.json``, each checked to carry every field, under a
    name no other record has, so each output line names one record."""
    records = json.loads(RECORDS.read_text(encoding="utf-8"))
    for record in records:
        if sorted(record) != sorted(_FIELDS) or not record["tests"]:
            raise ValueError(f"record {record.get('name')!r} needs exactly the fields {_FIELDS}")
    if len({record["name"] for record in records}) != len(records):
        raise ValueError("two records share a name")
    return records


def occurrences(record: dict) -> int:
    """How often the record's snippet occurs in its file."""
    path = ROOT / record["file"]
    return path.read_text(encoding="utf-8").count(record["snippet"]) if path.is_file() else 0


def _pytest(tree: Path, tests: list[str]) -> int:
    """pytest's exit code for ``tests`` run in ``tree``."""
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=tree, capture_output=True).returncode


def _verdict(record: dict) -> str:
    """Apply ``record`` to a fresh copy and run its tests there."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORED)
        path = tree / record["file"]
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(record["snippet"], record["replacement"]), encoding="utf-8")
        code = _pytest(tree, record["tests"])
    return {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="only check that each snippet occurs once")
    args = parser.parse_args()
    live = []
    failed = False
    for record in load():
        count = occurrences(record)
        if count != 1:
            print(f"STALE {record['name']}: the snippet occurs {count} times in {record['file']}")
            failed = True
        else:
            live.append(record)
    if args.check:
        return int(failed)
    named = sorted({test for record in live for test in record["tests"]})
    if named and _pytest(ROOT, named) != 0:
        print("the named tests do not all pass on the unchanged tree; no record was run")
        return 1
    for record in live:
        verdict = _verdict(record)
        print(f"{verdict} {record['name']}", flush=True)
        failed = failed or verdict != "killed"
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
