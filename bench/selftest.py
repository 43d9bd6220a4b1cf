"""Show that every output check of the benchmark bites.

    python3 bench/selftest.py

Each check first gets a right answer, which it must accept, then perturbed
answers (delta + 1, a dropped promise entry, a non-optimal mapping, a
non-cover, ...), each of which it must reject. Prints one line per case and
exits 1 if any check accepts a wrong answer or rejects a right one.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

import gimpl  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, problems: list[str], accept: bool) -> None:
    ok = not problems if accept else bool(problems)
    verdict = "accepted" if not problems else f"rejected ({problems[0]})"
    print(f"{'PASS' if ok else 'FAIL'} {name}: {verdict}")
    if not ok:
        FAILURES.append(name)


def drop_first_lift(promise, players) -> gimpl.PaymentPromise:
    """The promise without its first finite positive entry among ``players``.

    Every finite entry the solver writes is the exact gap its dominator
    needs, so dropping one leaves an undesired strategy undominated."""
    tables = [dict(table) for table in promise.entries]
    for player in players:
        for key, value in sorted(tables[player].items()):
            if value.is_finite and value > gimpl.ZERO:
                del tables[player][key]
                return dataclasses.replace(promise, entries=tuple(tables))
    raise ValueError("the promise has no finite positive entry to drop")


def scan_cases() -> None:
    raw = inputs.crit11_family_doc(inputs.CRIT11_SEED)
    parsed = gimpl.parse_instance(json.dumps(raw))
    result = gimpl.min_budget_solve(parsed.game, parsed.region)
    expect("scan: solver answer", checks.check_scan(raw, parsed, result), True)
    wrong_delta = dataclasses.replace(result, delta=result.delta + 1)
    expect("scan: delta + 1", checks.check_scan(raw, parsed, wrong_delta), False)
    # player 2 has one desired strategy, so its lifts cannot be replaced
    dropped = dataclasses.replace(result, promise=drop_first_lift(result.promise, [1]))
    expect("scan: dropped promise entry", checks.check_scan(raw, parsed, dropped), False)


def sweep_cases() -> None:
    workload = workloads.Sweep(0, Path("."))
    workload.prepare([gimpl.parse_instance(text) for text in workload.documents()])
    for i in range(len(workload)):
        _, record = workload.op(i)
        doc = workload.parsed[i]
        landscape = gimpl.oracle_min_budget(doc.game, doc.region).per_mapping_costs
        if record[0] > gimpl.ZERO and max(landscape.values()) > record[0]:
            break
    delta, mapping, verified, stable = record
    expect(f"sweep: solver answer (instance {i})", checks.check_sweep(doc, record), True)
    expect("sweep: delta + 1", checks.check_sweep(doc, (delta + 1, mapping, verified, stable)), False)
    worse = next(m for m, cost in landscape.items() if cost > delta)
    expect("sweep: non-optimal mapping", checks.check_sweep(doc, (delta, worse, verified, stable)), False)
    result = gimpl.min_budget_solve(doc.game, doc.region)
    players = range(doc.game.n_players)
    dropped = drop_first_lift(result.promise, players)
    holds = gimpl.verify(doc.game, dropped, doc.region, delta).holds
    expect("sweep: dropped promise entry", checks.check_sweep(doc, (delta, mapping, holds, stable)), False)
    expect("sweep: is_pne flipped", checks.check_sweep(doc, (delta, mapping, verified, not stable)), False)


def cli_cases(scratch: Path) -> None:
    workload = workloads.Cli(0, scratch)
    _, record = workload.op(0)
    solved = (scratch / "cli-0-solved.json").read_text(encoding="utf-8")
    n_hat = inputs.CLI_N_HAT

    def check(codes=record.codes, delta=record.delta, text=solved, verdict=record.verdict):
        return checks.check_cli(n_hat, codes, delta, text, verdict)

    expect("cli: pipeline answer", workload.check(0, record), True)
    expect("cli: delta + 1", check(delta=record.delta + 1), False)
    expect("cli: non-zero exit code", check(codes=(0, 1, 0)), False)

    doc = gimpl.parse_instance(solved)
    dropped = dataclasses.replace(doc, promise=drop_first_lift(doc.promise, range(3 * n_hat)))
    dropped_path = scratch / "dropped.json"
    dropped_path.write_text(gimpl.serialize_instance(dropped), encoding="utf-8")
    code, out = workloads.run_cli(["verify", str(dropped_path)])
    expect("cli: dropped promise entry",
           check(codes=(0, 0, code), text=dropped_path.read_text(encoding="utf-8"),
                 verdict=json.loads(out)), False)

    triples = checks.triples_of(json.loads(record.gen_text))
    cover = checks.find_cover(triples, n_hat)
    expect("cli: exact cover", checks.check_cover(triples, n_hat, cover), True)
    # a triple sharing an element with the cover's first one, so never a cover
    other = next(j for j in range(len(triples))
                 if j not in cover and set(triples[j]) & set(triples[cover[0]]))
    expect("cli: non-cover", checks.check_cover(triples, n_hat, (cover[0], other)), False)
    expect("cli: short cover", checks.check_cover(triples, n_hat, cover[:1]), False)


def main() -> int:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        scan_cases()
        sweep_cases()
        cli_cases(Path(scratch))
    print(f"{len(FAILURES)} failing case(s)" if FAILURES else "every check bites")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
