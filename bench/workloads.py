"""The three workloads: their set-up documents, one operation each, and the
checks of each operation's output.

Every operation calls gimpl through module attributes at call time, so the
traced run sees the calls through its wrappers.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs

import gimpl
import gimpl.cli
import gimpl.reductions


class OpFailed(Exception):
    """The program reported a failure (a non-zero exit code)."""


class Workload:
    name = ""
    module = "gimpl"  # what a fresh interpreter imports during set-up
    out_bytes = 0  # bytes the program printed, counted by the cli workload

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.raw: list[dict] = []
        self.parsed: list = []

    def documents(self) -> list[str]:
        """The gipf-1 texts a set-up parses."""
        return [json.dumps(doc) for doc in self.raw]

    def prepare(self, parsed: list) -> None:
        self.parsed = parsed

    def __len__(self) -> int:
        return len(self.raw)

    def op(self, i: int) -> tuple[float, object]:
        """Run operation i; return its timed seconds and a record to check."""
        raise NotImplementedError

    def same(self, first: object, later: object) -> bool:
        return first == later

    def check(self, i: int, record: object) -> list[str]:
        raise NotImplementedError


class Scan(Workload):
    """min_budget_solve on criterion-11-family instances (|F| = 65,536)."""

    name = "scan"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.raw = inputs.scan_docs(seed)

    def op(self, i):
        doc = self.parsed[i]
        start = time.perf_counter()
        result = gimpl.min_budget_solve(doc.game, doc.region)
        return time.perf_counter() - start, result

    def check(self, i, result):
        return checks.check_scan(self.raw[i], self.parsed[i], result)


class Sweep(Workload):
    """min_budget_solve + verify + is_pne on thousands of small instances."""

    name = "sweep"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.raw = inputs.sweep_docs(seed)

    def op(self, i):
        doc = self.parsed[i]
        start = time.perf_counter()
        result = gimpl.min_budget_solve(doc.game, doc.region)
        report = gimpl.verify(doc.game, result.promise, doc.region, result.delta)
        stable = gimpl.is_pne(doc.game, doc.region)
        elapsed = time.perf_counter() - start
        return elapsed, (result.delta, result.mapping, report.holds, stable.holds)

    def check(self, i, record):
        return checks.check_sweep(self.parsed[i], record)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the gimpl entry point in this process, stdout captured."""
    saved = sys.stdout, sys.argv
    sys.stdout = buffer = io.StringIO()
    sys.argv = ["gimpl", *argv]
    try:
        gimpl.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout, sys.argv = saved
    return code, buffer.getvalue()


_INSTANCE_KEY = '\n  "instance": '


def split_solve_output(text: str) -> tuple[object, str]:
    """The delta and the emitted instance of a ``solve`` output, without
    decoding the whole (multi-megabyte) document: ``instance`` is its last key."""
    cut = text.find(_INSTANCE_KEY)
    if cut < 0:
        return None, ""
    head = json.loads(text[:cut].rstrip().rstrip(",") + "}")
    body = text[cut + len(_INSTANCE_KEY) : text.rstrip().rindex("}")]
    return head.get("delta"), body


@dataclass(frozen=True)
class CliRecord:
    codes: tuple[int, int, int]
    delta: object
    digest: str  # of the whole solve output
    verdict: dict
    gen_text: str


class Cli(Workload):
    """gen x3c (graphical, n = 2) -> solve -> verify through the CLI entry point."""

    name = "cli"
    module = "gimpl.cli"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.seeds = inputs.cli_seeds(seed)

    def documents(self):
        return []

    def __len__(self):
        return len(self.seeds)

    def _path(self, i: int, what: str) -> Path:
        return self.scratch / f"cli-{i}-{what}.json"

    def op(self, i):
        gen_argv = ["gen", "x3c", "--n", str(inputs.CLI_N_HAT), "--seed", str(self.seeds[i]),
                    "--force", "yes", "--target", "graphical"]
        t0 = time.perf_counter()
        gen_code, gen_text = run_cli(gen_argv)
        t1 = time.perf_counter()
        self._path(i, "gen").write_text(gen_text, encoding="utf-8")
        t2 = time.perf_counter()
        solve_code, solved = run_cli(["solve", str(self._path(i, "gen"))])
        t3 = time.perf_counter()
        delta, instance_text = split_solve_output(solved)
        self._path(i, "solved").write_text(instance_text, encoding="utf-8")
        t4 = time.perf_counter()
        verify_code, verdict = run_cli(["verify", str(self._path(i, "solved"))])
        t5 = time.perf_counter()
        codes = (gen_code, solve_code, verify_code)
        if any(codes):
            raise OpFailed(f"exit codes {list(codes)}")
        # the outputs are JSON with ASCII escapes, so characters are bytes
        self.out_bytes += len(gen_text) + len(solved) + len(verdict)
        record = CliRecord(codes, delta, hashlib.sha256(solved.encode()).hexdigest(),
                           json.loads(verdict), gen_text)
        return (t1 - t0) + (t3 - t2) + (t5 - t4), record

    def check(self, i, record):
        solved_text = self._path(i, "solved").read_text(encoding="utf-8")
        problems = checks.check_cli(inputs.CLI_N_HAT, record.codes, record.delta,
                                    solved_text, record.verdict)
        return problems + self.check_decode(i, json.loads(record.gen_text))

    def check_decode(self, i: int, gen_doc: dict) -> list[str]:
        """decode --kind x3cgraph on a forward-certificate document must
        return an exact cover of the instance's triples."""
        n_hat = inputs.CLI_N_HAT
        triples = checks.triples_of(gen_doc)
        cover = checks.find_cover(triples, n_hat)
        if cover is None:
            return ["the planted instance has no exact cover"]
        instance = gimpl.reductions.X3CInstance.make(n_hat, triples)
        budget = gimpl.ExtValue(gen_doc["budget"])
        promise = gimpl.reductions.x3c_forward_promise_graphical(instance, cover, budget)
        certificate = dict(gen_doc, promise=[
            {"player": p, "profile": list(key), "value": value.to_json()}
            for p, table in enumerate(promise.entries)
            for key, value in sorted(table.items())
        ])
        path = self._path(i, "certificate")
        path.write_text(json.dumps(certificate), encoding="utf-8")
        code, out = run_cli(["decode", "--kind", "x3cgraph", str(path)])
        if code != 0:
            return [f"decode exited {code}"]
        return checks.check_cover(triples, n_hat, json.loads(out).get("cover", []))


WORKLOADS = {cls.name: cls for cls in (Scan, Sweep, Cli)}
