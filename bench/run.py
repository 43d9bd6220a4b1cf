"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload scan|sweep|cli --seed N --seconds S --trace 0|1

One process, one thread, operations back to back (a closed loop with one
caller). The run generates its inputs from the seed, times set-up in fresh
interpreters, runs whole rounds of operations for about S seconds, then
checks every output apart from the solver. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it runs exactly one round under the
tracer and reports per-layer totals instead. Result and trace files go to
.bench_out/ at the repository root. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# Fresh-interpreter set-ups per run; their median is setup_s, because one
# cold start alone is too jittery.
SETUP_PROBES = 9

DIFFERS = "output differs from the first round"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class SetupProbes:
    """Fresh-interpreter set-ups, each timed from spawning the interpreter to
    its having imported the workload's gimpl module and parsed every input
    document. They are spread evenly over the timed phase, between
    operations, so that they meet the same machine conditions as the
    operations do; their median is setup_s."""

    def __init__(self, module: str, texts: list[str], scratch: Path, seconds: float):
        self.path = scratch / "setup-documents.jsonl"
        self.path.write_text("".join(text + "\n" for text in texts), encoding="utf-8")
        self.command = [sys.executable, str(BENCH / "setup_probe.py"), module, str(self.path)]
        self.expected = str(len(texts))
        self.seconds = seconds
        self.samples: list[float] = []

    def _probe(self) -> None:
        start = time.perf_counter()
        with subprocess.Popen(self.command, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != self.expected:
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode}, said {line!r})")
        self.samples.append(elapsed)

    def between_ops(self, busy: float) -> None:
        """Run the next probe once ``busy`` seconds of the phase reach its slot."""
        due = self.seconds * (len(self.samples) + 0.5) / SETUP_PROBES
        if len(self.samples) < SETUP_PROBES and busy >= due:
            self._probe()

    def median(self) -> float:
        while len(self.samples) < SETUP_PROBES:
            self._probe()
        return statistics.median(self.samples)


def run_rounds(workload, seconds: float, one_round: bool, tracer=None, probes=None):
    """Whole rounds over every operation, stopping at the round boundary
    nearest to ``seconds`` of the phase (set-up probes not counted), after
    at least one round. Returns the timed seconds of each completed
    operation, each operation's first record, and one (index, problem or
    None) per attempted operation."""
    times: list[float] = []
    first: dict[int, object] = {}
    outcomes: list[tuple[int, str | None]] = []
    start = time.perf_counter()
    probing = 0.0
    while True:
        round_start = time.perf_counter()
        round_probing = probing
        for i in range(len(workload)):
            if tracer is not None:
                tracer.op = i
            try:
                elapsed, record = workload.op(i)
            except Exception as exc:  # one failed operation; the run goes on
                outcomes.append((i, f"failed: {exc!r}"))
                continue
            times.append(elapsed)
            if i not in first:
                first[i] = record
                outcomes.append((i, None))
            else:
                outcomes.append((i, None if workload.same(first[i], record) else DIFFERS))
            if probes is not None:
                probe_start = time.perf_counter()
                probes.between_ops(probe_start - start - probing)
                probing += time.perf_counter() - probe_start
        now = time.perf_counter()
        busy = now - start - probing
        round_busy = now - round_start - (probing - round_probing)
        if one_round or busy + round_busy / 2 > seconds:
            return times, first, outcomes


def check_outputs(workload, first, outcomes) -> tuple[bool, int, list[str]]:
    """Whether every output is right, how many operations failed, and why."""
    wrong: dict[int, list[str]] = {}
    for i, record in first.items():
        try:
            problems = workload.check(i, record)
        except Exception as exc:  # a check that cannot run rejects the output
            problems = [f"check raised {exc!r}"]
        if problems:
            wrong[i] = problems
    notes = [f"op {i}: {p}" for i, problems in sorted(wrong.items()) for p in problems]
    notes += [f"op {i}: {problem}" for i, problem in outcomes if problem is not None]
    failed = sum(1 for i, problem in outcomes if problem is not None or i in wrong)
    # an operation that failed gave no answer; a wrong or changing answer is incorrect
    correct = not wrong and all(problem != DIFFERS for _, problem in outcomes)
    return correct, failed, notes


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gimpl" / "__init__.py").is_file():
        print(f"bench: no gimpl sources in {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gimpl
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        texts = workload.documents()
        tracer = probes = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        else:
            probes = SetupProbes(workload.module, texts, scratch, args.seconds)
        workload.prepare([gimpl.parse_instance(text) for text in texts])
        del texts
        # the parsed inputs are the benchmark's; frozen, the collector's
        # full passes during operations do not scan them
        gc.collect()
        gc.freeze()

        times, first, outcomes = run_rounds(workload, args.seconds, bool(args.trace), tracer, probes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
        if not times:
            print(f"bench: every operation failed: {outcomes[0][1]}", file=sys.stderr)
            return 1

        correct, failed, notes = check_outputs(workload, first, outcomes)
        for note in notes[:20]:
            print(f"bench: {note}", file=sys.stderr)

        op_p50_ms = statistics.median(times) * 1000
        if tracer is None:
            metrics = {
                "setup_s": {"value": probes.median(), "unit": "s"},
                "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
                "ops_per_s": {"value": len(times) / sum(times), "unit": "ops/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        else:
            tracer.counts["cli.out_bytes"] += workload.out_bytes
            metrics = tracer.metrics()
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                      "ops": len(times), "op_p50_ms": op_p50_ms})
            absent = tracer.absent_metrics()
            print(f"bench: traced one round of {len(times)} ops, op_p50_ms {op_p50_ms:.3f}, "
                  f"trace in {trace_path.relative_to(ROOT)}"
                  + (f"; absent: {', '.join(absent)}" if absent else ""), file=sys.stderr)

        result = {"correct": correct, "attempted": len(outcomes), "failed": failed,
                  "metrics": metrics}
        line = json.dumps(result)
        (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
            line + "\n", encoding="utf-8")
        print(line)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
