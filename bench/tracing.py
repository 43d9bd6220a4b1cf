"""Per-layer spans and counters, recorded from outside the program.

The tracer wraps gimpl's functions by name in every gimpl module that
holds them, so calls made through ``from .x import f`` are caught too. A
span records its name, start, end, parent span and the operation it ran
in; a layer's self time is its span time minus the time of its child
spans. Counters are bumped at the same boundaries. A target that does not
exist at this commit is skipped and its metrics are reported as absent.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict
from types import ModuleType
from typing import Any, Callable

# (module, attribute, span name, counter name, count of one call from (args, result))
SPANS: list[tuple[str, str, str, str | None, Callable[[tuple, Any], int] | None]] = [
    ("gimpl.solver", "min_budget_solve", "solver.solve", None, None),
    ("gimpl.solver", "_scan_assignments", "solver.scan", "solver.assignments",
     lambda args, result: args[3] - args[2]),
    ("gimpl.solver", "_payment_vectors", "solver.vectors", "solver.vector_candidates",
     lambda args, result: sum(len(vectors) for vectors in result[1])),
    ("gimpl.solver", "compute_v", "solver.compute_v", None, None),
    ("gimpl.solver", "is_pne", "solver.pne", None, None),
    ("gimpl.model", "PaymentPromise.make", "model.promise_make", "model.promise_entries",
     lambda args, result: sum(len(table) for table in result.entries)),
    ("gimpl.model", "expand_graphical", "model.expand", "model.expand_profiles",
     lambda args, result: math.prod(args[0].sizes)),
    ("gimpl.checking", "verify", "checking.verify", None, None),
    ("gimpl.domination", "undominated", "domination.undominated", None, None),
    ("gimpl.instancefmt", "parse_instance", "instancefmt.parse", "instancefmt.parse_bytes",
     lambda args, result: len(args[0].encode("utf-8"))),
    ("gimpl.instancefmt", "instance_to_dict", "instancefmt.to_dict", None, None),
    ("gimpl.cli", "json.dump", "cli.dump", None, None),
    ("gimpl.reductions", "gen_x3c", "reductions.gen", None, None),
    ("gimpl.reductions", "x3c_to_graphical", "reductions.gen", None, None),
]

# (module, attribute, counter name): calls counted without a span
COUNTERS = [
    ("gimpl.model", "ModifiedGameView.payoff", "model.payoff_calls"),
    ("gimpl.values", "ExtValue.__init__", "values.extvalue_new"),
    ("gimpl.domination", "_beats", "domination.pair_tests"),
    ("gimpl.domination", "dominates", "domination.pair_tests"),
]

# per-layer metric -> (source, key, unit); "self" and "total" read span
# times, "count" reads a counter
METRICS = {
    "solver.scan_ms": ("self", "solver.scan", "ms"),
    "solver.assignments": ("count", "solver.assignments", "count"),
    "solver.vectors_ms": ("total", "solver.vectors", "ms"),
    "solver.vector_candidates": ("count", "solver.vector_candidates", "count"),
    "solver.solve_ms": ("total", "solver.solve", "ms"),
    "solver.compute_v_ms": ("total", "solver.compute_v", "ms"),
    "solver.pne_ms": ("total", "solver.pne", "ms"),
    "model.promise_make_ms": ("total", "model.promise_make", "ms"),
    "model.promise_entries": ("count", "model.promise_entries", "count"),
    "model.expand_ms": ("total", "model.expand", "ms"),
    "model.expand_profiles": ("count", "model.expand_profiles", "count"),
    "model.payoff_calls": ("count", "model.payoff_calls", "count"),
    "values.extvalue_new": ("count", "values.extvalue_new", "count"),
    "checking.verify_ms": ("total", "checking.verify", "ms"),
    "domination.undominated_ms": ("total", "domination.undominated", "ms"),
    "domination.pair_tests": ("count", "domination.pair_tests", "count"),
    "instancefmt.parse_ms": ("total", "instancefmt.parse", "ms"),
    "instancefmt.parse_bytes": ("count", "instancefmt.parse_bytes", "bytes"),
    "instancefmt.to_dict_ms": ("total", "instancefmt.to_dict", "ms"),
    "cli.dump_ms": ("total", "cli.dump", "ms"),
    "cli.out_bytes": ("count", "cli.out_bytes", "bytes"),
    "reductions.gen_ms": ("total", "reductions.gen", "ms"),
}


class _ModuleProxy:
    """Stands in for a foreign module inside one gimpl module, so that one
    of its functions can be wrapped there without touching it elsewhere."""

    def __init__(self, module: ModuleType):
        self._module = module

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int] | None] = []
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1  # index of the running operation; -1 during set-up
        self.absent: set[str] = set()
        self.origin = time.perf_counter()
        self._stack: list[list] = []
        self._undo: list[Callable[[], None]] = []

    # -- wrapping -----------------------------------------------------------

    def _span_wrapper(self, func, name, counter, count):
        stack, spans, totals, counts = self._stack, self.spans, self.totals, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][1] if stack else None
            spans.append(None)
            frame = [0.0, index]  # [seconds covered by child spans, span index]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                spans[index] = (name, start, end, parent, self.op)
                agg = totals[name]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
            if counter is not None:
                counts[counter] += count(args, result)
            return result

        return traced

    def _count_wrapper(self, func, counter):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return func(*args, **kwargs)

        return counted

    def _patch(self, module_name: str, attribute: str, make_wrapper) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, name = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or name not in getattr(owner, "__dict__", {}):
                return False
            if isinstance(owner, ModuleType):  # a foreign module used by this one
                proxy = _ModuleProxy(owner)
                setattr(proxy, name, make_wrapper(getattr(owner, name)))
                setattr(module, owner_name, proxy)
                self._undo.append(lambda: setattr(module, owner_name, owner))
                return True
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make_wrapper(raw.__func__))
            else:
                wrapped = make_wrapper(raw)
            setattr(owner, name, wrapped)
            self._undo.append(lambda: setattr(owner, name, raw))
            return True
        original = getattr(module, name, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gimpl" or mod_name.startswith("gimpl.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append(lambda mod=mod, attr=attr: setattr(mod, attr, original))
        return True

    def install(self) -> None:
        present: set[str] = set()
        missing: set[str] = set()
        for module, attribute, name, counter, count in SPANS:
            wrap = lambda f, n=name, c=counter, k=count: self._span_wrapper(f, n, c, k)
            keys = {name, counter} - {None}
            (present if self._patch(module, attribute, wrap) else missing).update(keys)
        for module, attribute, counter in COUNTERS:
            wrap = lambda f, c=counter: self._count_wrapper(f, c)
            (present if self._patch(module, attribute, wrap) else missing).add(counter)
        self.absent = missing - present

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        """Per-layer totals over everything traced; absent layers are left out."""
        out = {}
        for metric, (source, key, unit) in METRICS.items():
            if key in self.absent:
                continue
            if source == "count":
                value: float = self.counts.get(key, 0)
            else:
                calls, total, self_time = self.totals.get(key, (0, 0.0, 0.0))
                value = (self_time if source == "self" else total) * 1000
            out[metric] = {"value": value, "unit": unit}
        return out

    def absent_metrics(self) -> list[str]:
        return sorted(m for m, (_, key, _) in METRICS.items() if key in self.absent)

    def write(self, path, extra: dict) -> None:
        spans = [
            [name, (start - self.origin) * 1000, (end - self.origin) * 1000, parent, op]
            for name, start, end, parent, op in filter(None, self.spans)
        ]
        totals = {
            name: {"calls": calls, "total_ms": total * 1000, "self_ms": self_time * 1000}
            for name, (calls, total, self_time) in sorted(self.totals.items())
        }
        document = dict(extra, spans_columns=["name", "start_ms", "end_ms", "parent", "op"],
                        spans=spans, totals=totals, counters=dict(sorted(self.counts.items())),
                        absent=self.absent_metrics())
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
