"""The benchmark's tracer (``bench/tracing.py``) wraps gimpl functions by
name and reads some of their arguments by position. A rename or a deleted
function would make its metrics absent, so the names it needs are checked
here, reading the tracer as it is."""

import importlib.util
import inspect
from pathlib import Path

from gimpl import solver

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
