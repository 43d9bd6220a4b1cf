"""The mutation list (``tools/mutants.py``) stays applicable: every record's
snippet occurs exactly once in its file. A full mutation run takes minutes
and is run by hand."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def test_every_mutation_snippet_occurs_once():
    spec = importlib.util.spec_from_file_location("mutants", _TOOL)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    records = mutants.load()
    assert records
    assert {record["name"]: mutants.occurrences(record) for record in records} == {
        record["name"]: 1 for record in records
    }
