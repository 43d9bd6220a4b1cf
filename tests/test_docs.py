"""README's library quick start runs as written, its figures for the shared
table are the code's, and every name the package exports resolves."""

import contextlib
import io
import re
from pathlib import Path

import gimpl
from gimpl import model

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_prints_what_its_comments_say():
    text = _README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(_README), "exec"), {})
    assert out.getvalue().splitlines() == ["1", "True 1"]


def test_every_exported_name_resolves():
    assert [name for name in gimpl.__all__ if not hasattr(gimpl, name)] == []


def test_readme_states_the_shared_tables_figures_of_the_code():
    text = " ".join(_README.read_text(encoding="utf-8").split())
    (paragraph,) = re.findall(r"Only small pieces are kept: .*? past that\.", text)
    figures = [
        int(figure.replace(",", ""))
        for figure in re.findall(
            r"ints of at most ([\d,]+) bits, strings of at most ([\d,]+) characters, and "
            r"tuples of at most ([\d,]+) such items with at most ([\d,]+) characters of "
            r".*? holds at most ([\d,]+) pieces",
            paragraph,
        )[0]
    ]
    assert figures == [
        model._SHARED_BITS, model._SHARED_TEXT, model._SHARED_ITEMS, model._SHARED_TEXT,
        model._SHARED_MAX,
    ]
