"""README's library quick start runs as written, and every name the package
exports resolves."""

import contextlib
import io
import re
from pathlib import Path

import gimpl

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
