"""The results digest (``tools/digest.py``) on a 20-instance corpus: run
against a commit of the same code it reports the unchanged corpora equal, and
it names and fails on the corpus whose results a working-tree edit changes."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(shutil.which("git") is None, reason="the comparison needs git")
def test_digest_against_a_commit_names_the_corpus_an_edit_changes(tmp_path):
    repo = tmp_path / "repo"
    shutil.copytree(_ROOT / "src" / "gimpl", repo / "src" / "gimpl",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (repo / "bench").mkdir()
    shutil.copy(_ROOT / "bench" / "inputs.py", repo / "bench")
    (repo / "tools").mkdir()
    shutil.copy(_ROOT / "tools" / "digest.py", repo / "tools")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for step in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "corpus"]):
        subprocess.run([*git, *step], check=True, capture_output=True)
    # the solve output writes each mapping pair the other way round; the
    # library results of scan and sweep do not change
    cli = repo / "src" / "gimpl" / "cli.py"
    pair = "[[x, t] for x, t in zip(domain, targets)]"
    assert cli.read_text().count(pair) == 1
    cli.write_text(cli.read_text().replace(pair, "[[t, x] for x, t in zip(domain, targets)]"))

    proc = subprocess.run(
        [sys.executable, str(repo / "tools" / "digest.py"), "--limit", "20", "--against", "HEAD"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    digest = "[0-9a-f]{64}"
    assert [line.split()[:2] for line in lines] == [
        ["scan", "equal"], ["sweep", "equal"], ["cli", "DIFFERS"]
    ]
    assert re.fullmatch(f"scan equal {digest} 8", lines[0])
    assert re.fullmatch(f"sweep equal {digest} 20", lines[1])
    assert re.fullmatch(f"cli DIFFERS here {digest} 2; HEAD {digest} 2", lines[2])
    assert subprocess.run([*git, "worktree", "list"], capture_output=True, text=True,
                          check=True).stdout.count("\n") == 1  # the temporary worktree is gone
