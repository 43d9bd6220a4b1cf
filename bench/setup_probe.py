"""One fresh-interpreter set-up: import a gimpl module, parse every gipf-1
document of a file (one per line), then print how many were parsed.

    python3 bench/setup_probe.py MODULE [DOCUMENTS]

run.py times this from process start to the printed line.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

importlib.import_module(sys.argv[1])
from gimpl import parse_instance  # noqa: E402

lines = Path(sys.argv[2]).read_text(encoding="utf-8").splitlines() if len(sys.argv) > 2 else []
documents = [parse_instance(line) for line in lines]
print(len(documents), flush=True)
