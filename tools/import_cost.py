"""Print what ``import orbichern.cli`` costs a fresh interpreter.

Two figures: the modules the import adds to those a bare interpreter
already holds (so a module the site preloads does not count), and the
median wall time of the import over 15 fresh processes, each importing
the checkout's ``src/``.  Byte-code files are whatever the environment
leaves: set PYTHONDONTWRITEBYTECODE=1 and remove ``__pycache__`` to time
a cold compile.

Run from anywhere: ``python3 tools/import_cost.py``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src"
RUNS = 15


def _run(script: str) -> str:
    """stdout of ``script`` in a fresh interpreter with the checkout's src/ first on sys.path."""
    prefix = f"import sys; sys.path.insert(0, {str(SOURCE)!r}); "
    return subprocess.run(
        [sys.executable, "-c", prefix + script], capture_output=True, text=True, check=True
    ).stdout


def added_modules() -> set[str]:
    """The modules ``import orbichern.cli`` adds to those a bare interpreter holds."""
    script = "bare = set(sys.modules); import orbichern.cli; print(*set(sys.modules) - bare)"
    return set(_run(script).split())


def main() -> int:
    added = sorted(added_modules())
    print(f"modules added by import orbichern.cli ({len(added)}):")
    for name in added:
        print(f"  {name}")
    timed = "import time; t = time.perf_counter(); import orbichern.cli; print(time.perf_counter() - t)"
    seconds = [float(_run(timed)) for _ in range(RUNS)]
    median_ms = statistics.median(seconds) * 1000
    print(f"import orbichern.cli: median {median_ms:.2f} ms over {RUNS} fresh processes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
