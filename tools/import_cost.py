"""Print what ``import orbichern.cli`` and each command cost a fresh interpreter.

Three figures, each from fresh processes on the checkout's ``src/``:

* the modules ``import orbichern.cli`` adds to those a bare interpreter
  already holds (so a module the site preloads does not count);
* the ``orbichern.*`` modules that ``python -m orbichern`` loads for
  ``check`` on the Kummer file, ``group E8`` and ``identity --n 12
  --which type_a``;
* the median wall time of ``import orbichern.cli`` over 15 processes,
  with the package compiled cold: every process runs with ``-B`` on its
  own copy of ``src/orbichern`` without ``__pycache__``, so it reads no
  byte-code file of the package and writes none, as a benchmark worker
  runs a fresh checkout with ``PYTHONDONTWRITEBYTECODE=1``.

Run from anywhere: ``python3 tools/import_cost.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src"
RUNS = 15
KUMMER = {
    "kind": "isolated_points",
    "chi_structure_sheaf": 2,
    "c1_squared": "0",
    "points": ["A1"] * 16,
    "canonical_nef_asserted": True,
}
COMMANDS = (["group", "E8"], ["identity", "--n", "12", "--which", "type_a"])  # after check KUMMER


def _cold(args: list[str]) -> subprocess.CompletedProcess:
    """``python -B *args`` on a fresh copy of the package without ``__pycache__``,
    first on PYTHONPATH: the package is compiled from source, no byte-code file
    of it is read or written, and the standard library loads as it always does."""
    with tempfile.TemporaryDirectory() as copy:
        shutil.copytree(SOURCE / "orbichern", Path(copy, "orbichern"), ignore=shutil.ignore_patterns("__pycache__"))
        path = os.pathsep.join(filter(None, (copy, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run([sys.executable, "-B", *args], capture_output=True, text=True, env=env)


def _run(script: str) -> str:
    """stdout of ``script`` in a fresh interpreter, compiled cold."""
    result = _cold(["-c", script])
    result.check_returncode()
    return result.stdout


def added_modules() -> set[str]:
    """The modules ``import orbichern.cli`` adds to those a bare interpreter holds."""
    script = "import sys; bare = set(sys.modules); import orbichern.cli; print(*set(sys.modules) - bare)"
    return set(_run(script).split())


def command_modules(argv: list[str]) -> tuple[int, set[str]]:
    """(exit code, the ``orbichern.*`` modules loaded) of a fresh ``python -m orbichern *argv``,
    run as ``-m`` runs it (``runpy``), with the module names as its last stderr line."""
    script = (
        "import atexit, runpy, sys; "
        "atexit.register(lambda: print(*[m for m in sys.modules if m.partition('.')[0] == 'orbichern'], "
        "file=sys.stderr)); "
        f"sys.argv[1:] = {argv!r}; runpy.run_module('orbichern', run_name='__main__', alter_sys=True)"
    )
    result = _cold(["-c", script])
    return result.returncode, set(result.stderr.splitlines()[-1].split())


def main() -> int:
    added = sorted(added_modules())
    print(f"modules added by import orbichern.cli ({len(added)}):")
    for name in added:
        print(f"  {name}")
    with tempfile.TemporaryDirectory() as work:
        kummer = Path(work) / "kummer.json"
        kummer.write_text(json.dumps(KUMMER))
        for argv in (["check", str(kummer)], *COMMANDS):
            code, modules = command_modules(argv)
            shown = "check KUMMER" if argv[0] == "check" else " ".join(argv)
            print(f"python -m orbichern {shown}: exit {code}, loads {', '.join(sorted(modules))}")
    timed = "import time; t = time.perf_counter(); import orbichern.cli; print(time.perf_counter() - t)"
    seconds = [float(_run(timed)) for _ in range(RUNS)]
    median_ms = statistics.median(seconds) * 1000
    print(f"import orbichern.cli, compiled cold: median {median_ms:.2f} ms over {RUNS} fresh processes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
