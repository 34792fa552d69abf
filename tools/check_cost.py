"""Print what one ``check`` command costs, stage by stage, per file.

``check`` on a fixed seeded set of valid description files, drawn by the
benchmark's own ``surface-checks`` generators (``perfbench.workloads``,
imported read-only: ``snc_description`` and ``points_description``, one
of the two per file), one line per stage: the best of 3 mean per-file
times, in microseconds, of

* read: ``cli._read_text``, the byte read and its one decode;
* json: the one reused JSON decoder on that text;
* records: the kind's schema reader in ``cli._KINDS``, which builds the
  description records (the rational and label caches);
* report: ``snc_report`` or ``isolated_points_report`` (the point-term cache);
* gerbe_scale: the report scaled by the file's gerbe order;
* text render and structured render: the two renders of the scaled
  report (the label-text cache).

Each stage is timed cold, every cache of ``check`` emptied before each
file, and warm, after one untimed pass over the set.  The last lines give
each cache's hits and misses after ``check`` has read every file once in
each format, from empty caches.  The read stage sees the operating
system's file cache warm in both columns.  Print only: the exit status
is 0 whenever the script runs.

Run from anywhere: ``python3 tools/check_cost.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from orbichern import cli, invariants  # noqa: E402
from perfbench.workloads import points_description, snc_description  # noqa: E402

RUNS = 3
FILES = 300
SEED = 20240
CACHES = {
    "rational literals": cli._cached_rational,
    "labels": cli._cached_label,
    "label texts": cli._label_text,
    "point terms": invariants.point_term,
}


def stages(paths: list) -> dict:
    """Per stage, a function of a file's index, and per file the inputs each
    stage takes, computed once outside the timings."""
    texts = [cli._read_text(path) for path in paths]
    fields, kinds, orders = [], [], []
    for text in texts:
        obj = cli._DECODER.decode(text)
        kinds.append(obj.pop("kind"))
        orders.append(obj.pop("gerbe_order", 1))
        fields.append(obj)
    descs = [cli._KINDS[kind](obj) for kind, obj in zip(kinds, fields)]
    reports = [
        invariants.snc_report(d) if kind == "snc_pair" else invariants.isolated_points_report(d)
        for kind, d in zip(kinds, descs)
    ]
    scaled = [invariants.gerbe_scale(r, k) for r, k in zip(reports, orders)]
    return {
        "read": lambda i: cli._read_text(paths[i]),
        "json": lambda i: cli._DECODER.decode(texts[i]),
        "records": lambda i: cli._KINDS[kinds[i]](fields[i]),
        "report": lambda i: (
            invariants.snc_report(descs[i]) if kinds[i] == "snc_pair"
            else invariants.isolated_points_report(descs[i])
        ),
        "gerbe_scale": lambda i: invariants.gerbe_scale(reports[i], orders[i]),
        "text render": lambda i: cli._render_report_text(scaled[i]),
        "structured render": lambda i: cli._render_report_structured(scaled[i]),
    }


def clear_caches() -> None:
    for cache in CACHES.values():
        cache.cache_clear()


def best_us(stage, count: int, cold: bool) -> float:
    """Best of RUNS mean per-file times of one stage over the set."""
    best = float("inf")
    for _ in range(RUNS):
        total = 0.0
        for index in range(count):
            if cold:
                clear_caches()
            start = time.perf_counter()
            stage(index)
            total += time.perf_counter() - start
        best = min(best, total)
    return best / count * 1e6


def main() -> int:
    rng = random.Random(SEED)
    with tempfile.TemporaryDirectory() as folder:
        paths = []
        for index in range(FILES):
            path = Path(folder) / f"{index:03d}.json"
            desc = rng.choice((snc_description, points_description))(rng)
            path.write_text(json.dumps(desc, indent=rng.choice((None, 2))))
            paths.append(str(path))
        timed = stages(paths)
        print(f"{FILES} files, seed {SEED}; best of {RUNS} mean per-file times")
        print(f"{'stage':<18} {'cold us':>9} {'warm us':>9}")
        for name, stage in timed.items():
            cold = best_us(stage, FILES, cold=True)
            for index in range(FILES):  # the untimed pass that warms the caches
                stage(index)
            warm = best_us(stage, FILES, cold=False)
            print(f"{name:<18} {cold:>9.2f} {warm:>9.2f}")
        clear_caches()
        with contextlib.redirect_stdout(io.StringIO()):
            for path in paths:
                for fmt in ("text", "structured"):
                    cli.main(["check", path, "--format", fmt])
    for name, cache in CACHES.items():
        info = cache.cache_info()
        print(f"{name} cache, one check per file and format from empty: {info.hits} hits, "
              f"{info.misses} misses, {info.currsize} of {info.maxsize} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
