"""Print what one ``group`` command costs, stage by stage, per label.

One line per label (E6, E7, E8, A299, D152): its order, its number of
classes, the best of 3 in-process times, in ms, of five stages, and the
collector passes of generations 0, 1 and 2 that one run of the stages the
``group`` command runs (all but the class walk) makes with the cyclic
collector on, counted by a ``gc.callbacks`` hook.  ``group`` itself runs
with the collector paused (``cli.main``), so those are the passes the
pause saves.  The stages are:

* build: ``build_ade_group``, which lists the elements and runs the class walk;
* class walk: the orbit partition alone, on the built group's sorted elements;
* report: ``build_contribution_report``, the class rows and the check
  against the closed form;
* element sum: ``element_sum_contribution``;
* class lines: the class table's lines, as ``group`` formats them.

Each timed run starts cold and runs with the collector paused, as
``group`` runs it: the group caches, the word-label table and the label
and quadratic-part caches of ``groups``, the orbit-sum and half-residue
caches of ``contributions`` and the term texts of ``CycloScalar.__str__``
are emptied first.  The counted run starts from the same cold caches and
an empty young generation.  One untimed pass per label builds the field
tables (Phi_m, the power rows) before its stages are timed or counted.
Print only: the exit status is 0 whenever the script runs.

Run from anywhere: ``python3 tools/group_cost.py``.
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orbichern import cli, contributions, groups, scalars  # noqa: E402
from orbichern.ade import AdeLabel  # noqa: E402

RUNS = 3
LABELS = ("E6", "E7", "E8", "A299", "D152")
CACHES = (
    groups.build_ade_group,
    groups._exceptional_group,
    groups._word_labels,
    groups._trace_rotation,
    groups._quadratic_parts,
    contributions.primitive_orbit_sum,
    contributions._half_residues,
    scalars._power_texts,
)
STAGES = {
    "build": lambda label, group: groups.build_ade_group(label),
    "class walk": lambda label, group: groups._classes_of_sorted(group.elements, group.generators),
    "report": lambda label, group: contributions.build_contribution_report(group),
    "element sum": lambda label, group: contributions.element_sum_contribution(group),
    "class lines": lambda label, group: cli._class_lines(group),
}


def clear_caches() -> None:
    for cache in CACHES:
        cache.cache_clear()


def best_ms(stage, label, group) -> float:
    """Best of RUNS timings of one stage, each run from empty caches with the collector paused."""
    best = float("inf")
    for _ in range(RUNS):
        clear_caches()
        gc.disable()
        try:
            start = time.perf_counter()
            stage(label, group)
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best * 1000


def collector_passes(label) -> list[int]:
    """Passes per generation of one cold run of the stages ``group`` runs, collector on."""
    passes = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            passes[info["generation"]] += 1

    clear_caches()
    gc.collect()  # the run starts with empty young generations
    gc.callbacks.append(count)
    try:
        group = STAGES["build"](label, None)
        for name, stage in STAGES.items():
            if name not in ("build", "class walk"):
                stage(label, group)
    finally:
        gc.callbacks.remove(count)
    return passes


def main() -> int:
    header = "".join(f" {name + ' ms':>14}" for name in STAGES)
    print(f"{'label':<6} {'order':>6} {'classes':>8}{header} {'gen0':>5} {'gen1':>5} {'gen2':>5}")
    for text in LABELS:
        label = AdeLabel.from_string(text)
        group = groups.build_ade_group(label)
        for stage in STAGES.values():  # the untimed pass: field tables
            stage(label, group)
        times = "".join(f" {best_ms(stage, label, group):>14.2f}" for stage in STAGES.values())
        passes = "".join(f" {count:>5}" for count in collector_passes(label))
        print(f"{text:<6} {group.order:>6} {len(group.classes):>8}{times}{passes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
