"""Print what the field layer, one ``group`` command and one ``check``
command cost, stage by stage: three tables in one run.

Every time is the best of 3 runs (``best``), taken in process.

**Field.**  Library calls, since no command inverts.  One line per value
set: the conductor m, phi(m), how many values, and the time per value of
``invert`` and of one product z * z; a literal set also gets the time per
value of ``z ** -1`` for its powers z = zeta^k, which take the same path
as every other inverse.  The sets are the terms 2 - zeta^k - zeta^-k
(k = 1 .. m/2 - 1) of the literal half-angle sums at m = 60, 120, 180 and
240; dense values with integer coefficients in [-9, 9] at m = 240 and
480, where inversion descends through Q(zeta_(m/2)); and dense values at
the odd conductor 105, where it is one Euclid; every ``invert`` ends in
one check product.  The tables each set needs are built before it is
timed.  The cache of subfield inverses is emptied before each timed run,
so every time is the cold cost; each literal set gets one more line with
the hits and misses of that cache over one cold pass.

A second field table times the orbit sum S(d) every ``identity`` command
reads, at mid-size orders where a median field-identities request
computes (97, 210 and 997) and at the largest conductors that benchmark
reaches (1980, 1999, 3960 and 3990): ``cyclotomic_polynomial(d)``, then
``pair_inverse_trace(d)``, the route S(d) takes, with Phi_d warm; beside
it the row route it replaced, ``CycloScalar.pair_inverse(d)`` with Phi_d
warm and ``cyclo_trace`` of that inverse.  Before each run the caches of
``cyclotomic_polynomial`` and of the number-theory helpers it and the
traces read (``_factorization``, ``divisors``, ``euler_phi`` and
``moebius``) are emptied, so each run is as cold as a fresh process.

**group and check.**  These stages are timed inside ``cli.main(argv)``
itself, as the commands ship: for the run, each name the command looks up
at call time (``GROUP_STAGES``, ``CHECK_STAGES``) is swapped for a timer
and restored afterwards (``command_stages``), as ``perfbench/worker.py
--trace 1`` wraps ``cli``'s names, so no copy of either pipeline is kept
here.  A stage time is the mean over the calls that reached it in one run.
The scripts this tool replaced (``tools/group_cost.py`` and
``tools/check_cost.py``) timed their own copies of the stages, so these
numbers differ from theirs in meaning: a ``check`` stage is a mean per
``check`` call, each file run in both formats, not per file in one; the
class walk is its time inside build, not a separate re-run; every stage
runs under ``main``'s collector pause; and each timer adds about 0.5 us
per call on a 2-core host, well under 1 us.

``group``, one line per label (E6, E7, E8, A299, D152): its order, its
number of classes, five stage times in ms and the collector passes of
generations 0, 1 and 2 that one ``cli.cmd_group(label)`` run (which does
not pause the collector) makes, counted by a ``gc.callbacks`` hook from
cold caches and an empty young generation: the passes ``main``'s pause
saves.  The stages are build (``build_ade_group``, which lists the
elements and runs the class walk), class walk (the orbit partition,
``groups._classes_of_sorted``: its time inside build), report
(``build_contribution_report``, the class rows and the check against the
closed form), element sum (``element_sum_contribution``) and class lines
(the class table's lines).  Each timed run starts cold: the group caches,
the word-label table and the label and quadratic-part caches of
``groups``, the orbit-sum and half-residue caches of ``contributions``
and the term texts of ``CycloScalar.__str__`` are emptied first.  One
untimed ``group`` run per label builds the field tables (Phi_m, the power
rows) first.

``check``, on a fixed seeded set of valid description files drawn by the
benchmark's own ``surface-checks`` generators (``perfbench.workloads``,
imported read-only), each file checked in both formats, one line per
stage with its mean time per call, in microseconds: read (the byte read
and its one decode), json (the one reused JSON decoder), records (the
kind's schema reader in ``cli._KINDS``, with the rational and label
caches), report (``snc_report`` or ``isolated_points_report``, with the
point-term cache), gerbe_scale, and the text and structured renders (the
label-text cache), each once per call in its format.  Each stage is
timed cold, every cache of ``check`` emptied before each call, and warm,
after one untimed pass over the set.  The last lines give each cache's
hits and misses after ``check`` has read every file once in each format,
from empty caches.  The read stage sees the operating system's file
cache warm in both columns.

Print only: the exit status is 0 whenever the script runs.

Run from anywhere: ``python3 tools/stage_cost.py``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from orbichern import cli, contributions, groups, invariants, scalars  # noqa: E402
from orbichern.ade import AdeLabel  # noqa: E402
from orbichern.scalars import CycloScalar, _subfield_inverse, cyclotomic_polynomial, euler_phi  # noqa: E402
from perfbench.workloads import points_description, snc_description  # noqa: E402

RUNS = 3
DENSE = 3  # dense values per conductor
IDENTITY_CONDUCTORS = (97, 210, 997, 1980, 1999, 3960, 3990)
FIELD_COLD = (cyclotomic_polynomial, scalars._factorization, scalars.divisors, euler_phi, scalars.moebius)
LABELS = ("E6", "E7", "E8", "A299", "D152")
GROUP_CACHES = (
    groups.build_ade_group,
    groups._exceptional_group,
    groups._word_labels,
    groups._trace_rotation,
    groups._quadratic_parts,
    contributions.primitive_orbit_sum,
    contributions._half_residues,
    scalars._power_texts,
)
GROUP_STAGES = {  # stage: the (owner, name) pairs timed as it
    "build": ((cli, "build_ade_group"),),
    "class walk": ((groups, "_classes_of_sorted"),),
    "report": ((cli, "build_contribution_report"),),
    "element sum": ((cli, "element_sum_contribution"),),
    "class lines": ((cli, "_class_lines"),),
}
FILES = 300
SEED = 20240
CHECK_CACHES = {
    "rational literals": cli._cached_rational,
    "labels": cli._cached_label,
    "label texts": cli._label_text,
    "point terms": invariants.point_term,
}
CHECK_STAGES = {  # an owner is a module, an instance or a dict
    "read": ((cli, "_read_text"),),
    "json": ((cli._DECODER, "decode"),),
    "records": tuple((cli._KINDS, kind) for kind in cli._KINDS),
    "report": ((cli, "snc_report"), (cli, "isolated_points_report")),
    "gerbe_scale": ((cli, "gerbe_scale"),),
    "text render": ((cli, "_render_report_text"),),
    "structured render": ((cli, "_render_report_structured"),),
}
_ABSENT = object()


def clear(caches) -> None:
    for cache in caches:
        cache.cache_clear()


def best(run, caches=()) -> dict:
    """Per key of ``run()``'s {key: seconds}, the least of RUNS runs, each
    run from emptied ``caches``."""
    runs = []
    for _ in range(RUNS):
        clear(caches)
        runs.append(run())
    return {key: min(times[key] for times in runs) for key in runs[0]}


def _timer(fn, total: list):
    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            total[0] += perf_counter() - start
            total[1] += 1

    return timed


def command_stages(stages: dict, argvs, caches=()) -> dict:
    """{stage: mean seconds per call, 0 if none} over ``cli.main(argv)`` for
    each argv, stdout discarded and ``caches`` emptied before each.

    For the run, each (owner, name) of a stage is swapped for a timer in
    the owner's namespace (a dict's items, else its ``__dict__``); after
    it, a name the namespace held gets its object back and any other name
    is deleted, so an instance holds no method of its class."""
    totals = {stage: [0.0, 0] for stage in stages}
    saved = []
    try:
        for stage, targets in stages.items():
            for owner, name in targets:
                space = owner if isinstance(owner, dict) else vars(owner)
                fn = space[name] if isinstance(owner, dict) else getattr(owner, name)
                saved.append((space, name, space.get(name, _ABSENT)))
                space[name] = _timer(fn, totals[stage])
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                clear(caches)
                cli.main(argv)
    finally:
        for space, name, original in reversed(saved):
            if original is _ABSENT:
                del space[name]
            else:
                space[name] = original
    return {stage: seconds / max(calls, 1) for stage, (seconds, calls) in totals.items()}


def literal_terms(m: int) -> list[CycloScalar]:
    """2 - zeta^k - zeta^-k in Q(zeta_m) for k = 1 .. m/2 - 1."""
    terms = []
    for k in range(1, m // 2):
        z = CycloScalar.zeta_pow(m, k)
        terms.append(2 - z - z ** -1)
    return terms


def dense_values(m: int) -> list[CycloScalar]:
    rng = random.Random(m)
    return [
        CycloScalar(m, tuple(Fraction(rng.randint(-9, 9)) for _ in range(euler_phi(m))))
        for _ in range(DENSE)
    ]


def ms_per_value(step, values) -> float:
    def run():
        start = perf_counter()
        for z in values:
            step(z)
        return {"all": perf_counter() - start}

    return best(run, (_subfield_inverse,))["all"] * 1000 / len(values)


def identity_path(d: int) -> dict:
    """Seconds of Phi_d, S(d) by ``pair_inverse_trace``, the pair inverse and its trace."""
    times = [perf_counter()]
    cyclotomic_polynomial(d)
    times.append(perf_counter())
    scalars.pair_inverse_trace(d)
    times.append(perf_counter())
    inverse = CycloScalar.pair_inverse(d)
    times.append(perf_counter())
    scalars.cyclo_trace(inverse)
    times.append(perf_counter())
    return dict(enumerate(b - a for a, b in zip(times, times[1:])))


def field_table() -> None:
    sets = [(m, "literal-sum terms", literal_terms(m)) for m in (60, 120, 180, 240)]
    sets += [(m, "dense", dense_values(m)) for m in (240, 480, 105)]
    head = f"{'m':>5} {'phi':>5}  {'values':<24} {'invert ms':>10} {'product ms':>11}"
    print(f"{head} {'z**-1 ms':>9}")
    for m, kind, values in sets:
        values[0] * values[0]  # the remainder table of Phi_m, outside the timing
        invert = ms_per_value(CycloScalar.invert, values)
        product = ms_per_value(lambda z: z * z, values)
        power = "-"
        if kind.startswith("literal"):
            powers = [CycloScalar.zeta_pow(m, k) for k in range(1, m // 2)]
            power = f"{ms_per_value(lambda z: z ** -1, powers):.3f}"
        label = f"{len(values)} {kind}"
        print(f"{m:>5} {euler_phi(m):>5}  {label:<24} {invert:>10.3f} {product:>11.3f} {power:>9}")
        if kind.startswith("literal"):
            _subfield_inverse.cache_clear()
            for z in values:
                z.invert()
            info = _subfield_inverse.cache_info()
            print(f"{'':>13}one cold pass: {info.hits} subfield-inverse hits, {info.misses} misses")
    print()
    print(f"{'d':>5} {'phi':>5}  {'Phi_d ms':>9} {'S(d) ms':>8} {'pair_inverse ms':>16} {'trace ms':>9}")
    for d in IDENTITY_CONDUCTORS:
        times = best(lambda: identity_path(d), FIELD_COLD)
        phi, orbit_sum, inverse, trace = (seconds * 1000 for seconds in times.values())
        print(f"{d:>5} {euler_phi(d):>5}  {phi:>9.3f} {orbit_sum:>8.3f} {inverse:>16.3f} {trace:>9.3f}")


def collector_passes(label: str) -> list[int]:
    """Passes per generation of one cold ``cmd_group`` run, collector on."""
    passes = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            passes[info["generation"]] += 1

    clear(GROUP_CACHES)
    with contextlib.redirect_stdout(io.StringIO()):
        gc.collect()  # the run starts with empty young generations
        gc.callbacks.append(count)
        try:
            cli.cmd_group(label)
        finally:
            gc.callbacks.remove(count)
    return passes


def group_table() -> None:
    header = "".join(f" {name + ' ms':>14}" for name in GROUP_STAGES)
    print(f"{'label':<6} {'order':>6} {'classes':>8}{header} {'gen0':>5} {'gen1':>5} {'gen2':>5}")
    for label in LABELS:
        command_stages({}, [["group", label]])  # the untimed pass: field tables
        times = best(lambda: command_stages(GROUP_STAGES, [["group", label]]), GROUP_CACHES)
        passes = "".join(f" {count:>5}" for count in collector_passes(label))
        group = groups.build_ade_group(AdeLabel.from_string(label))  # the group built last, cached
        cells = "".join(f" {seconds * 1000:>14.2f}" for seconds in times.values())
        print(f"{label:<6} {group.order:>6} {len(group.classes):>8}{cells}{passes}")


def check_table() -> None:
    rng = random.Random(SEED)
    with tempfile.TemporaryDirectory() as folder:
        argvs = []
        for index in range(FILES):
            path = Path(folder) / f"{index:03d}.json"
            desc = rng.choice((snc_description, points_description))(rng)
            path.write_text(json.dumps(desc, indent=rng.choice((None, 2))))
            argvs += [["check", str(path), "--format", fmt] for fmt in ("text", "structured")]
        print(f"{FILES} files, seed {SEED}, each checked in both formats; best of {RUNS} mean times per call")
        cold = best(lambda: command_stages(CHECK_STAGES, argvs, CHECK_CACHES.values()))
        command_stages({}, argvs)  # the untimed pass that warms the caches
        warm = best(lambda: command_stages(CHECK_STAGES, argvs))
        print(f"{'stage':<18} {'cold us':>9} {'warm us':>9}")
        for stage in CHECK_STAGES:
            print(f"{stage:<18} {cold[stage] * 1e6:>9.2f} {warm[stage] * 1e6:>9.2f}")
        clear(CHECK_CACHES.values())
        command_stages({}, argvs)
    for name, cache in CHECK_CACHES.items():
        info = cache.cache_info()
        print(f"{name} cache, one check per file and format from empty: {info.hits} hits, "
              f"{info.misses} misses, {info.currsize} of {info.maxsize} entries")


def main() -> int:
    field_table()
    print()
    group_table()
    print()
    check_table()
    return 0


if __name__ == "__main__":
    sys.exit(main())
