"""One benchmark round in a fresh interpreter, so every round starts cold.

    python3 perfbench/worker.py setup|run|trace [SPANS_FILE]

The request list arrives as JSON on stdin; one JSON object goes to
stdout.  The first thing the worker does is import ``orbichern.cli`` from
the checkout's ``src/`` and stamp ``time.monotonic()``; the parent takes
the same clock just before it spawns the worker, so the difference is
the set-up time a user pays before the first command runs.

Every mode then times ``reference_work`` three times, for the parent to
scale the set-up time by.  ``run`` times each request around
``orbichern.cli.main(argv)`` (or a literal field sum) with output
captured, and times ``reference_work`` again between blocks of requests
(``run_untraced``).

``trace`` runs the same requests with spans: for each request it first
builds, bottom-up, what the request needs from the cached layers
(``scalars`` tables for new conductors, then
``contributions.conjugate_pair_inverse`` for new orders, then
``groups.build_ade_group``), then calls ``main``.  The
uncached public functions that ``main`` reaches are wrapped where their
callers look them up, so each runs once, inside its own span, and a
span's self time is that layer's new work.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import orbichern.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

from orbichern import ade, cli, contributions, groups, invariants  # noqa: E402
from orbichern.scalars import CycloScalar, cyclotomic_polynomial  # noqa: E402

REFERENCE_EVERY_S = 0.05  # request time between two timings of reference_work
SETUP_REFERENCE_SAMPLES = 3


def literal_sum(n, invert, power):
    """Sum of 1/(2 - z^k - z^-k) over k = 1..n-1 in Q(zeta_2n), term by term."""
    m = 2 * n
    total = CycloScalar.zero(m)
    for k in range(1, n):
        z = CycloScalar.zeta_pow(m, k)
        total = total + invert(2 - z - power(z, -1))
    print(f"literal {n}: {total}")
    return 0


def reference_work():
    """A fixed piece of pure-Python work of the kinds orbichern does.

    Integer polynomial products modulo x^n - 1, ``Fraction`` sums and
    dict updates, in code that never changes with the program, so its
    time tracks only how fast the host runs Python right now.
    """
    a, b = list(range(1, 120)), list(range(120, 1, -1))
    product = [0] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[(i + j) % len(a)] += x * y
    total = Fraction(0)
    for k in range(1, 600):
        total += Fraction(k, k * k + 1)
    counts = {}
    for k in range(20000):
        counts[k % 53] = counts.get(k % 53, 0) + k
    return product, total, counts


def reference_seconds(samples):
    """Mean of ``samples`` timings of ``reference_work``."""
    total = 0.0
    for _ in range(samples):
        start = perf_counter()
        reference_work()
        total += perf_counter() - start
    return total / samples


def execute(req, main, literal):
    """(seconds, [exit code, stdout, stderr head, traceback or None])."""
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(req["argv"]) if "argv" in req else literal(req["n"])
        except SystemExit as stop:
            rc = stop.code
        except Exception:  # recorded and judged by the oracle
            exc = traceback.format_exc(limit=4)
    return perf_counter() - start, [rc, out.getvalue(), err.getvalue()[:500], exc]


class Tracer:
    """Spans in memory as [name, start, end, parent index, request id]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.request])
        self.stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index][1:3] = start, end

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_times(self):
        """{span name: [calls, self seconds]}; self = duration minus children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {}
        for (name, start, end, _, _), children in zip(self.spans, covered):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - children
        return totals


def instrument(tracer):
    """Wrap the uncached layer entry points that ``cli.main`` reaches."""
    ade.AdeLabel.from_string = classmethod(tracer.wrap("ade.parse", ade.AdeLabel.from_string.__func__))
    for module in (cli, contributions, groups, invariants):
        module.resolution_data = tracer.wrap("ade.parse", ade.resolution_data)
    wrapped = {
        "load_description": "cli.load",
        "snc_report": "invariants.report",
        "isolated_points_report": "invariants.report",
        "gerbe_scale": "invariants.report",
        "build_contribution_report": "contributions.class_rows",
        "element_sum_contribution": "contributions.element_sum",
        "verify_type_a_identity": "contributions.identity",
        "verify_type_d_half_angle_identity": "contributions.identity",
    }
    for attr, name in wrapped.items():
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr)))
    contributions.primitive_orbit_sum = tracer.wrap("contributions.orbit_sum", contributions.primitive_orbit_sum)


def run_untraced(requests, literal):
    """Results of the requests, and the host's reference time at each.

    ``reference_work`` is timed once before the first request and again
    whenever the requests since the last timing have taken at least
    ``REFERENCE_EVERY_S``; a request's reference time is the mean of the
    timings on either side of it.
    """
    results, references = [], []
    before = reference_seconds(1)
    block, elapsed = 0, 0.0
    for index, req in enumerate(requests):
        results.append(execute(req, cli.main, literal))
        block += 1
        elapsed += results[-1][0]
        if elapsed >= REFERENCE_EVERY_S or index == len(requests) - 1:
            after = reference_seconds(1)
            references += [(before + after) / 2] * block
            before, block, elapsed = after, 0, 0.0
    return results, references


def peak_rss_kb():
    """This process's own peak resident set size, in KiB (Linux).

    Not ``ru_maxrss``: Linux carries the parent's peak into a child across
    fork and exec, so a worker would report the benchmark's own memory
    whenever that is the larger.  ``VmHWM`` counts this process image only.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def build_tables(m):
    cyclotomic_polynomial(m)
    return CycloScalar.zeta_pow(m, 1)


def run_traced(requests, spans_path):
    tracer = Tracer()
    parse_label = ade.AdeLabel.from_string
    instrument(tracer)
    main = tracer.wrap("cli.main", cli.main)
    invert = tracer.wrap("scalars.invert", CycloScalar.invert)
    power = tracer.wrap("scalars.pow", CycloScalar.__pow__)

    def literal(n):
        return tracer.call("scalars.literal_sum", literal_sum, n, invert, power)

    tables, pairs = set(), set()
    counters = {"groups.elements": 0, "groups.classes": 0, "scalars.max_conductor": 0}
    results, walls = [], []
    for index, req in enumerate(requests):
        tracer.request = index
        start = perf_counter()
        for m in req["tables"]:
            if m not in tables:
                tables.add(m)
                tracer.call("scalars.tables", build_tables, m)
        for d in req["pairs"]:
            if d not in pairs:
                pairs.add(d)
                tracer.call("contributions.pair_inverse", contributions.conjugate_pair_inverse, d)
        if req["op"] == "group":
            label = parse_label(req["label"])
            group = tracer.call(f"groups.build.{label.kind}", groups.build_ade_group, label)
            counters["groups.elements"] += group.order
            counters["groups.classes"] += len(group.classes)
        results.append(execute(req, main, literal))
        walls.append(perf_counter() - start)
    counters["scalars.max_conductor"] = max(tables, default=0)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "request"], "spans": tracer.spans}, handle)
    return {"results": results, "walls": walls, "layers": tracer.self_times(), "counters": counters}


def main():
    mode = sys.argv[1]
    report = {"ready": READY, "module": orbichern.cli.__file__}
    report["setup_reference_s"] = reference_seconds(SETUP_REFERENCE_SAMPLES)
    if mode != "setup":
        requests = json.load(sys.stdin)
        if mode == "trace":
            report.update(run_traced(requests, sys.argv[2]))
        else:
            literal = functools.partial(literal_sum, invert=CycloScalar.invert, power=CycloScalar.__pow__)
            report["results"], report["reference_s"] = run_untraced(requests, literal)
        report["peak_rss_kb"] = peak_rss_kb()
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
