"""orbichern benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (or anywhere: paths resolve from this
file).  One client sends requests in a closed loop: the next request
goes out only after the previous one returned, as a CLI caller waits for
its answer.  Everything runs in one process per round, with no threads.
A run is ``workloads.round_count(workload, seconds)`` rounds; each round
is a fresh worker (``worker.py``) with cold caches and its own seeded
request list.  Every result is checked against ``oracle.py``.

Host speed: the shared host this was tuned on runs Python up to half
slower for spells of a fraction of a second to minutes, and CPU time
slows with wall time.  Each worker therefore times a fixed piece of
pure-Python work (``worker.reference_work``, about 5 ms) right after its
import and between blocks of at least 50 ms of requests.  Every timing
is scaled by ``REFERENCE_NOMINAL_S`` over the reference time beside it,
so it reads as it would at the host's fast-spell speed; a change in the
program's own cost shows in full.  The record keeps the timings as
measured under ``as_measured``.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  The
line before it is the full record: environment, request counts, stdout
digest, sharing report, p99 latency, failure reasons, probe outcomes.

End-to-end metrics (untraced rounds):

* ``setup_s``: spawn to ``import orbichern.cli`` returning, median of at
  least ``SETUP_SAMPLES`` fresh interpreters, scaled by the reference
  time taken right after the import;
* ``ops_per_s``: timed requests per second of (scaled) busy time;
* ``latency_p50_ms``, ``latency_p90_ms``: over every timed request of
  the run, scaled; Harrell-Davis estimates (``quantile``);
* ``peak_rss_mb``: the worker's own peak resident set (``VmHWM``),
  median over rounds.

With ``--trace 1`` half the rounds are run twice, untraced and then
traced with the same requests; per-layer figures are sums over the
traced rounds and ``trace.overhead_s`` is traced minus untraced wall.
Spans are written to ``perfbench/_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path("perfbench") / "_work"
WORKER = Path("perfbench") / "worker.py"
SETUP_SAMPLES = 15
# worker.reference_work's time on the host the benchmark was tuned on,
# in its fast spells (2-core x86-64 VM, Python 3.11).  Timings are scaled
# by this over the reference time measured beside them.
REFERENCE_NOMINAL_S = 0.0053
DEADLINE_S = 170.0
LAYERS = ("scalars", "groups", "contributions", "invariants", "ade", "cli")

# per-layer metric -> span name whose self time (or call count) it reports
SPAN_SECONDS = {
    "scalars.tables_s": "scalars.tables",
    "scalars.invert_s": "scalars.invert",
    "scalars.pow_s": "scalars.pow",
    "contributions.pair_inverse_s": "contributions.pair_inverse",
    "contributions.orbit_sum_s": "contributions.orbit_sum",
    "contributions.identity_s": "contributions.identity",
    "contributions.class_rows_s": "contributions.class_rows",
    "contributions.element_sum_s": "contributions.element_sum",
    "groups.build_s.A": "groups.build.A",
    "groups.build_s.D": "groups.build.D",
    "groups.build_s.E": "groups.build.E",
    "ade.parse_s": "ade.parse",
    "cli.load_s": "cli.load",
    "invariants.report_s": "invariants.report",
    "cli.main_self_s": "cli.main",
}
SPAN_CALLS = {
    "scalars.new_conductors": "scalars.tables",
    "scalars.invert_calls": "scalars.invert",
    "contributions.pair_inverse_calls": "contributions.pair_inverse",
}


class BenchmarkError(Exception):
    """The benchmark itself could not run (missing program, dead worker)."""


def spawn(mode: str, requests: list | None, deadline: float, *extra: str) -> dict:
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode, *extra],
            input=json.dumps(requests),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout)
    if not Path(report["module"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchmarkError(f"worker imported orbichern from {report['module']}, not src/")
    report["setup_raw_s"] = report["ready"] - start
    report["setup_s"] = report["setup_raw_s"] * REFERENCE_NOMINAL_S / report["setup_reference_s"]
    return report


def worker_view(req: dict) -> dict:
    """What a worker needs: the program's input plus the priming lists."""
    return {k: req[k] for k in ("op", "argv", "n", "label", "tables", "pairs") if k in req}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_head() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def quantile(values: list[float], q: int) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile.

    A mean of all the sorted values, weighted by how much of the
    Beta((n+1)p, (n+1)(1-p)) density falls in each one's share of [0, 1]
    (found by the midpoint rule; shares more than 12 standard deviations
    from p weigh nothing).  It estimates the same percentile as the
    sample quantile, with less spread from run to run where few
    latencies lie near the percentile: a value next to a gap in the
    sorted latencies does not jump across it.
    """
    xs = sorted(values)
    n, p = len(xs), q / 100
    if n == 1:
        return xs[0]
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    total = weights = 0.0
    for i in range(max(0, int((p - 12 * sd) * n)), min(n, int((p + 12 * sd) * n) + 1)):
        weight = 0.0
        for k in range(8):
            t = (i + (k + 0.5) / 8) / n
            weight += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        total += weight * xs[i]
        weights += weight
    return total / weights


class Digests:
    """Stdout digests of earlier rounds, keyed by program source and input."""

    def __init__(self, path: Path, code: str):
        self.path, self.code = path, code
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def agrees(self, requests: list[dict], digest: str) -> bool:
        key = hashlib.sha256((self.code + json.dumps(requests)).encode()).hexdigest()
        return self.known.setdefault(key, digest) == digest

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=0, sort_keys=True))
        os.replace(tmp, self.path)


def judge(reqs: list[dict], results: list, references: list[float] | None = None) -> dict:
    """Oracle verdicts, latencies and the stdout digest of one round.

    ``latencies`` are as measured; with the worker's reference times,
    ``scaled`` are the same latencies at the nominal reference speed.
    """
    latencies, scaled, failures, probes = [], [], {}, []
    digest = hashlib.sha256()
    references = references or [REFERENCE_NOMINAL_S] * len(reqs)
    for index, (req, (seconds, (rc, out, err, exc)), ref) in enumerate(zip(reqs, results, references)):
        reason = oracle.verify(req, rc, out, err, exc)
        if req.get("probe"):
            probes.append({"class": req["reject"], "ok": reason is None, "reason": reason})
            continue
        latencies.append(seconds)
        scaled.append(seconds * REFERENCE_NOMINAL_S / ref)
        digest.update(out.encode())
        if reason:
            failures[index] = f"{' '.join(req.get('argv') or ['literal', str(req['n'])])}: {reason}"
    return {
        "latencies": latencies,
        "scaled": scaled,
        "failures": failures,
        "probes": probes,
        "digest": digest.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run the rounds; returns (result line, full record).

    Traced, each round runs untraced and then traced in a second fresh
    worker, so a traced run has half the rounds of an untraced one.
    """
    began = time.monotonic()
    deadline = began + DEADLINE_S
    load_start = loadavg()
    rounds_n = workloads.round_count(workload, seconds / 2 if trace else seconds)
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    code = source_digest()
    digests = Digests(WORK / "digests.json", code)
    rounds = workloads.make_rounds(workload, seed, rounds_n, workdir)

    setup, setup_raw, rss, latencies, raw, references, probes, round_digests = [], [], [], [], [], [], [], []
    failures: dict[tuple, str] = {}
    layers: dict[str, list] = {}
    counters: dict[str, int] = {}
    untraced_wall = traced_wall = 0.0
    for r, reqs in enumerate(rounds):
        view = [worker_view(q) for q in reqs]
        report = spawn("run", view, deadline)
        setup.append(report["setup_s"])
        setup_raw.append(report["setup_raw_s"])
        rss.append(report["peak_rss_kb"] / 1024)
        references += report["reference_s"]
        result = judge(reqs, report["results"], report["reference_s"])
        latencies += result["scaled"]
        raw += result["latencies"]
        probes += result["probes"]
        round_digests.append(result["digest"])
        failures.update(((r, i), reason) for i, reason in result["failures"].items())
        if not digests.agrees(view, result["digest"]):
            failures[(r, "digest")] = f"round {r}: stdout differs from an earlier run of the same code and input"
        if not trace:
            continue
        traced = spawn("trace", view, deadline, str(workdir / f"spans-seed{seed}-round{r}.json"))
        setup.append(traced["setup_s"])
        setup_raw.append(traced["setup_raw_s"])
        traced_result = judge(reqs, traced["results"])
        failures.update(((r, i, "traced"), reason) for i, reason in traced_result["failures"].items())
        if traced_result["digest"] != result["digest"]:
            failures[(r, "traced digest")] = f"round {r}: traced stdout differs from untraced stdout"
        untraced_wall += sum(result["latencies"])
        traced_wall += sum(traced["walls"])
        for name, (calls, busy) in traced["layers"].items():
            entry = layers.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += busy
        for name, value in traced["counters"].items():
            merge = max if name == "scalars.max_conductor" else operator.add
            counters[name] = merge(counters.get(name, 0), value)
    digests.save()
    while len(setup) < SETUP_SAMPLES:
        report = spawn("setup", None, deadline)
        setup.append(report["setup_s"])
        setup_raw.append(report["setup_raw_s"])

    attempted = len(latencies)
    failed = min(len(failures), attempted)
    if trace:
        metrics = layer_metrics(layers, counters, traced_wall - untraced_wall)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (attempted / sum(latencies), "1/s"),
            "latency_p50_ms": (quantile(latencies, 50) * 1000, "ms"),
            "latency_p90_ms": (quantile(latencies, 90) * 1000, "ms"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    all_requests = [q for reqs in rounds for q in reqs if not q.get("probe")]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": rounds_n,
        "wall_s": time.monotonic() - began,
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_head": git_head(),
            "src_sha256": code,
            "loadavg_start": load_start,
            "loadavg_end": loadavg(),
        },
        "requests": count_ops(all_requests),
        "stdout_sha256": hashlib.sha256("".join(round_digests).encode()).hexdigest(),
        "round_stdout_sha256": round_digests,
        "sharing": workloads.sharing(rounds),
        "failed_share": failed / attempted,
        "latency_p99_ms": quantile(latencies, 99) * 1000 if len(latencies) >= 1000 else None,
        "latency_samples": attempted,
        "setup_samples_s": setup,
        "as_measured": {
            "setup_s": statistics.median(setup_raw),
            "ops_per_s": attempted / sum(raw),
            "latency_p50_ms": quantile(raw, 50) * 1000,
            "latency_p90_ms": quantile(raw, 90) * 1000,
        },
        "reference_s": {
            "nominal": REFERENCE_NOMINAL_S,
            "quartiles": statistics.quantiles(references, n=4) if len(references) > 1 else references,
        },
        "probes": probes,
        "probe_failed_share": sum(not p["ok"] for p in probes) / len(probes) if probes else None,
        "failures": list(failures.values())[:20],
    }
    if trace:
        record["trace_reconciliation"] = {
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "self_sum_s": sum(busy for _, busy in layers.values()),
        }
    return line, record


def count_ops(requests: list[dict]) -> dict:
    counts: dict[str, int] = {}
    for req in requests:
        kind = req["op"] + ("_malformed" if req.get("reject") else "")
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def layer_metrics(layers: dict, counters: dict, overhead: float) -> dict:
    def seconds(span: str) -> float:
        return layers.get(span, [0, 0.0])[1]

    metrics = {name: (seconds(span), "s") for name, span in SPAN_SECONDS.items()}
    metrics["groups.build_s"] = (sum(seconds(f"groups.build.{k}") for k in "ADE"), "s")
    metrics.update({name: (layers.get(span, [0, 0.0])[0], "count") for name, span in SPAN_CALLS.items()})
    metrics["scalars.max_conductor"] = (counters.get("scalars.max_conductor", 0), "conductor")
    metrics["groups.elements"] = (counters.get("groups.elements", 0), "count")
    metrics["groups.classes"] = (counters.get("groups.classes", 0), "count")
    for layer in LAYERS:
        mine = [entry for name, entry in layers.items() if name.split(".")[0] == layer]
        metrics[f"{layer}.calls"] = (sum(calls for calls, _ in mine), "count")
        metrics[f"{layer}.busy_s"] = (sum((busy for _, busy in mine), 0.0), "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "orbichern" / "cli.py").is_file():
        print(f"error: no orbichern sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    try:
        line, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
