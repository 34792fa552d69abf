"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from orbichern.cli import main  # noqa: E402


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result(workload, seed, trace=0):
    proc = run_benchmark("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    record, line = map(json.loads, proc.stdout.splitlines()[-2:])
    return record, line


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def snapshot(workload, seed, folder):
    rounds = workloads.make_rounds(workload, seed, 2, folder)
    files = {p.relative_to(folder).as_posix(): p.read_bytes() for p in sorted(folder.rglob("*.json"))}
    return rounds, files


def test_same_seed_same_requests(tmp_path):
    for workload in workloads.WORKLOADS:
        assert snapshot(workload, 7, tmp_path) == snapshot(workload, 7, tmp_path)


def test_other_seed_other_requests(tmp_path):
    for workload in workloads.WORKLOADS:
        assert snapshot(workload, 7, tmp_path) != snapshot(workload, 8, tmp_path)


def test_same_seed_same_digest_and_other_seed_same_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, line = result("surface-checks", 5)
    again, _ = result("surface-checks", 5)
    other, other_line = result("surface-checks", 6)
    assert first["stdout_sha256"] == again["stdout_sha256"] != other["stdout_sha256"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1000
    names = [m["name"] for m in spec["end_to_end"]]
    assert list(line["metrics"]) == list(other_line["metrics"]) == names
    _, traced_line = result("surface-checks", 6, trace=1)
    assert list(traced_line["metrics"]) == [m["name"] for m in spec["per_layer"]]


def test_oracle_flags_a_wrong_expected_value(tmp_path):
    group = workloads.group_request("E6")
    rc, out, err = call(group["argv"])
    assert oracle.verify(group, rc, out, err, None) is None
    assert oracle.verify({**group, "label": "E7"}, rc, out, err, None)
    assert oracle.verify(group, rc, out.replace("167/288", "167/289"), err, None)

    identity = workloads.identity_request(12, "half_angle")
    rc, out, err = call(identity["argv"])
    assert oracle.verify(identity, rc, out, err, None) is None
    assert oracle.verify({**identity, "which": "type_a"}, rc, out, err, None)

    check = next(q for q in workloads.make_rounds("surface-checks", 1, 1, tmp_path)[0] if q["desc"])
    rc, out, err = call(check["argv"])
    assert oracle.verify(check, rc, out, err, None) is None
    wrong = dict(check["desc"], canonical_nef_asserted=True, c1_squared="1000", k_squared="1000")
    assert oracle.verify({**check, "desc": wrong}, rc, out, err, None)


def test_timings_scale_by_the_reference_time_beside_them():
    identity = workloads.identity_request(12, "half_angle")
    rc, out, err = call(identity["argv"])
    slow_host = [2 * run.REFERENCE_NOMINAL_S]
    result = run.judge([identity], [[0.25, [rc, out, err, None]]], slow_host)
    assert result["latencies"] == [0.25]
    assert abs(result["scaled"][0] - 0.125) < 1e-12


def test_percentiles_estimate_the_sample_percentiles():
    assert abs(run.quantile(list(range(1001)), 50) - 500) < 1e-9
    assert abs(run.quantile([2.5] * 9, 90) - 2.5) < 1e-12
    evens = [2 * i for i in range(200)]
    assert 2 * 178 < run.quantile(evens, 90) < 2 * 181


def test_malformed_files_cover_every_rejection_class(tmp_path):
    reqs = workloads.make_rounds("surface-checks", 3, 1, tmp_path)[0]
    classes = {q["reject"] for q in reqs if q["reject"]}
    assert classes == set(workloads.REJECTION_CLASSES) | set(workloads.PROBE_CLASSES)
    for req in reqs:
        if req["reject"] in workloads.REJECTION_CLASSES:
            rc, out, err = call(req["argv"])
            assert oracle.verify(req, rc, out, err, None) is None, (req["reject"], rc, err)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_benchmark("--workload", "surface-checks", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
