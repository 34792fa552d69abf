"""Acceptance gate: twelve checks, one printed verdict line each.

Each criterion prints ``ACCEPT-NN PASS/FAIL ...`` through the real stdout
(bypassing pytest capture) so the verdict lines always appear in the run
log, then asserts.  Timed criteria measure their own work with
time.monotonic and enforce the stated budget.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from orbichern.ade import AdeLabel
from orbichern.contributions import (
    assemble_type_d_contribution,
    class_sum_contribution,
    closed_form_contribution,
    element_sum_contribution,
    verify_type_a_identity,
)
from orbichern.cli import main
from orbichern.groups import _exceptional_parts, build_ade_group, generate_group
from orbichern.invariants import (
    IsolatedPointsDescription,
    bmy_verdict,
    codim2_equivalence_check,
    gerbe_scale,
)
from orbichern.scalars import CycloScalar

F = Fraction


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_channel(capsys):
    """Remember the capture fixture so _line can write around it."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _line(num: int, ok: bool, detail: str) -> None:
    text = f"ACCEPT-{num:02d} {'PASS' if ok else 'FAIL'} {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(text, flush=True)
    print(text)  # captured copy, shown on failure
    assert ok, text


def test_criterion_01_binary_tetrahedral_value():
    start = time.monotonic()
    group = build_ade_group(AdeLabel("E", 6))
    value = class_sum_contribution(group)
    elapsed = time.monotonic() - start
    ok = value == F(167, 288) == (F(7) - F(1, 24)) / 12 and elapsed < 1.0
    _line(1, ok, f"binary tetrahedral contribution {value} ({elapsed:.3f}s < 1s)")


def test_criterion_02_cyclic_class_sums():
    start = time.monotonic()
    ok = True
    for n in range(2, 201):
        expected = F(n * n - 1, 12 * n)
        if verify_type_a_identity(n) != expected:
            ok = False
            break
        if class_sum_contribution(build_ade_group(AdeLabel("A", n))) != expected:
            ok = False
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _line(2, ok, f"cyclic class sums equal (n^2-1)/(12n) for n in 2..200 "
                 f"({elapsed:.2f}s < 60s)")


def test_criterion_03_binary_dihedral_assembly():
    start = time.monotonic()
    ok = True
    for n in range(2, 101):
        closed = (F(n + 3) - F(1, 4 * n)) / 12
        assembled = assemble_type_d_contribution(n)
        brute = class_sum_contribution(build_ade_group(AdeLabel("D", n)))
        if not (assembled == brute == closed):
            ok = False
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _line(3, ok, f"binary dihedral assembled and brute-force sums for n in 2..100 "
                 f"({elapsed:.2f}s < 60s)")


def test_criterion_04_half_angle_identity_in_the_field():
    ok = True
    for n in range(2, 101):
        total = CycloScalar.zero(2 * n)
        for k in range(1, n):
            z = CycloScalar.zeta_pow(2 * n, k)
            total = total + (2 - z - z ** -1).invert()
        if total != CycloScalar.from_rational(F(n * n - 1, 6), 2 * n):
            ok = False
            break
    _line(4, ok, "half-angle sums equal (n^2-1)/6 in Q(zeta_2n) for n in 2..100")


def test_criterion_05_exceptional_closures():
    start = time.monotonic()
    order_2o = len(generate_group(_exceptional_parts(7)[1]))
    order_2i = len(generate_group(_exceptional_parts(8)[1]))
    value_2o = class_sum_contribution(build_ade_group(AdeLabel("E", 7)))
    value_2i = class_sum_contribution(build_ade_group(AdeLabel("E", 8)))
    elapsed = time.monotonic() - start
    ok = (
        order_2o == 48
        and order_2i == 120
        and value_2o == (F(8) - F(1, 48)) / 12 == F(383, 576)
        and value_2i == (F(9) - F(1, 120)) / 12 == F(1079, 1440)
        and elapsed < 10.0
    )
    _line(5, ok, f"closures 48/120, contributions {value_2o} and {value_2i} "
                 f"({elapsed:.2f}s < 10s)")


def test_criterion_06_conjugacy_data():
    tetra = build_ade_group(AdeLabel("E", 6))
    sizes = sorted(c.size for c in tetra.classes)
    ok = len(tetra.classes) == 7 and sizes == sorted([1, 1, 6, 4, 4, 4, 4])
    for n in range(2, 21):
        group = build_ade_group(AdeLabel("D", n))
        expected = sorted([4 * n, 4 * n] + [2 * n] * (n - 1) + [4, 4])
        got = sorted(c.centralizer_order for c in group.classes)
        ok = ok and len(group.classes) == n + 3 and got == expected
    _line(6, ok, "2T class sizes [1,1,6,4,4,4,4]; Dic_n centralizers "
                 "{4n,4n,2n x (n-1),4,4} for n in 2..20")


def test_criterion_07_three_way_agreement_fuzz():
    rng = random.Random(74207281)
    ok = True
    for _ in range(500):
        kind = rng.choice(["A", "A", "A", "D", "D", "E"])
        if kind == "A":
            label = AdeLabel("A", rng.randint(1, 200))
        elif kind == "D":
            label = AdeLabel("D", rng.randint(2, 100))
        else:
            label = AdeLabel("E", rng.choice([6, 7, 8]))
        group = build_ade_group(label)
        closed = closed_form_contribution(label)
        if not (class_sum_contribution(group) == closed
                == element_sum_contribution(group)):
            ok = False
            break
    _line(7, ok, "class sum = element sum = closed form on 500 fuzzed labels")


def test_criterion_08_codim2_equivalence_fuzz():
    rng = random.Random(57885161)
    ok = True
    for _ in range(1000):
        chi = rng.randint(-5, 8)
        c1sq = F(rng.randint(-80, 80), rng.randint(1, 16))
        points = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.choice(["A", "D", "E"])
            if kind == "A":
                points.append(AdeLabel("A", rng.randint(1, 200)))
            elif kind == "D":
                points.append(AdeLabel("D", rng.randint(2, 100)))
            else:
                points.append(AdeLabel("E", rng.choice([6, 7, 8])))
        desc = IsolatedPointsDescription(
            chi, c1sq, tuple(points), rng.choice([True, False])
        )
        if codim2_equivalence_check(desc) is not True:
            ok = False
            break
    _line(8, ok, "two routes to the inequality agree on 1000 fuzzed inputs")


def test_criterion_09_kummer_end_to_end(tmp_path, capsys):
    payload = {
        "kind": "isolated_points",
        "chi_structure_sheaf": 2,
        "c1_squared": "0",
        "points": ["A1"] * 16,
        "canonical_nef_asserted": True,
    }
    path = tmp_path / "kummer.json"
    path.write_text(json.dumps(payload))
    code = main(["check", str(path), "--format", "structured"])
    out = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and F(out["c2"]) == 0
        and out["verdict"] == "HoldsWithEquality"
        and len(out["per_point"]) == 16
    )
    _line(9, ok, f"Kummer check: exit {code}, c2 = {out['c2']}, "
                 f"verdict {out['verdict']}")


def test_criterion_10_triangle_end_to_end(tmp_path, capsys):
    line = {"ramification": 2, "chi_divisor": 2, "k_dot": -3, "self_int": 1}
    payload = {
        "kind": "snc_pair",
        "chi_coarse": 3,
        "k_squared": 9,
        "divisors": [dict(line) for _ in range(3)],
        "crossings": [
            {"i": 0, "j": 1, "count": 1},
            {"i": 0, "j": 2, "count": 1},
            {"i": 1, "j": 2, "count": 1},
        ],
        "canonical_nef_asserted": False,
    }
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(payload))
    code = main(["check", str(path), "--format", "structured"])
    out = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and F(out["c1_squared"]) == F(9, 4)
        and F(out["c2"]) == F(3, 4)
        and F(out["margin"]) == 0
    )
    _line(10, ok, f"triangle check: c1^2 = {out['c1_squared']}, "
                  f"chi = {out['c2']}, margin = {out['margin']}")


def test_criterion_11_gerbe_invariance_fuzz():
    rng = random.Random(82589933)
    ok = True
    for _ in range(100):
        c1sq = F(rng.randint(-50, 50), rng.randint(1, 10))
        c2 = F(rng.randint(-50, 50), rng.randint(1, 10))
        report = bmy_verdict(c1sq, c2, rng.choice([True, False]))
        for order in range(1, 11):
            scaled = gerbe_scale(report, order)
            if scaled.verdict is not report.verdict:
                ok = False
            if scaled.margin != report.margin / order:
                ok = False
    _line(11, ok, "gerbe scaling preserves verdicts and divides margins, "
                  "100 reports x orders 1..10")


def test_criterion_12_table_determinism(child_env):
    command = [sys.executable, "-m", "orbichern", "table", "--max-n", "50"]
    first = subprocess.run(command, capture_output=True, check=False, env=child_env)
    second = subprocess.run(command, capture_output=True, check=False, env=child_env)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    _line(12, ok, f"two table --max-n 50 runs byte-identical "
                  f"({len(first.stdout)} bytes)")
