"""End-to-end command-line tests (in-process main plus subprocess checks)."""

import contextlib
import hashlib
import io
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbichern.cli as cli
from orbichern import invariants
from orbichern.ade import AdeLabel
from orbichern.cli import main
from orbichern.errors import (
    BoundExceeded,
    FieldMismatch,
    IdentityFailure,
    NonRationalTotal,
    TraceTwoNonIdentity,
    ZeroInversion,
)
from orbichern.invariants import InvariantReport, Verdict

F = Fraction


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def kummer_payload():
    return {
        "kind": "isolated_points",
        "chi_structure_sheaf": 2,
        "c1_squared": "0",
        "points": ["A1"] * 16,
        "canonical_nef_asserted": True,
    }


def triangle_payload():
    line = {"ramification": 2, "chi_divisor": 2, "k_dot": -3, "self_int": 1}
    return {
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


# ----------------------------------------------------------------------
# check


def test_check_kummer(tmp_path, capsys):
    path = write_json(tmp_path, "kummer.json", kummer_payload())
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "c2      = 0" in out
    assert "verdict = HoldsWithEquality" in out
    assert out.count("A1  3/2") == 16


def test_check_triangle(tmp_path, capsys):
    path = write_json(tmp_path, "triangle.json", triangle_payload())
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "c1^2    = 9/4" in out
    assert "c2      = 3/4" in out
    assert "margin  = 0" in out
    assert "verdict = NotApplicable" in out


def test_check_failing_surface_exits_3(tmp_path, capsys):
    payload = kummer_payload()
    payload["chi_structure_sheaf"] = 1
    payload["c1_squared"] = "9"
    payload["points"] = ["A1"]
    path = write_json(tmp_path, "fails.json", payload)
    assert main(["check", path]) == 3
    out = capsys.readouterr().out
    assert "verdict = Fails" in out


def test_check_structured_round_trips(tmp_path, capsys):
    path = write_json(tmp_path, "triangle.json", triangle_payload())
    assert main(["check", path, "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert F(payload["c1_squared"]) == F(9, 4)
    assert F(payload["c2"]) == F(3, 4)
    assert F(payload["margin"]) == 0
    assert payload["verdict"] == "NotApplicable"
    assert payload["per_point"] == []


def test_check_gerbe_scaling(tmp_path, capsys):
    payload = {
        "kind": "isolated_points",
        "chi_structure_sheaf": 2,
        "c1_squared": "0",
        "points": ["E6"],
        "canonical_nef_asserted": True,
        "gerbe_order": 3,
    }
    path = write_json(tmp_path, "gerbe.json", payload)
    assert main(["check", path, "--format", "structured"]) == 0
    out = json.loads(capsys.readouterr().out)
    # unscaled: c2 = 24 - 167/24 = 409/24; scaled by 1/3
    assert F(out["c2"]) == F(409, 72)
    assert F(out["margin"]) == F(409, 24)
    assert out["per_point"] == [["E6", "167/72"]]
    assert out["verdict"] == "Holds"


def test_check_rejects_bad_ramification(tmp_path, capsys):
    payload = triangle_payload()
    payload["divisors"][0]["ramification"] = 1
    path = write_json(tmp_path, "bad.json", payload)
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert "divisors[0]" in err and "ramification must be >= 2" in err


def test_check_rejects_unknown_and_missing_fields(tmp_path, capsys):
    payload = kummer_payload()
    payload["extra"] = 1
    path = write_json(tmp_path, "unknown.json", payload)
    assert main(["check", path]) == 1
    assert "unknown field" in capsys.readouterr().err

    payload = kummer_payload()
    del payload["points"]
    path = write_json(tmp_path, "missing.json", payload)
    assert main(["check", path]) == 1
    assert "points" in capsys.readouterr().err


def test_check_rejects_float_rationals(tmp_path, capsys):
    payload = kummer_payload()
    payload["c1_squared"] = 1.5
    path = write_json(tmp_path, "float.json", payload)
    assert main(["check", path]) == 1
    assert "error" in capsys.readouterr().err


def test_check_rejects_bad_labels(tmp_path, capsys):
    payload = kummer_payload()
    payload["points"] = ["D3"]
    path = write_json(tmp_path, "badlabel.json", payload)
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert "points[0]" in err and "subscript must be >= 4" in err


@pytest.mark.parametrize("label", ["A\u0663", " A2\n", "A1 "])
def test_check_rejects_loose_labels(tmp_path, capsys, label):
    payload = kummer_payload()
    payload["points"] = ["A1", label]
    path = write_json(tmp_path, "looselabel.json", payload)
    assert main(["check", path]) == 1
    out, err = capsys.readouterr()
    assert_input_error(out, err)
    assert "points[1]" in err and "not an ADE label" in err


def test_check_rejects_bad_gerbe_order(tmp_path, capsys):
    payload = kummer_payload()
    payload["gerbe_order"] = 0
    path = write_json(tmp_path, "gerbe0.json", payload)
    assert main(["check", path]) == 1
    out, err = capsys.readouterr()
    assert_input_error(out, err)
    assert err == f"error: {path}: gerbe_order must be >= 1\n"


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/nowhere.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_check_reports_json_syntax_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "isolated_points",,}')
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert "broken.json:1:" in err


def test_check_rejects_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(kummer_payload()).encode().replace(b'"A1"', b'"A\xff"', 1))
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not UTF-8" in captured.err


def test_check_rejects_a_byte_order_mark(tmp_path, capsys):
    # json.loads refuses a leading BOM; the one reused decoder must refuse it too
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(kummer_payload()).encode())
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"


def test_check_rejects_oversized_integer(tmp_path, capsys):
    path = tmp_path / "huge.json"
    text = json.dumps({**kummer_payload(), "chi_structure_sheaf": 0})
    path.write_text(text.replace('"chi_structure_sheaf": 0', '"chi_structure_sheaf": ' + "7" * 5000))
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # orbichern's own words: CPython's digit-limit text differs between versions
    assert captured.err == f"error: {path}: integer literal has too many digits\n"


def test_check_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_check_rejects_duplicate_keys(tmp_path, capsys):
    # a second canonical_nef_asserted would otherwise win and flip the verdict
    text = json.dumps({**kummer_payload(), "canonical_nef_asserted": False})
    path = tmp_path / "dup.json"
    path.write_text(text[:-1] + ', "canonical_nef_asserted": true}')
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "duplicate field 'canonical_nef_asserted'" in captured.err


def assert_input_error(out, err):
    """Exit-1 output: empty stdout and exactly one ``error: `` line on stderr."""
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_check_error_names_the_field_path(tmp_path, capsys):
    payload = triangle_payload()
    payload["divisors"][0]["ramification"] = 1
    path = write_json(tmp_path, "bad.json", payload)
    assert main(["check", path]) == 1
    captured = capsys.readouterr()
    assert_input_error(*captured)
    assert captured.err == f"error: {path}: snc_pair.divisors[0]: ramification must be >= 2\n"

    payload = triangle_payload()
    payload["crossings"][2]["count"] = "1"
    path = write_json(tmp_path, "count.json", payload)
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: snc_pair.crossings[2].count must be an integer\n"
    )


DROP = object()  # as the value of an ERROR_PATHS case: delete the field instead

# (payload, where in it, the value put there, the error line after "error: PATH: "):
# every shape of path, from a top-level field to a range error inside a list item
ERROR_PATHS = [
    (kummer_payload, ("chi_structure_sheaf",), "2", "isolated_points.chi_structure_sheaf must be an integer"),
    (kummer_payload, ("canonical_nef_asserted",), 1,
     "isolated_points.canonical_nef_asserted must be true or false"),
    (kummer_payload, ("points",), DROP, "isolated_points: missing field 'points'"),
    (kummer_payload, ("colour",), "blue", "isolated_points: unknown field 'colour'"),
    (triangle_payload, ("divisors", 1, "k_dot"), DROP, "snc_pair.divisors[1]: missing field 'k_dot'"),
    (triangle_payload, ("divisors", 2, "colour"), 0, "snc_pair.divisors[2]: unknown field 'colour'"),
    (triangle_payload, ("divisors", 1, "k_dot"), "1/0",
     "snc_pair.divisors[1].k_dot: zero denominator: '1/0'"),
    (triangle_payload, ("divisors", 2, "self_int"), 1.5,
     "snc_pair.divisors[2].self_int: not a rational literal: 1.5"),
    (triangle_payload, ("divisors", 0), 7, "snc_pair.divisors[0] must be an object"),
    (triangle_payload, ("divisors", 2, "ramification"), 1, "snc_pair.divisors[2]: ramification must be >= 2"),
    (triangle_payload, ("crossings", 1), {"i": 2, "j": 2, "count": 1},
     "snc_pair.crossings[1]: crossing indices must satisfy 0 <= i < j"),
    (triangle_payload, ("crossings", 0, "count"), -1, "snc_pair.crossings[0]: crossing count must be >= 0"),
    (triangle_payload, ("crossings", 2, "j"), 3, "snc_pair: crossing (1, 3) names a missing divisor"),
    (kummer_payload, ("points", 3), "D3", "isolated_points.points[3]: type D subscript must be >= 4, got 3"),
    (kummer_payload, ("points", 2), 7, "isolated_points.points[2]: not an ADE label: 7"),
    (kummer_payload, ("points", 5), ["A1"], "isolated_points.points[5]: not an ADE label: ['A1']"),
    (kummer_payload, ("points",), "A1", "isolated_points.points must be a list"),
    (kummer_payload, ("gerbe_order",), "2", "gerbe_order must be an integer"),
    (kummer_payload, ("gerbe_order",), 0, "gerbe_order must be >= 1"),
]


@pytest.mark.parametrize("make, where, value, message", ERROR_PATHS, ids=[case[-1] for case in ERROR_PATHS])
def test_check_error_paths_are_exact(tmp_path, capsys, make, where, value, message):
    payload = make()
    *parents, last = where
    container = payload
    for key in parents:
        container = container[key]
    if value is DROP:
        del container[last]
    else:
        container[last] = value
    path = write_json(tmp_path, "bad.json", payload)
    assert main(["check", path]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_label_and_point_term_caches_change_no_output(tmp_path, capsys):
    """Cached label parses and point terms give what fresh ones give, and a
    rejected label is rejected again on the next file."""
    points = [["A1", "D4", "E6", "A1"], ["A1", "D3"], ["A1", 7], ["A1", ["A1"]], ["D4", "A3", "D3"], ["E6"]]
    paths = []
    for index, labels in enumerate(points):
        payload = kummer_payload()
        payload["points"] = labels
        paths.append(write_json(tmp_path, f"{index}.json", payload))

    def run(clear):
        results = []
        for path in paths:
            if clear:
                cli._cached_label.cache_clear()
                invariants.point_term.cache_clear()
            results.append((main(["check", path]), *capsys.readouterr()))
        return results

    fresh, cached = run(clear=True), run(clear=False)
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 1, 1, 1, 1, 0]


FRACTIONS = st.fractions(max_denominator=10**6) | st.fractions()
LABELS = (
    st.builds(AdeLabel, st.just("A"), st.integers(1, 10**4))
    | st.builds(AdeLabel, st.just("D"), st.integers(2, 10**4))
    | st.builds(AdeLabel, st.just("E"), st.sampled_from((6, 7, 8)))
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    c1_squared=FRACTIONS,
    c2=FRACTIONS,
    margin=FRACTIONS,
    verdict=st.sampled_from(Verdict),
    per_point=st.lists(st.tuples(LABELS, FRACTIONS), max_size=40),
    notes=st.text(max_size=12),
)
def test_structured_render_is_json_dumps_indent_2(c1_squared, c2, margin, verdict, per_point, notes):
    report = InvariantReport(c1_squared, c2, margin, verdict, tuple(per_point), notes)
    payload = {
        "c1_squared": str(c1_squared),
        "c2": str(c2),
        "margin": str(margin),
        "verdict": verdict.value,
        "per_point": [[str(label), str(term)] for label, term in per_point],
        "notes": notes,
    }
    assert cli._render_report_structured(report) == json.dumps(payload, indent=2) + "\n"


README = Path(__file__).resolve().parents[1] / "README.md"


README_EXAMPLES = re.findall(r"^```json\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


@pytest.mark.parametrize("example", README_EXAMPLES, ids=[json.loads(e)["kind"] for e in README_EXAMPLES])
def test_readme_examples_check(tmp_path, capsys, example):
    path = tmp_path / "example.json"
    path.write_text(example)
    assert main(["check", str(path)]) in (0, 3)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kind", [[], {}, None, 7, "snc"])
def test_check_rejects_non_string_or_unknown_kind(tmp_path, capsys, kind):
    payload = kummer_payload()
    payload["kind"] = kind
    path = write_json(tmp_path, "kind.json", payload)
    assert main(["check", path]) == 1
    captured = capsys.readouterr()
    assert_input_error(*captured)
    assert "kind must be" in captured.err


def test_check_rejects_oversized_label_subscript(tmp_path, capsys):
    payload = kummer_payload()
    payload["points"] = ["A1", "A" + "9" * 5000]
    path = write_json(tmp_path, "huge_label.json", payload)
    assert main(["check", path]) == 1
    captured = capsys.readouterr()
    assert_input_error(*captured)
    assert "isolated_points.points[1]" in captured.err


@pytest.mark.parametrize("literal", ["3\n", "3/4\n", "\u0663", "3/\u0664", " 3"])
def test_check_rejects_loose_rational_literals(tmp_path, capsys, literal):
    payload = kummer_payload()
    payload["c1_squared"] = literal
    path = write_json(tmp_path, "loose.json", payload)
    assert main(["check", path]) == 1
    assert_input_error(*capsys.readouterr())


# JSON values of every type; keys are drawn partly from the schema's own
# field names so that records get past the unknown-field check.
FIELD_NAMES = (
    "kind", "gerbe_order", "chi_coarse", "k_squared", "divisors", "crossings",
    "canonical_nef_asserted", "chi_structure_sheaf", "c1_squared", "points",
    "ramification", "chi_divisor", "k_dot", "self_int", "i", "j", "count",
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(("snc_pair", "isolated_points", "A1", "D4", "E9", "3/4", "1/0")),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=6), children, max_size=5),
    max_leaves=10,
)


def slots(value):
    """(container, key) for every field and list item of a description, nested too."""
    for key, item in list(value.items() if isinstance(value, dict) else enumerate(value)):
        yield value, key
        if isinstance(item, (dict, list)):
            yield from slots(item)


@st.composite
def mutated_descriptions(draw):
    """A valid description with one field or list item dropped, added or retyped."""
    payload = draw(st.sampled_from((kummer_payload, triangle_payload)))()
    container, key = draw(st.sampled_from(list(slots(payload))))
    action = draw(st.sampled_from(("drop", "add", "retype")))
    value = draw(JSON_VALUES)
    if action == "drop":
        del container[key]
    elif action == "retype":
        container[key] = value
    elif isinstance(container, list):
        container.insert(key, value)
    else:
        container[draw(st.sampled_from(FIELD_NAMES) | st.text(max_size=6))] = value
    return payload


@settings(derandomize=True, max_examples=300, deadline=None)
@given(payload=JSON_VALUES | mutated_descriptions())
def test_check_never_raises_on_any_json(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "property.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    assert code in (0, 1, 3)
    if code == 1:
        assert_input_error(out.getvalue(), err.getvalue())
    else:
        assert out.getvalue() and err.getvalue() == ""


def random_check_payload(rng):
    """A description of either kind; a quarter carry gerbe_order, some are invalid."""
    def rational():
        return str(F(rng.randint(-60, 60), rng.randint(1, 36)))

    if rng.random() < 0.5:
        count = rng.randint(0, 8)
        payload = {
            "kind": "snc_pair",
            "chi_coarse": rng.randint(-10, 20),
            "k_squared": rational(),
            "divisors": [
                {"ramification": rng.randint(2, 11), "chi_divisor": rng.randint(-4, 4),
                 "k_dot": rational(), "self_int": rational()}
                for _ in range(count)
            ],
            "crossings": [
                {"i": i, "j": j, "count": rng.randint(0, 3)}
                for i in range(count) for j in range(i + 1, count) if rng.random() < 0.3
            ],
        }
        if count and rng.random() < 0.05:
            rng.choice(payload["divisors"])["ramification"] = 1
    else:
        payload = {
            "kind": "isolated_points",
            "chi_structure_sheaf": rng.randint(-2, 12),
            "c1_squared": rational(),
            "points": [
                rng.choice((f"A{rng.randint(0, 40)}", f"D{rng.randint(4, 30)}", f"E{rng.randint(6, 8)}"))
                for _ in range(rng.randint(0, 30))
            ],
        }
    payload["canonical_nef_asserted"] = rng.random() < 0.8
    if rng.random() < 0.25:
        payload["gerbe_order"] = rng.randint(0 if rng.random() < 0.1 else 1, 6)
    return payload


# sha256 over (exit code, stdout, stderr) of `check` on 200 seeded files in
# both formats: one changed byte of a value, verdict or error line fails
CHECK_DIGEST = "45566495123411d0186ced2a48453a20b781b9fddbb06b1d6e71a51adfd51d03"


def test_check_output_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths keep error lines stable
    rng = random.Random(90210)
    digest = hashlib.sha256()
    codes = []
    for index in range(200):
        name = f"{index:03d}.json"
        (tmp_path / name).write_text(json.dumps(random_check_payload(rng)))
        for fmt in ("text", "structured"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["check", name, "--format", fmt])
            codes.append(code)
            digest.update(repr((code, out.getvalue(), err.getvalue())).encode())
    assert {0, 1, 3} <= set(codes)
    assert digest.hexdigest() == CHECK_DIGEST


# ----------------------------------------------------------------------
# group


def test_group_output(capsys):
    assert main(["group", "E6"]) == 0
    out = capsys.readouterr().out
    assert "binary tetrahedral group, order 24" in out
    assert "class sum    = 167/288" in out
    assert "element sum  = 167/288" in out
    assert "closed form  = 167/288" in out
    assert "exact agreement: yes" in out


def test_group_shows_class_table(capsys):
    assert main(["group", "D4"]) == 0
    out = capsys.readouterr().out
    assert "size    2  centralizer    4  trace 0" in out
    assert "class sum    = 13/32" in out


def test_group_trivial_label(capsys):
    assert main(["group", "A0"]) == 0
    out = capsys.readouterr().out
    assert "order 1" in out
    assert "class sum    = 0" in out


def test_group_bad_label(capsys):
    assert main(["group", "Z9"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["A\u0663", " A2\n", "A1 "])
def test_group_rejects_loose_labels(capsys, label):
    assert main(["group", label]) == 1
    assert_input_error(*capsys.readouterr())


def test_group_rejects_oversized_label_subscript(capsys):
    assert main(["group", "A" + "9" * 5000]) == 1
    assert_input_error(*capsys.readouterr())


@pytest.mark.parametrize(
    "error",
    [IdentityFailure, NonRationalTotal, TraceTwoNonIdentity, BoundExceeded, ZeroInversion, FieldMismatch],
)
def test_internal_errors_exit_2_with_one_line(capsys, monkeypatch, error):
    def sabotaged(group):
        raise error("sabotaged")

    monkeypatch.setattr(cli, "build_contribution_report", sabotaged)
    assert main(["group", "A1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error ({error.__name__}): sabotaged\n"


# exact `group` output, pinned: class order, trace and quaternion text, rows
GROUP_GOLDEN = {
    "E6": """\
label E6: binary tetrahedral group, order 24
conjugacy classes (size, centralizer, trace):
  size    1  centralizer   24  trace -2
  size    1  centralizer   24  trace 2
  size    4  centralizer    6  trace -1
  size    4  centralizer    6  trace -1
  size    4  centralizer    6  trace 1
  size    4  centralizer    6  trace 1
  size    6  centralizer    4  trace 0
per-orbit contribution terms:
      1/96  from class of (-1) + (0)i + (0)j + (0)k (size 1, centralizer 24, trace -2)
      1/18  from class of (-1/2) + (-1/2)i + (-1/2)j + (-1/2)k (size 4, centralizer 6, trace -1)
      1/18  from class of (-1/2) + (-1/2)i + (-1/2)j + (1/2)k (size 4, centralizer 6, trace -1)
       1/6  from class of (1/2) + (-1/2)i + (-1/2)j + (-1/2)k (size 4, centralizer 6, trace 1)
       1/6  from class of (1/2) + (-1/2)i + (-1/2)j + (1/2)k (size 4, centralizer 6, trace 1)
       1/8  from class of (0) + (-1)i + (0)j + (0)k (size 6, centralizer 4, trace 0)
class sum    = 167/288
element sum  = 167/288
closed form  = 167/288
exact agreement: yes
""",
    "E7": """\
label E7: binary octahedral group, order 48
conjugacy classes (size, centralizer, trace):
  size    1  centralizer   48  trace -2
  size    1  centralizer   48  trace 2
  size    6  centralizer    8  trace 0
  size    6  centralizer    8  trace -sqrt2
  size    6  centralizer    8  trace sqrt2
  size    8  centralizer    6  trace -1
  size    8  centralizer    6  trace 1
  size   12  centralizer    4  trace 0
per-orbit contribution terms:
     1/192  from class of (-1) + (0)i + (0)j + (0)k (size 1, centralizer 48, trace -2)
      1/16  from class of (0) + (-1)i + (0)j + (0)k (size 6, centralizer 8, trace 0)
       1/4  from classes of (-1/2*sqrt2) + (0)i + (0)j + (-1/2*sqrt2)k and (1/2*sqrt2) + (0)i + (0)j + (-1/2*sqrt2)k (sizes 6+6, traces -sqrt2, sqrt2)
      1/18  from class of (-1/2) + (-1/2)i + (-1/2)j + (-1/2)k (size 8, centralizer 6, trace -1)
       1/6  from class of (1/2) + (-1/2)i + (-1/2)j + (-1/2)k (size 8, centralizer 6, trace 1)
       1/8  from class of (0) + (0)i + (-1/2*sqrt2)j + (-1/2*sqrt2)k (size 12, centralizer 4, trace 0)
class sum    = 383/576
element sum  = 383/576
closed form  = 383/576
exact agreement: yes
""",
    "E8": """\
label E8: binary icosahedral group, order 120
conjugacy classes (size, centralizer, trace):
  size    1  centralizer  120  trace -2
  size    1  centralizer  120  trace 2
  size   12  centralizer   10  trace -1/2 - 1/2*sqrt5
  size   12  centralizer   10  trace -1/2 + 1/2*sqrt5
  size   12  centralizer   10  trace 1/2 - 1/2*sqrt5
  size   12  centralizer   10  trace 1/2 + 1/2*sqrt5
  size   20  centralizer    6  trace -1
  size   20  centralizer    6  trace 1
  size   30  centralizer    4  trace 0
per-orbit contribution terms:
     1/480  from class of (-1) + (0)i + (0)j + (0)k (size 1, centralizer 120, trace -2)
      1/10  from classes of (-1/4 - 1/4*sqrt5) + (-1/2)i + (0)j + (-1/4 + 1/4*sqrt5)k and (-1/4 + 1/4*sqrt5) + (-1/2)i + (-1/4 - 1/4*sqrt5)j + (0)k (sizes 12+12, traces -1/2 - 1/2*sqrt5, -1/2 + 1/2*sqrt5)
      3/10  from classes of (1/4 - 1/4*sqrt5) + (-1/2)i + (-1/4 - 1/4*sqrt5)j + (0)k and (1/4 + 1/4*sqrt5) + (-1/2)i + (0)j + (-1/4 + 1/4*sqrt5)k (sizes 12+12, traces 1/2 - 1/2*sqrt5, 1/2 + 1/2*sqrt5)
      1/18  from class of (-1/2) + (-1/2)i + (-1/2)j + (-1/2)k (size 20, centralizer 6, trace -1)
       1/6  from class of (1/2) + (-1/2)i + (-1/2)j + (-1/2)k (size 20, centralizer 6, trace 1)
       1/8  from class of (0) + (-1)i + (0)j + (0)k (size 30, centralizer 4, trace 0)
class sum    = 1079/1440
element sum  = 1079/1440
closed form  = 1079/1440
exact agreement: yes
""",
    "A4": """\
label A4: cyclic group, order 5
conjugacy classes (size, centralizer, trace):
  size    1  centralizer    5  trace 2
  size    1  centralizer    5  trace -1 - z5^2 - z5^3
  size    1  centralizer    5  trace -1 - z5^2 - z5^3
  size    1  centralizer    5  trace z5^2 + z5^3
  size    1  centralizer    5  trace z5^2 + z5^3
per-orbit contribution terms:
       2/5  from 4 classes of order-5 rotations (size 1, centralizer 5)
class sum    = 2/5
element sum  = 2/5
closed form  = 2/5
exact agreement: yes
""",
    "D6": """\
label D6: binary dihedral group, order 16
conjugacy classes (size, centralizer, trace):
  size    1  centralizer   16  trace -2
  size    1  centralizer   16  trace 2
  size    2  centralizer    8  trace 0
  size    2  centralizer    8  trace -z8 + z8^3
  size    2  centralizer    8  trace z8 - z8^3
  size    4  centralizer    4  trace 0
  size    4  centralizer    4  trace 0
per-orbit contribution terms:
      1/64  from class of a^4 (size 1, centralizer 16, trace -2)
      1/16  from class of a^2 (size 2, centralizer 8, trace 0)
       1/4  from 2 classes of order-8 rotations (size 2, centralizer 8)
       1/8  from class of x (size 4, centralizer 4, trace 0)
       1/8  from class of x*a (size 4, centralizer 4, trace 0)
class sum    = 37/64
element sum  = 37/64
closed form  = 37/64
exact agreement: yes
""",
    "A11": """\
label A11: cyclic group, order 12
conjugacy classes (size, centralizer, trace):
  size    1  centralizer   12  trace -2
  size    1  centralizer   12  trace -1
  size    1  centralizer   12  trace -1
  size    1  centralizer   12  trace 0
  size    1  centralizer   12  trace 0
  size    1  centralizer   12  trace 1
  size    1  centralizer   12  trace 1
  size    1  centralizer   12  trace 2
  size    1  centralizer   12  trace -2*z12 + z12^3
  size    1  centralizer   12  trace -2*z12 + z12^3
  size    1  centralizer   12  trace 2*z12 - z12^3
  size    1  centralizer   12  trace 2*z12 - z12^3
per-orbit contribution terms:
      1/48  from class of a^6 (size 1, centralizer 12, trace -2)
      1/36  from class of a^4 (size 1, centralizer 12, trace -1)
      1/36  from class of a^8 (size 1, centralizer 12, trace -1)
      1/24  from class of a^3 (size 1, centralizer 12, trace 0)
      1/24  from class of a^9 (size 1, centralizer 12, trace 0)
      1/12  from class of a^2 (size 1, centralizer 12, trace 1)
      1/12  from class of a^10 (size 1, centralizer 12, trace 1)
       2/3  from 4 classes of order-12 rotations (size 1, centralizer 12)
class sum    = 143/144
element sum  = 143/144
closed form  = 143/144
exact agreement: yes
""",
    "D9": """\
label D9: binary dihedral group, order 28
conjugacy classes (size, centralizer, trace):
  size    1  centralizer   28  trace -2
  size    1  centralizer   28  trace 2
  size    2  centralizer   14  trace -1 - z14^2 + z14^3 - z14^4 + z14^5
  size    2  centralizer   14  trace -z14^2 + z14^5
  size    2  centralizer   14  trace -z14^3 + z14^4
  size    2  centralizer   14  trace z14^3 - z14^4
  size    2  centralizer   14  trace z14^2 - z14^5
  size    2  centralizer   14  trace 1 + z14^2 - z14^3 + z14^4 - z14^5
  size    7  centralizer    4  trace 0
  size    7  centralizer    4  trace 0
per-orbit contribution terms:
     1/112  from class of a^7 (size 1, centralizer 28, trace -2)
       1/7  from 3 classes of order-7 rotations (size 2, centralizer 14)
       3/7  from 3 classes of order-14 rotations (size 2, centralizer 14)
       1/8  from class of x (size 7, centralizer 4, trace 0)
       1/8  from class of x*a (size 7, centralizer 4, trace 0)
class sum    = 93/112
element sum  = 93/112
closed form  = 93/112
exact agreement: yes
""",
}


@pytest.mark.parametrize("label", sorted(GROUP_GOLDEN))
def test_group_golden_output(capsys, label):
    assert main(["group", label]) == 0
    assert capsys.readouterr().out == GROUP_GOLDEN[label]


# sha256 of `group` stdout for composite conductors, where a class trace is
# a dense row of ζ-powers past φ(m): one moved coefficient or class fails
GROUP_DIGESTS = {
    "A209": "7a3464fb236deede2be1638ec94ce3585d8d1ca002cefe58c7c8112e3860787e",
    "A272": "78d62be0da1649fc001a4e6393ab93d4eca09302f05cae4e55ce19100f15d641",
    "A299": "84e66a6745a0fc20c01406c8824c6c6c435806dc47e1ee9c23dd7b733761d127",
    "D107": "22d217061a82901e1a9ef14c9e94e3f496523cbae2f85f1bb5c846119980d673",
}


@pytest.mark.parametrize("label", sorted(GROUP_DIGESTS))
def test_group_output_digest(capsys, label):
    assert main(["group", label]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GROUP_DIGESTS[label]


# ----------------------------------------------------------------------
# identity


def test_identity_type_a(capsys):
    assert main(["identity", "--n", "12", "--which", "type_a"]) == 0
    out = capsys.readouterr().out
    assert "rotation-sum identity, type A, n = 12" in out
    assert "lhs = 143/144" in out
    assert "rhs = 143/144" in out
    assert "PASS" in out


def test_identity_half_angle(capsys):
    assert main(["identity", "--n", "3", "--which", "half_angle"]) == 0
    out = capsys.readouterr().out
    assert "half-angle identity, n = 3" in out
    assert "lhs = 4/3" in out
    assert "PASS" in out


def test_identity_stdout_is_pinned_up_to_300(capsys):
    """Every n in 2..300, both kinds: the exact text, with each side from Fraction."""
    for n in range(2, 301):
        for which, header, value in (
            ("type_a", f"rotation-sum identity, type A, n = {n}", F(n * n - 1, 12 * n)),
            ("half_angle", f"half-angle identity, n = {n}", F(n * n - 1, 6)),
        ):
            assert main(["identity", "--n", str(n), "--which", which]) == 0
            captured = capsys.readouterr()
            assert captured.out == f"{header}\nlhs = {value}\nrhs = {value}\nPASS\n", (n, which)
            assert captured.err == ""


def test_identity_small_n_is_an_input_error(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["identity", "--n", "1", "--which", "type_a"])
    assert stop.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --n: must be >= 2" in captured.err


def test_reused_parser_matches_a_fresh_one(tmp_path, capsys):
    """main builds its parser once; no state carries from one call to the next."""
    path = write_json(tmp_path, "kummer.json", kummer_payload())
    sequence = [
        ["check", path],
        ["identity", "--n", "12", "--which", "half_angle"],
        ["table", "--max-n", "3", "--format", "xml"],
        ["group", "A4"],
    ]

    def run(argv, fresh):
        if fresh:
            cli._build_parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        return (code, *capsys.readouterr())

    fresh = [run(argv, fresh=True) for argv in sequence]
    parser = cli._build_parser()
    reused = [run(argv, fresh=False) for argv in sequence]
    assert cli._build_parser() is parser
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 1, 0]
    assert reused[2][1] == "" and reused[2][2].startswith("usage: orbichern")
    assert reused[2][2].endswith(
        "orbichern table: error: argument --format: must be text or structured, got 'xml'\n"
    )


def test_identity_failure_exits_2(capsys, monkeypatch):
    def sabotaged(n):
        raise IdentityFailure("lhs != rhs (sabotaged)")

    monkeypatch.setattr(cli, "verify_type_a_identity", sabotaged)
    assert main(["identity", "--n", "5", "--which", "type_a"]) == 2
    assert "FAIL" in capsys.readouterr().out


# ----------------------------------------------------------------------
# table


def test_table_text(capsys):
    assert main(["table", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["label", "|G|", "chi(E)", "closed", "form",
                                "class", "sum", "agrees"]
    assert any(line.startswith("A2") and "2/9" in line for line in lines)
    assert any(line.startswith("D5") and "71/144" in line for line in lines)
    assert any(line.startswith("E8") and "1079/1440" in line for line in lines)
    assert all(line.endswith("yes") for line in lines[1:])


def test_table_with_element_sum_oracle(capsys):
    assert main(["table", "--max-n", "2", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "element sum" in out.splitlines()[0]


def test_table_structured(capsys):
    assert main(["table", "--max-n", "4", "--format", "structured"]) == 0
    rows = json.loads(capsys.readouterr().out)
    labels = [row["label"] for row in rows]
    assert labels == ["A1", "A2", "A3", "D4", "D5", "D6", "E6", "E7", "E8"]
    by_label = {row["label"]: row for row in rows}
    assert F(by_label["A3"]["closed_form"]) == F(5, 16)
    assert F(by_label["D6"]["class_sum"]) == F(37, 64)
    assert all(row["agrees"] is True for row in rows)
    assert all(F(row["class_sum"]) == F(row["closed_form"]) for row in rows)


def test_table_small_max_n_is_an_input_error(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["table", "--max-n", "1"])
    assert stop.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --max-n: must be >= 2" in captured.err


@pytest.mark.parametrize("text", ["\u0663", " 3 ", "+3", "1_0"])
@pytest.mark.parametrize("argv", [["identity", "--which", "type_a", "--n"], ["table", "--max-n"]])
def test_orders_take_ascii_digits_only(capsys, argv, text):
    with pytest.raises(SystemExit) as stop:
        main(argv + [text])
    assert stop.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid int value: {text!r}" in captured.err


# ----------------------------------------------------------------------
# usage errors


IDENTITY_USAGE = "usage: orbichern identity [-h] --n N --which {type_a,half_angle}\n"
TABLE_USAGE = (
    "usage: orbichern table [-h] --max-n MAX_N [--oracle]\n"
    "                       [--format {text,structured}]\n"
)


# argv -> the whole stderr, byte for byte: it must not change with the Python version
USAGE_ERRORS = {
    ("identity", "--n", "abc", "--which", "type_a"):
        IDENTITY_USAGE + "orbichern identity: error: argument --n: invalid int value: 'abc'\n",
    ("identity", "--n", "5"):
        IDENTITY_USAGE + "orbichern identity: error: the following arguments are required: --which\n",
    ("table", "--max-n", "3", "--format", "xml"):
        TABLE_USAGE + "orbichern table: error: argument --format: must be text or structured, got 'xml'\n",
    ("group",):
        "usage: orbichern group [-h] label\n"
        "orbichern group: error: the following arguments are required: label\n",
    ():
        "usage: orbichern [-h] {check,group,identity,table} ...\n"
        "orbichern: error: the following arguments are required: command\n",
    ("bogus",):
        "usage: orbichern [-h] {check,group,identity,table} ...\n"
        "orbichern: error: argument command: must be check, group, identity or table, got 'bogus'\n",
    ("check", "f.json", "--format", "xml"):
        "usage: orbichern check [-h] [--format {text,structured}] path\n"
        "orbichern check: error: argument --format: must be text or structured, got 'xml'\n",
    ("identity", "--n", "5", "--which", "nope"):
        IDENTITY_USAGE
        + "orbichern identity: error: argument --which: must be type_a or half_angle, got 'nope'\n",
}


@pytest.mark.parametrize("argv", [list(argv) for argv in USAGE_ERRORS])
def test_usage_errors_exit_1(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage line to the terminal
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == USAGE_ERRORS[tuple(argv)]


# ----------------------------------------------------------------------
# determinism (subprocess, the real entry point)


def run_cli(env, *args):
    return subprocess.run(
        [sys.executable, "-m", "orbichern", *args],
        capture_output=True,
        text=False,
        check=False,
        env=env,
    )


def test_module_entry_point_runs(child_env):
    result = run_cli(child_env, "identity", "--n", "6", "--which", "type_a")
    assert result.returncode == 0
    assert b"35/72" in result.stdout


def test_table_output_is_byte_deterministic(child_env):
    first = run_cli(child_env, "table", "--max-n", "8")
    second = run_cli(child_env, "table", "--max-n", "8")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty
