"""Command-line front end.

Subcommands:

* ``check <file> [--format text|structured]``: read a surface description
  (strict JSON schema), compute the invariant report, exit 0 unless the
  inequality fails (exit 3) or the file is invalid (exit 1).
* ``group <label>``: conjugacy table and the three contribution routes
  for one ADE group, with an exact-equality confirmation.
* ``identity --n N --which type_a|half_angle``: print both sides of the
  named identity and PASS/FAIL (FAIL exits 2).
* ``table --max-n N [--oracle] [--format text|structured]``: catalog
  closed forms next to brute-force class sums for every label with
  family parameter up to N, plus the three E types.

Exit codes: 0 success (including NotApplicable), 1 input error, 2
internal identity failure, 3 inequality fails.  Output is deterministic:
fixed orderings, exact rationals, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .ade import AdeLabel, resolution_data
from .contributions import (
    build_contribution_report,
    closed_form_contribution,
    element_sum_contribution,
    verify_type_a_identity,
    verify_type_d_half_angle_identity,
)
from .errors import DescriptionError, IdentityFailure, InvalidLabel
from .groups import build_ade_group
from .invariants import (
    Crossing,
    DivisorEntry,
    InvariantReport,
    IsolatedPointsDescription,
    SncPairDescription,
    Verdict,
    gerbe_scale,
    isolated_points_report,
    snc_report,
)
from .scalars import parse_rational

_GROUP_NAMES = {
    "A": "cyclic group",
    "D": "binary dihedral group",
    "E6": "binary tetrahedral group",
    "E7": "binary octahedral group",
    "E8": "binary icosahedral group",
}


# ----------------------------------------------------------------------
# strict description-file parsing


def _check_keys(obj: dict, where: str, required: tuple, optional: tuple = ()) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise DescriptionError(f"{where}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise DescriptionError(f"{where}: missing field {key!r}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DescriptionError(f"{where} must be an integer")
    return value


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise DescriptionError(f"{where} must be true or false")
    return value


def _as_rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise DescriptionError(f"{where} must be a rational \"p/q\" string or integer")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise DescriptionError(f"{where}: {exc}") from None
    raise DescriptionError(f"{where} must be a rational \"p/q\" string or integer")


def _as_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise DescriptionError(f"{where} must be a list")
    return value


def _parse_snc_pair(obj: dict):
    _check_keys(
        obj,
        "snc_pair",
        ("kind", "chi_coarse", "k_squared", "divisors", "crossings", "canonical_nef_asserted"),
        ("gerbe_order",),
    )
    divisors = []
    for index, raw in enumerate(_as_list(obj["divisors"], "divisors")):
        where = f"divisors[{index}]"
        if not isinstance(raw, dict):
            raise DescriptionError(f"{where} must be an object")
        _check_keys(raw, where, ("ramification", "chi_divisor", "k_dot", "self_int"))
        fields = (
            _as_int(raw["ramification"], f"{where}.ramification"),
            _as_int(raw["chi_divisor"], f"{where}.chi_divisor"),
            _as_rational(raw["k_dot"], f"{where}.k_dot"),
            _as_rational(raw["self_int"], f"{where}.self_int"),
        )
        try:
            divisors.append(DivisorEntry(*fields))
        except DescriptionError as exc:
            raise DescriptionError(f"{where}: {exc}") from None
    crossings = []
    for index, raw in enumerate(_as_list(obj["crossings"], "crossings")):
        where = f"crossings[{index}]"
        if not isinstance(raw, dict):
            raise DescriptionError(f"{where} must be an object")
        _check_keys(raw, where, ("i", "j", "count"))
        fields = (
            _as_int(raw["i"], f"{where}.i"),
            _as_int(raw["j"], f"{where}.j"),
            _as_int(raw["count"], f"{where}.count"),
        )
        try:
            crossings.append(Crossing(*fields))
        except DescriptionError as exc:
            raise DescriptionError(f"{where}: {exc}") from None
    try:
        return SncPairDescription(
            _as_int(obj["chi_coarse"], "chi_coarse"),
            _as_rational(obj["k_squared"], "k_squared"),
            tuple(divisors),
            tuple(crossings),
            _as_bool(obj["canonical_nef_asserted"], "canonical_nef_asserted"),
        )
    except DescriptionError as exc:
        raise DescriptionError(f"snc_pair: {exc}") from None


def _parse_isolated_points(obj: dict):
    _check_keys(
        obj,
        "isolated_points",
        ("kind", "chi_structure_sheaf", "c1_squared", "points", "canonical_nef_asserted"),
        ("gerbe_order",),
    )
    points = []
    for index, raw in enumerate(_as_list(obj["points"], "points")):
        where = f"points[{index}]"
        if not isinstance(raw, str):
            raise DescriptionError(f"{where} must be an ADE label string")
        try:
            points.append(AdeLabel.from_string(raw))
        except InvalidLabel as exc:
            raise DescriptionError(f"{where}: {exc}") from None
    return IsolatedPointsDescription(
        _as_int(obj["chi_structure_sheaf"], "chi_structure_sheaf"),
        _as_rational(obj["c1_squared"], "c1_squared"),
        tuple(points),
        _as_bool(obj["canonical_nef_asserted"], "canonical_nef_asserted"),
    )


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` that refuses a key given twice in one object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DescriptionError(f"duplicate field {key!r}")
        obj[key] = value
    return obj


def load_description(path: str):
    """Parse a surface-description file; returns (description, gerbe_order)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DescriptionError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DescriptionError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DescriptionError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except DescriptionError as exc:
        raise DescriptionError(f"{path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # an integer literal past Python's digit limit, or nesting past the stack
        raise DescriptionError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise DescriptionError(f"{path}: top level must be an object")
    kind = obj.get("kind")
    if kind == "snc_pair":
        desc = _parse_snc_pair(obj)
    elif kind == "isolated_points":
        desc = _parse_isolated_points(obj)
    else:
        raise DescriptionError(
            f"{path}: kind must be \"snc_pair\" or \"isolated_points\", got {kind!r}"
        )
    gerbe_order = 1
    if "gerbe_order" in obj:
        gerbe_order = _as_int(obj["gerbe_order"], "gerbe_order")
        if gerbe_order < 1:
            raise DescriptionError("gerbe_order must be >= 1")
    return desc, gerbe_order


# ----------------------------------------------------------------------
# rendering


def _render_report_text(report: InvariantReport) -> str:
    lines = [
        f"c1^2    = {report.c1_squared}",
        f"c2      = {report.c2}",
        f"margin  = {report.margin}",
        f"verdict = {report.verdict}",
    ]
    if report.per_point:
        lines.append("per-point terms (chi(E) - 1/|G|):")
        for label, term in report.per_point:
            lines.append(f"  {label}  {term}")
    if report.notes:
        lines.append(f"notes: {report.notes}")
    return "\n".join(lines) + "\n"


def _render_report_structured(report: InvariantReport) -> str:
    payload = {
        "c1_squared": str(report.c1_squared),
        "c2": str(report.c2),
        "margin": str(report.margin),
        "verdict": report.verdict.value,
        "per_point": [
            [str(label), str(term)] for label, term in report.per_point
        ],
        "notes": report.notes,
    }
    return json.dumps(payload, indent=2) + "\n"


# ----------------------------------------------------------------------
# subcommands


def cmd_check(path: str, fmt: str) -> int:
    desc, gerbe_order = load_description(path)
    if isinstance(desc, SncPairDescription):
        report = snc_report(desc)
    else:
        report = isolated_points_report(desc)
    report = gerbe_scale(report, gerbe_order)
    if fmt == "structured":
        sys.stdout.write(_render_report_structured(report))
    else:
        sys.stdout.write(_render_report_text(report))
    return 3 if report.verdict is Verdict.FAILS else 0


def cmd_group(label_text: str) -> int:
    label = AdeLabel.from_string(label_text)
    group = build_ade_group(label)
    family = _GROUP_NAMES.get(str(label)) or _GROUP_NAMES[label.kind]
    out = [f"label {label}: {family}, order {group.order}"]
    out.append("conjugacy classes (size, centralizer, trace):")
    for c in group.classes:
        out.append(
            f"  size {c.size:>4}  centralizer {c.centralizer_order:>4}  "
            f"trace {c.trace_str()}"
        )
    report = build_contribution_report(group)
    if report.per_class_terms:
        out.append("per-orbit contribution terms:")
        for desc, value in report.per_class_terms:
            out.append(f"  {str(value):>8}  from {desc}")
    element_sum = element_sum_contribution(group)
    closed = closed_form_contribution(label)
    out.append(f"class sum    = {report.class_sum}")
    out.append(f"element sum  = {element_sum}")
    out.append(f"closed form  = {closed}")
    if not (report.class_sum == element_sum == closed):
        raise IdentityFailure(
            f"{label}: contribution routes disagree: "
            f"{report.class_sum}, {element_sum}, {closed}"
        )
    out.append("exact agreement: yes")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def cmd_identity(n: int, which: str) -> int:
    if which == "type_a":
        header = f"rotation-sum identity, type A, n = {n}"
        rhs = Fraction(n * n - 1, 12 * n)
        verify = verify_type_a_identity
    else:
        header = f"half-angle identity, n = {n}"
        rhs = Fraction(n * n - 1, 6)
        verify = verify_type_d_half_angle_identity
    try:
        lhs = verify(n)
    except IdentityFailure as exc:
        sys.stdout.write(f"{header}\nFAIL: {exc}\n")
        return 2
    sys.stdout.write(
        f"{header}\n"
        f"lhs = {lhs}\n"
        f"rhs = {rhs}\n"
        "PASS\n"
    )
    return 0


def _table_rows(max_n: int, oracle: bool) -> list[dict]:
    labels = [AdeLabel("A", n) for n in range(2, max_n + 1)]
    labels += [AdeLabel("D", n) for n in range(2, max_n + 1)]
    labels += [AdeLabel("E", k) for k in (6, 7, 8)]
    rows = []
    for label in labels:
        data = resolution_data(label)
        group = build_ade_group(label)
        report = build_contribution_report(group)
        row = {
            "label": str(label),
            "order": data.group_order,
            "chi_exceptional": data.chi_exceptional,
            "closed_form": str(report.closed_form),
            "class_sum": str(report.class_sum),
        }
        agree = report.class_sum == report.closed_form
        if oracle:
            element_sum = element_sum_contribution(group)
            row["element_sum"] = str(element_sum)
            agree = agree and element_sum == report.class_sum
        if not agree:
            raise IdentityFailure(f"{label}: table row routes disagree")
        row["agrees"] = True
        rows.append(row)
    return rows


def cmd_table(max_n: int, oracle: bool, fmt: str) -> int:
    rows = _table_rows(max_n, oracle)
    if fmt == "structured":
        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
        return 0
    headers = ["label", "|G|", "chi(E)", "closed form", "class sum"]
    keys = ["label", "order", "chi_exceptional", "closed_form", "class_sum"]
    if oracle:
        headers.append("element sum")
        keys.append("element_sum")
    headers.append("agrees")
    table = [headers] + [
        [str(row[k]) for k in keys] + ["yes" if row["agrees"] else "NO"] for row in rows
    ]
    widths = [max(len(line[col]) for line in table) for col in range(len(headers))]
    out = []
    for line in table:
        out.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    sys.stdout.write("\n".join(out) + "\n")
    return 0


# ----------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbichern",
        description=(
            "Exact orbifold Chern/Euler invariants, ADE quotient contributions, "
            "and the 3c2 >= c1^2 check."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check a surface description file")
    p_check.add_argument("path")
    p_check.add_argument("--format", choices=("text", "structured"), default="text")

    p_group = sub.add_parser("group", help="print one ADE group's data")
    p_group.add_argument("label")

    p_identity = sub.add_parser("identity", help="verify a rotation-sum identity")
    p_identity.add_argument("--n", type=int, required=True)
    p_identity.add_argument("--which", choices=("type_a", "half_angle"), required=True)

    p_table = sub.add_parser("table", help="contribution table for all families")
    p_table.add_argument("--max-n", type=int, required=True, dest="max_n")
    p_table.add_argument("--oracle", action="store_true")
    p_table.add_argument("--format", choices=("text", "structured"), default="text")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args.path, args.format)
        if args.command == "group":
            return cmd_group(args.label)
        if args.command == "identity":
            if args.n < 2:
                print("error: --n must be >= 2", file=sys.stderr)
                return 1
            return cmd_identity(args.n, args.which)
        if args.max_n < 2:
            print("error: --max-n must be >= 2", file=sys.stderr)
            return 1
        return cmd_table(args.max_n, args.oracle, args.format)
    except DescriptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvalidLabel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IdentityFailure as exc:
        print(f"internal identity failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
