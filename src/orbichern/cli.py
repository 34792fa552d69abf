"""Command-line front end.

Subcommands:

* ``check <file> [--format text|structured]``: read a surface description
  (strict JSON schema, the ``_KINDS`` table), compute the invariant
  report, exit 0 unless the inequality fails (exit 3) or the file is
  invalid (exit 1, with the offending value's path in the message).
* ``group <label>``: conjugacy table and the three contribution routes
  for one ADE group, with an exact-equality confirmation.
* ``identity --n N --which type_a|half_angle``: print both sides of the
  named identity and PASS/FAIL (FAIL exits 2).
* ``table --max-n N [--oracle] [--format text|structured]``: catalog
  closed forms next to brute-force class sums for every label with
  family parameter up to N, plus the three E types.

Exit codes: 0 success (including NotApplicable), 1 input error (a usage
error, ``DescriptionError`` or ``InvalidLabel``), 2 any other package
error (an internal cross-check failed), 3 inequality fails.  ``main``
takes the code from the error's ``exit_code`` and prints one stderr line.
Output is deterministic: fixed orderings, exact rationals, no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .ade import AdeLabel, resolution_data
from .contributions import (
    build_contribution_report,
    element_sum_contribution,
    verify_type_a_identity,
    verify_type_d_half_angle_identity,
)
from .errors import DescriptionError, IdentityFailure, InvalidLabel, OrbichernError
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
# description files: one schema table
#
# A reader takes a value and returns it converted, or raises DescriptionError
# with its own part of the message (" must be an integer"); each enclosing reader
# adds its part as the error passes up ("[index]", ".key", "PATH: kind"), so no
# path is built on the happy path.  Range checks live in ``invariants``.


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DescriptionError(" must be an integer")
    return value


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise DescriptionError(" must be true or false")
    return value


def _rational(value) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise DescriptionError(f": {exc}") from None


@functools.lru_cache  # one parse per distinct label text; ``_label`` passes only str
def _cached_label(text: str) -> AdeLabel:
    return AdeLabel.from_string(text)


def _label(value) -> AdeLabel:
    try:
        return _cached_label(value) if isinstance(value, str) else AdeLabel.from_string(value)
    except InvalidLabel as exc:
        raise DescriptionError(f": {exc}") from None


def _list_of(read):
    def read_list(value) -> tuple:
        if not isinstance(value, list):
            raise DescriptionError(" must be a list")
        items = []
        try:
            for item in value:
                items.append(read(item))
        except DescriptionError as exc:
            raise DescriptionError(f"[{len(items)}]{exc}") from None
        return tuple(items)

    return read_list


def _record(cls, **fields):
    """Reader of a JSON object whose keys are exactly ``cls``'s field names."""

    def read_record(value):
        if not isinstance(value, dict):
            raise DescriptionError(" must be an object")
        if value.keys() != fields.keys():
            for key in value:
                if key not in fields:
                    raise DescriptionError(f": unknown field {key!r}")
            for key in fields:
                if key not in value:
                    raise DescriptionError(f": missing field {key!r}")
        values = {}
        try:
            for key, read in fields.items():
                values[key] = read(value[key])
            return cls(**values)
        except DescriptionError as exc:  # from a field's reader, or a range check of cls
            where = f".{key}" if len(values) < len(fields) else ": "
            raise DescriptionError(f"{where}{exc}") from None

    return read_record


_KINDS = {
    "snc_pair": _record(
        SncPairDescription,
        chi_coarse=_integer,
        k_squared=_rational,
        divisors=_list_of(_record(
            DivisorEntry,
            ramification=_integer,
            chi_divisor=_integer,
            k_dot=_rational,
            self_int=_rational,
        )),
        crossings=_list_of(_record(Crossing, i=_integer, j=_integer, count=_integer)),
        canonical_nef_asserted=_flag,
    ),
    "isolated_points": _record(
        IsolatedPointsDescription,
        chi_structure_sheaf=_integer,
        c1_squared=_rational,
        points=_list_of(_label),
        canonical_nef_asserted=_flag,
    ),
}


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` that refuses a key given twice in one object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DescriptionError(f"duplicate field {key!r}")
        obj[key] = value
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # one decoder, reused per file


def load_description(path: str):
    """Parse a surface-description file; returns (description, gerbe_order).

    The top-level object holds ``kind``, an optional ``gerbe_order`` and
    the fields of the kind's record in ``_KINDS``.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if text.startswith("\ufeff"):  # the check json.loads makes before decoding
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        obj = _DECODER.decode(text)
    except OSError as exc:
        raise DescriptionError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DescriptionError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise DescriptionError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except (DescriptionError, RecursionError) as exc:  # a duplicate key, or nesting past the stack
        raise DescriptionError(f"{path}: {exc}") from None
    except ValueError:  # CPython words its digit-limit error differently by version
        raise DescriptionError(f"{path}: integer literal has too many digits") from None
    if not isinstance(obj, dict):
        raise DescriptionError(f"{path}: top level must be an object")
    kind = obj.pop("kind", None)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise DescriptionError(
            f"{path}: kind must be \"snc_pair\" or \"isolated_points\", got {kind!r}"
        )
    where = "gerbe_order"
    try:
        gerbe_order = _integer(obj.pop("gerbe_order", 1))
        where = kind
        return _KINDS[kind](obj), gerbe_order
    except DescriptionError as exc:
        raise DescriptionError(f"{path}: {where}{exc}") from None


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
    # json.dumps(payload, indent=2) + "\n" from C-encoded leaves (an indent is pure Python)
    leaf = json.encoder.encode_basestring_ascii
    rows = ",\n".join(
        f"    [\n      {leaf(str(label))},\n      {leaf(str(term))}\n    ]"
        for label, term in report.per_point
    )
    per_point = f"[\n{rows}\n  ]" if rows else "[]"
    return (
        f'{{\n  "c1_squared": {leaf(str(report.c1_squared))},\n  "c2": {leaf(str(report.c2))},\n'
        f'  "margin": {leaf(str(report.margin))},\n  "verdict": {leaf(report.verdict.value)},\n'
        f'  "per_point": {per_point},\n'
        f'  "notes": {leaf(report.notes)}\n}}\n'
    )


# ----------------------------------------------------------------------
# subcommands


def cmd_check(path: str, fmt: str) -> int:
    desc, gerbe_order = load_description(path)
    if isinstance(desc, SncPairDescription):
        report = snc_report(desc)
    else:
        report = isolated_points_report(desc)
    try:
        report = gerbe_scale(report, gerbe_order)
    except DescriptionError as exc:
        raise DescriptionError(f"{path}: {exc}") from None
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
    texts: dict = {}  # rotation label -> trace text, printed once per distinct trace
    for c in group.classes:
        key = c.representative.rotation()
        if key not in texts:
            texts[key] = c.trace_str()
        out.append(
            f"  size {c.size:>4}  centralizer {c.centralizer_order:>4}  "
            f"trace {texts[key]}"
        )
    report = build_contribution_report(group)
    if report.per_class_terms:
        out.append("per-orbit contribution terms:")
        for desc, value in report.per_class_terms:
            out.append(f"  {str(value):>8}  from {desc}")
    element_sum = element_sum_contribution(group)
    out.append(f"class sum    = {report.class_sum}")
    out.append(f"element sum  = {element_sum}")
    out.append(f"closed form  = {report.closed_form}")
    if element_sum != report.class_sum:
        raise IdentityFailure(
            f"{label}: contribution routes disagree: "
            f"{report.class_sum}, {element_sum}, {report.closed_form}"
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
        if oracle:
            element_sum = element_sum_contribution(group)
            row["element_sum"] = str(element_sum)
            if element_sum != report.class_sum:
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
        [str(row[k]) for k in keys] + ["yes"] for row in rows
    ]
    widths = [max(len(line[col]) for line in table) for col in range(len(headers))]
    out = []
    for line in table:
        out.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    sys.stdout.write("\n".join(out) + "\n")
    return 0


# ----------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1, the input-error code."""

    def error(self, message: str):
        head, _, rest = message.partition("argument command: invalid choice: ")
        if rest and not head:  # argparse words this differently by version
            got = rest.rpartition(" (choose from ")[0]
            message = f"argument command: must be check, group, identity or table, got {got}"
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _order(text: str) -> int:
    """argparse type of ``--n`` and ``--max-n``: ASCII digits, at least 2."""
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if int(text) < 2:
        raise argparse.ArgumentTypeError("must be >= 2")
    return int(text)


def _one_of(*names: str) -> dict:
    """``add_argument`` keywords: ``choices=names``, with one error text on every Python."""

    def choose(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(f"must be {' or '.join(names)}, got {text!r}")
        return text

    return {"type": choose, "metavar": "{" + ",".join(names) + "}"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use; parse_args keeps no state between calls."""
    parser = _Parser(
        prog="orbichern",
        description=(
            "Exact orbifold Chern/Euler invariants, ADE quotient contributions, "
            "and the 3c2 >= c1^2 check."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check a surface description file")
    p_check.add_argument("path")
    p_check.add_argument("--format", default="text", **_one_of("text", "structured"))

    p_group = sub.add_parser("group", help="print one ADE group's data")
    p_group.add_argument("label")

    p_identity = sub.add_parser("identity", help="verify a rotation-sum identity")
    p_identity.add_argument("--n", type=_order, required=True)
    p_identity.add_argument("--which", required=True, **_one_of("type_a", "half_angle"))

    p_table = sub.add_parser("table", help="contribution table for all families")
    p_table.add_argument("--max-n", type=_order, required=True, dest="max_n")
    p_table.add_argument("--oracle", action="store_true")
    p_table.add_argument("--format", default="text", **_one_of("text", "structured"))

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args.path, args.format)
        if args.command == "group":
            return cmd_group(args.label)
        if args.command == "identity":
            return cmd_identity(args.n, args.which)
        return cmd_table(args.max_n, args.oracle, args.format)
    except OrbichernError as exc:
        prefix = "error" if exc.exit_code == 1 else f"internal error ({type(exc).__name__})"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
