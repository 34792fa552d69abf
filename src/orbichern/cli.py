"""Command-line front end.

Subcommands:

* ``check <file> [--format text|structured]``: read a surface description
  (strict JSON, one record schema per kind: ``_KINDS``), compute the invariant
  report, exit 0 unless the inequality fails (exit 3) or the file is
  invalid (exit 1, with the offending value's path in the message).  A
  file past ``_MAX_FILE_BYTES`` (16 MiB) is an input error too, so an
  endless input such as ``/dev/zero`` ends in one error line.
* ``group <label>``: conjugacy table and the three contribution routes
  for one ADE group, with an exact-equality confirmation; the group's
  name and order come from the ``ade`` catalog (``resolution_data``).
* ``identity --n N --which type_a|half_angle``: print both sides of the
  named identity and PASS/FAIL (FAIL exits 2).
* ``table --max-n N [--oracle] [--format text|structured]``: catalog
  closed forms next to brute-force class sums for every label with
  family parameter up to N, plus the three E types.

Two readers turn argv into a command.  ``_read_documented`` takes the
four spellings above, tokens in the order shown, each option spelled in
full and given once, and returns None for anything else, including a
value that fails its check.  ``main`` sends every None to
``_parse_with_argparse``, whose parser (and ``argparse`` itself) is
loaded on first use, so help, usage errors and every other spelling
argparse accepts keep argparse's output.  ``_order`` and the ``_one_of``
checks are each value's one validity rule on both paths.

Imports: ``check`` loads only this module, ``ade``, ``errors`` and
``invariants``; its integers, flags and rationals are read by
``invariants.SCALAR_READERS``, the readers the record constructors use,
so a record and a file take the same values (a rational by
``parse_rational``, the wire form, through the literal and integer
tables that live with it in ``invariants``).  ``group``, ``identity`` and
``table`` also run the group and field layers: their first call of
``_bind_deferred`` imports
``contributions``, which imports ``scalars`` and then ``groups``, and
binds the five entry points in ``_DEFERRED`` as attributes of this
module.  The commands read those names as module globals when they run,
never through a local import, so a wrapper set on this module by name
(``perfbench/worker.py --trace 1``, the tests' monkeypatches) is what
they call; ``__getattr__`` binds them for a caller that reads one first.

Collector: ``main`` runs each command, its argv reading included, with
Python's cyclic garbage collector paused, and enables it again on the
way out only if it was enabled on entry, so the caller's setting is
restored on every exit path.  No command makes a reference cycle on its
hot path, so the passes the collector would make find nothing, and each
one walks every young container: the trace rows and power rows of a
large group hold phi(m) items each.  The pause holds for the whole
process while a command runs; a cycle another thread makes meanwhile is
collected at the first pass after it.

Exit codes: 0 success (including NotApplicable), 1 input error (a usage
error, ``DescriptionError`` or ``InvalidLabel``), 2 any other package
error (an internal cross-check failed), 3 inequality fails.  ``main``
takes the code from the error's ``exit_code`` and prints one stderr line.
Output is deterministic: fixed orderings, exact rationals, no timestamps.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys

from .ade import AdeLabel, resolution_data
from .errors import DescriptionError, IdentityFailure, InvalidLabel, OrbichernError, clipped, quoted
from .invariants import (
    SCALAR_READERS,
    InvariantReport,
    IsolatedPointsDescription,
    SncPairDescription,
    Verdict,
    gerbe_scale,
    isolated_points_report,
    snc_report,
)

# the group and field layers' entry points, bound on first use (see "Imports" above)
_DEFERRED = (
    "build_ade_group",
    "build_contribution_report",
    "element_sum_contribution",
    "verify_type_a_identity",
    "verify_type_d_half_angle_identity",
)


def _bind_deferred() -> None:
    """Bind each deferred name not bound yet; a wrapper already set stays."""
    from . import contributions  # ``build_ade_group`` is ``groups``'s, imported there

    names = globals()
    for name in _DEFERRED:
        names.setdefault(name, getattr(contributions, name))


def __getattr__(name: str):
    if name in _DEFERRED:
        _bind_deferred()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------------------------
# description files: one schema table
#
# ``load_description`` reads the file's bytes, at most ``_MAX_FILE_BYTES``,
# with unbuffered ``os`` reads and decodes them once (``_read_text``), one
# reused JSON decoder parses the text, and the kind's
# reader in ``_KINDS`` reads the object.  A reader takes a value and returns it
# converted, or raises DescriptionError with its own part of the message
# (" must be an integer"); each enclosing reader adds its part as the error
# passes up ("[index]", ".key", "PATH: kind"), so no path is built on the happy
# path.  A kind's reader is derived from its record's schema in ``invariants``
# (``_record``), so field names and types are written there alone; so are the
# range checks.  ``_READERS`` maps each field type to its reader: the scalar
# readers are ``invariants.SCALAR_READERS``, the ones the record constructors
# use, with the rational literal cache (``invariants._cached_rational``, texts
# of at most 40 characters, 1024 entries, at most about 0.3 MB) and the
# JSON-integer table (``invariants._cached_integer``, integers of at most 40
# digits, 256 entries); the label reader is this module's.  ``gerbe_scale``
# takes each scaled per-point term from ``invariants._scaled_term`` (512
# entries).
#
# Two more per-process caches hold pure conversions of immutable values, so a
# process that checks many files converts each distinct value once: a label
# text (``_cached_label``, 128 entries) and, for both renders, a point label's
# text (``_label_text``, 128 entries).  An lru_cache keeps no exception, so a
# value rejected once is rejected again.

@functools.lru_cache  # one parse per distinct label text; ``_label`` passes only str
def _cached_label(text: str) -> AdeLabel:
    return AdeLabel.from_string(text)


@functools.lru_cache  # one text per distinct point label, for both renders
def _label_text(label: AdeLabel) -> str:
    return str(label)


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


def _record(cls):
    """Reader of a JSON object whose keys are exactly the fields of the record
    class ``cls``, each read by the reader of its type in ``cls._schema``;
    ``cls._typed`` makes the record from the values read (the readers have
    checked each value's type, so only its range checks run)."""
    fields = {name: _reader(kind) for name, kind in cls._schema.items()}
    build = cls._typed

    def read_record(value):
        if not isinstance(value, dict):
            raise DescriptionError(" must be an object")
        if value.keys() != fields.keys():
            for key in value:
                if key not in fields:
                    raise DescriptionError(f": unknown field {quoted(key)}")
            for key in fields:
                if key not in value:
                    raise DescriptionError(f": missing field {quoted(key)}")
        values = {}
        try:
            for key, read in fields.items():
                values[key] = read(value[key])
            return build(**values)
        except DescriptionError as exc:  # from a field's reader, or a range check of build
            where = f".{key}" if len(values) < len(fields) else ": "
            raise DescriptionError(f"{where}{exc}") from None

    return read_record


_READERS = {**SCALAR_READERS, AdeLabel: _label}


def _reader(kind):
    """The reader of one schema type: a one-item tuple ``(cls,)`` is a list of
    ``cls``, a label or a record."""
    if isinstance(kind, tuple):
        return _list_of(_READERS.get(kind[0]) or _record(kind[0]))
    return _READERS[kind]


_KINDS = {"snc_pair": _record(SncPairDescription), "isolated_points": _record(IsolatedPointsDescription)}
_KIND_NAMES = " or ".join(f'"{kind}"' for kind in _KINDS)


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` that refuses a key given twice in one object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DescriptionError(f"duplicate field {quoted(key)}")
        obj[key] = value
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # one decoder, reused per file


_MAX_FILE_BYTES = 16 * 1024 * 1024  # a generated description is a few kB
_MIN_READ = 64 * 1024  # a pipe or a /proc file has st_size 0


def _read_text(path: str) -> str:
    """The file's bytes, at most ``_MAX_FILE_BYTES``, decoded once; "\\r\\n" and a
    lone "\\r" end a line each, as in text mode, so a JSON error names the line
    an editor shows.

    Each unbuffered read asks for the rest of the size ``fstat`` gave plus
    one byte, but never for less than ``_MIN_READ`` bytes; a regular file
    is read whole when the bytes read reach that size, so it takes one
    read, and anything else is read until end of file or past the cap.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        chunks, total = [], 0
        while chunk := os.read(fd, min(max(size + 1 - total, _MIN_READ), _MAX_FILE_BYTES + 1 - total)):
            chunks.append(chunk)
            total += len(chunk)
            if total > _MAX_FILE_BYTES:
                raise DescriptionError(f"more than {_MAX_FILE_BYTES} bytes")
            if total == size:
                break
    finally:
        os.close(fd)
    text = b"".join(chunks).decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load_description(path: str):
    """Parse a surface-description file; returns (description, gerbe_order).

    The top-level object holds ``kind``, an optional ``gerbe_order`` and
    the fields of the kind's record in ``_KINDS``.
    """
    text = None
    try:
        text = _read_text(path)
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
    except ValueError as exc:
        if text is None:  # os.open refused the path itself, a NUL byte in it, say
            raise DescriptionError(f"{quoted(path)}: {exc}") from None
        # CPython words its digit-limit error differently by version
        raise DescriptionError(f"{path}: integer literal has too many digits") from None
    if not isinstance(obj, dict):
        raise DescriptionError(f"{path}: top level must be an object")
    kind = obj.pop("kind", None)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise DescriptionError(f"{path}: kind must be {_KIND_NAMES}, got {quoted(kind)}")
    where = "gerbe_order"
    try:
        gerbe_order = _READERS[int](obj.pop("gerbe_order", 1))
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
            lines.append(f"  {_label_text(label)}  {term}")
    if report.notes:
        lines.append(f"notes: {report.notes}")
    return "\n".join(lines) + "\n"


def _render_report_structured(report: InvariantReport) -> str:
    # json.dumps(payload, indent=2) + "\n" from C-encoded leaves (an indent is pure Python)
    leaf = json.encoder.encode_basestring_ascii
    rows = ",\n".join(
        f"    [\n      {leaf(_label_text(label))},\n      {leaf(str(term))}\n    ]"
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


def _class_lines(group) -> list[str]:
    """The class table's lines; a line depends only on the class's label and
    size (its centralizer is the order over its size), so each distinct
    (label, size) is formatted once: a^e and a^-e print one line."""
    lines: dict = {}
    out = []
    for c in group.classes:
        line = lines.get((c.rotation, c.size))
        if line is None:
            line = lines[c.rotation, c.size] = (
                f"  size {c.size:>4}  centralizer {c.centralizer_order:>4}  trace {c.trace_str()}"
            )
        out.append(line)
    return out


def cmd_group(label: str) -> int:
    _bind_deferred()
    label = AdeLabel.from_string(label)
    group = build_ade_group(label)
    data = resolution_data(label)
    out = [f"label {label}: {data.group_name}, order {data.group_order}"]
    out.append("conjugacy classes (size, centralizer, trace):")
    out += _class_lines(group)
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
    """Both sides of the identity are the one value its verifier returns,
    which it returns only when they are equal."""
    _bind_deferred()
    if which == "type_a":
        header, verify = f"rotation-sum identity, type A, n = {n}", verify_type_a_identity
    else:
        header, verify = f"half-angle identity, n = {n}", verify_type_d_half_angle_identity
    try:
        value = verify(n)
    except IdentityFailure as exc:
        sys.stdout.write(f"{header}\nFAIL: {exc}\n")
        return 2
    sys.stdout.write(f"{header}\nlhs = {value}\nrhs = {value}\nPASS\n")
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
    _bind_deferred()
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


class _Invalid(ValueError):
    """A value failed ``_order`` or a ``_one_of`` check; the message is the error text."""


def _order(text: str) -> int:
    """The value of ``--n`` and ``--max-n``: ASCII digits, at least 2."""
    if not (text.isascii() and text.isdigit()):
        raise _Invalid(f"invalid int value: {quoted(text)}")
    try:
        value = int(text)
    except ValueError:  # past the interpreter's digit limit, worded differently by version
        raise _Invalid("integer has too many digits") from None
    if value < 2:
        raise _Invalid("must be >= 2")
    return value


def _one_of(*names: str):
    """The check of a value that must be one of ``names``, with one error text on every Python."""

    def choose(text: str) -> str:
        if text not in names:
            raise _Invalid(f"must be {' or '.join(names)}, got {quoted(text)}")
        return text

    choose.metavar = "{" + ",".join(names) + "}"
    return choose


_FORMAT = _one_of("text", "structured")
_WHICH = _one_of("type_a", "half_angle")


def _read_documented(argv):
    """(command, keyword values) for a spelling the README documents, else None.

    Tokens must come in the README's order, each option spelled in full
    and given once.  A positional value starting with "-" or an option
    value failing its check gives None, so that argparse reports it.
    """
    try:
        match argv:
            case ["check", path] if not path.startswith("-"):
                return "check", {"path": path, "fmt": "text"}
            case ["check", path, "--format", fmt] if not path.startswith("-"):
                return "check", {"path": path, "fmt": _FORMAT(fmt)}
            case ["group", label] if not label.startswith("-"):
                return "group", {"label": label}
            case ["identity", "--n", n, "--which", which]:
                return "identity", {"n": _order(n), "which": _WHICH(which)}
            case ["table", "--max-n", max_n, *oracle, "--format", fmt] if oracle in ([], ["--oracle"]):
                return "table", {"max_n": _order(max_n), "oracle": bool(oracle), "fmt": _FORMAT(fmt)}
            case ["table", "--max-n", max_n, *oracle] if oracle in ([], ["--oracle"]):
                return "table", {"max_n": _order(max_n), "oracle": bool(oracle), "fmt": "text"}
    except _Invalid:
        pass
    return None


@functools.cache
def _build_parser():
    """The one argparse parser, built on first use; parse_args keeps no state between calls."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse with usage errors on exit code 1, the input-error code, and
        the command or extra tokens they echo clipped (``errors.clipped``)."""

        def error(self, message: str):
            head, _, rest = message.partition("argument command: invalid choice: ")
            if rest and not head:  # argparse words this differently by version
                # and quotes with repr: escaping it as ascii() does makes the bytes version-free
                got = rest.rpartition(" (choose from ")[0].encode("ascii", "backslashreplace").decode()
                message = f"argument command: must be check, group, identity or table, got {clipped(got)}"
            elif message.startswith("unrecognized arguments: "):  # every token argparse did not use, whole
                message = f"unrecognized arguments: {clipped(message.partition(': ')[2])}"
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    def value(check) -> dict:
        """``add_argument`` keywords running ``check``; its _Invalid text is the usage error."""

        def convert(text: str):
            try:
                return check(text)
            except _Invalid as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return {"type": convert, "metavar": getattr(check, "metavar", None)}

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
    p_check.add_argument("--format", default="text", dest="fmt", **value(_FORMAT))

    p_group = sub.add_parser("group", help="print one ADE group's data")
    p_group.add_argument("label")

    p_identity = sub.add_parser("identity", help="verify a rotation-sum identity")
    p_identity.add_argument("--n", required=True, **value(_order))
    p_identity.add_argument("--which", required=True, **value(_WHICH))

    p_table = sub.add_parser("table", help="contribution table for all families")
    p_table.add_argument("--max-n", required=True, dest="max_n", **value(_order))
    p_table.add_argument("--oracle", action="store_true")
    p_table.add_argument("--format", default="text", dest="fmt", **value(_FORMAT))

    return parser


def _parse_with_argparse(argv) -> tuple:
    """(command, keyword values) for any argv argparse accepts; it exits on the rest."""
    values = vars(_build_parser().parse_args(argv))
    return values.pop("command"), values


_COMMANDS = {"check": cmd_check, "group": cmd_group, "identity": cmd_identity, "table": cmd_table}


def main(argv=None) -> int:
    """Run one command with the cyclic collector paused (see "Collector" above)."""
    if argv is None:
        argv = sys.argv[1:]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        command, values = _read_documented(argv) or _parse_with_argparse(argv)
        return _COMMANDS[command](**values)
    except OrbichernError as exc:
        prefix = "error" if exc.exit_code == 1 else f"internal error ({type(exc).__name__})"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
