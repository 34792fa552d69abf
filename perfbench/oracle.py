"""Independent oracle: the value every request must produce.

Nothing here imports ``orbichern``.  Expected values come from the
formulas in the README, evaluated with ``fractions.Fraction``:

* ``group``: (chi(E) - 1/|G|)/12 with chi(E) = nodes + 1 and |G| from the
  catalog (A_k: k+1, k+1; D_k: k+1, 4(k-2); E_k: k+1, 24/48/120), for all
  three printed routes, plus "exact agreement: yes" and a class table
  whose sizes satisfy the class equation;
* ``identity``: (n^2-1)/(12n) for type_a, (n^2-1)/6 for half_angle;
* literal half-angle sums: (n^2-1)/6;
* ``check``: c1^2, c2, margin, verdict and the per-point terms of the
  description, scaled by the gerbe order.

``verify`` returns None for a correct result and a one-line reason
otherwise.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_E_ORDERS = {6: 24, 7: 48, 8: 120}


def point_data(label: str) -> tuple[int, int]:
    """(chi(E), |G|) for a canonical ADE label such as "A3", "D5", "E8"."""
    kind, sub = label[0], int(label[1:])
    if kind == "A":
        return sub + 1, sub + 1
    if kind == "D":
        return sub + 1, 4 * (sub - 2)
    return sub + 1, _E_ORDERS[sub]


def contribution(label: str) -> Fraction:
    chi, order = point_data(label)
    return (chi - Fraction(1, order)) / 12


def identity_value(n: int, which: str) -> Fraction:
    return Fraction(n * n - 1, 12 * n) if which == "type_a" else Fraction(n * n - 1, 6)


def surface_report(desc: dict) -> dict:
    """c1^2, c2, margin, verdict and per-point terms from the README formulas."""
    nef = desc["canonical_nef_asserted"]
    per_point = []
    if desc["kind"] == "snc_pair":
        divs = desc["divisors"]
        weight = [1 - Fraction(1, d["ramification"]) for d in divs]
        c1 = Fraction(desc["k_squared"])
        c2 = Fraction(desc["chi_coarse"])
        on_curve = [0] * len(divs)
        for i, d in enumerate(divs):
            c1 += 2 * weight[i] * Fraction(d["k_dot"]) + weight[i] ** 2 * Fraction(d["self_int"])
        for x in desc["crossings"]:
            i, j, count = x["i"], x["j"], x["count"]
            c1 += 2 * weight[i] * weight[j] * count
            on_curve[i] += count
            on_curve[j] += count
            ri, rj = divs[i]["ramification"], divs[j]["ramification"]
            c2 += count * (Fraction(1, ri * rj) - 1)
        for i, d in enumerate(divs):
            c2 -= weight[i] * (d["chi_divisor"] - on_curve[i])
    else:
        c1 = Fraction(desc["c1_squared"])
        for label in desc["points"]:
            chi, order = point_data(label)
            per_point.append((label, chi - Fraction(1, order)))
        c2 = 12 * desc["chi_structure_sheaf"] - c1 - sum(t for _, t in per_point)
    margin = 3 * c2 - c1
    if not nef:
        verdict = "NotApplicable"
    elif margin > 0:
        verdict = "Holds"
    elif margin == 0:
        verdict = "HoldsWithEquality"
    else:
        verdict = "Fails"
    scale = Fraction(1, desc.get("gerbe_order", 1))
    return {
        "c1_squared": c1 * scale,
        "c2": c2 * scale,
        "margin": margin * scale,
        "verdict": verdict,
        "per_point": [(label, term * scale) for label, term in per_point],
    }


# ----------------------------------------------------------------------
# reading the program's output


def _fields(out: str) -> dict[str, str]:
    """``key = value`` lines of a text report, keyed by the stripped key."""
    pairs = (line.partition("=") for line in out.splitlines())
    return {key.strip(): value.strip() for key, eq, value in pairs if eq}


def _read_report(out: str, fmt: str) -> dict:
    if fmt == "structured":
        data = json.loads(out)
        per_point = [(label, Fraction(term)) for label, term in data["per_point"]]
        return {
            "c1_squared": Fraction(data["c1_squared"]),
            "c2": Fraction(data["c2"]),
            "margin": Fraction(data["margin"]),
            "verdict": data["verdict"],
            "per_point": per_point,
        }
    fields = _fields(out)
    lines = out.splitlines()
    per_point = []
    if "per-point terms (chi(E) - 1/|G|):" in lines:
        start = lines.index("per-point terms (chi(E) - 1/|G|):") + 1
        for line in lines[start:]:
            if not line.startswith("  "):
                break
            label, term = line.split()
            per_point.append((label, Fraction(term)))
    return {
        "c1_squared": Fraction(fields["c1^2"]),
        "c2": Fraction(fields["c2"]),
        "margin": Fraction(fields["margin"]),
        "verdict": fields["verdict"],
        "per_point": per_point,
    }


_CLASS_LINE = re.compile(r"^\s+size\s+(\d+)\s+centralizer\s+(\d+)\s+trace ")


def _check_group(label: str, out: str) -> str | None:
    _, order = point_data(label)
    value = contribution(label)
    lines = out.splitlines()
    if not lines or not lines[0].startswith(f"label {label}:") or not lines[0].endswith(f", order {order}"):
        return f"header {lines[:1]} does not name {label} of order {order}"
    classes = [tuple(map(int, m.groups())) for m in map(_CLASS_LINE.match, lines) if m]
    if sum(size for size, _ in classes) != order or any(s * c != order for s, c in classes):
        return f"class table of {label} violates the class equation"
    fields = _fields(out)
    for route in ("class sum", "element sum", "closed form"):
        if fields.get(route) != str(value):
            return f"{route} of {label} is {fields.get(route)}, expected {value}"
    if lines[-1] != "exact agreement: yes":
        return f"{label}: no exact agreement line"
    return None


def _check_identity(n: int, which: str, out: str) -> str | None:
    value = identity_value(n, which)
    fields = _fields(out)
    if fields.get("lhs") != str(value) or fields.get("rhs") != str(value) or not out.endswith("PASS\n"):
        return f"identity {which} n={n}: got {fields}, expected {value}"
    return None


def verify(req: dict, rc, out: str, err: str, exc: str | None) -> str | None:
    """None when the worker's result for ``req`` is right, else why not."""
    if exc:
        return f"exception escaped: {exc.strip().splitlines()[-1]}"
    op = req["op"]
    expected = surface_report(req["desc"]) if op == "check" and not req["reject"] else None
    code = 1 if op == "check" and req["reject"] else 3 if expected and expected["verdict"] == "Fails" else 0
    if rc != code:
        return f"exit code {rc}, expected {code}"
    if op == "group":
        return _check_group(req["label"], out)
    if op == "identity":
        return _check_identity(req["n"], req["which"], out)
    if op == "literal":
        want = f"literal {req['n']}: {identity_value(req['n'], 'half_angle')}\n"
        return None if out == want else f"literal sum printed {out!r}, expected {want!r}"
    if req["reject"]:
        return None if not out and err.startswith("error: ") else "malformed file not rejected with a clean error"
    try:
        got = _read_report(out, req["format"])
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        return f"unreadable report: {exc!r}"
    for key, value in expected.items():
        if got[key] != value:
            return f"{key} is {got[key]}, expected {value}"
    return None
