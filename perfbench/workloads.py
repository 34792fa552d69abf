"""Seeded request lists for the three benchmark workloads.

A run is split into rounds; each round is one fresh worker process with
cold caches, as a user's script or ``orbichern`` command starts.  Group
labels and identity sizes are the middles of equal bands of their
ranges, dealt to rounds by ``_spread``; they depend on the round count
alone, and the seed orders each round, which decides the request that
first builds a table the round's later requests share.  Neighbouring
inputs differ in cost by up to half (A_n depends on the divisors of n,
identity N on those of N and 2N), so seeded values would make a run's
cost, and its percentiles, depend on the seed more than on the code.
Surface files are drawn from the seed: a thousand per round keep their
cost distribution the same from seed to seed.

A request is a JSON-ready dict.  ``argv`` (for ``orbichern.cli.main``)
or ``n`` (a literal field sum) is all the program sees; ``tables`` and
``pairs`` list the conductors whose tables and 1/(2 - z - z^-1)
inverses the request needs, used by the traced run and the sharing
report; the remaining keys are for the oracle.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("catalog-sweep", "field-identities", "surface-checks")

# Wall seconds budgeted per round.  At the seed commit on a 2-core VM a
# round takes about four fifths of this in the host's fast spells and up
# to a third more than this in its slow ones.  The round count of a run
# is --seconds divided by this, so the work a run does is fixed by
# --seconds alone and is the same on every commit.
ROUND_SECONDS = {"catalog-sweep": 3.6, "field-identities": 2.7, "surface-checks": 2.0}

# Round shapes: (first, last, values per round) per population.
A_SUBSCRIPTS = (1, 299, 13)
D_SUBSCRIPTS = (4, 152, 7)
IDENTITY_N = (2, 2000, 12)
# Literal sums are not drawn: their cost jumps between neighbouring n
# (n = 114: 2.3 s, n = 115: 7.2 s at the seed commit), so a drawn n would
# make a run's cost depend on the seed more than on the code.  Every run
# does the same four, spread over 2..120; the seed places them.
LITERAL_N = (30, 60, 90, 120)
SURFACE_REQUESTS = 1000  # timed per round, so p99 has ten samples beyond it

# Malformed files that the CLI rejects with exit 1 and an "error:" line.
REJECTION_CLASSES = (
    "invalid_json",
    "non_object",
    "unknown_field",
    "missing_field",
    "float_rational",
    "bad_label",
    "ramification_lt_2",
    "crossing_out_of_range",
)
MALFORMED_PER_CLASS = 100 // len(REJECTION_CLASSES)
# Malformed files that end in a traceback at the seed commit.  They are
# checked once per run, outside the timed requests, so that the timed
# workload has no failing operation and fixing them shows in the probe
# record.
PROBE_CLASSES = ("oversized_integer", "non_utf8")

# A trace zeta_d^j + zeta_d^-j is rational exactly for these orders, so
# no Galois-orbit inverse is needed for them inside a group.
_RATIONAL_TRACE_ORDERS = {1, 2, 3, 4, 6}


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def _spread(span: tuple[int, int, int], rounds: int) -> list[list[tuple[int, int]]]:
    """``per_round * rounds`` values, the middles of as many equal bands of first..last.

    Bands are dealt to rounds in snake order (0, 1, .., R-1, R-1, .., 0,
    ...), so every round gets low, middle and high values alike and peaks
    at the same memory.  Returns, per round, (value, band index) pairs.
    """
    first, last, per_round = span
    bands = per_round * rounds
    values = list(range(first, last + 1))
    if bands > len(values):
        raise ValueError(f"{bands} bands do not fit in {first}..{last}")
    out: list[list[tuple[int, int]]] = [[] for _ in range(rounds)]
    for b in range(bands):
        lap, pos = divmod(b, rounds)
        out[pos if lap % 2 == 0 else rounds - 1 - pos].append((values[(2 * b + 1) * len(values) // (2 * bands)], b))
    return out


# ----------------------------------------------------------------------
# catalog-sweep


def group_request(label: str) -> dict:
    kind, sub = label[0], int(label[1:])
    if kind == "E":
        conductor, pairs = None, []
    else:
        conductor = sub + 1 if kind == "A" else 2 * (sub - 2)
        pairs = [d for d in _divisors(conductor) if d not in _RATIONAL_TRACE_ORDERS]
    return {
        "op": "group",
        "argv": ["group", label],
        "label": label,
        "tables": sorted({conductor, *pairs} - {None}),
        "pairs": pairs,
    }


def _catalog_rounds(rng: random.Random, rounds: int) -> list[list[dict]]:
    a_draws = _spread(A_SUBSCRIPTS, rounds)
    d_draws = _spread(D_SUBSCRIPTS, rounds)
    out = []
    for r in range(rounds):
        labels = [f"A{s}" for s, _ in a_draws[r]] + [f"D{s}" for s, _ in d_draws[r]]
        if r == 0:
            labels += ["E6", "E7", "E8"]
        rng.shuffle(labels)
        out.append([group_request(label) for label in labels])
    return out


# ----------------------------------------------------------------------
# field-identities


def identity_request(n: int, which: str) -> dict:
    if which == "type_a":
        pairs = _divisors(n)[1:]
    else:
        pairs = [d for d in _divisors(2 * n) if d >= 3]
    return {
        "op": "identity",
        "argv": ["identity", "--n", str(n), "--which", which],
        "n": n,
        "which": which,
        "tables": pairs,
        "pairs": pairs,
    }


def literal_request(n: int) -> dict:
    return {"op": "literal", "n": n, "tables": [2 * n], "pairs": []}


def _identity_rounds(rng: random.Random, rounds: int) -> list[list[dict]]:
    n_draws = _spread(IDENTITY_N, rounds)
    out = []
    for r in range(rounds):
        # Alternate bands take the two identities, so both kinds span the range.
        reqs = [identity_request(n, ("type_a", "half_angle")[b % 2]) for n, b in n_draws[r]]
        reqs += [literal_request(n) for n in LITERAL_N[r::rounds]]
        rng.shuffle(reqs)
        out.append(reqs)
    return out


# ----------------------------------------------------------------------
# surface-checks


def _rational(rng: random.Random):
    """A wire rational: an integer, or a lowest-terms "p/q" string."""
    if rng.random() < 0.5:
        return rng.randint(-12, 12)
    value = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    return str(value)


def _point_label(rng: random.Random) -> str:
    kind = rng.choice("AAADDE")
    if kind == "A":
        return f"A{rng.randint(0, 30)}"
    if kind == "D":
        return f"D{rng.randint(4, 24)}"
    return f"E{rng.randint(6, 8)}"


def snc_description(rng: random.Random) -> dict:
    count = rng.randint(1, 12)
    divisors = [
        {
            "ramification": rng.randint(2, 7),
            "chi_divisor": rng.randint(-4, 4),
            "k_dot": _rational(rng),
            "self_int": _rational(rng),
        }
        for _ in range(count)
    ]
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    crossings = [
        {"i": i, "j": j, "count": rng.randint(0, 3)}
        for i, j in sorted(rng.sample(pairs, min(len(pairs), rng.randint(0, 15))))
    ]
    desc = {
        "kind": "snc_pair",
        "chi_coarse": rng.randint(-10, 20),
        "k_squared": _rational(rng),
        "divisors": divisors,
        "crossings": crossings,
        "canonical_nef_asserted": rng.random() < 0.7,
    }
    if rng.random() < 0.25:
        desc["gerbe_order"] = rng.randint(1, 6)
    return desc


def points_description(rng: random.Random) -> dict:
    desc = {
        "kind": "isolated_points",
        "chi_structure_sheaf": rng.randint(-2, 12),
        "c1_squared": _rational(rng),
        "points": [_point_label(rng) for _ in range(rng.randint(0, 40))],
        "canonical_nef_asserted": rng.random() < 0.7,
    }
    if rng.random() < 0.25:
        desc["gerbe_order"] = rng.randint(1, 6)
    return desc


def malformed_content(rng: random.Random, kind: str) -> bytes:
    """File bytes for one rejection or probe class."""
    if kind == "bad_label":
        desc = points_description(rng)
    elif kind in ("ramification_lt_2", "crossing_out_of_range", "oversized_integer"):
        desc = snc_description(rng)
    else:
        desc = rng.choice((snc_description, points_description))(rng)
    text = json.dumps(desc)
    if kind == "invalid_json":
        return text[: len(text) // 2].encode()
    if kind == "non_object":
        return json.dumps(rng.choice(([desc], 7, "snc_pair", None))).encode()
    if kind == "unknown_field":
        desc["colour"] = "blue"
    elif kind == "missing_field":
        required = [k for k in desc if k not in ("kind", "gerbe_order")]
        del desc[rng.choice(required)]
    elif kind == "float_rational":
        field = "k_squared" if desc["kind"] == "snc_pair" else "c1_squared"
        desc[field] = rng.randint(1, 9) + 0.5
    elif kind == "bad_label":
        desc["points"].insert(rng.randint(0, len(desc["points"])), rng.choice(("D3", "E9", "B2", "A-1")))
    elif kind == "ramification_lt_2":
        rng.choice(desc["divisors"])["ramification"] = rng.randint(-1, 1)
    elif kind == "crossing_out_of_range":
        desc["crossings"].append({"i": 0, "j": len(desc["divisors"]), "count": 1})
    elif kind == "oversized_integer":
        text = json.dumps({**desc, "chi_coarse": 0}).replace(
            '"chi_coarse": 0', '"chi_coarse": ' + "7" * 5000
        )
        return text.encode()
    elif kind == "non_utf8":
        return text.encode().replace(b'"kind": "', b'"kind": "\xff', 1)
    return json.dumps(desc).encode()


def _surface_rounds(rng: random.Random, rounds: int, workdir: Path) -> list[list[dict]]:
    out = []
    for r in range(rounds):
        folder = workdir / f"r{r}"
        folder.mkdir(parents=True, exist_ok=True)
        malformed = [k for k in REJECTION_CLASSES for _ in range(MALFORMED_PER_CLASS)]
        kinds = [None] * (SURFACE_REQUESTS - len(malformed)) + malformed
        timed, probes = [], []
        for i, kind in enumerate(kinds + list(PROBE_CLASSES if r == 0 else ())):
            path = folder / f"{i:05d}.json"
            if kind is None:
                desc = rng.choice((snc_description, points_description))(rng)
                path.write_text(json.dumps(desc, indent=rng.choice((None, 2))))
            else:
                desc = None
                path.write_bytes(malformed_content(rng, kind))
            fmt = rng.choice(("text", "structured"))
            req = {
                "op": "check",
                "argv": ["check", path.as_posix(), "--format", fmt],
                "format": fmt,
                "desc": desc,
                "reject": kind,
                "probe": kind in PROBE_CLASSES,
                "tables": [],
                "pairs": [],
            }
            (probes if req["probe"] else timed).append(req)
        rng.shuffle(timed)
        out.append(timed + probes)
    return out


# ----------------------------------------------------------------------


def make_rounds(workload: str, seed: int, rounds: int, workdir: Path) -> list[list[dict]]:
    """The request lists of a run; ``workdir`` receives the surface files.

    File paths in the requests are relative when ``workdir`` is, so that
    they resolve from the directory the workers run in.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog-sweep":
        return _catalog_rounds(rng, rounds)
    if workload == "field-identities":
        return _identity_rounds(rng, rounds)
    return _surface_rounds(rng, rounds, workdir)


def sharing(rounds: list[list[dict]]) -> dict:
    """How much work requests share with earlier requests of their round.

    A request reuses its conductors when every conductor it needs was
    already needed by an earlier request in the same (cold) worker; the
    same for groups.  Shares are over the requests that need any.
    """
    needing = reused = group_requests = groups_reused = distinct = 0
    for reqs in rounds:
        seen: set = set()
        labels: set = set()
        for req in reqs:
            tables = set(req["tables"])
            if tables:
                needing += 1
                reused += tables <= seen
                seen |= tables
            if req["op"] == "group":
                group_requests += 1
                groups_reused += req["label"] in labels
                labels.add(req["label"])
        distinct += len(seen)
    return {
        "conductor_reuse_share": reused / needing if needing else None,
        "group_reuse_share": groups_reused / group_requests if group_requests else None,
        "distinct_conductors_per_round": distinct / len(rounds),
    }
