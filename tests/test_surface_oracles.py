"""Surfaces from the literature, generated from finite data and run through ``check``.

Two families whose Chern numbers are known in closed form, each built by a
small generator from its combinatorial data alone:

- Hirzebruch's line arrangements (Hirzebruch 1983, *Arrangements of lines
  and algebraic surfaces*): the plane blown up at the points where three or
  more lines meet, every line and exceptional curve with ramification n, as
  an ``snc_pair``.  The complete quadrangle, Hesse and dual Hesse
  arrangements are the three ball-quotient cases, with 3c2 = c1^2 at
  n = 5, 3 and 5.
- Product-quotient surfaces (C1 x C2)/G for G = Z/n (Serrano 1996; Bauer,
  Catanese & Grunewald 2008): Ci -> P^1 given by a generating vector, K^2
  from the genera, chi(O) = 1 + p_g by Chevalley-Weil, and the points of
  type A over the branch pairs, as ``isolated_points``.  The engine's c2,
  12 chi(O) - K^2 - sum of point terms (Kawasaki), must equal the
  orbifold Euler number e(C1) e(C2)/n.
"""

import itertools
import json
import math
from fractions import Fraction

import pytest

from orbichern.cli import main

F = Fraction


def check(tmp_path, capsys, payload) -> dict:
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(payload))
    assert main(["check", str(path), "--format", "structured"]) == 0
    return json.loads(capsys.readouterr().out)


# ----------------------------------------------------------------------
# Hirzebruch's line arrangements


def complete_quadrangle() -> list:
    """The six lines through two of four general points a, b, c, d."""
    return [set(pair) for pair in itertools.combinations("abcd", 2)]


def affine_lines() -> list:
    """The 12 lines of the affine plane AG(2, 3), as sets of its 9 points: the
    Hesse arrangement, where two parallel lines meet in a double point."""
    lines = []
    for dx, dy in ((0, 1), (1, 0), (1, 1), (1, 2)):
        for x, y in itertools.product(range(3), repeat=2):
            line = {((x + k * dx) % 3, (y + k * dy) % 3) for k in range(3)}
            if line not in lines:
                lines.append(line)
    return lines


def dual_hesse() -> list:
    """The 9 affine points as lines through the 12 affine lines as points."""
    lines = affine_lines()
    return [{i for i, line in enumerate(lines) if p in line} for p in sorted(set().union(*lines))]


def arrangement_payload(lines: list, n: int) -> dict:
    """The ``snc_pair`` of an arrangement: the plane blown up at its t points,
    each on three or more lines (e = 3 + t, K^2 = 9 - t), the lines through
    k of them (K.L = k - 3, L^2 = 1 - k) and the exceptional curves
    (K.E = -1, E^2 = -1), all rational (chi = 2) with ramification n.  Two
    lines with no point in common meet in a double point; each line meets
    the exceptional curve over each of its points."""
    points = sorted(set().union(*lines))
    assert all(sum(p in line for line in lines) >= 3 for p in points)
    assert all(len(a & b) <= 1 for a, b in itertools.combinations(lines, 2))
    divisors = [(len(line) - 3, 1 - len(line)) for line in lines] + [(-1, -1)] * len(points)
    pairs = itertools.combinations(enumerate(lines), 2)
    crossings = [(i, j) for (i, a), (j, b) in pairs if not a & b]
    crossings += [(i, len(lines) + points.index(p)) for i, line in enumerate(lines) for p in line]
    return {
        "kind": "snc_pair",
        "chi_coarse": 3 + len(points),
        "k_squared": 9 - len(points),
        "divisors": [
            {"ramification": n, "chi_divisor": 2, "k_dot": k_dot, "self_int": self_int}
            for k_dot, self_int in divisors
        ],
        "crossings": [{"i": i, "j": j, "count": 1} for i, j in sorted(crossings)],
        "canonical_nef_asserted": log_canonical_is_nef(lines, points, divisors, crossings, n),
    }


def log_canonical_is_nef(lines, points, divisors, crossings, n) -> bool:
    """Whether L = K + (1 - 1/n) sum D is nef.  With H = (sum L_i + sum r_p E_p)/l
    for l lines and r_p lines through p, L = (a - 3/l) sum L_i +
    sum (a + 1 - 3 r_p/l) E_p, a = 1 - 1/n.  If these coefficients are
    >= 0, L.C >= 0 for every curve C off the boundary, so L is nef exactly
    when L.D >= 0 on every boundary curve.  L.D is taken both from K.D and
    from this expression, which checks the intersection numbers."""
    a, count = 1 - F(1, n), len(lines)
    coefficients = [a - F(3, count)] * count
    coefficients += [a + 1 - F(3 * sum(p in line for line in lines), count) for p in points]
    meets = [[0] * len(divisors) for _ in divisors]
    for i, j in crossings:
        meets[i][j] = meets[j][i] = 1
    for i, (_, self_int) in enumerate(divisors):
        meets[i][i] = self_int
    dots = [k_dot + a * sum(row) for (k_dot, _), row in zip(divisors, meets)]
    assert dots == [sum(map(Fraction.__mul__, coefficients, row)) for row in meets]
    assert min(coefficients) >= 0
    return min(dots) >= 0


# name: (lines, (points on 3 or more lines, double points), margins 3c2 - c1^2 for n = 2..8)
ARRANGEMENTS = {
    "quadrangle": (complete_quadrangle, (4, 3), "9/4 4/9 1/16 0 1/36 4/49 9/64"),
    "hesse": (affine_lines, (9, 12), "9/4 0 9/16 36/25 9/4 144/49 225/64"),
    "dual_hesse": (dual_hesse, (12, 0), "27/4 4/3 3/16 0 1/12 12/49 27/64"),
}
# (name, n): (c1^2, c2) where 3c2 = c1^2
BALL_QUOTIENTS = {
    ("quadrangle", 5): ("9/5", "3/5"),
    ("hesse", 3): ("16", "16/3"),
    ("dual_hesse", 5): ("333/25", "111/25"),
}


@pytest.mark.parametrize("name", sorted(ARRANGEMENTS))
def test_hirzebruch_arrangements_reach_equality_at_the_ball_quotients(tmp_path, capsys, name):
    build, (blown_up, doubles), margins = ARRANGEMENTS[name]
    lines = build()
    payload = arrangement_payload(lines, 2)
    assert payload["chi_coarse"] - 3 == blown_up
    assert sum(not a & b for a, b in itertools.combinations(lines, 2)) == doubles
    for n, margin in zip(range(2, 9), margins.split()):
        payload = arrangement_payload(lines, n)
        assert payload["canonical_nef_asserted"], (name, n)
        for d in payload["divisors"]:  # adjunction: chi(D) = -K.D - D^2
            assert d["chi_divisor"] == -d["k_dot"] - d["self_int"], (name, n, d)
        out = check(tmp_path, capsys, payload)
        assert out["margin"] == margin, (name, n)
        if (name, n) in BALL_QUOTIENTS:
            assert out["verdict"] == "HoldsWithEquality"
            assert (out["c1_squared"], out["c2"]) == BALL_QUOTIENTS[name, n]
        else:
            assert out["verdict"] == "Holds", (name, n)


# ----------------------------------------------------------------------
# product-quotient surfaces (C1 x C2)/(Z/n)


def genus(n: int, vector) -> int:
    """Riemann-Hurwitz for C -> C/G = P^1: 2g - 2 = n (-2 + sum (1 - 1/m_i))."""
    twice = n * (-2 + sum(1 - F(math.gcd(a, n), n) for a in vector))
    assert twice.denominator == 1 and twice % 2 == 0
    return int(twice) // 2 + 1


def eigenspace(n: int, vector, j: int) -> Fraction:
    """Chevalley-Weil: the dimension of the zeta^j-eigenspace of H^0(K_C), j != 0."""
    return -1 + sum(F(j * a % n, n) for a in vector)


def rotation(n: int, a: int, c: int) -> int:
    """The element n/c, of order c, in the stabilizer <a> of a point over a
    branch point of monodromy a, acts on its tangent line by zeta_c^alpha:
    n/c = x a with a acting by zeta_m, m = ord(a), so alpha = x c/m."""
    m = n // math.gcd(a, n)
    x = next(x for x in range(m) if x * a % n == n // c)
    return x * c // m


def quotient_points(n: int, vector) -> list:
    """(c, count, type A) for each branch pair (i, j) of (C1 x C2)/(Z/n) with
    C2's vector the negation of C1's: n/lcm(m_i, m'_j) points whose
    stabilizer has order c = gcd(m_i, m'_j) > 1, of type 1/c(alpha, beta),
    which is A_(c-1) when alpha + beta = 0 mod c.  That holds for i = j,
    and not for every vector."""
    points = []
    for a, b in itertools.product(vector, [-a % n for a in vector]):
        m1, m2 = n // math.gcd(a, n), n // math.gcd(b, n)
        c = math.gcd(m1, m2)
        if c > 1:
            type_a = (rotation(n, a, c) + rotation(n, b, c)) % c == 0
            points.append((c, n // math.lcm(m1, m2), type_a))
    return points


def product_quotient_payload(n: int, vector) -> tuple:
    """The ``isolated_points`` description of (C1 x C2)/(Z/n), C2's vector the
    negation of C1's, every point of type A, and e(C1) e(C2)/n."""
    other = [-a % n for a in vector]
    g1, g2 = genus(n, vector), genus(n, other)
    p_g = sum(eigenspace(n, vector, j) * eigenspace(n, other, -j % n) for j in range(1, n))
    points = []
    for c, count, type_a in quotient_points(n, vector):
        assert type_a, (n, vector, c)
        points += [f"A{c - 1}"] * count
    payload = {
        "kind": "isolated_points",
        "chi_structure_sheaf": int(1 + p_g),
        "c1_squared": str(F(8 * (g1 - 1) * (g2 - 1), n)),
        "points": points,
        "canonical_nef_asserted": g1 >= 2 and g2 >= 2,  # K is then ample
    }
    return payload, F((2 - 2 * g1) * (2 - 2 * g2), n)


def sweep() -> list:
    """Every generating vector of Z/n, n <= 8, with 3 to 7 branch points up to
    order and g >= 2 whose points are all of type A: 83 of the 848 such
    vectors, and n = 7 first takes part with 7 branch points, (a^7)."""
    vectors = [
        (n, vector)
        for n in range(2, 9)
        for r in range(3, 8)
        for vector in itertools.combinations_with_replacement(range(1, n), r)
        if sum(vector) % n == 0 and math.gcd(n, *vector) == 1 and genus(n, vector) >= 2
    ]
    assert len(vectors) == 848
    return [(n, v) for n, v in vectors if all(type_a for _, _, type_a in quotient_points(n, v))]


def test_product_quotient_sweep_gives_the_orbifold_euler_number(tmp_path, capsys):
    surfaces = sweep()
    assert len(surfaces) == 83 and {n for n, _ in surfaces} == set(range(2, 9))
    for n, vector in surfaces:
        payload, e_orb = product_quotient_payload(n, vector)
        out = check(tmp_path, capsys, payload)
        assert F(out["c2"]) == e_orb, (n, vector)
        assert F(out["margin"]) == e_orb, (n, vector)  # 3 e_orb - K^2 = e_orb
        assert out["verdict"] == "Holds", (n, vector)


@pytest.mark.parametrize(
    "n, vector, k_squared, chi, points, c2",
    [(2, (1,) * 6, "4", 5, ["A1"] * 36, "2"), (3, (1,) * 6, "24", 11, ["A2"] * 36, "12")],
)
def test_classic_product_quotients(tmp_path, capsys, n, vector, k_squared, chi, points, c2):
    """(C x C)/iota for C of genus 2 and its hyperelliptic involution, and
    Z/3 with vectors (1^6) and (2^6)."""
    payload, e_orb = product_quotient_payload(n, vector)
    assert payload["c1_squared"] == k_squared and payload["chi_structure_sheaf"] == chi
    assert payload["points"] == points
    out = check(tmp_path, capsys, payload)
    assert out["c2"] == c2 == str(e_orb)
    assert out["verdict"] == "Holds"
