"""Surfaces from the literature, generated from finite data and run through ``check``.

Four families whose Chern numbers are known in closed form, each built by
a small generator from its combinatorial data alone:

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
- Toric surfaces (Fulton 1993, *Introduction to Toric Varieties*): the fan
  over the faces of a reflexive polygon, its points of type A read off the
  edges, as ``isolated_points``; and smooth fans whose boundary curves carry
  ramification r_i, as ``snc_pair``.  c2 is the Gauss-Bonnet sum over the
  torus-fixed points.

The ``snc_pair`` files of the first and third families are also read by
stacky Riemann-Roch (Kawasaki 1979): chi(O) of the root stack is chi(O_Y)
of its coarse space, so c2 = 12 chi(O_Y) - c1^2 - 12 (sum of the twisted
sectors' terms), one term per curve and one per crossing.
"""

import itertools
import json
import math
import random
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


# ----------------------------------------------------------------------
# toric surfaces


GRID = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]


def det(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def turn(o, a, b) -> int:
    """det(a - o, b - o): positive when o, a, b turn counterclockwise."""
    return det((a[0] - o[0], a[1] - o[1]), (b[0] - o[0], b[1] - o[1]))


def lattice_hull(points) -> list:
    """The vertices of the convex hull, counterclockwise (monotone chain)."""
    points = sorted(set(points))

    def chain(ordered):
        out = []
        for p in ordered:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(points) + chain(points[::-1])


def reflexive_hulls() -> list:
    """The distinct hulls, from 3000 seeded draws of 3 to 6 points of
    [-1, 1]^2 and 0 to 2 of its ring in [-2, 2]^2, whose only interior
    lattice point is the origin."""
    inner = [p for p in GRID if max(map(abs, p)) <= 1]
    ring = [p for p in GRID if max(map(abs, p)) == 2]
    rng = random.Random(2011)
    hulls = set()
    for _ in range(3000):
        drawn = rng.sample(inner, rng.randint(3, 6)) + rng.sample(ring, rng.randint(0, 2))
        vertices = lattice_hull(drawn)
        edges = list(zip(vertices, vertices[1:] + vertices[:1]))
        interior = [p for p in GRID if all(turn(a, b, p) > 0 for a, b in edges)]
        if len(vertices) >= 3 and interior == [(0, 0)]:
            hulls.add(tuple(vertices))
    return sorted(hulls)


def reflexive_payload(vertices) -> tuple:
    """The ``isolated_points`` description of the toric surface of the fan over
    the faces of a reflexive polygon P, its edge lengths, and c2.

    An edge (a, b) of lattice length l lies at height 1, det(a, b) = l, so
    its cone is the point A_(l-1) (A0, a smooth point, when l = 1).  The
    surface is rational, chi(O) = 1; K^2 = (-K)^2 is twice the area of the
    dual polygon P*, whose vertices are the edges' primitive normals, and
    equals 12 - #boundary points of P.  Gauss-Bonnet: c2 = sum of 1/l."""
    edges = list(zip(vertices, vertices[1:] + vertices[:1]))
    lengths = [math.gcd(b[0] - a[0], b[1] - a[1]) for a, b in edges]
    assert [det(a, b) for a, b in edges] == lengths  # every edge at height 1
    normals = [((b[1] - a[1]) // l, (a[0] - b[0]) // l) for (a, b), l in zip(edges, lengths)]
    k_squared = sum(det(u, v) for u, v in zip(normals, normals[1:] + normals[:1]))
    assert k_squared == 12 - sum(lengths)
    payload = {
        "kind": "isolated_points",
        "chi_structure_sheaf": 1,
        "c1_squared": str(k_squared),
        "points": [f"A{l - 1}" for l in lengths],
        "canonical_nef_asserted": False,  # -K is ample
    }
    return payload, lengths, sum(F(1, l) for l in lengths)


def test_reflexive_polygons_give_the_sum_of_inverse_edge_lengths(tmp_path, capsys):
    """The 16 reflexive polygons have 15 signatures (#boundary points, edge
    lengths): P^1 x P^1 and F_1 share (4, (1, 1, 1, 1)).  The sample covers
    all 15."""
    signatures = set()
    hulls = reflexive_hulls()
    assert len(hulls) == 174
    for vertices in hulls:
        payload, lengths, c2 = reflexive_payload(vertices)
        out = check(tmp_path, capsys, payload)
        assert F(out["c2"]) == c2 and out["c1_squared"] == payload["c1_squared"], vertices
        assert out["verdict"] == "NotApplicable", vertices
        signatures.add((sum(lengths), tuple(sorted(lengths))))
    assert len(signatures) == 15


def smooth_fan(rng) -> list:
    """The rays of P^2 or of F_a (a <= 4), blown up at random torus-fixed
    points: each blow-up puts v + w between neighbouring rays v and w."""
    a = rng.randint(-1, 4)  # -1 stands for P^2
    rays = [(1, 0), (0, 1), (-1, -1)] if a < 0 else [(1, 0), (0, 1), (-1, a), (0, -1)]
    for _ in range(rng.randint(0, 6)):
        i = rng.randrange(len(rays))
        v, w = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (v[0] + w[0], v[1] + w[1]))
    return rays


def smooth_fan_payload(rays, ramifications) -> tuple:
    """The ``snc_pair`` of a smooth toric surface and its boundary cycle D_i,
    D_i with ramification r_i, and its c1^2 and c2.

    With v_(i-1) + v_(i+1) = a_i v_i, D_i^2 = -a_i; each D_i is a P^1, so
    chi(D_i) = 2 and K.D_i = -2 - D_i^2; e = k and K^2 = 12 - k for k rays.
    K = -sum D_i, so c1^2 = (sum D_i/r_i)^2 = sum D_i^2/r_i^2 + 2 sum
    1/(r_i r_(i+1)); Gauss-Bonnet gives c2 = sum 1/(r_i r_(i+1))."""
    k = len(rays)
    self_ints = []
    for i, v in enumerate(rays):
        assert det(v, rays[(i + 1) % k]) == 1  # smooth
        u, w = rays[i - 1], rays[(i + 1) % k]
        a = det(u, w)  # u + w = a v, as det(v, w) = det(u, v) = 1
        assert (u[0] + w[0], u[1] + w[1]) == (a * v[0], a * v[1])
        self_ints.append(-a)
    assert sum(self_ints) == 12 - 3 * k  # K^2 = (sum D_i)^2 = sum D_i^2 + 2k
    payload = {
        "kind": "snc_pair",
        "chi_coarse": k,
        "k_squared": 12 - k,
        "divisors": [
            {"ramification": r, "chi_divisor": 2, "k_dot": -2 - s, "self_int": s}
            for r, s in zip(ramifications, self_ints)
        ],
        "crossings": [{"i": i, "j": i + 1, "count": 1} for i in range(k - 1)]
        + [{"i": 0, "j": k - 1, "count": 1}],
        "canonical_nef_asserted": False,
    }
    pairs = sum(F(1, r * ramifications[(i + 1) % k]) for i, r in enumerate(ramifications))
    c1_squared = sum(F(s, r * r) for r, s in zip(ramifications, self_ints)) + 2 * pairs
    return payload, c1_squared, pairs


def smooth_fans():
    """400 seeded smooth fans, each with ramifications r_i in 2..7."""
    rng = random.Random(1993)
    for _ in range(400):
        rays = smooth_fan(rng)
        yield rays, [rng.randint(2, 7) for _ in rays]


def test_smooth_fans_with_stacky_multiplicities(tmp_path, capsys):
    sizes = set()
    for rays, ramifications in smooth_fans():
        payload, c1_squared, c2 = smooth_fan_payload(rays, ramifications)
        out = check(tmp_path, capsys, payload)
        assert (F(out["c1_squared"]), F(out["c2"])) == (c1_squared, c2), (rays, ramifications)
        assert out["verdict"] == "NotApplicable", rays
        sizes.add(len(rays))
    assert sizes == set(range(3, 11))


# ----------------------------------------------------------------------
# stacky Riemann-Roch on the snc_pair files


def riemann_roch_c2(payload: dict, c1_squared: Fraction) -> Fraction:
    """c2 = 12 chi(O_Y) - c1^2 - 12 sum, with 12 chi(O_Y) = K_Y^2 + e(Y) by
    Noether.  Curve D_i adds (r_i - 1)/(4 r_i) chi_orb(D_i) + (r_i^2 - 1)/
    (12 r_i^2) D_i^2, with chi_orb(D_i) = chi(D_i) - sum_j count_ij (1 -
    1/r_j); a crossing adds count (r_i - 1)(r_j - 1)/(4 r_i r_j)."""
    divisors = payload["divisors"]
    r = [d["ramification"] for d in divisors]
    chi_orb = [F(d["chi_divisor"]) for d in divisors]
    total = F(0)
    for c in payload["crossings"]:
        i, j, count = c["i"], c["j"], c["count"]
        chi_orb[i] -= count * (1 - F(1, r[j]))
        chi_orb[j] -= count * (1 - F(1, r[i]))
        total += count * F((r[i] - 1) * (r[j] - 1), 4 * r[i] * r[j])
    for d, ri, chi in zip(divisors, r, chi_orb):
        assert d["chi_divisor"] == -d["k_dot"] - d["self_int"], d  # adjunction
        total += F(ri - 1, 4 * ri) * chi + F(ri * ri - 1, 12 * ri * ri) * d["self_int"]
    return payload["k_squared"] + payload["chi_coarse"] - c1_squared - 12 * total


def test_stacky_riemann_roch_gives_the_c2_of_check(tmp_path, capsys):
    payloads = [arrangement_payload(build(), n) for build, _, _ in ARRANGEMENTS.values() for n in range(2, 9)]
    payloads += [smooth_fan_payload(rays, ramifications)[0] for rays, ramifications in smooth_fans()]
    assert len(payloads) == 421
    for payload in payloads:
        out = check(tmp_path, capsys, payload)
        assert riemann_roch_c2(payload, F(out["c1_squared"])) == F(out["c2"]), payload
