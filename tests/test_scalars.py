"""Exact-field arithmetic tests.

The float oracle lives here (cmath), never in the package: every package
computation is exact, and the oracle only corroborates small cases.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbichern import scalars
from orbichern.errors import FieldMismatch, IdentityFailure, ZeroInversion
from orbichern.contributions import conjugate_pair_inverse
from orbichern.groups import Quaternion
from orbichern.invariants import parse_rational
from orbichern.scalars import (
    CycloScalar,
    _power_rows,
    cyclo_trace,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    moebius,
    scalar_key,
    signed_dot,
)

F = Fraction


def approx(z: CycloScalar) -> complex:
    m = z.conductor
    return sum(
        float(c) * cmath.exp(2j * cmath.pi * k / m) for k, c in enumerate(z.coeffs)
    )


def root2() -> CycloScalar:
    """sqrt(2) = zeta_8 - zeta_8^3 in Q(zeta_8)."""
    return CycloScalar.zeta_pow(8, 1) - CycloScalar.zeta_pow(8, 3)


def root5() -> CycloScalar:
    """sqrt(5) = 1 + 2*(zeta_5 + zeta_5^4) in Q(zeta_5)."""
    return 1 + 2 * (CycloScalar.zeta_pow(5, 1) + CycloScalar.zeta_pow(5, 4))


def int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def int_poly_divmod(num, den):
    """Quotient and remainder of num by a monic den (index = degree)."""
    r = list(num)
    db = len(den) - 1
    terms = [(j, dj) for j, dj in enumerate(den) if dj]
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        q[i - db] = c
        for j, dj in terms:
            r[i - db + j] -= c * dj
    return q, r[:db]


# ----------------------------------------------------------------------
# rationals on the wire


def test_parse_and_format_round_trip():
    for text in ["0", "7", "-7", "3/4", "-3/4", "22/7"]:
        assert str(parse_rational(text)) == text
    assert parse_rational("6/4") == F(3, 2)  # parsed exactly, reduced


def test_parse_rejects_non_canonical():
    for bad in ["1.5", "1e3", "1/0", "1/-2", "+3", "", "a", "3 / 4", None, 7,
                # ASCII digits only, nothing before or after
                "3\n", "3/4\n", "\n3", " 3", "3 ", "\u0663", "3/\u0664", "\uff13"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


# ----------------------------------------------------------------------
# cyclotomic polynomials


def test_known_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # first index with a coefficient outside {-1, 0, 1}
    assert min(cyclotomic_polynomial(105)) == -2


def test_cyclotomic_degree_is_totient_up_to_200():
    for m in range(1, 201):
        assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)


def test_cyclotomic_divides_x_m_minus_1_up_to_200():
    for m in range(1, 201):
        big = [-1] + [0] * (m - 1) + [1]
        quotient, remainder = int_poly_divmod(big, cyclotomic_polynomial(m))
        assert not any(remainder) and any(quotient)


def test_product_over_divisors_reconstructs_x_m_minus_1():
    for m in range(1, 101):
        prod = [1]
        for d in divisors(m):
            prod = int_poly_mul(prod, list(cyclotomic_polynomial(d)))
        assert prod == [-1] + [0] * (m - 1) + [1]


def moebius_product_oracle(m):
    """Phi_m as the product over d | m of (1 - x^d)^mu(m/d), one place at a time."""
    if m == 1:
        return (-1, 1)
    deg = euler_phi(m)
    poly = [1] + [0] * deg
    for d in divisors(m):
        mu = moebius(m // d)
        if mu == 1:
            for i in range(deg, d - 1, -1):
                poly[i] -= poly[i - d]
        elif mu == -1:
            for i in range(d, deg + 1):
                poly[i] += poly[i - d]
    return tuple(poly)


def test_cyclotomic_matches_the_moebius_product_over_every_divisor():
    """The odd squarefree core, its sign flip and its spread give the plain
    product: prime powers, 2 and 4 times odd, 2^k, and five-prime cores."""
    for m in [*range(1, 1501), 1995, 2048, 2310, 3974, 3990, 3998, 4000]:
        assert cyclotomic_polynomial(m) == moebius_product_oracle(m), m
    for m in (0, -3):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(m)


def test_only_odd_squarefree_conductors_take_the_moebius_passes(monkeypatch):
    """Phi_2c and Phi_(c p^2) read the cached Phi_c of their core, which the
    first of them puts in the cache; the Moebius passes (the one caller of
    ``divisors`` here) run only for an odd squarefree m."""
    cyclotomic_polynomial.cache_clear()
    assert cyclotomic_polynomial(30) == moebius_product_oracle(30)
    assert cyclotomic_polynomial.cache_info().currsize == 2  # Phi_30 and Phi_15
    hits = cyclotomic_polynomial.cache_info().hits
    assert cyclotomic_polynomial(15 * 25) == moebius_product_oracle(15 * 25)
    assert cyclotomic_polynomial(15) == moebius_product_oracle(15)
    assert cyclotomic_polynomial.cache_info().hits == hits + 2
    passes = []
    real = scalars.divisors
    monkeypatch.setattr(scalars, "divisors", lambda m: passes.append(m) or real(m))
    cyclotomic_polynomial.cache_clear()
    for m in range(1, 301):
        cyclotomic_polynomial(m)
    assert passes == [m for m in range(3, 301, 2) if moebius(m)]


def test_number_theory_helpers_take_only_positive_int_conductors():
    """A float, a bool, a string or None raises TypeError, m < 1 ValueError,
    whatever the caches already hold for the int it equals."""
    for m in (1, 2, 6):
        euler_phi(m), divisors(m), moebius(m), cyclotomic_polynomial(m)
    for helper in (divisors, euler_phi, moebius, cyclotomic_polynomial):
        for bad in (2.0, True, "6", None):
            with pytest.raises(TypeError):
                helper(bad)
        for bad in (0, -3):
            with pytest.raises(ValueError):
                helper(bad)


def test_number_theory_helpers():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert euler_phi(1) == 1 and euler_phi(12) == 4 and euler_phi(199) == 198
    assert [moebius(k) for k in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    # all three read one factorization: check each against its definition
    for m in range(1, 2001):
        divs = tuple(d for d in range(1, m + 1) if m % d == 0)
        primes = [p for p in divs[1:] if all(p % q for q in range(2, math.isqrt(p) + 1))]
        squarefree = all(m % (p * p) for p in primes)
        assert divisors(m) == divs
        assert euler_phi(m) == sum(math.gcd(k, m) == 1 for k in range(1, m + 1))
        assert moebius(m) == ((-1) ** len(primes) if squarefree else 0)
    for helper in (divisors, euler_phi, moebius):
        with pytest.raises(ValueError):
            helper(0)


# ----------------------------------------------------------------------
# cyclotomic scalars


def test_zeta_power_reduction_and_periodicity():
    for m in (5, 8, 12, 30):
        z = CycloScalar.zeta_pow(m)
        power = CycloScalar.one(m)
        for _ in range(m):
            power = power * z
        assert power == 1  # zeta_m^m = 1 by repeated multiplication
        assert CycloScalar.zeta_pow(m, m) == 1
        assert CycloScalar.zeta_pow(m, -1) == CycloScalar.zeta_pow(m, m - 1)


def test_zeta_inverse_matches_long_division():
    """zeta^-1, x^(m-1) reduced by ``_reduce``, against int_poly_divmod."""
    for m in [*range(2, 401), 3974, 3990, 3998, 4000]:
        _, remainder = int_poly_divmod([0] * (m - 1) + [1], cyclotomic_polynomial(m))
        inverse = CycloScalar.zeta_pow(m, -1)
        assert inverse.row == tuple(remainder) and inverse.den == 1
        assert CycloScalar.zeta_pow(m) * inverse == 1


def test_zeta_powers_match_long_division():
    """Every zeta power, unit rows below phi(m) included, against int_poly_divmod."""
    for m in range(1, 151):
        phi = cyclotomic_polynomial(m)
        deg = len(phi) - 1
        for e in range(-m, 2 * m + 1):
            k = e % m
            monomial = [0] * max(k + 1, deg)
            monomial[k] = 1
            _, remainder = int_poly_divmod(monomial, phi)
            power = CycloScalar.zeta_pow(m, e)
            assert power.row == tuple(remainder) and power.den == 1, (m, e)


def test_pair_sums_match_zeta_power_sums():
    """The power rows against two zeta_pow rows, every conductor of group A299 and D152,
    on every path: two unit places, a copied power row, or two power rows added."""
    for m in range(1, 321):
        for e in range(m + 1):
            pair = CycloScalar.zeta_pair_sum(m, e)
            assert pair == CycloScalar.zeta_pow(m, e) + CycloScalar.zeta_pow(m, -e), (m, e)
            assert pair.den == 1


def test_power_rows_are_the_zeta_power_rows():
    """Every row of the power table, zero tops skipped, against x^e reduced by
    int_poly_divmod, which shares no code with ``_reduce``."""
    for m in range(1, 301):
        phi = cyclotomic_polynomial(m)
        deg = len(phi) - 1
        rows = _power_rows(m)
        assert len(rows) == m - deg
        for e in range(deg, m):
            _, remainder = int_poly_divmod([0] * e + [1], phi)
            assert rows[e - deg] == remainder, (m, e)


@pytest.mark.parametrize("m", [210, 270, 300])
def test_pair_sums_where_both_exponents_pass_phi(m):
    deg = euler_phi(m)
    both = [e for e in range(m + 1) if min(e % m, -e % m) >= deg]
    assert both  # the map(add) of two power rows is taken here
    for e in both:
        expected = CycloScalar.zeta_pow(m, e) + CycloScalar.zeta_pow(m, -e)
        assert CycloScalar.zeta_pair_sum(m, e) == expected
        assert CycloScalar.zeta_pair_sum(m, e).row == expected.row


@pytest.mark.parametrize("m", [210, 243, 273, 298, 3974, 3998, 4000])
def test_float_oracle_on_zeta_powers_and_pair_sums(m):
    """Products and zeta powers share one remainder, so check rows by floats."""
    rng = random.Random(m)
    exponents = {0, 1, m // 2, m - 1, m, -1, -m - 3, 2 * m + 5}
    exponents |= {rng.randrange(-2 * m, 2 * m) for _ in range(12)}
    for e in sorted(exponents):
        angle = 2 * cmath.pi * e / m
        assert abs(approx(CycloScalar.zeta_pow(m, e)) - cmath.exp(1j * angle)) < 1e-6
        assert abs(approx(CycloScalar.zeta_pair_sum(m, e)) - 2 * math.cos(angle)) < 1e-6


def test_constructors_take_only_ints_and_fractions():
    for bad in (0.1, 0.5, "1/2", "1", True, False, None):
        with pytest.raises(TypeError):
            CycloScalar(5, (bad, 0, 0, 0))
        with pytest.raises(TypeError):
            CycloScalar(5, (0, 0, 0, bad))
        with pytest.raises(TypeError):
            CycloScalar.from_rational(bad, 5)
    assert CycloScalar(5, (1, F(1, 2), 0, -3)).coeffs == (1, F(1, 2), 0, -3)
    assert CycloScalar.from_rational(-7, 5) == -7
    assert CycloScalar.from_rational(F(3, 4), 1).to_rational() == F(3, 4)


def test_wrong_rows_and_foreign_operands_are_refused():
    with pytest.raises(ValueError, match=r"^conductor 5 needs 4 coefficients, got 2$"):
        CycloScalar(5, (1, 2))
    with pytest.raises(TypeError, match=r"^not a scalar: 'x'$"):
        scalar_key("x")
    zeta = CycloScalar.zeta_pow(5, 1)
    assert not CycloScalar.zero(5) and zeta
    assert repr(zeta) == "CycloScalar(5, (Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)))"
    # each operator returns NotImplemented, so Python raises (or answers False)
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \+: 'CycloScalar' and 'str'$"):
        zeta + "x"  # noqa: B018
    with pytest.raises(TypeError, match=r"^can't multiply sequence by non-int of type 'CycloScalar'$"):
        zeta * [1]  # noqa: B018
    assert (zeta == "x") is False


def test_entry_points_take_only_positive_int_conductors():
    # lru_cache keys 2.0 and True apart from 2 and 1, so each must be rejected, not looked up
    entries = (
        lambda m: CycloScalar(m, (1,)),
        lambda m: CycloScalar.zeta_pow(m, 1),
        lambda m: CycloScalar.zeta_pair_sum(m, 1),
        lambda m: CycloScalar.from_rational(1, m),
        CycloScalar.pair_inverse,
        scalars.pair_inverse_trace,
        CycloScalar.one(5).embed,
    )
    for entry in entries:
        for bad in (2.0, 10.0, True, False, "10", None, F(10)):
            with pytest.raises(TypeError):
                entry(bad)
        for bad in (0, -10):
            with pytest.raises(ValueError):
                entry(bad)
    assert type(CycloScalar.zeta_pow(10).conductor) is int
    assert CycloScalar.one(5).embed(10) == CycloScalar.one(10)


def test_invert_examples():
    assert CycloScalar.from_rational(2, 5).invert() == F(1, 2)
    z4 = CycloScalar.zeta_pow(4)
    assert z4.invert() == -z4
    z3 = CycloScalar.zeta_pow(3)
    inv = (1 - z3).invert()
    assert inv * (1 - z3) == 1
    assert inv == (2 + z3) * F(1, 3)
    r = CycloScalar.from_rational(F(-3, 7), 240)  # 4 | m: a rational takes the descent too
    assert r.invert() == F(-7, 3) and r.invert().is_rational()
    assert r ** -2 == F(49, 9) and (r ** -2).is_rational()


def test_invert_zero_raises():
    with pytest.raises(ZeroInversion):
        CycloScalar.zero(7).invert()
    with pytest.raises(ZeroInversion):
        (root2() * root2() - 2).invert()  # zero of Q(sqrt 2) inside Q(zeta_8)
    for m in (1, 7, 12):  # a negative power goes through invert
        with pytest.raises(ZeroInversion):
            CycloScalar.zero(m) ** -1


def test_random_inverses_are_exact():
    rng = random.Random(4391)
    for trial in range(120):
        m = rng.randint(1, 60)
        deg = euler_phi(m)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)]
        z = CycloScalar(m, tuple(coeffs))
        if z.is_zero():
            continue
        assert z.invert() * z == 1


@pytest.mark.parametrize("d", [997, 1155, 1998, 3974, 3990])
def test_large_conductor_pair_inverse_matches_closed_form(d):
    """1/(2 - zeta - zeta^-1) = -(1/(2d)) * sum_{j<d} j(d-j) zeta^j, no inversion."""
    row = [j * (d - j) for j in range(d)]
    _, remainder = int_poly_divmod(row, cyclotomic_polynomial(d))
    expected = tuple(F(-c, 2 * d) for c in remainder)
    assert conjugate_pair_inverse(d).coeffs == expected


@pytest.mark.parametrize("m", [5, 12, 240, 1000, 4000])
def test_negative_powers_of_zeta_powers(m):
    rng = random.Random(m)
    exponents = {0, 1, m // 2 - 1, m // 2, m - 1, euler_phi(m) - 1, euler_phi(m)} | {
        rng.randrange(m) for _ in range(12 if m > 300 else m)
    }
    for e in sorted(exponents):
        z = CycloScalar.zeta_pow(m, e)
        assert z ** -1 == CycloScalar.zeta_pow(m, -e) == z.invert(), (m, e)
        w = 3 * z
        assert w ** -2 == CycloScalar.zeta_pow(m, -2 * e) * F(1, 9) == (w * w).invert(), (m, e)


def test_negative_powers_of_monomials_skip_the_euclid():
    """c = -2/3 zeta^e: c ** -3 and (c ** -1) c = 1.  The name is kept from
    the one-place rule that read these off ``zeta_pow``; they now take the
    one ``invert`` path like any other value."""
    for m in (5, 12, 240, 4000):
        for e in range(0, euler_phi(m), max(1, euler_phi(m) // 7)):
            c = F(-2, 3) * CycloScalar.zeta_pow(m, e)
            assert c ** -3 == CycloScalar.zeta_pow(m, -3 * e) * F(-27, 8), (m, e)
            assert (c ** -1) * c == 1, (m, e)


def count_calls(monkeypatch, *names) -> dict:
    """Count the calls of each named function of ``scalars`` from here on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(scalars, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(scalars, name, counted)
    return calls


def descent_products(z: CycloScalar) -> int:
    """The products ``invert`` makes below its one check: two (the norm
    z * sigma(z) and the lift) at each level 4 | m where the value has a
    nonzero odd place.  sigma: zeta -> -zeta is the Galois map j = m/2 + 1."""
    m, count = z.conductor, 0
    while m % 4 == 0:
        if any(z.row[1::2]):
            count += 2
            z = z * z.galois(m // 2 + 1)
        m //= 2
        z = CycloScalar(m, z.coeffs[::2])
    return count


@pytest.fixture
def cold_descent():
    """An empty cache of subfield inverses before the test, and again after
    it, so no entry a test made or poisoned outlives it."""
    cache = scalars._subfield_inverse
    cache.cache_clear()
    yield cache
    cache.cache_clear()


@pytest.mark.parametrize("m", [60, 120, 240])
def test_negative_powers_of_dense_zeta_powers_take_the_descent_and_one_euclid(
    m, monkeypatch, cold_descent
):
    """zeta^k for phi(m) <= k < m/2, the literal half-angle sums' dense terms:
    from an empty subfield cache, ``** -1`` guesses no dense row, runs one
    Euclid, and takes one remainder mod Phi per product of the descent plus
    one for the check at the top.  The same power again runs no Euclid: the
    level below the top is a cache hit."""
    powers = [CycloScalar.zeta_pow(m, k) for k in range(euler_phi(m), m // 2)]
    expected = [CycloScalar.zeta_pow(m, -k) for k in range(euler_phi(m), m // 2)]
    reductions = [descent_products(z) + 1 for z in powers]
    calls = count_calls(monkeypatch, "_reduce", "_inverse_row")
    for k, z, want, count in zip(range(euler_phi(m), m // 2), powers, expected, reductions):
        assert len(z.row) - z.row.count(0) > 1, k
        cold_descent.cache_clear()
        calls.update(_reduce=0, _inverse_row=0)
        assert z ** -1 == want, (m, k)
        assert calls == {"_reduce": count, "_inverse_row": 1}, (m, k)
        calls.update(_inverse_row=0)
        assert z ** -1 == want, (m, k)
        assert calls["_inverse_row"] == 0, (m, k)


def test_a_wrong_cached_subfield_inverse_fails_the_check(monkeypatch, cold_descent):
    """A cached entry with the wrong lam, (s, lam + 1) for Q(zeta_120), is
    caught by the one check u*z = 1 at the top of ``invert``."""
    z = 2 - CycloScalar.zeta_pow(240, 1) - CycloScalar.zeta_pow(240, 7)
    assert z.invert() * z == 1

    def poisoned(m, row):
        s, lam = cold_descent(m, row)
        return (s, lam + 1) if m == 120 else (s, lam)

    monkeypatch.setattr(scalars, "_subfield_inverse", poisoned)
    hits = cold_descent.cache_info().hits
    with pytest.raises(IdentityFailure):
        z.invert()
    assert cold_descent.cache_info().hits == hits + 1


def test_the_subfield_cache_stays_bounded(cold_descent):
    """90 dense values at m = 240 leave 270 subfield rows (at 120, 60 and
    30); the cache keeps 256 of them, its values are tuples from each
    branch, and an evicted row is inverted again exactly."""
    rng = random.Random(240)
    values = [CycloScalar(240, tuple(F(rng.randint(-9, 9)) for _ in range(64))) for _ in range(90)]
    inverses = [z.invert() for z in values]
    info = cold_descent.cache_info()
    assert info.misses > info.maxsize == 256 and info.currsize <= 256, info
    for m, low in ((120, (1, 1)), (120, (1, 0, 1)), (30, (1, 1))):  # odd places, even only, Euclid
        s, lam = cold_descent(m, low + (0,) * (euler_phi(m) - len(low)))
        assert type(s) is tuple and type(lam) is int, (m, low)
    assert values[0].invert() == inverses[0] and inverses[0] * values[0] == 1


def euclid_inverse(z: CycloScalar) -> CycloScalar:
    """The one half-extended Euclid over Phi_m at the full conductor, as
    ``invert`` ran before the descent: the oracle for it."""
    s, lam = scalars._inverse_row(z.row, cyclotomic_polynomial(z.conductor))
    return CycloScalar._new(z.conductor, [z.den * c for c in s] + [0] * (len(z.row) - len(s)), lam)


def sparse_row(rng, deg, terms, top, step=1):
    """terms nonzero places (fewer if two draws meet) at multiples of step,
    each a nonzero integer in [-top, top]."""
    row = [0] * deg
    for _ in range(terms):
        row[rng.randrange(0, deg, step)] = rng.choice([-1, 1]) * rng.randint(1, top)
    return row


@pytest.mark.parametrize("m", [4, 8, 12, 16, 20, 24, 28, 36, 40, 48, 60, 64, 72, 120, 240, 1024])
def test_descent_inverse_matches_the_euclid(m):
    """Dense, 1-5 term sparse, even-place-only and rational values: the
    descent through Q(zeta_(m/2)) gives the Euclid's row and den exactly.
    At m = 1024 the oracle takes seconds on a dense value, and on sparse
    ones with larger coefficients, so only signed sums of 1-5 powers of
    zeta are drawn there."""
    rng = random.Random(m)
    deg = euler_phi(m)
    top = 9 if m < 1024 else 1
    rows = [sparse_row(rng, deg, terms, top) for terms in range(1, 6)]
    rows += [sparse_row(rng, deg, terms, top, 2) for terms in (1, 3)]
    rows.append([rng.randint(-9, 9) or 1] + [0] * (deg - 1))
    if m < 1024:
        rows += [[rng.randint(-9, 9) for _ in range(deg)] for _ in range(3)]
        even = [rng.randint(-9, 9) for _ in range(deg)]
        even[1::2] = [0] * (deg // 2)
        rows.append(even)
    for row in rows:
        den = rng.randint(1, 5)
        z = CycloScalar(m, tuple(F(c, den) for c in row))
        if z.is_zero():
            continue
        u, want = z.invert(), euclid_inverse(z)
        assert (u.row, u.den) == (want.row, want.den), (m, row)
        assert u * z == 1
    with pytest.raises(ZeroInversion):
        CycloScalar.zero(m).invert()


@pytest.mark.parametrize("m", [7, 30, 3990])
def test_invert_without_4_dividing_m_is_one_euclid_and_one_check(m, monkeypatch):
    """One Euclid on Phi_m and one remainder mod Phi_m, the check product s*z = lam."""
    z1, z2 = CycloScalar.zeta_pow(m, 1), CycloScalar.zeta_pow(m, 2)
    values = [1 + z1, 2 - z1 + 3 * z2]
    expected = [euclid_inverse(z) for z in values]
    calls = count_calls(monkeypatch, "_reduce", "_inverse_row")
    for z, want in zip(values, expected):
        calls.update(_reduce=0, _inverse_row=0)
        assert z.invert() == want
        assert calls == {"_reduce": 1, "_inverse_row": 1}, (m, z)


@pytest.mark.parametrize("m", [30, 105])
def test_a_wrong_euclid_cofactor_without_4_dividing_m_fails_the_check(m, monkeypatch):
    """At a conductor the descent does not enter, a wrong cofactor or a wrong
    lam from the Euclid fails the check u*z = 1 and is not returned."""
    real = scalars._inverse_row
    z = 2 - CycloScalar.zeta_pow(m, 1) - CycloScalar.zeta_pow(m, 7)
    assert z.invert() * z == 1
    for doctor in (lambda s, lam: ([s[0] + 1] + s[1:], lam), lambda s, lam: (s, lam + 1)):
        monkeypatch.setattr(scalars, "_inverse_row", lambda row, phi, doctor=doctor: doctor(*real(row, phi)))
        with pytest.raises(IdentityFailure):
            z.invert()


def test_descent_check_rejects_a_wrong_cofactor(monkeypatch, cold_descent):
    """A wrong Euclid cofactor at the bottom conductor (30, below 240 ->
    120 -> 60) fails the one check u*z = 1 at the top.  The subfield cache
    starts empty, so the Euclid runs, and is emptied after."""
    real = scalars._inverse_row

    def wrong(row, phi):
        s, lam = real(row, phi)
        return [s[0] + 1] + s[1:], lam

    z = 2 - CycloScalar.zeta_pow(240, 1) - CycloScalar.zeta_pow(240, 7)
    monkeypatch.setattr(scalars, "_inverse_row", wrong)
    with pytest.raises(IdentityFailure):
        z.invert()


def test_negative_powers_of_other_values_keep_invert():
    rng = random.Random(77)
    for m in (7, 12, 15, 60):
        deg = euler_phi(m)
        for _ in range(10):
            x = CycloScalar(m, tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)))
            if x.is_zero():
                continue
            assert x ** -1 == x.invert()
            assert x ** -2 == (x * x).invert()


def test_first_power_is_the_value_itself():
    for x in (CycloScalar.zeta_pow(12, 5), 2 - CycloScalar.zeta_pow(7, 3), CycloScalar.zero(9)):
        assert x ** 1 is x


def test_to_rational():
    assert CycloScalar.from_rational(F(7, 3), 12).to_rational() == F(7, 3)
    assert CycloScalar.zeta_pow(5).to_rational() is None
    z6 = CycloScalar.zeta_pow(6)
    assert (z6 + z6 ** -1).to_rational() == 1
    # a zero constant place, a value past it, and the one-place rows of
    # conductors 1 and 2
    z5 = CycloScalar.zeta_pow(5)
    for x, value in (
        (CycloScalar.zero(5), 0),
        (CycloScalar.from_rational(3, 5), 3),
        (z5, None),
        (z5 + z5 ** -1, None),
        (CycloScalar.zero(1), 0),
        (CycloScalar.from_rational(F(-5, 2), 1), F(-5, 2)),
        (CycloScalar.zeta_pow(2), -1),
        (CycloScalar.zero(2), 0),
    ):
        assert x.is_rational() == (value is not None) and x.to_rational() == value, x


def test_conductor_mixing_is_an_error():
    a = CycloScalar.zeta_pow(5)
    b = CycloScalar.zeta_pow(7)
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        a * b
    with pytest.raises(FieldMismatch):
        b.embed(5)


def test_embedding_into_larger_field():
    for d, m in [(3, 12), (5, 20), (4, 8), (7, 42)]:
        assert CycloScalar.zeta_pow(d).embed(m) == CycloScalar.zeta_pow(m, m // d)
    z = CycloScalar.zeta_pow(6) - 3
    assert z.embed(6) == z
    assert abs(approx(z.embed(12)) - approx(z)) < 1e-12


def test_galois_is_multiplicative_and_permutes_roots():
    rng = random.Random(977)
    for m in (5, 8, 12, 15, 16, 21):
        deg = euler_phi(m)
        a = CycloScalar(m, tuple(F(rng.randint(-5, 5)) for _ in range(deg)))
        b = CycloScalar(m, tuple(F(rng.randint(-5, 5)) for _ in range(deg)))
        for j in range(1, m):
            if math.gcd(j, m) != 1:
                continue
            assert a.galois(j) * b.galois(j) == (a * b).galois(j)
        assert CycloScalar.zeta_pow(m).galois(3 if math.gcd(3, m) == 1 else m - 1) == \
            CycloScalar.zeta_pow(m, 3 if math.gcd(3, m) == 1 else m - 1)
    with pytest.raises(ValueError):
        CycloScalar.zeta_pow(8).galois(2)


def test_trace_matches_explicit_galois_orbit_sum():
    rng = random.Random(31337)
    for m in (4, 5, 8, 9, 12, 15, 16, 24, 36, 40):
        deg = euler_phi(m)
        z = CycloScalar(
            m, tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg))
        )
        explicit = CycloScalar.zero(m)
        for j in range(1, m + 1):
            if math.gcd(j, m) == 1:
                explicit = explicit + z.galois(j)
        assert explicit == cyclo_trace(z)


def galois_orbit_sum(z):
    """The trace as the sum of every Galois image, one automorphism at a time."""
    m = z.conductor
    total = CycloScalar.zero(m)
    for j in range(1, m + 1):
        if math.gcd(j, m) == 1:
            total = total + z.galois(j)
    return total


TRACE_CONDUCTORS = [*range(1, 65), 72, 100, 128, 243, 360]


def test_trace_by_ramanujan_sums_on_every_conductor():
    """Prime powers, squarefree and non-squarefree conductors alike."""
    rng = random.Random(1918)
    for m in TRACE_CONDUCTORS:
        deg = euler_phi(m)
        z = CycloScalar(m, tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)))
        assert cyclo_trace(z) == galois_orbit_sum(z), m


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_property_trace_is_the_galois_orbit_sum(data):
    m = data.draw(st.sampled_from(TRACE_CONDUCTORS))
    deg = euler_phi(m)
    coefficient = st.fractions(min_value=-20, max_value=20, max_denominator=7)
    z = CycloScalar(m, tuple(data.draw(st.lists(coefficient, min_size=deg, max_size=deg))))
    assert cyclo_trace(z) == galois_orbit_sum(z)


def test_field_axioms_fuzz():
    rng = random.Random(2024)
    for trial in range(60):
        m = rng.choice([3, 4, 5, 6, 8, 12])
        deg = euler_phi(m)

        def draw():
            return CycloScalar(
                m, tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg))
            )

        a, b, c = draw(), draw(), draw()
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == CycloScalar.zero(m)
        if not a.is_zero():
            assert a * a.invert() == 1


def test_rational_collapse_equality_and_hash():
    z6 = CycloScalar.zeta_pow(6)
    one = z6 + z6 ** 5  # zeta_6 + zeta_6^-1 = 1
    assert one == 1 and hash(one) == hash(F(1))
    assert one == CycloScalar.from_rational(1, 5)
    # irrational values of different fields stay distinct
    assert CycloScalar.zeta_pow(5) != CycloScalar.zeta_pow(7)
    assert root2() != root5()


def test_scalar_key_orders_mixed_scalars():
    values = [F(1, 2), root2(), CycloScalar.zeta_pow(5), F(-3)]
    keys = [scalar_key(v) for v in values]
    assert sorted(keys) == sorted(set(keys))  # all distinct and comparable


def test_string_rendering_is_stable():
    z = CycloScalar.zeta_pow(12)
    # zeta_12^-1 reduces to zeta_12 - zeta_12^3 modulo x^4 - x^2 + 1
    assert str(2 - z - z ** -1) == "2 - 2*z12 + z12^3"
    assert Quaternion.value_str(F(1, 2) - F(3, 2) * root5()) == "1/2 - 3/2*sqrt5"
    assert str(CycloScalar.zero(9)) == "0"


def test_float_oracle_agrees_on_small_products():
    rng = random.Random(808)
    for m in (5, 7, 12):
        deg = euler_phi(m)
        a = CycloScalar(m, tuple(F(rng.randint(-3, 3)) for _ in range(deg)))
        b = CycloScalar(m, tuple(F(rng.randint(-3, 3)) for _ in range(deg)))
        assert abs(approx(a * b) - approx(a) * approx(b)) < 1e-9


# ----------------------------------------------------------------------
# field axioms as properties, over conductors of every shape: primes,
# twice a prime, prime powers and one with four prime factors

CONDUCTORS = [2, 3, 5, 7, 11, 13, 6, 10, 14, 22, 26, 4, 8, 9, 16, 25, 27, 210]


@st.composite
def field_elements(draw, count):
    m = draw(st.sampled_from(CONDUCTORS))
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    values = [
        CycloScalar(m, tuple(draw(st.lists(coefficients, min_size=euler_phi(m), max_size=euler_phi(m)))))
        for _ in range(count)
    ]
    return m, values


@settings(derandomize=True, max_examples=60, deadline=None)
@given(field_elements(1))
def test_property_inverse(sample):
    _, (x,) = sample
    if not x.is_zero():
        assert x * x.invert() == 1


@settings(derandomize=True, max_examples=80, deadline=None)
@given(field_elements(2), st.integers(min_value=1, max_value=500))
def test_property_galois_is_a_ring_map(sample, j):
    m, (x, y) = sample
    while math.gcd(j, m) != 1:
        j += 1
    assert (x + y).galois(j) == x.galois(j) + y.galois(j)
    assert (x * y).galois(j) == x.galois(j) * y.galois(j)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(field_elements(2), st.integers(min_value=1, max_value=6))
def test_property_embedding_is_a_ring_map(sample, k):
    m, (x, y) = sample
    M = k * m
    assert (x + y).embed(M) == x.embed(M) + y.embed(M)
    assert (x * y).embed(M) == x.embed(M) * y.embed(M)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_property_zeta_powers_multiply(m, e, f):
    assert CycloScalar.zeta_pow(m, e) * CycloScalar.zeta_pow(m, f) == CycloScalar.zeta_pow(m, e + f)


# ----------------------------------------------------------------------
# storage: integer numerators over one denominator behave as the
# Fraction coefficients they stand for


def reference_str(m, coeffs):
    """The rendering rule, read off the Fraction coefficients."""
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            sym = f"z{m}" if i == 1 else f"z{m}^{i}"
            body = str(abs(c)) if i == 0 else sym if abs(c) == 1 else f"{abs(c)}*{sym}"
            terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    (sign, body), rest = terms[0], terms[1:]
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)


@st.composite
def stored_elements(draw):
    m = draw(st.sampled_from(CONDUCTORS))
    coefficient = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    coeffs = draw(st.lists(coefficient, min_size=euler_phi(m), max_size=euler_phi(m)))
    if draw(st.booleans()):  # often a rational value
        coeffs = coeffs[:1] + [F(0)] * (len(coeffs) - 1)
    return m, tuple(coeffs)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(stored_elements())
def test_property_storage_keeps_the_fraction_rules(sample):
    m, coeffs = sample
    x = CycloScalar(m, coeffs)
    assert x.coeffs == coeffs
    assert x.den > 0 and math.gcd(x.den, *x.row) == 1
    assert str(x) == reference_str(m, coeffs)
    rational = not any(coeffs[1:])
    assert x.is_rational() == rational
    for q in (coeffs[0], coeffs[0] + F(1, 7), int(coeffs[0]), 0):
        assert (x == q) == (rational and coeffs[0] == q)
    if rational:
        assert hash(x) == hash(coeffs[0])
        assert scalar_key(x) == (0, coeffs[0].numerator, coeffs[0].denominator)
    else:
        assert scalar_key(x) == (1, m) + tuple(
            part for c in coeffs for part in (c.numerator, c.denominator)
        )
    y = (3 * x + F(1, 3)) * F(1, 3) - F(1, 9)  # x again, by another route
    assert y == x and hash(y) == hash(x)


# ----------------------------------------------------------------------
# the fused sum of products behind each quaternion component


def test_signed_dot_keeps_one_conductor():
    five, seven = CycloScalar.zeta_pow(5), CycloScalar.zeta_pow(7)
    assert signed_dot((five, five), (five, 2 * five), (1, -1)) == -(five * five)
    with pytest.raises(FieldMismatch):
        signed_dot((five, five), (five, seven), (1, 1))
    with pytest.raises(FieldMismatch):
        signed_dot((seven, five), (seven, five), (1, 1))
