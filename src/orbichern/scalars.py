"""Exact scalar arithmetic: one cyclotomic field type, and rationals at its edges.

``CycloScalar`` represents an element of Q(zeta_m) as a dense polynomial
residue modulo the m-th cyclotomic polynomial on the power basis 1, zeta,
..., zeta^(phi(m)-1), stored as one row of integer numerators over one
positive denominator in lowest terms (FLINT's fmpq_poly layout).  It is
the one field type: Q itself is Q(zeta_1), a row of one place, and the
real quadratic fields the exceptional groups need sit inside it,
Q(sqrt 2) in Q(zeta_8) and Q(sqrt 5) in Q(zeta_5).  ``fractions.Fraction``
appears only at the edges: constructor inputs (an int other than a bool,
or a Fraction; anything else raises TypeError), and results that are
rational numbers (traces down to Q, the ``coeffs`` view).  The wire form
of a rational, ``parse_rational``, lives with the description reader in
``cli``, so ``check`` compiles nothing here; ``orbichern.scalars`` still
resolves the name, through the module ``__getattr__``.

``divisors``, ``euler_phi`` and ``moebius`` read one cached prime
factorization of m (``_factorization``), the one trial division here,
which rejects a bool, a non-int and m < 1.  Only an odd squarefree m
builds Phi_m as the integer power series prod over d | m of
(1 - x^d)^mu(m/d), cut at degree phi(m), in C-level slice passes; any
other m reads the cached Phi_c of its odd squarefree core c, changes
the sign of its odd places for even m, and spreads its places to every
(m/rad m)-th; the dimension phi(m) alone comes from ``euler_phi``.
Every product, zeta power, power-table step, Galois image and embedding
places its integer numerators at their exponents and is reduced by one
remainder modulo Phi_m (``_reduce``), a long division over the nonzero
coefficients of Phi_m only.  Only the unit rows below
phi(m), zeta^e for e < phi(m), which have nothing to reduce, and the
orbit-term inverse, which is built below degree phi(m), skip it.  Every
product is one ``signed_dot``, a sum of signed products (a quaternion
component, or one product ``a * b``) fused into one convolution and one
remainder; ``_convolve`` is the one integer convolution loop, shared
with the inversion's descent.  A Galois image and an
embedding are the same step (``_placed``): place coefficient i at
i*k mod M, then reduce.

``_power_rows`` builds zeta^phi .. zeta^(m-1) in one pass of
multiplications by zeta, for one conductor at a time: each step shifts
the row up one place and hands its place at x^phi to ``_reduce``, which
skips it when it is 0, as it is for most steps of a sparse row.  A trace
row zeta^e + zeta^-e is made in C-level passes: two unit places, one
``list()`` copy of a power row plus 1 at a unit place, or one
``map(operator.add)`` of two power rows.  The orbit-term inverse
1/(2 - zeta - zeta^-1) (``pair_inverse``) is one pass over Phi_m's
expansion about 1, and its exact check u (1 - zeta)^2 = -zeta one more,
a polynomial identity with a linear multiple of Phi_m: an identity that
needs only these inverses builds no ``_reduce`` table.  Every other
inversion takes one path: a negative power k is ``invert`` raised to -k,
and ``invert`` is one call of ``_descent_row``, which ends in one
half-extended Euclid over the integers with primitive remainders
(``_inverse_row``); its pseudo-division is the one polynomial remainder
besides ``_reduce``.  While 4 | m, the Euclid runs at half the degree
(the field-norm descent of Pornin and Prest): Phi_m(x) = Phi_(m/2)(x^2),
so zeta -> -zeta negates the odd places and fixes Q(zeta_(m/2)), the
even places, the norm z sigma(z) lies there, and 1/z = sigma(z) (1/N(z)),
two products per level on integer rows, none for a row with no odd
places.  The descent stops at the first m with 4 not dividing it, where
the Euclid runs.  Every level below the top goes through
``_subfield_inverse``, an ``lru_cache`` of at most 256 (conductor, row)
entries holding tuples: for odd k the norm of 2 - zeta^k - zeta^-k is
2 - zeta^2k - zeta^-2k one level down, so the terms of one literal sum
share their chains.  The top level is not cached, since its rows do not
repeat.  The inverse is returned only after one exact check s z = lam at
the top, one more product, which a wrong cached entry fails.  For 4 not dividing m the
Euclid on Phi_m runs alone, exact by construction, with no product and
no check.  ``cyclo_trace`` takes a trace by Ramanujan sums, one slice
sum per divisor of m.  No polynomial code works on Fractions.
``scalar_key`` is the reference order of values: a rational, in any
field, before every irrational value.  Every value is immutable and
hashable.

There are no floating-point code paths here: every operation is exact, and
anything that cannot be represented exactly raises instead of approximating.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import FieldMismatch, IdentityFailure, ZeroInversion


def __getattr__(name: str):
    """``parse_rational``, the wire form, which lives with the description
    reader in ``cli``; this module loads ``cli`` only when the name is read."""
    if name == "parse_rational":
        from .cli import parse_rational

        return parse_rational
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _exact(value: Fraction | int) -> Fraction | int:
    """value itself if it is an int other than a bool, or a Fraction: a
    float, a string or a bool raises TypeError instead of being read."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"not an int or a Fraction: {value!a}")
    return value


def _conductor(m: int) -> int:
    """m itself if it is an int other than a bool and m >= 1: a float, a
    string or a bool raises TypeError, and m < 1 ValueError.  An
    ``lru_cache`` does not reject them: it keys 5.0 and True apart from 5
    and 1, so without this check ``euler_phi(5.0)`` would compute 4.0."""
    if isinstance(m, bool) or not isinstance(m, int):
        raise TypeError(f"a conductor must be an int, got {m!a}")
    if m < 1:
        raise ValueError(f"a conductor must be >= 1, got {m}")
    return m


# ----------------------------------------------------------------------
# small number-theoretic helpers


@functools.lru_cache(maxsize=None)
def _factorization(m: int) -> tuple[tuple[int, int], ...]:
    """The primes p dividing m and their exponents k, as ((p, k), ...), p
    ascending: the one trial division behind ``divisors``, ``euler_phi``
    and ``moebius``, and so ``cyclotomic_polynomial``: a bool, a non-int
    or m < 1 raises here (``_conductor``)."""
    _conductor(m)
    factors = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            factors.append((p, k))
        p += 1
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


@functools.lru_cache(maxsize=None)
def divisors(m: int) -> tuple[int, ...]:
    """Positive divisors of m, ascending."""
    result = [1]
    for p, k in _factorization(m):
        result = [d * p**i for d in result for i in range(k + 1)]
    return tuple(sorted(result))


@functools.lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    result = m
    for p, _ in _factorization(m):
        result -= result // p
    return result


@functools.lru_cache(maxsize=None)
def moebius(m: int) -> int:
    factors = _factorization(m)
    return 0 if any(k > 1 for _, k in factors) else (-1) ** len(factors)


# ----------------------------------------------------------------------
# cyclotomic polynomials and the one remainder modulo Phi_m


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m (constant term first, monic, degree phi(m)).

    Phi_m(x) = Phi_r(x^(m/r)) for the radical r of m, and
    Phi_2c(x) = Phi_c(-x) for odd c > 1, so only an odd squarefree m takes
    the Moebius product over d | m of (1 - x^d)^mu(m/d), expanded as an
    integer power series cut at degree phi(m): a factor with mu = 1 is one
    ``map(operator.sub)`` over two slices, a factor with mu = -1 (the
    series 1 + x^d + x^2d + ...) running sums, per residue class mod d when
    d^2 <= phi(m) and block by block otherwise.  Any other m reads the
    cached Phi_c of its odd squarefree core c (the base row 1 - x when m is
    a power of 2), changes the sign of its odd places when m is even (so
    Phi_2 = 1 + x), then spreads its places to every (m/r)-th.
    Phi_1 = x - 1.
    """
    primes = [p for p, _ in _factorization(m)]  # raises for a non-int or m < 1
    if m == 1:
        return (-1, 1)
    core = prod(p for p in primes if p > 2)
    if m == core:
        deg = euler_phi(m)
        poly = [1] + [0] * deg
        for d in divisors(m):
            if moebius(m // d) == 1:
                poly[d:] = map(operator.sub, poly[d:], poly[:-d])
            elif d * d <= deg:
                for r in range(d):
                    poly[r::d] = itertools.accumulate(poly[r::d])
            else:
                for j in range(d, deg + 1, d):
                    poly[j : j + d] = map(operator.add, poly[j : j + d], poly[j - d : j])
    else:
        base = list(cyclotomic_polynomial(core)) if core > 1 else [1, -1]
        if m % 2 == 0:
            base[1::2] = map(operator.neg, base[1::2])
        spread = m // prod(primes)
        poly = [0] * ((len(base) - 1) * spread + 1)
        poly[::spread] = base
    if poly[-1] != 1 or len(poly) != euler_phi(m) + 1:
        raise IdentityFailure(f"Phi_{m} is not monic of degree phi({m})")
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def _division_terms(m: int) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """phi(m) and the nonzero lower coefficients of Phi_m as (value, places)."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    places: dict[int, list[int]] = {}
    for j, c in enumerate(phi[:deg]):
        if c:
            places.setdefault(c, []).append(j)
    return deg, tuple((c, tuple(js)) for c, js in places.items())


def _convolve(conv: list, a, b, scale: int = 1, shift: int = 0) -> list:
    """conv[i + j + shift] += scale * a[i] * b[j], in place; returns conv.

    The one integer convolution loop.  It skips the zeros of a only, so
    the sparser operand goes first.
    """
    for i, x in enumerate(a, shift):
        if x:
            x *= scale
            for j, y in enumerate(b, i):
                conv[j] += x * y
    return conv


def _product_row(m: int, a, b) -> list:
    """a*b modulo Phi_m for two integer rows of phi(m) places: one
    ``_convolve``, the row with more zeros first, and one ``_reduce``."""
    if a.count(0) < b.count(0):
        a, b = b, a
    return _reduce(m, _convolve([0] * (2 * len(a) - 1), a, b))


def _reduce(m: int, poly: list) -> list:
    """poly modulo Phi_m, in place; returns the phi(m) coefficients.

    poly is dense (index = degree) and at least phi(m) long.  Long division
    by the monic Phi_m visits only its nonzero lower coefficients, with one
    product per distinct coefficient value.
    """
    deg, terms = _division_terms(m)
    for i in range(len(poly) - 1, deg - 1, -1):
        c = poly[i]
        if c:
            base = i - deg
            for value, places in terms:
                t = c * value
                for j in places:
                    poly[base + j] -= t
    del poly[deg:]
    return poly


@functools.lru_cache(maxsize=1)
def _power_rows(m: int) -> tuple[list[int], ...]:
    """Rows of zeta_m^e for e = phi(m) .. m - 1, kept for one conductor at a time.

    zeta^(e+1) = zeta * zeta^e: shift the row up one place and reduce its
    one place at x^phi by ``_reduce``, which skips it when it is zero.
    """
    deg = euler_phi(m)
    row = [0] * (deg - 1) + [1]  # zeta^(deg - 1)
    rows = []
    for _ in range(deg, m):
        row = _reduce(m, [0] + row)
        rows.append(row)
    return tuple(rows)


@functools.lru_cache(maxsize=1)
def _power_texts(m: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The terms "+ zm^i" and "- zm^i" ("+ zm" at i = 1) for i < phi(m),
    kept for one conductor at a time; place 0 holds no power."""
    powers = ["", f"z{m}"] + [f"z{m}^{i}" for i in range(2, euler_phi(m))]
    return tuple(f"+ {p}" for p in powers), tuple(f"- {p}" for p in powers)


# ----------------------------------------------------------------------
# the general inversion: half-extended Euclid over the integers


def _trim(poly: list[int]) -> list[int]:
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
    """(q, r, mu) with mu*a = q*b + r, deg r < deg b <= deg a, mu > 0.

    Whenever the leading coefficient of b does not divide the term being
    cancelled, the partial remainder and quotient are scaled by the least
    factor that makes it divide, so mu is 1 while b is monic.
    """
    lead = b[-1]
    db = len(b) - 1
    terms = [(j, c) for j, c in enumerate(b[:db]) if c]
    r = list(a)
    q = [0] * (len(a) - db)
    mu = 1
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i]
        if not c:
            continue
        if c % lead:
            f = abs(lead) // gcd(c, lead)
            mu *= f
            r = [x * f for x in r[: i + 1]]
            q = [x * f for x in q]
            c *= f
        t = c // lead
        q[i - db] = t
        for j, bj in terms:
            r[i - db + j] -= t * bj
    return q, _trim(r[:db]), mu


def _inverse_row(row: tuple[int, ...], phi: tuple[int, ...]) -> tuple[list[int], int]:
    """(s, lam) with s*row = lam modulo phi, lam a nonzero integer.

    phi is monic and irreducible and row is nonzero of lower degree.
    Half-extended Euclid over Z with primitive remainders: each step
    pseudo-divides the last two remainders, mu*r0 = q*r1 + r, and divides
    r by its content.  The cofactors keep s*row = lam*r (mod phi), and s
    and lam are divided by their common content at every step, so every
    number stays an integer and the last remainder, a constant, gives
    the inverse s/lam exactly.
    """
    r0, r1 = list(phi), _trim(list(row))
    if not r1:
        raise ZeroInversion("cannot invert zero")
    s0, s1, lam0, lam1 = [], [1], 1, 1
    while len(r1) > 1:
        q, r, mu = _pseudo_divmod(r0, r1)
        if not r:
            raise ZeroInversion("element shares a factor with the modulus")
        # s*row = lam0*lam1*r (mod phi) for s = mu*lam1*s0 - lam0*q*s1
        s = [mu * lam1 * c for c in s0] + [0] * (len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            if qi:
                t = lam0 * qi
                for j, c in enumerate(s1):
                    s[i + j] -= t * c
        content = gcd(*r)
        lam = lam0 * lam1 * content
        g = gcd(lam, *s)
        r0, r1 = r1, [c // content for c in r]
        s0, s1 = s1, _trim([c // g for c in s])
        lam0, lam1 = lam1, lam // g
    return s1, lam1 * r1[0]


def _descent_row(m: int, row) -> tuple[tuple[int, ...], int]:
    """(s, lam) with s*row = lam modulo Phi_m, through Q(zeta_(m/2)) while 4 | m.

    Phi_m(x) = Phi_(m/2)(x^2), so sigma: zeta -> -zeta negates the odd
    places and fixes Q(zeta_(m/2)), the rows on the even places.  For
    row = A(x^2) + x B(x^2) the norm row * sigma(row) is (A^2 - y B^2)(x^2),
    y = x^2: two half-length convolutions and one remainder modulo
    Phi_(m/2).  From t N = lam there, s = sigma(row) t(x^2): one more
    product.  A row with no odd places lies in Q(zeta_(m/2)) already and
    takes no product.  At the first m with 4 not dividing it, the Euclid
    (``_inverse_row``).  The inverse t of each level below comes from
    ``_subfield_inverse``, this function behind an ``lru_cache`` of 256
    entries keyed by (m/2, row), so its values are tuples: the terms
    2 - zeta^k - zeta^-k of one sum share their norms down the tower.  No
    level is checked here: ``invert`` checks s once, at the top, so a
    wrong cached entry raises there and is never returned.
    """
    if m % 4:
        s, lam = _inverse_row(row, cyclotomic_polynomial(m))
        return tuple(s), lam
    even, odd = row[::2], row[1::2]
    s = [0] * len(row)
    if not any(odd):
        t, lam = _subfield_inverse(m // 2, even)
        s[: 2 * len(t) : 2] = t
        return tuple(s), lam
    norm = _convolve(_convolve([0] * len(row), even, even), odd, odd, -1, 1)
    t, lam = _subfield_inverse(m // 2, tuple(_reduce(m // 2, norm)))
    s[: 2 * len(t) : 2] = t
    conj = list(row)
    conj[1::2] = map(operator.neg, odd)
    return tuple(_product_row(m, s, conj)), lam


# the literal half-angle sum at n = 120 leaves 257 entries and loses no hit to the bound
_subfield_inverse = functools.lru_cache(maxsize=256)(_descent_row)


# ----------------------------------------------------------------------
# cyclotomic scalars


class CycloScalar:
    """Element of Q(zeta_m), zeta_m = exp(2*pi*i/m), as a residue mod Phi_m.

    ``row`` holds phi(m) integer numerators on the power basis over one
    positive integer ``den``, with gcd(den, *row) == 1, so every value has
    one representation.  ``coeffs`` is the same row as Fractions, built on
    each access.  Arithmetic between two CycloScalars requires equal
    conductors (FieldMismatch otherwise); rational constants coerce.
    Change of field is explicit via ``embed``.
    """

    __slots__ = ("conductor", "row", "den")

    def __init__(self, conductor: int, coeffs: tuple[Fraction, ...]):
        deg = euler_phi(_conductor(conductor))
        if len(coeffs) != deg:
            raise ValueError(
                f"conductor {conductor} needs {deg} coefficients, got {len(coeffs)}"
            )
        values = [_exact(c) for c in coeffs]
        den = lcm(*(c.denominator for c in values))
        self._store(conductor, [c.numerator * (den // c.denominator) for c in values], den)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError("CycloScalar is immutable")

    __delattr__ = __setattr__

    def _store(self, conductor: int, row: list[int], den: int) -> None:
        """Set row/den in lowest terms: den > 0 and gcd(den, *row) == 1."""
        if den != 1:
            g = gcd(den, *row) if den > 0 else -gcd(den, *row)
            if g != 1:
                den //= g
                row = [c // g for c in row]
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "row", tuple(row))
        object.__setattr__(self, "den", den)

    @classmethod
    def _new(cls, conductor: int, row: list[int], den: int = 1) -> "CycloScalar":
        self = object.__new__(cls)
        self._store(conductor, row, den)
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients on the power basis as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.row)

    @classmethod
    def from_rational(cls, value: Fraction | int, conductor: int) -> "CycloScalar":
        value = _exact(value)
        row = [0] * euler_phi(_conductor(conductor))
        row[0] = value.numerator
        return cls._new(conductor, row, value.denominator)

    @classmethod
    def zero(cls, conductor: int) -> "CycloScalar":
        return cls.from_rational(0, conductor)

    @classmethod
    def one(cls, conductor: int) -> "CycloScalar":
        return cls.from_rational(1, conductor)

    @classmethod
    def zeta_pow(cls, conductor: int, exponent: int = 1) -> "CycloScalar":
        """zeta_m raised to any integer exponent: x^(e mod m) modulo Phi_m."""
        deg, e = euler_phi(_conductor(conductor)), exponent % conductor
        poly = [0] * max(deg, e + 1)
        poly[e] = 1
        # below phi(m) the power is a unit row, with nothing to reduce
        return cls._new(conductor, poly if e < deg else _reduce(conductor, poly))

    @classmethod
    def zeta_pair_sum(cls, conductor: int, exponent: int) -> "CycloScalar":
        """zeta_m^e + zeta_m^-e in C-level passes over ``_power_rows``: two unit
        places, one copy of a power row plus 1 at a unit place, or one
        ``map(add)`` of two power rows."""
        deg = euler_phi(_conductor(conductor))
        low, high = exponent % conductor, -exponent % conductor
        if low > high:
            low, high = high, low
        if high < deg:
            row = [0] * deg
            row[low] += 1
            row[high] += 1
        elif low < deg:
            row = list(_power_rows(conductor)[high - deg])
            row[low] += 1
        else:
            rows = _power_rows(conductor)
            row = list(map(operator.add, rows[low - deg], rows[high - deg]))
        return cls._new(conductor, row)

    @classmethod
    def pair_inverse(cls, conductor: int) -> "CycloScalar":
        """1/(2 - zeta_m - zeta_m^-1) for m >= 2, read off Phi_m at 1.

        Phi_m = (x - 1)^2 Q + a + b(x - 1) with a = Phi_m(1), b = Phi_m'(1):
        two running-sum synthetic divisions by x - 1.  At zeta this gives
        (1 - zeta)^2 Q(zeta) = -(a - b + b zeta), and with
        2 - zeta - zeta^-1 = -(1 - zeta)^2/zeta the inverse is
        u = zeta (Q(zeta)(a + b - b zeta) - b^2)/a^2.  Its place at x^phi is
        -b, so adding b Phi_m, zero in the field, leaves
        u a^2 = (a - b) x Q + b Q + b (a - b), of degree below phi: one pass
        over Q and its shift, with no remainder to take, for every m >= 2
        (Q = 0 when phi = 1).  u is checked before it is returned by the
        polynomial identity (1 - x)^2 u + x = (t1 x + t0) Phi_m, with t1 and
        t0 read off the two top places of the left side: one more pass.
        """
        if _conductor(conductor) < 2:
            raise ZeroInversion("2 - zeta_1 - zeta_1^-1 is zero")
        phi = cyclotomic_polynomial(conductor)
        once = list(itertools.accumulate(reversed(phi)))  # Phi_m/(x - 1), top first, then a
        a = once.pop()
        twice = list(itertools.accumulate(once))  # Q, top first, then b
        b = twice.pop()
        q = twice[::-1] + [0]
        k = a - b
        row = [b * c + k * p for c, p in zip(q, [0] + q)]  # Q (b + (a - b) x)
        row[0] += b * k
        value = cls._new(conductor, row, a * a)
        # the exact check on den ((1 - x)^2 u + x) = row - 2 x row + x^2 row + den x
        row, den = value.row, value.den
        low, mid, high = row + (0, 0), (0,) + row + (0,), (0, den) + row
        t1 = row[-1]
        t0 = low[-2] - 2 * mid[-2] + high[-2] - t1 * phi[-2]
        terms = zip(low, mid, high, (0,) + phi, phi + (0,))
        if any([c - 2 * p + pp - t1 * f - t0 * g for c, p, pp, f, g in terms]):
            raise IdentityFailure(
                f"1/(2 - zeta - zeta^-1) in Q(zeta_{conductor}) fails u*(1 - zeta)^2 = -zeta"
            )
        return value

    def _coerce(self, other: object) -> "CycloScalar":
        if isinstance(other, CycloScalar):
            if other.conductor != self.conductor:
                raise FieldMismatch(
                    f"conductors {self.conductor} and {other.conductor} do not mix"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloScalar.from_rational(other, self.conductor)
        return NotImplemented  # type: ignore[return-value]

    def _plus(self, other: object, sign: int) -> "CycloScalar":
        """self + sign*other over the least common denominator."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)
        row = [a * fa + b * fb for a, b in zip(self.row, other.row)]
        return CycloScalar._new(self.conductor, row, self.den * fa)

    def __add__(self, other: object) -> "CycloScalar":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "CycloScalar":
        return CycloScalar._new(self.conductor, [-a for a in self.row], self.den)

    def __sub__(self, other: object) -> "CycloScalar":
        return self._plus(other, -1)

    def __rsub__(self, other: object) -> "CycloScalar":
        return (-self).__add__(other)

    def __mul__(self, other: object) -> "CycloScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return signed_dot((self,), (other,), (1,))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "CycloScalar":
        """self ** k for any integer k: for k < 0, ``invert`` raised to -k."""
        if exponent == 1:
            return self
        if exponent < 0:
            return self.invert() ** -exponent
        result = CycloScalar.one(self.conductor)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def invert(self) -> "CycloScalar":
        """1/self, or ZeroInversion for zero.

        One call of ``_descent_row``: while 4 | m, through Q(zeta_(m/2)) by
        the norm under zeta -> -zeta down to the first conductor with 4 not
        dividing it, where the Euclid runs, each level below this one read
        from or kept in the bounded cache ``_subfield_inverse`` (this level
        is not: its rows do not repeat); then one exact check s*row = lam
        modulo Phi_m (one product, one ``_reduce``), IdentityFailure
        otherwise, so a wrong cached entry is never returned.  For 4 not
        dividing m, the Euclid on Phi_m runs alone (``_inverse_row``),
        exact by construction, with no product and no check.
        """
        m, row = self.conductor, self.row
        s, lam = _descent_row(m, row)
        if m % 4 == 0:
            check = _product_row(m, row, s)
            if check[0] != lam or any(check[1:]):
                raise IdentityFailure(f"an inverse in Q(zeta_{m}) fails u*z = 1")
        row = [self.den * c for c in s] + [0] * (len(row) - len(s))
        return CycloScalar._new(m, row, lam)

    def _placed(self, conductor: int, k: int) -> "CycloScalar":
        """zeta_m^i -> zeta_M^(i*k mod M) on every place i, reduced mod Phi_M.

        The places stay distinct for a Galois image (M = m, k a unit mod m)
        and for an embedding (k = M/m, so i*k < phi(m)*k <= M).
        """
        poly = [0] * conductor
        for i, c in enumerate(self.row):
            poly[i * k % conductor] = c
        return CycloScalar._new(conductor, _reduce(conductor, poly), self.den)

    def galois(self, j: int) -> "CycloScalar":
        """Image under the automorphism zeta -> zeta^j, gcd(j, m) = 1."""
        m = self.conductor
        if gcd(j, m) != 1:
            raise ValueError(f"{j} is not invertible modulo {m}")
        return self._placed(m, j)

    def embed(self, conductor: int) -> "CycloScalar":
        """Image in Q(zeta_M) for a multiple M of the conductor (zeta_m = zeta_M^(M/m))."""
        m = self.conductor
        if _conductor(conductor) % m != 0:
            raise FieldMismatch(f"{m} does not divide {conductor}")
        return self if conductor == m else self._placed(conductor, conductor // m)

    def is_rational(self) -> bool:
        row = self.row  # rational when every place past the constant is 0
        return row.count(0) + bool(row[0]) == len(row)

    def to_rational(self) -> Fraction | None:
        return Fraction(self.row[0], self.den) if self.is_rational() else None

    def is_zero(self) -> bool:
        return not any(self.row)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycloScalar):
            if other.conductor == self.conductor:
                return self.den == other.den and self.row == other.row
            a, b = self.to_rational(), other.to_rational()
            return a is not None and a == b
        if isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
            return self.is_rational() and self.row[0] * den == num * self.den
        return NotImplemented

    def __hash__(self) -> int:
        value = self.to_rational()
        if value is not None:
            return hash(value)
        return hash((self.conductor, self.den, self.row))

    def __str__(self) -> str:
        """Terms "c*zm^i" in power order, joined by their signs; "0" for zero.
        A term c = +-1 past the constant is read off ``_power_texts``."""
        terms = []
        row, den = self.row, self.den
        plus, minus = _power_texts(self.conductor)
        for i in itertools.compress(range(len(row)), row):
            num = row[i]
            if i and (num == den or num == -den):
                terms.append(plus[i] if num > 0 else minus[i])
                continue
            g = gcd(num, den) if den != 1 else 1  # |num|/den in lowest terms
            c = str(abs(num) // g) if den == g else f"{abs(num) // g}/{den // g}"
            body = f"{c}*{plus[i][2:]}" if i else c
            terms.append(f"- {body}" if num < 0 else f"+ {body}")
        if not terms:
            return "0"
        text = " ".join(terms)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"CycloScalar({self.conductor}, {self.coeffs!r})"


def signed_dot(lefts, rights, signs) -> CycloScalar:
    """The sum of sign*a*b over CycloScalars of one conductor: one integer
    convolution over a common denominator, one remainder modulo Phi_m."""
    m = lefts[0].conductor
    conv = [0] * (2 * len(lefts[0].row) - 1)
    den = 1
    for a, b, sign in zip(lefts, rights, signs):
        if a.conductor != m or b.conductor != m:
            raise FieldMismatch(f"conductors {a.conductor} and {b.conductor} in one sum over {m}")
        term_den = a.den * b.den
        if den % term_den:  # widen the common denominator, rescaling the sum so far
            scale = term_den // gcd(den, term_den)
            conv = [c * scale for c in conv]
            den *= scale
        _convolve(conv, a.row, b.row, sign * (den // term_den))
    return CycloScalar._new(m, _reduce(m, conv), den)


def cyclo_trace(value: CycloScalar) -> Fraction:
    """Trace down to Q: sum of all Galois images, by Ramanujan sums.

    Tr(zeta_m^i) is Ramanujan's sum c_m(i), the sum of g * mu(m/g) over
    the divisors g of gcd(i, m), so the trace is the sum over g | m of
    g * mu(m/g) times the numerators at the multiples of g: one slice sum
    per divisor, as integers over the one denominator, and no
    automorphism image is materialized.
    """
    m, row = value.conductor, value.row
    total = 0
    for g in divisors(m):
        mu = moebius(m // g)
        if mu:
            total += g * mu * sum(row[::g])
    return Fraction(total, value.den)


# ----------------------------------------------------------------------
# the reference order of scalars


def scalar_key(value) -> tuple:
    """Deterministic, totally ordered sort key of a rational or a CycloScalar.

    A rational value, in any field and as a Fraction or int, keys as
    (0, numerator, denominator); any other value as (1, m, c0, d0, c1, d1,
    ...), its coefficients in lowest terms.
    """
    if isinstance(value, (int, Fraction)):
        value = CycloScalar.from_rational(value, 1)
    elif not isinstance(value, CycloScalar):
        raise TypeError(f"not a scalar: {value!a}")
    den, row = value.den, value.row
    if value.is_rational():
        return (0, row[0], den)
    pairs = [1] * (2 * len(row))  # each coefficient c/den in lowest terms
    if den == 1:
        pairs[::2] = row
    else:
        for i, c in enumerate(row):
            g = gcd(c, den)
            pairs[2 * i : 2 * i + 2] = c // g, den // g
    return (1, value.conductor, *pairs)
