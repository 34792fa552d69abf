"""Exact scalar arithmetic: rationals and cyclotomic fields.

Rationals are ``fractions.Fraction``: arbitrary precision, always in
lowest terms, positive denominator.  ``CycloScalar`` represents an element
of Q(zeta_m) as a dense polynomial residue modulo the m-th cyclotomic
polynomial, with coefficients on the power basis 1, zeta, ...,
zeta^(phi(m)-1).  It is the one irrational field type: the real quadratic
fields the exceptional groups need sit inside it, Q(sqrt 2) in Q(zeta_8)
and Q(sqrt 5) in Q(zeta_5).

Phi_m is built as the integer power series prod over d | m of
(1 - x^d)^mu(m/d), cut at degree phi(m).  Every product, zeta power,
Galois image and embedding places its coefficients at their exponents and
is reduced by one remainder modulo Phi_m (``_reduce``), a long division
over the nonzero coefficients of Phi_m only.  Every value is immutable and
hashable.

There are no floating-point code paths here: every operation is exact, and
anything that cannot be represented exactly raises instead of approximating.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import gcd

from .errors import FieldMismatch, ZeroInversion

_ZERO = Fraction(0)
_ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse the wire form "p/q" or "p": ASCII digits, a sign on the
    numerator only, nothing before or after."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


# ----------------------------------------------------------------------
# small number-theoretic helpers


@functools.lru_cache(maxsize=None)
def divisors(m: int) -> tuple[int, ...]:
    """Positive divisors of m, ascending."""
    if m < 1:
        raise ValueError("m must be positive")
    small, large = [], []
    i = 1
    while i * i <= m:
        if m % i == 0:
            small.append(i)
            if i != m // i:
                large.append(m // i)
        i += 1
    return tuple(small + large[::-1])


@functools.lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("m must be positive")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


@functools.lru_cache(maxsize=None)
def moebius(m: int) -> int:
    if m < 1:
        raise ValueError("m must be positive")
    result = 1
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


# ----------------------------------------------------------------------
# cyclotomic polynomials and the one remainder modulo Phi_m


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m (constant term first, monic, degree phi(m)).

    For m > 1, Phi_m is the product over d | m of (1 - x^d)^mu(m/d),
    expanded as an integer power series cut at degree phi(m): a factor with
    mu = 1 is one pass of subtractions, a factor with mu = -1 (the series
    1 + x^d + x^2d + ...) one pass of running sums.  Phi_1 = x - 1.
    """
    if m < 1:
        raise ValueError("m must be positive")
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
    assert poly[-1] == 1  # monic of degree phi(m)
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


def _reduce(m: int, poly: list) -> list:
    """poly modulo Phi_m, in place; returns the phi(m) coefficients.

    poly is dense (index = degree) and at least phi(m) long.  Long division
    by the monic Phi_m visits only its nonzero lower coefficients, with one
    product per distinct coefficient value, and adds nothing of another
    type: integer rows stay ``int``, Fraction rows stay ``Fraction``.
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


# ----------------------------------------------------------------------
# polynomials over Q (dense Fraction lists), only what inversion needs


def _trim(poly: list[Fraction]) -> None:
    while poly and not poly[-1]:
        poly.pop()


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = list(a) + [_ZERO] * (len(b) - len(a))
    for i, bi in enumerate(b):
        if bi:
            out[i] -= bi
    _trim(out)
    return out


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    _trim(out)
    return out


def _divmod_by_monic(
    a: list[Fraction], b: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by a monic b with deg b >= 1."""
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    r = list(a)
    q = [_ZERO] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i]
        if c:
            q[i - db] = c
            for j in range(db):
                if b[j]:
                    r[i - db + j] -= c * b[j]
            r[i] = _ZERO
    rem = r[:db]
    _trim(rem)
    return q, rem


def _invert_mod(z: list[Fraction], phi: tuple[int, ...]) -> list[Fraction]:
    """u with u*z = 1 modulo phi (phi monic irreducible), deg z < deg phi.

    Half-extended Euclid.  Each remainder is rescaled to be monic, which
    keeps the division loop free of coefficient inversions and bounds the
    intermediate growth.
    """
    r1 = list(z)
    _trim(r1)
    if not r1:
        raise ZeroInversion("cannot invert zero")
    if len(r1) == 1:
        return [_ONE / r1[0]]
    inv = _ONE / r1[-1]
    r0 = [Fraction(c) for c in phi]
    r1 = [c * inv for c in r1]
    s0: list[Fraction] = []
    s1: list[Fraction] = [inv]
    while True:
        q, r = _divmod_by_monic(r0, r1)
        s = _poly_sub(s0, _poly_mul(q, s1))
        if not r:
            raise ZeroInversion("element shares a factor with the modulus")
        if len(r) == 1:
            c = r[0]
            return [x / c for x in s]
        inv = _ONE / r[-1]
        r = [c * inv for c in r]
        s = [c * inv for c in s]
        r0, r1, s0, s1 = r1, r, s1, s


# ----------------------------------------------------------------------
# cyclotomic scalars


class CycloScalar:
    """Element of Q(zeta_m), zeta_m = exp(2*pi*i/m), as a residue mod Phi_m.

    ``coeffs`` has length phi(m) on the power basis.  Arithmetic between two
    CycloScalars requires equal conductors (FieldMismatch otherwise);
    rational constants coerce.  Change of field is explicit via ``embed``.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: tuple[Fraction, ...]):
        deg = len(cyclotomic_polynomial(conductor)) - 1
        if len(coeffs) != deg:
            raise ValueError(
                f"conductor {conductor} needs {deg} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CycloScalar is immutable")

    @classmethod
    def _make(cls, conductor: int, coeffs: list[Fraction]) -> "CycloScalar":
        self = object.__new__(cls)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        return self

    @classmethod
    def from_rational(cls, value: Fraction | int, conductor: int) -> "CycloScalar":
        deg = len(cyclotomic_polynomial(conductor)) - 1
        return cls._make(conductor, [Fraction(value)] + [_ZERO] * (deg - 1))

    @classmethod
    def zero(cls, conductor: int) -> "CycloScalar":
        return cls.from_rational(0, conductor)

    @classmethod
    def one(cls, conductor: int) -> "CycloScalar":
        return cls.from_rational(1, conductor)

    @classmethod
    def _from_monomials(cls, conductor: int, exponents: tuple[int, ...]) -> "CycloScalar":
        """Sum of zeta_m^e over the exponents (each reduced mod m, then mod Phi_m).

        The row is reduced as integers; equal coefficients then share one
        Fraction object, so the value holds phi(m) references to a handful
        of Fractions.
        """
        exponents = [e % conductor for e in exponents]
        poly = [0] * max(len(cyclotomic_polynomial(conductor)) - 1, max(exponents) + 1)
        for e in exponents:
            poly[e] += 1
        ints = _reduce(conductor, poly)
        shared = {c: Fraction(c) for c in set(ints)}
        return cls._make(conductor, [shared[c] for c in ints])

    @classmethod
    def zeta_pow(cls, conductor: int, exponent: int = 1) -> "CycloScalar":
        """zeta_m raised to any integer exponent."""
        return cls._from_monomials(conductor, (exponent,))

    @classmethod
    def zeta_pair_sum(cls, conductor: int, exponent: int) -> "CycloScalar":
        """zeta_m^e + zeta_m^-e, reduced as one integer row."""
        return cls._from_monomials(conductor, (exponent, -exponent))

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

    def __add__(self, other: object) -> "CycloScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloScalar._make(
            self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self) -> "CycloScalar":
        return CycloScalar._make(self.conductor, [-a for a in self.coeffs])

    def __sub__(self, other: object) -> "CycloScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloScalar._make(
            self.conductor, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __rsub__(self, other: object) -> "CycloScalar":
        return (-self).__add__(other)

    def __mul__(self, other: object) -> "CycloScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        conv = [_ZERO] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return CycloScalar._make(self.conductor, _reduce(self.conductor, conv))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "CycloScalar":
        if exponent < 0:
            return self.invert() ** (-exponent)
        result = CycloScalar.one(self.conductor)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def invert(self) -> "CycloScalar":
        phi = cyclotomic_polynomial(self.conductor)
        inv = _invert_mod(list(self.coeffs), phi)
        inv += [_ZERO] * (len(self.coeffs) - len(inv))
        return CycloScalar._make(self.conductor, inv)

    def galois(self, j: int) -> "CycloScalar":
        """Image under the automorphism zeta -> zeta^j, gcd(j, m) = 1."""
        m = self.conductor
        j %= m
        if gcd(j, m) != 1:
            raise ValueError(f"{j} is not invertible modulo {m}")
        poly = [_ZERO] * m
        for i, c in enumerate(self.coeffs):
            poly[(i * j) % m] = c  # distinct places: j is a unit mod m
        return CycloScalar._make(m, _reduce(m, poly))

    def embed(self, conductor: int) -> "CycloScalar":
        """Image in Q(zeta_M) for a multiple M of the conductor (zeta_m = zeta_M^(M/m))."""
        m = self.conductor
        if conductor % m != 0:
            raise FieldMismatch(f"{m} does not divide {conductor}")
        if conductor == m:
            return self
        step = conductor // m
        poly = [_ZERO] * conductor
        for i, c in enumerate(self.coeffs):
            poly[i * step] = c
        return CycloScalar._make(conductor, _reduce(conductor, poly))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def to_rational(self) -> Fraction | None:
        return self.coeffs[0] if self.is_rational() else None

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycloScalar):
            if other.conductor == self.conductor:
                return self.coeffs == other.coeffs
            a, b = self.to_rational(), other.to_rational()
            return a is not None and a == b
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.conductor, self.coeffs))

    def __str__(self) -> str:
        m = self.conductor
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
                continue
            sym = f"z{m}" if i == 1 else f"z{m}^{i}"
            if c == 1:
                term = sym
            elif c == -1:
                term = f"-{sym}"
            else:
                term = f"{c}*{sym}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"CycloScalar({self.conductor}, {self.coeffs!r})"


def cyclo_trace(value: CycloScalar) -> Fraction:
    """Trace down to Q: sum of all Galois images, computed coefficientwise.

    Uses Tr(zeta_m^i) = mu(e) * phi(m)/phi(e) with e = m/gcd(i, m), so no
    automorphism images are materialized.
    """
    m = value.conductor
    deg = len(value.coeffs)
    total = _ZERO
    for i, c in enumerate(value.coeffs):
        if c:
            e = m // gcd(i, m)
            phi_e = euler_phi(e)
            assert deg % phi_e == 0
            total += c * moebius(e) * (deg // phi_e)
    return total


# ----------------------------------------------------------------------
# helpers shared by the group/contribution layers

def canonical_scalar(value):
    """Collapse a scalar to the smallest field that contains it.

    A CycloScalar with a rational value becomes a plain Fraction; anything
    already rational or genuinely irrational is returned unchanged.
    """
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, CycloScalar):
        q = value.to_rational()
        return q if q is not None else value
    return value


def scalar_key(value) -> tuple:
    """Deterministic, totally ordered sort key across all scalar kinds."""
    value = canonical_scalar(value)
    if isinstance(value, Fraction):
        return (0, value.numerator, value.denominator)
    if isinstance(value, CycloScalar):
        return (1, value.conductor) + tuple(
            part for c in value.coeffs for part in (c.numerator, c.denominator)
        )
    raise TypeError(f"not a scalar: {value!r}")


def scalar_str(value) -> str:
    return str(canonical_scalar(value))
