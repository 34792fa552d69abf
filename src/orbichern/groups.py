"""Finite subgroups of SU(2): unit quaternions and presented words.

Two exact element representations coexist:

``Quaternion``
    x + y*i + z*j + w*k with components all Fraction (binary tetrahedral)
    or all CycloScalar in one real quadratic field: Q(sqrt 2) inside
    Q(zeta_8) (binary octahedral) or Q(sqrt 5) inside Q(zeta_5) (binary
    icosahedral).  A unit quaternion embeds in SU(2) as
    [[x+y*i, z+w*i], [-z+w*i, x-y*i]], so its matrix trace is 2x and its
    determinant is the quaternion norm.  Components and traces print and
    sort as a + b*sqrt(d).

``Word``
    Normal form a^e or x*a^e in the cyclic group <a | a^n> or the binary
    dihedral (dicyclic) group <a, x | a^(2n) = 1, x^2 = a^n,
    x^-1 a x = a^-1>, with a acting as the rotation diag(zeta_2n,
    zeta_2n^-1) and x as [[0, 1], [-1, 0]].  Traces land in Q(zeta_2n)
    and print on its power basis.

Every element answers ``rotation()``: the pair (d, j), j <= d/2, of its
eigenvalues zeta_d^(+-j), so its trace is zeta_d^j + zeta_d^-j and d is
its order.  Two elements share the label exactly when their traces are
equal.  A word reads its label off its exponent, so no field element is
built for it, and computes it once.  A quaternion finds its label by
matching its trace against the pair sums of one cyclotomic field, once
per distinct trace.  The per-element loops (trace constancy on each
conjugacy class, the trace-2 check, and the element sum in
``contributions``) read labels and ``rational_trace()`` only.  A dense
trace is built once per label, not per class, for the class table's
text and order; classes with equal labels (a^e and a^-e) share it.  A
word's dense trace in Q(zeta_2n) is ``CycloScalar.zeta_pair_sum``: a
copy or a sum of zeta-power rows built once per conductor.  Its sort
key is its integer row, (1, m, row), which orders exactly as
``scalar_key``'s (1, m, c0, 1, c1, 1, ...).  The elements of an A or D
group, and products and inverses of words, copy their presentation and
skip re-validation; ``Word(...)`` itself validates every field.

Everything is immutable; groups are finite sets of hashable elements.
Conjugacy classes are computed by a plain orbit partition under
conjugation by the generators, and centralizer orders come from the
orbit-stabilizer relation.  The partition walks the elements in
``element_key`` order, so each orbit is first met at its least member,
which is its representative.  ``conjugated_by`` reads a word's conjugate
off the two normal forms in one step, and a quaternion product over
CycloScalars builds each component as one fused ``scalars.signed_dot``.

``build_ade_group`` holds the group it built last, and holds a group for
good only when its label is asked for again after another label was
built.  A CLI command and each ``table`` row ask for a label once, so
such a process holds one group at a time instead of every group it ever
built; loops that revisit labels keep their cache hits.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .ade import AdeLabel, resolution_data
from .errors import BoundExceeded, TraceTwoNonIdentity
from .scalars import CycloScalar, canonical_scalar, cyclo_trace, scalar_key, scalar_str, signed_dot

_F0 = Fraction(0)
_F1 = Fraction(1)

# zeta_d^j + zeta_d^-j for the five rotation orders d where it is rational
_RATIONAL_TRACES = {1: Fraction(2), 2: Fraction(-2), 3: Fraction(-1), 4: _F0, 6: _F1}


@functools.lru_cache(maxsize=None)
def _square_root(conductor: int) -> tuple[int, CycloScalar]:
    """(d, sqrt(d)) for the real quadratic subfield of Q(zeta_m), m in {5, 8}."""
    zeta = functools.partial(CycloScalar.zeta_pow, conductor)
    if conductor == 8:
        return 2, zeta(1) - zeta(3)
    if conductor == 5:
        return 5, 1 + 2 * (zeta(1) + zeta(4))
    raise ValueError(f"no real quadratic field is set up in Q(zeta_{conductor})")


def _quadratic(conductor: int, base, coeff=0) -> CycloScalar:
    """base + coeff*sqrt(d) as an element of Q(zeta_m)."""
    return base + coeff * _square_root(conductor)[1]


@functools.lru_cache(maxsize=None)
def _quadratic_parts(value: CycloScalar) -> tuple[int, Fraction, Fraction]:
    """(d, a, b) with value = a + b*sqrt(d).

    Tr(sqrt d) = 0, so Tr(value) = phi*a and Tr(value*sqrt d) = phi*d*b.
    """
    d, root = _square_root(value.conductor)
    phi = len(value.row)
    a = cyclo_trace(value) / phi
    b = cyclo_trace(value * root) / (d * phi)
    if a + b * root != value:
        raise ArithmeticError(f"{value} is not in Q(sqrt{d})")
    return d, a, b


@functools.lru_cache(maxsize=None)
def _trace_rotation(t) -> tuple[int, int]:
    """(d, j), j <= d/2, with zeta_d^j + zeta_d^-j == t.

    A rational t is searched in Q(zeta_12), which holds all five rational
    rotation traces.  An irrational t in Q(zeta_m) is searched in
    Q(zeta_M), M = lcm(2, m): it generates Q(zeta_d)^+, whose conductor
    is d, or d/2 when d is 2 mod 4, so d divides M.  The match zeta_M^e + zeta_M^-e reduces
    to d = M/g, j = e/g with g = gcd(e, M).
    """
    if isinstance(t, Fraction):
        m = 12
    else:
        m = lcm(2, t.conductor)
        t = t.embed(m)
    for e in range(m // 2 + 1):
        if CycloScalar.zeta_pair_sum(m, e) == t:
            g = gcd(e, m)
            return m // g, e // g
    raise ArithmeticError(f"{t} is not the trace of an element of finite order in SU(2)")


@dataclass(frozen=True)
class Quaternion:
    """Exact quaternion x + y*i + z*j + w*k over Q or Q(sqrt(d))."""

    x: object
    y: object
    z: object
    w: object

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a, b, c, d = self.x, self.y, self.z, self.w
        p, q, r, s = other.x, other.y, other.z, other.w
        if isinstance(a, CycloScalar):  # each component one fused sum of products
            return Quaternion(
                signed_dot((a, b, c, d), (p, q, r, s), (1, -1, -1, -1)),
                signed_dot((a, b, c, d), (q, p, s, r), (1, 1, 1, -1)),
                signed_dot((a, b, c, d), (r, s, p, q), (1, -1, 1, 1)),
                signed_dot((a, b, c, d), (s, r, q, p), (1, 1, -1, 1)),
            )
        return Quaternion(
            a * p - b * q - c * r - d * s,
            a * q + b * p + c * s - d * r,
            a * r - b * s + c * p + d * q,
            a * s + b * r - c * q + d * p,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.x, -self.y, -self.z, -self.w)

    def conjugated_by(self, g: "Quaternion", g_inv: "Quaternion") -> "Quaternion":
        return g * self * g_inv

    def norm(self):
        return self.x * self.x + self.y * self.y + self.z * self.z + self.w * self.w

    def inverse(self) -> "Quaternion":
        """The conjugate; every element of a finite SU(2) subgroup is a unit."""
        if self.norm() != 1:
            raise ArithmeticError(f"{self} is not a unit quaternion")
        return self.conjugate()

    def trace(self):
        return canonical_scalar(self.x + self.x)

    def rotation(self) -> tuple[int, int]:
        """(d, j) with trace zeta_d^j + zeta_d^-j, d the order, j <= d/2."""
        return _trace_rotation(self.trace())

    def rational_trace(self) -> Fraction | None:
        t = self.trace()
        return t if isinstance(t, Fraction) else None

    def is_identity(self) -> bool:
        return self.x == 1 and self.y == 0 and self.z == 0 and self.w == 0

    def identity(self) -> "Quaternion":
        zero = self.x * 0
        return Quaternion(zero + 1, zero, zero, zero)

    @staticmethod
    def value_key(value) -> tuple:
        """Sort key of a component or trace: rationals, then (d, a, b)."""
        value = canonical_scalar(value)
        if isinstance(value, Fraction):
            return scalar_key(value)
        d, a, b = _quadratic_parts(value)
        return (1, d, a.numerator, a.denominator, b.numerator, b.denominator)

    @staticmethod
    def value_str(value) -> str:
        """A component or trace as "a + b*sqrtd", "b*sqrtd" or "a"."""
        value = canonical_scalar(value)
        if isinstance(value, Fraction):
            return str(value)
        d, a, b = _quadratic_parts(value)
        term = f"sqrt{d}" if abs(b) == 1 else f"{abs(b)}*sqrt{d}"
        if not a:
            return term if b > 0 else f"-{term}"
        return f"{a} {'+' if b > 0 else '-'} {term}"

    def __str__(self) -> str:
        x, y, z, w = (self.value_str(c) for c in (self.x, self.y, self.z, self.w))
        return f"({x}) + ({y})i + ({z})j + ({w})k"


@dataclass(frozen=True)
class Word:
    """Normal form a^exp (flip False) or x*a^exp (flip True)."""

    family: str
    n: int
    flip: bool
    exp: int

    _rotation = None  # not a field: rotation() sets it once per word

    def __post_init__(self) -> None:
        if self.family not in ("cyclic", "dicyclic"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.family == "cyclic" and self.flip:
            raise ValueError("cyclic words have no x letter")
        object.__setattr__(self, "exp", self.exp % self._period())

    def _period(self) -> int:
        return self.n if self.family == "cyclic" else 2 * self.n

    def _check(self, other: "Word") -> None:
        if self.family != other.family or self.n != other.n:
            raise ValueError("words from different presentations do not multiply")

    def _word(self, flip: bool, exp: int) -> "Word":
        """A word of this presentation: family and n are copied, not validated again."""
        word = object.__new__(Word)
        set_field = object.__setattr__
        set_field(word, "family", self.family)
        set_field(word, "n", self.n)
        set_field(word, "flip", flip)
        set_field(word, "exp", exp % self._period())
        return word

    def __mul__(self, other: "Word") -> "Word":
        self._check(other)
        if not self.flip and not other.flip:
            return self._word(False, self.exp + other.exp)
        if not self.flip and other.flip:
            # a^i * (x a^j) = x a^(j-i)
            return self._word(True, other.exp - self.exp)
        if self.flip and not other.flip:
            # (x a^i) * a^j = x a^(i+j)
            return self._word(True, self.exp + other.exp)
        # (x a^i)(x a^j) = x^2 a^(j-i) = a^(n+j-i)
        return self._word(False, self.n + other.exp - self.exp)

    def conjugated_by(self, g: "Word", g_inv: "Word") -> "Word":
        """g * self * g^-1 off the normal forms: a^i sends x*a^k to x*a^(k-2i), x*a^i
        sends a^k to a^-k and x*a^k to x*a^(2i-k); a word it fixes comes back as is."""
        self._check(g)
        if g.flip:
            return self._word(self.flip, 2 * g.exp - self.exp if self.flip else -self.exp)
        if self.flip:
            return self._word(True, self.exp - 2 * g.exp)
        return self

    def inverse(self) -> "Word":
        if not self.flip:
            return self._word(False, -self.exp)
        # (x a^i)^-1 = a^-i x a^-n ... = x a^(i+n)
        return self._word(True, self.exp + self.n)

    def rotation(self) -> tuple[int, int]:
        """(d, j) with trace zeta_d^j + zeta_d^-j, d the order, j = min(j, d - j).

        A flip x*a^k has trace 0 = zeta_4 + zeta_4^-1, so it gets (4, 1).
        Computed once per word.
        """
        rotation = self._rotation
        if rotation is None:
            if self.flip:
                rotation = 4, 1
            else:
                m = self._period()
                g = gcd(self.exp, m)
                d, j = m // g, self.exp // g
                rotation = d, min(j, d - j)
            object.__setattr__(self, "_rotation", rotation)
        return rotation

    def rational_trace(self) -> Fraction | None:
        return _RATIONAL_TRACES.get(self.rotation()[0])

    def trace(self):
        """The trace in Q(zeta_period), a Fraction when it is rational."""
        rational = self.rational_trace()
        if rational is not None:
            return rational
        return CycloScalar.zeta_pair_sum(self._period(), self.exp)

    def is_identity(self) -> bool:
        return not self.flip and self.exp == 0

    def identity(self) -> "Word":
        return Word(self.family, self.n, False, 0)

    @staticmethod
    def value_key(value) -> tuple:
        """Sort key of a trace: an integer row, as every pair sum is, keys as
        (1, m, row), which orders exactly as ``scalar_key``'s (1, m, c0, 1, c1,
        1, ...); any other value falls back to ``scalar_key``."""
        if isinstance(value, CycloScalar) and value.den == 1 and not value.is_rational():
            return (1, value.conductor, value.row)
        return scalar_key(value)

    value_str = staticmethod(scalar_str)

    def __str__(self) -> str:
        if self.is_identity():
            return "1"
        power = "" if self.exp == 1 else f"^{self.exp}"
        body = f"a{power}" if self.exp else ""
        if self.flip:
            return f"x{'*' + body if body else ''}"
        return body


GroupElement = Union[Quaternion, Word]


def element_key(element: GroupElement) -> tuple:
    """Deterministic sort key usable across one group's elements."""
    if isinstance(element, Word):
        return (0, element.family, element.n, element.flip, element.exp)
    return (1,) + tuple(
        part
        for c in (element.x, element.y, element.z, element.w)
        for part in element.value_key(c)
    )


def generate_group(
    generators: Iterable[GroupElement], bound: int = 10000
) -> frozenset:
    """Multiplicative closure of the generators (breadth-first).

    Finite subgroups are closed under products alone, so no inverses are
    taken.  Raises BoundExceeded as soon as the closure grows past
    ``bound`` elements.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    identity = gens[0].identity()
    elements = {identity}
    frontier = [identity]
    while frontier:
        new: list[GroupElement] = []
        for g in frontier:
            for h in gens:
                product = g * h
                if product not in elements:
                    elements.add(product)
                    new.append(product)
                    if len(elements) > bound:
                        raise BoundExceeded(
                            f"closure exceeded {bound} elements"
                        )
        frontier = new
    return frozenset(elements)


@dataclass(frozen=True)
class ConjugacyClass:
    representative: GroupElement
    size: int
    centralizer_order: int
    trace: object

    def trace_str(self) -> str:
        return self.representative.value_str(self.trace)


@dataclass(frozen=True)
class FiniteSubgroup:
    label: AdeLabel | None
    order: int
    elements: tuple
    classes: tuple
    generators: tuple


def conjugacy_classes(
    elements: Iterable[GroupElement], generators: Iterable[GroupElement]
) -> tuple:
    """Orbit partition of a group's elements under conjugation by generators.

    The generators must generate the group.  Classes come back sorted by
    (size, trace, representative), the representative being the
    ``element_key``-least member of its class, and each class's
    centralizer order is derived from orbit-stabilizer; both the class
    equation and trace constancy along each orbit (by ``rotation()``) are
    verified.  The trace and its sort key are built once per label, and
    classes with equal labels share that one trace object.
    """
    return _classes_of_sorted(sorted(elements, key=element_key), generators)


def _classes_of_sorted(members, generators) -> tuple:
    """``conjugacy_classes`` of members already sorted by ``element_key``.

    Walking the members in that order meets each orbit first at its least
    member, which becomes the representative, and classes are appended in
    representative order, so a stable sort on (size, trace key) finishes
    the class order.
    """
    order = len(members)
    gen_pairs = [(g, g.inverse()) for g in generators]
    seen: set = set()
    traces: dict = {}  # rotation label -> (trace, its sort key)
    keyed = []
    covered = 0
    for rep in members:
        if rep in seen:
            continue
        orbit = {rep}  # one set per orbit: overlapping orbits break the class equation
        queue = [rep]
        while queue:
            e = queue.pop()
            for g, g_inv in gen_pairs:
                conj = e.conjugated_by(g, g_inv)
                if conj is not e and conj not in orbit:  # a word g fixes comes back as is
                    orbit.add(conj)
                    queue.append(conj)
        seen |= orbit
        size = len(orbit)
        covered += size
        if order % size != 0:
            raise ArithmeticError("orbit size does not divide the group order")
        label = rep.rotation()
        for e in orbit:
            if e is not rep and e.rotation() != label:
                raise ArithmeticError("trace is not constant on a conjugacy class")
        entry = traces.get(label)
        if entry is None:
            t = rep.trace()
            entry = traces[label] = t, rep.value_key(t)
        t, t_key = entry
        keyed.append(((size, t_key), ConjugacyClass(rep, size, order // size, t)))
    if covered != order:
        raise ArithmeticError("class sizes do not sum to the group order")
    keyed.sort(key=operator.itemgetter(0))  # stable: ties stay in representative order
    return tuple(c for _, c in keyed)


def _finite_subgroup(
    elements: Iterable[GroupElement],
    generators: Iterable[GroupElement],
    label: AdeLabel | None = None,
) -> FiniteSubgroup:
    members = tuple(sorted(elements, key=element_key))
    gens = tuple(generators)
    classes = _classes_of_sorted(members, gens)
    identity_count = 0
    for g in members:
        if g.rational_trace() == 2:
            if not g.is_identity():
                raise TraceTwoNonIdentity(f"non-identity element {g} has trace 2")
            identity_count += 1
    if identity_count != 1:
        raise ArithmeticError("group does not contain exactly one identity")
    return FiniteSubgroup(label, len(members), members, classes, gens)


def _binary_tetrahedral_generators() -> tuple:
    half = Fraction(1, 2)
    i = Quaternion(_F0, _F1, _F0, _F0)
    omega = Quaternion(half, half, half, half)
    return (i, omega)


def _binary_octahedral_generators() -> tuple:
    lift = functools.partial(_quadratic, 8)

    i = Quaternion(lift(0), lift(1), lift(0), lift(0))
    omega = Quaternion(*(lift(Fraction(1, 2)) for _ in range(4)))
    # (1 + i) / sqrt(2) = sqrt(2)/2 * (1 + i)
    s = lift(0, Fraction(1, 2))
    extra = Quaternion(s, s, lift(0), lift(0))
    return (i, omega, extra)


def _binary_icosahedral_generators() -> tuple:
    lift = functools.partial(_quadratic, 5)

    omega = Quaternion(*(lift(Fraction(1, 2)) for _ in range(4)))
    # (1/phi + i + phi*j) / 2 with phi the golden ratio
    psi = Quaternion(
        lift(Fraction(-1, 4), Fraction(1, 4)),
        lift(Fraction(1, 2)),
        lift(Fraction(1, 4), Fraction(1, 4)),
        lift(0),
    )
    return (omega, psi)


def _kept_when_asked_again(build):
    """``build`` cached as ``build_ade_group`` describes; labels asked for
    once are remembered as labels only.  ``cache_clear()`` forgets all."""
    asked: set = set()
    kept: dict = {}
    last = [None, None]  # the label built last and its group

    @functools.wraps(build)
    def cached(label: AdeLabel) -> FiniteSubgroup:
        if label == last[0]:
            return last[1]
        group = kept.get(label)
        if group is None:
            group = build(label)
            if label in asked:
                kept[label] = group
            else:
                asked.add(label)
            last[:] = label, group
        return group

    def cache_clear() -> None:
        asked.clear()
        kept.clear()
        last[:] = None, None

    cached.cache_clear = cache_clear
    return cached


@_kept_when_asked_again
def build_ade_group(label: AdeLabel) -> FiniteSubgroup:
    """Construct the finite subgroup of SU(2) named by an ADE label.

    Type A and D groups are enumerated directly from their normal forms,
    each element copied from the validated generator's presentation (the
    closure of the same generators agrees; tests verify).  The E
    groups are closed from explicit quaternion generators, and the
    resulting order is checked against the catalog.

    The result is cached for callers that come back to a label: the group
    built last is held, and a label asked for again after another label
    was built is held for good from that second build on.  A CLI command,
    a ``table`` row or a benchmark round asks for each label once, so it
    holds one group at a time rather than every group it built, whose
    dense class traces grow as n squared.  Loops that revisit
    labels, as the tests do, keep their cache hits for one extra build
    per label.  ``build_ade_group.__wrapped__`` is the uncached build.
    """
    n = label.parameter
    if label.kind == "A":
        gens = (Word("cyclic", n, False, 1 if n > 1 else 0),)
        elements = [gens[0]._word(False, k) for k in range(n)]
        group = _finite_subgroup(elements, gens, label)
    elif label.kind == "D":
        gens = (Word("dicyclic", n, False, 1), Word("dicyclic", n, True, 0))
        elements = [gens[0]._word(flip, k) for flip in (False, True) for k in range(2 * n)]
        group = _finite_subgroup(elements, gens, label)
    else:
        gens = {
            6: _binary_tetrahedral_generators,
            7: _binary_octahedral_generators,
            8: _binary_icosahedral_generators,
        }[n]()
        group = _finite_subgroup(generate_group(gens), gens, label)
    expected = resolution_data(label).group_order
    if group.order != expected:
        raise ArithmeticError(
            f"{label} built with order {group.order}, catalog says {expected}"
        )
    return group
