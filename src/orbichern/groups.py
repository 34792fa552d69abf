"""Finite subgroups of SU(2): unit quaternions and presented words.

Every component and every trace is a ``scalars.CycloScalar``; Q is
Q(zeta_1).  Two exact element representations coexist:

``Quaternion``
    x + y*i + z*j + w*k with components in one field: Q = Q(zeta_1)
    (binary tetrahedral), Q(sqrt 2) inside Q(zeta_8) (binary octahedral)
    or Q(sqrt 5) inside Q(zeta_5) (binary icosahedral).  A unit
    quaternion embeds in SU(2) as [[x+y*i, z+w*i], [-z+w*i, x-y*i]], so
    its matrix trace is 2x and its determinant is the quaternion norm.
    Each component of a product is one fused ``scalars.signed_dot``.
    Components and traces print and sort as a + b*sqrt(d), a rational
    one as the rational itself.

``Word``
    Normal form a^exp or x*a^exp with a = diag(zeta_p, zeta_p^-1) of
    period p and x = [[0, 1], [-1, 0]], so x^2 = a^(p/2) and
    x^-1 a x = a^-1.  A_(n-1), the cyclic group <a | a^n>, is the words
    a^exp of period n; D_(n+2), the binary dihedral (dicyclic) group
    <a, x | a^(2n) = 1, x^2 = a^n, x^-1 a x = a^-1>, is every word of
    period 2n.  Traces land in Q(zeta_p) and print on its power basis.

Every element answers ``rotation()``: the pair (d, j), j <= d/2, of its
eigenvalues zeta_d^(+-j), so its trace is zeta_d^j + zeta_d^-j and d is
its order.  Two elements share the label exactly when their traces are
equal, and the trace is rational exactly when phi(d) <= 2.  One rule,
``_rotation_label``, turns zeta_m^(+-e) into (d, j) for both kinds of
element: one gcd and two divisions.  A word reads its label off its
exponent in a per-period table, ``_word_labels``, which holds that
rule's label for every exponent and is built once per period: no field
element is built for a word, and its label is computed once per period,
not on each ask.  A quaternion finds its label by matching its trace in
Q(zeta_m) against the pair sums of one field, Q(zeta_M) with
M = lcm(12, 2m), once per distinct trace.  Every element is asked for
its label in the class partition (a representative for its class, every
other member for trace constancy) and again for the element sum in ``contributions``.  The
partition keeps each class's label on its record,
``ConjugacyClass.rotation``, which ``contributions._class_rows`` and the
``group`` command read.  The trace-2 check reads one label per class: the one
class with d = 1 must be {identity}.  A dense trace is built once per
label, not per class, for the class table's text and order; classes with
equal labels (a^e and a^-e) share it.  A word's dense trace in Q(zeta_p)
is ``CycloScalar.zeta_pair_sum``, rational or not, and 0 for a flip
x*a^k: a copy or a sum of zeta-power rows built once per conductor.  A
trace sorts as ``scalar_key`` orders it: a rational value as (0, num,
den), an irrational word trace as its integer row, (1, m, row), which
orders exactly as (1, m, c0, 1, c1, 1, ...).  Those keys are built and
sorted once per distinct label, and the classes are sorted on (size, the
rank of their label's key), two small integers: two classes share a
trace exactly when they share a label.  ``Word(...)`` validates
every field; the elements of an A or D group, and products and inverses
of words, are built by ``Word._word`` as one tuple that reuses the
period of a validated word and skips the checks.

Elements, classes and reports are ``namedtuple`` records: immutable,
hashed and compared in C.  A word or quaternion refuses the tuple's
``+`` and integer ``*``, so only the group product combines elements.
``FiniteSubgroup`` is a slotted class instead, so that a caller can hold
a group by weak reference.

Everything is immutable; groups are finite sets of hashable elements.
Conjugacy classes are computed by a plain orbit partition under
conjugation by the generators, and centralizer orders come from the
orbit-stabilizer relation.  The partition walks the elements in
``element_key`` order, so each orbit is first met at its least member,
which is its representative.  The A and D words are listed in that
order and the E coordinates sorted once, so no group is sorted twice.
``conjugated_by`` reads a word's conjugate off the two normal forms in
one step; a quaternion keeps x and turns (y, z, w) by the generator's
3x3 rotation matrix, built once per walk.

``build_ade_group`` is an ``lru_cache`` of one group: the one it built
last, so a CLI command, each ``table`` row or any loop over labels holds
one A or D group at a time.  The three E groups are listed from explicit
coordinates, the Hurwitz units and the icosians, with no quaternion
product; they sit in a cache of their own and are built once per process.
One coordinate block, ``_exceptional_parts``, gives both an E group's
elements and the generators its orbit walk conjugates by, from one set of
values.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm, prod

from .ade import AdeLabel, resolution_data
from .errors import BoundExceeded, IdentityFailure, TraceTwoNonIdentity
from .scalars import CycloScalar, cyclo_trace, signed_dot


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
        raise IdentityFailure(f"{value} is not in Q(sqrt{d})")
    return d, a, b


def _rotation_label(m: int, e: int) -> tuple[int, int]:
    """(d, j) of the pair zeta_m^(+-e): d = m/g and j = min(e/g, d - e/g),
    g = gcd(e, m), so zeta_m^e + zeta_m^-e = zeta_d^j + zeta_d^-j, j <= d/2."""
    g = gcd(e, m)
    d, j = m // g, e // g
    return d, min(j, d - j)


@functools.lru_cache(maxsize=1)
def _word_labels(period: int) -> tuple:
    """``_rotation_label(period, e)`` for e = 0 .. period - 1, kept for one
    period at a time."""
    return tuple(_rotation_label(period, e) for e in range(period))


@functools.lru_cache(maxsize=None)
def _trace_rotation(t: CycloScalar) -> tuple[int, int]:
    """(d, j), j <= d/2, with zeta_d^j + zeta_d^-j == t.

    t in Q(zeta_m) is searched in one field, Q(zeta_M) with
    M = lcm(12, 2m).  A rational rotation trace has d in {1, 2, 3, 4, 6},
    which divides 12.  An irrational t generates Q(zeta_d)^+, whose
    conductor is d, or d/2 when d is 2 mod 4, so d divides 2m.  The match
    zeta_M^e + zeta_M^-e is labelled by ``_rotation_label(M, e)``.
    """
    m = lcm(12, 2 * t.conductor)
    t = t.embed(m)
    for e in range(m // 2 + 1):
        if CycloScalar.zeta_pair_sum(m, e) == t:
            return _rotation_label(m, e)
    raise IdentityFailure(f"{t} is not the trace of an element of finite order in SU(2)")


def _no_tuple_arithmetic(self, other):
    raise TypeError(f"{type(self).__name__} supports only the group product")


class Quaternion(namedtuple("Quaternion", "x y z w")):
    """Exact quaternion x + y*i + z*j + w*k, its components CycloScalars of
    one conductor: 1 (Q), 8 (Q(sqrt 2)) or 5 (Q(sqrt 5))."""

    __slots__ = ()
    __add__ = __radd__ = __rmul__ = _no_tuple_arithmetic

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        """Each component one fused sum of products."""
        a, b, c, d = self.x, self.y, self.z, self.w
        p, q, r, s = other.x, other.y, other.z, other.w
        return Quaternion(
            signed_dot((a, b, c, d), (p, q, r, s), (1, -1, -1, -1)),
            signed_dot((a, b, c, d), (q, p, s, r), (1, 1, 1, -1)),
            signed_dot((a, b, c, d), (r, s, p, q), (1, -1, 1, 1)),
            signed_dot((a, b, c, d), (s, r, q, p), (1, 1, -1, 1)),
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.x, -self.y, -self.z, -self.w)

    def conjugated_by(self, g: "Quaternion", rows: tuple) -> "Quaternion":
        """g * self * g^-1 given ``rows = g.rotation_matrix()``: x is kept and
        (y, z, w) turned by the matrix, three fused sums of three products."""
        v = self[1:]
        return tuple.__new__(Quaternion, (self.x, *(signed_dot(row, v, (1, 1, 1)) for row in rows)))

    def rotation_matrix(self) -> tuple:
        """Rows of the 3x3 matrix by which v -> self * v * self^-1 turns the
        pure part (y, z, w) of v; each entry one fused sum."""
        self.inverse()  # raises unless self is a unit
        a, b, c, d = self
        square = lambda *signs: signed_dot(self, self, (1, *signs))  # a^2 +- b^2 +- c^2 +- d^2
        pair = lambda p, q, r, s, sign: signed_dot((p, r), (q, s), (2, 2 * sign))  # 2(pq +- rs)
        return (
            (square(1, -1, -1), pair(b, c, a, d, -1), pair(b, d, a, c, 1)),
            (pair(b, c, a, d, 1), square(-1, 1, -1), pair(c, d, a, b, -1)),
            (pair(b, d, a, c, -1), pair(c, d, a, b, 1), square(-1, -1, 1)),
        )

    def norm(self):
        return self.x * self.x + self.y * self.y + self.z * self.z + self.w * self.w

    def inverse(self) -> "Quaternion":
        """The conjugate; every element of a finite SU(2) subgroup is a unit."""
        if self.norm() != 1:
            raise IdentityFailure(f"{self} is not a unit quaternion")
        return self.conjugate()

    def trace(self) -> CycloScalar:
        return self.x + self.x

    def rotation(self) -> tuple[int, int]:
        """(d, j) with trace zeta_d^j + zeta_d^-j, d the order, j <= d/2."""
        return _trace_rotation(self.trace())

    def is_identity(self) -> bool:
        return self.x == 1 and self.y == 0 and self.z == 0 and self.w == 0

    def identity(self) -> "Quaternion":
        zero = self.x * 0
        return Quaternion(zero + 1, zero, zero, zero)

    @staticmethod
    def value_key(value: CycloScalar) -> tuple:
        """Sort key of a component or trace: rationals as (0, num, den), then
        (1, d, a, b) for a + b*sqrt(d)."""
        if value.is_rational():
            return (0, value.row[0], value.den)
        d, a, b = _quadratic_parts(value)
        return (1, d, a.numerator, a.denominator, b.numerator, b.denominator)

    @staticmethod
    def value_str(value: CycloScalar) -> str:
        """A component or trace as "a + b*sqrtd", "b*sqrtd" or "a"."""
        if value.is_rational():
            return str(value)
        d, a, b = _quadratic_parts(value)
        term = f"sqrt{d}" if abs(b) == 1 else f"{abs(b)}*sqrt{d}"
        if not a:
            return term if b > 0 else f"-{term}"
        return f"{a} {'+' if b > 0 else '-'} {term}"

    def __str__(self) -> str:
        x, y, z, w = (self.value_str(c) for c in self)
        return f"({x}) + ({y})i + ({z})j + ({w})k"


class Word(namedtuple("Word", "period flip exp")):
    """a^exp (flip False) or x*a^exp (flip True), with a of order period and
    x^2 = a^(period/2); a flip needs an even period."""

    __slots__ = ()
    __add__ = __radd__ = __rmul__ = _no_tuple_arithmetic
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace runs __new__ too

    def __new__(cls, period: int, flip: bool, exp: int) -> "Word":
        if isinstance(period, bool) or not isinstance(period, int) or period < 1:
            raise ValueError(f"period must be a positive integer, got {period!a}")
        if not isinstance(flip, bool) or flip and period % 2:
            raise ValueError(f"flip must be a bool, and True only for an even period, got {flip!a}")
        if isinstance(exp, bool) or not isinstance(exp, int):
            raise ValueError(f"exp must be an integer, got {exp!a}")
        return tuple.__new__(cls, (period, flip, exp % period))

    def _check(self, other: "Word") -> None:
        if self.period != other.period:
            raise ValueError("words of different periods do not multiply")

    def _word(self, flip: bool, exp: int) -> "Word":
        """A word of this period: the period is copied, not validated again."""
        return tuple.__new__(Word, (self.period, flip, exp % self.period))

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
        # (x a^i)(x a^j) = x^2 a^(j-i) = a^(period/2+j-i)
        return self._word(False, self.period // 2 + other.exp - self.exp)

    def conjugated_by(self, g: "Word", _rows) -> "Word":
        """g * self * g^-1 off the normal forms: a^i sends x*a^k to x*a^(k-2i), x*a^i
        sends a^k to a^-k and x*a^k to x*a^(2i-k); a word it fixes comes back as is.
        The second argument, a quaternion's rotation matrix, has no use here."""
        period = self.period
        if period != g.period:
            raise ValueError("words of different periods do not multiply")
        if g.flip:
            exp = 2 * g.exp - self.exp if self.flip else -self.exp
        elif self.flip:
            exp = self.exp - 2 * g.exp
        else:
            return self
        return tuple.__new__(Word, (period, self.flip, exp % period))

    def inverse(self) -> "Word":
        if not self.flip:
            return self._word(False, -self.exp)
        # (x a^i)^-1 = a^-i x^-1 = a^-i x a^(period/2) = x a^(i+period/2)
        return self._word(True, self.exp + self.period // 2)

    def rotation(self) -> tuple[int, int]:
        """(d, j) with trace zeta_d^j + zeta_d^-j, d the order, j = min(j, d - j).

        A flip x*a^k has trace 0 = zeta_4 + zeta_4^-1, so it gets (4, 1);
        a^k reads its label off the table of its period, ``_word_labels``.
        """
        return (4, 1) if self.flip else _word_labels(self.period)[self.exp]

    def trace(self) -> CycloScalar:
        """zeta^exp + zeta^-exp in Q(zeta_period); 0 for a flip x*a^k."""
        if self.flip:
            return CycloScalar.zero(self.period)
        return CycloScalar.zeta_pair_sum(self.period, self.exp)

    def is_identity(self) -> bool:
        return not self.flip and self.exp == 0

    def identity(self) -> "Word":
        return self._word(False, 0)

    @staticmethod
    def value_key(value: CycloScalar) -> tuple:
        """Sort key of a trace, as ``scalar_key`` orders it: a rational as
        (0, num, den), and an irrational pair sum, an integer row, as
        (1, m, row), which orders as (1, m, c0, 1, c1, 1, ...)."""
        if value.is_rational():
            return (0, value.row[0], value.den)
        return (1, value.conductor, value.row)

    value_str = staticmethod(str)

    def __str__(self) -> str:
        if self.is_identity():
            return "1"
        power = "" if self.exp == 1 else f"^{self.exp}"
        body = f"a{power}" if self.exp else ""
        if self.flip:
            return f"x{'*' + body if body else ''}"
        return body


GroupElement = Quaternion | Word


def element_key(element: GroupElement) -> tuple:
    """Deterministic sort key usable across one group's elements."""
    if isinstance(element, Word):
        return (0, *element)
    return (1,) + tuple(part for c in element for part in element.value_key(c))


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


class ConjugacyClass(
    namedtuple("ConjugacyClass", "representative size centralizer_order trace rotation")
):
    """A class record; ``rotation`` is its label (d, j), read once in the orbit walk."""

    __slots__ = ()

    def trace_str(self) -> str:
        return self.representative.value_str(self.trace)


class FiniteSubgroup:
    """A built group: its label (or None), order, ``element_key``-sorted
    elements, sorted classes and generators.  Immutable, compared and
    hashed by identity, and weakly referenceable, so a caller can watch a
    cached group being let go."""

    __slots__ = ("label", "order", "elements", "classes", "generators", "__weakref__")

    def __init__(self, label: AdeLabel | None, order: int, elements, classes, generators):
        for name, value in zip(self.__slots__, (label, order, elements, classes, generators)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError("FiniteSubgroup is immutable")

    __delattr__ = __setattr__


def conjugacy_classes(
    elements: Iterable[GroupElement], generators: Iterable[GroupElement]
) -> tuple:
    """Orbit partition of a group's elements under conjugation by generators.

    The generators must generate the group.  Classes come back sorted by
    (size, trace, representative), the representative being the
    ``element_key``-least member of its class, and each class's
    centralizer order is derived from orbit-stabilizer; both the class
    equation and trace constancy along each orbit (by ``rotation()``) are
    verified, and the one orbit of trace 2 must be the identity's.  The
    trace and its sort key are built once per label, and classes with
    equal labels share that one trace object.
    """
    return _classes_of_sorted(sorted(elements, key=element_key), generators)


def _classes_of_sorted(members, generators) -> tuple:
    """``conjugacy_classes`` of members already sorted by ``element_key``.

    Walking the members in that order meets each orbit first at its least
    member, which becomes the representative, and classes are appended in
    representative order.  The trace and its sort key are built once per
    distinct label and the keys ranked once; a stable sort on (size, rank
    of the label) then finishes the class order, which is the (size,
    trace) order, since two classes share a trace exactly when they share
    a label.  An orbit whose label has d = 1 (trace 2) must be
    {identity}, or TraceTwoNonIdentity is raised, and there must be
    exactly one.  Each class record keeps its representative's label.  A
    quaternion generator's rotation matrix is built once per walk.  An
    orbit larger than the group raises IdentityFailure at once: some
    conjugate left the group, and its orbit need not close.
    """
    order = len(members)
    gens = [(g, g.rotation_matrix() if isinstance(g, Quaternion) else None) for g in generators]
    seen: set = set()
    traces: dict = {}  # rotation label -> trace
    records = []
    covered = identities = 0
    for rep in members:
        if rep in seen:
            continue
        orbit = {rep}  # one set per orbit: overlapping orbits break the class equation
        queue = [rep]
        while queue:
            e = queue.pop()
            for g, rows in gens:
                conj = e.conjugated_by(g, rows)
                if conj is not e and conj not in orbit:  # a word g fixes comes back as is
                    orbit.add(conj)
                    queue.append(conj)
            if len(orbit) > order:  # a conjugate left the group; stop before the orbit runs away
                raise IdentityFailure("an orbit outgrew the group")
        seen |= orbit
        size = len(orbit)
        covered += size
        if order % size != 0:
            raise IdentityFailure("orbit size does not divide the group order")
        label = rep.rotation()
        for e in orbit:
            if e is not rep and e.rotation() != label:
                raise IdentityFailure("trace is not constant on a conjugacy class")
        if label[0] == 1:  # trace 2: only the identity, a class of its own
            if not rep.is_identity():
                raise TraceTwoNonIdentity(f"non-identity element {rep} has trace 2")
            identities += 1
        t = traces.get(label)
        if t is None:
            t = traces[label] = rep.trace()
        records.append(tuple.__new__(ConjugacyClass, (rep, size, order // size, t, label)))
    if covered != order:
        raise IdentityFailure("class sizes do not sum to the group order")
    if identities != 1:
        raise IdentityFailure("group does not contain exactly one identity")
    value_key = members[0].value_key
    ranked = sorted(traces, key=lambda label: value_key(traces[label]))
    rank = dict(zip(ranked, range(len(ranked))))
    # stable: ties stay in representative order
    records.sort(key=lambda c: (c.size, rank[c.rotation]))
    return tuple(records)


def _finite_subgroup(
    members: Iterable[GroupElement],
    generators: Iterable[GroupElement],
    label: AdeLabel | None = None,
) -> FiniteSubgroup:
    """A group from its members, already in ``element_key`` order, and its generators."""
    members = tuple(members)
    gens = tuple(generators)
    return FiniteSubgroup(label, len(members), members, _classes_of_sorted(members, gens), gens)


_PERMUTATIONS = tuple(itertools.permutations(range(4)))
# even: the product of p[j] - p[i] over i < j, the permutation's sign, is positive
_EVEN = tuple(p for p in _PERMUTATIONS if prod(b - a for a, b in itertools.combinations(p, 2)) > 0)


def _signed_arrangements(values, pattern, perms=_PERMUTATIONS) -> list:
    """Every quaternion (values[pattern[p[0]]], ..., values[pattern[p[3]]])
    for p in perms, each distinct arrangement once, under every choice of
    signs on its nonzero places; values[0] is 0."""
    elements = []
    for places in {tuple(pattern[i] for i in p) for p in perms}:
        choices = [(values[v], -values[v]) if v else (values[v],) for v in places]
        elements += map(Quaternion._make, itertools.product(*choices))
    return elements


def _exceptional_parts(parameter: int) -> tuple[list, tuple]:
    """The elements of E6, E7 or E8 from explicit coordinates (Conway &
    Smith, *On Quaternions and Octonions*, 2003, ch. 3), and the generators
    the orbit walk conjugates by, both from one set of values.

    E6 is the 24 Hurwitz units +-1, +-i, +-j, +-k and (+-1 +-i +-j +-k)/2,
    generated by i and omega = (1 + i + j + k)/2.  E7 adds the 24 units
    (+-e +-e')/sqrt2 for two of e, e' in {1, i, j, k}, and the generator
    (1 + i)/sqrt2.  E8 adds the even permutations of (0, +-1, +-1/phi,
    +-phi)/2, the ones that hold psi = (1/phi + i + phi*j)/2, and is
    generated by omega and psi.
    """
    conductor = {6: 1, 7: 8, 8: 5}[parameter]
    zero, one, half = (CycloScalar.from_rational(v, conductor) for v in (0, 1, Fraction(1, 2)))
    i, omega = Quaternion(zero, one, zero, zero), Quaternion(half, half, half, half)
    elements = _signed_arrangements((zero, one), (1, 0, 0, 0))
    elements += _signed_arrangements((zero, half), (1, 1, 1, 1))
    if parameter == 6:
        return elements, (i, omega)
    if parameter == 7:
        s = _quadratic(8, 0, Fraction(1, 2))  # sqrt2/2
        elements += _signed_arrangements((zero, s), (1, 1, 0, 0))
        return elements, (i, omega, Quaternion(s, s, zero, zero))
    quarter = Fraction(1, 4)  # 1/(2 phi) = (sqrt5 - 1)/4 and phi/2 = (sqrt5 + 1)/4
    golden = (zero, half, _quadratic(5, -quarter, quarter), _quadratic(5, quarter, quarter))
    elements += _signed_arrangements(golden, (0, 1, 2, 3), _EVEN)
    return elements, (omega, Quaternion(golden[2], half, golden[3], zero))


@functools.cache
def _exceptional_group(label: AdeLabel) -> FiniteSubgroup:
    """E6, E7 or E8 from its explicit elements and generators; cached for good."""
    members, gens = _exceptional_parts(label.parameter)
    return _finite_subgroup(sorted(members, key=element_key), gens, label)


@functools.lru_cache(maxsize=1)
def build_ade_group(label: AdeLabel) -> FiniteSubgroup:
    """Construct the finite subgroup of SU(2) named by an ADE label.

    Type A and D groups are enumerated directly from their normal forms
    in one branch: A_(n-1) is the words a^k of period n, generated by a,
    and D_(n+2) the words a^k and x*a^k of period 2n, generated by a and
    x, listed in ``element_key`` order.  Each element is copied from the
    validated generator's period (the closure of the same generators
    agrees; tests verify).  The E groups are listed from explicit
    coordinates by ``_exceptional_parts`` and sorted once (again,
    tests verify the closure).  The order of every returned group
    is checked against the catalog.

    The group built last is cached, so a build followed by its report
    builds once, and a process that asks for many labels holds one A or D
    group at a time, whose dense class traces grow as n squared.  The
    three E groups are small, fixed and the costliest to build, so
    ``_exceptional_group`` keeps them for good: ``cache_clear()`` leaves
    them cached, and ``build_ade_group.__wrapped__`` skips only the A/D
    cache.
    """
    if label.kind == "E":
        group = _exceptional_group(label)
    else:
        n = label.parameter
        flips = (False, True) if label.kind == "D" else (False,)
        period = len(flips) * n
        gens = tuple(Word(period, flip, 0 if flip else 1) for flip in flips)
        elements = [gens[0]._word(flip, k) for flip in flips for k in range(period)]
        group = _finite_subgroup(elements, gens, label)
    expected = resolution_data(label).group_order
    if group.order != expected:
        raise IdentityFailure(
            f"{label} built with order {group.order}, catalog says {expected}"
        )
    return group
