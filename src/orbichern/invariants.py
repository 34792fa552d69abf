"""Orbifold Chern numbers c1^2 and c2, and the 3c2 >= c1^2 verdict.

Two kinds of surface description are supported, mirroring the two ways an
orbifold surface is usually presented:

* an SNC pair: a smooth coarse surface with a simple-normal-crossing
  fractional boundary sum of (1 - 1/r_i) D_i, described purely by
  intersection numbers;
* a surface with isolated ADE quotient points, described by chi(O_X),
  c1^2 of the pulled-back canonical class, and the list of point labels.

c2 always means the orbifold Euler characteristic (Gauss-Bonnet); for the
isolated-point case it is computed from the Riemann-Roch identity
c2 = 12 chi(O) - c1^2 - sum over points of (chi(E_i) - 1/|G_i|), whose
per-point terms are twelve times the Todd contributions of the
``contributions`` module (tested to agree exactly).

Each of c1^2, the orbifold Euler number and c2 is the list of its
(numerator, denominator) terms, summed by the one exact-sum routine
``_exact_sum``: one integer over the lcm of the denominators, with one
``Fraction`` built at the end.  ``codim2_equivalence_check`` keeps its
second route on plain ``Fraction`` arithmetic, as an independent
restatement.  ``point_term`` is cached per label, so a process scores
each distinct point type once.

Each description record's field names and types are written once, as the
keyword arguments of its ``_schema`` base, a namedtuple of those fields.  A
type is ``int`` (an int that is not a bool), ``bool``, ``Fraction`` (a
``Fraction``, an int that is not a bool or a wire-form text "p/q" or "p",
read by ``parse_rational``, the grammar's one home, which ``cli`` imports
for ``check``'s reader and ``orbichern`` exports; never a float) or
``(cls,)``, a list or tuple of ``cls`` instances (``AdeLabel`` or a
record) kept as a tuple; a str, dict, set or iterator is
refused there, not taken apart.  ``_Record.__new__``, and so ``_make`` and
``_replace``, checks each value against the schema, with the field's name in
any DescriptionError, and hands the typed values to the record's ``_typed``,
which runs the range checks and builds the record.  The ``cli`` reader
derives its field readers from the same schema, checks the type of every
value it reads itself, with the file's path in the message, and builds
records through ``_typed``, so ``check`` tests each value's type once.

Whether the inequality applies at all depends on the canonical class
being nef, which no formula here can see; it is a user-asserted flag and
verdicts report NotApplicable when it is absent.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .ade import AdeLabel, resolution_data
from .errors import DescriptionError, quoted

_F0 = Fraction(0)


def _integer(value, name: str) -> int:
    """``value`` if it is an int and not a bool, else DescriptionError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DescriptionError(f"{name} must be an integer, got {quoted(value)}")
    return value


def _flag(value) -> bool:
    """``canonical_nef_asserted`` if it is a bool: a truthy string asserts nothing."""
    if not isinstance(value, bool):
        raise DescriptionError(f"canonical_nef_asserted must be a bool, got {quoted(value)}")
    return value


_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _wire_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's digit limit, worded differently by version
        raise ValueError(f"rational literal has too many digits ({len(digits.lstrip('-'))})") from None


def parse_rational(text: str) -> Fraction:
    """The wire form of a rational, "p/q" or "p" (ASCII digits, a sign on the
    numerator only, nothing before or after), as a Fraction; ValueError for
    any other text.  The one home of that grammar: ``_rational`` reads it
    here, ``cli`` imports it for ``check``'s reader, and ``orbichern``
    exports it from here."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {quoted(text)}")
    num, _, den = text.partition("/")
    if not den:
        return Fraction(_wire_int(num))
    q = _wire_int(den)
    if q == 0:
        raise ValueError(f"zero denominator: {quoted(text)}")
    return Fraction(_wire_int(num), q)


def _rational(value, name: str) -> Fraction:
    """A ``Fraction``, an int that is not a bool, or a wire-form text (``parse_rational``), as a Fraction."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    try:
        return parse_rational(value)
    except ValueError:
        raise DescriptionError(f"{name} must be a rational, got {quoted(value)}") from None


def _checked(kind, value, name: str):
    """``value`` checked against one schema type: int, bool, Fraction, or a
    one-item tuple ``(cls,)`` for a list or tuple of ``cls`` instances."""
    if kind is int:
        return _integer(value, name)
    if kind is bool:
        return _flag(value)
    if kind is Fraction:
        return _rational(value, name)
    if not isinstance(value, (list, tuple)):  # a str, dict, set or iterator is refused, not taken apart
        raise DescriptionError(f"{name} must be a list or a tuple, got {quoted(value)}")
    for index, item in enumerate(value):
        if not isinstance(item, kind[0]):
            raise DescriptionError(f"{name}[{index}] must be {kind[0].__name__}, got {quoted(item)}")
    return tuple(value)


def _schema(name: str, **types):
    """The namedtuple base of a description record: one field per entry of
    ``types``, in order, ``types`` itself as the record's ``_schema``, and the
    namedtuple's own constructor as the ``_typed`` of a record without range checks."""
    base = namedtuple(name, types)
    base._schema = types
    base._typed = classmethod(base.__new__)
    return base


class _Record:
    """The constructor of a description record (a ``_Record`` and a ``_schema``
    base): it checks each value against the schema and hands the typed values
    to ``_typed``, whose range checks build the record.  ``_typed`` takes the
    values by name and in schema order, as ``cli``'s reader passes them too."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace runs __new__ too

    def __new__(cls, *args, **kwargs):
        bound = super().__new__(cls, *args, **kwargs)  # the namedtuple's argument binding
        return cls._typed(**{
            name: _checked(kind, value, name) for (name, kind), value in zip(cls._schema.items(), bound)
        })


class Verdict(str, enum.Enum):
    HOLDS = "Holds"
    HOLDS_WITH_EQUALITY = "HoldsWithEquality"
    FAILS = "Fails"
    NOT_APPLICABLE = "NotApplicable"

    def __str__(self) -> str:  # render the bare value, not Verdict.X
        return self.value


class DivisorEntry(
    _Record, _schema("DivisorEntry", ramification=int, chi_divisor=int, k_dot=Fraction, self_int=Fraction)
):
    """One boundary curve: ramification r >= 2 and its intersection data."""

    __slots__ = ()

    @classmethod
    def _typed(cls, **values):
        if values["ramification"] < 2:
            raise DescriptionError("ramification must be >= 2")
        return tuple.__new__(cls, values.values())


class Crossing(_Record, _schema("Crossing", i=int, j=int, count=int)):
    """count transverse intersection points of divisors i and j (i < j)."""

    __slots__ = ()

    @classmethod
    def _typed(cls, **values):
        if not 0 <= values["i"] < values["j"]:
            raise DescriptionError("crossing indices must satisfy 0 <= i < j")
        if values["count"] < 0:
            raise DescriptionError("crossing count must be >= 0")
        return tuple.__new__(cls, values.values())


class SncPairDescription(
    _Record,
    _schema(
        "SncPairDescription", chi_coarse=int, k_squared=Fraction, divisors=(DivisorEntry,),
        crossings=(Crossing,), canonical_nef_asserted=bool,
    ),
):
    __slots__ = ()

    @classmethod
    def _typed(cls, **values):
        for crossing in values["crossings"]:
            if crossing.j >= len(values["divisors"]):
                raise DescriptionError(f"crossing ({crossing.i}, {crossing.j}) names a missing divisor")
        return tuple.__new__(cls, values.values())


class IsolatedPointsDescription(
    _Record,
    _schema(
        "IsolatedPointsDescription", chi_structure_sheaf=int, c1_squared=Fraction, points=(AdeLabel,),
        canonical_nef_asserted=bool,
    ),
):
    __slots__ = ()


class InvariantReport(
    namedtuple("InvariantReport", "c1_squared c2 margin verdict per_point notes")
):
    __slots__ = ()


def _exact_sum(terms: list) -> Fraction:
    """Sum of (numerator, denominator) terms, denominators positive, as one
    integer over the lcm of the denominators, with one Fraction at the end."""
    den = lcm(*[d for _, d in terms])
    return Fraction(sum([n * (den // d) for n, d in terms]), den)


def pair_c1_squared(desc: SncPairDescription) -> Fraction:
    """(K + sum a_i D_i)^2 with a_i = (r_i - 1)/r_i, from intersection numbers."""
    divisors, k_squared = desc.divisors, desc.k_squared
    terms = [(k_squared.numerator, k_squared.denominator)]
    for entry in divisors:
        r, k_dot, self_int = entry.ramification, entry.k_dot, entry.self_int
        terms.append((2 * (r - 1) * k_dot.numerator, r * k_dot.denominator))
        terms.append(((r - 1) ** 2 * self_int.numerator, r * r * self_int.denominator))
    for crossing in desc.crossings:
        r_i = divisors[crossing.i].ramification
        r_j = divisors[crossing.j].ramification
        terms.append((2 * crossing.count * (r_i - 1) * (r_j - 1), r_i * r_j))
    return _exact_sum(terms)


def pair_orbifold_euler(desc: SncPairDescription) -> Fraction:
    """Orbifold Euler characteristic of the pair.

    Each open boundary curve D_i minus its crossing points loses weight
    1 - 1/r_i, and each transverse crossing counts 1/(r_i r_j) instead
    of 1.  Gathered per curve and per crossing, that is
    chi - sum (1 - 1/r_i) chi(D_i) + sum count (1 - 1/r_i)(1 - 1/r_j).
    chi(D_i deprived of crossings) may well be <= 0; that is not an error.
    """
    divisors = desc.divisors
    terms = [(desc.chi_coarse, 1)]
    terms += [((1 - e.ramification) * e.chi_divisor, e.ramification) for e in divisors]
    for crossing in desc.crossings:
        r_i = divisors[crossing.i].ramification
        r_j = divisors[crossing.j].ramification
        terms.append((crossing.count * (r_i - 1) * (r_j - 1), r_i * r_j))
    return _exact_sum(terms)


@lru_cache
def point_term(label: AdeLabel) -> Fraction:
    """chi(E) - 1/|G| for one ADE point (twelve times its Todd contribution)."""
    return resolution_data(label).point_term


def codim2_c2(desc: IsolatedPointsDescription) -> Fraction:
    """c2 = 12 chi(O) - c1^2 - sum of per-point terms."""
    return _c2_from_terms(desc, [point_term(label) for label in desc.points])


def _c2_from_terms(desc: IsolatedPointsDescription, terms: list) -> Fraction:
    c1_squared = desc.c1_squared
    return _exact_sum(
        [(12 * desc.chi_structure_sheaf, 1), (-c1_squared.numerator, c1_squared.denominator)]
        + [(-term.numerator, term.denominator) for term in terms]
    )


def bmy_verdict(
    c1_squared: Fraction, c2: Fraction, nef_asserted: bool, per_point: tuple = (), notes: str = ""
) -> InvariantReport:
    """Margin 3c2 - c1^2 and its verdict (NotApplicable unless nef is asserted)."""
    margin = 3 * c2 - c1_squared
    if not nef_asserted:
        verdict = Verdict.NOT_APPLICABLE
    elif margin > 0:
        verdict = Verdict.HOLDS
    elif margin == 0:
        verdict = Verdict.HOLDS_WITH_EQUALITY
    else:
        verdict = Verdict.FAILS
    return InvariantReport(c1_squared, c2, margin, verdict, per_point, notes)


def snc_report(desc: SncPairDescription) -> InvariantReport:
    return bmy_verdict(
        pair_c1_squared(desc), pair_orbifold_euler(desc), desc.canonical_nef_asserted,
        notes="c2 is the orbifold Euler characteristic (Gauss-Bonnet identification)",
    )


def isolated_points_report(desc: IsolatedPointsDescription) -> InvariantReport:
    terms = [point_term(label) for label in desc.points]
    return bmy_verdict(
        desc.c1_squared, _c2_from_terms(desc, terms), desc.canonical_nef_asserted,
        per_point=tuple(zip(desc.points, terms)),
        notes="c2 from 12*chi(O) - c1^2 - sum of point terms",
    )


def codim2_equivalence_check(desc: IsolatedPointsDescription) -> bool:
    """Compare 3c2 >= c1^2 with its chi(O) restatement; they must agree.

    Route one computes c2 and tests 3c2 - c1^2 >= 0.  Route two tests
    12 chi(O) >= (4/3) c1^2 + sum of point terms directly.  Returns True
    iff both give the same truth value (algebraically they always do;
    this is the property fuzz tests pin down).
    """
    route_one = 3 * codim2_c2(desc) - desc.c1_squared >= 0
    rhs = Fraction(4, 3) * desc.c1_squared + sum(
        (point_term(label) for label in desc.points), _F0
    )
    route_two = 12 * Fraction(desc.chi_structure_sheaf) >= rhs
    return route_one == route_two


def gerbe_scale(report: InvariantReport, gerbe_order: int) -> InvariantReport:
    """Scale every integral by 1/gerbe_order (a trivially-stabilized cover).

    Positive scaling preserves the margin's sign, so the verdict is
    copied unchanged.
    """
    if _integer(gerbe_order, "gerbe_order") < 1:
        raise DescriptionError("gerbe_order must be >= 1")
    if gerbe_order == 1:
        return report
    scale = Fraction(1, gerbe_order)
    return report._replace(
        c1_squared=report.c1_squared * scale,
        c2=report.c2 * scale,
        margin=report.margin * scale,
        per_point=tuple((label, term * scale) for label, term in report.per_point),
    )
