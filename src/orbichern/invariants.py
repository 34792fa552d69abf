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

Each description record checks its fields' types in ``__new__`` (an
integer field takes an int that is not a bool, ``canonical_nef_asserted``
only a bool) and hands the typed values to its ``_typed``, which runs the
range checks and builds the record.  The ``cli`` schema reader checks the
type of every value it reads itself, with the file's path in the message,
and builds records through ``_typed``, so ``check`` tests each value's
type once.

Whether the inequality applies at all depends on the canonical class
being nef, which no formula here can see; it is a user-asserted flag and
verdicts report NotApplicable when it is absent.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .ade import AdeLabel, resolution_data
from .errors import DescriptionError

_F0 = Fraction(0)


def _fraction(value) -> Fraction:
    """``Fraction(value)``, without re-wrapping a value that already is one."""
    return value if type(value) is Fraction else Fraction(value)


def _integer(value, name: str) -> int:
    """``value`` if it is an int and not a bool, else DescriptionError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DescriptionError(f"{name} must be an integer, got {value!a}")
    return value


def _flag(value) -> bool:
    """``canonical_nef_asserted`` if it is a bool: a truthy string asserts nothing."""
    if not isinstance(value, bool):
        raise DescriptionError(f"canonical_nef_asserted must be a bool, got {value!a}")
    return value


class Verdict(str, enum.Enum):
    HOLDS = "Holds"
    HOLDS_WITH_EQUALITY = "HoldsWithEquality"
    FAILS = "Fails"
    NOT_APPLICABLE = "NotApplicable"

    def __str__(self) -> str:  # render the bare value, not Verdict.X
        return self.value


class DivisorEntry(namedtuple("DivisorEntry", "ramification chi_divisor k_dot self_int")):
    """One boundary curve: ramification r >= 2 and its intersection data."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace runs __new__ too

    def __new__(cls, ramification: int, chi_divisor: int, k_dot, self_int) -> "DivisorEntry":
        return cls._typed(
            _integer(ramification, "ramification"), _integer(chi_divisor, "chi_divisor"),
            _fraction(k_dot), _fraction(self_int),
        )

    @classmethod
    def _typed(cls, ramification, chi_divisor, k_dot, self_int):
        if ramification < 2:
            raise DescriptionError("ramification must be >= 2")
        return tuple.__new__(cls, (ramification, chi_divisor, k_dot, self_int))


class Crossing(namedtuple("Crossing", "i j count")):
    """count transverse intersection points of divisors i and j (i < j)."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace runs __new__ too

    def __new__(cls, i: int, j: int, count: int) -> "Crossing":
        return cls._typed(_integer(i, "i"), _integer(j, "j"), _integer(count, "count"))

    @classmethod
    def _typed(cls, i, j, count):
        if i < 0 or j < 0 or i >= j:
            raise DescriptionError("crossing indices must satisfy 0 <= i < j")
        if count < 0:
            raise DescriptionError("crossing count must be >= 0")
        return tuple.__new__(cls, (i, j, count))


class SncPairDescription(
    namedtuple(
        "SncPairDescription", "chi_coarse k_squared divisors crossings canonical_nef_asserted"
    )
):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace runs __new__ too

    def __new__(
        cls, chi_coarse: int, k_squared, divisors, crossings, canonical_nef_asserted: bool
    ) -> "SncPairDescription":
        return cls._typed(
            _integer(chi_coarse, "chi_coarse"), _fraction(k_squared), tuple(divisors),
            tuple(crossings), _flag(canonical_nef_asserted),
        )

    @classmethod
    def _typed(cls, chi_coarse, k_squared, divisors, crossings, canonical_nef_asserted):
        for crossing in crossings:
            if crossing.j >= len(divisors):
                raise DescriptionError(
                    f"crossing ({crossing.i}, {crossing.j}) names a missing divisor"
                )
        return tuple.__new__(cls, (chi_coarse, k_squared, divisors, crossings, canonical_nef_asserted))


class IsolatedPointsDescription(
    namedtuple(
        "IsolatedPointsDescription", "chi_structure_sheaf c1_squared points canonical_nef_asserted"
    )
):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace runs __new__ too

    def __new__(
        cls, chi_structure_sheaf: int, c1_squared, points, canonical_nef_asserted: bool
    ) -> "IsolatedPointsDescription":
        chi = _integer(chi_structure_sheaf, "chi_structure_sheaf")
        nef = _flag(canonical_nef_asserted)
        return cls._typed(chi, _fraction(c1_squared), tuple(points), nef)

    @classmethod
    def _typed(cls, chi_structure_sheaf, c1_squared, points, canonical_nef_asserted):
        return tuple.__new__(cls, (chi_structure_sheaf, c1_squared, points, canonical_nef_asserted))


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
