"""Exact twisted-sector contribution of an ADE singularity.

For a finite subgroup G of SU(2) acting on C^2, each nontrivial conjugacy
class [g] contributes 1/(|C(g)| * (2 - tr g)) and the total equals
(chi(E) - 1/|G|)/12 where chi(E) is the Euler number of the exceptional
fiber of the minimal resolution.  Three routes to the same number live
here and are kept separate on purpose:

* ``class_sum_contribution``: brute force over conjugacy classes, weights
  from centralizer orders.
* ``element_sum_contribution``: brute force over raw elements with
  multiplicity, weight 1/|G| (validates the conjugacy bookkeeping).
* ``closed_form_contribution``: the catalog formula (chi - 1/|G|)/12.

Every term is summed over a Galois orbit, where the terms collapse to a
rational by one rule.  Every element, word or quaternion, carries the
label ``rotation() == (d, j)`` from ``groups``: its trace is
zeta_d^j + zeta_d^-j; a class record holds its representative's as
``rotation``, read once in the orbit walk.  Elements are bucketed by d,
and a bucket of N equally weighted terms whose j's cover the residues
j <= d/2 prime to d with uniform multiplicity sums to N * S(d) / phi(d)
(``_orbit_sum``).  A rational trace, phi(d) <= 2, is an orbit that
holds one label, so it takes the same rule.  Here S(d) is the sum over
primitive residues j mod d of 1/(2 - zeta_d^j - zeta_d^-j), evaluated
as the field trace of ``conjugate_pair_inverse(d)`` and cached per
order.  That inverse is read off Phi_d at 1 (``CycloScalar.pair_inverse``),
not found by a Euclid, and checked exactly by u (1 - zeta)^2 = -zeta; it
serves every group and every identity check, and no Galois image of a
trace is computed here.
Both rotation-sum identities are one divisor sum of S(d)
(``_divisor_orbit_sum``): type A over d | n, d >= 2, scaled by 1/n, and
the half angle over d | 2n, d >= 3, scaled by 1/2.
"""

from __future__ import annotations

import functools
from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd

from .ade import AdeLabel, resolution_data
from .errors import IdentityFailure, NonRationalTotal, TraceTwoNonIdentity
# ``scalars`` before ``groups``: ``cli`` loads both through this module, and
# compiling ``groups`` first raises a benchmark worker's peak RSS
from .scalars import CycloScalar, cyclo_trace, divisors, euler_phi
from .groups import FiniteSubgroup, Word, build_ade_group

_F0 = Fraction(0)


@functools.lru_cache(maxsize=64)
def conjugate_pair_inverse(d: int) -> CycloScalar:
    """1/(2 - zeta_d - zeta_d^(-1)) as an element of Q(zeta_d), d >= 2,
    read off Phi_d at 1 and checked by u*(1 - zeta_d)^2 = -zeta_d.

    The cache holds the 64 orders asked last, more than any one identity
    with n <= 2000 asks for (46 at n = 1980, the divisors d >= 3 of 2n);
    ``primitive_orbit_sum`` keeps each order's S(d), so no inverse is
    computed twice for it."""
    if d < 2:
        raise ValueError("need d >= 2 so that the denominator is nonzero")
    return CycloScalar.pair_inverse(d)


@functools.lru_cache(maxsize=None)
def primitive_orbit_sum(d: int) -> Fraction:
    """S(d) = sum over 1 <= j < d, gcd(j, d) = 1, of 1/(2 - zeta_d^j - zeta_d^-j).

    Equal to the field trace of ``conjugate_pair_inverse(d)`` because the
    Galois group permutes the summands simply transitively.
    """
    return cyclo_trace(conjugate_pair_inverse(d))


def closed_form_contribution(label: AdeLabel) -> Fraction:
    """(chi(E) - 1/|G|)/12 from the resolution catalog."""
    return resolution_data(label).point_term / 12


# ----------------------------------------------------------------------
# Galois orbits of traces


@functools.lru_cache(maxsize=64)
def _half_residues(d: int) -> frozenset:
    """The residues 1 <= j <= d/2 prime to d: one label (d, j) per Galois
    conjugate pair.  Kept for the 64 orders asked last."""
    return frozenset(j for j in range(1, d // 2 + 1) if gcd(j, d) == 1)


def _orbit_sum(d: int, points: list) -> Fraction:
    """Sum of the terms 1/(2 - zeta_d^j - zeta_d^-j) over a bucket of labels (d, j).

    The bucket is Galois-stable when its j's cover the residues j <= d/2
    prime to d (``_half_residues``) with uniform multiplicity; then its N
    terms sum to N * S(d) / phi(d).  A rational trace (phi(d) <= 2) is an
    orbit of one label.  Any other bucket raises NonRationalTotal, and a
    bucket of order 1, trace 2, raises TraceTwoNonIdentity.
    """
    if d == 1:
        raise TraceTwoNonIdentity(f"{len(points)} non-identity elements have trace 2")
    counts = Counter(points)
    if counts.keys() != _half_residues(d) or len(set(counts.values())) != 1:
        raise NonRationalTotal(f"traces did not cover a Galois orbit in Q(zeta_{d}) uniformly")
    return len(points) * primitive_orbit_sum(d) / euler_phi(d)


# ----------------------------------------------------------------------
# brute force over conjugacy classes


def _orbit_description(d: int, classes: list, centralizer: int) -> str:
    first = classes[0]
    if euler_phi(d) <= 2:  # a rational trace: one class, an orbit of its own
        return (
            f"class of {first.representative} "
            f"(size {first.size}, centralizer {centralizer}, trace {first.trace_str()})"
        )
    if isinstance(first.representative, Word):  # one centralizer, so one class size
        return (
            f"{len(classes)} classes of order-{d} rotations "
            f"(size {first.size}, centralizer {centralizer})"
        )
    reps = " and ".join(str(c.representative) for c in classes)
    sizes = "+".join(str(c.size) for c in classes)
    traces = ", ".join(c.trace_str() for c in classes)
    return f"classes of {reps} (sizes {sizes}, traces {traces})"


def _class_rows(group: FiniteSubgroup) -> list[tuple[str, Fraction]]:
    """One (description, value) row per Galois orbit of nontrivial classes.

    Every class is bucketed by its label ``c.rotation == (d, j)``, read
    once in the orbit walk, and each bucket summed by ``_orbit_sum``.  A
    class with a rational trace (phi(d) <= 2) is a bucket of its own; the
    others share one per order d and centralizer order.  A bucket is made
    at its first class, and ``group.classes`` is in class-table order, so
    the rows are too.
    """
    buckets: dict[tuple, list] = {}
    for position, c in enumerate(group.classes):
        rep, (d, j) = c.representative, c.rotation
        if d == 1 and rep.is_identity():  # a wrong label on the identity's class fails below
            continue
        alone = euler_phi(d) <= 2
        if alone and c.trace == 2:  # the stored trace too: a class record may disagree
            raise TraceTwoNonIdentity(f"nontrivial class of {rep} has trace 2")
        buckets.setdefault((d, c.centralizer_order, position if alone else None), []).append((c, j))
    return [
        (
            _orbit_description(d, [c for c, _ in members], centralizer),
            _orbit_sum(d, [j for _, j in members]) / centralizer,
        )
        for (d, centralizer, _), members in buckets.items()
    ]


def class_sum_contribution(group: FiniteSubgroup) -> Fraction:
    """Sum of 1/(|C(g)| (2 - tr g)) over nontrivial conjugacy classes."""
    return sum((value for _, value in _class_rows(group)), _F0)


def element_sum_contribution(group: FiniteSubgroup) -> Fraction:
    """(1/|G|) sum of 1/(2 - tr g) over nontrivial elements.

    Never consults class sizes or centralizers; agreement with
    ``class_sum_contribution`` validates the conjugacy bookkeeping.
    Elements are bucketed by the order d of their label
    ``rotation() == (d, j)`` and each bucket summed by ``_orbit_sum``.
    """
    buckets: dict[int, list] = {}
    for g in group.elements:
        if not g.is_identity():
            d, j = g.rotation()
            buckets.setdefault(d, []).append(j)
    return sum((_orbit_sum(d, points) for d, points in buckets.items()), _F0) / group.order


# ----------------------------------------------------------------------
# reports


class ContributionReport(
    namedtuple("ContributionReport", "label group_order class_sum closed_form per_class_terms")
):
    __slots__ = ()


def build_contribution_report(group: FiniteSubgroup) -> ContributionReport:
    """Brute-force value, catalog value, and the per-orbit term table.

    The two values must agree exactly; a mismatch raises IdentityFailure
    rather than producing a report.
    """
    if group.label is None:
        raise ValueError("report needs a labeled group")
    rows = _class_rows(group)
    class_sum = sum((value for _, value in rows), _F0)
    closed = closed_form_contribution(group.label)
    if class_sum != closed:
        raise IdentityFailure(
            f"{group.label}: class sum {class_sum} != closed form {closed}"
        )
    return ContributionReport(
        group.label,
        group.order,
        class_sum,
        closed,
        tuple(rows),
    )


def contribution_for_label(label: AdeLabel) -> Fraction:
    """Verified contribution for a label (brute force checked against catalog)."""
    return build_contribution_report(build_ade_group(label)).class_sum


# ----------------------------------------------------------------------
# identity checks (exact, raising on any mismatch)


def _divisor_orbit_sum(m: int, least: int) -> Fraction:
    """Sum of S(d) = ``primitive_orbit_sum(d)`` over the divisors d >= least
    of m: the sum of 1/(2 - zeta_m^k - zeta_m^-k) over the k in 1..m-1
    with zeta_m^k of order at least ``least``, one Galois orbit per d."""
    return sum((primitive_orbit_sum(d) for d in divisors(m) if d >= least), _F0)


def verify_type_a_identity(n: int) -> Fraction:
    """Check sum_{k=1}^{n-1} (1/n) / (2 - zeta_n^k - zeta_n^-k) = (n^2-1)/(12n).

    The left side regroups over divisors d | n, d > 1 as (1/n) sum S(d)
    (``_divisor_orbit_sum``).  Returns the common value; raises
    IdentityFailure if the two sides differ.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    lhs = _divisor_orbit_sum(n, 2) / n
    rhs = Fraction(n * n - 1, 12 * n)
    if lhs != rhs:
        raise IdentityFailure(f"rotation sum for n={n}: {lhs} != {rhs}")
    return lhs


def verify_type_d_half_angle_identity(n: int) -> Fraction:
    """Check sum_{k=1}^{n-1} 1/(2 - zeta_2n^k - zeta_2n^-k) = (n^2-1)/6.

    The summands for k and 2n-k coincide, so the left side is half the
    full sum over k = 1..2n-1 minus the k = n point, i.e.
    (1/2) sum of S(d) over divisors d of 2n with d >= 3
    (``_divisor_orbit_sum``).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    lhs = _divisor_orbit_sum(2 * n, 3) / 2
    rhs = Fraction(n * n - 1, 6)
    if lhs != rhs:
        raise IdentityFailure(f"half-angle sum for n={n}: {lhs} != {rhs}")
    return lhs


def assemble_type_d_contribution(n: int) -> Fraction:
    """Assemble the binary dihedral contribution from its class structure.

    The -1 class gives 1/(16n), the two size-n reflection-like classes
    give 1/4 together, and the rotation pairs give the verified
    half-angle sum weighted by 1/(2n).  The assembled value must equal
    the catalog closed form for D_{n+2}.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    value = verify_type_d_half_angle_identity(n) / (2 * n) + Fraction(1, 16 * n) + Fraction(1, 4)
    expected = closed_form_contribution(AdeLabel("D", n))
    if value != expected:
        raise IdentityFailure(f"assembled D value for n={n}: {value} != {expected}")
    return value
