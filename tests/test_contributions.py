"""Twisted-sector contribution tests.

Two independent oracles pin the rotation sums:

* a partial-fractions oracle that evaluates sum 1/(2 - z^k - z^-k) with
  Fraction arithmetic only, via log-derivative calculus on
  g(x) = 1 + x + ... + x^(n-1)  (with u = 1/(1-z^k) the summand is
  u - u^2, and power sums of u come from g', g'' at 1);
* literal one-term-at-a-time field inversions, bypassing the Galois-orbit
  fast path entirely.

A third, field-free oracle pins each orbit sum on its own:
S(d) = J_2(d)/12 with J_2 Jordan's totient, which follows from
sum_{j<d} csc^2(pi j/d) = (d^2 - 1)/3 by Moebius inversion.
"""

import random
from fractions import Fraction

import pytest

from orbichern import cli, contributions, scalars
from orbichern.ade import AdeLabel
from orbichern.contributions import (
    assemble_type_d_contribution,
    build_contribution_report,
    class_sum_contribution,
    closed_form_contribution,
    conjugate_pair_inverse,
    contribution_for_label,
    element_sum_contribution,
    primitive_orbit_sum,
    verify_type_a_identity,
    verify_type_d_half_angle_identity,
)
from orbichern.errors import IdentityFailure, NonRationalTotal, ZeroInversion
from orbichern.groups import ConjugacyClass, FiniteSubgroup, Word, build_ade_group
from orbichern.scalars import CycloScalar, cyclo_trace, euler_phi, pair_inverse_trace

F = Fraction


# ----------------------------------------------------------------------
# oracles (test-local, package code not involved)


def rotation_sum_oracle(n: int) -> Fraction:
    """sum_{k=1}^{n-1} 1/(2 - z^k - z^-k), z = exp(2*pi*i/n), rationally.

    2 - z^k - z^-k = (1-z^k)(1-z^-k) and with u = 1/(1-z^k) the summand
    is u - u^2.  For g(x) = prod (x - z^k) = 1 + x + ... + x^(n-1):
    sum u = g'(1)/g(1) and sum u^2 = (g'(1)^2 - g(1)g''(1))/g(1)^2.
    """
    coeffs = [F(1)] * n  # g = 1 + x + ... + x^(n-1)
    g1 = sum(coeffs)
    gp1 = sum(i * c for i, c in enumerate(coeffs))
    gpp1 = sum(i * (i - 1) * c for i, c in enumerate(coeffs))
    power_sum_1 = F(gp1, g1)
    power_sum_2 = F(gp1 * gp1 - g1 * gpp1, g1 * g1)
    return power_sum_1 - power_sum_2


def literal_rotation_sum(n: int) -> Fraction:
    """Same sum by brute per-term inversion inside Q(zeta_n)."""
    total = CycloScalar.zero(n)
    for k in range(1, n):
        z = CycloScalar.zeta_pow(n, k)
        total = total + (2 - z - z ** -1).invert()
    value = total.to_rational()
    assert value is not None
    return value


def literal_half_angle_sum(n: int) -> Fraction:
    """sum_{k=1}^{n-1} 1/(2 - zeta_2n^k - zeta_2n^-k) by brute inversion."""
    total = CycloScalar.zero(2 * n)
    for k in range(1, n):
        z = CycloScalar.zeta_pow(2 * n, k)
        total = total + (2 - z - z ** -1).invert()
    value = total.to_rational()
    assert value is not None
    return value


def jordan_totient_2(d: int) -> int:
    """J_2(d) = sum over e | d of mu(d/e) e^2 = d^2 prod over primes p | d of (1 - 1/p^2)."""
    result, rest, p = d * d, d, 2
    while p * p <= rest:
        if rest % p == 0:
            result = result // (p * p) * (p * p - 1)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        result = result // (rest * rest) * (rest * rest - 1)
    return result


def literal_orbit_sum(d: int) -> Fraction:
    """S(d) = sum over primitive k of 1/(2 - zeta_d^k - zeta_d^-k), literally."""
    from math import gcd

    total = CycloScalar.zero(d)
    for k in range(1, d):
        if gcd(k, d) != 1:
            continue
        z = CycloScalar.zeta_pow(d, k)
        total = total + (2 - z - z ** -1).invert()
    value = total.to_rational()
    assert value is not None
    return value


# ----------------------------------------------------------------------
# orbit sums


def test_conjugate_pair_inverse_is_an_inverse():
    for d in range(2, 31):
        z = CycloScalar.zeta_pow(d)
        assert conjugate_pair_inverse(d) * (2 - z - z ** -1) == 1


def test_conjugate_pair_inverse_is_the_uncached_pair_inverse():
    """One row function: ``conjugate_pair_inverse`` is ``CycloScalar.pair_inverse``
    itself, with no cache of its own."""
    assert conjugate_pair_inverse == CycloScalar.pair_inverse
    assert conjugate_pair_inverse.__func__ is CycloScalar.pair_inverse.__func__
    assert not hasattr(conjugate_pair_inverse, "cache_info")


def test_conjugate_pair_inverse_matches_euclid_inversion():
    """The inverse read off Phi_d at 1 is the row the general Euclid gives."""
    for d in [*range(2, 401), 997, 1155, 1998, 1999, 2310, 3974, 3990]:
        z = CycloScalar.zeta_pow(d)
        expected = (2 - z - z ** -1).invert()
        u = conjugate_pair_inverse(d)
        assert (u.row, u.den) == (expected.row, expected.den), d
    for d in (0, -3):
        with pytest.raises(ValueError):
            conjugate_pair_inverse(d)
    for read in (conjugate_pair_inverse, primitive_orbit_sum):
        with pytest.raises(ZeroInversion):
            read(1)


def test_pair_inverse_check_rejects_a_wrong_row(monkeypatch):
    """u*(1 - zeta)^2 = -zeta is checked on the value about to be returned."""
    build = CycloScalar._new.__func__

    def off_by_one(cls, conductor, row, den=1):
        return build(cls, conductor, [row[0] + 1, *row[1:]], den)

    monkeypatch.setattr(CycloScalar, "_new", classmethod(off_by_one))
    for d in (2, 3, 4, 6, 7, 12, 30, 210, 1024, 1155, 3990):
        with pytest.raises(IdentityFailure):
            CycloScalar.pair_inverse(d)


WRONG_ROW_ORDERS = (2, 3, 4, 12, 30, 97, 210, 1024, 3990)
# the two readers of the one certified division: the row, and its trace
DIVISION_READERS = (CycloScalar.pair_inverse, pair_inverse_trace)


@pytest.mark.parametrize("da, db", [(1, 0), (0, 1), (0, -1), (2, 3)])
def test_pair_inverse_remainders_reject_a_wrong_a_or_b(monkeypatch, da, db):
    """A wrong Phi_d(1) or Phi_d'(1) leaves a nonzero remainder in the
    division by (1 - x)^2, at every order, for the row and for its trace."""
    constants = scalars._pair_constants
    monkeypatch.setattr(scalars, "_pair_constants", lambda m: tuple(map(sum, zip(constants(m), (da, db)))))
    for d in WRONG_ROW_ORDERS:
        for read in DIVISION_READERS:
            with pytest.raises(IdentityFailure):
                read(d)


def test_pair_inverse_remainders_reject_a_wrong_cyclotomic_row(monkeypatch):
    """A Phi_d with one lower coefficient changed, at its bottom, middle or
    top place, is no longer divisible as a, b and (1 - x)^2 require, for the
    row and for its trace.  So is one changed at its top and bottom lower
    places so that one remainder, c L(1) - L'(1) with c = phi + 1 or phi + 2,
    is 0: T = c - 1 + phi/2 at place phi - 1 and phi - 1 - T at place 0 add
    (phi - 1) (c a - (a - b) - a T) = 0 to it, and (phi - 1) a to the other."""
    phi_of = scalars.cyclotomic_polynomial
    for d in WRONG_ROW_ORDERS:
        deg = euler_phi(d)
        changes = [{place: delta} for place in sorted({0, deg // 2, deg - 1}) for delta in (1, -2)]
        if deg > 1:
            changes += [{deg - 1: t, 0: deg - 1 - t} for t in (3 * deg // 2, 3 * deg // 2 + 1)]
        for change in changes:
            row = list(phi_of(d))
            for place, delta in change.items():
                row[place] += delta
            monkeypatch.setattr(scalars, "cyclotomic_polynomial", lambda m, row=tuple(row): row)
            for read in DIVISION_READERS:
                with pytest.raises(IdentityFailure):
                    read(d)
            monkeypatch.undo()
    assert CycloScalar.pair_inverse(3990) == conjugate_pair_inverse(3990)
    assert pair_inverse_trace(3990) == primitive_orbit_sum(3990)


def test_pair_inverse_trace_is_the_trace_of_the_row():
    """The trace read off the running sums is the trace of the row built
    from them, at every order up to 600 and at the largest orders the
    identities reach."""
    for d in [*range(2, 601), 997, 1980, 1999, 2310, 3960, 3990, 4000]:
        assert pair_inverse_trace(d) == cyclo_trace(CycloScalar.pair_inverse(d)), d
    with pytest.raises(ZeroInversion):
        pair_inverse_trace(1)


def test_pair_inverse_times_its_term_is_one():
    """u (2 - zeta - zeta^(d-1)) = 1 by one field product, on a seeded sample
    of orders up to 600, zeta^(d-1) built as a power, not as an inverse."""
    for d in sorted(random.Random(3817).sample(range(2, 601), 24)) + [2, 600]:
        z = CycloScalar.zeta_pow(d)
        term = 2 - z - CycloScalar.zeta_pow(d, d - 1)
        assert term * CycloScalar.pair_inverse(d) == 1, d


def test_identities_build_no_division_table():
    """The orbit-term inverse takes no remainder, so the identities, which need
    nothing else from the field, leave ``_division_terms`` empty."""
    for cached in (primitive_orbit_sum, scalars._division_terms):
        cached.cache_clear()
    for n in range(2, 2001, 23):
        verify_type_a_identity(n)
        verify_type_d_half_angle_identity(n)
    assert scalars._division_terms.cache_info().currsize == 0


def test_primitive_orbit_sum_small_values():
    assert primitive_orbit_sum(2) == F(1, 4)
    assert primitive_orbit_sum(3) == F(2, 3)
    assert primitive_orbit_sum(4) == 1
    assert primitive_orbit_sum(6) == 2


def test_primitive_orbit_sum_matches_literal_inversions():
    for d in range(2, 31):
        assert primitive_orbit_sum(d) == literal_orbit_sum(d)


def test_jordan_totient_oracle_values():
    assert [jordan_totient_2(d) for d in range(1, 11)] == [1, 3, 8, 12, 24, 24, 48, 48, 72, 72]


def test_primitive_orbit_sum_matches_jordan_totient():
    for d in range(2, 121):
        assert primitive_orbit_sum(d) == F(jordan_totient_2(d), 12), d


def test_rotation_identity_matches_partial_fraction_oracle():
    for n in range(2, 61):
        assert verify_type_a_identity(n) * n == rotation_sum_oracle(n)


def test_rotation_identity_matches_literal_field_sum():
    for n in range(2, 26):
        assert verify_type_a_identity(n) * n == literal_rotation_sum(n)


def test_half_angle_identity_matches_literal_field_sum():
    for n in range(2, 13):
        assert verify_type_d_half_angle_identity(n) == literal_half_angle_sum(n)


def test_identity_values():
    assert verify_type_a_identity(2) == F(1, 8)
    assert verify_type_a_identity(3) == F(2, 9)
    assert verify_type_a_identity(6) == F(35, 72)
    assert verify_type_a_identity(12) == F(143, 144)
    assert verify_type_d_half_angle_identity(2) == F(1, 2)
    assert verify_type_d_half_angle_identity(3) == F(4, 3)
    assert verify_type_d_half_angle_identity(5) == 4
    for fn in (verify_type_a_identity, verify_type_d_half_angle_identity,
               assemble_type_d_contribution):
        with pytest.raises(ValueError):
            fn(1)


def test_assembled_binary_dihedral_values():
    assert assemble_type_d_contribution(2) == F(13, 32)
    assert assemble_type_d_contribution(3) == F(71, 144)
    assert assemble_type_d_contribution(10) == F(173, 160)


def test_assembled_binary_dihedral_value_must_match_the_catalog(monkeypatch):
    monkeypatch.setattr(contributions, "closed_form_contribution", lambda label: F(0))
    with pytest.raises(IdentityFailure, match=r"^assembled D value for n=3: 71/144 != 0$"):
        assemble_type_d_contribution(3)


# ----------------------------------------------------------------------
# closed forms and brute-force totals


HEADLINE = {
    ("A", 1): F(0),
    ("A", 2): F(1, 8),
    ("A", 3): F(2, 9),
    ("A", 6): F(35, 72),
    ("A", 12): F(143, 144),
    ("D", 2): F(13, 32),
    ("D", 3): F(71, 144),
    ("D", 10): F(173, 160),
    ("E", 6): F(167, 288),
    ("E", 7): F(383, 576),
    ("E", 8): F(1079, 1440),
}


def test_headline_contribution_values():
    for (kind, n), expected in HEADLINE.items():
        assert closed_form_contribution(AdeLabel(kind, n)) == expected


def test_closed_forms_match_general_formulas():
    for n in range(1, 40):
        assert closed_form_contribution(AdeLabel("A", n)) == F(n * n - 1, 12 * n)
    for n in range(2, 40):
        assert closed_form_contribution(AdeLabel("D", n)) == \
            (F(n + 3) - F(1, 4 * n)) / 12


def test_three_evaluation_routes_agree():
    labels = [AdeLabel("A", n) for n in (1, 2, 7, 25)]
    labels += [AdeLabel("D", n) for n in (2, 3, 10, 15)]
    labels += [AdeLabel("E", n) for n in (6, 7, 8)]
    for label in labels:
        group = build_ade_group(label)
        closed = closed_form_contribution(label)
        assert class_sum_contribution(group) == closed
        assert element_sum_contribution(group) == closed
        assert contribution_for_label(label) == closed


def test_contributions_are_nonnegative_and_grow():
    previous = F(-1)
    for n in range(1, 51):
        value = closed_form_contribution(AdeLabel("A", n))
        assert value >= 0
        assert value > previous
        previous = value
    previous = F(0)
    for n in range(2, 51):
        value = closed_form_contribution(AdeLabel("D", n))
        assert value > previous
        previous = value


# ----------------------------------------------------------------------
# per-class term tables


def row_values(label):
    report = build_contribution_report(build_ade_group(label))
    assert report.class_sum == report.closed_form
    return sorted(value for _, value in report.per_class_terms)


def test_binary_tetrahedral_row_multiset():
    assert row_values(AdeLabel("E", 6)) == sorted(
        [F(1, 96), F(1, 8), F(1, 6), F(1, 6), F(1, 18), F(1, 18)]
    )


def test_binary_octahedral_rows_fuse_conjugate_traces():
    # the two trace +-sqrt2 classes fuse into a single rational row 1/4
    assert row_values(AdeLabel("E", 7)) == sorted(
        [F(1, 192), F(1, 16), F(1, 6), F(1, 18), F(1, 8), F(1, 4)]
    )


def test_binary_icosahedral_rows_fuse_golden_pairs():
    # golden-ratio trace pairs fuse to 3/10 and 1/10
    assert row_values(AdeLabel("E", 8)) == sorted(
        [F(1, 480), F(1, 6), F(1, 18), F(1, 8), F(3, 10), F(1, 10)]
    )


def test_rows_always_sum_to_class_sum():
    for label in (AdeLabel("A", 9), AdeLabel("D", 7), AdeLabel("E", 8)):
        report = build_contribution_report(build_ade_group(label))
        assert sum((v for _, v in report.per_class_terms), F(0)) == report.class_sum
        assert report.group_order == build_ade_group(label).order
        assert all(isinstance(v, Fraction) for _, v in report.per_class_terms)


def test_report_rejects_corrupted_class_data():
    group = build_ade_group(AdeLabel("A", 3))
    doctored = []
    for c in group.classes:
        if c.trace != 2 and len(doctored) < len(group.classes):
            doctored.append(c._replace(centralizer_order=c.centralizer_order * 2))
        else:
            doctored.append(c)
    corrupt = FiniteSubgroup(
        group.label, group.order, group.elements, tuple(doctored), group.generators
    )
    with pytest.raises(IdentityFailure):
        build_contribution_report(corrupt)


def test_group_routes_disagree_or_raise_on_a_doctored_class_label(monkeypatch, capsys):
    # the class rows read each class's stored label, the element sum its own:
    # a wrong label on any one class must not print a result
    for text in ("A5", "D5", "E6", "E7", "E8"):
        group = build_ade_group(AdeLabel.from_string(text))
        labels = {c.rotation for c in group.classes}
        for index, c in enumerate(group.classes):
            for wrong in labels - {c.rotation}:
                classes = list(group.classes)
                classes[index] = c._replace(rotation=wrong)
                corrupt = FiniteSubgroup(
                    group.label, group.order, group.elements, tuple(classes), group.generators
                )
                monkeypatch.setattr(cli, "build_ade_group", lambda label: corrupt)
                assert cli.main(["group", text]) == 2, (text, c, wrong)
                assert capsys.readouterr().out == ""


def test_unpaired_irrational_trace_is_rejected():
    # one golden-trace class without its Galois partner cannot collapse
    e8 = build_ade_group(AdeLabel("E", 8))
    golden = [c for c in e8.classes if not c.trace.is_rational()]
    assert len(golden) == 4
    keep = (e8.classes[0], golden[0])
    lopsided = FiniteSubgroup(e8.label, e8.order, e8.elements, keep, e8.generators)
    with pytest.raises(NonRationalTotal):
        class_sum_contribution(lopsided)


def test_incomplete_rotation_orbit_is_rejected():
    # a conductor-5 rotation class without the rest of its Galois orbit
    rep = Word(10, False, 2)
    identity = rep.identity()
    bogus = FiniteSubgroup(
        None,
        20,
        (identity, rep),
        (
            ConjugacyClass(identity, 1, 20, F(2), identity.rotation()),
            ConjugacyClass(rep, 2, 10, rep.trace(), rep.rotation()),
        ),
        (rep,),
    )
    with pytest.raises(NonRationalTotal):
        class_sum_contribution(bogus)


def test_report_requires_a_label():
    group = build_ade_group(AdeLabel("A", 2))
    anonymous = FiniteSubgroup(None, group.order, group.elements, group.classes,
                               group.generators)
    with pytest.raises(ValueError):
        build_contribution_report(anonymous)


# ----------------------------------------------------------------------
# randomized agreement


def test_randomized_label_agreement():
    rng = random.Random(20260819)
    for _ in range(40):
        kind = rng.choice(["A", "A", "D", "E"])
        if kind == "A":
            label = AdeLabel("A", rng.randint(1, 60))
        elif kind == "D":
            label = AdeLabel("D", rng.randint(2, 30))
        else:
            label = AdeLabel("E", rng.choice([6, 7, 8]))
        group = build_ade_group(label)
        assert class_sum_contribution(group) == closed_form_contribution(label)
