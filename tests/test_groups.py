"""Finite SU(2) subgroup tests.

A tiny complex-matrix oracle (floats, tests only) independently realizes
both element representations: words map to diag/off-diag 2x2 matrices,
quaternions map through the standard embedding.  Every exact group-law
computation is cross-checked against numpy-free float arithmetic.
"""

import cmath
import gc
import hashlib
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbichern.cli as cli
import orbichern.groups as groups
from orbichern.ade import AdeLabel, resolution_data
from orbichern.cli import main
from orbichern.contributions import build_contribution_report
from orbichern.errors import BoundExceeded, DescriptionError, IdentityFailure, InvalidLabel, TraceTwoNonIdentity
from orbichern.groups import (
    ConjugacyClass,
    FiniteSubgroup,
    Quaternion,
    Word,
    build_ade_group,
    conjugacy_classes,
    element_key,
    generate_group,
)
from orbichern.invariants import Crossing, DivisorEntry, IsolatedPointsDescription, SncPairDescription
from orbichern.scalars import CycloScalar, euler_phi, scalar_key

F = Fraction


# ----------------------------------------------------------------------
# float oracle helpers


def scalar_float(value) -> float:
    if isinstance(value, CycloScalar):
        z = cyclo_float(value)
        assert abs(z.imag) < 1e-9  # quaternion components are real
        return z.real
    return float(value)


def cyclo_float(value) -> complex:
    if isinstance(value, CycloScalar):
        m = value.conductor
        return sum(
            float(c) * cmath.exp(2j * cmath.pi * k / m)
            for k, c in enumerate(value.coeffs)
        )
    return complex(scalar_float(value))


def rational_quaternion(x, y, z, w) -> Quaternion:
    """x + y*i + z*j + w*k with rational components, each in Q(zeta_1)."""
    return Quaternion(*(CycloScalar.from_rational(c, 1) for c in (x, y, z, w)))


def matmul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_close(a, b, tol=1e-9):
    return all(abs(a[r][c] - b[r][c]) < tol for r in range(2) for c in range(2))


def word_matrix(w: Word):
    lam = cmath.exp(2j * cmath.pi * w.exp / w.period)
    rot = ((lam, 0), (0, lam.conjugate()))
    if not w.flip:
        return rot
    return matmul(((0, 1), (-1, 0)), rot)


def quaternion_matrix(q: Quaternion):
    x, y, z, w = (scalar_float(v) for v in (q.x, q.y, q.z, q.w))
    return ((complex(x, y), complex(z, w)), (complex(-z, w), complex(x, -y)))


def as_matrix(g):
    return word_matrix(g) if isinstance(g, Word) else quaternion_matrix(g)


def det(a):
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


# ----------------------------------------------------------------------
# closure


def test_closure_of_minus_one():
    minus_one = rational_quaternion(-1, 0, 0, 0)
    group = generate_group([minus_one])
    assert len(group) == 2
    assert any(g.is_identity() for g in group)


def test_closure_of_quaternion_units():
    i = rational_quaternion(0, 1, 0, 0)
    j = rational_quaternion(0, 0, 1, 0)
    assert len(generate_group([i, j])) == 8


def test_closure_sizes_of_exceptional_groups():
    assert len(generate_group(groups._exceptional_parts(6)[1])) == 24
    assert len(generate_group(groups._exceptional_parts(7)[1])) == 48
    assert len(generate_group(groups._exceptional_parts(8)[1])) == 120


def test_closure_respects_bound():
    with pytest.raises(BoundExceeded):
        generate_group(groups._exceptional_parts(6)[1], bound=10)
    with pytest.raises(ValueError):
        generate_group([])


def test_closure_is_idempotent():
    group = build_ade_group(AdeLabel("D", 3))
    again = generate_group(group.elements)
    assert set(again) == set(group.elements)


def test_real_quadratic_fields_are_only_those_of_the_exceptional_groups():
    with pytest.raises(ValueError, match=r"^no real quadratic field is set up in Q\(zeta_7\)$"):
        groups._square_root(7)
    with pytest.raises(IdentityFailure, match=r"^z8 is not in Q\(sqrt2\)$"):
        groups._quadratic_parts(CycloScalar.zeta_pow(8, 1))


def test_class_walk_checks_the_class_equation():
    group = build_ade_group(AdeLabel("D", 6))
    without_identity = [e for e in group.elements if not e.is_identity()]
    with pytest.raises(IdentityFailure, match="^orbit size does not divide the group order$"):
        conjugacy_classes(without_identity, group.generators)
    with pytest.raises(IdentityFailure, match="^class sizes do not sum to the group order$"):
        conjugacy_classes([Word(4, False, 0), Word(4, False, 1)], [Word(4, True, 0)])


def test_word_enumeration_matches_closure_for_dicyclic():
    # one builder branch enumerates both word families
    labels = [AdeLabel("A", n) for n in range(1, 21)] + [AdeLabel("D", n) for n in range(2, 8)]
    for label in labels:
        group = build_ade_group(label)
        closed = generate_group(group.generators)
        assert set(closed) == set(group.elements), label
        assert len(closed) == (4 if label.kind == "D" else 1) * label.parameter, label


def test_exceptional_enumeration_matches_closure():
    # E6..E8 are listed from explicit coordinates; the closure of the
    # generators the orbit walk conjugates by is the oracle; each generator
    # is a member, and its coordinates are pinned, so a wrong one fails by name
    omega = "(1/2) + (1/2)i + (1/2)j + (1/2)k"
    pinned = {
        6: ["(0) + (1)i + (0)j + (0)k", omega],
        7: ["(0) + (1)i + (0)j + (0)k", omega, "(1/2*sqrt2) + (1/2*sqrt2)i + (0)j + (0)k"],
        8: [omega, "(-1/4 + 1/4*sqrt5) + (1/2)i + (1/4 + 1/4*sqrt5)j + (0)k"],
    }
    for k, order in ((6, 24), (7, 48), (8, 120)):
        elements = groups._exceptional_parts(k)[0]
        assert len(elements) == len(set(elements)) == order, k
        group = build_ade_group(AdeLabel("E", k))
        closed = generate_group(group.generators)
        assert set(elements) == closed, k
        assert group.elements == tuple(sorted(closed, key=element_key)), k
        assert set(group.generators) <= set(group.elements), k
        assert [str(g) for g in group.generators] == pinned[k], k


def test_cold_exceptional_builds_take_no_quaternion_product(monkeypatch):
    products = []
    multiply = Quaternion.__mul__

    def counted(self, other):
        products.append((self, other))
        return multiply(self, other)

    monkeypatch.setattr(Quaternion, "__mul__", counted)
    build_ade_group.cache_clear()
    groups._exceptional_group.cache_clear()
    for k in (6, 7, 8):
        build_ade_group(AdeLabel("E", k))
    assert products == []
    i = rational_quaternion(0, 1, 0, 0)
    assert (i * i).trace() == -2 and len(products) == 1  # the wrapper counts


def test_cyclic_groups_are_the_rotations_of_binary_dihedral_groups():
    # A_(2n-1) and D_(n+2) share one presentation: the same words of period 2n
    for n in range(2, 41):
        cyclic = build_ade_group(AdeLabel("A", 2 * n)).elements
        rotations = tuple(g for g in build_ade_group(AdeLabel("D", n)).elements if not g.flip)
        assert cyclic == rotations, n
        assert [hash(g) for g in cyclic] == [hash(g) for g in rotations], n


# ----------------------------------------------------------------------
# group law vs float matrices


def test_word_group_law_matches_matrices():
    for n in range(2, 7):
        elements = build_ade_group(AdeLabel("D", n)).elements
        for g in elements:
            assert mat_close(
                matmul(as_matrix(g), as_matrix(g.inverse())), ((1, 0), (0, 1))
            )
            assert abs(det(as_matrix(g)) - 1) < 1e-9
            for h in elements:
                assert mat_close(
                    as_matrix(g * h), matmul(as_matrix(g), as_matrix(h))
                )


def test_cyclic_word_group_law_matches_matrices():
    for n in (1, 2, 5, 8):
        elements = build_ade_group(AdeLabel("A", n)).elements
        for g in elements:
            for h in elements:
                assert mat_close(
                    as_matrix(g * h), matmul(as_matrix(g), as_matrix(h))
                )


def test_quaternion_embedding_is_a_homomorphism():
    rng = random.Random(611)
    for k in (6, 7, 8):
        elements = sorted(generate_group(groups._exceptional_parts(k)[1]), key=element_key)
        for _ in range(150):
            g, h = rng.choice(elements), rng.choice(elements)
            assert mat_close(as_matrix(g * h), matmul(as_matrix(g), as_matrix(h)))
            assert abs(det(as_matrix(g)) - 1) < 1e-9
            assert abs(complex(cyclo_float(g.trace())) -
                       (as_matrix(g)[0][0] + as_matrix(g)[1][1])) < 1e-9


def test_word_traces_match_matrix_traces():
    for n in range(2, 9):
        for g in build_ade_group(AdeLabel("D", n)).elements:
            m = as_matrix(g)
            assert abs(cyclo_float(g.trace()) - (m[0][0] + m[1][1])) < 1e-9


# ----------------------------------------------------------------------
# element basics


def test_trace_values():
    i = rational_quaternion(0, 1, 0, 0)
    omega = rational_quaternion(F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    assert i.identity().trace() == 2
    assert i.trace() == 0
    assert omega.trace() == 1
    flip = Word(10, True, 3)
    assert flip.trace() == 0
    minus_one = Word(10, False, 5)  # a^(period/2) = -1
    assert minus_one.trace() == -2


def test_word_normalization_and_inverses():
    a = Word(8, False, 1)
    assert Word(8, False, 9) == a  # exponent mod the period
    assert Word(8, False, -1) == Word(8, False, 7)
    power = a
    for _ in range(7):
        power = power * a
    assert power.is_identity()  # a has order period
    x = Word(8, True, 0)
    assert (x * x) == Word(8, False, 4)  # x^2 = a^(period/2) = -1
    for g in build_ade_group(AdeLabel("D", 4)).elements:
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()


def test_quaternion_inverse_in_irrational_groups():
    for k in (7, 8):
        for g in groups._exceptional_parts(k)[1]:
            assert (g * g.inverse()).is_identity()
            assert g.norm() == 1


def test_non_unit_quaternion_has_no_group_inverse():
    with pytest.raises(ArithmeticError):
        rational_quaternion(1, 1, 0, 0).inverse()


def test_mixed_family_words_do_not_combine():
    # different periods do not multiply
    a = Word(8, False, 1)
    b = Word(4, False, 1)
    with pytest.raises(ValueError):
        a * b


def test_validating_constructor_still_rejects_bad_words():
    for period, flip, exp in (
        (0, False, 0),
        (-4, True, 1),
        (5, True, 1),
        (3, False, 1.5),
        (6, "yes", 0),
        (6, 1, 0),
        (6, False, True),
        (6, False, "1"),
    ):
        with pytest.raises(ValueError):
            Word(period, flip, exp)
    with pytest.raises(ValueError):
        Word(8, False, 1) * Word(10, False, 1)


def matrix_inverse(a):
    d = det(a)
    return ((a[1][1] / d, -a[0][1] / d), (-a[1][0] / d, a[0][0] / d))


def matrix_key(a):
    """A float matrix rounded to a hashable key; word matrices differ by far more."""
    return tuple(
        round(part, 6) for row in a for z in row for part in (complex(z).real, complex(z).imag)
    )


def test_products_and_inverses_equal_validated_words():
    # products and inverses skip the checks in Word.__new__; each must equal
    # the word that the validating constructor builds for the same matrix
    labels = [AdeLabel("A", n) for n in range(1, 13)] + [AdeLabel("D", n) for n in range(2, 11)]
    for label in labels:
        elements = build_ade_group(label).elements
        period = elements[0].period
        flips = (False, True) if label.kind == "D" else (False,)
        validated = {}
        for flip in flips:
            for exp in range(period):
                word = Word(period, flip, exp)
                validated[matrix_key(word_matrix(word))] = word
        assert len(validated) == len(elements)
        for g in elements:
            results = [(g.inverse(), matrix_key(matrix_inverse(word_matrix(g))))]
            results += [(g * h, matrix_key(matmul(word_matrix(g), word_matrix(h)))) for h in elements]
            for word, key in results:
                expected = validated[key]
                assert word == expected and hash(word) == hash(expected), (label, g, word)
                assert 0 <= word.exp < period
                assert word.rotation() == expected.rotation()
                # a word stores no label: each call computes it again
                assert word.rotation() == word.rotation()


def test_conjugated_by_equals_the_product_with_the_inverse():
    # the one-step rule, for every g (not only the generators) and every w:
    # a word reads the conjugate off the normal forms, and a quaternion keeps
    # x and turns (y, z, w) by g's rotation matrix
    labels = [AdeLabel("A", n) for n in range(1, 13)] + [AdeLabel("D", n) for n in range(2, 13)]
    for label in labels + [AdeLabel("E", k) for k in (6, 7, 8)]:
        elements = build_ade_group(label).elements
        period = 2 * label.parameter if label.kind == "D" else label.parameter
        for g in elements:
            g_inv = g.inverse()
            given = g.rotation_matrix() if label.kind == "E" else g_inv
            for w in elements:
                conj = w.conjugated_by(g, given)
                expected = g * w * g_inv
                assert conj == expected and hash(conj) == hash(expected), (label, g, w)
                if label.kind == "E":
                    assert conj.x is w.x, (label, g, w)
                    continue
                assert 0 <= conj.exp < period
                if not (g.flip or w.flip):
                    assert conj is w  # a^i fixes a^k: nothing is built
    for w, g in (
        (Word(8, False, 1), Word(4, False, 1)),
        (Word(8, True, 1), Word(10, True, 0)),
        (Word(6, False, 2), Word(7, False, 1)),
    ):
        with pytest.raises(ValueError):
            w.conjugated_by(g, g.inverse())


def operator_product(g: Quaternion, h: Quaternion) -> Quaternion:
    """The Hamilton product by scalar operators: 16 products and 12 sums."""
    a, b, c, d = g.x, g.y, g.z, g.w
    p, q, r, s = h.x, h.y, h.z, h.w
    return Quaternion(
        a * p - b * q - c * r - d * s,
        a * q + b * p + c * s - d * r,
        a * r - b * s + c * p + d * q,
        a * s + b * r - c * q + d * p,
    )


def test_fused_quaternion_product_equals_the_operator_formula():
    e6 = build_ade_group(AdeLabel("E", 6)).elements
    e7 = build_ade_group(AdeLabel("E", 7)).elements
    pairs = [(g, h) for group in (e6, e7) for g in group for h in group]
    rng = random.Random(4077)
    e8 = build_ade_group(AdeLabel("E", 8)).elements
    pairs += [(rng.choice(e8), rng.choice(e8)) for _ in range(2000)]
    assert len(pairs) == 24 * 24 + 48 * 48 + 2000
    for g, h in pairs:
        product, expected = g * h, operator_product(g, h)
        assert product == expected and hash(product) == hash(expected), (g, h)
    for group in (e6, e7, e8):  # turning by the rotation matrix equals the two products
        g, h = group[5], group[11]
        assert g.conjugated_by(h, h.rotation_matrix()) == h * g * h.inverse()


@st.composite
def cyclo_quaternions(draw):
    m = draw(st.sampled_from([5, 7, 8, 12]))
    coefficient = st.fractions(min_value=-20, max_value=20, max_denominator=12)

    def component():
        if draw(st.integers(0, 3)) == 0:  # a zero component, one time in four
            return CycloScalar.zero(m)
        return CycloScalar(m, tuple(draw(st.lists(coefficient, min_size=euler_phi(m), max_size=euler_phi(m)))))

    return [Quaternion(*(component() for _ in range(4))) for _ in range(2)]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(cyclo_quaternions())
def test_property_fused_quaternion_product(pair):
    g, h = pair
    product, expected = g * h, operator_product(g, h)
    assert product == expected and hash(product) == hash(expected)


def test_exceptional_components_live_in_one_field_per_group():
    # E6 over Q = Q(zeta_1), E7 over Q(sqrt 2) in Q(zeta_8), E8 over Q(sqrt 5) in Q(zeta_5)
    for k, conductor in ((6, 1), (7, 8), (8, 5)):
        group = build_ade_group(AdeLabel("E", k))
        for g in group.elements:
            for c in (g.x, g.y, g.z, g.w):
                assert isinstance(c, CycloScalar) and c.conductor == conductor, (k, g)
        for c in group.classes:
            assert isinstance(c.trace, CycloScalar) and c.trace.conductor == conductor, (k, c)


def test_element_keys_are_distinct_within_a_group():
    for label in (AdeLabel("A", 7), AdeLabel("D", 5), AdeLabel("E", 6)):
        group = build_ade_group(label)
        keys = [element_key(g) for g in group.elements]
        assert len(set(keys)) == group.order


# ----------------------------------------------------------------------
# rotation labels


def test_rotation_labels():
    assert Word(7, False, 0).rotation() == (1, 0)
    assert Word(10, False, 5).rotation() == (2, 1)  # a^(period/2) = -1
    assert Word(10, True, 3).rotation() == (4, 1)  # trace 0
    assert Word(12, False, 10).rotation() == (6, 1)
    assert Word(12, False, 7).rotation() == (12, 5)
    assert Word(18, False, 14).rotation() == (9, 2)  # a^14 in Q(zeta_18)


def word_groups():
    yield from (AdeLabel("A", n) for n in range(1, 121))
    yield from (AdeLabel("D", n) for n in range(4, 65))


def test_rotation_labels_classify_dense_traces_exactly():
    # every word of A1..A120 and D4..D64 against zeta^e + zeta^-e built
    # from two zeta_pow vectors in Q(zeta_period)
    for label in word_groups():
        dense_of: dict = {}
        labels_of_trace: dict = {}
        traces_of_label: dict = {}
        for g in build_ade_group(label).elements:
            m = g.period
            key = None if g.flip else g.exp
            if key not in dense_of:
                dense_of[key] = (
                    CycloScalar.zero(m)
                    if g.flip
                    else CycloScalar.zeta_pow(m, g.exp) + CycloScalar.zeta_pow(m, -g.exp)
                )
            dense = dense_of[key]
            labels_of_trace.setdefault(dense, set()).add(g.rotation())
            traces_of_label.setdefault(g.rotation(), set()).add(dense)
            if euler_phi(g.rotation()[0]) > 2:  # an irrational trace
                assert not dense.is_rational(), (label, g)
            else:
                assert g.trace().is_rational(), (label, g)
                assert dense.to_rational() == g.trace(), (label, g)
            assert g.trace() == dense, (label, g)
        # equal labels exactly when equal dense traces
        assert all(len(v) == 1 for v in labels_of_trace.values()), label
        assert all(len(v) == 1 for v in traces_of_label.values()), label


def element_order(g) -> int:
    power, order = g, 1
    while not power.is_identity():
        power, order = power * g, order + 1
    return order


def test_quaternion_rotation_labels():
    # every element of E6, E7 and E8: d is the order, 2cos(2*pi*j/d) the
    # trace, and labels are equal exactly when traces are
    irrational = set()
    for k in (6, 7, 8):
        labels_of_trace: dict = {}
        traces_of_label: dict = {}
        for g in build_ade_group(AdeLabel("E", k)).elements:
            d, j = g.rotation()
            assert 0 <= j <= d / 2 and d == element_order(g), (k, g)
            assert abs(2 * math.cos(2 * math.pi * j / d) - cyclo_float(g.trace()).real) < 1e-9
            labels_of_trace.setdefault(g.trace(), set()).add((d, j))
            traces_of_label.setdefault((d, j), set()).add(g.trace())
            if k == 8 and not g.trace().is_rational():
                irrational.add((d, j))
        assert all(len(v) == 1 for v in labels_of_trace.values()), k
        assert all(len(v) == 1 for v in traces_of_label.values()), k
    assert irrational == {(5, 1), (5, 2), (10, 1), (10, 3)}


def test_trace_of_no_rotation_is_rejected():
    with pytest.raises(ArithmeticError):
        rational_quaternion(F(1, 4), 0, 0, 0).rotation()  # trace 1/2
    sqrt5 = 1 + 2 * CycloScalar.zeta_pair_sum(5, 1)
    zero = sqrt5 * 0
    with pytest.raises(ArithmeticError):
        Quaternion(sqrt5 * F(1, 2), zero, zero, zero).rotation()  # trace sqrt5 > 2


# ----------------------------------------------------------------------
# conjugacy classes


def class_profile(group):
    return sorted((c.size, c.centralizer_order) for c in group.classes)


def test_one_dense_trace_per_trace_label(monkeypatch):
    # classes of a^e and a^-e share a label: one zeta_pair_sum serves both;
    # a flip's trace is 0 in Q(zeta_2n), and a^e with label (4, 1) comes first
    pair_sum = CycloScalar.zeta_pair_sum
    built = []

    def counted(conductor, exponent):
        built.append((conductor, exponent))
        return pair_sum(conductor, exponent)

    monkeypatch.setattr(CycloScalar, "zeta_pair_sum", staticmethod(counted))
    rotation_classes = distinct_labels = 0
    for label in word_groups():
        built.clear()
        group = build_ade_group.__wrapped__(label)  # bypass the group cache
        rotations = [c for c in group.classes if not c.representative.flip]
        rotation_classes += len(rotations)
        labels = {c.representative.rotation() for c in rotations}
        distinct_labels += len(labels)
        assert len(built) == len(labels), label
        assert {Word(m, False, e).rotation() for m, e in built} == labels, label
    assert rotation_classes > distinct_labels > 0


def test_classes_with_equal_labels_share_one_trace():
    for label in (*word_groups(), *(AdeLabel("E", k) for k in (6, 7, 8))):
        first: dict = {}
        for c in build_ade_group(label).classes:
            shared = first.setdefault(c.representative.rotation(), c.trace)
            assert c.trace is shared, (label, c)


def test_smallest_binary_dihedral_profile():
    group = build_ade_group(AdeLabel("D", 2))  # quaternion group of order 8
    assert sorted(c.size for c in group.classes) == [1, 1, 2, 2, 2]
    assert sorted(c.centralizer_order for c in group.classes) == [4, 4, 4, 8, 8]


def test_binary_dihedral_class_structure():
    for n in range(2, 21):
        group = build_ade_group(AdeLabel("D", n))
        assert len(group.classes) == n + 3
        expected = sorted([4 * n, 4 * n] + [2 * n] * (n - 1) + [4, 4])
        assert sorted(c.centralizer_order for c in group.classes) == expected
        # the two reflection-type classes each have n elements
        flip_sizes = [c.size for c in group.classes if getattr(c.representative, "flip", False)]
        assert flip_sizes == [n, n]


def test_exceptional_class_sizes():
    e6 = build_ade_group(AdeLabel("E", 6))
    assert sorted(c.size for c in e6.classes) == [1, 1, 4, 4, 4, 4, 6]
    e7 = build_ade_group(AdeLabel("E", 7))
    assert sorted(c.size for c in e7.classes) == [1, 1, 6, 6, 6, 8, 8, 12]
    e8 = build_ade_group(AdeLabel("E", 8))
    assert sorted(c.size for c in e8.classes) == [1, 1, 12, 12, 12, 12, 20, 20, 30]


def test_cyclic_groups_are_abelian():
    for n in (1, 2, 3, 7, 12):
        group = build_ade_group(AdeLabel("A", n))
        assert len(group.classes) == n
        assert all(c.size == 1 and c.centralizer_order == n for c in group.classes)


def test_class_equation_and_orbit_stabilizer():
    labels = [AdeLabel("A", 6), AdeLabel("D", 5), AdeLabel("D", 8),
              AdeLabel("E", 6), AdeLabel("E", 7), AdeLabel("E", 8)]
    for label in labels:
        group = build_ade_group(label)
        assert sum(c.size for c in group.classes) == group.order
        for c in group.classes:
            assert c.size * c.centralizer_order == group.order


def test_identity_class_is_unique_and_rigid():
    for label in (AdeLabel("A", 9), AdeLabel("D", 6), AdeLabel("E", 7)):
        group = build_ade_group(label)
        identity_classes = [c for c in group.classes if c.trace == 2]
        assert len(identity_classes) == 1
        assert identity_classes[0].size == 1
        assert identity_classes[0].representative.is_identity()
        for g in group.elements:
            if g.trace() == 2:
                assert g.is_identity()


def test_conjugacy_classes_rebuild_from_elements_and_generators():
    group = build_ade_group(AdeLabel("D", 4))
    rebuilt = conjugacy_classes(group.elements, group.generators)
    assert rebuilt == group.classes


def test_trace_two_imposter_is_rejected():
    # a dishonest "class" whose representative has trace 2 but is not 1
    fake = Word(6, False, 1)
    bogus = FiniteSubgroup(
        label=None,
        order=2,
        elements=(fake.identity(), fake),
        classes=(
            ConjugacyClass(fake.identity(), 1, 2, F(2), (1, 0)),
            ConjugacyClass(fake, 1, 2, F(2), fake.rotation()),
        ),
        generators=(fake,),
    )
    from orbichern.contributions import class_sum_contribution, element_sum_contribution

    with pytest.raises(TraceTwoNonIdentity):
        class_sum_contribution(bogus)
    # and an element of trace 2 that is not 1, in the element sum
    one = rational_quaternion(1, 0, 0, 0)
    fake = rational_quaternion(1, 1, 0, 0)
    with pytest.raises(TraceTwoNonIdentity):
        element_sum_contribution(FiniteSubgroup(None, 2, (one, fake), (), (one,)))


def test_orbit_walk_checks_the_trace_two_class():
    # the orbit walk reads one label per class: the class of trace 2 must be
    # {identity}, and there must be exactly one
    one = rational_quaternion(1, 0, 0, 0)
    fake = rational_quaternion(1, 1, 0, 0)  # trace 2, not the identity
    with pytest.raises(TraceTwoNonIdentity):
        conjugacy_classes([one, fake], [one])
    minus_one = rational_quaternion(-1, 0, 0, 0)
    with pytest.raises(ArithmeticError, match="exactly one identity"):
        conjugacy_classes([minus_one], [minus_one])


def test_orbit_walk_stops_when_an_orbit_outgrows_the_group():
    # (3 + 4i)/5 is a unit of infinite order: its conjugates of j never close
    turn = rational_quaternion(F(3, 5), F(4, 5), 0, 0)
    e6 = build_ade_group(AdeLabel("E", 6))
    with pytest.raises(ArithmeticError, match="outgrew"):
        conjugacy_classes(e6.elements, [turn])


def test_classes_are_sorted_deterministically():
    sizes = [c.size for c in build_ade_group(AdeLabel("E", 8)).classes]
    assert sizes == [1, 1, 12, 12, 12, 12, 20, 20, 30]
    rng = random.Random(99)
    for text in ("E6", "E7", "E8", "A1", "A2", "A30", "A299", "D4", "D5", "D37", "D152"):
        group = build_ade_group(AdeLabel.from_string(text))
        # conjugacy_classes sorts shuffled elements itself and gives the
        # identical tuple, in (size, trace key, representative) order
        shuffled = list(group.elements)
        rng.shuffle(shuffled)
        classes = conjugacy_classes(shuffled, group.generators)
        assert classes == group.classes, text
        keys = [
            (c.size, c.representative.value_key(c.trace), element_key(c.representative))
            for c in classes
        ]
        assert keys == sorted(keys), text


def catalog_labels():
    """The labels `group` is swept over: A0..A299, D4..D152, E6..E8."""
    return [f"A{k}" for k in range(300)] + [f"D{k}" for k in range(4, 153)] + ["E6", "E7", "E8"]


# sha256 over the concatenated `group` stdout of every catalog label, in order
CATALOG_GROUP_DIGEST = "8ec95c802dc8c3362300c6642d8a539c937378d5da8e1fb58eab241857b96d55"


def test_group_stdout_digest_over_the_catalog(capsys):
    digest = hashlib.sha256()
    for text in catalog_labels():
        assert main(["group", text]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == CATALOG_GROUP_DIGEST


def test_row_keys_order_word_traces_as_scalar_key():
    for text in catalog_labels():
        if text[0] == "E" or text == "A0":
            continue
        traces = [c.trace for c in build_ade_group(AdeLabel.from_string(text)).classes]
        by_row = sorted(range(len(traces)), key=lambda i: Word.value_key(traces[i]))
        by_scalar = sorted(range(len(traces)), key=lambda i: scalar_key(traces[i]))
        assert by_row == by_scalar, text


def test_row_key_shape_and_fallback():
    pair = CycloScalar.zeta_pair_sum(14, 3)
    assert Word.value_key(pair) == (1, 14, pair.row)
    minus_two = CycloScalar.zeta_pair_sum(14, 7)
    assert Word.value_key(minus_two) == scalar_key(F(-2)) == (0, -2, 1)
    assert Word.value_key(CycloScalar.from_rational(F(1, 2), 14)) == scalar_key(F(1, 2))


def small_word_labels():
    return [AdeLabel.from_string(f"A{k}") for k in range(1, 41)] + [
        AdeLabel.from_string(f"D{k}") for k in range(4, 41)
    ]


def test_shuffled_word_groups_rebuild_the_same_classes():
    rng = random.Random(1414)
    for label in small_word_labels():
        group = build_ade_group(label)
        shuffled = list(group.elements)
        rng.shuffle(shuffled)
        assert conjugacy_classes(shuffled, group.generators) == group.classes, label


def test_representatives_are_least_members_of_their_classes():
    for label in (*small_word_labels(), *(AdeLabel("E", k) for k in (6, 7, 8))):
        group = build_ade_group(label)
        for c in group.classes:
            rep = c.representative
            members = {g * rep * g.inverse() for g in group.elements}
            assert len(members) == c.size, (label, c)
            assert min(members, key=element_key) == rep, (label, c)


def test_build_rejects_bad_labels():
    with pytest.raises(InvalidLabel):
        build_ade_group(AdeLabel("E", 9))


# ----------------------------------------------------------------------
# group caches: build_ade_group holds the group it built last, and the
# three E groups sit in a cache of their own
#
# A330..A336 are asked for by no other test, so these tests see a label's
# first ask without clearing the cache other tests use.


def count_builds(monkeypatch) -> list:
    """The labels ``build_ade_group`` builds (not returns from its cache) from now on."""
    built = []
    finite_subgroup = groups._finite_subgroup

    def counted(elements, generators, label=None):
        built.append(label)
        return finite_subgroup(elements, generators, label)

    monkeypatch.setattr(groups, "_finite_subgroup", counted)
    return built


def test_consecutive_asks_build_once(monkeypatch, capsys):
    built = count_builds(monkeypatch)
    label = AdeLabel.from_string("A333")
    group = build_ade_group(label)
    assert build_ade_group(label) is group
    assert main(["group", "A333"]) == 0  # a build followed by its report
    capsys.readouterr()
    assert built == [label]


def test_single_asks_hold_only_the_last_group(capsys):
    first = weakref.ref(build_ade_group(AdeLabel.from_string("A330")))
    for text in ("A330", "A336", "A335"):
        assert main(["group", text]) == 0
    capsys.readouterr()
    last = weakref.ref(build_ade_group(AdeLabel.from_string("A335")))
    gc.collect()
    assert first() is None
    assert last() is not None


def watch_reported_groups(monkeypatch) -> list:
    """Weak references to the groups ``table`` reports from now on."""
    refs = []
    report = cli.build_contribution_report

    def watched(group):
        refs.append(weakref.ref(group))
        return report(group)

    monkeypatch.setattr(cli, "build_contribution_report", watched)
    return refs


def alive_groups(refs) -> list:
    gc.collect()
    return [group for group in (ref() for ref in refs) if group is not None]


def test_table_holds_one_group_at_a_time(monkeypatch, capsys):
    build_ade_group.cache_clear()
    groups._exceptional_group.cache_clear()  # every row's group is built here
    built = count_builds(monkeypatch)
    refs = watch_reported_groups(monkeypatch)
    assert main(["table", "--max-n", "12"]) == 0
    capsys.readouterr()
    alive = alive_groups(refs)
    assert len(built) == len(refs) == 2 * 11 + 3  # one build per row
    assert sum(group.label.kind != "E" for group in alive) <= 1
    exceptional = [group for group in alive if group.label.kind == "E"]  # held by their own cache
    assert len(exceptional) == 3
    assert all(group is groups._exceptional_group(group.label) for group in exceptional)


def test_two_table_passes_hold_at_most_one_word_group(monkeypatch, capsys):
    refs = watch_reported_groups(monkeypatch)
    for _ in range(2):
        assert main(["table", "--max-n", "12"]) == 0
    capsys.readouterr()
    assert len(refs) == 2 * (2 * 11 + 3)
    assert sum(group.label.kind != "E" for group in alive_groups(refs)) <= 1


def test_interleaved_asks_build_each_e_group_once(monkeypatch):
    build_ade_group.cache_clear()
    groups._exceptional_group.cache_clear()
    built = count_builds(monkeypatch)
    e6 = AdeLabel.from_string("E6")
    asked = [build_ade_group(AdeLabel.from_string(text)) for text in ("E6", "A5", "E6", "D7", "E6")]
    assert built == [e6, AdeLabel.from_string("A5"), AdeLabel.from_string("D7")]
    assert asked[0] is asked[2] is asked[4]
    build_ade_group.cache_clear()  # forgets D7 and leaves the E groups cached
    assert build_ade_group(e6) is build_ade_group.__wrapped__(e6) is asked[0]
    assert built.count(e6) == 1


def test_word_period_must_be_an_int():
    for period in (True, 4.0, "4"):
        with pytest.raises(ValueError):
            Word(period, False, 1)


DIVISOR = DivisorEntry(ramification=2, chi_divisor=2, k_dot=-3, self_int=1)


def test_records_are_immutable():
    group = build_ade_group(AdeLabel("E", 6))
    word = build_ade_group(AdeLabel("D", 3)).elements[1]
    records = [
        (AdeLabel("A", 3), "parameter"),
        (resolution_data(AdeLabel("A", 3)), "group_order"),
        (word, "exp"),
        (group.elements[1], "x"),
        (group.classes[1], "size"),
        (group, "order"),
        (build_contribution_report(group), "class_sum"),
        (DIVISOR, "k_dot"),
        (Crossing(0, 1, 1), "count"),
        (SncPairDescription(3, 9, (DIVISOR, DIVISOR), (Crossing(0, 1, 1),), False), "k_squared"),
        (IsolatedPointsDescription(2, 0, (AdeLabel("A", 2),), True), "points"),
        (CycloScalar.zeta_pow(5, 1), "row"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_make_and_replace_run_the_constructor_checks():
    # namedtuple's _make and _replace would build the tuple directly; the
    # validating records send both through __new__
    bad = [
        (InvalidLabel, lambda: AdeLabel._make(("A", 2.5))),
        (InvalidLabel, lambda: AdeLabel("A", 3)._replace(parameter=0)),
        (ValueError, lambda: Word(6, False, 1)._replace(period=True)),
        (ValueError, lambda: Word(3, False, 1)._replace(flip=True)),
        (ValueError, lambda: Word._make((3, False, 1.5))),
        (ValueError, lambda: Word(6, False, 1)._replace(flip="yes")),
        (ValueError, lambda: Word(6, False, 1)._replace(exp=True)),
        (DescriptionError, lambda: DIVISOR._replace(ramification=1)),
        (DescriptionError, lambda: Crossing(0, 1, 1)._replace(i=1)),
        (DescriptionError, lambda: SncPairDescription(3, 9, (DIVISOR,), (), False)._replace(
            crossings=(Crossing(0, 1, 1),))),
        # integer fields take an int that is not a bool, the nef flag only a bool
        (DescriptionError, lambda: Crossing(0, 1, 1.5)),
        (DescriptionError, lambda: Crossing(0, 1, 1)._replace(j=True)),
        (DescriptionError, lambda: DIVISOR._replace(ramification=2.0)),
        (DescriptionError, lambda: DIVISOR._replace(chi_divisor=2.0)),
        (DescriptionError, lambda: SncPairDescription(3.0, 9, (DIVISOR,), (), False)),
        (DescriptionError, lambda: SncPairDescription(3, 9, (DIVISOR,), (), False)._replace(
            canonical_nef_asserted=1)),
        (DescriptionError, lambda: IsolatedPointsDescription(2, 0, (), "no")),
        (DescriptionError, lambda: IsolatedPointsDescription(2, 0, (), True)._replace(
            chi_structure_sheaf=F(2))),
    ]
    for error, build in bad:
        with pytest.raises(error):
            build()
    assert Word(3, False, 1)._replace(exp=7).exp == 1
    assert DIVISOR._replace(k_dot="1/2").k_dot == Fraction(1, 2)
    points = IsolatedPointsDescription(2, 0, [AdeLabel("A", 2)], True)._replace(c1_squared="3")
    assert points.c1_squared == 3 and type(points.c1_squared) is Fraction


def test_group_elements_do_no_tuple_arithmetic():
    word = Word(6, False, 1)
    quaternion = build_ade_group(AdeLabel("E", 6)).elements[1]
    for combine in (
        lambda: word + word,
        lambda: 2 * word,
        lambda: quaternion + quaternion,
        lambda: 2 * quaternion,
    ):
        with pytest.raises(TypeError):
            combine()
