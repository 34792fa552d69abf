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
from orbichern.ade import AdeLabel
from orbichern.cli import main
from orbichern.errors import BoundExceeded, InvalidLabel, TraceTwoNonIdentity
from orbichern.groups import (
    ConjugacyClass,
    FiniteSubgroup,
    Quaternion,
    Word,
    _binary_icosahedral_generators,
    _binary_octahedral_generators,
    _binary_tetrahedral_generators,
    build_ade_group,
    conjugacy_classes,
    element_key,
    generate_group,
)
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


def matmul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_close(a, b, tol=1e-9):
    return all(abs(a[r][c] - b[r][c]) < tol for r in range(2) for c in range(2))


def word_matrix(w: Word):
    period = 2 * w.n if w.family == "dicyclic" else w.n
    lam = cmath.exp(2j * cmath.pi * w.exp / period)
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
    minus_one = Quaternion(F(-1), F(0), F(0), F(0))
    group = generate_group([minus_one])
    assert len(group) == 2
    assert any(g.is_identity() for g in group)


def test_closure_of_quaternion_units():
    i = Quaternion(F(0), F(1), F(0), F(0))
    j = Quaternion(F(0), F(0), F(1), F(0))
    assert len(generate_group([i, j])) == 8


def test_closure_sizes_of_exceptional_groups():
    assert len(generate_group(_binary_tetrahedral_generators())) == 24
    assert len(generate_group(_binary_octahedral_generators())) == 48
    assert len(generate_group(_binary_icosahedral_generators())) == 120


def test_closure_respects_bound():
    with pytest.raises(BoundExceeded):
        generate_group(_binary_tetrahedral_generators(), bound=10)
    with pytest.raises(ValueError):
        generate_group([])


def test_closure_is_idempotent():
    group = build_ade_group(AdeLabel("D", 3))
    again = generate_group(group.elements)
    assert set(again) == set(group.elements)


def test_word_enumeration_matches_closure_for_dicyclic():
    for n in range(2, 8):
        group = build_ade_group(AdeLabel("D", n))
        closed = generate_group(group.generators)
        assert set(closed) == set(group.elements)
        assert len(closed) == 4 * n


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
    for builder in (
        _binary_tetrahedral_generators,
        _binary_octahedral_generators,
        _binary_icosahedral_generators,
    ):
        elements = sorted(generate_group(builder()), key=element_key)
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
    i = Quaternion(F(0), F(1), F(0), F(0))
    omega = Quaternion(F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    assert i.identity().trace() == 2
    assert i.trace() == 0
    assert omega.trace() == 1
    flip = Word("dicyclic", 5, True, 3)
    assert flip.trace() == 0
    minus_one = Word("dicyclic", 5, False, 5)  # a^n = -1
    assert minus_one.trace() == -2


def test_word_normalization_and_inverses():
    a = Word("dicyclic", 4, False, 1)
    assert Word("dicyclic", 4, False, 9) == a  # exponent mod 2n
    assert Word("dicyclic", 4, False, -1) == Word("dicyclic", 4, False, 7)
    power = a
    for _ in range(7):
        power = power * a
    assert power.is_identity()  # a has order 2n
    x = Word("dicyclic", 4, True, 0)
    assert (x * x) == Word("dicyclic", 4, False, 4)  # x^2 = a^n = -1
    for g in build_ade_group(AdeLabel("D", 4)).elements:
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()


def test_quaternion_inverse_in_irrational_groups():
    for builder in (_binary_octahedral_generators, _binary_icosahedral_generators):
        for g in builder():
            assert (g * g.inverse()).is_identity()
            assert g.norm() == 1


def test_non_unit_quaternion_has_no_group_inverse():
    with pytest.raises(ArithmeticError):
        Quaternion(F(1), F(1), F(0), F(0)).inverse()


def test_mixed_family_words_do_not_combine():
    a = Word("dicyclic", 4, False, 1)
    b = Word("cyclic", 4, False, 1)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        Word("dihedral", 4, False, 1)


def test_validating_constructor_still_rejects_bad_words():
    for family, n, flip, exp in (
        ("dihedral", 4, False, 1),
        ("cyclic", 0, False, 0),
        ("dicyclic", -2, True, 1),
        ("cyclic", 4, True, 1),
    ):
        with pytest.raises(ValueError):
            Word(family, n, flip, exp)
    with pytest.raises(ValueError):
        Word("dicyclic", 4, False, 1) * Word("dicyclic", 5, False, 1)


def matrix_inverse(a):
    d = det(a)
    return ((a[1][1] / d, -a[0][1] / d), (-a[1][0] / d, a[0][0] / d))


def matrix_key(a):
    """A float matrix rounded to a hashable key; word matrices differ by far more."""
    return tuple(
        round(part, 6) for row in a for z in row for part in (complex(z).real, complex(z).imag)
    )


def test_products_and_inverses_equal_validated_words():
    # products and inverses skip __post_init__; each must equal the word that
    # the validating constructor builds for the same matrix
    labels = [AdeLabel("A", n) for n in range(1, 13)] + [AdeLabel("D", n) for n in range(2, 11)]
    for label in labels:
        elements = build_ade_group(label).elements
        family, n = elements[0].family, elements[0].n
        period = 2 * n if family == "dicyclic" else n
        flips = (False, True) if family == "dicyclic" else (False,)
        validated = {}
        for flip in flips:
            for exp in range(period):
                word = Word(family, n, flip, exp)
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
                assert word.rotation() is word.rotation()  # computed once per word


def test_conjugated_by_equals_the_product_with_the_inverse():
    # the one-step rule, for every g (not only the generators) and every w
    labels = [AdeLabel("A", n) for n in range(1, 13)] + [AdeLabel("D", n) for n in range(2, 13)]
    for label in labels:
        elements = build_ade_group(label).elements
        period = 2 * label.parameter if label.kind == "D" else label.parameter
        for g in elements:
            g_inv = g.inverse()
            for w in elements:
                conj = w.conjugated_by(g, g_inv)
                expected = g * w * g_inv
                assert conj == expected and hash(conj) == hash(expected), (label, g, w)
                assert 0 <= conj.exp < period
                if not (g.flip or w.flip):
                    assert conj is w  # a^i fixes a^k: nothing is built
    for w, g in (
        (Word("dicyclic", 4, False, 1), Word("cyclic", 4, False, 1)),
        (Word("dicyclic", 4, True, 1), Word("dicyclic", 5, True, 0)),
        (Word("cyclic", 6, False, 2), Word("cyclic", 7, False, 1)),
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
    e7 = build_ade_group(AdeLabel("E", 7)).elements
    pairs = [(g, h) for g in e7 for h in e7]
    rng = random.Random(4077)
    e8 = build_ade_group(AdeLabel("E", 8)).elements
    pairs += [(rng.choice(e8), rng.choice(e8)) for _ in range(2000)]
    assert len(pairs) == 48 * 48 + 2000
    for g, h in pairs:
        product, expected = g * h, operator_product(g, h)
        assert product == expected and hash(product) == hash(expected), (g, h)
    for group in (e7, e8):  # a quaternion conjugates by the same products
        g, h = group[5], group[11]
        assert g.conjugated_by(h, h.inverse()) == h * g * h.inverse()


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


def test_element_keys_are_distinct_within_a_group():
    for label in (AdeLabel("A", 7), AdeLabel("D", 5), AdeLabel("E", 6)):
        group = build_ade_group(label)
        keys = [element_key(g) for g in group.elements]
        assert len(set(keys)) == group.order


# ----------------------------------------------------------------------
# rotation labels


def test_rotation_labels():
    assert Word("cyclic", 7, False, 0).rotation() == (1, 0)
    assert Word("dicyclic", 5, False, 5).rotation() == (2, 1)  # a^n = -1
    assert Word("dicyclic", 5, True, 3).rotation() == (4, 1)  # trace 0
    assert Word("cyclic", 12, False, 10).rotation() == (6, 1)
    assert Word("cyclic", 12, False, 7).rotation() == (12, 5)
    assert Word("dicyclic", 9, False, 14).rotation() == (9, 2)  # a^14 in Q(zeta_18)


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
            m = 2 * g.n if g.family == "dicyclic" else g.n
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
            rational = g.rational_trace()
            if rational is None:
                assert not dense.is_rational(), (label, g)
            else:
                assert dense.to_rational() == rational, (label, g)
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
            if k == 8 and g.rational_trace() is None:
                irrational.add((d, j))
        assert all(len(v) == 1 for v in labels_of_trace.values()), k
        assert all(len(v) == 1 for v in traces_of_label.values()), k
    assert irrational == {(5, 1), (5, 2), (10, 1), (10, 3)}


def test_trace_of_no_rotation_is_rejected():
    with pytest.raises(ArithmeticError):
        Quaternion(F(1, 4), F(0), F(0), F(0)).rotation()  # trace 1/2
    sqrt5 = 1 + 2 * CycloScalar.zeta_pair_sum(5, 1)
    zero = sqrt5 * 0
    with pytest.raises(ArithmeticError):
        Quaternion(sqrt5 * F(1, 2), zero, zero, zero).rotation()  # trace sqrt5 > 2


# ----------------------------------------------------------------------
# conjugacy classes


def class_profile(group):
    return sorted((c.size, c.centralizer_order) for c in group.classes)


def test_one_dense_trace_per_trace_label(monkeypatch):
    # classes of a^e and a^-e share a label: one zeta_pair_sum serves both
    pair_sum = CycloScalar.zeta_pair_sum
    built = []

    def counted(conductor, exponent):
        built.append((conductor, exponent))
        return pair_sum(conductor, exponent)

    monkeypatch.setattr(CycloScalar, "zeta_pair_sum", staticmethod(counted))
    irrational_classes = distinct_labels = 0
    for label in word_groups():
        built.clear()
        group = build_ade_group.__wrapped__(label)  # bypass the group cache
        irrational = [c for c in group.classes if c.representative.rational_trace() is None]
        irrational_classes += len(irrational)
        labels = {c.representative.rotation() for c in irrational}
        distinct_labels += len(labels)
        assert len(built) == len(labels), label
        assert {Word("cyclic", m, False, e).rotation() for m, e in built} == labels, label
    assert irrational_classes > distinct_labels > 0


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
    fake = Word("dicyclic", 3, False, 1)
    bogus = FiniteSubgroup(
        label=None,
        order=2,
        elements=(fake.identity(), fake),
        classes=(
            ConjugacyClass(fake.identity(), 1, 2, F(2)),
            ConjugacyClass(fake, 1, 2, F(2)),
        ),
        generators=(fake,),
    )
    from orbichern.contributions import class_sum_contribution

    with pytest.raises(TraceTwoNonIdentity):
        class_sum_contribution(bogus)


def test_classes_are_sorted_deterministically():
    group = build_ade_group(AdeLabel("E", 8))
    sizes = [c.size for c in group.classes]
    assert sizes == sorted(sizes) or sizes == [1, 1, 12, 12, 12, 12, 20, 20, 30]
    # rebuilding from shuffled elements gives the identical tuple
    rng = random.Random(99)
    shuffled = list(group.elements)
    rng.shuffle(shuffled)
    assert conjugacy_classes(shuffled, group.generators) == group.classes


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
    assert Word.value_key(F(-1)) == scalar_key(F(-1))
    assert Word.value_key(CycloScalar.from_rational(F(1, 2), 14)) == scalar_key(F(1, 2))
    half = pair * F(1, 2)  # den 2: not an integer row
    assert Word.value_key(half) == scalar_key(half)


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
# group retention: a group is held only when its label is asked for again
#
# A330..A336 are asked for by no other test, so these tests see the policy
# from a label's first ask without clearing the cache other tests use.


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


def test_a_label_asked_again_after_another_build_is_kept(monkeypatch):
    built = count_builds(monkeypatch)
    a, b = AdeLabel.from_string("A331"), AdeLabel.from_string("A332")
    build_ade_group(a)
    build_ade_group(b)
    again = build_ade_group(a)  # built a second time, then held for good
    build_ade_group(b)
    build_ade_group(AdeLabel.from_string("E6"))
    assert build_ade_group(a) is again
    assert built.count(a) == built.count(b) == 2


def test_table_holds_one_group_at_a_time(monkeypatch, capsys):
    build_ade_group.cache_clear()  # every row's label asked for the first time
    built = count_builds(monkeypatch)
    refs = []
    report = cli.build_contribution_report

    def watched(group):
        refs.append(weakref.ref(group))
        return report(group)

    monkeypatch.setattr(cli, "build_contribution_report", watched)
    assert main(["table", "--max-n", "12"]) == 0
    capsys.readouterr()
    gc.collect()
    assert len(built) == len(refs) == 2 * 11 + 3  # one build per row
    assert [ref() is None for ref in refs] == [True] * (len(refs) - 1) + [False]
