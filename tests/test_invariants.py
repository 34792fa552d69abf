"""Chern number and BMY verdict tests."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbichern.ade import AdeLabel, resolution_data
from orbichern.contributions import class_sum_contribution
from orbichern.errors import QUOTE_LIMIT, DescriptionError
from orbichern.groups import build_ade_group
from orbichern.invariants import (
    Crossing,
    DivisorEntry,
    InvariantReport,
    IsolatedPointsDescription,
    SncPairDescription,
    Verdict,
    bmy_verdict,
    codim2_c2,
    codim2_equivalence_check,
    gerbe_scale,
    isolated_points_report,
    pair_c1_squared,
    pair_orbifold_euler,
    parse_rational,
    point_term,
    snc_report,
)

F = Fraction


def triangle_pair(nef=False) -> SncPairDescription:
    """Del-Pezzo-like plane with a triangle of three lines, all r = 2."""
    line = DivisorEntry(ramification=2, chi_divisor=2, k_dot=F(-3), self_int=F(1))
    return SncPairDescription(
        chi_coarse=3,
        k_squared=F(9),
        divisors=(line, line, line),
        crossings=(Crossing(0, 1, 1), Crossing(0, 2, 1), Crossing(1, 2, 1)),
        canonical_nef_asserted=nef,
    )


def kummer_points(nef=True) -> IsolatedPointsDescription:
    return IsolatedPointsDescription(
        chi_structure_sheaf=2,
        c1_squared=F(0),
        points=tuple(AdeLabel.from_string("A1") for _ in range(16)),
        canonical_nef_asserted=nef,
    )


# ----------------------------------------------------------------------
# c1^2 for simple-normal-crossing pairs


def test_c1_squared_with_no_divisors_is_k_squared():
    desc = SncPairDescription(2, F(5), (), (), True)
    assert pair_c1_squared(desc) == 5
    assert pair_orbifold_euler(desc) == 2


def test_c1_squared_single_divisor_example():
    entry = DivisorEntry(ramification=3, chi_divisor=2, k_dot=F(2), self_int=F(4))
    desc = SncPairDescription(4, F(8), (entry,), (), True)
    assert pair_c1_squared(desc) == F(112, 9)


def test_triangle_pair_values():
    desc = triangle_pair()
    assert pair_c1_squared(desc) == F(9, 4)
    assert pair_orbifold_euler(desc) == F(3, 4)


def test_orbifold_euler_single_smooth_divisor():
    for r in (2, 3, 7):
        entry = DivisorEntry(ramification=r, chi_divisor=2, k_dot=F(0), self_int=F(-2))
        desc = SncPairDescription(4, F(0), (entry,), (), True)
        assert pair_orbifold_euler(desc) == 4 - (1 - F(1, r)) * 2


def test_crossings_deplete_open_curves():
    # two rational curves meeting twice: each open curve has chi 0
    a = DivisorEntry(ramification=2, chi_divisor=2, k_dot=F(0), self_int=F(0))
    b = DivisorEntry(ramification=4, chi_divisor=2, k_dot=F(0), self_int=F(0))
    desc = SncPairDescription(4, F(0), (a, b), (Crossing(0, 1, 2),), False)
    expected = 4 - F(1, 2) * 0 - F(3, 4) * 0 + 2 * (F(1, 8) - 1)
    assert pair_orbifold_euler(desc) == expected


def test_divisor_reordering_does_not_change_invariants():
    base = triangle_pair()
    entries = list(base.divisors)
    entries[0] = DivisorEntry(5, 2, F(-3), F(1))  # make them distinguishable
    desc = SncPairDescription(3, F(9), tuple(entries), base.crossings, False)
    # move divisor 0 to the end; crossings relabel through the permutation
    perm = (2, 0, 1)  # old index -> new index
    reordered_divisors = tuple(entries[old] for old in (1, 2, 0))
    relabeled = tuple(
        Crossing(min(perm[c.i], perm[c.j]), max(perm[c.i], perm[c.j]), c.count)
        for c in base.crossings
    )
    shuffled = SncPairDescription(3, F(9), reordered_divisors, relabeled, False)
    assert pair_c1_squared(shuffled) == pair_c1_squared(desc)
    assert pair_orbifold_euler(shuffled) == pair_orbifold_euler(desc)


def test_description_validation():
    with pytest.raises(DescriptionError):
        DivisorEntry(ramification=1, chi_divisor=2, k_dot=F(0), self_int=F(0))
    with pytest.raises(DescriptionError):
        Crossing(1, 1, 1)
    with pytest.raises(DescriptionError):
        Crossing(2, 1, 1)
    with pytest.raises(DescriptionError):
        Crossing(0, 1, -1)
    entry = DivisorEntry(2, 2, F(0), F(0))
    with pytest.raises(DescriptionError):
        SncPairDescription(4, F(0), (entry,), (Crossing(0, 1, 1),), True)


# (the field the error must name, a constructor call with a value of the wrong
# type there): a float or bool rational, a text Fraction() refuses, and a
# sequence item that is not the record or label its field holds
WRONG_TYPES = {
    "float k_dot": ("k_dot", lambda: DivisorEntry(2, 0, 0.5, 1)),
    "bool k_dot": ("k_dot", lambda: DivisorEntry(2, 0, True, 1)),
    "float k_squared": ("k_squared", lambda: SncPairDescription(1, 0.5, [], [], True)),
    "bool k_squared": ("k_squared", lambda: SncPairDescription(1, False, [], [], True)),
    "float c1_squared": ("c1_squared", lambda: IsolatedPointsDescription(1, 0.1, [], True)),
    "bool c1_squared": ("c1_squared", lambda: IsolatedPointsDescription(1, True, [], True)),
    "text rational": ("k_dot", lambda: DivisorEntry(2, 0, "x", 1)),
    "str point": ("points", lambda: IsolatedPointsDescription(1, 0, ["A1"], True)),
    "dict divisor": ("divisors", lambda: SncPairDescription(1, 0, [{"ramification": 2}], [], True)),
    "tuple crossing": ("crossings", lambda: SncPairDescription(1, 0, [], [(0, 1, 1)], True)),
}


@pytest.mark.parametrize("field, build", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_constructors_refuse_values_of_the_wrong_type(field, build):
    with pytest.raises(DescriptionError, match=field):
        build()


A1 = AdeLabel("A", 1)
# a sequence field takes a list or a tuple only: any other iterable would be
# read as no items (an empty dict) or taken apart (a str into characters)
NOT_SEQUENCES = {
    "dict points": ("points", lambda: IsolatedPointsDescription(1, 0, {}, True)),
    "set points": ("points", lambda: IsolatedPointsDescription(1, 0, {A1}, True)),
    "str points": ("points", lambda: IsolatedPointsDescription(1, 0, "A1", True)),
    "generator points": ("points", lambda: IsolatedPointsDescription(1, 0, (A1 for _ in range(2)), True)),
    "dict divisors": ("divisors", lambda: SncPairDescription(1, 0, {}, [], True)),
    "empty str crossings": ("crossings", lambda: SncPairDescription(1, 0, [], "", True)),
    "set crossings": ("crossings", lambda: SncPairDescription(1, 0, [], {Crossing(0, 1, 1)}, True)),
}


@pytest.mark.parametrize("field, build", NOT_SEQUENCES.values(), ids=NOT_SEQUENCES)
def test_sequence_fields_take_only_a_list_or_a_tuple(field, build):
    with pytest.raises(DescriptionError, match=f"^{field} must be a list or a tuple, got "):
        build()


def test_a_refused_million_element_set_is_quoted_short():
    """The message quotes the set's first items only (``errors.quoted``)."""
    with pytest.raises(DescriptionError) as refused:
        IsolatedPointsDescription(1, 0, set(range(10**6)), True)
    head = "points must be a list or a tuple, got "
    assert str(refused.value) == head + "{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16..."
    assert len(str(refused.value)) == len(head) + QUOTE_LIMIT


def test_a_refused_fraction_past_the_digit_limit_is_quoted_by_its_size():
    """Its digits are never printed, so the error is a short DescriptionError,
    not the interpreter's ValueError from ``Fraction.__repr__``."""
    with pytest.raises(DescriptionError) as refused:
        IsolatedPointsDescription(1, 0, [Fraction(10**5000)], True)
    assert str(refused.value) == "points[0] must be AdeLabel, got <a Fraction of 16610 bits over 1 bits>"


def test_sequence_fields_keep_their_items_as_a_tuple():
    for points in ([A1, A1], (A1, A1)):
        assert IsolatedPointsDescription(1, 0, points, True).points == (A1, A1)


# texts Fraction(str) reads but the wire form "p/q" or "p" does not; the
# exponent text took time in proportion to its exponent under Fraction(str)
NOT_WIRE_RATIONALS = ("1.5", " 1/2 ", "1e3", "\u0663", "1e1000000", "+1", "1/-2", "1/0", "")


@pytest.mark.parametrize("text", NOT_WIRE_RATIONALS)
def test_a_record_rational_text_follows_the_wire_grammar(text):
    with pytest.raises(DescriptionError, match=f"^k_dot must be a rational, got {re.escape(ascii(text))}$"):
        DivisorEntry(2, 0, text, 1)
    with pytest.raises(ValueError):
        parse_rational(text)


def test_a_record_reads_wire_rational_texts_as_check_does():
    for text in ("1/2", "-3", "6/4", "0", "-0/5"):
        assert DivisorEntry(2, 0, text, 1).k_dot == parse_rational(text)


RECORDS = (DivisorEntry, Crossing, SncPairDescription, IsolatedPointsDescription)
ANY_SCALAR = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.floats(),
    st.text(max_size=6),
    st.fractions(max_denominator=12),
    st.none(),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.sampled_from((AdeLabel("A", 2), AdeLabel("D", 4), AdeLabel("E", 8))),
)
ANY_VALUE = ANY_SCALAR | st.lists(
    ANY_SCALAR | st.sampled_from((DivisorEntry(2, 0, F(1), F(-1)), Crossing(0, 1, 2))), max_size=3
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(cls=st.sampled_from(RECORDS), data=st.data())
def test_a_constructor_returns_a_typed_record_or_a_description_error(cls, data):
    values = [data.draw(ANY_VALUE) for _ in cls._fields]
    try:
        record = cls(*values)
    except DescriptionError:
        return
    assert type(record) is cls
    for value, kind in zip(record, cls._schema.values()):
        if isinstance(kind, tuple):
            assert type(value) is tuple and all(isinstance(item, kind[0]) for item in value)
        else:
            assert type(value) is kind


# ----------------------------------------------------------------------
# c2 from isolated points


def test_c2_with_no_points_is_noether():
    desc = IsolatedPointsDescription(2, F(0), (), True)
    assert codim2_c2(desc) == 24  # K3 shape


def test_kummer_c2_vanishes():
    assert codim2_c2(kummer_points()) == 0


def test_c2_with_one_exceptional_point():
    desc = IsolatedPointsDescription(
        1, F(1), (AdeLabel("E", 6),), True
    )
    assert codim2_c2(desc) == F(97, 24)


def test_point_term_values():
    assert point_term(AdeLabel("A", 1)) == 0  # trivial group: no defect
    assert point_term(AdeLabel.from_string("A1")) == F(3, 2)
    assert point_term(AdeLabel("E", 6)) == F(167, 24)
    assert point_term(AdeLabel.from_string("D4")) == 5 - F(1, 8)


def test_point_term_is_twelve_times_brute_force():
    for label in (AdeLabel("A", 4), AdeLabel("A", 9), AdeLabel("D", 3),
                  AdeLabel("E", 7), AdeLabel("E", 8)):
        group = build_ade_group(label)
        assert point_term(label) == 12 * class_sum_contribution(group)


# ----------------------------------------------------------------------
# the integer sums against a Fraction oracle: the loops they replaced


def oracle_c1_squared(desc):
    total = desc.k_squared
    for entry in desc.divisors:
        a = 1 - F(1, entry.ramification)
        total += 2 * a * entry.k_dot + a * a * entry.self_int
    for crossing in desc.crossings:
        a_i = 1 - F(1, desc.divisors[crossing.i].ramification)
        a_j = 1 - F(1, desc.divisors[crossing.j].ramification)
        total += 2 * a_i * a_j * crossing.count
    return total


def oracle_orbifold_euler(desc):
    total = F(desc.chi_coarse)
    crossings_on = {}
    for crossing in desc.crossings:
        crossings_on[crossing.i] = crossings_on.get(crossing.i, 0) + crossing.count
        crossings_on[crossing.j] = crossings_on.get(crossing.j, 0) + crossing.count
    for index, entry in enumerate(desc.divisors):
        chi_open = entry.chi_divisor - crossings_on.get(index, 0)
        total -= (1 - F(1, entry.ramification)) * chi_open
    for crossing in desc.crossings:
        r_i = desc.divisors[crossing.i].ramification
        r_j = desc.divisors[crossing.j].ramification
        total += crossing.count * (F(1, r_i * r_j) - 1)
    return total


def oracle_point_term(label):
    data = resolution_data(label)
    return data.chi_exceptional - F(1, data.group_order)


def oracle_c2(desc):
    total = 12 * F(desc.chi_structure_sheaf) - desc.c1_squared
    for label in desc.points:
        total -= oracle_point_term(label)
    return total


# one power of each prime, so that any selection is pairwise coprime
COPRIME_BASES = (2, 3, 5, 7, 11, 13, 999_907, 999_983)
RATIONALS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9)
LABELS = st.one_of(
    st.builds(AdeLabel, st.just("A"), st.integers(1, 10**6)),
    st.builds(AdeLabel, st.just("D"), st.integers(2, 10**6)),
    st.builds(AdeLabel, st.just("E"), st.sampled_from((6, 7, 8))),
)


@st.composite
def ramifications(draw):
    """Small orders with repeats, or pairwise-coprime orders up to 10^6."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(2, 7), max_size=6))
    bases = draw(st.lists(st.sampled_from(COPRIME_BASES), max_size=6, unique=True))
    return [p ** draw(st.integers(1, int(math.log(10**6, p)))) for p in bases]


@st.composite
def snc_pairs(draw):
    divisors = tuple(
        DivisorEntry(r, draw(st.integers(-6, 6)), draw(RATIONALS), draw(RATIONALS))
        for r in draw(ramifications())
    )
    crossings = []
    if len(divisors) >= 2:
        index = st.integers(0, len(divisors) - 1)
        for i, j, count in draw(st.lists(st.tuples(index, index, st.integers(0, 3)), max_size=8)):
            if i != j:
                crossings.append(Crossing(min(i, j), max(i, j), count))
        if crossings and draw(st.booleans()):
            crossings.append(crossings[0])  # the same pair given twice
    return SncPairDescription(
        draw(st.integers(-50, 50)), draw(RATIONALS), divisors, crossings, True
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    pair=snc_pairs(),
    points=st.builds(
        IsolatedPointsDescription,
        st.integers(-50, 50),
        RATIONALS,
        st.lists(LABELS, max_size=12),
        st.just(True),
    ),
)
def test_integer_sums_match_fraction_oracle(pair, points):
    assert pair_c1_squared(pair) == oracle_c1_squared(pair)
    assert pair_orbifold_euler(pair) == oracle_orbifold_euler(pair)
    assert codim2_c2(points) == oracle_c2(points)
    report = isolated_points_report(points)
    assert report.c2 == oracle_c2(points)
    assert report.per_point == tuple(
        (label, oracle_point_term(label)) for label in points.points
    )


# ----------------------------------------------------------------------
# verdicts


def test_verdict_examples():
    equality = bmy_verdict(F(0), F(0), True)
    assert equality.verdict is Verdict.HOLDS_WITH_EQUALITY
    assert equality.margin == 0

    silent = bmy_verdict(F(9, 4), F(3, 4), False)
    assert silent.verdict is Verdict.NOT_APPLICABLE
    assert silent.margin == 0

    holds = bmy_verdict(F(2), F(1), True)
    assert holds.verdict is Verdict.HOLDS
    assert holds.margin == 1

    fails = bmy_verdict(F(9), F(0), True)
    assert fails.verdict is Verdict.FAILS
    assert fails.margin == -9


def test_verdict_string_values():
    assert str(Verdict.HOLDS) == "Holds"
    assert str(Verdict.HOLDS_WITH_EQUALITY) == "HoldsWithEquality"
    assert str(Verdict.FAILS) == "Fails"
    assert str(Verdict.NOT_APPLICABLE) == "NotApplicable"


def test_snc_report_carries_orbifold_euler_as_c2():
    report = snc_report(triangle_pair())
    assert report.c1_squared == F(9, 4)
    assert report.c2 == F(3, 4)
    assert report.margin == 0
    assert report.verdict is Verdict.NOT_APPLICABLE
    nef = snc_report(triangle_pair(nef=True))
    assert nef.verdict is Verdict.HOLDS_WITH_EQUALITY


def test_isolated_points_report_lists_terms():
    report = isolated_points_report(kummer_points())
    assert report.c2 == 0
    assert report.margin == 0
    assert report.verdict is Verdict.HOLDS_WITH_EQUALITY
    assert len(report.per_point) == 16
    assert all(term == F(3, 2) for _, term in report.per_point)


# ----------------------------------------------------------------------
# the two routes to the inequality


def test_equivalence_on_examples():
    assert codim2_equivalence_check(kummer_points()) is True
    failing = IsolatedPointsDescription(1, F(9), (AdeLabel("A", 1),), True)
    assert codim2_equivalence_check(failing) is True  # routes agree even on Fails


def test_equivalence_fuzz():
    rng = random.Random(1729)
    for _ in range(200):
        chi = rng.randint(-4, 6)
        c1sq = F(rng.randint(-60, 60), rng.randint(1, 12))
        points = []
        for _ in range(rng.randint(0, 6)):
            kind = rng.choice(["A", "D", "E"])
            if kind == "A":
                points.append(AdeLabel("A", rng.randint(1, 40)))
            elif kind == "D":
                points.append(AdeLabel("D", rng.randint(2, 25)))
            else:
                points.append(AdeLabel("E", rng.choice([6, 7, 8])))
        desc = IsolatedPointsDescription(chi, c1sq, tuple(points), True)
        assert codim2_equivalence_check(desc) is True


# ----------------------------------------------------------------------
# gerbe scaling


def test_gerbe_order_one_is_identity():
    report = isolated_points_report(kummer_points())
    assert gerbe_scale(report, 1) is report


def test_gerbe_scaling_examples():
    holds = bmy_verdict(F(2), F(1), True)  # margin 1
    scaled = gerbe_scale(holds, 2)
    assert scaled.margin == F(1, 2)
    assert scaled.c1_squared == 1
    assert scaled.c2 == F(1, 2)
    assert scaled.verdict is Verdict.HOLDS

    equality = bmy_verdict(F(3), F(1), True)  # margin 0
    scaled = gerbe_scale(equality, 5)
    assert scaled.margin == 0
    assert scaled.verdict is Verdict.HOLDS_WITH_EQUALITY


def test_gerbe_scaling_returns_a_report():
    scaled = gerbe_scale(isolated_points_report(kummer_points()), 3)
    assert type(scaled) is InvariantReport
    with pytest.raises(AttributeError):
        scaled.margin = F(1)


def test_gerbe_scaling_rejects_bad_orders():
    report = bmy_verdict(F(0), F(0), True)
    for bad in (0, -1, 2.0, "2", True):
        with pytest.raises(DescriptionError):
            gerbe_scale(report, bad)


def test_gerbe_scaling_preserves_verdict_fuzz():
    rng = random.Random(424242)
    for _ in range(60):
        c1sq = F(rng.randint(-40, 40), rng.randint(1, 8))
        c2 = F(rng.randint(-40, 40), rng.randint(1, 8))
        report = bmy_verdict(c1sq, c2, rng.choice([True, False]))
        for order in range(1, 8):
            scaled = gerbe_scale(report, order)
            assert scaled.verdict is report.verdict
            assert scaled.margin * order == report.margin
            assert scaled.c1_squared * order == report.c1_squared
            assert scaled.c2 * order == report.c2
            assert 3 * scaled.c2 - scaled.c1_squared == scaled.margin

