"""Label parsing and resolution-catalog tests."""

import pytest

from orbichern.ade import AdeLabel, resolution_data
from orbichern.errors import InvalidLabel
from orbichern.groups import build_ade_group, generate_group


def test_label_round_trip_through_strings():
    for text in ["A0", "A1", "A5", "A199", "D4", "D5", "D102", "E6", "E7", "E8"]:
        assert str(AdeLabel.from_string(text)) == text


def test_subscript_convention():
    # cyclic of order n is A_{n-1}; binary dihedral of order 4n is D_{n+2}
    assert AdeLabel("A", 1).subscript == 0
    assert AdeLabel("A", 6).subscript == 5
    assert AdeLabel.from_string("A5").parameter == 6
    assert AdeLabel("D", 2).subscript == 4
    assert AdeLabel.from_string("D4").parameter == 2
    assert AdeLabel.from_string("D12").parameter == 10
    assert AdeLabel.from_string("E8").parameter == 8


def test_invalid_labels_rejected():
    for bad in ["D3", "D2", "E5", "E9", "B2", "a1", "A-1", "A", "", "A1.5", "F4",
                # ASCII digits only, nothing before or after
                "A\u0663", " A2\n", "A1 "]:
        with pytest.raises(InvalidLabel):
            AdeLabel.from_string(bad)
    with pytest.raises(InvalidLabel):
        AdeLabel("A", 0)
    with pytest.raises(InvalidLabel):
        AdeLabel("D", 1)
    with pytest.raises(InvalidLabel):
        AdeLabel("E", 5)
    with pytest.raises(InvalidLabel):
        AdeLabel("X", 4)


def test_label_parameter_must_be_an_int():
    # a float or a bool once made labels such as A1.5 (order 2.5), E6.0 and A0
    for kind, parameter in (("A", 2.5), ("E", 6.0), ("A", True), ("D", "3")):
        with pytest.raises(InvalidLabel):
            AdeLabel(kind, parameter)


def test_resolution_catalog_values():
    a = resolution_data(AdeLabel("A", 5))  # A_4
    assert (a.node_count, a.group_order, a.chi_exceptional) == (4, 5, 5)
    d = resolution_data(AdeLabel("D", 2))  # D_4, quaternion group of order 8
    assert (d.node_count, d.group_order, d.chi_exceptional) == (4, 8, 5)
    e6 = resolution_data(AdeLabel("E", 6))
    assert (e6.node_count, e6.group_order, e6.chi_exceptional) == (6, 24, 7)
    e7 = resolution_data(AdeLabel("E", 7))
    assert (e7.node_count, e7.group_order, e7.chi_exceptional) == (7, 48, 8)
    e8 = resolution_data(AdeLabel("E", 8))
    assert (e8.node_count, e8.group_order, e8.chi_exceptional) == (8, 120, 9)


def test_chi_is_node_count_plus_one_everywhere():
    labels = [AdeLabel("A", n) for n in range(1, 30)]
    labels += [AdeLabel("D", n) for n in range(2, 30)]
    labels += [AdeLabel("E", n) for n in (6, 7, 8)]
    for label in labels:
        data = resolution_data(label)
        assert data.chi_exceptional == data.node_count + 1
        assert str(data.label) == str(label)


def test_node_count_matches_dynkin_subscript():
    for text in ["A0", "A7", "D4", "D9", "E6", "E7", "E8"]:
        label = AdeLabel.from_string(text)
        assert resolution_data(label).node_count == label.subscript


def test_catalog_order_matches_generated_group_order():
    for n in range(1, 13):
        label = AdeLabel("A", n)
        group = build_ade_group(label)
        assert group.order == resolution_data(label).group_order == n
        regen = generate_group(group.generators)
        assert len(regen) == group.order
    for n in range(2, 13):
        label = AdeLabel("D", n)
        group = build_ade_group(label)
        assert group.order == resolution_data(label).group_order == 4 * n
        regen = generate_group(group.generators)
        assert len(regen) == group.order
    for n in (6, 7, 8):
        label = AdeLabel("E", n)
        group = build_ade_group(label)
        assert group.order == resolution_data(label).group_order


# parameter - subscript of each family, as the module docstring states the
# convention (A_{n-1}, D_{n+2}, E_k), written here apart from the module
_PARAMETER_OVER_SUBSCRIPT = {"A": 1, "D": -2, "E": 0}


def _labels(kind, subscripts):
    return [AdeLabel(kind, sub + _PARAMETER_OVER_SUBSCRIPT[kind]) for sub in subscripts]


def test_class_count_is_node_count_plus_one():
    """McKay (1980): a finite subgroup of SU(2) has one more conjugacy class
    than its Dynkin diagram has nodes, so the brute-force class walk checks
    the node count the catalog reads off the subscript."""
    labels = _labels("A", range(1, 121)) + _labels("D", range(4, 121)) + _labels("E", (6, 7, 8))
    for label in labels:
        assert len(build_ade_group(label).classes) == resolution_data(label).chi_exceptional, label


def _outcome(make, *args):
    try:
        return make(*args)
    except InvalidLabel as exc:
        return str(exc)


@pytest.mark.parametrize("kind, window, accepted, rule", [
    ("A", range(-3, 4), range(0, 4), ">= 0"),
    ("D", range(0, 8), range(4, 8), ">= 4"),
    ("E", range(4, 11), (6, 7, 8), "6, 7 or 8"),
], ids=["A", "D", "E"])
def test_constructor_and_parser_share_one_range_rule(kind, window, accepted, rule):
    """Around each family's least subscript, a label built from its
    parameter and one parsed from its text are accepted or refused alike,
    with the same message; a negative subscript has no text."""
    for sub in window:
        built = _outcome(AdeLabel, kind, sub + _PARAMETER_OVER_SUBSCRIPT[kind])
        if sub in accepted:
            assert built.subscript == sub
        else:
            assert built == f"type {kind} subscript must be {rule}, got {sub}"
        if sub >= 0:
            assert _outcome(AdeLabel.from_string, f"{kind}{sub}") == built, sub


def test_labels_round_trip_through_their_text():
    labels = _labels("A", range(0, 401)) + _labels("D", range(4, 401)) + _labels("E", (6, 7, 8))
    for label in labels:
        assert AdeLabel.from_string(str(label)) == label, label
