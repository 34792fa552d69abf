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
