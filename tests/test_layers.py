"""Which modules each command loads, and which layer checks a description's types."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import orbichern
import orbichern.cli as cli
import orbichern.scalars as scalars
from orbichern import contributions, invariants

FIELD_AND_GROUP = {"orbichern.scalars", "orbichern.groups", "orbichern.contributions"}


def _load_import_cost():
    tool = Path(__file__).resolve().parents[1] / "tools" / "import_cost.py"
    spec = importlib.util.spec_from_file_location("import_cost", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


import_cost = _load_import_cost()


def test_cli_import_loads_no_field_or_group_module():
    added = import_cost.added_modules()
    assert {"orbichern.cli", "orbichern.invariants"} <= added
    assert not added & FIELD_AND_GROUP


def test_check_process_loads_no_field_or_group_module(tmp_path):
    path = tmp_path / "kummer.json"
    path.write_text(json.dumps(import_cost.KUMMER))
    code, modules = import_cost.command_modules(["check", str(path)])
    assert code == 0
    assert "orbichern.invariants" in modules
    assert not modules & FIELD_AND_GROUP


@pytest.mark.parametrize("argv", import_cost.COMMANDS, ids=" ".join)
def test_group_and_identity_processes_load_the_layers_they_run(argv):
    code, modules = import_cost.command_modules(argv)
    assert code == 0
    assert FIELD_AND_GROUP <= modules


def test_every_public_name_is_its_home_module_object():
    assert sorted(orbichern.__all__) == sorted(orbichern._HOME)  # what __getattr__ resolves
    for name in orbichern.__all__:
        value = getattr(orbichern, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name
        assert name in dir(orbichern), name


def test_deferred_cli_names_are_the_contribution_layer_objects():
    for name in cli._DEFERRED:
        assert getattr(cli, name) is getattr(contributions, name), name
    with pytest.raises(AttributeError):
        cli.no_such_name  # noqa: B018


def test_parse_rational_is_the_description_reader_one():
    assert scalars.parse_rational is cli.parse_rational is orbichern.parse_rational
    assert cli.parse_rational.__module__ == "orbichern.cli"
    with pytest.raises(AttributeError):
        scalars.no_such_name  # noqa: B018


def test_check_tests_each_record_field_type_once(tmp_path, capsys, monkeypatch):
    """The schema readers check what a file holds and build records through
    ``_typed``; only ``gerbe_scale`` checks its one value again."""
    checked = []
    integer = invariants._integer
    monkeypatch.setattr(invariants, "_integer", lambda value, name: checked.append(name) or integer(value, name))
    monkeypatch.setattr(invariants, "_flag", lambda value: checked.append("flag") or value)
    line = {"ramification": 2, "chi_divisor": 2, "k_dot": -3, "self_int": 1}
    triangle = {
        "kind": "snc_pair", "chi_coarse": 3, "k_squared": 9, "divisors": [line, line, line],
        "crossings": [{"i": 0, "j": 1, "count": 1}, {"i": 0, "j": 2, "count": 1}, {"i": 1, "j": 2, "count": 1}],
        "canonical_nef_asserted": False,
    }
    for payload in (triangle, dict(import_cost.KUMMER, gerbe_order=2)):
        path = tmp_path / "description.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()
    assert checked == ["gerbe_order", "gerbe_order"]
