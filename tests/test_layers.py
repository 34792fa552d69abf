"""Which modules each command loads, which layer checks a description's types,
and which names the stage-cost tool wraps."""

import contextlib
import copy
import importlib
import importlib.util
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbichern
import orbichern.cli as cli
import orbichern.scalars as scalars
from orbichern import contributions, invariants
from orbichern.ade import AdeLabel
from orbichern.errors import DescriptionError

FIELD_AND_GROUP = {"orbichern.scalars", "orbichern.groups", "orbichern.contributions"}


def _load_tool(name: str):
    tool = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


import_cost = _load_tool("import_cost")


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


def test_a_deferred_name_read_before_any_command_is_bound_on_first_read(monkeypatch):
    # as ``perfbench/worker.py --trace 1`` reads it, before a command has bound it
    cli.element_sum_contribution  # noqa: B018
    monkeypatch.delitem(vars(cli), "element_sum_contribution")
    assert cli.element_sum_contribution is contributions.element_sum_contribution
    assert vars(cli)["element_sum_contribution"] is contributions.element_sum_contribution


def test_parse_rational_is_the_description_reader_one():
    """One function at its grammar's home, the one ``orbichern`` exports, read
    through one rational reader by the records and by ``check``."""
    assert invariants.parse_rational.__module__ == "orbichern.invariants"
    assert invariants.parse_rational is orbichern.parse_rational
    assert invariants._cached_rational.__wrapped__ is invariants.parse_rational
    assert cli._READERS[Fraction] is invariants.SCALAR_READERS[Fraction] is invariants._rational
    assert not hasattr(cli, "parse_rational")
    assert "parse_rational" in orbichern._HOMES["invariants"]
    assert orbichern._HOMES["cli"] == () and orbichern.cli is cli
    assert not hasattr(invariants, "_wire_rational")
    assert not hasattr(scalars, "parse_rational")


LINE = {"ramification": 2, "chi_divisor": 2, "k_dot": -3, "self_int": 1}
TRIANGLE = {
    "kind": "snc_pair", "chi_coarse": 3, "k_squared": 9, "divisors": [LINE, LINE, LINE],
    "crossings": [{"i": 0, "j": 1, "count": 1}, {"i": 0, "j": 2, "count": 1}, {"i": 1, "j": 2, "count": 1}],
    "canonical_nef_asserted": False,
}


def test_check_tests_each_record_field_type_once(tmp_path, capsys, monkeypatch):
    """The schema readers check what a file holds and build records through
    ``_typed``; only ``gerbe_scale`` checks its one value again."""
    checked = []
    check = invariants._checked
    monkeypatch.setattr(
        invariants, "_checked", lambda kind, value, name: checked.append(name) or check(kind, value, name)
    )
    for payload in (TRIANGLE, dict(import_cost.KUMMER, gerbe_order=2)):
        path = tmp_path / "description.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()
    assert checked == ["gerbe_order", "gerbe_order"]


def test_stage_cost_wraps_names_that_resolve_and_restores_every_owner(tmp_path, monkeypatch):
    """``tools/stage_cost.py`` times ``group`` and ``check`` by swapping the
    names they look up for timers: each name resolves on its owner, each
    stage the two commands reach is timed, and every owner's namespace holds
    exactly its own objects again after the run."""
    monkeypatch.setattr(sys, "path", sys.path[:])  # the tool puts the checkout first
    stage_cost = _load_tool("stage_cost")
    for cache in (*stage_cost.GROUP_CACHES, *stage_cost.CHECK_CACHES.values()):
        assert hasattr(cache, "cache_clear") and hasattr(cache, "cache_info"), cache
    stages = {**stage_cost.GROUP_STAGES, **stage_cost.CHECK_STAGES}
    targets = [target for pairs in stages.values() for target in pairs]
    assert {name for owner, name in targets if owner is cli._KINDS} == set(cli._KINDS)
    for owner, name in targets:
        assert name in owner if isinstance(owner, dict) else hasattr(owner, name), name
    spaces = [owner if isinstance(owner, dict) else vars(owner) for owner, _ in targets]
    before = [dict(space) for space in spaces]
    path = tmp_path / "kummer.json"
    path.write_text(json.dumps(import_cost.KUMMER))
    times = stage_cost.command_stages(stages, [["check", str(path)], ["group", "A1"]])
    assert [stage for stage, seconds in times.items() if not seconds] == ["structured render"]
    for space, old in zip(spaces, before):
        assert space.keys() == old.keys()
        assert all(space[name] is value for name, value in old.items())
    assert "decode" not in vars(cli._DECODER)


def _scalar_fields(cls, *where):
    return [(*where, name) for name, kind in cls._schema.items() if not isinstance(kind, tuple)]


# (the valid file, the path of one scalar field of a record in it), for every
# scalar field of the four records
SCALAR_FIELDS = [
    *((TRIANGLE, where) for where in _scalar_fields(invariants.SncPairDescription)),
    *((TRIANGLE, where) for where in _scalar_fields(invariants.DivisorEntry, "divisors", 1)),
    *((TRIANGLE, where) for where in _scalar_fields(invariants.Crossing, "crossings", 1)),
    *((import_cost.KUMMER, where) for where in _scalar_fields(invariants.IsolatedPointsDescription)),
]
JSON_SCALARS = st.one_of(
    st.integers(-3, 4),
    st.integers(-(10**40), 10**40),
    st.booleans(),
    st.floats(),  # NaN and infinities too: json writes and reads them back
    st.none(),
    st.from_regex(r"-?[0-9]{1,6}(/[0-9]{1,6})?", fullmatch=True),
    st.from_regex(r"-?[0-9]{1,30}/[0-9]{12,30}", fullmatch=True),  # a wire literal past 40 characters or not
    st.text(max_size=8),
    st.text(min_size=41, max_size=60),
    st.lists(st.integers(-2, 2) | st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)


def _construct(payload: dict):
    """The description a payload holds, built by the record constructors alone."""
    fields = {key: value for key, value in payload.items() if key != "kind"}
    if payload["kind"] == "isolated_points":
        fields["points"] = [AdeLabel.from_string(text) for text in fields["points"]]
        return invariants.IsolatedPointsDescription(**fields)
    fields["divisors"] = [invariants.DivisorEntry(**item) for item in fields["divisors"]]
    fields["crossings"] = [invariants.Crossing(**item) for item in fields["crossings"]]
    return invariants.SncPairDescription(**fields)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=st.sampled_from(SCALAR_FIELDS), value=JSON_SCALARS)
def test_constructors_and_check_take_the_same_scalars(tmp_path_factory, case, value):
    """A constructor takes a value at a scalar field exactly when ``check``
    takes a file holding it there, and when both refuse it, ``check``'s one
    stderr line ends with the constructor's message: one reader per type."""
    base, where = case
    payload = copy.deepcopy(base)
    *parents, last = where
    container = payload
    for key in parents:
        container = container[key]
    container[last] = value
    try:
        _construct(payload)
        refusal = None
    except DescriptionError as exc:
        refusal = str(exc)
    path = tmp_path_factory.getbasetemp() / "scalar.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(path)])
    line = err.getvalue()
    if refusal is None:
        assert code in (0, 3) and line == "", line
    else:
        assert code == 1 and out.getvalue() == ""
        assert line.startswith(f"error: {path}: ") and line.count("\n") == 1, line
        assert line.endswith(f"{refusal}\n"), (line, refusal)
