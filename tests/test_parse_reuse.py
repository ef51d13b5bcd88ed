"""Sweep rows parse only the top-level fields their value changed.

``scenario_from_dict(data, template)`` reuses the template's parsed value of
every top-level field that ``data`` holds as the template's own raw object
(or lacks as the template's dict did): the state, Hamiltonian and observable
at the same dimension, and the schedule, the config and shots (``protocol``
with a top-level ``shots``), the checks, the seed and the moment source.
These tests pin which objects a row shares with its template, that a row
with an invalid value reports what a template-free parse reports, and that
the ``--shots`` and ``--seed`` overrides of a sweep still reach its rows.
"""

from __future__ import annotations

import argparse
import json

import pytest

from lgcert import cli
from lgcert.cli import SweepSpec, _row_data, load_sweep, main, run_sweep, scenario_from_dict
from lgcert.protocols import ProtocolConfig
from lgcert.qcore import ValidationError

from test_sweep_batch import SWEEPS

# Integral floats where an integer is read, so a fresh parse makes a new int
# object and ``is`` tells a reused value from a parsed one.
TEMPLATE = {
    "dimension": 2,
    "initial_state": "plus_x",
    "hamiltonian": {"preset": "precession", "frequency": 1.3},
    "observable": "sigma_z",
    "schedule": [0.3, 0.7, 1.1],
    "protocol": {"mode": "projective_dephased", "clumsiness": {"kind": "depolarizing", "strength": 0.1}},
    "shots": 1000.0,
    "checks": ["LG2", "LG3", "NSIT"],
    "seed": 4321.0,
    "derive_lower_moments": False,
}

# Per top-level field: the Scenario attributes it gives, a valid new value
# and invalid ones.
FIELDS = {
    "initial_state": (("initial_state",), "ground", ["bogus", [[1, 0]], 3]),
    "hamiltonian": (("hamiltonian",), {"preset": "precession", "frequency": 2.0},
                    [{"preset": "other"}, {"preset": "precession", "frequency": "x"}, "h"]),
    "observable": (("observable",), [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]], ["sigma_x", {"projectors": 1}]),
    "schedule": (("schedule",), [0.2, 0.5, 0.9], [[1.0, 1.0, 2.0], "x", [True, 2, 3], [-1, 2, 3], 5]),
    "protocol": (("config", "shots"), {"mode": "projective"},
                 ["x", {"mode": "bogus"}, {"clumsiness": {"kind": "depolarizing", "strength": 2.0}},
                  {"dephase_times": "1"}]),
    "shots": (("config", "shots"), 0, [-1, 1.5, "abc", True]),
    "checks": (("checks",), ["LG2"], ["LG3", ["XX"], ["LG2", "LG2"], {"LG2": 1}]),
    "seed": (("seed",), 7, [-1, True, 2.5, "s"]),
    "derive_lower_moments": (("derive_lower_moments",), True, [1, "yes", None]),
}

ATTRIBUTES = ("initial_state", "hamiltonian", "observable", "schedule", "config", "shots", "checks", "seed",
              "derive_lower_moments")


@pytest.fixture
def template():
    return scenario_from_dict(TEMPLATE)


@pytest.mark.parametrize("name", FIELDS)
def test_a_row_holds_the_templates_objects_for_every_field_it_keeps(name, template):
    changed, value, _ = FIELDS[name]
    row = scenario_from_dict(_row_data(TEMPLATE, name, value), template)
    for attribute in ATTRIBUTES:
        if attribute in changed:
            assert getattr(row, attribute) is not getattr(template, attribute), attribute
        else:
            assert getattr(row, attribute) is getattr(template, attribute), attribute
    fresh = scenario_from_dict(_row_data(TEMPLATE, name, value))
    values = ("schedule", "config", "shots", "checks", "seed", "derive_lower_moments", "raw")
    assert [getattr(row, a) for a in values] == [getattr(fresh, a) for a in values]


def test_a_row_that_keeps_every_field_runs_no_parser(template, monkeypatch):
    calls = []
    for parser in ("_parse_state", "_parse_hamiltonian", "_parse_observable", "_parse_schedule",
                   "_parse_protocol", "_parse_checks", "_parse_seed", "_parse_derive"):
        parse = getattr(cli, parser)
        monkeypatch.setattr(cli, parser, lambda *args, parse=parse, parser=parser: calls.append(parser) or parse(*args))
    row = scenario_from_dict(dict(TEMPLATE), template)
    assert calls == []
    assert all(getattr(row, a) is getattr(template, a) for a in ATTRIBUTES)
    scenario_from_dict(_row_data(TEMPLATE, "seed", 9), template)
    assert calls == ["_parse_seed"]


PARSERS = {"initial_state": "_parse_state", "hamiltonian": "_parse_hamiltonian", "observable": "_parse_observable",
           "schedule": "_parse_schedule", "protocol": "_parse_protocol", "shots": "_parse_protocol",
           "checks": "_parse_checks", "seed": "_parse_seed", "derive_lower_moments": "_parse_derive"}


@pytest.mark.parametrize("name", FIELDS)
def test_a_row_runs_only_the_parser_of_its_field(name, template, monkeypatch):
    calls = []
    for parser in set(PARSERS.values()) | {"_parse_dimension"}:
        parse = getattr(cli, parser)
        monkeypatch.setattr(cli, parser, lambda *args, parse=parse, parser=parser: calls.append(parser) or parse(*args))
    _, value, invalid = FIELDS[name]
    scenario_from_dict(_row_data(TEMPLATE, name, value), template)
    assert calls == [PARSERS[name]]
    calls.clear()
    with pytest.raises(ValidationError):
        scenario_from_dict(_row_data(TEMPLATE, name, invalid[0]), template)
    assert calls == [PARSERS[name]]


def test_a_row_of_another_dimension_parses_its_state_hamiltonian_and_observable_again(template):
    data = dict(TEMPLATE, dimension=3, initial_state="ground", hamiltonian=[[[0.0, 0.0]] * 3] * 3)
    with pytest.raises(ValidationError, match="observable: preset 'sigma_z' requires dimension 2"):
        scenario_from_dict(data, template)


def template_free_error(data) -> str:
    with pytest.raises(ValidationError) as info:
        scenario_from_dict(data)
    return str(info.value)


@pytest.mark.parametrize("name", FIELDS)
def test_an_invalid_swept_value_reports_what_a_template_free_parse_reports(name):
    _, valid, invalid = FIELDS[name]
    rows = run_sweep(SweepSpec(TEMPLATE, name, (valid, *invalid)))
    assert rows[0]["error"] == ""
    for value, row in zip(invalid, rows[1:]):
        assert row["verdict"] == "error"
        assert row["error"] == template_free_error(_row_data(TEMPLATE, name, value)), value


HERMITIAN = [[[0.0, 0.0], [1.0, 0.5]], [[1.0, -0.5], [0.0, 0.0]]]
NON_HERMITIAN = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
# A unitary kick reads its generator; without a top-level ``shots`` the protocol's are read.
KICK_TEMPLATE = dict(TEMPLATE, protocol=dict(TEMPLATE["protocol"], clumsiness={
    "kind": "unitary_kick", "strength": 0.2, "generator": HERMITIAN}))
PROTOCOL_SHOTS_TEMPLATE = {key: value for key, value in TEMPLATE.items() if key != "shots"}


@pytest.mark.parametrize("parameter, value, template", [
    ("protocol.clumsiness.strength", -0.5, TEMPLATE),
    ("protocol.clumsiness.kind", "bogus", TEMPLATE),
    ("protocol.clumsiness.generator", NON_HERMITIAN, KICK_TEMPLATE),
    ("protocol.shots", -1, PROTOCOL_SHOTS_TEMPLATE),
    ("protocol.mode", "bogus", TEMPLATE),
    ("protocol.dephase_times", [0], TEMPLATE),
    ("schedule.gap", -1.0, TEMPLATE),
    ("hamiltonian.frequency", "x", TEMPLATE),
])
def test_an_invalid_nested_value_reports_what_a_template_free_parse_reports(parameter, value, template):
    row = run_sweep(SweepSpec(template, parameter, (value,)))[0]
    assert row["error"] == template_free_error(_row_data(template, parameter, value))


# Sweeps whose paths land in nested objects, each with valid and invalid values.
# A clumsiness row rebuilds its config from the template's dephase times and
# shots, here also given out of order and inside the protocol.
DEPHASED_TEMPLATE = dict(PROTOCOL_SHOTS_TEMPLATE, protocol=dict(TEMPLATE["protocol"], dephase_times=[2.0, 1],
                                                                shots=300.0))
NESTED = {
    "clumsiness-strength": (TEMPLATE, "protocol.clumsiness.strength", [0.2, -0.5, 0.0, 0.2]),
    "clumsiness-strength-dephased": (DEPHASED_TEMPLATE, "protocol.clumsiness.strength", [0.2, 1.5, 0.0]),
    "clumsiness-kind": (DEPHASED_TEMPLATE, "protocol.clumsiness.kind", ["none", "bogus", "depolarizing"]),
    "clumsiness-generator": (KICK_TEMPLATE, "protocol.clumsiness.generator", [HERMITIAN, NON_HERMITIAN, [[[1.0, 0.0]]]]),
    "protocol-shots": (PROTOCOL_SHOTS_TEMPLATE, "protocol.shots", [0, -1, 200.0]),
    "protocol-mode": (TEMPLATE, "protocol.mode", ["inrm", "bogus", "projective_dephased"]),
    "protocol-dephase-times": (TEMPLATE, "protocol.dephase_times", [[1], [0], None]),
    "schedule-gap": (TEMPLATE, "schedule.gap", [0.4, -1.0, 0.9]),
    "hamiltonian-frequency": (TEMPLATE, "hamiltonian.frequency", [2.0, "x"]),
}

PARITY = {**{f"batch-{name}": sweep for name, sweep in SWEEPS.items()},
          **{f"nested-{name}": sweep for name, sweep in NESTED.items()}}


def reached(parameter: str, row, template) -> set[str]:
    """The parsed fields a row of a ``parameter`` sweep may hold as new objects."""
    top = parameter.split(".")[0]
    if parameter == "schedule.gap":
        return {"schedule"}
    if parameter.startswith("protocol.clumsiness."):
        return {"config"}
    if top in ("protocol", "shots"):
        return {"config", "shots"}
    if top == "dimension":
        return set() if row.dimension == template.dimension else {"initial_state", "hamiltonian", "observable"}
    return {top}


def comparable(value):
    """``value``, or a config as a tuple, since a kick generator's arrays do not compare with ``==``."""
    if isinstance(value, ProtocolConfig):
        c = value.clumsiness
        generator = None if c.generator is None else c.generator.tobytes()
        return value.mode, value.dephase_times, value.shots, c.kind, c.strength, generator
    return value


@pytest.mark.parametrize("name", PARITY)
def test_every_row_parses_as_a_template_free_parse_and_shares_the_rest(name, monkeypatch):
    template_data, parameter, values = PARITY[name]
    try:
        template = scenario_from_dict(template_data)
    except ValidationError:
        template = None  # rows are parsed without a template
    monkeypatch.setattr(cli, "_sweep_row", lambda rows, row, value: rows)
    rows = run_sweep(SweepSpec(template_data, parameter, tuple(values), scenario=template))[0]
    compared = ("dimension", "schedule", "config", "shots", "checks", "seed", "derive_lower_moments", "raw")
    for value, row in zip(values, rows.scenarios):
        data = _row_data(template_data, parameter, value)
        if isinstance(row, str):
            assert row == template_free_error(data), value
            continue
        fresh = scenario_from_dict(data)
        assert [comparable(getattr(row, a)) for a in compared] == [comparable(getattr(fresh, a)) for a in compared]
        if template is not None:
            kept = set(ATTRIBUTES) - reached(parameter, row, template)
            assert {a for a in kept if getattr(row, a) is not getattr(template, a)} == set(), value


def sweep_file(tmp_path, scenario) -> str:
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"scenario": scenario, "parameter": "protocol.clumsiness.strength",
                                "values": [0.0, 0.1, 0.2]}), encoding="utf-8")
    return str(path)


def test_shots_and_seed_overrides_on_a_sweep_parse_the_config_again(tmp_path, monkeypatch):
    spec = load_sweep(sweep_file(tmp_path, TEMPLATE))
    template = cli._apply_overrides(spec.scenario, argparse.Namespace(shots=0, seed=99))
    assert template.config is not spec.scenario.config
    assert (template.shots, template.config.shots, template.seed) == (0, 0, 99)
    assert template.schedule is spec.scenario.schedule and template.checks is spec.scenario.checks
    monkeypatch.setattr(cli, "_sweep_row", lambda rows, row, value: rows)
    rows = cli.run_sweep(SweepSpec(template.raw, spec.parameter, spec.values, scenario=template))[0]
    assert [(s.shots, s.config.shots, s.seed) for s in rows.scenarios] == [(0, 0, 99)] * 3
    assert all(s.schedule is template.schedule for s in rows.scenarios)


@pytest.mark.parametrize("override, changes", [
    (["--shots", "0"], {"shots": 0}),
    (["--shots", "200"], {"shots": 200}),
    (["--seed", "5"], {"seed": 5}),
    (["--shots", "300", "--seed", "6"], {"shots": 300, "seed": 6}),
])
def test_a_sweep_override_gives_the_bytes_of_the_overridden_file(override, changes, tmp_path):
    out, expected = tmp_path / "out.csv", tmp_path / "expected.csv"
    code = main(["sweep", sweep_file(tmp_path, TEMPLATE), *override, "--out", str(out)])
    (tmp_path / "other").mkdir()
    expected_code = main(["sweep", sweep_file(tmp_path / "other", dict(TEMPLATE, **changes)), "--out", str(expected)])
    assert code == expected_code
    assert out.read_bytes() == expected.read_bytes()
