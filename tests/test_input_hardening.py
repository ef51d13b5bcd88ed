"""Malformed scenario and sweep inputs: list-valued sweep cells, option types, gap templates, schedules."""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

from lgcert.cli import (
    ScenarioError,
    SweepSpec,
    _field,
    _number,
    _parse_schedule,
    main,
    run_sweep,
    scenario_from_dict,
    sweep_to_csv,
)
from lgcert.protocols import Schedule
from lgcert.qcore import matrix_to_json


def lg3_scenario(**overrides):
    data = {
        "dimension": 2,
        "initial_state": "maximally_mixed",
        "hamiltonian": {"preset": "precession", "frequency": 1.0},
        "observable": "sigma_z",
        "schedule": [np.pi / 3, 2 * np.pi / 3, np.pi],
        "protocol": {"mode": "projective_dephased"},
        "checks": ["LG3"],
        "shots": 0,
        "seed": 0,
    }
    data.update(overrides)
    return data


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_list_valued_sweep_cells_are_quoted():
    spec = SweepSpec(lg3_scenario(), "protocol.dephase_times", ([1], [1, 2], [5]))
    rows = run_sweep(spec)
    assert [r["error"] == "" for r in rows] == [True, True, False]
    text = sweep_to_csv(rows)
    lines = text.splitlines()
    assert lines[2].startswith('"[1, 2]",')
    parsed = list(csv.reader(io.StringIO(text)))
    assert {len(row) for row in parsed} == {len(parsed[0])} == {6}  # value, LG3-1..4, error
    assert [row[0] for row in parsed[1:]] == ["[1]", "[1, 2]", "[5]"]
    # the error column still reads back as the row's message
    assert parsed[3][-1] == rows[2]["error"].replace('"', "'")


def test_value_cells_with_quotes_double_them():
    rows = [{"value": 'a"b', "margins": {}, "verdict": "error", "error": "x"}]
    assert sweep_to_csv(rows).splitlines()[1] == '"a""b","x"'
    assert next(csv.reader(io.StringIO(sweep_to_csv(rows).splitlines()[1])))[0] == 'a"b'


def test_plain_value_cells_keep_their_bytes():
    rows = [
        {"value": 0.25, "margins": {"LG3-1": 1.0}, "verdict": "all_satisfied", "error": ""},
        {"value": "inrm", "margins": {"LG3-1": 0.5}, "verdict": "all_satisfied", "error": ""},
        {"value": 3, "margins": {}, "verdict": "error", "error": "boom"},
    ]
    assert sweep_to_csv(rows) == 'value,"LG3-1",error\n0.25,1.0,\ninrm,0.5,\n3.0,,"boom"\n'


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]])
def test_non_boolean_derive_lower_moments_rejected(value, tmp_path, capsys):
    with pytest.raises(ScenarioError, match="derive_lower_moments"):
        scenario_from_dict(lg3_scenario(derive_lower_moments=value))
    path = write_json(tmp_path, "lg3.json", lg3_scenario(derive_lower_moments=value))
    assert main(["certify", path]) == 2
    assert capsys.readouterr().err.startswith("error: derive_lower_moments: must be true or false")


@pytest.mark.parametrize("value", [True, False])
def test_boolean_derive_lower_moments_accepted(value):
    assert scenario_from_dict(lg3_scenario(derive_lower_moments=value)).derive_lower_moments is value


@pytest.mark.parametrize("schedule", [None, 5])
def test_bad_gap_template_gives_error_rows(schedule):
    rows = run_sweep(SweepSpec({"schedule": schedule}, "schedule.gap", (1.0, 2.0)))
    assert [r["verdict"] for r in rows] == ["error", "error"]
    assert all(r["error"].startswith("schedule.gap:") for r in rows)


@pytest.mark.parametrize("value", [12.9, 2.5, True, False, "abc", None, float("inf")])
@pytest.mark.parametrize("name", ["shots", "seed", "dimension"])
def test_integer_fields_reject_non_integers(name, value, tmp_path, capsys):
    with pytest.raises(ScenarioError, match=f"^{name}: "):
        scenario_from_dict(lg3_scenario(**{name: value}))
    if value != float("inf"):  # JSON has no infinity
        path = write_json(tmp_path, "lg3.json", lg3_scenario(**{name: value}))
        assert main(["certify", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name}: ")


def test_shots_inside_protocol_are_named_there():
    with pytest.raises(ScenarioError, match=r"^protocol\.shots: must be an integer, got 12\.9"):
        data = lg3_scenario(protocol={"mode": "projective", "shots": 12.9})
        del data["shots"]
        scenario_from_dict(data)


@pytest.mark.parametrize("name, value", [("shots", 1000), ("shots", 1000.0), ("seed", 7), ("seed", 7.0),
                                         ("dimension", 2), ("dimension", 2.0)])
def test_integral_values_are_accepted(name, value):
    scenario = scenario_from_dict(lg3_scenario(**{name: value}))
    assert getattr(scenario, name) == value and type(getattr(scenario, name)) is int


def test_non_integral_sweep_values_become_error_rows():
    rows = run_sweep(SweepSpec(lg3_scenario(shots=100), "shots", (100, 12.9, True)))
    assert [r["error"] for r in rows] == [
        "", "shots: must be an integer, got 12.9", "shots: must be an integer, got True"
    ]


# A kick generator of another dimension than the system's parses; the kernel
# rejects it when it applies the kick, for that row alone.
KICK4 = {"kind": "unitary_kick", "strength": 0.3, "generator": matrix_to_json(np.diag([1.0, -1.0, 0.5, 0.0]))}
KICK_MISMATCH = "apply_clumsiness: dimensions differ (2 vs 4)"


@pytest.mark.parametrize("shots", [0, 100])
def test_mismatched_kick_generator_is_a_dimension_error(shots, tmp_path, capsys):
    data = lg3_scenario(protocol={"mode": "projective", "clumsiness": KICK4}, shots=shots)
    assert main(["certify", write_json(tmp_path, "kick.json", data)]) == 2
    assert capsys.readouterr().err == f"error: {KICK_MISMATCH}\n"
    sweep = {"scenario": data, "parameter": "schedule.gap", "values": [0.5, 1.0]}
    assert main(["sweep", write_json(tmp_path, "sweep.json", sweep)]) == 0
    assert capsys.readouterr().out == f'value,error\n0.5,"{KICK_MISMATCH}"\n1.0,"{KICK_MISMATCH}"\n'
    rows = run_sweep(SweepSpec(data, "dimension", (2, 4)))
    assert rows[0]["error"] == KICK_MISMATCH
    assert rows[1]["error"].startswith("hamiltonian: ")


def many_valued_scenario(labels):
    projectors = [matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.diag([0.0, 1.0]))]
    return lg3_scenario(observable={"projectors": projectors, "labels": labels}, checks=["NSIT"])


@pytest.mark.parametrize("name, data, message", [
    ("dephase.json", lg3_scenario(protocol={"mode": "projective_dephased", "dephase_times": [1.5]}),
     "protocol.dephase_times: must be an integer, got 1.5"),
    ("dephase.json", lg3_scenario(protocol={"mode": "projective_dephased", "dephase_times": [True]}),
     "protocol.dephase_times: must be an integer, got True"),
    ("dephase.json", lg3_scenario(protocol={"mode": "projective_dephased", "dephase_times": "12"}),
     "protocol.dephase_times: must be a list of integers, got '12'"),
    ("dephase.json", lg3_scenario(protocol={"mode": "projective_dephased", "dephase_times": 1}),
     "protocol.dephase_times: must be a list of integers, got 1"),
    ("labels.json", many_valued_scenario([1.5, 2]), "observable.labels: must be an integer, got 1.5"),
    ("labels.json", many_valued_scenario([True, 2]), "observable.labels: must be an integer, got True"),
    ("labels.json", many_valued_scenario("12"), "observable.labels: must be a list of integers, got '12'"),
])
def test_integer_list_fields_reject_non_integers(name, data, message, tmp_path, capsys):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(data)
    assert str(info.value) == message
    assert main(["certify", write_json(tmp_path, name, data)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_integral_list_entries_are_accepted():
    dephased = scenario_from_dict(lg3_scenario(protocol={"mode": "projective_dephased", "dephase_times": [2.0, 1]}))
    assert dephased.config.dephase_times == (1, 2)
    assert scenario_from_dict(lg3_scenario(protocol={"dephase_times": []})).config.dephase_times is None
    assert scenario_from_dict(many_valued_scenario([3.0, -1])).observable.labels == (3, -1)


KICK2 = {"kind": "unitary_kick", "strength": 0.3, "generator": matrix_to_json(np.diag([1.0, -1.0]))}


@pytest.mark.parametrize("data, message", [
    (lg3_scenario(schedule=[True, 2, 3]), "schedule: must be a number, got True"),
    (lg3_scenario(schedule=["1", "2", "3"]), "schedule: must be a number, got '1'"),
    (lg3_scenario(schedule=[1.0, None, 3.0]), "schedule: must be a number, got None"),
    (lg3_scenario(hamiltonian={"preset": "precession", "frequency": True}),
     "hamiltonian.frequency: must be a number, got True"),
    (lg3_scenario(hamiltonian={"preset": "precession", "frequency": "1.0"}),
     "hamiltonian.frequency: must be a number, got '1.0'"),
    (lg3_scenario(protocol={"mode": "projective", "clumsiness": {"kind": "depolarizing", "strength": True}}),
     "protocol.clumsiness.strength: must be a number, got True"),
    (lg3_scenario(protocol={"mode": "projective", "clumsiness": {"kind": "depolarizing", "strength": "0.1"}}),
     "protocol.clumsiness.strength: must be a number, got '0.1'"),
    (lg3_scenario(protocol={"mode": "projective", "clumsiness": dict(KICK2, strength=False)}),
     "protocol.clumsiness.strength: must be a number, got False"),
    (lg3_scenario(checks="LG3"), "checks: must be a list, got 'LG3'"),
    (lg3_scenario(checks=5), "checks: must be a list, got 5"),
])
def test_number_fields_and_checks_reject_wrong_types(data, message, tmp_path, capsys):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(data)
    assert str(info.value) == message
    assert main(["certify", write_json(tmp_path, "bad.json", data)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_numbers_of_either_type_are_accepted():
    scenario = scenario_from_dict(lg3_scenario(
        schedule=[1, 2.5, 3],
        hamiltonian={"preset": "precession", "frequency": 2},
        protocol={"mode": "projective", "clumsiness": {"kind": "depolarizing", "strength": 0}},
        checks=("LG3",),
    ))
    assert scenario.schedule.times == (1.0, 2.5, 3.0)
    assert scenario.config.clumsiness.strength == 0.0 and scenario.checks == ("LG3",)
    assert np.array_equal(scenario.hamiltonian.matrix, scenario_from_dict(
        lg3_scenario(hamiltonian={"preset": "precession", "frequency": 2.0})).hamiltonian.matrix)


def constructed_schedule(values):
    """The schedule field as ``Schedule``'s own constructor reads it, after ``_number`` read each time."""
    return _field("schedule", lambda: Schedule(tuple(_number("schedule", t) for t in values)))


@pytest.mark.parametrize("values", [
    [0.5, 1, 2.5], [np.float64(0.5), np.int64(2)], [3], [], [0.0, 1.0], [-1, 2], [1.0, 1.0], [2.0, 1.0],
    [1.0, float("nan")], [1.0, float("inf")], [1, 10**400], [True], ["1"], [None], None, 5, "12", {"a": 1},
])
def test_schedule_parse_reads_each_time_once_as_the_constructor_would(values):
    try:
        want = constructed_schedule(values)
    except ScenarioError as exc:
        with pytest.raises(ScenarioError) as info:
            _parse_schedule({"schedule": values})
        assert str(info.value) == str(exc)
        return
    got = _parse_schedule({"schedule": values})
    assert got == want and all(type(t) is float for t in got.times)


@pytest.mark.parametrize("parameter, values, message", [
    ("schedule.gap", (0.5, "0.5", True), "schedule.gap: must be a number, got {!r}"),
    ("protocol.clumsiness.strength", (0.1, "0.1", True), "protocol.clumsiness.strength: must be a number, got {!r}"),
])
def test_non_numeric_sweep_values_become_error_rows(parameter, values, message):
    template = lg3_scenario(protocol={"mode": "projective", "clumsiness": {"kind": "depolarizing", "strength": 0.0}})
    rows = run_sweep(SweepSpec(template, parameter, values))
    assert [r["error"] for r in rows] == [""] + [message.format(v) for v in values[1:]]


def matrix_with(entry, dim=2):
    """A JSON matrix of zeros whose (0, 0) pair is ``entry``."""
    data = [[[0.0, 0.0] for _ in range(dim)] for _ in range(dim)]
    data[0][0] = entry
    return data


PROJECTORS = [matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.diag([0.0, 1.0]))]


def matrix_fields(entry):
    """(field prefix of the message, scenario) for each matrix-valued field given ``entry``."""
    kick = {"kind": "unitary_kick", "strength": 0.3, "generator": matrix_with(entry)}
    return [
        ("initial_state", lg3_scenario(initial_state=matrix_with(entry))),
        ("hamiltonian", lg3_scenario(hamiltonian=matrix_with(entry))),
        ("observable", lg3_scenario(observable=matrix_with(entry))),
        ("observable projector 1",
         lg3_scenario(observable={"projectors": [PROJECTORS[0], matrix_with(entry)]}, checks=["NSIT"])),
        ("protocol.clumsiness.generator",
         lg3_scenario(protocol={"mode": "projective", "clumsiness": kick})),
    ]


@pytest.mark.parametrize("entry, bad", [
    ([True, 0.0], True), ([1.0, False], False), (["1", 0.0], "'1'"), ([0.0, "0"], "'0'"),
    ([None, 0.0], None), ([1.0, [0.0]], [0.0]),
])
@pytest.mark.parametrize("index", range(5), ids=["state", "hamiltonian", "observable", "projector", "kick"])
def test_matrix_entries_reject_non_numbers(entry, bad, index, tmp_path, capsys):
    prefix, data = matrix_fields(entry)[index]
    message = f"{prefix}: entries must be numbers, got {bad}"
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(data)
    assert str(info.value) == message
    assert main(["certify", write_json(tmp_path, "matrix.json", data)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_matrix_entry_too_large_for_a_float_is_an_error(tmp_path, capsys):
    data = lg3_scenario(initial_state=matrix_with([10**400, 0]))
    with pytest.raises(ScenarioError, match="^initial_state: .*too large"):
        scenario_from_dict(data)
    assert main(["certify", write_json(tmp_path, "matrix.json", data)]) == 2


def test_matrix_entries_of_either_number_type_are_accepted():
    mixed = [[[1, 0], [0.0, 0]], [[0, 0.0], [0, 0]]]
    floats = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    state = scenario_from_dict(lg3_scenario(initial_state=mixed)).initial_state.matrix
    assert np.array_equal(state, scenario_from_dict(lg3_scenario(initial_state=floats)).initial_state.matrix)
    assert state.dtype == complex


def test_non_numeric_matrix_sweep_values_become_error_rows():
    good = matrix_to_json(np.diag([1.0, 0.0]))
    rows = run_sweep(SweepSpec(lg3_scenario(), "initial_state", (good, matrix_with([True, 0.0]), good)))
    assert [r["error"] for r in rows] == [
        "", "initial_state: entries must be numbers, got True", ""
    ]
