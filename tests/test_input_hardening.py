"""Malformed scenario and sweep inputs: list-valued sweep cells, option types, gap templates."""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

from lgcert.cli import ScenarioError, SweepSpec, main, run_sweep, scenario_from_dict, sweep_to_csv


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
