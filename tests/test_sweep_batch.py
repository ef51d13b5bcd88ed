"""Batched sweep rows against certifying each row on its own.

``run_sweep`` parses its template once, shares the parsed state, Hamiltonian
and observable between rows, and runs each experiment for all compatible
rows in one kernel call.  None of that may show in the results: every row
must equal ``run_certification`` on a scenario built for that row alone,
with margins equal bit for bit, the same verdict and the same error string.
The sweeps cover equal-gap and clumsiness-strength sweeps at d = 2, 4 and
16, finite shots, seed and shot-count sweeps whose rows share some seeds
and not others, a trivial clumsiness strength that splits the rows into
two kernel groups, unitary kicks, rows that share nothing (a mode sweep), a
dimension sweep over presets, which must not reuse the template's parsed
objects, and a template that is invalid while its rows are valid.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from lgcert.cli import SweepSpec, run_certification, run_sweep, scenario_from_dict
from lgcert.protocols import MODES
from lgcert.qcore import ValidationError, matrix_to_json

from conftest import random_density_matrix, random_dichotomic, random_hermitian

README_SCENARIO = {
    "dimension": 2,
    "initial_state": "maximally_mixed",
    "hamiltonian": {"preset": "precession", "frequency": 1.0},
    "observable": "sigma_z",
    "schedule": [1.0471975511965976, 2.0943951023931953, 3.141592653589793],
    "protocol": {"mode": "projective", "dephase_times": None, "clumsiness": {"kind": "none"}},
    "checks": ["LG3", "LG2", "NSIT", "MONO"],
    "shots": 0,
    "seed": 42,
}


def random_template(seed, d, mode, checks, clumsiness=None, m=3):
    rng = np.random.default_rng(seed)
    return {
        "dimension": d,
        "initial_state": matrix_to_json(random_density_matrix(rng, d)),
        "hamiltonian": matrix_to_json(random_hermitian(rng, d)),
        "observable": matrix_to_json(random_dichotomic(rng, d).matrix),
        "schedule": [0.4 * (k + 1) for k in range(m)],
        "protocol": {
            "mode": mode,
            "clumsiness": clumsiness or {"kind": "depolarizing", "strength": 0.05},
        },
        "checks": checks,
        "shots": 0,
        "seed": 11,
    }


def with_protocol(template, **protocol):
    return dict(template, protocol=dict(template["protocol"], **protocol))


# Finite-shot rows share child seeds and generator states within a sweep unless
# their seeds differ: the seed sweep repeats some seeds and changes others.
D2_INRM_SHOTS = dict(
    with_protocol(README_SCENARIO, mode="inrm", clumsiness={"kind": "depolarizing", "strength": 0.05}),
    shots=1000, seed=7,
)

KICK = {"kind": "unitary_kick", "strength": 0.2, "generator": matrix_to_json(
    random_hermitian(np.random.default_rng(5), 4))}

SWEEPS = {
    "readme-gap": (
        README_SCENARIO, "schedule.gap", [0.3, np.pi / 3, 0.9, -0.5, 1.7, 0.3, 2.2],
    ),
    "d4-ancilla-blind-strength": (
        random_template(1, 4, "ancilla_blind", ["LG3", "NSIT", "NSIT3", "MONO"]),
        "protocol.clumsiness.strength", [0.05, 0.1, 0.2, 1.5, 0.35, 0.5],
    ),
    "d2-inrm-gap-shots": (
        dict(with_protocol(README_SCENARIO, mode="inrm",
                           clumsiness={"kind": "depolarizing", "strength": 0.05}),
             shots=1000, seed=7),
        "schedule.gap", [0.6, 0.45, -1.2, 1.1, 0.2, 0.6],
    ),
    "d2-inrm-seed": (D2_INRM_SHOTS, "seed", [7, 3, 7, 11, 3, 7]),
    "d2-inrm-shots": (D2_INRM_SHOTS, "shots", [1000, 250, 1000, 4000, 250]),
    "d16-gap": (
        random_template(2, 16, "inrm_dephased", ["LG3", "NSIT", "NSIT3"]),
        "schedule.gap", [0.3, 0.55, 0.8, -0.1, 1.25],
    ),
    "strength-from-zero": (
        random_template(3, 2, "projective_dephased", ["LG3", "LG2", "NSIT", "NSIT3", "MONO"]),
        "protocol.clumsiness.strength", [0.0, 0.1, 0.0, 0.2, 0.3],
    ),
    "kick-strength-shots": (
        dict(random_template(4, 4, "projective", ["LG3", "NSIT", "APPENDIX"], clumsiness=KICK),
             shots=2000),
        "protocol.clumsiness.strength", [0.0, 0.2, 0.5, 0.9],
    ),
    "mode": (
        random_template(5, 4, "projective", ["LG3", "LG2", "NSIT", "NSIT3", "MONO"]),
        "protocol.mode", [*MODES, "bogus", "projective"],
    ),
    "dimension": (README_SCENARIO, "dimension", [2, 4, 2]),
    "invalid-template-gap": (
        dict(README_SCENARIO, schedule=[2.0, 1.0, 3.0]), "schedule.gap", [0.4, 0.8, 1.6],
    ),
}


def own_row(template, parameter, value) -> dict:
    """One row certified on its own: a deep-copied scenario, parsed and run alone."""
    data = copy.deepcopy(template)
    if parameter == "schedule.gap":
        data["schedule"] = [float(value) * (k + 1) for k in range(len(template["schedule"]))]
    else:
        node = data
        *parents, leaf = parameter.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    try:
        report = run_certification(scenario_from_dict(data))
    except ValidationError as exc:
        return {"value": value, "margins": {}, "verdict": "error", "error": str(exc)}
    margins = {c["id"]: c["margin"] for c in report["conditions"]}
    margins.update({w["id"]: w["max_abs"] for w in report["witnesses"]})
    return {"value": value, "margins": margins, "verdict": report["verdict"], "error": ""}


def bits(row):
    return (row["value"], list(row["margins"]), [float(v).hex() for v in row["margins"].values()],
            row["verdict"], row["error"])


@pytest.mark.parametrize("name", SWEEPS)
def test_every_row_is_its_own_certification(name):
    template, parameter, values = SWEEPS[name]
    rows = run_sweep(SweepSpec(template=template, parameter=parameter, values=tuple(values)))
    expected = [own_row(template, parameter, v) for v in values]
    assert [bits(r) for r in rows] == [bits(r) for r in expected]
    assert any(r["verdict"] != "error" for r in rows)


@pytest.mark.parametrize("name", ["readme-gap", "d4-ancilla-blind-strength", "d16-gap",
                                  "strength-from-zero", "mode"])
def test_one_eigendecomposition_per_sweep(name, monkeypatch):
    template, parameter, values = SWEEPS[name]
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rows = run_sweep(SweepSpec(template=template, parameter=parameter, values=tuple(values)))
    assert sum(r["verdict"] != "error" for r in rows) >= 3
    assert len(calls) == 1
