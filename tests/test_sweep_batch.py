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
objects, a template that is invalid while its rows are valid, and a
520-row gap sweep at four times, whose last read-out's tall products,
folded across rows, span more than one block.

Exact rows are certified as columns, one group of rows at a time, so further
exact sweeps reach every columnar branch: four times with LG4, NONNEG3 and
NONNEG4; APPENDIX, whose A-WBOUND entries appear on some rows only; moments
derived from one table, in INRM modes; exact INRM; many-valued observables
with NSIT, NSIT3 and MONO; checks sweeps, whose rows share a batch
signature but not their checks; and a state whose small-gap tables fail
validation.  The column path's validation is checked against the tables'
own, and it builds no per-row table at all.  Kick-generator sweeps, exact
and at finite shots, mix generators of the system's dimension with ones of
another, whose rows must fail alone.

Finite-shot rows are certified as columns as well, each row drawing its own
multinomials, so finite-shot sweeps reach every column evaluator with
sampled tables: four times with LG4, NONNEG3 and NONNEG4; moments derived
from one sampled table in ``inrm`` and in ``projective``; NSIT3 and MONO on
a many-valued observable; APPENDIX; an ``ancilla_blind`` strength sweep; a
gap where every outcome is certain, so that every variance is 0; and an
INRM seed sweep whose two-time marginals exceed 1 on some rows, which fail
alone.  Each row draws the same child-seed streams as its own certification,
and a 64-row finite-shot gap sweep builds no per-row table; the rows' column
statistics are checked in ``test_finite_shot_columns.py``.
"""

from __future__ import annotations

import copy
from collections import Counter

import numpy as np
import pytest

from lgcert.cli import SweepSpec, run_certification, run_sweep, scenario_from_dict
from lgcert.protocols import MODES, OutcomeTable, _RowSet, _table_errors
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


def many_valued_template(seed, d, mode, checks):
    """A random template whose observable has d outcomes, labelled out of order, in a random basis."""
    template = random_template(seed, d, mode, checks)
    basis, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    projectors = [matrix_to_json(np.outer(basis[:, k], basis[:, k])) for k in range(d)]
    labels = [3 * k - 2 for k in range(d)][::-1]
    return dict(template, observable={"projectors": projectors, "labels": labels})


# A state with an eigenvalue of -5e-11, inside the density-operator tolerance:
# at small gaps an entry of its exact table leaves [0, 1] by more than 1e-12,
# so those rows fail validation while the others run.
NEARLY_PSD_STATE = [[[1.0 + 5e-11, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-5e-11, 0.0]]]


# Finite-shot rows share child seeds and generator states within a sweep unless
# their seeds differ: the seed sweep repeats some seeds and changes others.
D2_INRM_SHOTS = dict(
    with_protocol(README_SCENARIO, mode="inrm", clumsiness={"kind": "depolarizing", "strength": 0.05}),
    shots=1000, seed=7,
)

KICK = {"kind": "unitary_kick", "strength": 0.2, "generator": matrix_to_json(
    random_hermitian(np.random.default_rng(5), 4))}

KICK_GENERATORS = [matrix_to_json(random_hermitian(np.random.default_rng(13), 2)), KICK["generator"],
                   matrix_to_json(random_hermitian(np.random.default_rng(14), 2)), KICK["generator"]]

# A d = 4 system whose second read-out is +1 whatever the first one gave: the
# unitary at each gap swaps |0> and |3> and fixes |1>, and the state at t1 is
# (|1> + |3>)/sqrt(2).  An INRM run samples p(+1, +1) and p(-1, +1) from two
# independent configurations, so their sum, a marginal entry of 1 in exact
# mode, exceeds 1 on some seeds, and such rows fail validation alone.
_SWAP = np.zeros((4, 4))
_SWAP[0, 3] = _SWAP[3, 0] = np.pi / 2
_PHI = np.array([1j, 1.0, 0.0, 0.0]) / np.sqrt(2)
INRM_SPLIT = {
    "dimension": 4,
    "initial_state": matrix_to_json(np.outer(_PHI, _PHI.conj())),
    "hamiltonian": matrix_to_json(_SWAP),
    "observable": matrix_to_json(np.diag([1.0, 1.0, 1.0, -1.0])),
    "schedule": [1.0, 2.0, 3.0],
    "protocol": {"mode": "inrm"},
    "checks": ["LG3", "NSIT", "MONO"],
    "shots": 1000,
    "seed": 1,
}

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
    # Exact rows are certified as columns; these reach every columnar branch.
    "m4-lg4-nonneg": (
        random_template(6, 4, "projective_dephased",
                        ["LG4", "NONNEG3", "NONNEG4", "LG3", "LG2", "NSIT3"], m=4),
        "schedule.gap", [0.3, 0.55, 0.8, 1.05, -0.2, 1.3],
    ),
    "appendix-wbound-some-rows": (
        random_template(3, 2, "projective", ["APPENDIX", "LG3", "NSIT", "MONO"]),
        "schedule.gap", [0.2, 0.5, 0.9, 1.3, 1.7, 2.1, 2.6, 3.0],
    ),
    "derive-inrm-strength": (
        dict(random_template(7, 2, "inrm", ["LG3", "LG2", "NONNEG3", "NSIT", "MONO"]),
             derive_lower_moments=True),
        "protocol.clumsiness.strength", [0.0, 0.05, 0.3, 0.05, 0.8],
    ),
    "derive-m4-inrm-dephased": (
        dict(random_template(8, 4, "inrm_dephased", ["NONNEG4", "LG4", "NSIT", "NSIT3"], m=4),
             derive_lower_moments=True),
        "schedule.gap", [0.25, 0.5, 0.75, 1.0],
    ),
    "inrm-exact-gap": (
        with_protocol(README_SCENARIO, mode="inrm", clumsiness={"kind": "depolarizing", "strength": 0.1}),
        "schedule.gap", [0.3, 0.7, 1.1, -0.4, 1.5, 0.7],
    ),
    "many-valued-gap": (
        many_valued_template(9, 3, "ancilla_blind", ["NSIT", "NSIT3", "MONO"]),
        "schedule.gap", [0.3, 0.6, 0.9, 1.2],
    ),
    "many-valued-checks": (
        many_valued_template(10, 3, "projective", ["NSIT", "MONO"]),
        "checks", [["NSIT", "LG3", "MONO"], ["NSIT", "MONO"], ["APPENDIX"], ["MONO"]],
    ),
    "many-valued-mode": (
        many_valued_template(10, 3, "projective", ["NSIT", "MONO"]),
        "protocol.mode", ["projective", "inrm", "projective_dephased", "projective"],
    ),
    "checks": (
        random_template(11, 2, "projective_dephased", ["LG3"]),
        "checks",
        [["LG3"], ["LG3", "NSIT"], ["MONO", "LG2"], ["LG3"], ["LG4", "NSIT"], ["NSIT3", "APPENDIX"],
         [], ["NONNEG3", "LG3", "NSIT"], ["BOGUS"]],
    ),
    "invalid-exact-table": (
        dict(README_SCENARIO, initial_state=NEARLY_PSD_STATE, checks=["LG3", "NSIT", "MONO"]),
        "schedule.gap", [1e-6, 0.3, 2e-6, 1.0, 1e-7, 1.4],
    ),
    # Kick generators of the system's dimension share a kernel call, one kick
    # unitary per row; a generator of another dimension fails its row alone.
    "kick-generator": (
        with_protocol(README_SCENARIO, clumsiness=dict(KICK, generator=KICK_GENERATORS[0])),
        "protocol.clumsiness.generator", KICK_GENERATORS,
    ),
    "kick-generator-shots": (
        dict(with_protocol(README_SCENARIO, mode="inrm", clumsiness=dict(KICK, generator=KICK_GENERATORS[0])),
             shots=500),
        "protocol.clumsiness.generator", KICK_GENERATORS,
    ),
    # Exact and finite-shot rows in one sweep; finite-shot rows whose checks differ.
    "d2-inrm-shots-with-exact": (D2_INRM_SHOTS, "shots", [0, 1000, 0, 250, 1000]),
    "checks-shots": (
        D2_INRM_SHOTS,
        "checks",
        [["LG3"], ["LG3", "NSIT"], ["MONO", "LG2"], ["LG3"], ["NSIT3", "NSIT"], ["NONNEG3", "LG3", "NSIT"]],
    ),
    # Finite-shot rows through every column evaluator.
    "m4-lg4-nonneg-shots": (
        dict(random_template(6, 4, "projective_dephased",
                             ["LG4", "NONNEG3", "NONNEG4", "LG3", "LG2", "NSIT3"], m=4), shots=800),
        "schedule.gap", [0.3, 0.55, 0.8, -0.2, 1.3],
    ),
    "derive-inrm-shots": (
        dict(random_template(7, 2, "inrm", ["LG3", "LG2", "NONNEG3", "NSIT", "MONO"]),
             derive_lower_moments=True, shots=600),
        "protocol.clumsiness.strength", [0.0, 0.05, 0.3, 0.05, 0.8],
    ),
    "derive-projective-shots": (
        dict(random_template(12, 3, "projective", ["NONNEG3", "LG2", "LG3", "NSIT"]),
             derive_lower_moments=True, shots=700),
        "schedule.gap", [0.2, 0.6, 1.0, 1.4],
    ),
    "many-valued-shots": (
        dict(many_valued_template(9, 3, "ancilla_blind", ["NSIT", "NSIT3", "MONO"]), shots=500),
        "schedule.gap", [0.3, 0.6, 0.9, 1.2],
    ),
    "appendix-shots": (
        dict(random_template(3, 2, "projective", ["APPENDIX", "LG3", "NSIT", "MONO"]), shots=300),
        "schedule.gap", [0.2, 0.9, 1.7, 2.6, 3.0],
    ),
    "d4-ancilla-blind-strength-shots": (
        dict(random_template(1, 4, "ancilla_blind", ["LG3", "NSIT", "NSIT3", "MONO"]), shots=400),
        "protocol.clumsiness.strength", [0.05, 0.2, 1.5, 0.5],
    ),
    # From the ground state at tiny gaps every outcome is certain: every
    # frequency is 0 or 1, every variance 0, and verdicts use VERDICT_TOL.
    "deterministic-shots": (
        dict(README_SCENARIO, initial_state="ground", shots=1000,
             checks=["LG3", "LG2", "NSIT", "MONO", "NONNEG3"]),
        "schedule.gap", [1e-4, 0.5, 1e-3, 1.0],
    ),
    # 520 rows at four times: each outcome of the fourth read-out is one tall
    # product of 16 R rows at d = 2, more than one block of 8,192.
    "d2-m4-gap-520-rows": (
        dict(README_SCENARIO, schedule=[0.3, 0.6, 0.9, 1.2], checks=["LG4", "NONNEG4", "NSIT"]),
        "schedule.gap", [0.05 + 0.005 * k for k in range(520)],
    ),
    "inrm-marginal-above-one": (INRM_SPLIT, "seed", [1, 2, 3, 4, 5, 6]),
    "inrm-marginal-above-one-derived": (
        dict(INRM_SPLIT, derive_lower_moments=True, checks=["LG3", "LG2", "NSIT"]), "seed", [1, 4, 5, 6],
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


def test_exact_gap_sweep_builds_no_outcome_tables(monkeypatch):
    built = []
    post_init = OutcomeTable.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(OutcomeTable, "__post_init__", counted)
    gaps = tuple(0.05 + 0.05 * k for k in range(64))
    rows = run_sweep(SweepSpec(template=README_SCENARIO, parameter="schedule.gap", values=gaps))
    assert all(r["verdict"] == "violations" for r in rows)
    assert len(built) == 0


def test_group_rows_keep_their_first_error():
    # Small gaps fail table validation at the first moment's experiment; the
    # other row reaches the moment step, where the observable's labels fail.
    template = dict(
        README_SCENARIO,
        initial_state=NEARLY_PSD_STATE,
        observable={"projectors": [matrix_to_json(np.diag([1.0, 0.0])),
                                   matrix_to_json(np.diag([0.0, 1.0]))], "labels": [1, 2]},
        checks=["NSIT", "LG3"],
    )
    values = [1e-6, 0.5, 2e-6]
    rows = run_sweep(SweepSpec(template=template, parameter="schedule.gap", values=tuple(values)))
    assert [bits(r) for r in rows] == [bits(own_row(template, "schedule.gap", v)) for v in values]
    assert [r["error"].split(" ")[0] for r in rows] == ["probability", "moment", "probability"]


def table_error(outcomes, entries):
    try:
        OutcomeTable(slots=((1, -1), (1, -1)), probabilities=dict(zip(outcomes, entries)))
    except ValidationError as exc:
        return str(exc)
    return None


def test_column_validation_raises_what_each_table_would():
    rng = np.random.default_rng(12)
    outcomes = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    values = rng.dirichlet(np.ones(4), size=40)
    values[1, 2] = -1e-11
    values[2] = [1.0 + 2e-12, 0.0, 0.0, 0.0]
    values[3, 3] = np.nan
    values[4, 1] = -np.inf
    values[5] *= 1.0 + 3e-10
    values[6] *= 1.0 - 3e-10
    values[7] *= 1.0 + 5e-11
    values[8] = [-2e-12, 0.5, 0.5, 2e-12]
    values[9] = [-5e-13, 0.5, 0.5, 5e-13]
    expected = [table_error(outcomes, row) for row in values.tolist()]
    assert [i for i, e in enumerate(expected) if e] == [1, 2, 3, 4, 5, 6, 8]
    assert {e.split(" ")[0] for e in expected if e} == {"probability", "exact"}
    assert _table_errors(outcomes, values) == expected


def test_finite_shot_rows_sample_entries_that_fail_exact_validation():
    # A directly measured finite-shot experiment is sampled from its cleaned
    # exact entries, each clamped to [0, 1], without validating them as an
    # exact table first, as INRM configurations always are sampled.  So the
    # small-gap rows that fail as exact rows certify at finite shots.
    template, parameter, values = SWEEPS["invalid-exact-table"]
    exact = run_sweep(SweepSpec(template=template, parameter=parameter, values=tuple(values)))
    assert [r["verdict"] == "error" for r in exact] == [True, False] * 3
    sampled_template = dict(template, shots=500)
    rows = run_sweep(SweepSpec(template=sampled_template, parameter=parameter, values=tuple(values)))
    assert [r["verdict"] for r in rows] == ["all_satisfied", "violations"] * 3
    assert [bits(r) for r in rows] == [bits(own_row(sampled_template, parameter, v)) for v in values]


FINITE_SHOT_SWEEPS = [
    name for name, (template, parameter, values) in SWEEPS.items()
    if template.get("shots", 0) > 0 or parameter == "shots"
]


@pytest.mark.parametrize("name", FINITE_SHOT_SWEEPS)
def test_finite_shot_rows_draw_their_own_certifications_streams(name, monkeypatch):
    # Every draw goes through ``_RowSet.generator(seed, index)``.  A row's
    # draws are the seed's children 0, 1, ... in its own execution order, so
    # a sweep must ask, over all its rows, for exactly the (seed, index)
    # streams that the rows' own certifications ask for, each as often: no
    # row may skip, repeat or add a draw (one that has failed draws no more).
    # Rows of one group draw interleaved, experiment by experiment, so the
    # calls are compared as a multiset.
    calls = []
    generator = _RowSet.generator

    def recorded(self, seed, index):
        calls.append((seed, index))
        return generator(self, seed, index)

    monkeypatch.setattr(_RowSet, "generator", recorded)
    template, parameter, values = SWEEPS[name]
    run_sweep(SweepSpec(template=template, parameter=parameter, values=tuple(values)))
    swept = Counter(calls)
    calls.clear()
    for value in values:
        own_row(template, parameter, value)
    assert sum(swept.values()) > 0
    assert swept == Counter(calls)


def test_finite_shot_gap_sweep_builds_no_outcome_tables(monkeypatch):
    built = []
    post_init = OutcomeTable.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(OutcomeTable, "__post_init__", counted)
    gaps = tuple(0.05 + 0.05 * k for k in range(64))
    rows = run_sweep(SweepSpec(template=D2_INRM_SHOTS, parameter="schedule.gap", values=gaps))
    assert all(r["verdict"] != "error" for r in rows)
    assert len(built) == 0

