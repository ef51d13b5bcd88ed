"""The library entry points run on the same row set and runner as the CLI.

``run_nsit_pair`` must give, byte for byte, the ``nsit:12`` and ``nsit:2``
tables of a certification with the NSIT check: the same kernel run, the same
INRM detector configurations, each sampled with its own discard cell, and
the same child seeds in the same order.  ``experiment_distribution`` must
give the table the runner keeps for the same experiment.
"""

from __future__ import annotations

import pytest

from lgcert.cli import run_certification, scenario_from_dict
from lgcert.protocols import (
    MODES,
    ProtocolConfig,
    Schedule,
    experiment_distribution,
    run_nsit_pair,
    table_to_json,
)
from lgcert.qcore import (
    ClumsinessModel,
    DensityOperator,
    DichotomicObservable,
    Hamiltonian,
    ManyValuedObservable,
    ValidationError,
)

MIXED = DensityOperator.maximally_mixed(2)
H1 = Hamiltonian.precession(1.0)
QZ = DichotomicObservable.sigma_z()

CLUMSINESS = {
    "none": ({"kind": "none"}, ClumsinessModel.none()),
    "depolarizing": ({"kind": "depolarizing", "strength": 0.1}, ClumsinessModel.depolarizing(0.1)),
}


def nsit_scenario(mode, shots, clumsiness, checks=("NSIT",)):
    return {
        "dimension": 2,
        "initial_state": "maximally_mixed",
        "hamiltonian": {"preset": "precession", "frequency": 1.0},
        "observable": "sigma_z",
        "schedule": [0.7, 1.9],
        "protocol": {"mode": mode, "clumsiness": CLUMSINESS[clumsiness][0]},
        "checks": list(checks),
        "shots": shots,
        "seed": 5,
    }


@pytest.mark.parametrize("clumsiness", sorted(CLUMSINESS))
@pytest.mark.parametrize("shots", [0, 1000])
@pytest.mark.parametrize("mode", MODES)
def test_run_nsit_pair_is_the_certification_nsit_pair(mode, shots, clumsiness):
    report = run_certification(scenario_from_dict(nsit_scenario(mode, shots, clumsiness)))
    experiments = report["experiments"]
    (pair_key,) = [k for k in experiments if k.startswith("nsit:12")]
    (companion_key,) = [k for k in experiments if k.startswith("nsit:2")]

    config = ProtocolConfig(mode=mode, clumsiness=CLUMSINESS[clumsiness][1], shots=shots)
    pair, companion = run_nsit_pair(MIXED, H1, QZ, 0.7, 1.9, config, seed=5)
    assert table_to_json(pair) == experiments[pair_key]
    assert table_to_json(companion) == experiments[companion_key]


@pytest.mark.parametrize("mode", MODES)
def test_experiment_distribution_is_the_runner_table(mode):
    data = nsit_scenario(mode, 0, "depolarizing", checks=("LG3",))
    data["schedule"] = [0.7, 1.9, 2.6]
    report = run_certification(scenario_from_dict(data))
    config = ProtocolConfig(mode=mode, clumsiness=ClumsinessModel.depolarizing(0.1))
    for measured in [(1, 2), (2, 3), (1, 3)]:
        table = experiment_distribution(MIXED, H1, QZ, Schedule((0.7, 1.9, 2.6)), measured, config)
        (key,) = [k for k in report["experiments"] if k.split("_")[0] == "".join(map(str, measured))]
        assert table_to_json(table) == report["experiments"][key]


@pytest.mark.parametrize("mode", ["inrm", "inrm_dephased"])
def test_inrm_mechanism_off_the_read_outs_runs_the_projective_counterpart(mode):
    # a detector cannot sit at a time that is not read out; like a
    # certification, the library runs the entrywise-equal projective experiment
    schedule = Schedule((0.7, 1.9, 2.6))
    counterpart = "projective" if mode == "inrm" else "projective_dephased"
    got = experiment_distribution(
        MIXED, H1, QZ, schedule, (1, 3), ProtocolConfig(mode=mode, dephase_times=(2,))
    )
    want = experiment_distribution(
        MIXED, H1, QZ, schedule, (1, 3), ProtocolConfig(mode=counterpart, dephase_times=(2,))
    )
    assert table_to_json(got) == table_to_json(want)


def test_inrm_needs_one_dichotomic_observable():
    many_valued = ManyValuedObservable.computational(2)
    with pytest.raises(ValidationError, match="single dichotomic observable"):
        experiment_distribution(
            MIXED, H1, [QZ, many_valued], Schedule((0.7, 1.9)), None, ProtocolConfig(mode="inrm")
        )
    same = experiment_distribution(MIXED, H1, [QZ, QZ], Schedule((0.7, 1.9)), None, ProtocolConfig(mode="inrm"))
    alone = experiment_distribution(MIXED, H1, QZ, Schedule((0.7, 1.9)), None, ProtocolConfig(mode="inrm"))
    assert table_to_json(same) == table_to_json(alone)
