"""How a row set splits its rows into groups, and what each group shares.

Rows that share a batch signature, their checks and their moment source form
one group, in row order, capped so that one kernel call over the whole
schedule holds at most ``_BATCH_ENTRIES`` entries.  Each group runs each
experiment once for all its rows.  These tests pin the number of kernel
calls that grouping gives, the cap at a small ``_BATCH_ENTRIES``, and that
groups leave no reference cycle behind them.
"""

from __future__ import annotations

import gc

import pytest

from lgcert import protocols
from lgcert.cli import SweepSpec, run_certification, run_sweep, scenario_from_dict

from test_sweep_batch import D2_INRM_SHOTS, INRM_SPLIT, README_SCENARIO, SWEEPS, bits, own_row

# Kernel calls per ``SWEEPS`` entry.  ``checks-shots`` is a finite-shot sweep
# whose rows differ in their checks, so each set of checks is its own group.
KERNEL_CALLS = {
    "readme-gap": 7,
    "d4-ancilla-blind-strength": 8,
    "d2-inrm-gap-shots": 7,
    "d2-inrm-seed": 7,
    "d2-inrm-shots": 21,
    "d16-gap": 8,
    "strength-from-zero": 22,
    "kick-strength-shots": 8,
    "mode": 55,
    "dimension": 7,
    "invalid-template-gap": 21,
    "m4-lg4-nonneg": 18,
    "appendix-wbound-some-rows": 4,
    "derive-inrm-strength": 6,
    "derive-m4-inrm-dephased": 7,
    "inrm-exact-gap": 7,
    "many-valued-gap": 6,
    "many-valued-checks": 7,
    "many-valued-mode": 4,
    "checks": 26,
    "invalid-exact-table": 4,
    "kick-generator": 8,
    "kick-generator-shots": 9,
    "d2-inrm-shots-with-exact": 21,
    "checks-shots": 28,
    "m4-lg4-nonneg-shots": 18,
    "derive-inrm-shots": 6,
    "derive-projective-shots": 3,
    "many-valued-shots": 6,
    "appendix-shots": 4,
    "d4-ancilla-blind-strength-shots": 8,
    "deterministic-shots": 8,
    "inrm-marginal-above-one": 4,
    "inrm-marginal-above-one-derived": 3,
}

GAPS = tuple(0.05 + 0.05 * k for k in range(64))


@pytest.fixture
def kernel_rows(monkeypatch):
    """The number of rows of every kernel call, in call order."""
    calls: list[int] = []
    propagate = protocols._propagate

    def counted(rho, h, observables, times, *args, **kwargs):
        calls.append(len(times))
        return propagate(rho, h, observables, times, *args, **kwargs)

    monkeypatch.setattr(protocols, "_propagate", counted)
    return calls


def sweep(name):
    template, parameter, values = SWEEPS[name]
    return run_sweep(SweepSpec(template=template, parameter=parameter, values=tuple(values)))


def test_every_sweep_entry_has_a_pinned_count():
    assert set(KERNEL_CALLS) == set(SWEEPS)


@pytest.mark.parametrize("name", SWEEPS)
def test_kernel_calls_per_sweep(name, kernel_rows):
    sweep(name)
    assert len(kernel_rows) == KERNEL_CALLS[name]


@pytest.mark.parametrize("template", [README_SCENARIO, D2_INRM_SHOTS], ids=["exact", "shots"])
def test_a_64_row_gap_sweep_runs_each_experiment_once(template, kernel_rows):
    rows = run_sweep(SweepSpec(template=template, parameter="schedule.gap", values=GAPS))
    assert all(r["verdict"] != "error" for r in rows)
    assert kernel_rows == [64] * 7
    kernel_rows.clear()
    run_certification(scenario_from_dict(template))
    assert kernel_rows == [1] * 7


def test_small_cap_splits_groups_by_the_full_schedule(kernel_rows, monkeypatch):
    # one row's kernel call over the full schedule holds 2^3 branches of 2 x 2
    # entries, 32 in all: a cap of 100 holds three rows and not four
    monkeypatch.setattr(protocols, "_BATCH_ENTRIES", 100)
    values = GAPS[:7]
    rows = run_sweep(SweepSpec(template=README_SCENARIO, parameter="schedule.gap", values=values))
    assert len(kernel_rows) == 21 and max(kernel_rows) == 3
    assert [bits(r) for r in rows] == [bits(own_row(README_SCENARIO, "schedule.gap", v)) for v in values]
    rows = run_sweep(SweepSpec(template=D2_INRM_SHOTS, parameter="schedule.gap", values=values))
    assert [bits(r) for r in rows] == [bits(own_row(D2_INRM_SHOTS, "schedule.gap", v)) for v in values]


def cyclic_garbage(run) -> int:
    """How many objects left behind by ``run()`` only the cycle collector frees."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", SWEEPS)
def test_sweeps_leave_no_cyclic_garbage(name):
    assert cyclic_garbage(lambda: sweep(name)) == 0


@pytest.mark.parametrize("template", [README_SCENARIO, D2_INRM_SHOTS], ids=["exact", "shots"])
def test_certifications_leave_no_cyclic_garbage(template):
    assert cyclic_garbage(lambda: run_certification(scenario_from_dict(template))) == 0


def test_a_finite_shot_group_whose_rows_all_fail_stops(kernel_rows):
    # On these seeds every row's sampled NSIT marginal exceeds 1, so no row
    # reaches NSIT3: its experiments make no kernel call and draw nothing.
    template = dict(INRM_SPLIT, checks=["NSIT", "NSIT3", "LG3"])
    values = (1, 4, 6, 7)
    rows = run_sweep(SweepSpec(template=template, parameter="seed", values=values))
    assert [r["error"].split(" ")[0] for r in rows] == ["probability"] * 4
    assert len(kernel_rows) == 4
    assert [bits(r) for r in rows] == [bits(own_row(template, "seed", v)) for v in values]
