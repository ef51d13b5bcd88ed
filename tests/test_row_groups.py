"""How a row set splits its rows into groups, and what each group shares.

Rows that share a batch signature, their checks and their moment source form
one group, in row order, capped so that one kernel call over the whole
schedule holds at most ``_BATCH_ENTRIES`` entries.  Each group runs every
experiment of its rows in one walk (``protocols._walk``), for all its rows.
These tests pin the number of walks that grouping gives, one
``unitary_for`` call per walk, the cap at a small ``_BATCH_ENTRIES``, and
that groups leave no reference cycle behind them.
"""

from __future__ import annotations

import gc

import pytest

from lgcert import protocols
from lgcert.cli import SweepSpec, run_certification, run_sweep, scenario_from_dict

from test_sweep_batch import D2_INRM_SHOTS, INRM_SPLIT, README_SCENARIO, SWEEPS, bits, own_row

# Kernel calls (walks) per ``SWEEPS`` entry: one per group whose checks have
# the times they need.  ``checks-shots`` is a finite-shot sweep whose rows
# differ in their checks, so each set of checks is its own group.
KERNEL_CALLS = {
    "readme-gap": 1,
    "d4-ancilla-blind-strength": 1,
    "d2-inrm-gap-shots": 1,
    "d2-inrm-seed": 1,
    "d2-inrm-shots": 3,
    "d16-gap": 1,
    "strength-from-zero": 2,
    "kick-strength-shots": 2,
    "mode": 5,
    "dimension": 1,
    "invalid-template-gap": 3,
    "m4-lg4-nonneg": 1,
    "appendix-wbound-some-rows": 1,
    "derive-inrm-strength": 2,
    "derive-m4-inrm-dephased": 1,
    "inrm-exact-gap": 1,
    "many-valued-gap": 1,
    "many-valued-checks": 4,
    "many-valued-mode": 3,
    "checks": 6,
    "invalid-exact-table": 1,
    "kick-generator": 2,
    "kick-generator-shots": 2,
    "d2-inrm-shots-with-exact": 3,
    "checks-shots": 5,
    "m4-lg4-nonneg-shots": 1,
    "derive-inrm-shots": 2,
    "derive-projective-shots": 1,
    "many-valued-shots": 1,
    "appendix-shots": 1,
    "d4-ancilla-blind-strength-shots": 1,
    "deterministic-shots": 1,
    "d2-m4-gap-520-rows": 1,
    "inrm-marginal-above-one": 1,
    "inrm-marginal-above-one-derived": 1,
}

GAPS = tuple(0.05 + 0.05 * k for k in range(64))


@pytest.fixture
def kernel_rows(monkeypatch):
    """The number of rows of every kernel call (walk), in call order."""
    calls: list[int] = []
    walk = protocols._walk

    def counted(rho, h, times, *args):
        calls.append(len(times))
        return walk(rho, h, times, *args)

    monkeypatch.setattr(protocols, "_walk", counted)
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


@pytest.mark.parametrize("name", SWEEPS)
def test_each_walk_makes_one_unitary_call(name, monkeypatch):
    # a walk whose every experiment failed while planning has no step to build
    walks: list[bool] = []
    walk = protocols._walk

    def counted(rho, h, times, clumsiness, paths):
        walks.append(any(not isinstance(path, protocols._Failure) for path in paths.values()))
        return walk(rho, h, times, clumsiness, paths)

    calls: list[int] = []
    unitary_for = protocols.unitary_for

    def counted_unitaries(h, t):
        calls.append(len(t))
        return unitary_for(h, t)

    monkeypatch.setattr(protocols, "_walk", counted)
    monkeypatch.setattr(protocols, "unitary_for", counted_unitaries)
    sweep(name)
    assert len(calls) == sum(walks) >= 1


@pytest.mark.parametrize("template", [README_SCENARIO, D2_INRM_SHOTS], ids=["exact", "shots"])
def test_a_64_row_gap_sweep_runs_each_experiment_once(template, kernel_rows):
    rows = run_sweep(SweepSpec(template=template, parameter="schedule.gap", values=GAPS))
    assert all(r["verdict"] != "error" for r in rows)
    assert kernel_rows == [64]
    kernel_rows.clear()
    run_certification(scenario_from_dict(template))
    assert kernel_rows == [1]


def test_small_cap_splits_groups_by_the_full_schedule(kernel_rows, monkeypatch):
    # one row's kernel call over the full schedule holds 2^3 branches of 2 x 2
    # entries, 32 in all: a cap of 100 holds three rows and not four
    monkeypatch.setattr(protocols, "_BATCH_ENTRIES", 100)
    values = GAPS[:7]
    rows = run_sweep(SweepSpec(template=README_SCENARIO, parameter="schedule.gap", values=values))
    assert kernel_rows == [3, 3, 1]
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


def test_a_finite_shot_group_whose_rows_all_fail_stops(kernel_rows, monkeypatch):
    # On these seeds every row's sampled NSIT marginal exceeds 1, so no row
    # reaches NSIT3: its experiments run in the group's one walk but draw
    # nothing.  Each row draws 9 child seeds: 6 for the LG3 moments' INRM
    # configurations, 3 for the NSIT pair.
    draws: list[tuple[int, int]] = []
    generator = protocols._RowSet.generator

    def counted(self, seed, index):
        draws.append((seed, index))
        return generator(self, seed, index)

    monkeypatch.setattr(protocols._RowSet, "generator", counted)
    template = dict(INRM_SPLIT, checks=["NSIT", "NSIT3", "LG3"])
    values = (1, 4, 6, 7)
    rows = run_sweep(SweepSpec(template=template, parameter="seed", values=values))
    assert [r["error"].split(" ")[0] for r in rows] == ["probability"] * 4
    assert kernel_rows == [4]
    assert sorted(draws) == [(seed, index) for seed in values for index in range(9)]
    assert [bits(r) for r in rows] == [bits(own_row(template, "seed", v)) for v in values]
