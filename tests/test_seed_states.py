"""A row set keeps a child stream's initial state only where another row can restore it.

``_RowSet.generator`` caches the PCG64 state of each (seed, draw index) so
that rows sharing a seed seed each child once.  A seed that only one row
draws from, as in a single certification or a sweep of distinct seeds, is
never restored, so its states are not kept: reading ``bits.state`` costs as
much as the draw it would save.  Reports do not depend on the cache.
"""

from __future__ import annotations

import pytest

from lgcert import cli
from lgcert.cli import SweepSpec, scenario_from_dict
from lgcert.macrocert import _certify
from lgcert.protocols import _RowSet

from test_sweep_batch import D2_INRM_SHOTS


@pytest.fixture
def row_sets(monkeypatch) -> list[_RowSet]:
    """Each row set ``run_sweep`` certifies its rows from, once per sweep."""
    found: list[_RowSet] = []
    sweep_row = cli._sweep_row

    def recorded(rows, row, value):
        if row == 0:
            found.append(rows)
        return sweep_row(rows, row, value)

    monkeypatch.setattr(cli, "_sweep_row", recorded)
    return found


def test_a_one_row_certification_keeps_no_states():
    scenario = scenario_from_dict(D2_INRM_SHOTS)
    rows = _RowSet([scenario])
    tables, _, _, _ = _certify(rows, 0)
    assert any(t.kind == "empirical" for t in tables.values())
    assert rows._states == {}


def test_rows_that_share_a_seed_keep_one_rows_states(row_sets):
    cli.run_sweep(SweepSpec(template=D2_INRM_SHOTS, parameter="schedule.gap", values=(0.2, 0.3, 0.4)))
    states = row_sets[0]._states
    assert states and {seed for seed, _ in states} == {D2_INRM_SHOTS["seed"]}
    assert sorted(index for _, index in states) == list(range(len(states)))


def test_a_seed_sweep_keeps_only_the_seeds_rows_share(row_sets):
    rows = cli.run_sweep(SweepSpec(template=D2_INRM_SHOTS, parameter="seed", values=(7, 3, 7, 11)))
    assert {seed for seed, _ in row_sets[0]._states} == {7}
    alone = [cli.run_sweep(SweepSpec(template=D2_INRM_SHOTS, parameter="seed", values=(v,)))[0] for v in (7, 3, 7, 11)]
    assert rows == alone
    assert all(not row_set._states for row_set in row_sets[1:])
