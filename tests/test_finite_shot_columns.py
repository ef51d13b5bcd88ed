"""Finite-shot sweep rows' column statistics against each row's own certification.

A verdict hides the last bits of a variance: a margin almost never lies
within an ulp of its three-standard-error gate.  So these tests compare the
statistics themselves, bit for bit, between a group's columns and each
row's own ``_certify``: moments and their variances, the LG and NONNEG
conditions' standard errors, and each NSIT witness's defects and standard
errors.  The summation orders they pin (sampled order, builtin ``sum``
where the per-row code takes one) would otherwise go unseen.  They run
again under a compensated builtin ``sum``, as Python 3.12 and later have,
so a column sum that only matches the builtin one up to 3.11 fails here too.
"""

from __future__ import annotations

import builtins
import math

import numpy as np
import pytest

from lgcert.cli import _row_data, scenario_from_dict
from lgcert.macrocert import (
    _LG2_PAIRS,
    _candidate_entries,
    _certify,
    _lg2_margins,
    _lg3_margins,
    _lg4_margins,
    _moment_columns,
    _moment_times,
    _nonnegativity_margins,
    _nsit3_witnesses,
    _nsit_columns,
    _row_total,
)
from lgcert.protocols import _RowSet
from lgcert.qcore import ValidationError

from test_sweep_batch import SWEEPS


def hexes(values):
    return [None if v is None else float(v).hex() for v in values]


NAMES = ["d2-inrm-gap-shots", "derive-inrm-shots", "derive-projective-shots",
         "many-valued-shots", "m4-lg4-nonneg-shots", "deterministic-shots"]


@pytest.mark.parametrize("name", NAMES)
def test_finite_shot_column_statistics_are_each_rows_own(name):
    assert_columns_are_each_rows_own(name)


@pytest.mark.parametrize("name", NAMES)
def test_column_statistics_follow_a_compensated_builtin_sum(name, monkeypatch):
    """From Python 3.12 the builtin ``sum`` of floats is compensated (``math.fsum`` stands in); the columns must follow it."""
    builtin_sum = sum

    def compensated(terms, start=0):
        terms = list(terms)
        if terms and all(type(t) is float for t in terms):
            return math.fsum([start, *terms])
        return builtin_sum(terms, start)

    monkeypatch.setattr(builtins, "sum", compensated)
    for margins in (_lg3_margins, _lg4_margins, _candidate_entries):  # their ``total=sum`` bound the builtin
        monkeypatch.setattr(margins, "__defaults__", (compensated,))
    assert_columns_are_each_rows_own(name)


def assert_columns_are_each_rows_own(name):
    template, parameter, values = SWEEPS[name]
    parsed = scenario_from_dict(template)
    scenarios = []
    for value in values:
        try:
            scenarios.append(scenario_from_dict(_row_data(template, parameter, value), parsed))
        except ValidationError:
            continue
    assert len(scenarios) >= 3
    rows = _RowSet(scenarios)
    groups = {}
    for row, scenario in enumerate(scenarios):
        group, index = rows.group(row)
        groups.setdefault(id(group), (group, []))[1].append((index, scenario))
    for group, members in groups.values():
        group.start(rows)
        s = group.s
        m, v = _moment_columns(group, _moment_times(s)) or ({}, {})
        conditions, witnesses = [], []
        for check in s.checks:
            if check == "LG3":
                conditions += _lg3_margins(m, v.__getitem__, _row_total)
            elif check == "LG2":
                conditions += [c for i, j in _LG2_PAIRS for c in _lg2_margins(m, v.__getitem__, i, j)]
            elif check == "LG4":
                conditions += _lg4_margins(m, v.__getitem__, _row_total)
            elif check in ("NONNEG3", "NONNEG4"):
                entries = _candidate_entries(m, v.__getitem__, int(check[-1]), _row_total)
                conditions += _nonnegativity_margins(*entries)
            elif check == "NSIT":
                witnesses.append(_nsit_columns(group, *group.nsit_pair(), (1,)))
            elif check == "NSIT3":
                witnesses += [_nsit_columns(group, *w[1:]) for w in _nsit3_witnesses(group)]
        for i, scenario in members:
            _, moments, own_conditions, own_witnesses = _certify(_RowSet([scenario]), 0)
            if moments is not None:
                assert hexes(moments.values.values()) == hexes(m[key][i] for key in moments.values)
                assert hexes(moments.variances.values()) == hexes(v[key][i] for key in moments.variances)
            stderrs = {c.condition: c.stderr for c in own_conditions}
            assert hexes(stderrs[cid] for cid, _, _ in conditions) == hexes(
                np.sqrt(var[i]) if var[i] > 0.0 else None for _, _, var in conditions
            )
            for (defects, variances), own in zip(witnesses, own_witnesses):
                assert hexes(own.defects.values()) == hexes(defects[i])
                assert hexes(own.stderrs.values()) == hexes(np.sqrt(variances[i]))
