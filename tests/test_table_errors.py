"""``_table_errors`` gives, per row, what the per-row builtin-sum check gives.

An exact table must sum to 1 within ``NORMALIZATION_TOL``, summed by the
builtin ``sum`` in table order.  ``_table_errors`` clears most rows with one
numpy sum per row, well inside the tolerance, and sums only the rest with
the builtin.  ``reference_errors`` keeps the builtin sum for every row, and
the error lists must be equal: for rows whose builtin sum sits within a few
ulp of 1 ± ``NORMALIZATION_TOL``, for NaN, infinite and out-of-range
entries, and at one row and at 64, for tables of two to 2^17 entries.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from lgcert import protocols
from lgcert.protocols import NORMALIZATION_TOL, _entry_error, _entry_in_range, _sum_error, _table_errors


def reference_errors(outcomes, values, exact=True):
    """Per row: its first entry out of range, then for an exact table its builtin sum off 1."""
    bad = ~_entry_in_range(values)
    errors = [None] * len(values)
    for i in np.flatnonzero(bad.any(axis=1)):
        j = int(np.argmax(bad[i]))
        errors[i] = _entry_error(outcomes[j], float(values[i, j]))
    if not exact:
        return errors
    for i, entries in enumerate(values.tolist()):
        if errors[i] is None:
            errors[i] = _sum_error(sum(entries))
    return errors


def outcomes_of(n: int) -> list[tuple[int, ...]]:
    return [(k,) for k in range(n)]


def near_boundary_row(rng, n: int, target: float) -> list[float]:
    """Entries in [0, 1] whose builtin sum lands within an ulp or two of ``target``."""
    row = rng.random(n)
    row = (row / row.sum() * (target - 0.25)).tolist()
    row[-1] += target - sum(row)
    return row


def boundary_rows(rng, n: int, rows: int) -> np.ndarray:
    targets = [
        centre + k * math.ulp(centre)
        for centre in (1.0 + NORMALIZATION_TOL, 1.0 - NORMALIZATION_TOL, 1.0)
        for k in range(-6, 7)
    ]
    return np.array([near_boundary_row(rng, n, targets[i % len(targets)]) for i in range(rows)])


@pytest.mark.parametrize("rows", [1, 64])
@pytest.mark.parametrize("n", [2, 8, 256, 4096])
def test_rows_at_the_tolerance_get_the_reference_errors(rows, n):
    values = boundary_rows(np.random.default_rng(1000 * n + rows), n, rows)
    errors = _table_errors(outcomes_of(n), values)
    assert errors == reference_errors(outcomes_of(n), values)
    if rows == 64:  # the rows straddle the tolerance: both verdicts occur
        assert None in errors and any(e is not None for e in errors)


@pytest.mark.parametrize("rows", [1, 64])
@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, -1e-11, 1.0 + 1e-11, -0.0, -1e-13])
def test_special_and_out_of_range_entries_get_the_reference_errors(rows, entry):
    n = 8
    values = boundary_rows(np.random.default_rng(7), n, rows)
    values[::3, 5] = entry
    for exact in (True, False):
        assert _table_errors(outcomes_of(n), values, exact) == reference_errors(outcomes_of(n), values, exact)


def test_a_table_too_wide_for_the_screen_sums_every_row():
    # 2^17 entries: the sums may differ by more than the screen's margin, so no row is cleared
    n = 1 << 17
    values = boundary_rows(np.random.default_rng(3), n, 1)
    assert _table_errors(outcomes_of(n), values) == reference_errors(outcomes_of(n), values)


def test_rows_well_inside_the_tolerance_are_not_summed_one_by_one(monkeypatch):
    summed = []
    sum_error = protocols._sum_error

    def counted(total):
        summed.append(total)
        return sum_error(total)

    monkeypatch.setattr(protocols, "_sum_error", counted)
    rng = np.random.default_rng(11)
    values = rng.random((64, 16))
    values /= values.sum(axis=1, keepdims=True)
    values[5, 0] += 1e-9  # this row's sum is off 1, and only it is summed
    errors = _table_errors(outcomes_of(16), values)
    assert errors == reference_errors(outcomes_of(16), values)
    assert len(summed) == 1 and errors[5] is not None
