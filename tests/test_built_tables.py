"""Tables a certification builds from its own columns equal validated tables.

``OutcomeTable._built`` is the constructor for tables the program assembles
from its own cleaned or sampled columns: ``_row_table`` (exact rows and
sampled INRM tables), ``_sampled_table`` and ``marginal_distribution``.  It
runs only the checks that can fail for such a table (each entry's range,
then an exact table's sum) and holds its dict as given.  So every table a
certification builds must equal ``OutcomeTable(...)`` of the same fields,
in values, value types and dict order, and a bad row must raise the
validated constructor's message.  Tables from users keep every check,
and an entry must be a real number.

``protocols._outcome_key`` is memoised; it must give the text of the
unmemoised function and stay within its ``maxsize``.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgcert.cli import load_scenario, run_certification, scenario_from_dict
from lgcert.macrocert import _CHECKS
from lgcert.protocols import (
    MODES,
    OutcomeTable,
    ProtocolConfig,
    ValidationError,
    _outcome_key,
    _row_table,
    _TableColumns,
    marginal_distribution,
    table_from_csv,
    table_from_json,
)
from lgcert.qcore import matrix_to_json

from conftest import random_density_matrix, random_dichotomic, random_hermitian

GOLDEN = Path(__file__).parent / "golden"
CERTIFY_INPUTS = sorted(
    {c["input"] for c in json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8")) if c["command"] == "certify"}
)
BUILDERS = {"_row_table", "_sampled_table", "marginal_distribution"}


def structure(value):
    """``value`` with every leaf replaced by its type, dicts as their item lists (so order counts)."""
    if isinstance(value, dict):
        return (dict, [(structure(k), structure(v)) for k, v in value.items()])
    if isinstance(value, tuple):
        return (tuple, [structure(v) for v in value])
    return type(value)


def assert_validated(table: OutcomeTable) -> None:
    checked = OutcomeTable(table.slots, table.probabilities, table.kind, table.shots, table.slot_times)
    for name in ("slots", "probabilities", "kind", "shots", "slot_times"):
        built, valid = getattr(table, name), getattr(checked, name)
        assert built == valid, name
        assert structure(built) == structure(valid), name


def certify_recording(scenario) -> list[tuple[str, OutcomeTable]]:
    """Every table ``run_certification`` builds through ``OutcomeTable._built``, with the builder's name."""
    built = []
    original = OutcomeTable._built.__func__

    def record(cls, *args, **kwargs):
        table = original(cls, *args, **kwargs)
        built.append((sys._getframe(1).f_code.co_name, table))
        return table

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OutcomeTable, "_built", classmethod(record))
        run_certification(scenario)
    return built


def test_golden_certifications_build_validated_tables():
    seen = set()
    for name in CERTIFY_INPUTS:
        scenario = load_scenario(GOLDEN / name)
        built = certify_recording(scenario)
        assert built, name
        for builder, table in built:
            assert builder in BUILDERS
            assert_validated(table)
            seen.add((builder, table.kind, scenario.config.uses_detectors))
    # exact rows, directly sampled tables, sampled INRM tables and marginals all took part
    assert {
        ("_row_table", "exact", False),
        ("_row_table", "exact", True),
        ("_sampled_table", "empirical", True),  # a one-time experiment of an INRM run is measured directly
        ("_row_table", "empirical", True),
        ("marginal_distribution", "exact", False),
        ("marginal_distribution", "empirical", True),
    } <= seen


@st.composite
def small_scenarios(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from((2, 3)))
    m = draw(st.integers(2, 4))
    checks = draw(st.sets(st.sampled_from(sorted(n for n, c in _CHECKS.items() if c.min_times <= m)), min_size=1))
    return scenario_from_dict({
        "dimension": d,
        "initial_state": matrix_to_json(random_density_matrix(rng, d)),
        "hamiltonian": matrix_to_json(random_hermitian(rng, d)),
        "observable": matrix_to_json(random_dichotomic(rng, d).matrix),
        "schedule": [float(t) for t in np.cumsum(rng.uniform(0.2, 1.5, size=m))],
        "protocol": {
            "mode": draw(st.sampled_from(MODES)),
            "clumsiness": {"kind": "depolarizing", "strength": draw(st.sampled_from((0.0, 0.05)))},
        },
        "checks": sorted(checks),
        "shots": draw(st.sampled_from((0, 1, 50))),
        "seed": draw(st.integers(0, 2**31)),
        "derive_lower_moments": draw(st.booleans()),
    })


@settings(max_examples=40, deadline=None)
@given(scenario=small_scenarios())
def test_small_certifications_build_validated_tables(scenario):
    try:
        built = certify_recording(scenario)
    except ValidationError as exc:
        # a finite-shot INRM marginal can exceed 1 (see test_inrm_marginal_above_one_still_raises)
        assert str(exc).startswith("probability for ")
        return
    for _, table in built:
        assert_validated(table)


def raised(build) -> str:
    with pytest.raises(ValidationError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize("values, message", [
    ([1.5, -0.5], "probability for (1,) out of range: 1.5"),
    ([0.5, -0.25], "probability for (-1,) out of range: -0.25"),
    ([math.nan, 1.0], "probability for (1,) out of range: nan"),
    ([0.6, 0.6], "exact table must sum to 1 (got 1.2)"),
    ([0.25, 0.5], "exact table must sum to 1 (got 0.75)"),
])
def test_bad_exact_row_raises_the_validated_message(values, message):
    slots, outcomes = ((1, -1),), [(1,), (-1,)]
    columns = _TableColumns(slots, outcomes, np.array([values]))
    assert raised(lambda: _row_table(columns, 0, (1,), ProtocolConfig())) == message
    assert raised(lambda: OutcomeTable(slots, dict(zip(outcomes, values)), slot_times=(1,))) == message
    assert columns.errors == [message]


def test_inrm_marginal_above_one_still_raises():
    # two detector configurations sampled on their own: each block sums to at most 1, the marginal does not
    table = OutcomeTable(
        ((1, -1), (1, -1)),
        {(-1, 1): 0.6, (-1, -1): 0.0, (1, 1): 0.5, (1, -1): 0.0},
        kind="empirical",
        shots=10,
        slot_times=(1, 2),
    )
    message = f"probability for (1,) out of range: {0.6 + 0.5!r}"
    assert raised(lambda: marginal_distribution(table, (2,))) == message
    assert raised(lambda: OutcomeTable(((1, -1),), {(1,): 0.6 + 0.5, (-1,): 0.0}, kind="empirical")) == message


SLOTS = ((1, -1),)


@pytest.mark.parametrize("probs, kind, message", [
    ({(1,): 0.5, (2,): 0.5}, "exact", "probabilities must cover exactly the outcome product (missing [(-1,)], extra [(2,)])"),
    ({(1,): 0.5, (-1,): 0.25, (1, -1): 0.25}, "exact", "probabilities must cover exactly the outcome product (missing [], extra [(1, -1)])"),
    ({(1,): 1.0}, "exact", "probabilities must cover exactly the outcome product (missing [(-1,)], extra [])"),
    ({(1,): True, (-1,): False}, "exact", "probability for (1,) must be a number, got True"),
    ({(1,): 0.5, (-1,): "0.5"}, "exact", "probability for (-1,) must be a number, got '0.5'"),
    ({(1,): 0.5, (-1,): 0.5}, "bogus", "table kind must be 'exact' or 'empirical', got 'bogus'"),
])
def test_public_constructors_keep_every_check(probs, kind, message):
    assert raised(lambda: OutcomeTable(SLOTS, probs, kind=kind)) == message
    payload = {"slots": [list(s) for s in SLOTS], "kind": kind,
               "probabilities": {",".join(f"{v:+d}" for v in k): p for k, p in probs.items()}}
    assert raised(lambda: table_from_json(payload)) == message


def test_csv_tables_keep_every_check():
    message = "probabilities must cover exactly the outcome product (missing [(-1,)], extra [])"
    assert raised(lambda: table_from_csv("s1[+1;-1],probability\n+1,1.0\n")) == message
    assert raised(lambda: table_from_csv("s1,probability\n+1,0.5\n-1,0.25\n")) == "exact table must sum to 1 (got 0.75)"


@pytest.mark.parametrize("outcome, text", [
    ((1, -1), "+1,-1"),
    ((0,), "+0"),
    ((-3, 0, 12), "-3,+0,+12"),
    ((100, -250, 7, -1), "+100,-250,+7,-1"),
    ((), ""),
])
def test_outcome_key_text(outcome, text):
    assert _outcome_key(outcome) == text
    assert _outcome_key(outcome) == _outcome_key.__wrapped__(outcome)


def test_outcome_key_cache_is_bounded():
    maxsize = _outcome_key.cache_info().maxsize
    assert maxsize is not None
    outcomes = list(itertools.product(range(-6, 7), repeat=3))
    assert len(outcomes) > maxsize
    for outcome in outcomes:
        assert _outcome_key(outcome) == _outcome_key.__wrapped__(outcome)
    assert _outcome_key.cache_info().currsize <= maxsize
