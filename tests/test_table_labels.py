"""Outcome labels a user supplies are integers, and a bad one is a ``ValidationError`` naming it.

``OutcomeTable(...)`` reads each slot and each key through
``protocols._labels``: a label ``int`` cannot read, or a bool, is rejected
with a message naming the label and its slot or key.  ``table_from_json``
wraps the same message as a malformed payload, and ``table_from_csv``
names the cell and its row, for an outcome cell and for a probability cell.
``InrmPartial(...)`` reads its couplings, slots and keys through ``_labels``
too, and its entries through ``_entry_value``: a bool coupling or a string
entry is rejected, not read as ``1`` or as a float.
Experiment and moment names (``protocols._times_name``) are memoised; they
must give the text of the unmemoised function.
"""

from __future__ import annotations

import numpy as np
import pytest

from lgcert.protocols import (
    InrmPartial,
    OutcomeTable,
    ValidationError,
    _times_name,
    table_from_csv,
    table_from_json,
)

SLOTS = ((1, -1),)


def raised(build) -> str:
    with pytest.raises(ValidationError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize("slots, probs, message", [
    (SLOTS, {("a",): 0.5, (-1,): 0.5}, "outcome label 'a' in key ('a',) is not an integer"),
    (SLOTS, {(1,): 0.5, (-1, None): 0.5}, "outcome label None in key (-1, None) is not an integer"),
    ((("x", -1),), {(1,): 0.5, (-1,): 0.5}, "outcome label 'x' in slot ('x', -1) is not an integer"),
    (SLOTS, {(True,): 0.5, (-1,): 0.5}, "outcome label True in key (True,) is not an integer"),
    (((True, False),), {(1,): 0.5, (0,): 0.5}, "outcome label True in slot (True, False) is not an integer"),
    (SLOTS, {(np.True_,): 0.5, (-1,): 0.5}, f"outcome label {np.True_!r} in key {(np.True_,)!r} is not an integer"),
    (SLOTS, {1: 0.5, (-1,): 0.5}, "key 1 is not a sequence of outcome labels"),
    ((1, -1), {(1,): 0.5, (-1,): 0.5}, "slot 1 is not a sequence of outcome labels"),
])
def test_constructor_rejects_labels_that_are_not_integers(slots, probs, message):
    assert raised(lambda: OutcomeTable(slots, probs)) == message


def test_integer_labels_are_still_read():
    table = OutcomeTable(((np.int64(1), "-1"),), {(1,): 0.5, ("-1",): 0.5})
    assert table.slots == ((1, -1),) and list(table.probabilities) == [(1,), (-1,)]
    assert all(type(v) is int for slot in table.slots for v in slot)


@pytest.mark.parametrize("slots, message", [
    ([[True, -1]], "outcome label True in slot [True, -1] is not an integer"),
    ([["x", -1]], "outcome label 'x' in slot ['x', -1] is not an integer"),
])
def test_json_payload_rejects_bad_slot_labels(slots, message):
    payload = {"slots": slots, "probabilities": {"+1": 0.5, "-1": 0.5}}
    assert raised(lambda: table_from_json(payload)) == f"malformed outcome table payload: {message}"


@pytest.mark.parametrize("text, message", [
    ("s1,probability\nx,0.5\n-1,0.5\n", "CSV cell 'x' in row 'x,0.5' is not an integer label"),
    ("s1,s2,probability\n+1,y,1.0\n", "CSV cell 'y' in row '+1,y,1.0' is not an integer label"),
    ("s1,probability\n+1,abc\n-1,0.5\n", "CSV probability cell 'abc' in row '+1,abc' is not a number"),
    ("s1,probability\n+1,0.5\n-1,x\n", "CSV probability cell 'x' in row '-1,x' is not a number"),
])
def test_csv_names_the_bad_cell(text, message):
    assert raised(lambda: table_from_csv(text)) == message


@pytest.mark.parametrize("times, text", [((1,), "1"), ((1, 2, 3), "123"), ((2, 4), "24"), ((), "")])
def test_times_name_text(times, text):
    assert _times_name(times) == _times_name.__wrapped__(times) == text
    assert _times_name.cache_info().maxsize is not None


PARTIAL_SLOTS = ((1, -1), (1, -1))
SURVIVORS = {(-1, 1): 0.3, (-1, -1): 0.2}


@pytest.mark.parametrize("slots, couplings, probs, message", [
    (PARTIAL_SLOTS, ("x",), SURVIVORS, "outcome label 'x' in couplings ('x',) is not an integer"),
    (PARTIAL_SLOTS, (True,), SURVIVORS, "outcome label True in couplings (True,) is not an integer"),
    (PARTIAL_SLOTS, (None,), SURVIVORS, "outcome label None in couplings (None,) is not an integer"),
    (PARTIAL_SLOTS, 1, SURVIVORS, "couplings 1 is not a sequence of outcome labels"),
    (((1, -1), ("a", -1)), (1,), SURVIVORS, "outcome label 'a' in slot ('a', -1) is not an integer"),
    (PARTIAL_SLOTS, (1,), {(-1, 1): 0.3, (-1, False): 0.2}, "outcome label False in key (-1, False) is not an integer"),
    (PARTIAL_SLOTS, (1,), {(-1, 1): "0.3", (-1, -1): 0.2}, "probability for (-1, 1) must be a number, got '0.3'"),
    (PARTIAL_SLOTS, (1,), {(-1, 1): 0.3, (-1, -1): True}, "probability for (-1, -1) must be a number, got True"),
])
def test_inrm_partial_rejects_labels_couplings_and_entries_it_cannot_read(slots, couplings, probs, message):
    assert raised(lambda: InrmPartial(slots, couplings, probs, 0.5)) == message


def test_inrm_partial_still_reads_integer_labels_and_real_entries():
    partial = InrmPartial(((1, -1), (np.int64(1), "-1")), [np.int64(1)], {(-1, 1): np.float64(0.3), ("-1", -1): 0.2}, 0.5)
    assert partial.couplings == (1,) and partial.slots == PARTIAL_SLOTS
    assert partial.probabilities == SURVIVORS
    assert all(type(v) is int for key in partial.probabilities for v in key)
    assert all(type(p) is float for p in partial.probabilities.values())
