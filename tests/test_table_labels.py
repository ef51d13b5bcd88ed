"""Outcome labels a user supplies are integers, and a bad one is a ``ValidationError`` naming it.

``OutcomeTable(...)`` reads each slot and each key through
``protocols._labels``: a label ``int`` cannot read, or a bool, is rejected
with a message naming the label and its slot or key.  ``table_from_json``
wraps the same message as a malformed payload, and ``table_from_csv``
names the cell and its row, for an outcome cell and for a probability cell.
Experiment and moment names (``protocols._times_name``) are memoised; they
must give the text of the unmemoised function.
"""

from __future__ import annotations

import numpy as np
import pytest

from lgcert.protocols import OutcomeTable, ValidationError, _times_name, table_from_csv, table_from_json

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
