"""lgcert writes its JSON output as ``json.dumps(sort_keys=True, indent=2)`` does.

``cli._report_to_json`` builds the text in one pass instead of through the
stdlib's pure-Python indent encoder.  Its output must equal
``json.dumps(x, sort_keys=True, indent=2) + "\\n"`` for every tree of
str-keyed dicts, lists, tuples, str, int, bool, None and floats.  Anything
else (a numpy scalar, a set, a dict with a non-str key) is handed to
``json.dumps`` as a sub-tree, so it gives the stdlib's text or the stdlib's
``TypeError``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgcert.cli import _report_to_json

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
JSON_OUTPUTS = [c["output"] for c in CASES if c["output"].endswith(".json")]

FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1 + 0.2,
          1.7976931348623157e308, 123456789.0, -1.5]
STRINGS = ["", "plain", "é", "日本", "😀", "\ud800", "\x00\x01\x1f", "tab\tnew\nline\r", 'q"uote\\',
           "  ", "\x7f"]


def stdlib(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def reversed_keys(value):
    """``value`` with every dict's insertion order reversed."""
    if isinstance(value, dict):
        return {k: reversed_keys(value[k]) for k in reversed(value)}
    if isinstance(value, list):
        return [reversed_keys(v) for v in value]
    return value


scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats() | st.sampled_from(FLOATS) | st.text() | st.sampled_from(STRINGS)
)
keys = st.text(max_size=6) | st.sampled_from(STRINGS)
trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(keys, children, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_random_trees_match_the_stdlib(tree):
    assert _report_to_json(tree) == stdlib(tree)


@pytest.mark.parametrize("value", FLOATS + STRINGS + [0, -1, 10**20, True, False, None], ids=repr)
def test_scalars_match_the_stdlib(value):
    assert _report_to_json(value) == stdlib(value)
    assert _report_to_json({"k": [value]}) == stdlib({"k": [value]})
    if isinstance(value, str):
        assert _report_to_json({value: value, "k": 1}) == stdlib({value: value, "k": 1})


def test_nested_empty_containers():
    tree = {"a": {}, "b": [], "c": (), "d": [{}, [], [[]], {"e": {}}], "f": {"g": [[], {}]}}
    assert _report_to_json(tree) == stdlib(tree)
    for empty in ({}, [], ()):
        assert _report_to_json(empty) == stdlib(empty)


@pytest.mark.parametrize("output", JSON_OUTPUTS)
def test_golden_outputs_are_rewritten_byte_for_byte(output):
    text = (GOLDEN / output).read_text(encoding="utf-8")
    tree = json.loads(text)
    assert _report_to_json(tree) == text
    assert _report_to_json(reversed_keys(tree)) == text


def test_one_key_set_in_two_insertion_orders():
    first = {"b": 1.5, "a": [1, 2], "c": {"z": None, "y": True}}
    second = {"c": {"y": True, "z": None}, "a": [1, 2], "b": 1.5}
    assert _report_to_json(first) == _report_to_json(second) == stdlib(first)
    assert _report_to_json([first, second, first]) == stdlib([first, second, first])


@pytest.mark.parametrize("tree", [
    {"x": np.float64(0.25)},  # a float subclass: written as float.__repr__
    {"x": [1, {2: "two", 3: [np.float64(-0.5)]}]},  # int keys become strings
    {"x": {1.5: None, 2: 0}, "y": {True: 0, False: 1}, "z": {None: "null"}},
    {"x": (np.float64(math.nan),)},
], ids=["float64", "int-keys", "scalar-keys", "float64-nan"])
def test_other_values_go_through_the_stdlib(tree):
    assert _report_to_json(tree) == stdlib(tree)


@pytest.mark.parametrize("tree", [
    {"x": [1, np.int64(2)]},
    {"x": {"y": {1, 2}}},
    [{"x": {1: "a", "b": 2}}],  # mixed key types cannot be sorted
    {"x": b"bytes"},
], ids=["int64", "set", "mixed-keys", "bytes"])
def test_unsupported_values_raise_the_stdlib_type_error(tree):
    with pytest.raises(TypeError) as expected:
        stdlib(tree)
    with pytest.raises(TypeError) as got:
        _report_to_json(tree)
    assert got.value.args == expected.value.args


def test_a_container_that_holds_itself_is_not_a_tree():
    loop: list = []
    loop.append({"x": loop})
    with pytest.raises(RecursionError):
        _report_to_json(loop)
