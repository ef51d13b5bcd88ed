"""``sweep_to_csv`` writes what the per-id loop it replaced writes, byte for byte.

A row whose margins hold exactly the header's condition ids, in header
order, is written as one join of the margins' ``repr``; any other row
looks each id up.  ``reference_csv`` keeps the per-id loop for every row,
and the writer must equal it on rows with differing id sets, on error rows
with ``{}`` margins, on NaN, infinite and negative-zero margins, and on
list values that must be quoted.  The golden ``checks_sweep`` case (a sweep
of the ``checks`` list on the README precession, one row an unknown check)
pins a real sweep whose rows differ in their ids.  A bool value is written
``false`` or ``true``, as ``--format json`` writes it, and an int as a
float.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lgcert.cli import SweepSpec, load_sweep, run_sweep, sweep_to_csv

GOLDEN = Path(__file__).parent / "golden"


def reference_csv(rows) -> str:
    """The per-id writer: every row looks up every header id."""
    ids = list(dict.fromkeys(cid for row in rows for cid in row["margins"]))
    lines = [",".join(["value"] + [f'"{c}"' for c in ids] + ["error"])]
    for row in rows:
        value = row["value"]
        if isinstance(value, bool):
            cell = "true" if value else "false"
        elif isinstance(value, (int, float)):
            cell = repr(float(value))
        else:
            cell = str(value)
        cells = ['"' + cell.replace('"', '""') + '"' if "," in cell or '"' in cell else cell]
        for cid in ids:
            cells.append(repr(row["margins"][cid]) if cid in row["margins"] else "")
        err = str(row["error"]).replace('"', "'")
        cells.append(f'"{err}"' if err else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def row(value, margins, error=""):
    verdict = "error" if error else "violations"
    return {"value": value, "margins": margins, "verdict": verdict, "error": error}


SPECIAL = {"LG3-1": math.nan, "LG3-2": math.inf, "NSIT-(2;12)": -math.inf, "MONO-(+1,+1)": -0.0}

CASES = {
    "empty": [],
    "errors only": [row(0.5, {}, "boom"), row(-1, {}, 'a "quoted" error')],
    "one id set": [row(0.1, {"A": 1.0, "B": -0.5}), row(0.2, {"A": 0.25, "B": 1e-300})],
    "special margins": [row(1, SPECIAL), row(2, dict(SPECIAL, **{"LG3-1": 0.0}))],
    "error row between": [row(0.1, {"A": 1.0}), row(-0.6, {}, "schedule times must be > 0"), row(0.3, {"A": 2.0})],
    "differing ids": [row(["LG3"], {"A": 1.0}), row(["LG3", "NSIT"], {"A": 1.0, "B": 2.0}),
                      row(["MONO", "LG2"], {"C": 3.0}), row(["BOGUS"], {}, "checks: unknown"),
                      row(["LG3"], {"A": 1.0})],
    "same ids, other order": [row(0.1, {"A": 1.0, "B": 2.0}), row(0.2, {"B": 3.0, "A": 4.0})],
    "fewer ids later": [row(0.1, {"A": 1.0, "B": 2.0}), row(0.2, {"A": 3.0})],
    "quoted values": [row('say "hi"', {"A": 1.0}), row("a,b", {"A": 2.0}), row([1, 2], {"A": -0.0}),
                      row(True, {"A": 0.5}), row(None, {"A": 0.5})],
}


def test_every_case_matches_the_per_id_writer():
    for name, rows in CASES.items():
        assert sweep_to_csv(rows) == reference_csv(rows), name


ids = st.sampled_from(["LG3-1", "LG3-2", "NSIT-(2;12)", 'MONO-(+1,"x")', "LG2-12-1"])
margin_values = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0]) | st.integers(-3, 3)
values = (
    st.floats(allow_nan=True)
    | st.integers(-10**20, 10**20)
    | st.text(max_size=6)
    | st.lists(st.sampled_from(["LG3", "NSIT", 'x"y']), max_size=3)
)
rows_strategy = st.lists(
    st.builds(row, values, st.dictionaries(ids, margin_values, max_size=5), st.text(max_size=5)),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(rows=rows_strategy)
def test_random_rows_match_the_per_id_writer(rows):
    assert sweep_to_csv(rows) == reference_csv(rows)


def test_bool_values_are_written_as_json_writes_them():
    rows = [row(False, {"A": 0.5}), row(True, {"A": 0.25}), row(1, {"A": 1.0}), row(0, {"A": 1.0})]
    cells = [line.split(",")[0] for line in sweep_to_csv(rows).splitlines()[1:]]
    assert cells == ["false", "true", "1.0", "0.0"]


def test_golden_sweeps_match_the_per_id_writer():
    for case in json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8")):
        if case["command"] == "sweep" and not case.get("args"):
            rows = run_sweep(load_sweep(GOLDEN / case["input"]))
            text = sweep_to_csv(rows)
            assert text == reference_csv(rows)
            assert text.encode() == (GOLDEN / case["output"]).read_bytes()


def test_checks_sweep_rows_differ_in_their_ids():
    data = json.loads((GOLDEN / "checks_sweep.json").read_text(encoding="utf-8"))
    rows = run_sweep(SweepSpec(data["scenario"], data["parameter"], tuple(data["values"])))
    id_sets = [tuple(r["margins"]) for r in rows]
    assert len(set(id_sets)) == 4 and id_sets[3] == () and rows[3]["verdict"] == "error"
    assert id_sets[0] == id_sets[4]
