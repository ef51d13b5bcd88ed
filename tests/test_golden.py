"""Byte-for-byte regression against committed CLI outputs.

``tests/golden/cases.json`` lists fixed scenario and sweep inputs with the
exact report bytes and exit code an earlier version of lgcert produced for
them.  Reports must stay byte-identical for a fixed scenario and seed, so any
difference here is a behaviour change: never regenerate these files to make
a change pass.

The certify scenarios cover the README precession with all nine checks
(four times), random-Q ``ancilla_blind`` runs at d=2 and d=4, a d=16
``inrm`` run, a d=4 ``inrm_dephased`` run at 10^4 shots and a d=4 run with a
``unitary_kick`` clumsiness channel.  ``d4_inrm_dephased_derived_shots`` is
the only case with ``derive_lower_moments: true``: a d=4 ``inrm_dephased``
run over three times at 10^4 shots with LG2, LG3, NONNEG3 and NSIT3, whose
moments all come from marginals of one sampled three-time table (exit 0).
The d=2 ancilla case matters: there
the ancilla circuit and plain dephasing differ in the last bit, so routing
the blind mode through ``dephase`` changes its report.  The eight sweeps are:

* a d=2 ``inrm`` gap sweep at 1000 shots with one negative gap that must
  come back as an error row;
* a d=4 ``ancilla_blind`` clumsiness-strength sweep from 0.0 with one
  out-of-range strength;
* a d=16 ``inrm_dephased`` gap sweep with one negative gap;
* ``readme_gap_sweep``: the README precession (d=2, ``projective``, exact,
  LG3/LG2/NSIT/MONO) over ten gaps, one of them negative;
* ``d4_kick_strength_sweep_shots``: a d=4 ``projective_dephased`` sweep of
  the ``unitary_kick`` strength at 1000 shots with all nine checks, where the
  string strength ``"0.4"`` must come back as an error row;
* ``d4_seed_sweep_inrm_dephased_shots``: a d=4 ``inrm_dephased`` seed sweep
  at 10^4 shots with depolarizing clumsiness and all nine checks, where the
  negative seed must come back as an error row;
* ``checks_sweep``: the README precession (four times) swept over its
  ``checks`` list, so its rows differ in their margin columns and the CSV
  writer looks ids up row by row; the unknown check ``BOGUS`` must come
  back as an error row;
* ``d4_derive_sweep_shots``: the ``d4_inrm_dephased_derived_shots``
  scenario swept over ``derive_lower_moments`` ``[false, true]``, whose
  bool values the CSV writes as ``false`` and ``true``, as JSON does (exit 0).

Their rows run as batches, so these pin the batched rows to the bytes that
rows run one at a time produced.  Three cases pin the other JSON outputs:
the ``oracle`` payload of the d=4 ``inrm_dephased`` scenario at 10^4 shots,
and the kick-strength and ``derive_lower_moments`` sweeps written with
``--format json``.  A case's optional ``args`` list is passed after its
input.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from lgcert.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def case_id(case: dict) -> str:
    """The input's stem, then ``oracle`` for that command and the arguments without their dashes."""
    words = [case["input"].removesuffix(".json")]
    if case["command"] == "oracle":  # its input is a certify case too
        words.append("oracle")
    return "-".join(words + [a.lstrip("-") for a in case.get("args", [])])


@pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
def test_output_matches_golden_bytes(case, tmp_path):
    out = tmp_path / case["output"]
    code = main([case["command"], str(GOLDEN / case["input"]), *case.get("args", []), "--out", str(out)])
    assert code == case["exit_code"]
    assert out.read_bytes() == (GOLDEN / case["output"]).read_bytes()
