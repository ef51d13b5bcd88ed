"""Independent correctness checks for the benchmark's outputs.

The oracle never calls lgcert: evolution uses ``scipy.linalg.expm`` and
probabilities come from direct projector strings, with the diagonalization
mechanism and the depolarizing clumsiness placed as the README documents
(mechanism, then clumsiness at the first read-out time, then the projective
measurement).  Every check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re

import numpy as np
import scipy.linalg

EXACT_TOL = 1e-10
MECHANISM_MODES = ("projective_dephased", "inrm_dephased", "ancilla_blind")


def _matrix(spec) -> np.ndarray:
    return np.array([[complex(re_, im) for re_, im in row] for row in spec], dtype=complex)


def system(scenario: dict):
    """(rho, H, Q) as plain arrays from a generated scenario dict."""
    d = int(scenario.get("dimension", 2))
    state, ham, obs = scenario["initial_state"], scenario["hamiltonian"], scenario["observable"]
    rho = np.eye(d, dtype=complex) / d if state == "maximally_mixed" else _matrix(state)
    if isinstance(ham, dict):  # the qubit precession preset (omega/2) sigma_x
        omega = float(ham["frequency"])
        h = np.array([[0, omega / 2], [omega / 2, 0]], dtype=complex)
    else:
        h = _matrix(ham)
    q = np.diag([1.0, -1.0]).astype(complex) if obs == "sigma_z" else _matrix(obs)
    return rho, h, q


def sequential_table(rho, h, q, times, measured, mechanism=(), eps=0.0) -> dict:
    """Outcome probabilities of one experiment by direct branch algebra.

    ``measured`` and ``mechanism`` are 1-based schedule indices.  Dephasing
    acts at the mechanism times; depolarizing clumsiness of strength ``eps``
    acts once, just before the first read-out.
    """
    d = rho.shape[0]
    eye = np.eye(d, dtype=complex)
    proj = {s: (eye + s * q) / 2.0 for s in (1, -1)}
    branches = {(): rho}
    t_prev = 0.0
    for k in range(1, max((*measured, *mechanism)) + 1):
        u = scipy.linalg.expm(-1j * h * (times[k - 1] - t_prev))
        branches = {o: u @ m @ u.conj().T for o, m in branches.items()}
        if k in mechanism:
            branches = {o: sum(p @ m @ p for p in proj.values()) for o, m in branches.items()}
        if k == min(measured) and eps:
            branches = {o: (1 - eps) * m + eps * np.trace(m) / d * eye for o, m in branches.items()}
        if k in measured:
            branches = {o + (s,): p @ m @ p for o, m in branches.items() for s, p in proj.items()}
        t_prev = times[k - 1]
    return {o: float(np.trace(m).real) for o, m in branches.items()}


def moment(table: dict, positions) -> float:
    return sum(p * math.prod(o[i] for i in positions) for o, p in table.items())


def _outcome(key: str) -> tuple[int, ...]:
    return tuple(int(v) for v in key.split(","))


def _experiment_setup(key: str, mode: str, clumsiness: float):
    """Mechanism times and clumsiness of a report experiment, from its key.

    Keys are ``<measured>[_blind<mechanism>][_clean]`` or the NSIT pair's
    ``nsit:12`` / ``nsit:2[_blind<mechanism>]``; the companion ``nsit:2`` runs
    carry no clumsiness.
    """
    if key == "nsit:12":
        mech = (1,) if mode in MECHANISM_MODES else ()
        return mech, clumsiness
    found = re.search(r"_blind(\d+)", key)
    mech = tuple(int(c) for c in found.group(1)) if found else ()
    clean = key.endswith("_clean") or key.startswith("nsit:2")
    return mech, 0.0 if clean else clumsiness


def check_report(report: dict, scenario: dict, exit_code: int | None = None) -> list[str]:
    """Compare every table and moment of a certification report with the oracle.

    Exact reports must agree to 1e-10.  Empirical entries must lie within six
    multinomial standard errors plus five counts of the exact entry, a bound a
    correct sampler crosses with probability below 1e-8 per entry.
    """
    problems = []
    rho, h, q = system(scenario)
    times = scenario["schedule"]
    mode = scenario["protocol"]["mode"]
    clumsiness = float(scenario["protocol"]["clumsiness"].get("strength", 0.0))
    shots = int(scenario.get("shots", 0))
    if report.get("mode") != ("empirical" if shots else "exact"):
        problems.append(f"report mode {report.get('mode')!r} for shots={shots}")
    for key, table in report["experiments"].items():
        mech, eps = _experiment_setup(key, mode, clumsiness)
        expected = sequential_table(rho, h, q, times, tuple(table["slot_times"]), mech, eps)
        got = {_outcome(k): v for k, v in table["probabilities"].items()}
        if set(got) != set(expected):
            problems.append(f"experiment {key}: outcomes {sorted(got)} != {sorted(expected)}")
            continue
        for o, p in expected.items():
            tol = EXACT_TOL if not shots else 6 * math.sqrt(max(p * (1 - p), 0) / shots) + 5 / shots
            if not abs(got[o] - p) <= tol:
                problems.append(f"experiment {key} entry {o}: {got[o]!r} vs oracle {p!r}")
    if not shots:
        for name, value in report["moments"].items():
            measured = tuple(int(c) for c in name)
            mech = measured[:-1] if mode in MECHANISM_MODES else ()
            table = sequential_table(rho, h, q, times, measured, mech, clumsiness)
            want = moment(table, range(len(measured)))
            if not abs(value - want) <= EXACT_TOL:
                problems.append(f"moment {name}: {value!r} vs oracle {want!r}")
    satisfied = all(c["verdict"] == "satisfied" for c in report["conditions"]) and all(
        w["verdict"] == "non-invasive" for w in report["witnesses"])
    if report["verdict"] != ("all_satisfied" if satisfied else "violations"):
        problems.append(f"verdict {report['verdict']!r} disagrees with its conditions")
    if exit_code is not None and exit_code != (0 if report["verdict"] == "all_satisfied" else 1):
        problems.append(f"exit code {exit_code} for verdict {report['verdict']!r}")
    return problems


def _row_scenario(spec: dict, value: float) -> dict:
    data = {**spec["scenario"], "protocol": dict(spec["scenario"]["protocol"])}
    if spec["parameter"] == "schedule.gap":
        data["schedule"] = [value * (k + 1) for k in range(len(data["schedule"]))]
    else:
        data["protocol"]["clumsiness"] = {**data["protocol"]["clumsiness"], "strength": value}
    return data


def _nsit12(scenario: dict) -> float:
    """max |W| of NSIT-(2;12): companion p2 minus the marginal of p12."""
    rho, h, q = system(scenario)
    times = scenario["schedule"]
    mech = (1,) if scenario["protocol"]["mode"] in MECHANISM_MODES else ()
    eps = float(scenario["protocol"]["clumsiness"].get("strength", 0.0))
    p12 = sequential_table(rho, h, q, times, (1, 2), mech, eps)
    p2 = sequential_table(rho, h, q, times, (2,), mech, 0.0)
    return max(abs(p2[(s,)] - p12[(1, s)] - p12[(-1, s)]) for s in (1, -1))


def _lg3(scenario: dict) -> list[float]:
    rho, h, q = system(scenario)
    times = scenario["schedule"]
    eps = float(scenario["protocol"]["clumsiness"].get("strength", 0.0))
    c = {}
    for k in ((1, 2), (2, 3), (1, 3)):
        mech = k[:1] if scenario["protocol"]["mode"] in MECHANISM_MODES else ()
        c[k] = moment(sequential_table(rho, h, q, times, k, mech, eps), (0, 1))
    return [1 + a * c[(1, 2)] + b * c[(2, 3)] + e * c[(1, 3)]
            for a, b, e in ((1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1))]


def check_sweep(csv_text: str, spec: dict, error_row, rows=None, exit_code=None) -> list[str]:
    """Rows in sweep order, an error only at ``error_row``, exact margins from the oracle.

    ``rows`` (the sweep's JSON output) supplies the row verdicts the exit code
    must agree with.
    """
    problems = []
    table = list(csv.reader(io.StringIO(csv_text)))
    header, body = table[0], table[1:]
    values = spec["values"]
    if len(body) != len(values):
        return [f"sweep has {len(body)} rows, expected {len(values)}"]
    exact = int(spec["scenario"].get("shots", 0)) == 0
    for i, (row, value) in enumerate(zip(body, values)):
        cells = dict(zip(header, row))
        if cells["value"] != repr(float(value)):
            problems.append(f"row {i}: value {cells['value']} out of order, expected {value!r}")
            continue
        if bool(cells["error"]) != (i == error_row):
            problems.append(f"row {i}: error column {cells['error']!r}")
        if not exact or i == error_row:
            continue
        scenario = _row_scenario(spec, float(value))
        expected = {"NSIT-(2;12)": _nsit12(scenario)}
        if "LG3" in scenario["checks"]:
            expected.update({f"LG3-{k}": v for k, v in enumerate(_lg3(scenario), start=1)})
        for cid, want in expected.items():
            if not abs(float(cells[cid]) - want) <= EXACT_TOL:
                problems.append(f"row {i} {cid}: {cells[cid]} vs oracle {want!r}")
    if rows is not None:
        if [r["value"] for r in rows] != values:
            problems.append("JSON rows out of sweep order")
        want_code = 1 if any(r["verdict"] == "violations" for r in rows) else 0
        if exit_code is not None and exit_code != want_code:
            problems.append(f"exit code {exit_code}, expected {want_code}")
    return problems


def candidate_entries(n: int, values: dict) -> list[float]:
    """The 2^n candidate probabilities of a complete moment set, computed directly."""
    return [(1 + sum(v * math.prod(s[i - 1] for i in k) for k, v in values.items())) / 2**n
            for s in itertools.product((1, -1), repeat=n)]


def check_feasibility(result, moment_set, expected_feasible: bool) -> list[str]:
    """A feasible answer must complete to candidates >= -1e-9; an LG-violating set must be refuted."""
    feasible, payload = result
    if feasible != expected_feasible:
        return [f"feasible={feasible}, expected {expected_feasible}"]
    if not feasible:
        certified = (payload.violated_constant is not None and payload.violated_constant < 0) or (
            payload.lower is not None and payload.upper is not None and payload.lower > payload.upper)
        return [] if certified else [f"certificate proves nothing: {payload}"]
    if set(payload) != set(moment_set.unfixed_keys()):
        return [f"witness covers {sorted(payload)}, expected {moment_set.unfixed_keys()}"]
    worst = min(candidate_entries(moment_set.n, {**moment_set.values, **payload}))
    return [] if worst >= -1e-9 else [f"witness completes to a candidate entry {worst!r}"]
