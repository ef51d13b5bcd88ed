"""Seeded input generator for the lgcert benchmark.

``generate(workload, seed, outdir)`` writes every input of one workload into
``outdir`` and returns the list of inputs with what the checker expects of
each.  The same workload and seed always give byte-identical files: all
randomness comes from one ``numpy.random.Generator`` seeded from the
workload's index and ``seed``, and JSON is written with sorted keys.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("certify-exact", "certify-shots", "sweep", "feasibility")
MODES = ("projective", "inrm", "projective_dephased", "inrm_dephased", "ancilla_blind")
CHECKS = {
    3: ["LG2", "LG3", "NONNEG3", "NSIT", "NSIT3", "MONO", "APPENDIX"],
    4: ["LG2", "LG3", "LG4", "NONNEG3", "NONNEG4", "NSIT", "NSIT3", "MONO", "APPENDIX"],
}
CLUMSINESS = 0.05
SHOTS = 10_000
SWEEP_POINTS = 64

# The precession scenario of the README: the canonical qubit LG3 violation.
README_SCENARIO = {
    "dimension": 2,
    "initial_state": "maximally_mixed",
    "hamiltonian": {"preset": "precession", "frequency": 1.0},
    "observable": "sigma_z",
    "schedule": [1.0471975511965976, 2.0943951023931953, 3.141592653589793],
    "protocol": {"mode": "projective", "dephase_times": None, "clumsiness": {"kind": "none"}},
    "checks": ["LG3", "LG2", "NSIT", "MONO"],
    "shots": 0,
    "seed": 42,
}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), int(seed)])


def _to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _gaussian(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _density(rng, d):
    a = _gaussian(rng, d)
    m = a @ a.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def _hermitian(rng, d):
    a = _gaussian(rng, d)
    return (a + a.conj().T) / 2.0


def _dichotomic(rng, d):
    q, r = np.linalg.qr(_gaussian(rng, d))
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    signs = np.array([1.0 if k < (d + 1) // 2 else -1.0 for k in range(d)])
    m = (v * signs) @ v.conj().T
    return (m + m.conj().T) / 2.0


def random_scenario(rng, d: int, m: int, mode: str, shots: int, checks) -> dict:
    """A scenario with random state, Hamiltonian, dichotomic observable and schedule."""
    times = np.cumsum(rng.uniform(0.2, 1.5, size=m))
    return {
        "dimension": d,
        "initial_state": _to_json(_density(rng, d)),
        "hamiltonian": _to_json(_hermitian(rng, d)),
        "observable": _to_json(_dichotomic(rng, d)),
        "schedule": [float(t) for t in times],
        "protocol": {
            "mode": mode,
            "dephase_times": None,
            "clumsiness": {"kind": "depolarizing", "strength": CLUMSINESS},
        },
        "checks": list(checks),
        "shots": shots,
        "seed": int(rng.integers(2**31)),
    }


def _write(path: Path, data) -> Path:
    path.write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _certify(rng, outdir, dims, shots, derive_options):
    inputs = []
    for d, m, mode, derive in itertools.product(dims, (3, 4), MODES, derive_options):
        data = random_scenario(rng, d, m, mode, shots, CHECKS[m])
        if derive:
            data["derive_lower_moments"] = True
        name = f"d{d}-m{m}-{mode}" + ("-derived" if derive else "")
        inputs.append({"kind": "certify", "name": name,
                       "path": _write(outdir / f"{name}.json", data), "scenario": data})
    return inputs


def _sweeps(rng, outdir):
    gaps = [float(v) for v in rng.uniform(0.1, 2.0, size=SWEEP_POINTS)]
    blind = random_scenario(rng, 4, 3, "ancilla_blind", 0, ["NSIT", "NSIT3", "MONO"])
    strengths = [float(v) for v in rng.uniform(0.0, 0.5, size=SWEEP_POINTS)]
    inrm = dict(README_SCENARIO, protocol=dict(README_SCENARIO["protocol"], mode="inrm"),
                shots=1000, seed=int(rng.integers(2**31)))
    inrm_gaps = [float(v) for v in rng.uniform(0.1, 2.0, size=SWEEP_POINTS)]
    bad = int(rng.integers(SWEEP_POINTS))
    inrm_gaps[bad] = -inrm_gaps[bad]  # a negative gap must come back as an error row
    specs = [
        ("gap-precession", README_SCENARIO, "schedule.gap", gaps, None),
        ("strength-blind-d4", blind, "protocol.clumsiness.strength", strengths, None),
        ("gap-inrm-shots", inrm, "schedule.gap", inrm_gaps, bad),
    ]
    inputs = []
    for name, template, parameter, values, error_row in specs:
        spec = {"scenario": template, "parameter": parameter, "values": values}
        inputs.append({"kind": "sweep", "name": name, "path": _write(outdir / f"{name}.json", spec),
                       "spec": spec, "error_row": error_row})
    return inputs


def moment_keys(n: int) -> list[tuple[int, ...]]:
    """Every moment index tuple for n times, highest order first."""
    keys = [k for r in range(1, n + 1) for k in itertools.combinations(range(1, n + 1), r)]
    return sorted(keys, key=lambda k: (-len(k), k))


def _joint_moments(rng, n):
    p = rng.dirichlet(np.ones(2**n))
    outcomes = list(itertools.product((1, -1), repeat=n))
    return {k: float(sum(pi * math.prod(s[i - 1] for i in k) for pi, s in zip(p, outcomes)))
            for k in moment_keys(n)}


def _feasibility(rng, outdir):
    # n=3 sets leave 1..7 moments unfixed; n=4 sets 1..5, always highest order
    # first.  Infeasible sets keep a pair triple that violates LG3 fixed and
    # unfix the highest-order non-pair moments instead, so n=3 ones leave at
    # most 4 unfixed and appear twice.  25 sets put the p50 and p90 ranks
    # (12.5, 22.5) mid-way through one input's latencies, not on a boundary.
    plan = ([(3, k, True) for k in range(1, 8)] + [(3, k, False) for k in (1, 2, 3, 4) * 2]
            + [(4, k, True) for k in range(1, 6)] + [(4, k, False) for k in range(1, 6)])
    sets = []
    for n, k, feasible in plan:
        values = _joint_moments(rng, n)
        if feasible:
            unfixed = moment_keys(n)[:k]
        else:
            theta = float(rng.uniform(math.pi / 4, 5 * math.pi / 12))
            values[(1, 2)] = values[(2, 3)] = math.cos(theta)
            values[(1, 3)] = math.cos(2 * theta)
            unfixed = [key for key in moment_keys(n) if len(key) != 2][:k]
        fixed = {",".join(map(str, key)): v for key, v in values.items() if key not in unfixed}
        sets.append({"n": n, "values": fixed, "feasible": feasible})
    path = _write(outdir / "feasibility.json", sets)
    return [{"kind": "feasibility", "path": path, "set": s,
             "name": f"{i:02d}-n{s['n']}-unfixed{2**s['n'] - 1 - len(s['values'])}-"
             + ("feasible" if s["feasible"] else "lg-violating")}
            for i, s in enumerate(sets)]


def generate(workload: str, seed: int, outdir: Path) -> list[dict]:
    """Write the inputs of ``workload`` for ``seed`` into ``outdir`` and describe them."""
    rng = _rng(workload, seed)
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "certify-exact":
        return _certify(rng, outdir, (2, 4, 16), 0, (False,))
    if workload == "certify-shots":
        return _certify(rng, outdir, (2, 4), SHOTS, (False, True))
    if workload == "sweep":
        return _sweeps(rng, outdir)
    if workload == "feasibility":
        return _feasibility(rng, outdir)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
