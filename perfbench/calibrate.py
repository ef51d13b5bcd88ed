"""Calibration block: a fixed piece of work that measures how fast the host runs now.

On a shared machine the same loop can run a third slower for tens of seconds
when neighbours are busy, and that drift swamps a 25% regression bound.  The
timed loop therefore runs this block between passes and scales each pass's
wall times by ``NOMINAL_NS / block time``: a timing then reads as it would on
a host where the block takes ``NOMINAL_NS``.  The block never calls lgcert,
so a change to the program moves the scaled figures exactly as it moves the
wall times; only the host's speed is divided out.

Its mix mirrors what lgcert spends time on: small Hermitian eigensolves,
matrix products and Kronecker products, Python dictionaries and indented
JSON encoding.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

import numpy as np
from numpy.linalg import eigh  # bound at import, so a tracer's counted eigh never sees it

NOMINAL_NS = 17_000_000  # the block's typical time on the machine of perfbench/NOTES.md
ROUNDS = 150

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8))
_H = (_A + _A.conj().T) / 2.0
_STEP = np.diag(np.arange(8.0)) * 1e-3


def block_ns() -> int:
    """Wall time in ns of one run of the fixed block."""
    t0 = perf_counter_ns()
    table = {}
    for i in range(ROUNDS):
        w, v = eigh(_H + i * _STEP)
        u = (v * np.exp(-1j * w)) @ v.conj().T
        p = np.kron(u[:2, :2], u[:2, :2].conj())
        table[f"r{i}"] = {f"e{j}": [float(x.real), float(x.imag)] for j, x in enumerate(p.ravel())}
    json.dumps(table, indent=2)
    return perf_counter_ns() - t0
