"""Per-pair and per-key forms of two certification checks, kept as references for their one-pass forms.

``macrocert.check_appendix_identities`` computes its sixteen traces from
two stacked products, and ``macrocert._candidate_entries`` reads each
moment once and each sign from ``_sign_rows``.  This module keeps the loops
they replaced: one matrix product chain per outcome pair, and one sign
product per (sign tuple, moment key) pair.  ``tests/test_check_references.py``
checks that each one-pass form equals its reference bit for bit.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from lgcert.macrocert import (
    VERDICT_TOL,
    InequalityReport,
    _heisenberg_projectors,
    _result,
    moment_keys,
)
from lgcert.protocols import _outcome_key
from lgcert.qcore import DensityOperator, DichotomicObservable, Hamiltonian, ValidationError


def check_appendix_identities(
    rho: DensityOperator, h: Hamiltonian, q: DichotomicObservable, t1: float, t2: float
) -> InequalityReport:
    """The two-time identities with every trace taken from its own product chain."""
    if not isinstance(q, DichotomicObservable):
        raise ValidationError("the two-time identities are stated for a dichotomic observable")
    if not float(t1) < float(t2):
        raise ValidationError(f"need t1 < t2, got t1 = {t1}, t2 = {t2}")
    p1 = _heisenberg_projectors(q, h, t1)
    p2 = _heisenberg_projectors(q, h, t2)
    r = rho.matrix
    p12 = {
        (s1, s2): float(np.real(np.trace(p2[s2] @ p1[s1] @ r @ p1[s1])))
        for s1 in (1, -1)
        for s2 in (1, -1)
    }
    p2_alone = {s2: float(np.real(np.trace(p2[s2] @ r))) for s2 in (1, -1)}
    quasi = {
        (s1, s2): float(np.real(np.trace(p2[s2] @ p1[s1] @ r))) for s1 in (1, -1) for s2 in (1, -1)
    }
    witness = {s2: p2_alone[s2] - (p12[(1, s2)] + p12[(-1, s2)]) for s2 in (1, -1)}

    entries = []
    for s1, s2 in itertools.product((1, -1), repeat=2):
        residual = abs(p12[(s1, s2)] - (quasi[(s1, s2)] - 0.5 * witness[s2]))
        entries.append(_result(f"A-DECOMP-({_outcome_key((s1, s2))})", -residual, 0.0))
    all_q_nonneg = all(v >= -VERDICT_TOL for v in quasi.values())
    for s2 in (1, -1):
        if all_q_nonneg and witness[s2] < 0.0:
            bound = 2.0 * min(p12[(1, s2)], p12[(-1, s2)]) - abs(witness[s2])
            entries.append(_result(f"A-WBOUND-({_outcome_key((s2,))})", bound, 0.0))
    for s1, s2 in itertools.product((1, -1), repeat=2):
        entries.append(
            _result(f"A-MONO-({_outcome_key((s1, s2))})", p2_alone[s2] - p12[(s1, s2)], 0.0)
        )
        residual = abs((p2_alone[s2] - p12[(s1, s2)]) - (p12[(-s1, s2)] + witness[s2]))
        entries.append(_result(f"A-MONO-EQUIV-({_outcome_key((s1, s2))})", -residual, 0.0))
    return InequalityReport(tuple(entries))


def candidate_entries(m, var: Callable, n: int, total: Callable = sum):
    """The candidate entries and their variance, each sign product formed per (sign tuple, key)."""
    keys = moment_keys(n)
    values = {}
    for signs in itertools.product((1, -1), repeat=n):
        acc = 1.0
        for key in keys:
            sign = 1
            for i in key:
                sign *= signs[i - 1]
            acc = acc + sign * m[key]
        values[signs] = acc / (2**n)
    return values, total([var(key) for key in keys]) / (4**n)
