"""Fourier-Motzkin feasibility with Chernikov pruning, against independent oracles.

* An LP oracle: scipy's HiGHS decides whether {p >= 0, sum p = 1, fixed
  moments} has a solution, over n=3 with 1-7 and n=4 with 1-15 unfixed
  moments.  Sets whose best minimum entry lies within 1e-7 of 0 are skipped,
  because there the decision is a matter of rounding.
* The unpruned elimination (``fm_reference``): inside the envelope where it
  finishes, decisions must be identical and witnesses equal to 1e-12.
* The pruned elimination on sparse dicts and frozensets, frozen in
  ``fm_reference.pruned_completion``: over the LP oracle's whole range the
  dense elimination must give identical decisions, certificate kinds and
  variables, bounds and witnesses equal to 1e-12, and hand ``_reduce`` the same
  number of constraints at every stage.
* A size regression: no elimination stage may hand ``_reduce`` more than 1000
  constraints, where the unpruned elimination reached 144,780 at n=3 and ran
  out of memory at n=4 with 6 or more unfixed moments.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

import fm_reference
from lgcert import macrocert
from lgcert.macrocert import (
    InfeasibilityCertificate,
    MomentSet,
    feasible_completion,
    moment_keys,
)

from fm_reference import feasible_completion as reference_completion

LP_SKIP = 1e-7


def sign_matrix(n: int) -> np.ndarray:
    """Row per moment key, column per outcome: the product of the outcome's signs."""
    outcomes = list(itertools.product((1, -1), repeat=n))
    return np.array(
        [[math.prod(s[i - 1] for i in key) for s in outcomes] for key in moment_keys(n)],
        dtype=float,
    )


def joint_moments(rng, n: int) -> dict:
    p = rng.dirichlet(np.ones(2**n))
    return dict(zip(moment_keys(n), (float(v) for v in sign_matrix(n) @ p)))


def uniform_moments(rng, n: int) -> dict:
    return {key: float(rng.uniform(-1, 1)) for key in moment_keys(n)}


def lp_min_entry(n: int, fixed: dict) -> float:
    """max t subject to p >= t, sum p = 1 and the fixed moments (HiGHS)."""
    size = 2**n
    signs = sign_matrix(n)
    keys = moment_keys(n)
    rows = [np.ones(size)] + [signs[keys.index(key)] for key in fixed]
    a_eq = np.hstack([np.array(rows), np.zeros((len(rows), 1))])
    a_ub = np.hstack([-np.eye(size), np.ones((size, 1))])
    objective = np.zeros(size + 1)
    objective[-1] = -1.0
    result = linprog(
        objective, A_ub=a_ub, b_ub=np.zeros(size), A_eq=a_eq, b_eq=[1.0, *fixed.values()],
        bounds=[(None, None)] * size + [(None, 1.0)], method="highs",
    )
    assert result.status == 0, result.message
    return -result.fun


def unfixed_choice(rng, n: int, k: int, draw: int) -> list[tuple[int, ...]]:
    # even draws unfix the highest-order moments first, odd draws a random subset
    keys = moment_keys(n)
    if draw % 2 == 0:
        return keys[:k]
    return [keys[i] for i in sorted(rng.choice(len(keys), size=k, replace=False))]


def moment_set(values: dict, n: int, unfixed) -> MomentSet:
    return MomentSet(n, {key: v for key, v in values.items() if key not in unfixed})


def assert_certifies(m: MomentSet, result) -> None:
    feasible, payload = result
    if feasible:
        assert set(payload) == set(m.unfixed_keys())
        completed = {**m.values, **payload}
        values = np.array([completed[key] for key in moment_keys(m.n)])
        entries = (1.0 + values @ sign_matrix(m.n)) / 2**m.n
        assert entries.min() >= -1e-9
    else:
        assert isinstance(payload, InfeasibilityCertificate)
        if payload.violated_constant is not None:
            assert payload.violated_constant < 0
        else:
            assert payload.lower > payload.upper


CASES = [(3, k) for k in range(1, 8)] + [(4, k) for k in range(1, 16)]


@pytest.mark.parametrize("n,k", CASES, ids=[f"n{n}-unfixed{k}" for n, k in CASES])
def test_decision_matches_lp_oracle(n, k):
    rng = np.random.default_rng(1000 * n + k)
    decided = {True: 0, False: 0}
    for draw in range(16):
        source = joint_moments if draw % 4 < 2 else uniform_moments
        m = moment_set(source(rng, n), n, unfixed_choice(rng, n, k, draw))
        result = feasible_completion(m)
        assert_certifies(m, result)
        margin = lp_min_entry(n, dict(m.values))
        if abs(margin) <= LP_SKIP:
            continue
        assert result[0] == (margin > 0), f"margin {margin}, {m.values}"
        decided[result[0]] += 1
    assert decided[True] >= 4  # the joint draws are always decided feasible


def test_lp_oracle_sees_both_decisions():
    # uniform draws with few unfixed moments violate some LG inequality
    rng = np.random.default_rng(7)
    decisions = set()
    for n, k in [(3, 1), (4, 3), (4, 8)]:
        for _ in range(10):
            m = moment_set(uniform_moments(rng, n), n, moment_keys(n)[:k])
            lp_feasible = lp_min_entry(n, dict(m.values)) > 0
            assert feasible_completion(m)[0] == lp_feasible
            decisions.add(lp_feasible)
    assert decisions == {True, False}


REFERENCE_CASES = (
    [(3, k, 12) for k in range(1, 7)] + [(3, 7, 2)] + [(4, k, 12) for k in range(1, 6)]
)


@pytest.mark.parametrize(
    "n,k,sets", REFERENCE_CASES, ids=[f"n{n}-unfixed{k}" for n, k, _ in REFERENCE_CASES]
)
def test_same_answers_as_unpruned_elimination(n, k, sets):
    rng = np.random.default_rng(2000 * n + k)
    for draw in range(sets):
        source = joint_moments if draw % 4 < 2 else uniform_moments
        m = moment_set(source(rng, n), n, unfixed_choice(rng, n, k, draw))
        feasible, payload = feasible_completion(m)
        ref_feasible, ref_payload = reference_completion(m)
        assert feasible == ref_feasible
        if feasible:
            assert payload.keys() == ref_payload.keys()
            for key, value in payload.items():
                assert value == pytest.approx(ref_payload[key], abs=1e-12)


def record_reduce_sizes(monkeypatch, module) -> list[int]:
    """Patch ``module._reduce`` to append the size of each stage it is handed."""
    sizes: list[int] = []
    reduce = module._reduce

    def recording_reduce(constraints):
        sizes.append(len(constraints))
        return reduce(constraints)

    monkeypatch.setattr(module, "_reduce", recording_reduce)
    return sizes


@pytest.mark.parametrize("n,k", CASES, ids=[f"n{n}-unfixed{k}" for n, k in CASES])
def test_same_answers_and_stages_as_sparse_elimination(monkeypatch, n, k):
    sizes = record_reduce_sizes(monkeypatch, macrocert)
    ref_sizes = record_reduce_sizes(monkeypatch, fm_reference)
    rng = np.random.default_rng(4000 * n + k)
    for draw in range(12):
        source = joint_moments if draw % 4 < 2 else uniform_moments
        m = moment_set(source(rng, n), n, unfixed_choice(rng, n, k, draw))
        sizes.clear()
        ref_sizes.clear()
        feasible, payload = feasible_completion(m)
        ref_feasible, ref_payload = fm_reference.pruned_completion(m)
        assert sizes == ref_sizes
        assert feasible == ref_feasible
        if feasible:
            assert list(payload) == list(ref_payload)
            for key, value in payload.items():
                assert value == pytest.approx(ref_payload[key], abs=1e-12)
            continue
        assert payload.variable == ref_payload.variable
        for name in ("lower", "upper", "violated_constant"):
            value, ref_value = getattr(payload, name), getattr(ref_payload, name)
            assert (value is None) == (ref_value is None)
            if value is not None:
                assert value == pytest.approx(ref_value, abs=1e-12)


SIZE_CASES = [(3, 7)] + [(4, k) for k in range(6, 16)]


@pytest.mark.parametrize("n,k", SIZE_CASES, ids=[f"n{n}-unfixed{k}" for n, k in SIZE_CASES])
def test_stage_sizes_stay_bounded(monkeypatch, n, k):
    sizes = record_reduce_sizes(monkeypatch, macrocert)
    rng = np.random.default_rng(3000 * n + k)
    for draw in range(4):
        m = moment_set(joint_moments(rng, n), n, unfixed_choice(rng, n, k, draw))
        assert_certifies(m, feasible_completion(m))
    assert sizes, "the elimination never reached _reduce"
    assert max(sizes) <= 1000


def sparse(constraint, keys):
    """A dense ``macrocert`` constraint in the sparse form of ``fm_reference``."""
    coeffs, const, anc, _ = constraint
    ancestors = frozenset(i for i in range(anc.bit_length()) if anc >> i & 1)
    return {k: v for k, v in zip(keys, coeffs) if v != 0.0}, const, ancestors


def kept_by_both(constraints):
    """The constraints the dense ``_reduce`` keeps, checked against the sparse one."""
    keys = [(1, 2), (1, 3)]
    kept = macrocert._reduce(constraints)
    sparse_kept = fm_reference._reduce([sparse(c, keys) for c in constraints])
    assert [sparse(c, keys) for c in kept] == sparse_kept
    return kept


def test_reduce_keeps_a_tiny_coefficient_apart_from_a_zero():
    tiny = ([1e-13, 1.0], 0.5, 0b01, 1)
    zero = ([0.0, 1.0], 0.25, 0b10, 1)
    kept = kept_by_both([tiny, zero])
    assert len(kept) == 2 and kept[0] is tiny and kept[1] is zero


def test_reduce_puts_both_signs_of_zero_in_one_class():
    negative = ([-0.0, 1.0], 0.5, 0b01, 1)
    positive = ([0.0, 1.0], 0.25, 0b10, 1)
    for constraints in ([negative, positive], [positive, negative]):
        kept = kept_by_both(constraints)
        assert len(kept) == 1 and kept[0] is positive


def test_reduce_keeps_fewer_ancestors_between_equal_constants():
    more = ([1.0, -1.0], 0.5, 0b0111, 3)
    fewer = ([1.0, -1.0], 0.5, 0b1001, 2)
    lower = ([1.0, -1.0], 0.25, 0b1111, 4)
    for constraints in ([more, fewer], [fewer, more]):
        kept = kept_by_both(constraints)
        assert len(kept) == 1 and kept[0] is fewer
    kept = kept_by_both([fewer, lower])
    assert len(kept) == 1 and kept[0] is lower
