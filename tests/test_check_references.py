"""The one-pass APPENDIX and NONNEG computations equal their per-pair and per-key references bit for bit.

``check_appendix_identities`` takes its sixteen traces from two stacked
products, each associated as the per-pair chains of
``macrocert_reference`` are; ``_candidate_entries`` reads each moment once
and each sign from ``_sign_rows``.  Every margin, variance and entry must
keep its bits, on floats and on the (R,) columns sweep rows use, and the
sub-moment-set ``_nonnegativity`` builds must give what a validated one
gives.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import macrocert_reference
from lgcert.macrocert import (
    MomentSet,
    _candidate_entries,
    _nonnegativity,
    _row_total,
    candidate_probability,
    check_appendix_identities,
    check_nonnegativity,
    moment_keys,
)
from lgcert.qcore import ValidationError

from conftest import random_density, random_dichotomic, random_hamiltonian

# Zeros of both signs, the ends of the range and values whose sums round.
TRICKY = [0.0, -0.0, 1.0, -1.0, 1 / 3, -1 / 3, 0.1, 0.2, 0.3, 1e-17, -1e-17, 0.5]


def bits(values) -> list[int]:
    """Each float's exact bits, zeros of either sign and NaN told apart."""
    return np.asarray(values, dtype=float).view(np.uint64).ravel().tolist()


def report_bits(report) -> list[tuple]:
    return [(e.condition, e.verdict, e.stderr, bits([e.margin])) for e in report.entries]


def random_case(d: int, seed: int):
    rng = np.random.default_rng(1000 * d + seed)
    rho, h, q = random_density(rng, d), random_hamiltonian(rng, d), random_dichotomic(rng, d)
    t1, t2 = sorted(rng.uniform(0.0, 3.0, size=2))
    return rho, h, q, t1, t2


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("seed", range(8))
def test_appendix_equals_per_pair_products(d, seed):
    case = random_case(d, seed)
    got = check_appendix_identities(*case)
    assert report_bits(got) == report_bits(macrocert_reference.check_appendix_identities(*case))


def test_random_cases_reach_both_sides_of_the_witness_bound():
    with_bound = [
        any(e.condition.startswith("A-WBOUND") for e in check_appendix_identities(*random_case(d, seed)).entries)
        for d in [2, 3, 4, 8, 16]
        for seed in range(8)
    ]
    assert any(with_bound) and not all(with_bound)


def random_moments(rng: np.random.Generator, n: int, rows: int | None):
    """Moments and variances per key: floats, or (rows,) columns, a third of them from ``TRICKY``."""
    size = () if rows is None else (rows,)

    def draw(low: float, high: float):
        v = rng.uniform(low, high, size=size)
        pick = rng.random(size=size) < 1 / 3
        v = np.where(pick, rng.choice(TRICKY, size=size), v)
        return float(v) if rows is None else v

    keys = moment_keys(n)
    return {key: draw(-1.0, 1.0) for key in keys}, {key: abs(draw(0.0, 1e-3)) for key in keys}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("rows", [None, 1, 7])
@pytest.mark.parametrize("seed", range(10))
def test_candidate_entries_equal_per_key_signs(n, rows, seed):
    rng = np.random.default_rng([n, rows or 0, seed])
    m, v = random_moments(rng, n, rows)
    total = sum if rows is None else _row_total
    got, got_var = _candidate_entries(m, v.__getitem__, n, total)
    want, want_var = macrocert_reference.candidate_entries(m, v.__getitem__, n, total)
    assert list(got) == list(want)
    assert [bits(x) for x in got.values()] == [bits(x) for x in want.values()]
    assert bits(got_var) == bits(want_var)


@pytest.mark.parametrize("n", [3, 4])
def test_candidate_entries_equal_reference_on_a_moment_set(n):
    rng = np.random.default_rng(n)
    values, variances = random_moments(rng, n, None)
    m = MomentSet(n=n, values=values, variances=variances)
    got, got_var = _candidate_entries(m, m.variance, n)
    want, want_var = macrocert_reference.candidate_entries(m, m.variance, n)
    assert [bits(x) for x in got.values()] == [bits(x) for x in want.values()]
    assert bits(got_var) == bits(want_var)


@pytest.mark.parametrize("empirical", [False, True])
def test_nonnegativity_sub_set_equals_a_validated_one(empirical):
    rng = np.random.default_rng(7)
    values, variances = random_moments(rng, 4, None)
    m = MomentSet(n=4, values=values, variances=variances if empirical else {})
    sub = MomentSet(
        n=3,
        values={k: v for k, v in m.values.items() if max(k) <= 3},
        variances={k: v for k, v in m.variances.items() if max(k) <= 3},
    )
    want = check_nonnegativity(candidate_probability(sub)).entries
    for n, expected in [(3, want), (4, check_nonnegativity(candidate_probability(m)).entries)]:
        got = _nonnegativity(m, n)
        assert [(e.condition, e.verdict, e.stderr) for e in got] == [(e.condition, e.verdict, e.stderr) for e in expected]
        assert bits([e.margin for e in got]) == bits([e.margin for e in expected])


def test_unfixed_moment_raises_as_before():
    m = MomentSet(n=3, values={key: 0.1 for key in moment_keys(3) if key != (2, 3)})
    with pytest.raises(ValidationError) as got:
        _candidate_entries(m, m.variance, 3)
    with pytest.raises(ValidationError) as want:
        macrocert_reference.candidate_entries(m, m.variance, 3)
    assert str(got.value) == str(want.value) == "moment (2, 3) is unfixed"


def test_sign_tuples_in_product_order():
    values, _ = _candidate_entries({key: 0.0 for key in moment_keys(3)}, lambda key: 0.0, 3)
    assert list(values) == list(itertools.product((1, -1), repeat=3))
