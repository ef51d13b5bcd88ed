"""The shortcuts inside the Fourier-Motzkin elimination give what the plain forms give.

* ``_reduce`` reads each coefficient's rounding from a capped memo
  (``_ROUNDED``); the classes it forms must be those of the plain signature
  ``tuple(None if v == 0.0 else round(v, 12) for v in coeffs)``, whatever the
  memo held before, and the memo must never pass its cap.
* ``_minimal_ancestors`` compares a mask only with kept masks of fewer bits;
  it must keep what the frozenset rule of ``fm_reference`` keeps.
* A pivot of exactly +-1 skips the division; its rows must be bitwise those
  of the division path.
"""

from __future__ import annotations

import numpy as np
import pytest

import fm_reference
from lgcert import macrocert
from lgcert.macrocert import MomentSet, feasible_completion, moment_keys

# Zeros of both signs, a tiny value that rounds to 0.0 but is not zero, and
# values that round together at 12 digits.
TRICKY = [0.0, -0.0, 1e-13, -1e-13, 1.0, -1.0, 1.0 + 1e-15, 1.0 - 1e-15,
          0.1 + 0.2, 0.3, 2.0, -2.0, 0.5, -0.5, 1 / 3, 0.333333333333]


def plain_signature(coeffs):
    return tuple(None if v == 0.0 else round(v, 12) for v in coeffs)


def plain_reduce(constraints):
    """``_reduce`` with the signature computed afresh for every constraint."""
    best = {}
    for constraint in constraints:
        coeffs, const, _, count = constraint
        key = plain_signature(coeffs)
        kept = best.get(key)
        if kept is None or const < kept[1] or (const == kept[1] and count < kept[3]):
            best[key] = constraint
    return list(best.values())


def random_constraints(rng, size: int, width: int, pool) -> list:
    constraints = []
    for _ in range(size):
        coeffs = [pool[i] for i in rng.integers(len(pool), size=width)]
        anc = int(rng.integers(1, 1 << 12))
        const = float(rng.choice([0.25, 0.5, rng.uniform(-1, 1)]))
        constraints.append((coeffs, const, anc, anc.bit_count()))
    return constraints


def assert_memo_is_plain_rounding():
    for v, rounded in macrocert._ROUNDED.items():
        assert rounded == (None if v == 0.0 else round(v, 12)), v


def same_constraints(kept, expected) -> bool:
    return [id(c) for c in kept] == [id(c) for c in expected]


@pytest.mark.parametrize("start", ["empty", "full", "one below the cap"])
def test_memoised_signature_classes_match_plain_rounding(monkeypatch, start):
    cap = macrocert._ROUNDED_CAP
    memo = {}
    if start != "empty":
        # unrelated values that round to themselves fill the memo up to (or one below) its cap
        size = cap if start == "full" else cap - 1
        memo = {float(i) + 0.5: float(i) + 0.5 for i in range(10, 10 + size)}
    monkeypatch.setattr(macrocert, "_ROUNDED", memo)
    rng = np.random.default_rng(17)
    for _ in range(200):
        pool = TRICKY + [float(v) for v in rng.uniform(-3, 3, size=4)]
        constraints = random_constraints(rng, int(rng.integers(1, 40)), int(rng.integers(1, 8)), pool)
        assert same_constraints(macrocert._reduce(constraints), plain_reduce(constraints))
        assert len(macrocert._ROUNDED) <= cap
        assert_memo_is_plain_rounding()


@pytest.mark.parametrize("first, second", [(-0.0, 0.0), (0.0, -0.0)])
def test_zeros_of_either_sign_share_one_class_in_either_order(monkeypatch, first, second):
    monkeypatch.setattr(macrocert, "_ROUNDED", {})
    a = ([first, 1.0], 0.5, 0b01, 1)
    b = ([second, 1.0], 0.25, 0b10, 1)
    assert same_constraints(macrocert._reduce([a, b]), [b])
    assert macrocert._ROUNDED[0.0] is None and macrocert._ROUNDED[-0.0] is None


def test_a_tiny_coefficient_stays_apart_from_zero_in_either_order(monkeypatch):
    monkeypatch.setattr(macrocert, "_ROUNDED", {})
    tiny = ([1e-13, 1.0], 0.5, 0b01, 1)
    zero = ([0.0, 1.0], 0.25, 0b10, 1)
    for constraints in ([tiny, zero], [zero, tiny]):
        assert same_constraints(macrocert._reduce(constraints), constraints)
    assert macrocert._ROUNDED[1e-13] == 0.0 and macrocert._ROUNDED[0.0] is None


def test_values_that_round_together_share_one_class(monkeypatch):
    monkeypatch.setattr(macrocert, "_ROUNDED", {})
    a = ([0.1 + 0.2], 0.5, 0b01, 1)
    b = ([0.3], 0.25, 0b10, 1)
    c = ([1.0 + 1e-15], 0.5, 0b100, 1)
    d = ([1.0], 0.75, 0b1000, 1)
    assert same_constraints(macrocert._reduce([a, b, c, d]), [b, c])


def test_a_cleared_memo_is_refilled_with_the_same_roundings(monkeypatch):
    monkeypatch.setattr(macrocert, "_ROUNDED_CAP", 4)
    monkeypatch.setattr(macrocert, "_ROUNDED", {})
    rng = np.random.default_rng(3)
    for _ in range(100):
        constraints = random_constraints(rng, 10, 5, TRICKY)
        assert same_constraints(macrocert._reduce(constraints), plain_reduce(constraints))
        assert len(macrocert._ROUNDED) <= 4
        assert_memo_is_plain_rounding()


def test_memo_stays_within_its_cap_over_many_sets(monkeypatch):
    monkeypatch.setattr(macrocert, "_ROUNDED", {})
    cap = macrocert._ROUNDED_CAP
    rng = np.random.default_rng(11)
    # distinct coefficient values far beyond the cap
    for _ in range(3 * cap // 50):
        pool = [float(v) for v in rng.uniform(-2, 2, size=50)]
        macrocert._reduce(random_constraints(rng, 20, 6, pool))
        assert len(macrocert._ROUNDED) <= cap
    for draw in range(200):
        n = 3 if draw % 2 else 4
        keys = moment_keys(n)
        k = int(rng.integers(1, len(keys)))
        unfixed = {keys[i] for i in rng.choice(len(keys), size=k, replace=False)}
        values = {key: float(rng.uniform(-1, 1)) for key in keys if key not in unfixed}
        feasible_completion(MomentSet(n, values))
        assert len(macrocert._ROUNDED) <= cap
    assert_memo_is_plain_rounding()


def as_reference(constraint):
    coeffs, const, anc, _ = constraint
    return coeffs, const, frozenset(i for i in range(anc.bit_length()) if anc >> i & 1)


@pytest.mark.parametrize("width", [4, 8, 16])
def test_minimal_ancestors_keeps_what_the_frozenset_rule_keeps(width):
    rng = np.random.default_rng(width)
    for _ in range(300):
        size = int(rng.integers(1, 60))
        # few distinct bit counts, so that many masks share one; repeats included
        masks = [int(sum(1 << int(b) for b in rng.choice(width, size=int(rng.integers(1, 4)), replace=False)))
                 for _ in range(size)]
        masks += [masks[int(i)] for i in rng.integers(len(masks), size=size // 4)]
        constraints = [([float(i)], 0.0, anc, anc.bit_count()) for i, anc in enumerate(masks)]
        kept = macrocert._minimal_ancestors(constraints)
        expected = fm_reference._minimal_ancestors([as_reference(c) for c in constraints])
        assert [as_reference(c) for c in kept] == expected


def test_equal_count_masks_are_all_kept():
    constraints = [([float(i)], 0.0, anc, 2) for i, anc in enumerate([0b0011, 0b0110, 0b1100, 0b0011])]
    assert macrocert._minimal_ancestors(constraints) == constraints


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_unit_pivot_rows_are_bitwise_the_division_path():
    rng = np.random.default_rng(5)
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e308, 1 / 3, -2.0]
    for _ in range(500):
        rest = specials + [float(v) for v in rng.normal(scale=10.0 ** rng.integers(-20, 20), size=6)]
        const = float(rng.choice(specials + [float(rng.normal())]))
        # a = 1.0: a lower bound; the shortcut negates where the division path divides, then negates
        a = 1.0
        assert bits([-v for v in rest]) == bits([-(v / a) for v in rest])
        assert bits([-const]) == bits([-(const / a)])
        # a = -1.0: an upper bound; the shortcut keeps what the division path divides by -a
        a = -1.0
        assert bits(rest) == bits([v / -a for v in rest])
        assert bits([const]) == bits([const / -a])


def test_first_stage_of_every_set_splits_on_unit_pivots():
    # every initial coefficient is +-1, so the first elimination always takes the shortcut
    for n in (3, 4):
        assert {abs(v) for row in macrocert._sign_rows(n) for v in row} == {1.0}
