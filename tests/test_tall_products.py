"""Each tall product of the propagation kernel against the per-matrix products it replaced.

numpy's stacked ``matmul`` makes one BLAS call per d x d matrix.  Where the
right-hand factor of a product is shared, the kernel stacks the left-hand
matrices as the rows of one tall matrix instead, so numpy makes one call
per distinct right-hand matrix, across the rows of a stack that share it:
the conjugation's ``@ U^dag`` in the walk, the read-out's ``@ P_k`` (each
outcome's products of every row in one call, outcome-major across rows),
``@ P_s`` in ``dephase_matrix``, ``@ K^dag`` for a unitary kick and
``@ V^dag`` in ``unitary_for``.  Each row of a matrix
product is computed from its own left-hand row, so the tall products must
equal the per-matrix ones bit for bit, which keeps reports byte-identical.
That rests on the BLAS build: a failure message here prints numpy's, so a
difference on another machine can be tied to it.  A right-hand matrix that
every row of a stack shares makes one call for all of them, which a
recording array counts.

Left-hand products stay per matrix: a wide (d, B d) product differed from
the per-matrix one in the last bit on most random inputs at d = 2 and 3.

A tall product of more than ``_TALL_TERMS / d^2`` rows is cut into blocks
of that many rows, which BLAS runs on one thread; the last tests reach past
that size, where a whole product at d = 2 ran on a second thread.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math

import numpy as np
import pytest

from lgcert.protocols import _READ, _TRACE, _advance, _kick
from lgcert.qcore import (
    _TALL_TERMS,
    ClumsinessModel,
    Hamiltonian,
    ManyValuedObservable,
    _tall_product,
    dephase_matrix,
    unitary_for,
)

from conftest import random_hermitian, random_unitary

DIMENSIONS = [2, 3, 4, 8, 16]
OUTCOMES = [(d, k) for d in DIMENSIONS for k in (2, 3) if k <= d]  # (d, K)
SHAPES = [(1, 1), (1, 17), (2, 5), (7, 2), (7, 17), (70, 1), (70, 3), (33, 17)]  # (R, B)
FOLDED = (1_100, 8)  # (R, B) at d = 2: a right-hand matrix shared over R B d rows, more than one block


@functools.cache
def blas_build() -> str:
    """numpy's ``show_config()`` text, which names its BLAS library and version."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        np.show_config()
    return out.getvalue()


def assert_same_bits(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.shape == want.shape, what
    if got.tobytes() != want.tobytes():
        pytest.fail(f"{what}: the tall product differs from the per-matrix products\n{blas_build()}")


def complex_stack(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def observable(rng, d: int, k: int) -> ManyValuedObservable:
    """A k-outcome observable in a random basis: the last projector takes the spare dimensions."""
    basis = random_unitary(rng, d)
    columns = np.split(basis, [*range(1, k - 1), k - 1], axis=1)
    return ManyValuedObservable(tuple(c @ c.conj().T for c in columns), tuple(range(k)))


@pytest.mark.parametrize("d", DIMENSIONS)
def test_conjugation_right_product(d):
    rng = np.random.default_rng([d, 1])
    for rows, b in SHAPES + [FOLDED] * (d == 2):
        stack = complex_stack(rng, rows, b, d, d)
        unitaries = np.array([random_unitary(rng, d) for _ in range(rows)])
        # the walk's adjoints: a view of the conjugated unitaries, each matrix transposed
        adjoints = unitaries.conj().swapaxes(-1, -2)
        for right in (adjoints, adjoints[:1]):
            want = stack @ right[:, None]
            assert_same_bits(_tall_product(stack, right), want, f"d={d} R={rows} B={b} right rows={len(right)}")


@pytest.mark.parametrize(("d", "k"), OUTCOMES)
def test_read_out_right_product(d, k):
    rng = np.random.default_rng([d, k, 2])
    obs = observable(rng, d, k)
    projs = obs.projector_stack
    for rows, b in SHAPES + [FOLDED] * (d == 2):
        stack = complex_stack(rng, rows, b, d, d)
        left = projs[:, None] @ stack[:, None]  # (R, K, B, d, d), outcome-major
        for read, want in ((_READ, left @ projs[:, None]), (_TRACE, left)):
            got = _advance(stack, (None, None, 0, False, read), obs, None)
            assert_same_bits(got, want.reshape(rows, k * b, d, d), f"d={d} K={k} R={rows} B={b} read={read}")


@pytest.mark.parametrize(("d", "k"), OUTCOMES)
def test_dephasing_right_product(d, k):
    rng = np.random.default_rng([d, k, 3])
    obs = observable(rng, d, k)
    for rows, b in SHAPES:
        stack = complex_stack(rng, rows, b, d, d)
        want = np.zeros_like(stack)
        for p in obs.projector_stack:
            want += p @ stack @ p
        assert_same_bits(dephase_matrix(stack, obs), want, f"d={d} K={k} R={rows} B={b}")
    matrix = complex_stack(rng, d, d)
    want = sum(p @ matrix @ p for p in obs.projector_stack)
    assert_same_bits(dephase_matrix(matrix, obs), want, f"d={d} K={k} one matrix")


@pytest.mark.parametrize("d", DIMENSIONS)
def test_kick_right_product(d):
    rng = np.random.default_rng([d, 4])
    generator = random_hermitian(rng, d)
    for rows, b in SHAPES:
        stack = complex_stack(rng, rows, b, d, d)
        models = [ClumsinessModel.unitary_kick(eps, generator) for eps in rng.uniform(0.0, 1.0, size=rows)]
        for given in (models, models[:1]):
            kicks = np.array([m.kick_unitary for m in given])[:, None]
            want = kicks @ stack @ kicks.conj().swapaxes(-1, -2)
            assert_same_bits(_kick(given, d)(stack), want, f"d={d} R={rows} B={b} models={len(given)}")


@pytest.mark.parametrize("d", DIMENSIONS)
def test_unitaries_right_product(d):
    rng = np.random.default_rng([d, 5])
    h = Hamiltonian(random_hermitian(rng, d))
    eigvals, eigvecs = h.spectrum
    for n in (1, 2, 3, 17, 64, 255, 400):
        t = rng.uniform(-5.0, 5.0, size=n)
        phases = np.exp(-1j * eigvals * t[..., None])
        want = (eigvecs * phases[..., None, :]) @ eigvecs.conj().T
        assert_same_bits(unitary_for(h, t), want, f"d={d} {n} times")
    t = float(rng.uniform(-5.0, 5.0))
    want = (eigvecs * np.exp(-1j * eigvals * t)) @ eigvecs.conj().T
    assert_same_bits(unitary_for(h, t), want, f"d={d} one time")


@pytest.mark.parametrize("d", DIMENSIONS)
def test_blocked_tall_product(d):
    rng = np.random.default_rng([d, 6])
    block = max(d, _TALL_TERMS // (d * d))  # rows per BLAS call
    for n in sorted({1, block // d - 1, block // d, block // d + 1, 3 * block // d + 2} - {0}):  # d x d matrices
        for rows in (1, 3):
            stack = complex_stack(rng, rows, n, d, d)
            right = complex_stack(rng, rows, d, d)
            for r in (right, right[0]):
                want = stack @ (r[:, None] if r.ndim == 3 else r)
                got = _tall_product(stack, r)
                assert_same_bits(got, want, f"d={d} R={rows} {n} matrices, right {r.shape}")


class RecordedMatmul(np.ndarray):
    """An array that records each matmul it takes part in; an array computed from it records its own.

    ``shapes`` holds each product's left-hand shape.  ``calls`` holds, for
    each product whose left-hand factor is recorded, that is each right-hand
    product of it, its BLAS calls (one per pair of matrices of the broadcast
    leading axes) and the rows of each call's left-hand matrix.
    """

    shapes: list[tuple[int, ...]] = []
    calls: list[tuple[int, int]] = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            RecordedMatmul.shapes.append(inputs[0].shape)
            if isinstance(inputs[0], RecordedMatmul):
                lead = np.broadcast_shapes(inputs[0].shape[:-2], np.shape(inputs[1])[:-2])
                RecordedMatmul.calls.append((math.prod(lead), inputs[0].shape[-2]))
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        result = getattr(ufunc, method)(*(np.asarray(i) for i in inputs), **kwargs)
        return result.view(RecordedMatmul) if out is None and isinstance(result, np.ndarray) else result


def right_calls(product, stack: np.ndarray, d: int) -> int:
    """The BLAS calls that ``product(stack)`` makes with the products of ``stack`` as left-hand factors."""
    RecordedMatmul.calls = []
    product(stack.view(RecordedMatmul))
    assert all(rows * d * d <= _TALL_TERMS for _, rows in RecordedMatmul.calls), RecordedMatmul.calls
    return sum(n for n, _ in RecordedMatmul.calls)


@pytest.mark.parametrize("d", DIMENSIONS)
def test_each_call_stays_below_the_block_size(d):
    rng = np.random.default_rng([d, 9])
    n = 3 * _TALL_TERMS // d**3 + 2  # matrices, more than three blocks' worth
    stack = complex_stack(rng, 2, n, d, d)
    right = complex_stack(rng, 2, d, d)
    RecordedMatmul.shapes = []
    got = _tall_product(stack.view(RecordedMatmul), right)
    assert_same_bits(np.asarray(got), stack @ right[:, None], f"d={d} {n} matrices")
    assert len(RecordedMatmul.shapes) >= 4
    assert all(shape[-2] * d * d <= _TALL_TERMS for shape in RecordedMatmul.shapes), RecordedMatmul.shapes


@pytest.mark.parametrize(("d", "k"), [(2, 2), (3, 3), (4, 2)])
def test_shared_right_hand_products_make_one_call_per_matrix(d, k):
    """A right-hand matrix shared by every row is one BLAS call for all of them, not one per row."""
    rng = np.random.default_rng([d, k, 10])
    obs = observable(rng, d, k)
    generator = random_hermitian(rng, d)
    for rows in (1, 7, 70):
        stack = complex_stack(rng, rows, 3, d, d)
        adjoints = np.array([random_unitary(rng, d) for _ in range(rows)]).conj().swapaxes(-1, -2)
        models = [ClumsinessModel.unitary_kick(0.3, generator)]
        for read in (_READ, _TRACE):
            want = k if read == _READ else 0
            assert right_calls(lambda s: _advance(s, (None, None, 0, False, read), obs, None), stack, d) == want
        assert right_calls(lambda s: _tall_product(s, adjoints[:1]), stack, d) == 1
        assert right_calls(lambda s: _tall_product(s, adjoints), stack, d) == rows
        assert right_calls(_kick(models, d), stack, d) == 1


def test_unitaries_past_the_block_size():
    """d = 2 walks of 10,000 to 20,000 step times, where one whole product ran on a second BLAS thread."""
    rng = np.random.default_rng(7)
    h = Hamiltonian(random_hermitian(rng, 2))
    eigvals, eigvecs = h.spectrum
    for n in (10_000, 12_288, 20_000):
        t = rng.uniform(-5.0, 5.0, size=n)
        want = (eigvecs * np.exp(-1j * eigvals * t[..., None])[..., None, :]) @ eigvecs.conj().T
        assert_same_bits(unitary_for(h, t), want, f"d=2 {n} times")


def test_conjugation_past_the_block_size():
    rng = np.random.default_rng(8)
    for rows, b in ((1, 10_000), (2, 12_288), (1, 20_000)):
        stack = complex_stack(rng, rows, b, 2, 2)
        adjoints = np.array([random_unitary(rng, 2) for _ in range(rows)]).conj().swapaxes(-1, -2)
        assert_same_bits(_tall_product(stack, adjoints), stack @ adjoints[:, None], f"d=2 R={rows} B={b}")
