"""Exact complex linear algebra for few-level systems.

States, observables, unitary evolution, and the dephasing / clumsiness
channels that the measurement protocols are built from.  Everything works on
dense complex matrices (the design envelope is d <= 16); all operations are
pure functions of their inputs and the value types are immutable after
construction.  Derived arrays that every run needs (a Hamiltonian's spectrum,
an observable's projectors and ancilla coupling, a unitary kick) are computed
on first use and cached on the instance, read-only.

Conventions: hbar = 1, Hamiltonians carry units of angular frequency, and the
matrix exponential is always computed through a Hermitian eigendecomposition
(exact at this scale, no step-size tuning), once per Hamiltonian.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "ALGEBRA_TOL",
    "PSD_TOL",
    "ValidationError",
    "DimensionMismatchError",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "DensityOperator",
    "Hamiltonian",
    "DichotomicObservable",
    "ManyValuedObservable",
    "Observable",
    "ClumsinessModel",
    "evolve",
    "evolve_matrix",
    "heisenberg_projector",
    "dephase",
    "dephase_matrix",
    "random_phase_dephase",
    "apply_clumsiness",
    "apply_clumsiness_matrix",
    "unitary_for",
    "matrix_to_json",
    "matrix_from_json",
]

# Tolerances, stated once and used consistently: algebraic identities are held
# to ALGEBRA_TOL, eigenvalue positivity to the looser PSD_TOL (accumulated
# rounding across channel compositions).
ALGEBRA_TOL = 1e-12
PSD_TOL = 1e-10


class ValidationError(ValueError):
    """An input violates one of the declared type invariants."""


class DimensionMismatchError(ValidationError):
    """Operands act on spaces of different dimension."""


def _freeze(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex, copy=True)
    out.flags.writeable = False
    return out


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite square complex matrix (read-only copy)."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValidationError(f"{name} must have positive dimension")
    if not np.isfinite(arr).all():  # a complex entry is finite when both parts are
        raise ValidationError(f"{name} has non-finite entries")
    return _freeze(arr)


def _hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def _require_hermitian(m: np.ndarray, name: str) -> None:
    defect = _hermiticity_defect(m)
    if defect > ALGEBRA_TOL:
        raise ValidationError(f"{name} is not Hermitian (max |M - M^dag| = {defect:.3e})")


def _require_same_dim(a: int, b: int, what: str) -> None:
    if a != b:
        raise DimensionMismatchError(f"{what}: dimensions differ ({a} vs {b})")


def _controlled_shift(q) -> np.ndarray:
    """Controlled shift |a_0> -> |a_k> on the k-th eigenspace (read-only).

    Couples the system to an N-level ancilla, N the number of outcomes: the
    CNOT in the observable's eigenbasis for a dichotomic observable.  Rows
    and columns are ordered system-major, as in ``np.kron(system, ancilla)``.
    """
    na = len(q.outcomes)
    u = np.zeros((q.dim, na, q.dim, na), dtype=complex)
    for k, p in enumerate(q.projector_stack):
        for j in range(na):
            u[:, (j + k) % na, :, j] += p
    u = u.reshape(q.dim * na, q.dim * na)
    u.flags.writeable = False
    return u


PAULI_X = _freeze(np.array([[0, 1], [1, 0]]))
PAULI_Y = _freeze(np.array([[0, -1j], [1j, 0]]))
PAULI_Z = _freeze(np.array([[1, 0], [0, -1]]))


@dataclass(frozen=True)
class DensityOperator:
    """A system state: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, "density operator")
        _require_hermitian(m, "density operator")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > ALGEBRA_TOL:
            raise ValidationError(
                f"density operator trace must be 1 (got {tr.real:.15g}, defect {abs(tr - 1.0):.3e})"
            )
        eigs = np.linalg.eigvalsh(m)
        if float(np.min(eigs)) < -PSD_TOL:
            raise ValidationError(
                f"density operator must be positive semidefinite (min eigenvalue {np.min(eigs):.3e})"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, amplitudes: Sequence[complex]) -> "DensityOperator":
        """|psi><psi| for the given (not necessarily normalized) amplitudes."""
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValidationError("pure state vector must be nonzero")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim) / dim)

    @classmethod
    def ground(cls, dim: int) -> "DensityOperator":
        """Basis state |0><0| in the computational (observable) basis."""
        m = np.zeros((dim, dim), dtype=complex)
        m[0, 0] = 1.0
        return cls(m)

    @classmethod
    def plus_x(cls) -> "DensityOperator":
        """Qubit |+x><+x|, the equal superposition in the sigma_z basis."""
        return cls(np.full((2, 2), 0.5, dtype=complex))


@dataclass(frozen=True)
class Hamiltonian:
    """Generator of unitary dynamics, in units of angular frequency (hbar = 1)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, "Hamiltonian")
        _require_hermitian(m, "Hamiltonian")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of H, computed once per instance."""
        eigvals, eigvecs = np.linalg.eigh(self.matrix)
        eigvals.flags.writeable = False
        eigvecs.flags.writeable = False
        return eigvals, eigvecs

    @classmethod
    def zero(cls, dim: int) -> "Hamiltonian":
        return cls(np.zeros((dim, dim)))

    @classmethod
    def precession(cls, omega: float) -> "Hamiltonian":
        """Qubit H = (omega/2) sigma_x."""
        return cls(0.5 * float(omega) * PAULI_X)


@dataclass(frozen=True)
class DichotomicObservable:
    """A +/-1 valued observable Q: Hermitian with Q^2 = identity."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, "dichotomic observable")
        _require_hermitian(m, "dichotomic observable")
        defect = float(np.max(np.abs(m @ m - np.eye(m.shape[0]))))
        if defect > ALGEBRA_TOL:
            raise ValidationError(
                f"dichotomic observable must square to identity (defect {defect:.3e})"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def outcomes(self) -> tuple[int, ...]:
        return (1, -1)

    @cached_property
    def projector_stack(self) -> np.ndarray:
        """(P_+, P_-) as one read-only (2, d, d) array, in ``outcomes`` order."""
        # Built from Q directly, never from numerically computed eigenvectors,
        # so degeneracy of Q cannot introduce basis ambiguity.
        eye = np.eye(self.dim)
        stack = np.array([(eye + outcome * self.matrix) / 2.0 for outcome in self.outcomes])
        stack.flags.writeable = False
        return stack

    controlled_shift = cached_property(_controlled_shift)

    def projector(self, outcome: int) -> np.ndarray:
        if outcome not in (1, -1):
            raise ValidationError(f"dichotomic outcome must be +1 or -1, got {outcome!r}")
        return self.projector_stack[0 if outcome == 1 else 1]

    @classmethod
    def sigma_z(cls) -> "DichotomicObservable":
        return cls(PAULI_Z)


@dataclass(frozen=True)
class ManyValuedObservable:
    """An N-outcome projective measurement: complete set of orthogonal projectors."""

    projectors: tuple[np.ndarray, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        projs = tuple(as_complex_matrix(p, f"projector {i}") for i, p in enumerate(self.projectors))
        labels = tuple(int(x) for x in self.labels)
        if len(projs) < 2:
            raise ValidationError("many-valued observable needs at least two projectors")
        if len(labels) != len(projs):
            raise ValidationError("labels and projectors must have equal length")
        if len(set(labels)) != len(labels):
            raise ValidationError("outcome labels must be distinct")
        dim = projs[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for i, p in enumerate(projs):
            _require_same_dim(p.shape[0], dim, "projector set")
            _require_hermitian(p, f"projector {i}")
            if float(np.max(np.abs(p @ p - p))) > ALGEBRA_TOL:
                raise ValidationError(f"projector {i} is not idempotent")
            total += p
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if float(np.max(np.abs(projs[i] @ projs[j]))) > ALGEBRA_TOL:
                    raise ValidationError(f"projectors {i} and {j} are not orthogonal")
        if float(np.max(np.abs(total - np.eye(dim)))) > ALGEBRA_TOL:
            raise ValidationError("projectors must sum to the identity")
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def outcomes(self) -> tuple[int, ...]:
        return self.labels

    @cached_property
    def projector_stack(self) -> np.ndarray:
        """The projectors as one read-only (N, d, d) array, in ``outcomes`` order."""
        stack = np.array(self.projectors)
        stack.flags.writeable = False
        return stack

    controlled_shift = cached_property(_controlled_shift)

    def projector(self, outcome: int) -> np.ndarray:
        try:
            return self.projectors[self.labels.index(outcome)]
        except ValueError:
            raise ValidationError(f"unknown outcome label {outcome!r}") from None

    @classmethod
    def computational(cls, dim: int) -> "ManyValuedObservable":
        """Projectors onto the computational basis states, labeled 1..dim."""
        projs = []
        for k in range(dim):
            p = np.zeros((dim, dim), dtype=complex)
            p[k, k] = 1.0
            projs.append(p)
        return cls(tuple(projs), tuple(range(1, dim + 1)))


Observable = DichotomicObservable | ManyValuedObservable


@dataclass(frozen=True)
class ClumsinessModel:
    """Unintended disturbance applied alongside a measurement.

    kind "none" is the ideal apparatus; "depolarizing" mixes toward the
    maximally mixed state with weight eps; "unitary_kick" is the coherent
    perturbation exp(-i eps G) for a Hermitian generator G.
    """

    kind: str = "none"
    strength: float = 0.0
    generator: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("none", "depolarizing", "unitary_kick"):
            raise ValidationError(f"unknown clumsiness kind {self.kind!r}")
        eps = float(self.strength)
        if not math.isfinite(eps):
            raise ValidationError("clumsiness strength must be finite")
        if self.kind == "depolarizing" and not 0.0 <= eps <= 1.0:
            raise ValidationError(f"depolarizing strength must lie in [0, 1], got {eps}")
        gen = self.generator
        if self.kind == "unitary_kick":
            if gen is None:
                raise ValidationError("unitary_kick requires a Hermitian generator")
            gen = as_complex_matrix(gen, "kick generator")
            _require_hermitian(gen, "kick generator")
        else:
            gen = None
        object.__setattr__(self, "strength", eps)
        object.__setattr__(self, "generator", gen)

    @classmethod
    def none(cls) -> "ClumsinessModel":
        return cls("none")

    @classmethod
    def depolarizing(cls, strength: float) -> "ClumsinessModel":
        return cls("depolarizing", strength)

    @classmethod
    def unitary_kick(cls, strength: float, generator) -> "ClumsinessModel":
        return cls("unitary_kick", strength, generator)

    @property
    def is_trivial(self) -> bool:
        return self.kind == "none" or (self.kind != "none" and self.strength == 0.0)

    @cached_property
    def kick_unitary(self) -> np.ndarray:
        """exp(-i eps G) of a unitary kick, computed once per instance."""
        if self.kind != "unitary_kick":
            raise ValidationError(f"clumsiness kind {self.kind!r} has no kick unitary")
        u = unitary_for(Hamiltonian(self.generator), self.strength)
        u.flags.writeable = False
        return u


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


# A tall product is cut into blocks of at most this many M d d terms (M rows
# of d entries by a d x d matrix), which BLAS runs on one thread.  OpenBLAS
# 0.3.31 ran complex products of 65,536 terms at d = 2 and of 69,632 at
# d = 16 on a second thread, at about 8 ms each instead of 0.02-0.2 ms on a
# busy 2-CPU host; no product of 32,768 terms or fewer was seen to.
_TALL_TERMS = 1 << 15


def _tall_product(stack: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``stack @ right[..., None, :, :]`` for a complex (..., B, d, d) ``stack`` and a (..., d, d) ``right``.

    The matrices that share a right-hand matrix are stacked as the rows of
    one tall matrix, so numpy makes one BLAS call per distinct right-hand
    matrix rather than one per d x d matrix, in blocks of at most
    ``_TALL_TERMS / d^2`` rows.  The trailing leading axes over which
    ``right`` is broadcast are folded into the tall dimension with the B
    axis, so a right-hand matrix shared by every row of a stack is one call
    for all of them.  Every row of a product comes from its own left-hand
    row, so the blocks, the whole product and the per-matrix products agree
    bit for bit.
    """
    shape = stack.shape
    d = shape[-1]
    lead, shared = shape[:-3], right.shape[:-2]
    n = len(lead)
    while lead and (not shared or shared[-1] == 1):
        lead, shared = lead[:-1], shared[:-1]
    # each folded axis stays as one of length 1, where ``right`` broadcasts as before
    x = stack.reshape(lead + (1,) * (n - len(lead)) + (-1, d))
    rows = x.shape[-2]
    if rows * d * d <= _TALL_TERMS:
        return (x @ right).reshape(shape)
    block = max(d, _TALL_TERMS // (d * d))
    out = np.empty_like(x)
    for a in range(0, rows, block):
        np.matmul(x[..., a : a + block, :], right, out=out[..., a : a + block, :])
    return out.reshape(shape)


def unitary_for(h: Hamiltonian, t: float | Sequence[float]) -> np.ndarray:
    """exp(-i H t) from the Hamiltonian's cached eigendecomposition.

    For a 1-D array of times the result is the (R, d, d) stack of their
    unitaries, all phases from one vectorised exp over the cached spectrum
    and every V diag(phases) times V^dag in one tall (R d, d) product
    (``_tall_product``), which equals the R products of d x d matrices bit
    for bit.
    """
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValidationError("evolution time must be finite")
    eigvals, eigvecs = h.spectrum
    phases = np.exp(-1j * eigvals * t[..., None])
    return _tall_product(eigvecs * phases[..., None, :], eigvecs.conj().T)


def evolve_matrix(m: np.ndarray, h: Hamiltonian, t: float) -> np.ndarray:
    """Conjugate an arbitrary (possibly unnormalized) matrix by exp(-iHt)."""
    _require_same_dim(m.shape[0], h.dim, "evolve")
    u = unitary_for(h, t)
    return u @ m @ u.conj().T


def evolve(rho: DensityOperator, h: Hamiltonian, t: float) -> DensityOperator:
    """Unitary evolution rho(t) = exp(-iHt) rho exp(+iHt); negative t inverts."""
    return DensityOperator(evolve_matrix(rho.matrix, h, t))


def heisenberg_projector(q: DichotomicObservable, s: int, h: Hamiltonian, t: float) -> np.ndarray:
    """Heisenberg-picture projector P_s(t) = exp(+iHt) P_s exp(-iHt)."""
    _require_same_dim(q.dim, h.dim, "heisenberg_projector")
    u = unitary_for(h, t)
    return u.conj().T @ q.projector(s) @ u


def _projections(stack: np.ndarray, q: Observable, right: bool = True) -> np.ndarray:
    """Every P_s m P_s (every P_s m unless ``right``) of an (R, B, d, d) stack, as an (R, K, B, d, d) stack.

    Outcome-major, in ``q.outcomes`` order.  Each P_s m is one product per
    matrix; a wide (d, B d) product would differ from them in the last bit
    at d = 2 and 3.  They are built as a (K, R, B, d, d) stack, each
    outcome's block of R B matrices contiguous, so its (P_s m) P_s over
    every row and branch is one tall (R B d, d) product (``_tall_product``),
    one BLAS call per outcome, which equals the per-matrix products bit for
    bit.  The result is that stack's (R, K, B) view.
    """
    projs = q.projector_stack[:, None]
    branched = projs[:, None] @ stack
    return (_tall_product(branched, projs) if right else branched).swapaxes(0, 1)


def dephase_matrix(m: np.ndarray, q: Observable) -> np.ndarray:
    """Sum_s P_s m P_s for an arbitrary matrix or (R, ..., d, d) stack of matrices.

    Kills coherences in the Q basis.  The terms are ``_projections`` of the
    stack, added in ``q.outcomes`` order.
    """
    d = m.shape[-1]
    _require_same_dim(d, q.dim, "dephase")
    branched = _projections(m.reshape(len(m) if m.ndim > 2 else 1, -1, d, d), q)
    out = np.zeros_like(m, dtype=complex)
    for k in range(branched.shape[1]):
        out += branched[:, k].reshape(m.shape)
    return out


def dephase(rho: DensityOperator, q: Observable) -> DensityOperator:
    """Diagonalize the state in the observable's eigenbasis: Sum_s P_s rho P_s."""
    return DensityOperator(dephase_matrix(rho.matrix, q))


def random_phase_dephase(
    rho: DensityOperator, q: DichotomicObservable, samples: int, seed: int
) -> DensityOperator:
    """Artificial dephasing: average U_phi rho U_phi^dag over random phases.

    U_phi = exp(-i phi Q/2) with phi drawn uniformly on [0, 2pi); the uniform
    distribution makes the average converge to ``dephase(rho, q)`` as the
    sample count grows.  Deterministic for a fixed seed.
    """
    if not isinstance(q, DichotomicObservable):
        raise ValidationError("random_phase_dephase requires a dichotomic observable")
    _require_same_dim(rho.dim, q.dim, "random_phase_dephase")
    samples = int(samples)
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=samples)
    c = np.cos(phi / 2.0)
    s = np.sin(phi / 2.0)
    # Q^2 = 1 gives U_phi = cos(phi/2) 1 - i sin(phi/2) Q, so each sample's
    # conjugation expands exactly into three fixed matrices with scalar
    # coefficients; averaging the coefficients reproduces the sample mean.
    mc2 = float(np.mean(c * c))
    ms2 = float(np.mean(s * s))
    mcs = float(np.mean(c * s))
    r = rho.matrix
    qm = q.matrix
    out = mc2 * r + ms2 * (qm @ r @ qm) + 1j * mcs * (r @ qm - qm @ r)
    return DensityOperator(out)


def apply_clumsiness_matrix(m: np.ndarray, model: ClumsinessModel) -> np.ndarray:
    """Apply the clumsiness channel to an arbitrary (possibly unnormalized) matrix."""
    if model.kind == "none":
        return m
    if model.kind == "depolarizing":
        d = m.shape[0]
        eps = model.strength
        return (1.0 - eps) * m + eps * (complex(np.trace(m)) / d) * np.eye(d)
    # unitary_kick
    _require_same_dim(m.shape[0], model.generator.shape[0], "apply_clumsiness")
    u = model.kick_unitary
    return u @ m @ u.conj().T


def apply_clumsiness(rho: DensityOperator, model: ClumsinessModel) -> DensityOperator:
    """Disturb the state with the configured clumsiness channel."""
    if model.kind == "none":
        return rho
    return DensityOperator(apply_clumsiness_matrix(rho.matrix, model))


# ---------------------------------------------------------------------------
# Serialization: matrices as JSON nested arrays of [re, im] pairs, row-major
# ---------------------------------------------------------------------------


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _refuse_bool() -> complex:
    raise TypeError("a bool is not a number")


def _items(value) -> list | tuple:
    return value if isinstance(value, (list, tuple)) else ()


def _entry_error(data, name: str) -> ValidationError | None:
    """The error naming the first [re, im] entry of ``data`` that is a bool or not a real number."""
    for part in (part for row in _items(data) for pair in _items(row) for part in _items(pair)):
        if isinstance(part, bool) or not isinstance(part, numbers.Real):
            return ValidationError(f"{name}: entries must be numbers, got {part!r}")
    return None


def matrix_from_json(data, name: str = "matrix") -> np.ndarray:
    """A square complex matrix from nested [re, im] pairs of ints or floats, never bools or strings."""
    try:
        # complex() refuses strings and None itself, but would read a bool as 0 or 1
        rows = [
            [
                complex(re, im) if type(re) is not bool and type(im) is not bool else _refuse_bool()
                for re, im in row
            ]
            for row in data
        ]
    except (TypeError, ValueError, OverflowError) as exc:
        raise _entry_error(data, name) or ValidationError(
            f"{name}: expected nested arrays of [re, im] pairs: {exc}"
        ) from exc
    arr = np.array(rows, dtype=complex)
    return as_complex_matrix(arr, name)
