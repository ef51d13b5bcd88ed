"""The per-experiment propagation kernel, kept as the reference for the prefix-shared walk.

lgcert runs every experiment of a row group in one walk over the trie of
their op sequences (``protocols._walk``).  This module keeps the loop it
replaced: one branch propagation per experiment, every time step from the
initial state.  ``tests/test_walk.py`` checks that every leaf of the walk
equals this kernel's output bit for bit, and that the walk holds little
more memory than this kernel run over the same experiments.

Every product here is one product of d x d matrices, as numpy's stacked
``matmul`` makes it: the unitaries, the dephasing, the kick and the
read-out projections.  The walk computes the right-hand factors of these
products as tall products instead (one per right-hand matrix), so this
module is the check that they did not change a bit.

``STEPS``, when a list, receives the branch count B of the (R, B, d, d)
stack at every conjugation, so a test can count steps and step-matrices.

It also keeps the walk's one-experiment wrappers, which only tests call:
``walk_probabilities`` runs one experiment as a one-leaf walk, and
``walk_table`` turns one row of its output into that row's table.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from lgcert.protocols import (
    OutcomeTable,
    ProtocolConfig,
    Schedule,
    _blind_stack,
    _experiment_config,
    _kick,
    _leaf,
    _path,
    _row_table,
    _table_columns,
)
from lgcert.qcore import (
    ClumsinessModel,
    DensityOperator,
    DimensionMismatchError,
    Hamiltonian,
    Observable,
    ValidationError,
)

STEPS: list[int] | None = None


def unitaries_for(h: Hamiltonian, t: np.ndarray) -> np.ndarray:
    """exp(-i H t) for a 1-D array of times, one d x d product per time."""
    eigvals, eigvecs = h.spectrum
    phases = np.exp(-1j * eigvals * t[..., None])
    return (eigvecs * phases[..., None, :]) @ eigvecs.conj().T


def dephased(stack: np.ndarray, obs: Observable) -> np.ndarray:
    """Sum_s P_s m P_s on every matrix of an (R, B, d, d) stack."""
    out = np.zeros_like(stack)
    for p in obs.projector_stack:
        out += p @ stack @ p
    return out


def kicked(stack: np.ndarray, clumsiness: Sequence[ClumsinessModel]) -> np.ndarray:
    """The clumsiness channel on every matrix of an (R, B, d, d) stack, row i with ``clumsiness[i]``.

    Depolarizing noise and a kick whose generator does not fit (which
    raises) are the walk's own ``_kick``.
    """
    if clumsiness[0].kind != "unitary_kick" or stack.shape[-1] != clumsiness[0].generator.shape[0]:
        return _kick(clumsiness, stack.shape[-1])(stack)
    kicks = np.array([c.kick_unitary for c in clumsiness])[:, None]
    return kicks @ stack @ kicks.conj().swapaxes(-1, -2)


def propagate(
    rho: DensityOperator,
    h: Hamiltonian,
    observables: Sequence[Observable],
    times: Sequence[Sequence[float]],
    measured: Sequence[int],
    dephase_at: frozenset[int],
    clumsiness: Sequence[ClumsinessModel],
    via_ancilla: bool,
    trace_last: bool = False,
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Branch-propagate R rows of one experiment; return outcomes and unclamped probabilities.

    The rows differ only in their schedule times (``times``, one sequence per
    row) and clumsiness models (``clumsiness``, one per row, all of one kind
    and triviality).  All branches of all rows travel as one (R, B, d, d)
    stack: one batched conjugation per time step with per-row unitaries, one
    batched projection per read-out (every branch onto every outcome, in
    product order), one trace at the end.  Each read-out is P_s m P_s,
    except that with ``trace_last`` the last one is read as Tr(P_s m).
    """
    for obs in observables:
        if obs.dim != rho.dim:
            raise DimensionMismatchError(
                f"observable dimension {obs.dim} does not match state dimension {rho.dim}"
            )
    if h.dim != rho.dim:
        raise DimensionMismatchError(
            f"Hamiltonian dimension {h.dim} does not match state dimension {rho.dim}"
        )
    measured = sorted(measured)
    if not measured:
        raise ValidationError("at least one measured time is required")
    clumsy_at = measured[0] if not clumsiness[0].is_trivial else None
    last_relevant = max([*measured, *dephase_at]) if dephase_at else measured[-1]
    d = rho.dim
    times = np.asarray(times, dtype=float)[:, :last_relevant]
    steps = times.copy()
    steps[:, 1:] -= times[:, :-1]
    unitaries = unitaries_for(h, steps.ravel()).reshape(*steps.shape, d, d)
    adjoints = unitaries.conj().swapaxes(-1, -2)

    outcomes: list[tuple[int, ...]] = [()]
    stack = rho.matrix[None, None]
    for k in range(1, steps.shape[1] + 1):
        if STEPS is not None:
            STEPS.append(stack.shape[1])
        stack = unitaries[:, k - 1, None] @ stack @ adjoints[:, k - 1, None]
        obs = observables[k - 1]
        if k in dephase_at:
            if via_ancilla:
                stack = _blind_stack(stack.reshape(-1, d, d), obs).reshape(stack.shape)
            else:
                stack = dephased(stack, obs)
        if k == clumsy_at:
            stack = kicked(stack, clumsiness)
        if k in measured:
            projs = obs.projector_stack
            branched = projs @ stack[:, :, None]
            if not (trace_last and k == measured[-1]):
                branched = branched @ projs
            stack = branched.reshape(len(stack), -1, d, d)
            outcomes = [o + (s,) for o in outcomes for s in obs.outcomes]
    return outcomes, np.trace(stack, axis1=2, axis2=3).real


def experiment_probabilities(
    rho: DensityOperator,
    h: Hamiltonian,
    observables: Sequence[Observable],
    schedules: Sequence[Schedule],
    measured: tuple[int, ...],
    config: ProtocolConfig,
    clumsiness: Sequence[ClumsinessModel],
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """One experiment for rows that differ only in schedule times and clumsiness, on ``propagate``.

    INRM modes run the measured sub-schedule, branch on every detector
    outcome and read the last time as a trace.
    """
    dephase_at = config.resolved_dephase_times(measured, len(schedules[0]))
    if not config.uses_detectors:
        times = [schedule.times for schedule in schedules]
        return propagate(rho, h, observables, times, measured, dephase_at, clumsiness, config.uses_ancilla)
    return propagate(
        rho,
        h,
        [observables[measured[0] - 1]] * len(measured),
        [[schedule[i - 1] for i in measured] for schedule in schedules],
        range(1, len(measured) + 1),
        frozenset(measured.index(i) + 1 for i in dephase_at),
        clumsiness,
        config.uses_ancilla,
        trace_last=True,
    )


def group_request(group, request: tuple) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Request ``(measured, mechanism, clean)`` of a row group, run on its own as the group once ran it."""
    measured, mechanism, clean = request
    config = _experiment_config(group.s, measured, mechanism, clean)
    return experiment_probabilities(
        group.s.initial_state,
        group.s.hamiltonian,
        group.observables,
        [r.schedule for r in group.scenarios],
        measured,
        config,
        [config.clumsiness if clean else r.config.clumsiness for r in group.scenarios],
    )


def walk_probabilities(
    rho: DensityOperator,
    h: Hamiltonian,
    observables: Sequence[Observable],
    schedules: Sequence[Schedule],
    measured: tuple[int, ...],
    config: ProtocolConfig,
    clumsiness: Sequence[ClumsinessModel],
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The one-leaf walk of one experiment for rows that differ only in schedule times and clumsiness.

    ``schedules`` (all of one length) and ``clumsiness`` (all of one kind and
    triviality) hold one entry per row; ``config`` gives the mode and the
    mechanism, and its own clumsiness model is not used.  Returns the
    outcome tuples and an (R, N) array of unclamped probabilities.
    """
    path = _path(rho, h, observables, len(schedules[0]), measured, config, not clumsiness[0].is_trivial)
    return _leaf(rho, h, [schedule.times for schedule in schedules], clumsiness, path)


def walk_table(
    outcomes: Sequence[tuple[int, ...]],
    raw: np.ndarray,
    observables: Sequence[Observable],
    measured: tuple[int, ...],
    config: ProtocolConfig,
    next_generator: Callable[[], np.random.Generator] | None = None,
) -> OutcomeTable:
    """One row's table from its ``walk_probabilities`` entries ``raw``, as a group's runner builds it."""
    columns = _table_columns(outcomes, raw[None], observables, measured, config)
    return _row_table(columns, 0, measured, config, next_generator)
