"""Measurement protocol simulation.

Implements every protocol the certification layer needs: single-time
measurement, sequential projective measurement, ideal negative measurement
(INRM) assembled from detector coupling configurations, the modified protocol
in which a diagonalization mechanism (artificial dephasing or an ancilla-based
blind measurement) acts just before the early measurement times, clumsiness
injection at the first measurement, and finite-shot multinomial sampling.

Probabilities are computed by unnormalized branch propagation: branch weights
are carried through the whole run and never divided by, so zero-probability
branches simply report zero for all continuations.  One kernel, ``_propagate``,
serves every protocol: it carries all branches as one (B, d, d) stack, builds
every time step's unitary from the Hamiltonian's cached spectrum in one
vectorised exp, and runs every INRM detector configuration in the same pass.
A leading row axis lets one call serve several runs that differ only in
their schedule times and clumsiness, as the rows of a sweep do; a single run
is one row.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .qcore import (
    ALGEBRA_TOL,
    ClumsinessModel,
    DensityOperator,
    DichotomicObservable,
    DimensionMismatchError,
    Hamiltonian,
    ManyValuedObservable,
    Observable,
    ValidationError,
    apply_clumsiness_matrix,
    dephase_matrix,
    evolve_matrix,
    unitary_for,
)

__all__ = [
    "MODES",
    "Schedule",
    "ProtocolConfig",
    "OutcomeTable",
    "InrmPartial",
    "single_time_distribution",
    "sequential_distribution",
    "experiment_distribution",
    "inrm_distribution",
    "assemble_inrm",
    "ancilla_blind_reduced_state",
    "blind_measurement_via_ancilla",
    "coarse_grained_observable",
    "marginal_distribution",
    "sample_counts",
    "run_nsit_pair",
    "table_to_json",
    "table_from_json",
    "table_to_csv",
    "table_from_csv",
]

MODES = ("projective", "inrm", "projective_dephased", "inrm_dephased", "ancilla_blind")

# Sum-to-one check for exact tables; empirical table entries are exact
# rationals counts/shots for directly sampled tables but an INRM assembly can
# deviate statistically, so the sum check applies to exact tables only.
NORMALIZATION_TOL = 1e-10
ENTRY_TOL = 1e-12


@dataclass(frozen=True)
class Schedule:
    """Strictly increasing measurement times, all positive."""

    times: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if len(times) < 1:
            raise ValidationError("schedule must contain at least one time")
        if not all(np.isfinite(t) for t in times):
            raise ValidationError("schedule times must be finite")
        if times[0] <= 0.0:
            raise ValidationError(f"schedule times must be > 0, got t1 = {times[0]}")
        for a, b in zip(times, times[1:]):
            if not a < b:
                raise ValidationError(f"schedule times must be strictly increasing, got {a} then {b}")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> float:
        return self.times[i]


@dataclass(frozen=True)
class ProtocolConfig:
    """How a run is performed.

    ``dephase_times`` are the 1-based schedule indices where the
    diagonalization mechanism acts just before the measurement; ``None``
    selects the protocol default (every measured time except the last for the
    dephased and ancilla-blind modes, nothing otherwise).  ``clumsiness`` is
    injected immediately before the first measurement of the run it belongs
    to.  ``shots = 0`` means exact probabilities.
    """

    mode: str = "projective"
    dephase_times: tuple[int, ...] | None = None
    clumsiness: ClumsinessModel = ClumsinessModel.none()
    shots: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown protocol mode {self.mode!r}; expected one of {MODES}")
        if self.dephase_times is not None:
            dt = tuple(sorted(int(k) for k in self.dephase_times))
            if any(k < 1 for k in dt):
                raise ValidationError("dephase_times are 1-based schedule indices")
            if len(set(dt)) != len(dt):
                raise ValidationError("dephase_times must be distinct")
            object.__setattr__(self, "dephase_times", dt)
        if int(self.shots) < 0:
            raise ValidationError("shots must be non-negative")
        object.__setattr__(self, "shots", int(self.shots))

    @property
    def uses_mechanism(self) -> bool:
        return self.mode in ("projective_dephased", "inrm_dephased", "ancilla_blind")

    @property
    def uses_ancilla(self) -> bool:
        return self.mode == "ancilla_blind"

    def resolved_dephase_times(self, measured: Sequence[int], n_times: int) -> frozenset[int]:
        """Mechanism placement for an experiment measuring the given slots."""
        if self.dephase_times is not None:
            bad = [k for k in self.dephase_times if k > n_times]
            if bad:
                raise ValidationError(f"dephase_times {bad} exceed the schedule length {n_times}")
            return frozenset(self.dephase_times)
        if self.uses_mechanism:
            return frozenset(measured[:-1])
        return frozenset()


def _format_label(label: int) -> str:
    return f"+{label}" if label >= 0 else str(label)


def _outcome_key(outcome: tuple[int, ...]) -> str:
    return ",".join(_format_label(v) for v in outcome)


@functools.lru_cache(maxsize=256)
def _outcome_product(slots: tuple[tuple[int, ...], ...]) -> frozenset[tuple[int, ...]]:
    """Every outcome tuple of the given slots; tables of one experiment share their slots."""
    return frozenset(itertools.product(*slots))


@dataclass(frozen=True)
class OutcomeTable:
    """Probability distribution over outcome tuples of a measurement run.

    ``slots`` lists the outcome labels available at each measured time (in
    measurement order) and ``probabilities`` covers the full product of the
    slots.  ``slot_times`` optionally records which 1-based schedule indices
    the slots correspond to.  Stored entries may carry float dust slightly
    below zero; ``prob`` clamps on read.
    """

    slots: tuple[tuple[int, ...], ...]
    probabilities: Mapping[tuple[int, ...], float]
    kind: str = "exact"
    shots: int | None = None
    slot_times: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "empirical"):
            raise ValidationError(f"table kind must be 'exact' or 'empirical', got {self.kind!r}")
        slots = tuple(tuple(map(int, slot)) for slot in self.slots)
        if not slots or any(len(s) < 2 for s in slots):
            raise ValidationError("each slot needs at least two outcome labels")
        expected = _outcome_product(slots)
        probs = {tuple(map(int, k)): float(p) for k, p in dict(self.probabilities).items()}
        if probs.keys() != expected:
            missing = sorted(expected - set(probs))
            extra = sorted(set(probs) - expected)
            raise ValidationError(
                f"probabilities must cover exactly the outcome product (missing {missing[:4]}, extra {extra[:4]})"
            )
        for k, p in probs.items():
            if not math.isfinite(p) or p < -ENTRY_TOL or p > 1.0 + ENTRY_TOL:
                raise ValidationError(f"probability for {k} out of range: {p!r}")
        if self.kind == "exact":
            total = sum(probs.values())
            if abs(total - 1.0) > NORMALIZATION_TOL:
                raise ValidationError(f"exact table must sum to 1 (got {total!r})")
        if self.slot_times is not None:
            st = tuple(int(i) for i in self.slot_times)
            if len(st) != len(slots):
                raise ValidationError("slot_times length must match the number of slots")
            object.__setattr__(self, "slot_times", st)
        if self.kind == "empirical" and self.shots is not None and int(self.shots) < 1:
            raise ValidationError("empirical table shots must be >= 1")
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "probabilities", probs)

    @property
    def arity(self) -> int:
        return len(self.slots)

    def outcomes(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*self.slots))

    def prob(self, outcome: tuple[int, ...]) -> float:
        """Entry clamped to [0, 1]."""
        return min(1.0, max(0.0, self.probabilities[tuple(outcome)]))

    def raw(self, outcome: tuple[int, ...]) -> float:
        return self.probabilities[tuple(outcome)]

    def entry_variance(self, outcome: tuple[int, ...]) -> float:
        """Multinomial variance of one entry; 0 for exact tables."""
        if self.kind != "empirical" or not self.shots:
            return 0.0
        p = self.prob(outcome)
        return p * (1.0 - p) / float(self.shots)

    def total(self) -> float:
        return float(sum(self.probabilities.values()))


@dataclass(frozen=True)
class InrmPartial:
    """Surviving branch of one ideal-negative-measurement configuration.

    The detectors sit at every time but the last; ``couplings[k]`` is the
    outcome the detector at the (k+1)-th time couples to, and a run survives
    only when every detector stays silent, i.e. the system is found in the
    opposite state.  ``probabilities`` covers the surviving outcome tuples
    (fixed prefix of -couplings, free final slot); ``discarded`` is the
    triggered fraction.
    """

    slots: tuple[tuple[int, ...], ...]
    couplings: tuple[int, ...]
    probabilities: Mapping[tuple[int, ...], float]
    discarded: float
    kind: str = "exact"
    shots: int | None = None

    def __post_init__(self):
        couplings = tuple(int(c) for c in self.couplings)
        if any(c not in (1, -1) for c in couplings):
            raise ValidationError("couplings must be +1 or -1")
        slots = tuple(tuple(int(v) for v in s) for s in self.slots)
        prefix = tuple(-c for c in couplings)
        expected = {prefix + (s,) for s in slots[-1]}
        probs = {tuple(k): float(p) for k, p in dict(self.probabilities).items()}
        if set(probs) != expected:
            raise ValidationError("partial table must cover exactly the surviving outcomes")
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "discarded", float(self.discarded))

    @property
    def survivor_prefix(self) -> tuple[int, ...]:
        return tuple(-c for c in self.couplings)

    def survival_probability(self) -> float:
        return float(sum(self.probabilities.values()))


# ---------------------------------------------------------------------------
# Core branch propagation
# ---------------------------------------------------------------------------


def _as_observable_list(q, n: int) -> list[Observable]:
    if isinstance(q, (DichotomicObservable, ManyValuedObservable)):
        return [q] * n
    obs = list(q)
    if len(obs) != n:
        raise ValidationError(f"need one observable per schedule time ({n}), got {len(obs)}")
    return obs


def _propagate(
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
    and triviality); a single run is the case R = 1.  All branches of all
    rows travel as one (R, B, d, d) stack: one batched conjugation per time
    step with per-row unitaries (every step of every row from one vectorised
    exp over the cached spectrum), one batched projection per read-out
    (every branch onto every outcome, in product order), one trace at the
    end.  Each read-out is P_s m P_s, except that with ``trace_last``
    the last one is read as Tr(P_s m), the final measurement of an INRM run.
    Returns the outcome tuples in product order and an (R, N) array.
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
    unitaries = unitary_for(h, steps.ravel()).reshape(*steps.shape, d, d)
    adjoints = unitaries.conj().swapaxes(-1, -2)

    outcomes: list[tuple[int, ...]] = [()]
    stack = rho.matrix[None, None]
    for k in range(1, steps.shape[1] + 1):
        stack = unitaries[:, k - 1, None] @ stack @ adjoints[:, k - 1, None]
        obs = observables[k - 1]
        if k in dephase_at:
            if via_ancilla:
                stack = _blind_stack(stack.reshape(-1, d, d), obs).reshape(stack.shape)
            else:
                stack = dephase_matrix(stack, obs)
        if k == clumsy_at:
            # each row's branches take that row's clumsiness model
            b = stack.shape[1]
            flat = stack.reshape(-1, d, d)
            stack = np.array(
                [apply_clumsiness_matrix(m, clumsiness[i // b]) for i, m in enumerate(flat)]
            ).reshape(stack.shape)
        if k in measured:
            projs = obs.projector_stack
            branched = projs @ stack[:, :, None]
            if not (trace_last and k == measured[-1]):
                branched = branched @ projs
            stack = branched.reshape(len(stack), -1, d, d)
            outcomes = [o + (s,) for o in outcomes for s in obs.outcomes]
    return outcomes, np.trace(stack, axis1=2, axis2=3).real


def _clean_probs(raw: dict[tuple[int, ...], float]) -> dict[tuple[int, ...], float]:
    out = {}
    for k, v in raw.items():
        if -ENTRY_TOL <= v < 0.0:
            v = 0.0
        out[k] = min(1.0, max(v, 0.0)) if abs(v) < ENTRY_TOL else v
    return out


# ---------------------------------------------------------------------------
# Named protocol operations
# ---------------------------------------------------------------------------


def single_time_distribution(
    rho: DensityOperator, h: Hamiltonian, q: Observable, t: float
) -> OutcomeTable:
    """p(s) = Tr(P_s(t) rho) for a single measurement at time t."""
    outcomes, raw = _propagate(
        rho, h, [q], [(t,)], (1,), frozenset(), [ClumsinessModel.none()], False, trace_last=True
    )
    return OutcomeTable(
        slots=(tuple(q.outcomes),), probabilities=_clean_probs(dict(zip(outcomes, raw[0].tolist())))
    )


def sequential_distribution(
    rho: DensityOperator,
    h: Hamiltonian,
    q: Observable | Sequence[Observable],
    schedule: Schedule,
    config: ProtocolConfig,
) -> OutcomeTable:
    """Sequential projective measurement at every schedule time.

    p(s_1..s_m) = Tr(P_{s_m}(t_m)..P_{s_1}(t_1) rho P_{s_1}(t_1)..P_{s_{m-1}}(t_{m-1})),
    with the optional diagonalization mechanism and clumsiness channel applied
    per the config.  Only the projective-family modes are meaningful here.
    """
    if config.mode not in ("projective", "projective_dephased"):
        raise ValidationError(
            f"sequential_distribution requires mode projective or projective_dephased, got {config.mode!r}"
        )
    return experiment_distribution(rho, h, q, schedule, None, config)


def experiment_distribution(
    rho: DensityOperator,
    h: Hamiltonian,
    q: Observable | Sequence[Observable],
    schedule: Schedule,
    measured: Sequence[int] | None,
    config: ProtocolConfig,
) -> OutcomeTable:
    """Run one experiment on the master schedule, reading out a subset of times.

    ``measured`` lists the 1-based schedule indices that are projectively
    measured (default: all).  The diagonalization mechanism acts at the
    config-resolved times whether or not those times are read out, which is
    what the modified ideal-negative-measurement protocol requires.  INRM
    modes are served by assembling all detector configurations (exact mode).
    """
    m = len(schedule)
    observables = _as_observable_list(q, m)
    measured = tuple(sorted(int(i) for i in measured)) if measured is not None else tuple(range(1, m + 1))
    if not measured:
        raise ValidationError("measured time subset must be non-empty")
    if any(i < 1 or i > m for i in measured):
        raise ValidationError(f"measured indices must lie in 1..{m}")
    config = replace(config, shots=0)
    outcomes, raw = _experiment_probabilities(
        rho, h, observables, [schedule], measured, config, [config.clumsiness]
    )
    return _experiment_table(outcomes, raw[0], observables, measured, config)


def _is_inrm(config: ProtocolConfig, measured: Sequence[int]) -> bool:
    return config.mode in ("inrm", "inrm_dephased") and len(measured) >= 2


def _experiment_probabilities(
    rho: DensityOperator,
    h: Hamiltonian,
    observables: Sequence[Observable],
    schedules: Sequence[Schedule],
    measured: tuple[int, ...],
    config: ProtocolConfig,
    clumsiness: Sequence[ClumsinessModel],
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The kernel run of one experiment for rows that differ only in schedule times and clumsiness.

    ``schedules`` (all of one length) and ``clumsiness`` (all of one kind and
    triviality) hold one entry per row; ``config`` gives the mode and the
    mechanism, and its own clumsiness model is not used.  INRM modes with two
    or more read-outs put their detectors at the measured times, so they run
    the measured sub-schedule, branch on every detector outcome and read the
    last time as a trace; the mechanism (``dephase_times``, resolved against
    ``measured``) must then lie among the measured times.  Returns the outcome
    tuples and an (R, N) array of unclamped probabilities.
    """
    dephase_at = config.resolved_dephase_times(measured, len(schedules[0]))
    if not _is_inrm(config, measured):
        times = [schedule.times for schedule in schedules]
        return _propagate(
            rho, h, observables, times, measured, dephase_at, clumsiness, config.uses_ancilla
        )
    unsupported = sorted(i for i in dephase_at if i not in measured)
    if unsupported:
        raise ValidationError(
            f"INRM modes cannot place the mechanism at non-measured times {unsupported}"
        )
    obs = observables[measured[0] - 1]
    if not isinstance(obs, DichotomicObservable) or any(
        observables[i - 1] is not obs for i in measured
    ):
        raise ValidationError("INRM assembly requires a single dichotomic observable")
    return _propagate(
        rho,
        h,
        [obs] * len(measured),
        [[schedule[i - 1] for i in measured] for schedule in schedules],
        range(1, len(measured) + 1),
        frozenset(measured.index(i) + 1 for i in dephase_at),
        clumsiness,
        config.uses_ancilla,
        trace_last=True,
    )


def _experiment_table(
    outcomes: Sequence[tuple[int, ...]],
    raw: np.ndarray,
    observables: Sequence[Observable],
    measured: tuple[int, ...],
    config: ProtocolConfig,
    next_generator: Callable[[], np.random.Generator] | None = None,
) -> OutcomeTable:
    """One row's table from its ``_experiment_probabilities`` output.

    INRM modes build the table from every detector configuration: each one
    is cleaned (and sampled) straight from the kernel's output and merged in
    couplings product order, which gives the entries, in the same order, of
    ``assemble_inrm`` over the configurations' partials, and only the merged
    table is validated.  With ``config.shots > 0`` the table is sampled with
    generators drawn from ``next_generator``: one for a directly sampled
    table, one per INRM configuration in couplings product order.
    """
    probs = dict(zip(outcomes, raw.tolist()))
    if not _is_inrm(config, measured):
        table = OutcomeTable(
            slots=tuple(tuple(observables[i - 1].outcomes) for i in measured),
            probabilities=_clean_probs(probs),
            slot_times=measured,
        )
        return sample_counts(table, config.shots, next_generator()) if config.shots > 0 else table
    labels = observables[measured[0] - 1].outcomes
    sampled = config.shots > 0
    merged: dict[tuple[int, ...], float] = {}
    # survivor prefixes in this order are the couplings (1, -1)^(m-1) in product order
    for survivors in itertools.product((-1, 1), repeat=len(measured) - 1):
        entries = _surviving(probs, survivors, labels)
        if sampled:
            entries, _ = _sample_surviving(
                entries, 1.0 - sum(entries.values()), config.shots, next_generator()
            )
        merged.update(entries)
    return OutcomeTable(
        slots=tuple(tuple(labels) for _ in measured),
        probabilities=merged,
        kind="empirical" if sampled else "exact",
        shots=config.shots if sampled else None,
        slot_times=measured,
    )


def inrm_distribution(
    rho: DensityOperator,
    h: Hamiltonian,
    q: DichotomicObservable,
    schedule: Schedule,
    couplings: Sequence[int],
    config: ProtocolConfig,
    seed: int | None = None,
) -> InrmPartial:
    """One ideal-negative-measurement configuration.

    A detector is attached at every schedule time except the last, coupled to
    the outcome given in ``couplings``; a run survives only when every
    detector stays silent (the system is projected onto the opposite state)
    and ends with a projective measurement at the final time.  With
    ``config.shots > 0`` the surviving/discarded statistics are sampled
    (``seed`` required); otherwise exact.
    """
    if not isinstance(q, DichotomicObservable):
        raise ValidationError("ideal negative measurement requires a dichotomic observable")
    m = len(schedule)
    couplings = tuple(int(c) for c in couplings)
    if len(couplings) != m - 1:
        raise ValidationError(
            f"need one detector coupling per non-final time ({m - 1}), got {len(couplings)}"
        )
    if any(c not in (1, -1) for c in couplings):
        raise ValidationError("couplings must be +1 or -1")
    if config.shots > 0 and seed is None:
        raise ValidationError("seed is required for finite-shot INRM runs")
    dephase_at = config.resolved_dephase_times(tuple(range(1, m + 1)), m)
    outcomes, raw = _propagate(
        rho, h, [q] * m, [schedule.times], range(1, m + 1), dephase_at, [config.clumsiness],
        config.uses_ancilla, trace_last=True,
    )
    probs = _surviving(
        dict(zip(outcomes, raw[0].tolist())), tuple(-c for c in couplings), q.outcomes
    )
    partial = InrmPartial(
        tuple(tuple(q.outcomes) for _ in range(m)), couplings, probs, 1.0 - sum(probs.values())
    )
    if config.shots > 0:
        return _sample_partial(partial, config.shots, seed)
    return partial


def _surviving(
    raw: Mapping[tuple[int, ...], float], survivors: tuple[int, ...], labels: Sequence[int]
) -> dict[tuple[int, ...], float]:
    """Exact surviving entries of the detector configuration that couples to ``-survivors``.

    ``raw`` is one kernel run over the detector times and the final time
    that branches on the outcome at each detector time and reads the last
    one as a trace: the branch with prefix ``survivors`` is that
    configuration's surviving run.
    """
    return _clean_probs({survivors + (s,): raw[survivors + (s,)] for s in labels})


def _sample_surviving(
    probs: Mapping[tuple[int, ...], float], discarded: float, shots: int, rng: np.random.Generator
) -> tuple[dict[tuple[int, ...], float], float]:
    """Multinomial emulation of one configuration: surviving frequencies and the discarded one."""
    keys = sorted(probs)
    pvals = [min(1.0, max(0.0, probs[k])) for k in keys] + [max(0.0, discarded)]
    freqs = _frequencies(pvals, shots, rng)
    return dict(zip(keys, freqs)), freqs[-1]


def _sample_partial(partial: InrmPartial, shots: int, seed: int) -> InrmPartial:
    """Multinomial emulation of one configuration: surviving outcomes plus the discard."""
    probs, discarded = _sample_surviving(
        partial.probabilities, partial.discarded, shots, _generator(seed)
    )
    return InrmPartial(
        slots=partial.slots,
        couplings=partial.couplings,
        probabilities=probs,
        discarded=discarded,
        kind="empirical",
        shots=shots,
    )


def assemble_inrm(partials: Sequence[InrmPartial]) -> OutcomeTable:
    """Merge all detector configurations into the full outcome table.

    The partials' survivor prefixes must cover every outcome prefix exactly
    once; the merged table then agrees entrywise with the sequential
    projective table in exact mode.
    """
    partials = list(partials)
    if not partials:
        raise ValidationError("no INRM partials supplied")
    slots = partials[0].slots
    n_det = len(partials[0].couplings)
    expected = set(itertools.product(*slots[:n_det]))
    seen: dict[tuple[int, ...], InrmPartial] = {}
    for part in partials:
        if part.slots != slots:
            raise ValidationError("INRM partials disagree on slot structure")
        prefix = part.survivor_prefix
        if prefix in seen:
            raise ValidationError(f"duplicate INRM configuration for prefix {prefix}")
        seen[prefix] = part
    missing = expected - set(seen)
    if missing:
        raise ValidationError(f"missing INRM configurations for prefixes {sorted(missing)}")

    probs: dict[tuple[int, ...], float] = {}
    for part in seen.values():
        probs.update(part.probabilities)
    kinds = {p.kind for p in partials}
    kind = "empirical" if "empirical" in kinds else "exact"
    shots_values = {p.shots for p in partials}
    shots = shots_values.pop() if len(shots_values) == 1 else None
    if kind == "exact":
        total = sum(probs.values())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(f"assembled INRM table must sum to 1 (got {total!r})")
    return OutcomeTable(slots=slots, probabilities=probs, kind=kind, shots=shots)


# ---------------------------------------------------------------------------
# Ancilla-based blind measurement
# ---------------------------------------------------------------------------


def blind_measurement_via_ancilla(mat: np.ndarray, q: Observable) -> np.ndarray:
    """Diagonalize by coupling to a fresh ancilla and discarding it.

    A controlled-shift correlates each eigenspace of the observable with an
    orthogonal ancilla state (the CNOT of the two-outcome case); tracing the
    ancilla out leaves Sum_s P_s mat P_s.  The ancilla is traced immediately,
    which is exact because nothing acts on it afterwards.
    """
    if q.dim != mat.shape[0]:
        raise DimensionMismatchError("observable dimension does not match the state")
    return _blind_stack(mat[None], q)[0]


def _blind_stack(stack: np.ndarray, q: Observable) -> np.ndarray:
    """``blind_measurement_via_ancilla`` on every matrix of a (B, d, d) stack at once."""
    b, d, _ = stack.shape
    u = q.controlled_shift
    na = u.shape[0] // d
    ancilla0 = np.zeros((na, na), dtype=complex)
    ancilla0[0, 0] = 1.0
    # the elementwise products np.kron(mat, ancilla0) forms, for every branch
    joint = (stack[:, :, None, :, None] * ancilla0[None, None, :, None, :]).reshape(b, d * na, d * na)
    joint = (u @ joint @ u.conj().T).reshape(b, d, na, d, na)
    # partial trace over the ancilla
    return np.einsum("xajbj->xab", joint)


def ancilla_blind_reduced_state(
    rho: DensityOperator, h: Hamiltonian, q: DichotomicObservable, t1: float
) -> DensityOperator:
    """System state after a blind ancilla measurement at time t1.

    The system is evolved to t1, correlated with an ancilla through a
    controlled-NOT in the observable's eigenbasis, and the ancilla (whose
    result is discarded) is traced out, leaving P_+ rho(t1) P_+ + P_- rho(t1) P_-.
    Equals ``dephase(evolve(rho, h, t1), q)``.
    """
    if not isinstance(q, DichotomicObservable):
        raise ValidationError("the blind ancilla construction requires a dichotomic observable")
    if q.dim != rho.dim or h.dim != rho.dim:
        raise DimensionMismatchError("state, Hamiltonian and observable dimensions must agree")
    rho_t1 = evolve_matrix(rho.matrix, h, t1)
    return DensityOperator(blind_measurement_via_ancilla(rho_t1, q))


def coarse_grained_observable(
    obs: ManyValuedObservable, plus_labels: Iterable[int]
) -> DichotomicObservable:
    """Dichotomic variable assigning +1 to the given outcome labels, -1 to the rest."""
    plus = set(int(x) for x in plus_labels)
    unknown = plus - set(obs.labels)
    if unknown:
        raise ValidationError(f"unknown labels in coarse graining: {sorted(unknown)}")
    if not plus or plus == set(obs.labels):
        raise ValidationError("coarse graining must split the outcomes into two non-empty groups")
    q = np.zeros((obs.dim, obs.dim), dtype=complex)
    for label in obs.labels:
        q += obs.projector(label) * (1.0 if label in plus else -1.0)
    return DichotomicObservable(q)


# ---------------------------------------------------------------------------
# Marginals, sampling, NSIT pairs
# ---------------------------------------------------------------------------


def marginal_distribution(table: OutcomeTable, keep: Sequence[int]) -> OutcomeTable:
    """Sum out every slot not in ``keep`` (1-based slot positions)."""
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValidationError("keep must be a non-empty subset of slots")
    if any(i < 1 or i > table.arity for i in keep):
        raise ValidationError(f"keep positions must lie in 1..{table.arity}")
    idx = [i - 1 for i in keep]
    probs: dict[tuple[int, ...], float] = {}
    for outcome, p in table.probabilities.items():
        key = tuple(outcome[i] for i in idx)
        probs[key] = probs.get(key, 0.0) + p
    slots = tuple(table.slots[i] for i in idx)
    slot_times = tuple(table.slot_times[i] for i in idx) if table.slot_times else None
    return OutcomeTable(
        slots=slots,
        probabilities=probs,
        kind=table.kind,
        shots=table.shots,
        slot_times=slot_times,
    )


def _generator(seed: int | np.random.Generator) -> np.random.Generator:
    """``np.random.default_rng(seed)`` without its dispatch; a generator is used as it stands."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


def _frequencies(pvals: Sequence[float], shots: int, rng: np.random.Generator) -> list[float]:
    """counts/shots of one multinomial draw over the weights ``pvals``, normalised to sum 1.

    The one sampling step: ``sample_counts`` and every INRM configuration
    draw through it.
    """
    pvals = np.array(pvals, dtype=float)
    total = pvals.sum()
    if total <= 0:
        raise ValidationError("table has no probability mass to sample")
    return (rng.multinomial(shots, pvals / total) / shots).tolist()


def sample_counts(
    table: OutcomeTable, shots: int, seed: int | np.random.Generator
) -> OutcomeTable:
    """Multinomial finite-shot emulation; entries are exact rationals counts/shots.

    ``seed`` is an integer seed, drawn from exactly as
    ``np.random.default_rng(seed)`` would, or a generator drawn from as it
    stands.  The CLI passes a generator whose state it restored from the
    cached initial state of an experiment's child seed, which is the same
    stream as ``np.random.default_rng(child_seed)``.
    """
    shots = int(shots)
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    keys = sorted(table.probabilities)
    probs = dict(zip(keys, _frequencies([table.prob(k) for k in keys], shots, _generator(seed))))
    return OutcomeTable(
        slots=table.slots,
        probabilities=probs,
        kind="empirical",
        shots=shots,
        slot_times=table.slot_times,
    )


def run_nsit_pair(
    rho: DensityOperator,
    h: Hamiltonian,
    q: Observable,
    t1: float,
    t2: float,
    config: ProtocolConfig,
    seed: int | None = None,
) -> tuple[OutcomeTable, OutcomeTable]:
    """The two experiments entering the two-time NSIT check.

    Returns ``(p12, p2_alone)``: the two-time table at (t1, t2) and the
    companion single-time table at t2, run with the same diagonalization
    mechanism placement.  The clumsiness channel models the disturbance the
    first measurement of the pair experiment inflicts, so it acts only there;
    the companion experiment performs no measurement at t1 and therefore
    carries no clumsiness (the mechanism, by contrast, stays in place).
    """
    if not float(t1) < float(t2):
        raise ValidationError(f"need t1 < t2, got t1 = {t1}, t2 = {t2}")
    schedule = Schedule((float(t1), float(t2)))
    # The mechanism placement is a property of the pair protocol; the
    # companion keeps it in place even though it performs no measurement at t1.
    mechanism = tuple(sorted(config.resolved_dephase_times((1, 2), 2)))
    pair = experiment_distribution(
        rho, h, q, schedule, (1, 2), replace(config, dephase_times=mechanism)
    )
    companion_config = replace(
        config, dephase_times=mechanism, clumsiness=ClumsinessModel.none()
    )
    companion = experiment_distribution(rho, h, q, schedule, (2,), companion_config)
    if config.shots > 0:
        ss = np.random.SeedSequence(seed if seed is not None else 0).spawn(2)
        pair = sample_counts(pair, config.shots, int(ss[0].generate_state(1)[0]))
        companion = sample_counts(companion, config.shots, int(ss[1].generate_state(1)[0]))
    return pair, companion


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def table_to_json(table: OutcomeTable) -> dict:
    data = {
        "slots": [[_format_label(v) for v in slot] for slot in table.slots],
        "probabilities": {
            _outcome_key(o): table.probabilities[o] for o in sorted(table.probabilities)
        },
        "kind": table.kind,
    }
    if table.shots is not None:
        data["shots"] = table.shots
    if table.slot_times is not None:
        data["slot_times"] = list(table.slot_times)
    return data


def table_from_json(data: Mapping) -> OutcomeTable:
    try:
        slots = tuple(tuple(int(v) for v in slot) for slot in data["slots"])
        probs = {
            tuple(int(part) for part in key.split(",")): float(p)
            for key, p in data["probabilities"].items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed outcome table payload: {exc}") from exc
    return OutcomeTable(
        slots=slots,
        probabilities=probs,
        kind=data.get("kind", "exact"),
        shots=data.get("shots"),
        slot_times=tuple(data["slot_times"]) if data.get("slot_times") else None,
    )


def _slot_header(position: int, slot: tuple[int, ...]) -> str:
    # Descending labels are what a bare header reads back as; any other
    # order is spelled out so that it survives the round trip.
    if list(slot) == sorted(slot, reverse=True):
        return f"s{position}"
    return f"s{position}[" + ";".join(_format_label(v) for v in slot) + "]"


def table_to_csv(table: OutcomeTable) -> str:
    """CSV with one outcome column per slot plus a probability column (LF endings).

    A slot whose labels are not in descending order lists them in its
    header cell, e.g. ``s1[+1;+2;+3]``.
    """
    header = ",".join(
        [_slot_header(i + 1, slot) for i, slot in enumerate(table.slots)] + ["probability"]
    )
    lines = [header]
    for outcome in sorted(table.probabilities):
        cells = [_format_label(v) for v in outcome] + [repr(table.probabilities[outcome])]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def table_from_csv(
    text: str,
    kind: str = "exact",
    shots: int | None = None,
    slot_times: tuple[int, ...] | None = None,
) -> OutcomeTable:
    """Parse ``table_to_csv`` output.

    A bare ``s<i>`` header cell reads that slot's labels from the rows in
    descending order; ``s<i>[...]`` gives them in order.
    """
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if len(lines) < 2:
        raise ValidationError("CSV table needs a header and at least one row")
    header = lines[0].split(",")
    arity = len(header) - 1
    if arity < 1 or header[-1] != "probability":
        raise ValidationError("CSV table header must be s1,..,sm,probability")
    declared: list[tuple[int, ...] | None] = []
    for cell in header[:-1]:
        _, bracket, labels = cell.partition("[")
        try:
            declared.append(tuple(int(v) for v in labels.rstrip("]").split(";")) if bracket else None)
        except ValueError as exc:
            raise ValidationError(f"CSV header cell {cell!r} has malformed labels") from exc
    probs: dict[tuple[int, ...], float] = {}
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != arity + 1:
            raise ValidationError(f"CSV row has {len(cells)} cells, expected {arity + 1}")
        outcome = tuple(int(c) for c in cells[:arity])
        probs[outcome] = float(cells[arity])
    slots = tuple(
        declared[i] or tuple(sorted({o[i] for o in probs}, reverse=True)) for i in range(arity)
    )
    return OutcomeTable(slots=slots, probabilities=probs, kind=kind, shots=shots, slot_times=slot_times)
