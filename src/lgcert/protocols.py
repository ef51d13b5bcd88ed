"""Measurement protocol simulation.

Implements every protocol the certification layer needs: single-time
measurement, sequential projective measurement, ideal negative measurement
(INRM) assembled from detector coupling configurations, the modified protocol
in which a diagonalization mechanism (artificial dephasing or an ancilla-based
blind measurement) acts just before the early measurement times, clumsiness
injection at the first measurement, and finite-shot multinomial sampling.

Probabilities are computed by unnormalized branch propagation: branch weights
are carried through the whole run and never divided by, so zero-probability
branches simply report zero for all continuations.  One kernel, ``_walk``,
serves every protocol: it runs many experiments at once as one depth-first
walk over the trie of their op sequences (``_path``), so every shared prefix
of evolutions, mechanisms, kicks and projections is propagated once.  It
carries all branches as one (B, d, d) stack, builds every distinct step's
unitary from the Hamiltonian's cached spectrum in one vectorised exp, and
runs every INRM detector configuration in the same pass.  A leading row axis
lets one walk serve several runs that differ only in their schedule times
and clumsiness, as the rows of a sweep do; a single run is one row, and
rows of equal times stay one until a kick of differing models widens them.

A row set of scenarios splits its rows into groups once, each group one
runner that plans its rows' experiments, walks them once and keeps their
cleaned entries.  A sweep's group also samples every row's experiments, each
row from its own child seeds, into (R, N) frequency arrays; for a
certification, a runner per row reads its row of them into the independent
experiments and seeds their sampling.  The library entry points are one-row
calls on them, as certifications are.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

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
    _projections,
    _require_same_dim,
    _tall_product,
    dephase_matrix,
    evolve_matrix,
    unitary_for,
)

__all__ = [
    "MODES",
    "Schedule",
    "ProtocolConfig",
    "Scenario",
    "ScenarioError",
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


def _check_times(times: tuple[float, ...]) -> None:
    """Raise the ``ValidationError`` naming the first way ``times`` fails to be a schedule."""
    if len(times) < 1:
        raise ValidationError("schedule must contain at least one time")
    if not all(map(math.isfinite, times)):
        raise ValidationError("schedule times must be finite")
    if times[0] <= 0.0:
        raise ValidationError(f"schedule times must be > 0, got t1 = {times[0]}")
    for a, b in zip(times, times[1:]):
        if not a < b:
            raise ValidationError(f"schedule times must be strictly increasing, got {a} then {b}")


@dataclass(frozen=True)
class Schedule:
    """Strictly increasing measurement times, all positive."""

    times: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        _check_times(times)
        object.__setattr__(self, "times", times)

    @classmethod
    def _checked(cls, times: tuple[float, ...]) -> "Schedule":
        """The schedule of ``times``, a tuple of floats already: the constructor's checks, not its conversion."""
        _check_times(times)
        schedule = object.__new__(cls)
        object.__setattr__(schedule, "times", times)
        return schedule

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> float:
        return self.times[i]


def _shot_count(shots) -> int:
    """``shots`` as an int, which numpy's multinomial draws take as a signed 64-bit count."""
    shots = int(shots)
    if shots > 2**63 - 1:
        raise ValidationError(f"shots must be at most 2**63 - 1, got {shots}")
    return shots


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
        shots = _shot_count(self.shots)
        if shots < 0:
            raise ValidationError("shots must be non-negative")
        object.__setattr__(self, "shots", shots)

    @property
    def uses_mechanism(self) -> bool:
        return self.mode in ("projective_dephased", "inrm_dephased", "ancilla_blind")

    @property
    def uses_ancilla(self) -> bool:
        return self.mode == "ancilla_blind"

    @property
    def uses_detectors(self) -> bool:
        return self.mode in ("inrm", "inrm_dephased")

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


@functools.lru_cache(maxsize=1024)
def _outcome_key(outcome: tuple[int, ...]) -> str:
    """``"+1,-1"``-style text of an outcome tuple; reports and check ids format the same few many times."""
    return ",".join(_format_label(v) for v in outcome)


# Each table validation rule, and the variance of an empirical entry, has one
# owner, which both the tables and the column path of sweep rows call.


def _entry_in_range(p):
    """Whether a table entry lies in [0, 1] up to ``ENTRY_TOL`` (NaN does not); elementwise on arrays."""
    return (p >= -ENTRY_TOL) & (p <= 1.0 + ENTRY_TOL)


def _entry_error(outcome: tuple[int, ...], p: float) -> str:
    """Why a table entry that is not ``_entry_in_range`` is invalid."""
    return f"probability for {outcome} out of range: {p!r}"


def _sum_error(total: float) -> str | None:
    """Why an exact table whose entries sum to ``total`` is invalid, or ``None``."""
    return f"exact table must sum to 1 (got {total!r})" if abs(total - 1.0) > NORMALIZATION_TOL else None


def _labels(values: Any, where: str) -> tuple[int, ...]:
    """A supplied slot or outcome key as int labels; ``where`` ("slot", "key") names it in an error.

    A bool, or anything ``int`` cannot read, is no label.
    """
    try:
        labels = tuple(values)
    except TypeError:
        raise ValidationError(f"{where} {values!r} is not a sequence of outcome labels") from None
    out = []
    for v in labels:
        try:
            label = None if isinstance(v, (bool, np.bool_)) else int(v)
        except (TypeError, ValueError):
            label = None
        if label is None:
            raise ValidationError(f"outcome label {v!r} in {where} {values!r} is not an integer")
        out.append(label)
    return tuple(out)


def _entry_value(outcome: tuple[int, ...], p: Any) -> float:
    """A supplied table entry as a float; a bool or a string is no number here."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise ValidationError(f"probability for {outcome} must be a number, got {p!r}")
    return float(p)


def _check_entries(probs: Mapping[tuple[int, ...], float], kind: str) -> None:
    """Raise for a table's first entry out of range, then for an exact table's sum off 1."""
    for k, p in probs.items():
        if not _entry_in_range(p):
            raise ValidationError(_entry_error(k, p))
    if kind == "exact":
        error = _sum_error(sum(probs.values()))
        if error is not None:
            raise ValidationError(error)


def _entry_variance(p, shots: int):
    """Multinomial variance of an empirical entry ``p``, clamped to [0, 1], at ``shots`` shots; elementwise."""
    return p * (1.0 - p) / float(shots)


def _clip(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """``min(high, max(low, v))`` of every entry, NaN included (it becomes ``low``)."""
    values = np.where(values > low, values, low)
    return np.where(values < high, values, high)


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
        slots = tuple(_labels(slot, "slot") for slot in self.slots)
        if not slots or any(len(s) < 2 for s in slots):
            raise ValidationError("each slot needs at least two outcome labels")
        expected = set(itertools.product(*slots))
        probs = {_labels(k, "key"): _entry_value(k, p) for k, p in dict(self.probabilities).items()}
        if probs.keys() != expected:
            missing = sorted(expected - set(probs))
            extra = sorted(set(probs) - expected)
            raise ValidationError(
                f"probabilities must cover exactly the outcome product (missing {missing[:4]}, extra {extra[:4]})"
            )
        _check_entries(probs, self.kind)
        if self.slot_times is not None:
            st = tuple(int(i) for i in self.slot_times)
            if len(st) != len(slots):
                raise ValidationError("slot_times length must match the number of slots")
            object.__setattr__(self, "slot_times", st)
        if self.kind == "empirical" and self.shots is not None and int(self.shots) < 1:
            raise ValidationError("empirical table shots must be >= 1")
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def _built(
        cls,
        slots: tuple[tuple[int, ...], ...],
        probabilities: dict[tuple[int, ...], float],
        kind: str = "exact",
        shots: int | None = None,
        slot_times: tuple[int, ...] | None = None,
    ) -> OutcomeTable:
        """A table the program builds from its own columns, checked only where it can fail.

        Its labels and keys are int tuples over exactly the outcome product,
        its entries floats and its other fields valid, so of
        ``__post_init__`` only ``_check_entries`` runs; ``probabilities`` is
        held as given, not copied.
        """
        _check_entries(probabilities, kind)
        table = object.__new__(cls)
        table.__dict__.update(slots=slots, probabilities=probabilities, kind=kind, shots=shots, slot_times=slot_times)
        return table

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
        return _entry_variance(self.prob(outcome), self.shots)

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
        couplings = _labels(self.couplings, "couplings")
        if any(c not in (1, -1) for c in couplings):
            raise ValidationError("couplings must be +1 or -1")
        slots = tuple(_labels(s, "slot") for s in self.slots)
        prefix = tuple(-c for c in couplings)
        expected = {prefix + (s,) for s in slots[-1]}
        probs = {_labels(k, "key"): _entry_value(k, p) for k, p in dict(self.probabilities).items()}
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


_DEPHASE, _BLIND, _READ, _TRACE = 1, 2, 1, 2  # a node's mechanism; its read-out, P m P or P m


def _path(
    rho: DensityOperator, h: Hamiltonian, observables: Sequence[Observable], n_times: int,
    measured: tuple[int, ...], config: ProtocolConfig, clumsy: bool, detectors: bool | None = None,
) -> list[tuple[tuple, Observable]]:
    """One experiment's ops for ``_walk``: per time step k, its node key and observable.

    Step k evolves to the k-th time run; then the config's mechanism acts
    if placed there, the rows' clumsiness if ``clumsy`` at the first
    read-out, and a read-out branches each matrix m into P_s m P_s.  INRM
    modes (``detectors``, by default ``config.uses_detectors``) put their
    detectors at the measured times: they run the measured sub-schedule, so
    a step may skip times, and read the last time as Tr(P_s m).  Equal keys
    after equal prefixes make the same numpy calls.
    """
    dephase_at = config.resolved_dephase_times(measured, n_times)
    index = range(1, n_times + 1)
    trace_last = config.uses_detectors if detectors is None else detectors
    if trace_last:
        observables = [observables[measured[0] - 1]] * len(measured)
        index, dephase_at = measured, frozenset(measured.index(i) + 1 for i in dephase_at)
        measured = range(1, len(measured) + 1)
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
    last_relevant = max([*measured, *dephase_at]) if dephase_at else measured[-1]
    return [(
        (
            (index[k - 2] if k > 1 else 0, index[k - 1]),
            id(observables[k - 1]),
            (_BLIND if config.uses_ancilla else _DEPHASE) if k in dephase_at else 0,
            clumsy and k == measured[0],
            0 if k not in measured else _TRACE if trace_last and k == measured[-1] else _READ,
        ),
        observables[k - 1],
    ) for k in range(1, last_relevant + 1)]


class _Failure:
    """A ``ValidationError`` kept by type and message, without the traceback that would make a cycle."""

    def __init__(self, exc: ValidationError):
        self.kind, self.message = type(exc), str(exc)

    def throw(self):
        raise self.kind(self.message)


def _walk(
    rho: DensityOperator, h: Hamiltonian, times: Sequence[Sequence[float]],
    clumsiness: Sequence[ClumsinessModel], paths: Mapping[Any, list | _Failure],
) -> dict[Any, tuple[list[tuple[int, ...]], np.ndarray] | _Failure]:
    """Branch-propagate R rows of many experiments; return each one's outcomes and probabilities.

    The rows differ only in their master schedule ``times`` and their
    ``clumsiness`` models (all of one kind and triviality).  ``paths`` maps
    each experiment to its ``_path`` or its planning ``_Failure``.  The walk
    goes depth first through the trie of the paths, so every shared prefix
    is run once (``_advance``), all branches of all rows as one
    (R, B, d, d) stack; every distinct step's unitaries come from one
    vectorised exp over the cached spectrum.  Siblings that take the same
    step differ only in mechanism, kick and read-out: when a node branches,
    its children are grouped by step, its output is conjugated once per
    step, and each child is pushed with that conjugated stack, shared by
    reference.  Rows of equal times (a strength or seed sweep) share their
    unitaries: a stack stays one row until a kick of per-row models widens
    it to R, and rows that also share one model walk as one row
    throughout.  Rows that share one model, whatever their times, are
    kicked by that model alone, and a kick's arrays are built once for all
    its nodes (``_kick``).  A node's output is released once its children
    are pushed, and a conjugated stack once its last child is popped, so
    about one root-to-leaf path is held; the pending nodes are a list, not
    the call stack, so no recursion limit bounds a path's length.  A
    conjugation U m U^dag is one product per matrix for U m, then one tall
    product per distinct U^dag for (U m) U^dag (``_tall_product``), a
    single one for rows of equal times, which equals the per-matrix
    products bit for bit; a wide product for U m would not.
    Read-outs lay their branches out outcome-major (``_advance``), so a
    leaf's traces are put back in product order by one cached column
    permutation (``_leaf_order``).  An experiment gets its outcome tuples in
    product order and the unclamped (R, N) traces of its leaf, a one-row
    leaf repeated R times, or the ``_Failure`` of its path's first node that
    raised.
    """
    results = {request: path for request, path in paths.items() if isinstance(path, _Failure)}
    live = [(request, path) for request, path in paths.items() if not isinstance(path, _Failure)]
    if not live:
        return results
    steps = list(dict.fromkeys(key[0] for _, path in live for key, _ in path))
    d, rows = rho.dim, len(times)
    t = np.asarray(times, dtype=float)
    if (t == t[0]).all():
        t = t[:1]
    model = clumsiness[0]
    if all(c is model or _model_key(c) == _model_key(model) for c in clumsiness):
        clumsiness = clumsiness[:1]
    kick = _kick(clumsiness, d)
    step_times = np.stack([t[:, b - 1] - t[:, a - 1] if a else t[:, b - 1] for a, b in steps], axis=1)
    unitaries = unitary_for(h, step_times.ravel()).reshape(*step_times.shape, d, d)
    adjoints = unitaries.conj().swapaxes(-1, -2)
    # each step's (R, 1, d, d) unitary and (R, d, d) adjoint, sliced once for all its nodes
    ops = {step: (unitaries[:, i, None], adjoints[:, i]) for i, step in enumerate(steps)}
    # each pending node: its parent's stack conjugated by its step, its depth and the paths through it
    pending: list[tuple[np.ndarray, int, list]] = []

    def branch(stack: np.ndarray, depth: int, group: list) -> None:
        children: dict[tuple, dict[tuple, list]] = {}  # per step, per node key
        for request, path in group:
            if len(path) > depth:
                key = path[depth][0]
                children.setdefault(key[0], {}).setdefault(key, []).append((request, path))
        for step, nodes in children.items():
            unitary, adjoint = ops[step]
            conjugated = _tall_product(unitary @ stack, adjoint)
            pending.extend((conjugated, depth, node) for node in nodes.values())

    branch(rho.matrix[None, None], 0, live)
    while pending:
        stack, depth, group = pending.pop()
        key, obs = group[0][1][depth]
        try:
            stack = _advance(stack, key, obs, kick)
        except ValidationError as exc:
            results.update(dict.fromkeys((request for request, _ in group), _Failure(exc)))
            continue
        ended = [(request, path) for request, path in group if len(path) == depth + 1]
        if ended:
            outcomes, order = _leaf_order(tuple(o.outcomes for k, o in ended[0][1] if k[-1]))
            traces = stack.trace(axis1=2, axis2=3).real
            traces = traces if order is None else traces.take(order, axis=1)
            traces = traces if len(traces) == rows else np.repeat(traces, rows, axis=0)
            results.update(dict.fromkeys((r for r, _ in ended), (list(outcomes), traces)))
        branch(stack, depth + 1, group)
    return results


def _advance(stack: np.ndarray, key: tuple, obs: Observable, kick: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """One node of the walk on its parent's (R, B, d, d) ``stack`` conjugated by its step: its mechanism, ``kick`` and read-out.

    Products by a shared right-hand matrix are tall, one BLAS call per
    distinct right-hand matrix: (P_s m) P_s in the dephasing and a read-out
    (``_projections``, one call per outcome across every row) and
    (K m) K^dag in a kick (``_tall_product``, one call for rows that share
    one model).  The left-hand products stay one per matrix, because a wide
    (d, B d) product differs from them in the last bit at d = 2 and 3.  A
    read-out over K outcomes lays each row's branches out outcome-major,
    as the (R, K, B, d, d) view of ``_projections``; the walk's leaves
    restore product order (``_leaf_order``).
    """
    d = stack.shape[-1]
    _, _, mechanism, clumsy, read = key
    if mechanism == _BLIND:
        stack = _blind_stack(stack.reshape(-1, d, d), obs).reshape(stack.shape)
    elif mechanism == _DEPHASE:
        stack = dephase_matrix(stack, obs)
    if clumsy:
        stack = kick(stack)
    if read:
        stack = _projections(stack, obs, read == _READ).reshape(len(stack), -1, d, d)
    return stack


@functools.lru_cache(maxsize=256)
def _leaf_order(read: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple[int, ...], ...], np.ndarray | None]:
    """A leaf's outcome tuples, after read-outs of the outcomes ``read``, and the columns that put its branches in their order.

    The tuples are in product order.  ``_advance`` lays each read-out's
    outcomes out as the most significant digit of the branch index, the
    reverse of product order; after one read-out the branches are in order
    already, and the columns are ``None``.
    """
    outcomes = tuple(itertools.product(*read))
    if len(read) == 1:
        return outcomes, None
    order = np.arange(len(outcomes)).reshape([len(o) for o in reversed(read)]).T.ravel()
    order.flags.writeable = False
    return outcomes, order


def _leaf(rho: DensityOperator, h: Hamiltonian, times, clumsiness, path: list) -> tuple[list, np.ndarray]:
    """A one-leaf ``_walk``: one experiment's outcomes and (R, N) probabilities, or its error raised."""
    leaf = _walk(rho, h, times, clumsiness, {None: path})[None]
    if isinstance(leaf, _Failure):
        leaf.throw()
    return leaf


def _model_key(c: ClumsinessModel) -> tuple:
    """What ``_kick`` reads of a model: equal keys kick alike, bit for bit."""
    return c.kind, c.strength, None if c.generator is None else c.generator.tobytes()


def _kick(clumsiness: Sequence[ClumsinessModel], d: int) -> Callable[[np.ndarray], np.ndarray]:
    """``apply_clumsiness_matrix`` on every matrix of an (R, B, d, d) stack, row i with ``clumsiness[i]``.

    The models are all of one non-trivial kind, and their per-row arrays are
    built once for every node of a walk.  Bit for bit the per-matrix
    function: depolarizing noise scales the real and imaginary parts of each
    trace as its complex scalar arithmetic does (they differ at most in the
    sign of a zero, which the product with the identity drops), and kicks
    conjugate each row's branches with that row's unitary.  A kick whose
    generator is not d x d raises when it is applied, so the error belongs
    to the experiments below that node.
    """
    if clumsiness[0].kind == "unitary_kick":
        # the rows of a batch share their generators' shape (``_batch_signature``)
        size = clumsiness[0].generator.shape[0]
        if size != d:
            def mismatched(stack: np.ndarray) -> np.ndarray:
                _require_same_dim(d, size, "apply_clumsiness")
            return mismatched
        kicks = np.array([c.kick_unitary for c in clumsiness])
        left, right = kicks[:, None], kicks.conj().swapaxes(-1, -2)
        return lambda stack: _tall_product(left @ stack, right)
    eps = np.array([c.strength for c in clumsiness])[:, None]
    kept = (1.0 - eps)[..., None, None]
    eye = np.eye(d)

    def depolarize(stack: np.ndarray) -> np.ndarray:
        # eps * (Tr m / d) on the interleaved real and imaginary parts of the (R, B) traces
        mixed = (eps * (stack.trace(axis1=2, axis2=3).view(float) / d)).view(complex)
        return kept * stack + mixed[..., None, None] * eye

    return depolarize


def _clean_probs(raw: dict[tuple[int, ...], float]) -> dict[tuple[int, ...], float]:
    """An entry in [-ENTRY_TOL, 0) becomes 0.0, as ``_table_columns`` cleans columns."""
    return {k: 0.0 if -ENTRY_TOL <= v < 0.0 else v for k, v in raw.items()}


# ---------------------------------------------------------------------------
# Named protocol operations
# ---------------------------------------------------------------------------


def single_time_distribution(
    rho: DensityOperator, h: Hamiltonian, q: Observable, t: float
) -> OutcomeTable:
    """p(s) = Tr(P_s(t) rho) for a single measurement at time t."""
    path = _path(rho, h, [q], 1, (1,), ProtocolConfig(), False, detectors=True)
    outcomes, raw = _leaf(rho, h, [(t,)], [ClumsinessModel.none()], path)
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
    modes are served by assembling all detector configurations (exact mode);
    with one read-out, or the mechanism at a time not read out, they run the
    entrywise-equal projective counterpart, as a certification does.
    """
    m = len(schedule)
    observables = _as_observable_list(q, m)
    measured = tuple(sorted(int(i) for i in measured)) if measured is not None else tuple(range(1, m + 1))
    if not measured:
        raise ValidationError("measured time subset must be non-empty")
    if any(i < 1 or i > m for i in measured):
        raise ValidationError(f"measured indices must lie in 1..{m}")
    if config.uses_detectors and len(measured) > 1:
        q = observables[measured[0] - 1]  # the one observable every detector reads
        if not isinstance(q, DichotomicObservable) or any(observables[i - 1] is not q for i in measured):
            raise ValidationError("INRM assembly requires a single dichotomic observable")
    return _one_row(rho, h, q, schedule, replace(config, shots=0)).experiment(measured)


def _row_table(
    table: _TableColumns,
    row: int,
    measured: tuple[int, ...],
    config: ProtocolConfig,
    next_generator: Callable[[], np.random.Generator] | None = None,
) -> OutcomeTable:
    """Row ``row`` of an experiment's cleaned columns (``_table_columns``) as that row's table.

    This is the one-row runner's table, which ``run_certification`` and the
    library entry points read; sweep rows are certified from their group's
    columns instead (``_sample_columns``), and equal these tables.  An exact
    table holds the row's entries in the columns' order, which for INRM
    modes is the order ``assemble_inrm`` gives over the detector
    configurations' partials.  With ``config.shots > 0`` the table is sampled
    with generators drawn from ``next_generator``: one for a directly
    measured table, drawn from the entries as ``sample_counts`` would draw
    from their exact table, and one per INRM detector configuration in
    couplings product order, each configuration's block of entries a
    multinomial with its own discard cell, as ``_sample_partial`` samples
    it.  Only the sampled table is validated: the sampling clamps each exact
    entry to [0, 1] and renormalises, so an experiment whose exact table
    would fail validation (an entry out of range by more than ``ENTRY_TOL``,
    a sum off 1 by more than ``NORMALIZATION_TOL``) still samples, at finite
    shots, where its exact row is an error.
    """
    probs = dict(zip(table.outcomes, table.values[row].tolist()))
    if config.shots == 0:
        return OutcomeTable._built(table.slots, probs, slot_times=measured)
    if not config.uses_detectors:
        return _sampled_table(table.slots, probs, config.shots, next_generator(), measured)
    entries = list(probs.items())
    width = len(table.slots[-1])
    sampled: dict[tuple[int, ...], float] = {}
    for start in range(0, len(entries), width):
        block = dict(entries[start : start + width])
        block, _ = _sample_surviving(block, 1.0 - sum(block.values()), config.shots, next_generator())
        sampled.update(block)
    return OutcomeTable._built(table.slots, sampled, kind="empirical", shots=config.shots, slot_times=measured)


# ---------------------------------------------------------------------------
# Experiment orchestration
# ---------------------------------------------------------------------------


class ScenarioError(ValidationError):
    """A scenario or sweep file failed validation; the message names the field."""


@dataclass(frozen=True)
class Scenario:
    """One row: what a certification runs on.  ``observable`` may be one per time (library calls)."""

    dimension: int
    initial_state: DensityOperator
    hamiltonian: Hamiltonian
    observable: Observable | Sequence[Observable]
    schedule: Schedule
    config: ProtocolConfig
    checks: tuple[str, ...]
    shots: int
    seed: int
    derive_lower_moments: bool = False
    raw: Mapping[str, Any] = field(default_factory=dict)


@functools.lru_cache(maxsize=256)
def _times_name(times: tuple[int, ...]) -> str:
    """``"123"``-style text of 1-based times; experiment keys and moment names repeat the same few."""
    return "".join(str(i) for i in times)


def _batch_signature(s: Scenario) -> tuple:
    """What rows must share for one kernel call to serve them all.

    Rows with equal signatures differ only in schedule times and clumsiness
    strength.  The parsed state, Hamiltonian and observable count by
    identity: sweep rows share the template's objects.  A kick generator's
    shape is part of it so that a row with a mismatched generator fails on
    its own.
    """
    c = s.config
    generator = c.clumsiness.generator
    return (
        id(s.initial_state),
        id(s.hamiltonian),
        id(s.observable),
        c.mode,
        c.dephase_times,
        len(s.schedule),
        c.clumsiness.kind,
        c.clumsiness.is_trivial,
        None if generator is None else generator.shape,
        s.shots,
    )


# Rows per kernel call are capped so that one call's final branch stack holds
# at most this many complex entries (16 MB), unless a single row needs more.
_BATCH_ENTRIES = 1 << 20


# the model of every clean experiment's config, built once rather than per experiment
_NO_CLUMSINESS = ClumsinessModel.none()


def _experiment_config(
    s: Scenario, measured: tuple[int, ...], mechanism: tuple[int, ...], clean: bool
) -> ProtocolConfig:
    """How one experiment of scenario ``s`` runs.

    A single read-out has no INRM detectors, and a mechanism at a
    non-detector time is not expressible with them; such experiments run the
    entrywise-equal projective counterpart on the master schedule.
    """
    mode = s.config.mode
    if s.config.uses_detectors and (len(measured) < 2 or not set(mechanism) <= set(measured)):
        mode = "projective" if mode == "inrm" else "projective_dephased"
    clumsiness = _NO_CLUMSINESS if clean else s.config.clumsiness
    config = ProtocolConfig(mode=mode, dephase_times=mechanism, clumsiness=clumsiness, shots=s.shots)
    if config.uses_detectors and not isinstance(s.observable, DichotomicObservable):
        raise ScenarioError("protocol: INRM modes require a dichotomic observable")
    return config


class _RowSet:
    """The parsed rows of a sweep, or the one row of a single certification.

    ``scenarios`` holds each row's scenario, or the message of the error its
    parsing raised.  The rows are split into groups once, here: in row
    order, rows with the same batch signature, checks and moment source join
    one group, as many as one kernel call over the whole schedule holds
    within ``_BATCH_ENTRIES`` entries.  Each group is one ``_ColumnRunner``,
    which runs all its experiments in one walk for all its rows.  Sweep
    rows, exact or finite-shot, are certified by their group as columns; the
    single-row callers read their row of the group's columns through an
    ``_ExperimentRunner``.  Rows whose checks differ thus share no walk,
    and where the cap binds, a group is sized by the whole schedule, not by
    each experiment's own branches.

    It also owns finite-shot seeding.  The child seed of a draw is derived
    from (scenario seed, draw index) directly, as that index's
    ``SeedSequence`` spawn key, and the row set keeps the initial state of
    each child's PCG64 stream by (seed, index), for every seed that more than
    one row draws from.  Rows that share a seed (all rows of a sweep, unless
    the seed is swept) therefore derive and seed each child once; a seed
    only one row draws from (a single certification's) is never restored,
    so its states are not kept.  The groups and the cache live as long as
    the row set, which is one library, ``run_certification`` or
    ``run_sweep`` call.
    """

    def __init__(self, scenarios: Sequence[Scenario | str]):
        self.scenarios = list(scenarios)
        self._placed: list[tuple[_ColumnRunner, int] | None] = []
        open_groups: dict[tuple, _ColumnRunner] = {}
        rows_per_seed: dict[int, int] = {}
        for s in self.scenarios:
            if isinstance(s, str):
                self._placed.append(None)
                continue
            rows_per_seed[s.seed] = rows_per_seed.get(s.seed, 0) + 1
            key = (_batch_signature(s), s.checks, s.derive_lower_moments)
            group = open_groups.get(key)
            if group is None or (len(group.scenarios) + 1) * group.entries > _BATCH_ENTRIES:
                group = open_groups[key] = _ColumnRunner(s)
            else:
                group.scenarios.append(s)
            self._placed.append((group, len(group.scenarios) - 1))
        self._states: dict[tuple[int, int], dict] = {}
        self._lone_seeds = {seed for seed, count in rows_per_seed.items() if count == 1}
        self._rng: np.random.Generator | None = None

    def group(self, row: int) -> tuple[_ColumnRunner, int]:
        """``row``'s group and its index there; a row whose parsing failed raises its message."""
        placed = self._placed[row]
        if placed is None:
            raise ScenarioError(self.scenarios[row])
        return placed

    def generator(self, seed: int, index: int) -> np.random.Generator:
        """A generator at the start of the stream of ``seed``'s ``index``-th child seed.

        The stream is ``np.random.default_rng(child)`` for the child seed
        ``SeedSequence(seed, spawn_key=(index,))`` reduces to, which is the
        index-th child ``SeedSequence(seed).spawn`` gives.  A stream seen
        before is restored into one shared generator from its cached initial
        state, so the generator returned is valid until the next call.
        """
        state = self._states.get((seed, index))
        if state is None:
            child = int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1)[0])
            bits = np.random.PCG64(child)
            if seed not in self._lone_seeds:
                self._states[seed, index] = bits.state
            rng = np.random.Generator(bits)
            if self._rng is None:
                self._rng = rng
            return rng
        self._rng.bit_generator.state = state
        return self._rng


class _Runner:
    """What both experiment runners share: one scenario's observables and its NSIT pair.

    On its own a runner runs nothing: it records the request of each
    experiment asked of it, in order, which is how a group plans its walk.
    """

    def __init__(self, s: Scenario, observables: list[Observable]):
        self.s = s
        self.observables = observables
        self.requests: list[tuple] = []

    def _mechanism(self, measured: tuple[int, ...]) -> tuple[int, ...]:
        """The protocol's own mechanism placement for an experiment measuring ``measured``."""
        return tuple(sorted(self.s.config.resolved_dephase_times(measured, len(self.s.schedule))))

    def experiment(
        self,
        measured: tuple[int, ...],
        mechanism: tuple[int, ...] | None = None,
        clean: bool = False,
        key: str | None = None,
    ) -> Any:
        """One independent experiment reading out the given schedule times.

        ``mechanism`` (master 1-based times, default: the protocol's own
        resolution) places the diagonalization; the scenario's clumsiness
        channel is injected before the experiment's first measurement unless
        ``clean``.  ``key`` names the experiment in a report, and a sampled
        experiment is drawn once per key: two keys may share one request
        and still draw apart.
        """
        if mechanism is None:
            mechanism = self._mechanism(measured)
        if key is None:
            key = _times_name(measured) + ("" if not mechanism else "_blind" + _times_name(mechanism))
            if clean and not self.s.config.clumsiness.is_trivial:
                key += "_clean"
        return self._run(key, (measured, mechanism, clean))

    def _run(self, key: str, request: tuple) -> Any:
        self.requests.append(request)

    def nsit_pair(self) -> tuple[Any, Any]:
        """The two-time NSIT experiment pair on the first two schedule times."""
        mech = self._mechanism((1, 2))
        pair = self.experiment((1, 2), mechanism=mech, key="nsit:12")
        # The companion run makes no measurement at t1, so it carries no
        # clumsiness; the diagonalization mechanism stays in place.
        companion_key = "nsit:2" + ("" if not mech else "_blind" + _times_name(mech))
        companion = self.experiment((2,), mechanism=mech, clean=True, key=companion_key)
        return pair, companion


class _ExperimentRunner(_Runner):
    """Runs and caches the independent experiments of one row: a view of that row of its group.

    Each experiment's table is built from the row's share of the group's
    cleaned columns (``_row_table``), exact or sampled.  Every sampled
    experiment draws its own child seed from the scenario seed in execution
    order (the runner keeps only the draw index; the row set derives the
    child from (seed, index) and seeds it), so identical scenarios reproduce
    byte-identical reports, whether the row runs alone or within a sweep.
    """

    def __init__(self, rows: _RowSet, row: int):
        self.group, self.index = rows.group(row)
        super().__init__(self.group.scenarios[self.index], self.group.observables)
        self.rows = rows
        self.tables: dict[str, OutcomeTable] = {}
        self._draws = 0

    def _next_generator(self) -> np.random.Generator:
        rng = self.rows.generator(self.s.seed, self._draws)
        self._draws += 1
        return rng

    def _run(self, key: str, request: tuple) -> OutcomeTable:
        if key not in self.tables:
            config, columns = self.group.table(request)
            self.tables[key] = _row_table(columns, self.index, request[0], config, self._next_generator)
        return self.tables[key]


class _TableColumns:
    """One experiment's cleaned or sampled table for every row of a group.

    ``outcomes`` lists the entries in the order each row's ``OutcomeTable``
    holds them, and ``values`` is the (R, N) array of those entries; a
    sampled table (``shots > 0``) holds frequencies.  ``errors`` is, per
    row, what validating its table raises, or ``None``; only the column
    certifier reads it, so it is computed then.  ``variances`` holds each
    entry's ``OutcomeTable.entry_variance``.
    """

    def __init__(
        self, slots: tuple[tuple[int, ...], ...], outcomes: list[tuple[int, ...]], values: np.ndarray, shots: int = 0
    ):
        self.slots = slots
        self.outcomes = outcomes
        self.values = values
        self.shots = shots

    @functools.cached_property
    def errors(self) -> list[str | None]:
        return _table_errors(self.outcomes, self.values, exact=not self.shots)

    @functools.cached_property
    def variances(self) -> np.ndarray:
        if not self.shots:
            return np.zeros_like(self.values)
        return _entry_variance(_clip(self.values, 0.0, 1.0), self.shots)

    def columns(self, outcomes: Iterable[tuple[int, ...]]) -> list[int]:
        index = {o: k for k, o in enumerate(self.outcomes)}
        return [index[o] for o in outcomes]


def _row_sums(columns: np.ndarray) -> list[float]:
    """The builtin ``sum`` of each row of an (R, N) array, so its rounding is the scalar code's."""
    return [sum(entries) for entries in columns.tolist()]


def _table_errors(outcomes: Sequence[tuple[int, ...]], values: np.ndarray, exact: bool = True) -> list[str | None]:
    """Per row, what validating its ``OutcomeTable`` raises, or ``None``: the first bad entry, then an exact sum."""
    bad = ~_entry_in_range(values)
    errors: list[str | None] = [None] * len(values)
    for i in np.flatnonzero(bad.any(axis=1)):
        j = int(np.argmax(bad[i]))
        errors[i] = _entry_error(outcomes[j], float(values[i, j]))
    if not exact:
        return errors
    # Entries in range that sum to about 1 have numpy's sum and the builtin
    # one within 2n ulp of each other, so a row whose numpy sum is twice
    # that far inside the tolerance passes the builtin check unsummed.
    n = values.shape[1]
    cleared = np.abs(values.sum(axis=1) - 1.0) <= NORMALIZATION_TOL - 4 * n * 2.0**-52
    for i in np.flatnonzero(~cleared).tolist():
        if errors[i] is None:
            errors[i] = _sum_error(sum(values[i].tolist()))
    return errors


def _table_columns(
    outcomes: Sequence[tuple[int, ...]],
    raw: np.ndarray,
    observables: Sequence[Observable],
    measured: tuple[int, ...],
    config: ProtocolConfig,
) -> _TableColumns:
    """Every row's cleaned table of one experiment from its ``_walk`` leaf.

    An entry in [-ENTRY_TOL, 0) becomes 0.0.  The entries are in the table's
    own order: product order, or for INRM modes the detector
    configurations' surviving entries, one block per configuration in
    couplings product order.
    """
    if config.uses_detectors:
        labels = observables[measured[0] - 1].outcomes
        # the couplings' product order over (-1, 1) is the labels' (1, -1) prefix order reversed
        rows, width = len(raw), len(labels)
        raw = raw.reshape(rows, -1, width)[:, ::-1].reshape(rows, -1)
        order = [o for end in range(len(outcomes), 0, -width) for o in outcomes[end - width : end]]
        slots = tuple(tuple(labels) for _ in measured)
    else:
        order = list(outcomes)
        slots = tuple(tuple(observables[i - 1].outcomes) for i in measured)
    # cleaning changes only negative entries, which a kernel run seldom has (NaN takes the long way)
    values = raw if raw.min() >= 0.0 else np.where((raw >= -ENTRY_TOL) & (raw < 0.0), 0.0, raw)
    return _TableColumns(slots, order, values)


def _marginal_columns(table: _TableColumns, keep: Sequence[int]) -> _TableColumns:
    """``marginal_distribution`` of every row's table over the 1-based slots ``keep``.

    Entries appear in the order the table first reaches them, and each one
    adds its sources in table order to 0.0, as the scalar marginal does.
    """
    idx = [i - 1 for i in keep]
    sources: dict[tuple[int, ...], list[int]] = {}
    for j, outcome in enumerate(table.outcomes):
        sources.setdefault(tuple(outcome[i] for i in idx), []).append(j)
    values = np.zeros((len(table.values), len(sources)))
    for column in np.array(list(sources.values())).T:
        values = values + table.values[:, column]
    return _TableColumns(tuple(table.slots[i] for i in idx), list(sources), values, table.shots)


def _sample_columns(
    table: _TableColumns, config: ProtocolConfig, errors: list[str | None],
    generator: Callable[[int], np.random.Generator],
) -> _TableColumns:
    """Every row's sampled table from its cleaned exact columns, as ``_row_table`` samples one row.

    The entries come out in the order each row's sampled ``OutcomeTable``
    holds them.  A directly measured table is one multinomial over its
    entries, each clamped to [0, 1], in sorted outcome order; an INRM table
    is one per detector configuration, in couplings product order, over its
    block's entries in sorted order and its discard cell, 1 - the builtin
    ``sum`` of the block's entries, at least 0.  Row i draws each in turn
    from ``generator(i)``.  A row whose ``errors`` entry is set draws no
    more, and a draw without probability mass sets it.
    """
    rows, n = table.values.shape
    width = len(table.slots[-1]) if config.uses_detectors else n
    order = [
        j for start in range(0, n, width)
        for j in sorted(range(start, start + width), key=table.outcomes.__getitem__)
    ]
    pvals = _clip(table.values[:, order], 0.0, 1.0).reshape(rows, -1, width)
    if config.uses_detectors:
        # each block's discard cell from its entries in table order; a block
        # holds two, so adding columns is the builtin sum on any Python
        discard = 1.0 - sum(table.values.reshape(rows, -1, width).transpose(2, 0, 1))
        pvals = np.concatenate([pvals, np.where(discard > 0.0, discard, 0.0)[..., None]], axis=2)
    totals = pvals.sum(axis=2)  # numpy's reduction per draw, as ``_frequencies`` totals one
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = pvals / totals[..., None]
    counts = np.zeros(pvals.shape, dtype=np.int64)
    shots = config.shots
    for i, (row_totals, row_weights, row_counts) in enumerate(zip(totals.tolist(), weights, counts)):
        if errors[i] is not None:
            continue
        for b, total in enumerate(row_totals):
            rng = generator(i)
            if total <= 0:
                errors[i] = _NO_MASS
                break
            row_counts[b] = rng.multinomial(shots, row_weights[b])
    freqs = (counts / config.shots)[..., :width].reshape(rows, n)
    return _TableColumns(table.slots, [table.outcomes[j] for j in order], freqs, config.shots)


class _ColumnRunner(_Runner):
    """One group of a row set: its scenarios, its walk and its one store.

    The rows share a batch signature, checks and moment source, so the first
    row's scenario settles every experiment's configuration.  Before its
    first experiment, a certification plans them all (``macrocert._plan``)
    and ``walk`` runs them in one ``_walk`` for every row at once, keeping
    each one's config and cleaned columns, or the error it met, which
    ``table`` raises for each experiment that asks; ``_ExperimentRunner``
    reads one row of them.  As the certifier of sweep rows, it is
    ``_ExperimentRunner`` for all of them at once: ``experiment`` returns
    the exact columns, or at finite shots every row's sampled table
    (``_sample_columns``), drawn once per key with each row's own child
    seeds in its own order, as each row's runner would draw them.  A row
    that fails keeps, in ``errors``, the first message it meets in execution
    order, and draws no more; an experiment it never asks for is walked but
    draws nothing.  ``certified`` keeps the group's
    ``macrocert._certify_columns`` result once a row has asked.  The group
    holds its scenarios, not the row set, except that ``rows`` is the row
    set while the group samples, so no reference cycle outlives a sweep.
    """

    def __init__(self, s: Scenario):
        super().__init__(s, _as_observable_list(s.observable, len(s.schedule)))
        self.scenarios = [s]
        # the entries of one row's kernel call over the whole schedule
        self.entries = math.prod(len(q.outcomes) for q in self.observables) * s.dimension**2
        self.errors: list[str | None] = []
        self.certified: list | None = None
        self.rows: _RowSet | None = None
        self._tables: dict[tuple, tuple[ProtocolConfig, _TableColumns]] = {}
        self._sampled: dict[str, _TableColumns] = {}
        self._draws: list[int] = []

    def start(self, rows: _RowSet) -> None:
        """Begin certifying the group's rows, which draw from ``rows``: no errors, no draws yet."""
        self.rows = rows
        self.errors = [None] * len(self.scenarios)
        self._draws = [0] * len(self.scenarios)
        self._sampled = {}

    def walk(self, requests: Iterable[tuple]) -> None:
        """Run every experiment of ``requests`` not run yet in one ``_walk`` for all rows.

        Each experiment keeps its config and cleaned columns, or the
        ``_Failure`` its planning or its path met, which ``table`` raises.
        """
        s = self.s
        configs: dict[tuple, ProtocolConfig] = {}
        paths: dict[tuple, list | _Failure] = {}
        for request in requests:
            if request in self._tables or request in paths:
                continue
            measured, mechanism, clean = request
            try:
                config = configs[request] = _experiment_config(s, measured, mechanism, clean)
                paths[request] = _path(s.initial_state, s.hamiltonian, self.observables, len(s.schedule),
                                       measured, config, not config.clumsiness.is_trivial)
            except ValidationError as exc:
                paths[request] = _Failure(exc)
        times = [r.schedule.times for r in self.scenarios]
        clumsiness = [r.config.clumsiness for r in self.scenarios]
        for request, leaf in _walk(s.initial_state, s.hamiltonian, times, clumsiness, paths).items():
            if not isinstance(leaf, _Failure):
                config = configs[request]
                leaf = (config, _table_columns(*leaf, self.observables, request[0], config))
            self._tables[request] = leaf

    def table(self, request: tuple) -> tuple[ProtocolConfig, _TableColumns]:
        """The config and cleaned columns of the experiment ``request`` = ``(measured, mechanism, clean)``.

        A request the group has not walked yet is walked on its own;
        experiments under different keys (a moment's and the NSIT pair's)
        may share one request.
        """
        entry = self._tables.get(request)
        if entry is None:
            self.walk([request])
            entry = self._tables[request]
        if isinstance(entry, _Failure):
            entry.throw()
        return entry

    def fail(self, errors: Iterable[str | None]) -> None:
        """Record each row's error unless it already has one."""
        self.errors = [old or new for old, new in zip(self.errors, errors)]

    def _generator(self, row: int) -> np.random.Generator:
        rng = self.rows.generator(self.scenarios[row].seed, self._draws[row])
        self._draws[row] += 1
        return rng

    def _run(self, key: str, request: tuple) -> _TableColumns:
        if not self.s.shots:
            _, table = self.table(request)
            self.fail(table.errors)
            return table
        if key not in self._sampled:
            if all(error is not None for error in self.errors):  # every row keeps the error it has
                raise ValidationError("no row of the group is still running")
            try:
                config, table = self.table(request)
            except ValidationError as exc:  # every row still running meets it
                self.fail([str(exc)] * len(self.errors))
                raise
            self._sampled[key] = _sample_columns(table, config, self.errors, self._generator)
        return self._sampled[key]


def _one_row(
    rho: DensityOperator,
    h: Hamiltonian,
    q: Observable | Sequence[Observable],
    schedule: Schedule,
    config: ProtocolConfig,
    seed: int = 0,
) -> _ExperimentRunner:
    """The runner of a one-row row set, on which the library entry points run their experiments."""
    scenario = Scenario(rho.dim, rho, h, q, schedule, config, (), config.shots, seed)
    return _ExperimentRunner(_RowSet([scenario]), 0)


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
    path = _path(rho, h, [q] * m, m, tuple(range(1, m + 1)), config, not config.clumsiness.is_trivial, True)
    outcomes, raw = _leaf(rho, h, [schedule.times], [config.clumsiness], path)
    # the kernel branched on every detector outcome: the branch whose prefix
    # is -couplings is this configuration's surviving run
    entries = dict(zip(outcomes, raw[0].tolist()))
    survivors = tuple(-c for c in couplings)
    probs = _clean_probs({survivors + (s,): entries[survivors + (s,)] for s in q.outcomes})
    partial = InrmPartial(
        tuple(tuple(q.outcomes) for _ in range(m)), couplings, probs, 1.0 - sum(probs.values())
    )
    if config.shots > 0:
        return _sample_partial(partial, config.shots, seed)
    return partial


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
        partial.probabilities, partial.discarded, shots, np.random.default_rng(seed)
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
    return OutcomeTable._built(slots, probs, table.kind, table.shots, slot_times)


_NO_MASS = "table has no probability mass to sample"


def _frequencies(pvals: Sequence[float], shots: int, rng: np.random.Generator) -> list[float]:
    """counts/shots of one multinomial draw over the weights ``pvals``, normalised to sum 1.

    The one sampling step of a single table: ``sample_counts`` and every
    INRM configuration draw through it, and ``_sample_columns`` draws every
    row's tables as it would.
    """
    pvals = np.array(pvals, dtype=float)
    total = pvals.sum()
    if total <= 0:
        raise ValidationError(_NO_MASS)
    return (rng.multinomial(shots, pvals / total) / shots).tolist()


def sample_counts(
    table: OutcomeTable, shots: int, seed: int | np.random.Generator
) -> OutcomeTable:
    """Multinomial finite-shot emulation; entries are exact rationals counts/shots.

    ``seed`` is an integer seed or a generator, drawn from through
    ``np.random.default_rng(seed)``, which uses a generator as it stands.
    """
    shots = _shot_count(shots)
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    return _sampled_table(
        table.slots, table.probabilities, shots, np.random.default_rng(seed), table.slot_times
    )


def _sampled_table(
    slots: tuple[tuple[int, ...], ...],
    probs: Mapping[tuple[int, ...], float],
    shots: int,
    rng: np.random.Generator,
    slot_times: tuple[int, ...] | None,
) -> OutcomeTable:
    """One multinomial draw over the entries ``probs``, each clamped to [0, 1], in sorted outcome order."""
    keys = sorted(probs)
    freqs = _frequencies([min(1.0, max(0.0, probs[k])) for k in keys], shots, rng)
    return OutcomeTable._built(slots, dict(zip(keys, freqs)), "empirical", shots, slot_times)


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

    These are the ``nsit:12`` and ``nsit:2`` tables of a certification of
    the same system with the NSIT check, byte for byte.  With
    ``config.shots > 0`` every sampled table draws its own child seed of
    ``seed`` (default 0) in execution order.  An INRM pair samples each
    detector configuration as its own multinomial, with its own discard cell
    and its own child seed, so with two times the pair takes children 0 and 1
    and the companion child 2; otherwise the pair takes child 0 and the
    companion child 1.
    """
    if not float(t1) < float(t2):
        raise ValidationError(f"need t1 < t2, got t1 = {t1}, t2 = {t2}")
    schedule = Schedule((float(t1), float(t2)))
    return _one_row(rho, h, q, schedule, config, seed if seed is not None else 0).nsit_pair()


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
        slots = tuple(_labels(slot, "slot") for slot in data["slots"])
        probs = {
            tuple(int(part) for part in key.split(",")): p
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
        outcome = []
        for c in cells[:arity]:
            try:
                outcome.append(int(c))
            except ValueError:
                raise ValidationError(f"CSV cell {c!r} in row {ln!r} is not an integer label") from None
        try:
            probs[tuple(outcome)] = float(cells[arity])
        except ValueError:
            raise ValidationError(f"CSV probability cell {cells[arity]!r} in row {ln!r} is not a number") from None
    slots = tuple(
        declared[i] or tuple(sorted({o[i] for o in probs}, reverse=True)) for i in range(arity)
    )
    return OutcomeTable(slots=slots, probabilities=probs, kind=kind, shots=shots, slot_times=slot_times)
