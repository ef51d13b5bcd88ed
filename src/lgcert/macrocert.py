"""Macrorealism certification.

Moments are extracted from measured outcome tables; the checks cover the
three-time and two-time Leggett-Garg inequalities, the four-time CHSH-type
forms, no-signaling-in-time (NSIT) defects and coherence witnesses,
quasi-probabilities and decoherence functionals, candidate joint probabilities
built from higher-order correlators, sequential-monotonicity conditions, the
Fine product ansatz for extending consistent three-time tables, and an exact
Fourier-Motzkin feasibility decision for partially specified moment sets.
``_certify`` runs a scenario's checks from one registry (minimum number of
times, moments read, evaluator) on the experiment runner of ``protocols``.
The elimination prunes redundant constraints with Chernikov's rules (Kohler's
ancestor-count criterion and minimal ancestor sets), so it decides n in {3, 4}
with any number of unfixed moments.

Margins are always reported as the left-hand side of the ">= 0" form of a
condition; in exact mode a margin counts as satisfied when it is at least
-VERDICT_TOL, while empirical margins are judged against three standard
errors propagated from the multinomial entry variances.  Sweep rows are
certified a group at a time (``_certify_columns``), from (R, N) arrays of
exact entries or of each row's sampled frequencies.

Both certifiers stay, each the faster on its own workload: ``_certify``
builds one row's report, ``_certify_columns`` a group's margins and
verdicts.  A one-row ``_certify_grouped`` took 2.55 ms against
``_certify``'s 1.87 ms exact and 3.59 against 2.28 ms at 10^4 shots (seed-1
certify benchmark scenarios, best of 7 rounds of 20 calls, shared 2-vCPU
host), a quarter or more of a whole certify op of about 3 ms.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass, field
from operator import mul, sub
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .qcore import (
    DensityOperator,
    DichotomicObservable,
    DimensionMismatchError,
    Hamiltonian,
    Observable,
    ValidationError,
    evolve_matrix,
    unitary_for,
)
from .protocols import (
    OutcomeTable,
    ScenarioError,
    Schedule,
    _clip,
    _ColumnRunner,
    _ExperimentRunner,
    _marginal_columns,
    _outcome_key,
    _row_sums,
    _Runner,
    _RowSet,
    _TableColumns,
    marginal_distribution,
)

__all__ = [
    "VERDICT_TOL",
    "MomentSet",
    "CandidateProbability",
    "ConditionResult",
    "InequalityReport",
    "WitnessReport",
    "InfeasibilityCertificate",
    "moment_keys",
    "moments_from_tables",
    "moments_from_single_table",
    "candidate_probability",
    "check_lg3",
    "check_lg2",
    "check_lg4",
    "check_nonnegativity",
    "check_nsit",
    "quasi_probability",
    "decoherence_functional",
    "check_appendix_identities",
    "check_monotonicity",
    "fine_extension",
    "feasible_completion",
]

VERDICT_TOL = 1e-10
IDENTITY_TOL = 1e-12


def moment_keys(n: int) -> list[tuple[int, ...]]:
    """All moment index tuples for n times: singles, pairs, ... up to the n-tuple."""
    keys: list[tuple[int, ...]] = []
    for order in range(1, n + 1):
        keys.extend(itertools.combinations(range(1, n + 1), order))
    return keys


# Each validation rule, each condition's formula with its variance, and the
# 3-standard-error gate has one owner, which both the scalar checks and the
# column evaluators of sweep rows call.  The formulas take moments and their
# variances (``var(key)``) as floats or as arrays with one entry per row, do
# the same IEEE operations in the same order on either, and return (id,
# margin, variance) triples; a builtin ``sum`` is ``total``, which the column
# evaluators take per row (``_row_total``).


def _moment_error(key: tuple[int, ...], v: float) -> str | None:
    """Why a moment value is invalid, or ``None``."""
    if not math.isfinite(v) or abs(v) > 1.0 + 1e-9:
        return f"moment {key} must lie in [-1, 1], got {v!r}"
    return None


def _candidate_sum_error(total: float) -> str | None:
    """Why candidate entries summing to ``total`` are invalid, or ``None``."""
    return f"candidate entries must sum to 1, got {total!r}" if abs(total - 1.0) > 1e-10 else None


def _require_dichotomic(key: tuple[int, ...], slots: Sequence[tuple[int, ...]]) -> None:
    for slot in slots:
        if set(slot) != {1, -1}:
            raise ValidationError(f"moment {key} needs dichotomic (+1/-1) outcome tables")


def _require_nsit_slots(marginal: tuple, reduced: tuple) -> None:
    """The marginalized full table of an NSIT witness must have the reduced table's slots."""
    if marginal != reduced:
        raise ValidationError(
            f"reduced table arity/labels {reduced} do not match the marginalized full table {marginal}"
        )


def _monotonicity_head(full: tuple, reduced: tuple) -> int:
    """How many leading slots of the full table a monotonicity check sums over, given both tables' slots."""
    k = len(full) - len(reduced)
    if k < 1:
        raise ValidationError("full table must have more slots than the reduced table")
    if full[k:] != reduced:
        raise ValidationError("reduced table must match the trailing slots of the full table")
    return k


def _signed_sum(entries: Iterable[tuple[tuple[int, ...], Any]]):
    """The sum of each entry times its outcome's sign product, added in the given order."""
    value = 0.0
    for outcome, p in entries:
        value = value + math.prod(outcome) * p
    return value


def _holds(margin, tol: float = VERDICT_TOL):
    """Whether a condition with this margin is satisfied; elementwise on arrays."""
    return margin >= -tol


def _invasive(max_abs, threshold: float = VERDICT_TOL):
    """Whether an exact NSIT witness with this largest defect shows invasiveness; elementwise on arrays."""
    return max_abs > threshold


def _tolerance(variance, exact: float = VERDICT_TOL):
    """The gate of an empirical quantity: three standard errors, or ``exact`` where the variance is 0.

    A margin holds when it is at least minus this; an NSIT defect, with
    ``exact`` 0.0, shows invasiveness when its size exceeds it.
    Elementwise on arrays.
    """
    if isinstance(variance, np.ndarray):
        return np.where(variance > 0.0, 3.0 * np.sqrt(variance), exact)
    return 3.0 * math.sqrt(variance) if variance > 0.0 else exact


def _row_total(terms: Sequence):
    """The builtin ``sum`` of the terms, taken per row when they are columns (an exact group's variances are 0.0)."""
    if isinstance(terms[0], float):
        return sum(terms)
    return np.array(_row_sums(np.stack(terms, axis=1)))


_LG3_COMBOS = ((1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1))
_LG2_PAIRS = ((1, 2), (2, 3), (1, 3))
_LG2_PATTERNS = ((1, 1), (-1, -1), (1, -1), (-1, 1))
_LG4_PAIRS = ((1, 2), (2, 3), (3, 4), (1, 4))


def _lg3_margins(c, var: Callable, total: Callable = sum) -> list[tuple[str, Any, Any]]:
    """The four three-time LG conditions from C12, C23 and C13, with the sum of their variances."""
    variance = total([var(key) for key in _LG2_PAIRS])
    return [
        (f"LG3-{idx}", 1.0 + a * c[(1, 2)] + b * c[(2, 3)] + d * c[(1, 3)], variance)
        for idx, (a, b, d) in enumerate(_LG3_COMBOS, start=1)
    ]


def _lg2_margins(m, var: Callable, i: int, j: int) -> list[tuple[str, Any, Any]]:
    """The four two-time LG conditions on times i < j, with v_i + v_j + v_ij."""
    variance = var((i,)) + var((j,)) + var((i, j))
    return [
        (f"LG2-{i}{j}-{idx}", 1.0 + si * m[(i,)] + sj * m[(j,)] + si * sj * m[(i, j)], variance)
        for idx, (si, sj) in enumerate(_LG2_PATTERNS, start=1)
    ]


def _lg4_margins(m, var: Callable, total: Callable = sum) -> list[tuple[str, Any, Any]]:
    """The eight four-time LG conditions, with the sum of the four correlators' variances."""
    variance = total([var(key) for key in _LG4_PAIRS])
    results = []
    for negated in _LG4_PAIRS:
        combo = total([(-1.0 if key == negated else 1.0) * m[key] for key in _LG4_PAIRS])
        for sign in (-1.0, 1.0):
            results.append((f"LG4-{len(results) + 1}", 2.0 + sign * combo, variance))
    return results


def _candidate_entries(m, var: Callable, n: int, total: Callable = sum) -> tuple[dict[tuple[int, ...], Any], Any]:
    """p(s) = 2^-n (1 + sum over index tuples of the moment times the sign product), per sign tuple.

    Also returns the variance every entry is given: the sum of the moments'
    variances over 4^n.
    """
    keys = moment_keys(n)
    moments = [m[key] for key in keys]
    values = {}
    # each sign tuple's row of sign products, as Fourier-Motzkin's initial constraints hold them
    for signs, row in zip(itertools.product((1, -1), repeat=n), _sign_rows(n)):
        acc = 1.0
        for sign, moment in zip(row, moments):
            acc = acc + sign * moment
        values[signs] = acc / (2**n)
    return values, total([var(key) for key in keys]) / (4**n)


def _monotonicity_order(outcomes: Iterable[tuple[int, ...]]) -> list[tuple[str, tuple[int, ...]]]:
    """The monotonicity conditions' ids and full-table outcomes, in descending outcome order."""
    return [(f"MONO-({_outcome_key(o)})", o) for o in sorted(outcomes, reverse=True)]


def _nonnegativity_margins(values: Mapping[tuple[int, ...], Any], variance) -> list[tuple[str, Any, Any]]:
    """One non-negativity condition per candidate entry, in descending sign order, each with ``variance``."""
    return [(f"NONNEG-({_outcome_key(signs)})", values[signs], variance) for signs in sorted(values, reverse=True)]


@dataclass(frozen=True)
class MomentSet:
    """Measured moments of a dichotomic variable at n times.

    ``values`` maps strictly increasing index tuples (1-based times) to the
    expectation of the product of Q at those times; absent keys are unfixed.
    ``variances`` carries the statistical variance of each fixed moment when
    it came from finite-shot tables (empty in exact mode).
    """

    n: int
    values: Mapping[tuple[int, ...], float]
    variances: Mapping[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self):
        n = int(self.n)
        if not 2 <= n <= 4:
            raise ValidationError(f"moment sets support 2 to 4 times, got n = {n}")
        values: dict[tuple[int, ...], float] = {}
        for key, v in dict(self.values).items():
            key = tuple(int(i) for i in key)
            if not key or any(i < 1 or i > n for i in key) or list(key) != sorted(set(key)):
                raise ValidationError(
                    f"moment index {key} must be strictly increasing within 1..{n}"
                )
            v = float(v)
            error = _moment_error(key, v)
            if error is not None:
                raise ValidationError(error)
            values[key] = v
        variances = {tuple(int(i) for i in k): float(w) for k, w in dict(self.variances).items()}
        unknown = set(variances) - set(values)
        if unknown:
            raise ValidationError(f"variances given for unfixed moments: {sorted(unknown)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variances", variances)

    @classmethod
    def _built(
        cls, n: int, values: dict[tuple[int, ...], float], variances: dict[tuple[int, ...], float]
    ) -> MomentSet:
        """A moment set the program builds from a validated one's entries, held as given and not checked again."""
        moments = object.__new__(cls)
        moments.__dict__.update(n=n, values=values, variances=variances)
        return moments

    def is_fixed(self, key: tuple[int, ...]) -> bool:
        return tuple(key) in self.values

    def __getitem__(self, key: tuple[int, ...]) -> float:
        try:
            return self.values[tuple(key)]
        except KeyError:
            raise ValidationError(f"moment {tuple(key)} is unfixed") from None

    def variance(self, key: tuple[int, ...]) -> float:
        return self.variances.get(tuple(key), 0.0)

    @property
    def is_empirical(self) -> bool:
        return bool(self.variances)

    def unfixed_keys(self) -> list[tuple[int, ...]]:
        return [k for k in moment_keys(self.n) if k not in self.values]


@dataclass(frozen=True)
class CandidateProbability:
    """Joint-probability candidate built from a complete moment set.

    Entries sum to 1 by construction but may be negative; a negative entry is
    exactly the macrorealism violation the non-negativity check reports.
    """

    n: int
    values: Mapping[tuple[int, ...], float]
    entry_variance: float = 0.0

    def __post_init__(self):
        n = int(self.n)
        values = {tuple(int(s) for s in k): float(v) for k, v in dict(self.values).items()}
        expected = set(itertools.product((1, -1), repeat=n))
        if set(values) != expected:
            raise ValidationError("candidate must cover every sign tuple")
        error = _candidate_sum_error(sum(values.values()))
        if error is not None:
            raise ValidationError(error)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    def __getitem__(self, signs: tuple[int, ...]) -> float:
        return self.values[tuple(signs)]

    def min_entry(self) -> float:
        return min(self.values.values())


@dataclass(frozen=True)
class ConditionResult:
    condition: str
    margin: float
    verdict: str
    stderr: float | None = None

    def to_json(self) -> dict:
        data = {"id": self.condition, "margin": self.margin, "verdict": self.verdict}
        if self.stderr is not None:
            data["stderr"] = self.stderr
        return data


@dataclass(frozen=True)
class InequalityReport:
    entries: tuple[ConditionResult, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(e.verdict == "satisfied" for e in self.entries)

    def violated(self) -> list[ConditionResult]:
        return [e for e in self.entries if e.verdict == "violated"]

    def margin(self, condition: str) -> float:
        for e in self.entries:
            if e.condition == condition:
                return e.margin
        raise KeyError(condition)

    def to_json(self) -> list[dict]:
        return [e.to_json() for e in self.entries]


@dataclass(frozen=True)
class WitnessReport:
    """Per-outcome NSIT defects W = reduced - marginalized, with a verdict."""

    condition: str
    defects: Mapping[tuple[int, ...], float]
    max_abs: float
    threshold: float
    verdict: str
    stderrs: Mapping[tuple[int, ...], float] | None = None

    def to_json(self) -> dict:
        data = {
            "id": self.condition,
            "defects": {_outcome_key(k): v for k, v in sorted(self.defects.items())},
            "max_abs": self.max_abs,
            "threshold": self.threshold,
            "verdict": self.verdict,
        }
        if self.stderrs is not None:
            data["stderrs"] = {_outcome_key(k): v for k, v in sorted(self.stderrs.items())}
        return data


def _result(condition: str, margin: float, variance: float) -> ConditionResult:
    stderr = math.sqrt(variance) if variance > 0.0 else None
    margin = float(margin)
    return ConditionResult(
        condition, margin, "satisfied" if _holds(margin, _tolerance(variance)) else "violated", stderr
    )


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def _moment_from_table(key: tuple[int, ...], table: OutcomeTable) -> tuple[float, float]:
    if table.arity != len(key):
        raise ValidationError(
            f"table for moment {key} must have {len(key)} slots, got {table.arity}"
        )
    _require_dichotomic(key, table.slots)
    variance = 0.0
    for outcome in table.probabilities:
        variance += table.entry_variance(outcome)
    return _signed_sum(table.probabilities.items()), variance


def moments_from_tables(
    tables: Mapping[tuple[int, ...], OutcomeTable]
    | Iterable[tuple[tuple[int, ...], OutcomeTable]],
    n: int | None = None,
) -> MomentSet:
    """Build a moment set, one experiment (table) per moment.

    ``tables`` maps each moment's index tuple to the outcome table of the
    experiment that measures exactly those times; the moment is the signed sum
    over that table and nothing else, so moments never share a source.
    Unsupplied moments stay unfixed.
    """
    if isinstance(tables, Mapping):
        items = list(tables.items())
    else:
        items = list(tables)
    seen: dict[tuple[int, ...], OutcomeTable] = {}
    for key, table in items:
        key = tuple(int(i) for i in key)
        if key in seen:
            raise ValidationError(f"duplicate source table for moment {key}")
        seen[key] = table
    if not seen:
        raise ValidationError("no tables supplied")
    inferred = max(max(k) for k in seen)
    n = int(n) if n is not None else max(inferred, 2)
    values: dict[tuple[int, ...], float] = {}
    variances: dict[tuple[int, ...], float] = {}
    empirical = False
    for key, table in seen.items():
        value, variance = _moment_from_table(key, table)
        values[key] = min(1.0, max(-1.0, value))
        if table.kind == "empirical":
            empirical = True
            variances[key] = variance
    return MomentSet(n=n, values=values, variances=variances if empirical else {})


def moments_from_single_table(table: OutcomeTable, n: int | None = None) -> MomentSet:
    """Derive every moment from one sequential table by marginalization.

    Comparison-study convenience; the certification default keeps one
    experiment per moment instead.
    """
    m = table.arity
    times = table.slot_times if table.slot_times is not None else tuple(range(1, m + 1))
    sources: dict[tuple[int, ...], OutcomeTable] = {}
    for order in range(1, m + 1):
        for positions in itertools.combinations(range(1, m + 1), order):
            key = tuple(times[p - 1] for p in positions)
            sources[key] = marginal_distribution(table, positions)
    return moments_from_tables(sources, n=n)


def candidate_probability(m: MomentSet) -> CandidateProbability:
    """p(s) = 2^-n (1 + sum over index tuples of the moment times the sign product).

    Requires every moment up to order n to be fixed; the result sums to 1
    identically and inverts the moment map exactly.
    """
    missing = m.unfixed_keys()
    if missing:
        raise ValidationError(f"candidate probability needs all moments fixed; missing {missing}")
    values, entry_variance = _candidate_entries(m, m.variance, m.n)
    return CandidateProbability(n=m.n, values=values, entry_variance=entry_variance)


# ---------------------------------------------------------------------------
# Leggett-Garg inequality checks
# ---------------------------------------------------------------------------

def check_lg3(m: MomentSet) -> InequalityReport:
    """The four three-time LG inequalities on C12, C23, C13."""
    c = {}
    for key in _LG2_PAIRS:
        if not m.is_fixed(key):
            raise ValidationError(f"three-time LG check needs correlator C{key[0]}{key[1]}")
        c[key] = m[key]
    return InequalityReport(tuple(_result(*result) for result in _lg3_margins(c, m.variance)))


def check_lg2(m: MomentSet) -> InequalityReport:
    """The twelve two-time LG inequalities over the pairs (1,2), (2,3), (1,3)."""
    needed = [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3)]
    for key in needed:
        if not m.is_fixed(key):
            raise ValidationError(f"two-time LG check needs moment {key}")
    return InequalityReport(
        tuple(_result(*result) for i, j in _LG2_PAIRS for result in _lg2_margins(m, m.variance, i, j))
    )


def check_lg4(m: MomentSet) -> InequalityReport:
    """The eight four-time CHSH-type LG inequalities on C12, C23, C34, C14."""
    for key in _LG4_PAIRS:
        if not m.is_fixed(key):
            raise ValidationError(f"four-time LG check needs correlator C{key[0]}{key[1]}")
    return InequalityReport(tuple(_result(*result) for result in _lg4_margins(m, m.variance)))


def check_nonnegativity(c: CandidateProbability) -> InequalityReport:
    """One margin per sign tuple: the candidate entry itself."""
    return InequalityReport(
        tuple(_result(*result) for result in _nonnegativity_margins(c.values, c.entry_variance))
    )


# ---------------------------------------------------------------------------
# NSIT witnesses and monotonicity
# ---------------------------------------------------------------------------


def check_nsit(
    full: OutcomeTable,
    reduced: OutcomeTable,
    marginalize_over: Sequence[int],
    threshold: float = VERDICT_TOL,
    condition: str | None = None,
) -> WitnessReport:
    """Coherence-witness defects W(outcome) = reduced - sum over marginalized slots.

    ``marginalize_over`` lists the 1-based slot positions of ``full`` to sum
    out; the remaining slots must match ``reduced``.  With empirical tables
    the verdict threshold is three propagated standard errors per outcome.
    """
    marg_over = sorted(set(int(i) for i in marginalize_over))
    if any(i < 1 or i > full.arity for i in marg_over):
        raise ValidationError(f"marginalize_over positions must lie in 1..{full.arity}")
    keep = [i for i in range(1, full.arity + 1) if i not in marg_over]
    if not keep:
        raise ValidationError("cannot marginalize every slot of the full table")
    marg = marginal_distribution(full, keep)
    _require_nsit_slots(marg.slots, reduced.slots)
    empirical = full.kind == "empirical" or reduced.kind == "empirical"
    defects: dict[tuple[int, ...], float] = {}
    variances: dict[tuple[int, ...], float] = {}
    for outcome in marg.probabilities:
        defects[outcome] = reduced.raw(outcome) - marg.raw(outcome)
        if empirical:
            variances[outcome] = reduced.entry_variance(outcome) + sum(
                full.entry_variance(o)
                for o in full.probabilities
                if tuple(o[i - 1] for i in keep) == outcome
            )
    max_abs = max(abs(w) for w in defects.values())
    if empirical:
        invasive = any(_invasive(abs(w), _tolerance(variances[o], 0.0)) for o, w in defects.items())
    else:
        invasive = _invasive(max_abs, threshold)
    if condition is None:
        if full.slot_times and reduced.slot_times:
            condition = "NSIT-({};{})".format(
                "".join(str(i) for i in reduced.slot_times),
                "".join(str(i) for i in full.slot_times),
            )
        else:
            condition = "NSIT-({};{})".format(
                "".join(str(i) for i in keep), "".join(str(i) for i in range(1, full.arity + 1))
            )
    return WitnessReport(
        condition=condition,
        defects=defects,
        max_abs=max_abs,
        threshold=threshold,
        verdict="invasive" if invasive else "non-invasive",
        stderrs={o: math.sqrt(v) for o, v in variances.items()} if empirical else None,
    )


def check_monotonicity(full: OutcomeTable, reduced: OutcomeTable) -> InequalityReport:
    """Margins reduced(tail) - full(head, tail) for every head extension.

    ``reduced`` must cover the trailing slots of ``full``; a macrorealist
    expects every sequential probability to be dominated by the later-times
    probability measured on its own.
    """
    k = _monotonicity_head(full.slots, reduced.slots)
    entries = []
    for name, outcome in _monotonicity_order(full.probabilities):
        tail = outcome[k:]
        margin = reduced.raw(tail) - full.raw(outcome)
        variance = reduced.entry_variance(tail) + full.entry_variance(outcome)
        entries.append(_result(name, margin, variance))
    return InequalityReport(tuple(entries))


# ---------------------------------------------------------------------------
# Quasi-probability, decoherence functional, two-time identities
# ---------------------------------------------------------------------------


def _heisenberg_stack(q: Observable, h: Hamiltonian, t: float) -> np.ndarray:
    """The (N, d, d) stack of Heisenberg projectors P_s(t), in ``q.outcomes`` order."""
    u = unitary_for(h, t)
    return u.conj().T @ q.projector_stack @ u


def _heisenberg_projectors(
    q: Observable, h: Hamiltonian, t: float
) -> dict[int, np.ndarray]:
    return dict(zip(q.outcomes, _heisenberg_stack(q, h, t)))


def quasi_probability(
    rho: DensityOperator,
    h: Hamiltonian,
    q: Observable,
    schedule: Schedule | Sequence[float],
) -> dict[tuple[int, ...], float]:
    """q(s_1..s_n) = Re Tr(P_{s_n}(t_n) .. P_{s_1}(t_1) rho).

    Sums to 1, marginalizes over the first slot to the shorter
    quasi-probability exactly (formal NSIT), and can be negative.
    """
    times = schedule.times if isinstance(schedule, Schedule) else Schedule(tuple(schedule)).times
    if len(times) < 2:
        raise ValidationError("quasi-probability needs at least two times")
    if q.dim != rho.dim or h.dim != rho.dim:
        raise DimensionMismatchError("state, Hamiltonian and observable dimensions must agree")
    projs = [_heisenberg_projectors(q, h, t) for t in times]
    out: dict[tuple[int, ...], float] = {}

    def _descend(prefix: tuple[int, ...], mat: np.ndarray, level: int) -> None:
        if level == len(times):
            out[prefix] = float(np.real(np.trace(mat)))
            return
        for s in q.outcomes:
            _descend(prefix + (s,), projs[level][s] @ mat, level + 1)

    _descend((), rho.matrix, 0)
    return out


def decoherence_functional(
    rho: DensityOperator,
    h: Hamiltonian,
    q: Observable,
    t1: float,
    t2: float,
    s1: int,
    s1_prime: int,
    s2: int,
) -> complex:
    """D(s1, s2 | s1', s2) = Tr(P_{s2}(t2) P_{s1}(t1) rho P_{s1'}(t1)).

    Off-diagonal components (s1 != s1') measure interference between the two
    histories; the diagonal ones are the sequential probabilities.
    """
    if not float(t1) < float(t2):
        raise ValidationError(f"need t1 < t2, got t1 = {t1}, t2 = {t2}")
    if q.dim != rho.dim or h.dim != rho.dim:
        raise DimensionMismatchError("state, Hamiltonian and observable dimensions must agree")
    p1 = _heisenberg_projectors(q, h, t1)
    p2 = _heisenberg_projectors(q, h, t2)
    return complex(np.trace(p2[s2] @ p1[s1] @ rho.matrix @ p1[s1_prime]))


def check_appendix_identities(
    rho: DensityOperator,
    h: Hamiltonian,
    q: DichotomicObservable,
    t1: float,
    t2: float,
) -> InequalityReport:
    """Exact two-time identities tying p12, the quasi-probability and the witness.

    Entries:
      A-DECOMP-(s1,s2): -(residual of p12 = q - W/2), an identity check;
      A-WBOUND-(s2):    2 min_s1 p12(s1,s2) - |W(s2)|, emitted only when all
                        quasi-probabilities are non-negative and W(s2) < 0;
      A-MONO-(s1,s2):   p2(s2) - p12(s1,s2), the sequential-monotonicity margin;
      A-MONO-EQUIV-(s1,s2): -(residual of the equivalence between that margin
                        and p12(-s1,s2) + W(s2)).
    """
    if not isinstance(q, DichotomicObservable):
        raise ValidationError("the two-time identities are stated for a dichotomic observable")
    if not float(t1) < float(t2):
        raise ValidationError(f"need t1 < t2, got t1 = {t1}, t2 = {t2}")
    p1 = _heisenberg_stack(q, h, t1)
    p2 = _heisenberg_stack(q, h, t2)
    r = rho.matrix
    # every (s2, s1) pair at once, each product associated as P2 P1 rho, then (P2 P1 rho) P1
    x = p2[:, None] @ p1[None] @ r
    traces = np.trace(x, axis1=-2, axis2=-1).real.tolist()
    sequential = np.trace(x @ p1[None], axis1=-2, axis2=-1).real.tolist()
    signs = list(enumerate(q.outcomes))  # (0, 1), (1, -1)
    p12 = {(s1, s2): sequential[j][i] for i, s1 in signs for j, s2 in signs}
    quasi = {(s1, s2): traces[j][i] for i, s1 in signs for j, s2 in signs}
    alone = np.trace(p2 @ r, axis1=-2, axis2=-1).real.tolist()
    p2_alone = {s2: alone[j] for j, s2 in signs}
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


# ---------------------------------------------------------------------------
# Certification: the check registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Block:
    """One check's results for every row of a group, as ``_certify_columns`` returns them.

    Per row: the result ids, their margins (or witness ``max_abs``), and
    whether every one is satisfied (or non-invasive).
    """

    ids: Sequence[Sequence[str]]
    values: Sequence[Sequence[float]]
    satisfied: Sequence[bool]
    witness: bool = False


def _condition_block(ids: list[str], margins: np.ndarray, variances: np.ndarray) -> _Block:
    """Conditions with shared ids from (R, K) margin and variance arrays, judged as ``_result`` judges them."""
    satisfied = _holds(margins, _tolerance(variances)).all(axis=1)
    return _Block([ids] * len(margins), margins.tolist(), satisfied.tolist())


def _margin_block(results: Sequence[tuple[str, np.ndarray, np.ndarray]]) -> _Block:
    """``_condition_block`` of (id, margin column, variance column or 0.0) triples."""
    ids, margins, variances = zip(*results)
    return _condition_block(list(ids), np.stack(margins, axis=1), np.array(variances).T)


def _witness_block(ids: list[str], witnesses: Sequence[tuple[np.ndarray, np.ndarray | None]]) -> _Block:
    """NSIT witnesses from their (R, K) defects and variances (``None`` if exact), judged as ``check_nsit`` does."""
    sizes = [(np.abs(defects), variances) for defects, variances in witnesses]
    max_abs = np.stack([size.max(axis=1) for size, _ in sizes], axis=1)
    invasive = [_invasive(size.max(axis=1)) if variances is None else
                _invasive(size, _tolerance(variances, 0.0)).any(axis=1) for size, variances in sizes]
    return _Block([ids] * len(max_abs), max_abs.tolist(), (~np.stack(invasive, axis=1).any(axis=1)).tolist(), True)


# A group's moments: per key, every row's value and every row's variance (0.0 if exact).
_Moments = tuple[dict[tuple[int, ...], np.ndarray], dict[tuple[int, ...], Any]]


@dataclass(frozen=True)
class _Check:
    """One check: minimum times, moments read, its evaluators and its own experiments.

    ``evaluate`` runs the further experiments it needs on one row's runner
    and returns its results; ``columns`` does the same for a group of rows
    on a ``_ColumnRunner``, with moments and variances as one array per
    key, and returns one ``_Block``.  ``experiments`` is the function both
    of them ask those experiments through; on a bare ``_Runner`` it plans
    them (``_plan``).
    """

    min_times: int
    moments: tuple[tuple[int, ...], ...]
    evaluate: Callable[[_ExperimentRunner, MomentSet | None], Sequence[ConditionResult | WitnessReport]]
    columns: Callable[[_ColumnRunner, _Moments | None], _Block]
    experiments: Callable[[_Runner], Any] = lambda runner: None


def _nonnegativity(m: MomentSet, n: int) -> tuple[ConditionResult, ...]:
    sub = MomentSet._built(
        n=n,
        values={k: v for k, v in m.values.items() if max(k) <= n},
        variances={k: v for k, v in m.variances.items() if max(k) <= n},
    )
    return check_nonnegativity(candidate_probability(sub)).entries


def _nsit3_witnesses(runner) -> list[tuple[str, object, object, tuple[int, ...]]]:
    """The NSIT3 witnesses' (id, full table, reduced table, slots of the full table summed out)."""
    # Complete three-time set: the full run keeps its clumsiness, the
    # reduced reference runs are clean, and the blind mechanism sits at
    # every detector time that is not read out (plus the detector times
    # of the full run, where it is harmless).
    use_mech = runner.s.config.uses_mechanism
    p123 = runner.experiment((1, 2, 3), mechanism=(1, 2) if use_mech else ())
    p23 = runner.experiment((2, 3), mechanism=(1,) if use_mech else (), clean=True)
    p13 = runner.experiment((1, 3), mechanism=(2,) if use_mech else (), clean=True)
    p3 = runner.experiment((3,), mechanism=(1, 2) if use_mech else (), clean=True)
    return [
        ("NSIT-(3;23)", p23, p3, (1,)),
        ("NSIT-(13;123)", p123, p13, (2,)),
        ("NSIT-(23;123)", p123, p23, (1,)),
    ]


def _nsit3(runner: _ExperimentRunner, m: MomentSet | None) -> list[WitnessReport]:
    return [
        check_nsit(full, reduced, over, condition=name)
        for name, full, reduced, over in _nsit3_witnesses(runner)
    ]


def _appendix_entries(s) -> tuple[ConditionResult, ...]:
    return check_appendix_identities(
        s.initial_state, s.hamiltonian, s.observable, s.schedule[0], s.schedule[1]
    ).entries


# Column evaluators: each check of one row's certification for every row of a
# group, exact or sampled, with the scalar code's operations in its order.


def _lg3_columns(runner: _ColumnRunner, moments: _Moments) -> _Block:
    m, v = moments
    return _margin_block(_lg3_margins(m, v.__getitem__, _row_total))


def _lg2_columns(runner: _ColumnRunner, moments: _Moments) -> _Block:
    m, v = moments
    return _margin_block([result for i, j in _LG2_PAIRS for result in _lg2_margins(m, v.__getitem__, i, j)])


def _lg4_columns(runner: _ColumnRunner, moments: _Moments) -> _Block:
    m, v = moments
    return _margin_block(_lg4_margins(m, v.__getitem__, _row_total))


def _nonnegativity_columns(runner: _ColumnRunner, moments: _Moments, n: int) -> _Block:
    """``_nonnegativity``: the candidate entries, their sum check, then one margin per entry."""
    m, v = moments
    entries, variance = _candidate_entries(m, v.__getitem__, n, _row_total)
    runner.fail(_candidate_sum_error(total) for total in _row_sums(np.stack(list(entries.values()), axis=1)))
    return _margin_block(_nonnegativity_margins(entries, variance))


def _nsit_columns(
    runner: _ColumnRunner, full: _TableColumns, reduced: _TableColumns, marginalize_over: Sequence[int]
) -> tuple[np.ndarray, np.ndarray | None]:
    """``check_nsit``'s defects for every row, and their variances if the tables are sampled."""
    keep = [i for i in range(1, len(full.slots) + 1) if i not in marginalize_over]
    marg = _marginal_columns(full, keep)
    runner.fail(marg.errors)
    _require_nsit_slots(marg.slots, reduced.slots)
    columns = reduced.columns(marg.outcomes)
    defects = reduced.values[:, columns] - marg.values
    if not (full.shots or reduced.shots):
        return defects, None
    # per reduced outcome, its full entries' variances in table order, added by a builtin sum as
    # check_nsit adds them (compensated from Python 3.12, so a column sum from 0.0 would not match)
    sources = [[j for j, o in enumerate(full.outcomes) if tuple(o[i - 1] for i in keep) == r]
               for r in marg.outcomes]
    summed = np.stack([_row_total(list(full.variances[:, s].T)) for s in sources], axis=1)
    return defects, reduced.variances[:, columns] + summed


def _monotonicity_columns(runner: _ColumnRunner, moments) -> _Block:
    """``check_monotonicity`` on the NSIT pair, for every row."""
    full, reduced = runner.nsit_pair()
    k = _monotonicity_head(full.slots, reduced.slots)
    ids, order = zip(*_monotonicity_order(full.outcomes))
    tails, heads = reduced.columns(o[k:] for o in order), full.columns(order)
    margins = reduced.values[:, tails] - full.values[:, heads]
    return _condition_block(list(ids), margins, reduced.variances[:, tails] + full.variances[:, heads])


def _nsit2_columns(runner: _ColumnRunner, moments) -> _Block:
    return _witness_block(["NSIT-(2;12)"], [_nsit_columns(runner, *runner.nsit_pair(), (1,))])


def _nsit3_columns(runner: _ColumnRunner, moments) -> _Block:
    witnesses = _nsit3_witnesses(runner)
    return _witness_block(
        [name for name, *_ in witnesses],
        [_nsit_columns(runner, full, reduced, over) for _, full, reduced, over in witnesses],
    )


def _appendix_columns(runner: _ColumnRunner, moments) -> _Block:
    """The two-time identities stay one independent matrix computation per row."""
    ids, values, satisfied = [], [], []
    for i, s in enumerate(runner.scenarios):
        entries: tuple[ConditionResult, ...] = ()
        if runner.errors[i] is None:
            try:
                entries = _appendix_entries(s)
            except ValidationError as exc:
                runner.errors[i] = str(exc)
        ids.append([e.condition for e in entries])
        values.append([e.margin for e in entries])
        satisfied.append(all(e.verdict == "satisfied" for e in entries))
    return _Block(ids, values, satisfied)


_CHECKS = {
    "LG2": _Check(
        3, ((1,), (2,), (3,), (1, 2), (2, 3), (1, 3)), lambda r, m: check_lg2(m).entries, _lg2_columns
    ),
    "LG3": _Check(3, ((1, 2), (2, 3), (1, 3)), lambda r, m: check_lg3(m).entries, _lg3_columns),
    "LG4": _Check(4, ((1, 2), (2, 3), (3, 4), (1, 4)), lambda r, m: check_lg4(m).entries, _lg4_columns),
    "NSIT": _Check(
        2, (), lambda r, m: [check_nsit(*r.nsit_pair(), (1,), condition="NSIT-(2;12)")], _nsit2_columns,
        _Runner.nsit_pair,
    ),
    "NSIT3": _Check(3, (), _nsit3, _nsit3_columns, _nsit3_witnesses),
    "NONNEG3": _Check(
        3, ((1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3)), lambda r, m: _nonnegativity(m, 3),
        lambda r, m: _nonnegativity_columns(r, m, 3),
    ),
    "NONNEG4": _Check(
        4, tuple(moment_keys(4)), lambda r, m: _nonnegativity(m, 4),
        lambda r, m: _nonnegativity_columns(r, m, 4),
    ),
    "MONO": _Check(2, (), lambda r, m: check_monotonicity(*r.nsit_pair()).entries, _monotonicity_columns,
                   _Runner.nsit_pair),
    "APPENDIX": _Check(2, (), lambda r, m: _appendix_entries(r.s), _appendix_columns),
}


def _require_times(s) -> None:
    """Every check of ``s`` has the schedule times it needs."""
    n_times = len(s.schedule)
    for name in s.checks:
        check = _CHECKS[name]
        if n_times < check.min_times:
            detail = f" (missing experiments at times {list(check.moments)})" if check.moments else ""
            raise ScenarioError(
                f"checks: {name} needs at least {check.min_times} schedule times, got {n_times}{detail}"
            )


def _moment_times(s) -> list[tuple[int, ...]]:
    return sorted({times for name in s.checks for times in _CHECKS[name].moments})


def _moment_experiments(runner: _Runner, moment_times: list[tuple[int, ...]]) -> dict[tuple[int, ...], Any]:
    """The experiments the moments are read from, by their times: the top one alone if derived."""
    if runner.s.derive_lower_moments:
        top = tuple(range(1, max(max(t) for t in moment_times) + 1))
        return {top: runner.experiment(top)}
    return {times: runner.experiment(times) for times in moment_times}


def _plan(runner: _Runner) -> list[tuple]:
    """The requests of every experiment a certification of ``runner.s`` runs, in its order, asked of a bare runner.

    The plan stops at an error, which the certification meets at the same experiment.
    """
    recorder = _Runner(runner.s, runner.observables)
    with contextlib.suppress(ValidationError):
        moment_times = _moment_times(runner.s)
        if moment_times:
            _moment_experiments(recorder, moment_times)
        for name in runner.s.checks:
            _CHECKS[name].experiments(recorder)
    return recorder.requests


def _certify(
    rows: _RowSet, row: int
) -> tuple[dict[str, OutcomeTable], MomentSet | None, list[ConditionResult], list[WitnessReport]]:
    """Run every experiment one row's checks require; return tables, moments, conditions, witnesses.

    Every moment is measured first, in index order, then each check runs in
    the scenario's order; that is the order in which sampled experiments
    draw their child seeds.
    """
    runner = _ExperimentRunner(rows, row)
    s = runner.s
    n_times = len(s.schedule)
    _require_times(s)
    runner.group.walk(_plan(runner))

    moment_times = _moment_times(s)
    moments: MomentSet | None = None
    if moment_times:
        sources = _moment_experiments(runner, moment_times)
        if s.derive_lower_moments:
            moments = moments_from_single_table(*sources.values())
        else:
            moments = moments_from_tables(sources, n=min(n_times, 4))

    conditions: list[ConditionResult] = []
    witnesses: list[WitnessReport] = []
    for name in s.checks:
        for result in _CHECKS[name].evaluate(runner, moments):
            (witnesses if isinstance(result, WitnessReport) else conditions).append(result)
    return runner.tables, moments, conditions, witnesses


def _moment_column(key: tuple[int, ...], table: _TableColumns) -> tuple[np.ndarray, np.ndarray]:
    """``_moment_from_table``'s clamped value and variance for every row, each added up in table order."""
    _require_dichotomic(key, table.slots)
    value = _clip(_signed_sum(zip(table.outcomes, table.values.T)), -1.0, 1.0)
    return value, sum(table.variances.T, 0.0) if table.shots else 0.0


def _moment_columns(runner: _ColumnRunner, moment_times: list[tuple[int, ...]]) -> _Moments | None:
    """The moments of ``_certify`` and their variances for every row."""
    if not moment_times:
        return None
    sources = _moment_experiments(runner, moment_times)
    if runner.s.derive_lower_moments:
        (top, table), = sources.items()
        sources = {}
        for order in range(1, len(top) + 1):
            for positions in itertools.combinations(top, order):
                sources[positions] = _marginal_columns(table, positions)
                runner.fail(sources[positions].errors)
    columns = {key: _moment_column(key, table) for key, table in sources.items()}
    return {key: value for key, (value, _) in columns.items()}, {key: v for key, (_, v) in columns.items()}


def _certify_columns(runner: _ColumnRunner, rows: _RowSet) -> list[str | tuple[dict[str, float], bool]]:
    """``_certify`` for every row of a group, all at once.

    Returns, per row of the group, its margins (condition ids, then witness
    ids, as a sweep row lists them) and whether every check holds, or the
    message of its error.  The experiments, validations and checks run in
    ``_certify``'s order, each once for the group; at finite shots each row
    draws its own multinomials from ``rows``, in its own certification's
    order, into one frequency array per experiment.  Every entry, moment,
    variance and margin is accumulated column by column in the scalar
    code's order, so each row's margins and verdicts are its own
    certification's, bit for bit.  An error the group's shared configuration
    raises is every remaining row's.
    """
    s = runner.s
    runner.start(rows)
    blocks: list[_Block] = []
    try:
        _require_times(s)
        runner.walk(_plan(runner))
        moments = _moment_columns(runner, _moment_times(s))
        blocks = [_CHECKS[name].columns(runner, moments) for name in s.checks]
    except ValidationError as exc:
        runner.fail([str(exc)] * len(runner.scenarios))
    finally:
        runner.rows = None
    blocks = [b for b in blocks if not b.witness] + [b for b in blocks if b.witness]
    results: list[str | tuple[dict[str, float], bool]] = []
    for i, error in enumerate(runner.errors):
        if error is not None:
            results.append(error)
            continue
        margins: dict[str, float] = {}
        for block in blocks:
            margins.update(zip(block.ids[i], block.values[i]))
        results.append((margins, all(block.satisfied[i] for block in blocks)))
    return results


def _certify_grouped(rows: _RowSet, row: int) -> tuple[dict[str, float], bool]:
    """One row's margins and whether every check holds, from its group's ``_certify_columns``.

    The first row of a group to ask certifies the whole group, and the group
    keeps the result; a row's error is raised as a ``ValidationError`` with
    its message.
    """
    group, index = rows.group(row)
    if group.certified is None:
        group.certified = _certify_columns(group, rows)
    result = group.certified[index]
    if isinstance(result, str):
        raise ValidationError(result)
    return result


# ---------------------------------------------------------------------------
# Fine product extension
# ---------------------------------------------------------------------------


def fine_extension(p123: OutcomeTable, p124: OutcomeTable) -> OutcomeTable:
    """Combine two three-time tables sharing their first two times.

    Returns the product ansatz p(s1,s2,s3,s4) = p123 * p124 / p12, defined as
    0 whenever the shared marginal p12 vanishes (both numerators are its
    marginals and vanish with it).  The output is non-negative, normalized,
    and marginalizes back to both inputs.
    """
    for name, table in (("p123", p123), ("p124", p124)):
        if table.arity != 3:
            raise ValidationError(f"{name} must have three slots")
        for outcome, p in table.probabilities.items():
            if p < -1e-12:
                raise ValidationError(f"{name} has a negative entry at {outcome}")
        if abs(table.total() - 1.0) > 1e-10:
            raise ValidationError(f"{name} must be normalized")
    if p123.slots[:2] != p124.slots[:2]:
        raise ValidationError("the two tables must share their first two slots")
    m123 = marginal_distribution(p123, (1, 2))
    m124 = marginal_distribution(p124, (1, 2))
    mismatch = max(
        abs(m123.raw(o) - m124.raw(o)) for o in m123.probabilities
    )
    if mismatch > 1e-10 + (0.0 if p123.kind == "exact" and p124.kind == "exact" else 1e-2):
        raise ValidationError(
            f"tables disagree on the shared two-time marginal (max defect {mismatch:.3e})"
        )
    shared = {o: 0.5 * (m123.raw(o) + m124.raw(o)) for o in m123.probabilities}

    probs: dict[tuple[int, ...], float] = {}
    for (s1, s2, s3), pa in p123.probabilities.items():
        for (t1, t2, s4), pb in p124.probabilities.items():
            if (t1, t2) != (s1, s2):
                continue
            denom = shared[(s1, s2)]
            probs[(s1, s2, s3, s4)] = (pa * pb / denom) if denom > 0.0 else 0.0
    slot_times = None
    if p123.slot_times and p124.slot_times and p123.slot_times[:2] == p124.slot_times[:2]:
        slot_times = p123.slot_times + (p124.slot_times[2],)
    kind = "exact" if p123.kind == "exact" and p124.kind == "exact" else "empirical"
    total = sum(probs.values())
    if abs(total - 1.0) > 1e-10 and kind == "exact":
        raise ValidationError(f"extension failed to normalize (sum {total!r})")
    return OutcomeTable(
        slots=p123.slots + (p124.slots[2],),
        probabilities=probs,
        kind=kind,
        shots=p123.shots if p123.shots == p124.shots else None,
        slot_times=slot_times,
    )


# ---------------------------------------------------------------------------
# Feasibility of partially specified moment sets (Fourier-Motzkin)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Contradictory derived bounds proving no completion exists.

    When attributable to a single eliminated moment, ``variable`` names it and
    ``lower > upper`` are the crossing constant bounds; otherwise the
    contradiction surfaced as a constant inequality with negative slack.
    """

    variable: tuple[int, ...] | None
    lower: float | None
    upper: float | None
    violated_constant: float | None = None

    def to_json(self) -> dict:
        return {
            "variable": list(self.variable) if self.variable else None,
            "lower": self.lower,
            "upper": self.upper,
            "violated_constant": self.violated_constant,
        }


_FM_SLACK = 1e-10


@functools.cache
def _moment_index(n: int) -> dict[tuple[int, ...], int]:
    # Each moment key's column, in moment_keys order; shared by every call, never mutated.
    return {key: i for i, key in enumerate(moment_keys(n))}


def _elimination_order(m: MomentSet) -> list[tuple[int, ...]]:
    # E first, then third-order lexicographic, then pairs, then averages.
    given = m.values
    return sorted([k for k in _moment_index(m.n) if k not in given], key=lambda key: (-len(key), key))


@functools.cache
def _sign_rows(n: int) -> tuple[tuple[float, ...], ...]:
    # Per initial constraint "candidate entry >= 0": each moment's sign, in moment_keys order.
    outcomes = itertools.product((1, -1), repeat=n)
    return tuple(tuple(float(math.prod(s[i - 1] for i in k)) for k in moment_keys(n)) for s in outcomes)


# round(v, 12) per coefficient value, zeros of either sign as None.  The
# coefficients come from the +-1 sign rows, not from the moments, so a few
# values recur across every call; the cap only guards against unbounded growth.
_ROUNDED: dict[float, float | None] = {}
_ROUNDED_CAP = 4096


def _rounded(v: float) -> float | None:
    if len(_ROUNDED) >= _ROUNDED_CAP:
        _ROUNDED.clear()
    _ROUNDED[v] = None if v == 0.0 else round(v, 12)
    return _ROUNDED[v]


def _reduce(constraints):
    # Constraints sharing a coefficient signature (zeros of either sign absent,
    # one rounding to 0.0 present) are ordered by their constants; the smallest
    # implies the others, so keep it, or between equals the fewest ancestors.
    best: dict[tuple, tuple[list[float], float, int, int]] = {}
    rounded = _ROUNDED
    for constraint in constraints:
        coeffs, const, _, count = constraint
        try:
            key = tuple([rounded[v] for v in coeffs])
        except KeyError:
            key = tuple([_rounded(v) for v in coeffs])
        kept = best.get(key)
        if kept is None or const < kept[1] or (const == kept[1] and count < kept[3]):
            best[key] = constraint
    return list(best.values())


def _minimal_ancestors(constraints):
    # Chernikov: a constraint whose ancestor set strictly contains another's
    # is a positive combination of others, hence redundant.  In bit-count
    # order only masks with fewer bits can be strict subsets.
    kept, smaller, level = [], [], []
    count = 0
    for constraint in sorted(constraints, key=lambda c: c[3]):
        anc = constraint[2]
        if constraint[3] != count:
            count = constraint[3]
            smaller += level
            level = []
        for k in smaller:
            if k & anc == k:
                break
        else:
            kept.append(constraint)
            level.append(anc)
    return kept


def feasible_completion(m: MomentSet):
    """Decide whether the unfixed moments admit a non-negative candidate.

    Runs Fourier-Motzkin elimination of the unfixed moments from the 2^n
    constraints "candidate entry >= 0" (scaled by 2^n; every initial
    coefficient is +-1, so the elimination is exact up to float rounding,
    judged with a 1e-10 slack).  A constraint is ``(coeffs, const, ancestors,
    count)``: a dense list of coefficients over the moments not yet
    eliminated, in elimination order, its constant, an int bitmask whose bit
    i is initial constraint i, and that mask's bit count.  Two Chernikov
    rules drop redundant constraints without changing the projected set:
    after the t-th elimination a constraint with more than t + 1 ancestors is
    skipped before it is built (Kohler's criterion), and one whose ancestor
    mask strictly contains another surviving constraint's is dropped.  Stages
    stay at a few hundred constraints: the benchmark's sets (n=3 with 1-7, n=4
    with 1-5 unfixed) take 0.086 ms at the median and 0.16 ms at the 90th
    percentile, n=4 with 6-15 unfixed 0.7-2.3 ms.

    Returns ``(True, assignment)`` where the assignment takes the midpoint of
    each back-substituted interval, or ``(False, certificate)`` with a pair of
    contradictory derived bounds.  Both certificate kinds prove infeasibility.
    Pruning can turn one kind into the other: a set that the unpruned
    elimination refuted with a violated constant may now get a certificate
    attributed to an eliminated moment.
    """
    if m.n not in (3, 4):
        raise ValidationError(f"feasibility completion supports n in {{3, 4}}, got n = {m.n}")
    unfixed = _elimination_order(m)
    if not unfixed:
        raise ValidationError("nothing to complete: every moment is fixed")

    keys = _moment_index(m.n)
    columns = [keys[key] for key in unfixed]
    given = m.values
    fixed = [(i, given[key]) for key, i in keys.items() if key in given]
    constraints = []
    for index, row in enumerate(_sign_rows(m.n)):
        const = 1.0
        for i, value in fixed:
            const += row[i] * value
        constraints.append(([row[i] for i in columns], const, 1 << index, 1))

    eliminated: list[tuple[tuple[int, ...], list, list]] = []
    for t, var in enumerate(unfixed, start=1):
        # lowers: var >= const + coeffs . (moments eliminated after var); uppers: var <=
        lowers, uppers, rest = [], [], []
        for coeffs, const, anc, count in constraints:
            a = coeffs[0]
            if a == 0.0:
                rest.append((coeffs[1:], const, anc, count))
            elif a == 1.0:  # a unit pivot divides exactly: skip the division
                lowers.append(([-v for v in coeffs[1:]], -const, anc, count))
            elif a == -1.0:
                uppers.append((coeffs[1:], const, anc, count))
            elif a > 0:
                # a*var + others + const >= 0  ->  var >= -(const + others)/a
                lowers.append(([-(v / a) for v in coeffs[1:]], -(const / a), anc, count))
            else:
                uppers.append(([v / -a for v in coeffs[1:]], const / -a, anc, count))
        # constant-only crossing bounds give an attributable certificate
        const_lowers = [c for coeffs, c, _, _ in lowers if not any(coeffs)]
        const_uppers = [c for coeffs, c, _, _ in uppers if not any(coeffs)]
        if const_lowers and const_uppers:
            lo, hi = max(const_lowers), min(const_uppers)
            if lo > hi + _FM_SLACK:
                return False, InfeasibilityCertificate(variable=var, lower=lo, upper=hi)
        for lc, lconst, lanc, _ in lowers:
            for uc, uconst, uanc, _ in uppers:
                anc = lanc | uanc
                count = anc.bit_count()
                if count <= t + 1:  # Kohler: more ancestors are redundant after t eliminations
                    rest.append((list(map(sub, uc, lc)), uconst - lconst, anc, count))
        constraints = []
        for constraint in _reduce(rest):
            if any(constraint[0]):
                constraints.append(constraint)
            elif constraint[1] < -_FM_SLACK:  # else a constant one is trivially satisfied
                return False, InfeasibilityCertificate(
                    variable=None, lower=None, upper=None, violated_constant=constraint[1]
                )
        constraints = _minimal_ancestors(constraints)
        eliminated.append((var, lowers, uppers))

    # all remaining constraints are variable-free and satisfied: back-substitute
    values: list[float] = []  # the moments eliminated after var, in elimination order

    def _eval(coeffs: list[float], const: float) -> float:
        return const + sum(map(mul, coeffs, values))

    for var, lowers, uppers in reversed(eliminated):
        lo = max((_eval(c, k) for c, k, _, _ in lowers), default=-1.0)
        hi = min((_eval(c, k) for c, k, _, _ in uppers), default=1.0)
        if lo > hi + _FM_SLACK:
            return False, InfeasibilityCertificate(variable=var, lower=lo, upper=hi)
        values.insert(0, 0.5 * (max(lo, -1.0) + min(hi, 1.0)))
    return True, dict(zip(unfixed, values))
