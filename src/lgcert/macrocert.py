"""Macrorealism certification.

Moments are extracted from measured outcome tables; the checks cover the
three-time and two-time Leggett-Garg inequalities, the four-time CHSH-type
forms, no-signaling-in-time (NSIT) defects and coherence witnesses,
quasi-probabilities and decoherence functionals, candidate joint probabilities
built from higher-order correlators, sequential-monotonicity conditions, the
Fine product ansatz for extending consistent three-time tables, and an exact
Fourier-Motzkin feasibility decision for partially specified moment sets.
The elimination prunes redundant constraints with Chernikov's rules (Kohler's
ancestor-count criterion and minimal ancestor sets), so it decides n in {3, 4}
with any number of unfixed moments.

Margins are always reported as the left-hand side of the ">= 0" form of a
condition; in exact mode a margin counts as satisfied when it is at least
-VERDICT_TOL, while empirical margins are judged against three standard
errors propagated from the multinomial entry variances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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
from .protocols import OutcomeTable, Schedule, marginal_distribution

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


def _sign_str(values: Iterable[int]) -> str:
    return ",".join(f"+{v}" if v >= 0 else str(v) for v in values)


def moment_keys(n: int) -> list[tuple[int, ...]]:
    """All moment index tuples for n times: singles, pairs, ... up to the n-tuple."""
    keys: list[tuple[int, ...]] = []
    for order in range(1, n + 1):
        keys.extend(itertools.combinations(range(1, n + 1), order))
    return keys


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
            if not np.isfinite(v) or abs(v) > 1.0 + 1e-9:
                raise ValidationError(f"moment {key} must lie in [-1, 1], got {v!r}")
            values[key] = v
        variances = {tuple(int(i) for i in k): float(w) for k, w in dict(self.variances).items()}
        unknown = set(variances) - set(values)
        if unknown:
            raise ValidationError(f"variances given for unfixed moments: {sorted(unknown)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variances", variances)

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
        total = sum(values.values())
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"candidate entries must sum to 1, got {total!r}")
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
            "defects": {_sign_str(k): v for k, v in sorted(self.defects.items())},
            "max_abs": self.max_abs,
            "threshold": self.threshold,
            "verdict": self.verdict,
        }
        if self.stderrs is not None:
            data["stderrs"] = {_sign_str(k): v for k, v in sorted(self.stderrs.items())}
        return data


def _verdict(margin: float, stderr: float | None) -> str:
    tol = 3.0 * stderr if stderr else VERDICT_TOL
    return "satisfied" if margin >= -tol else "violated"


def _result(condition: str, margin: float, variance: float) -> ConditionResult:
    stderr = math.sqrt(variance) if variance > 0.0 else None
    return ConditionResult(condition, float(margin), _verdict(float(margin), stderr), stderr)


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def _moment_from_table(key: tuple[int, ...], table: OutcomeTable) -> tuple[float, float]:
    if table.arity != len(key):
        raise ValidationError(
            f"table for moment {key} must have {len(key)} slots, got {table.arity}"
        )
    for slot in table.slots:
        if set(slot) != {1, -1}:
            raise ValidationError(f"moment {key} needs dichotomic (+1/-1) outcome tables")
    value = 0.0
    variance = 0.0
    for outcome, p in table.probabilities.items():
        sign = 1
        for s in outcome:
            sign *= s
        value += sign * p
        variance += table.entry_variance(outcome)
    return value, variance


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
    n = m.n
    values: dict[tuple[int, ...], float] = {}
    for signs in itertools.product((1, -1), repeat=n):
        acc = 1.0
        for key in moment_keys(n):
            sign = 1
            for i in key:
                sign *= signs[i - 1]
            acc += sign * m[key]
        values[signs] = acc / (2**n)
    entry_variance = sum(m.variance(k) for k in moment_keys(n)) / (4**n)
    return CandidateProbability(n=n, values=values, entry_variance=entry_variance)


# ---------------------------------------------------------------------------
# Leggett-Garg inequality checks
# ---------------------------------------------------------------------------

_LG2_PATTERNS = ((1, 1), (-1, -1), (1, -1), (-1, 1))


def check_lg3(m: MomentSet) -> InequalityReport:
    """The four three-time LG inequalities on C12, C23, C13."""
    pairs = ((1, 2), (2, 3), (1, 3))
    c = {}
    for key in pairs:
        if not m.is_fixed(key):
            raise ValidationError(f"three-time LG check needs correlator C{key[0]}{key[1]}")
        c[key] = m[key]
    var = sum(m.variance(key) for key in pairs)
    combos = ((1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1))
    entries = []
    for idx, (a, b, d) in enumerate(combos, start=1):
        margin = 1.0 + a * c[(1, 2)] + b * c[(2, 3)] + d * c[(1, 3)]
        entries.append(_result(f"LG3-{idx}", margin, var))
    return InequalityReport(tuple(entries))


def check_lg2(m: MomentSet) -> InequalityReport:
    """The twelve two-time LG inequalities over the pairs (1,2), (2,3), (1,3)."""
    needed = [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3)]
    for key in needed:
        if not m.is_fixed(key):
            raise ValidationError(f"two-time LG check needs moment {key}")
    entries = []
    for i, j in ((1, 2), (2, 3), (1, 3)):
        var = m.variance((i,)) + m.variance((j,)) + m.variance((i, j))
        for idx, (si, sj) in enumerate(_LG2_PATTERNS, start=1):
            margin = 1.0 + si * m[(i,)] + sj * m[(j,)] + si * sj * m[(i, j)]
            entries.append(_result(f"LG2-{i}{j}-{idx}", margin, var))
    return InequalityReport(tuple(entries))


def check_lg4(m: MomentSet) -> InequalityReport:
    """The eight four-time CHSH-type LG inequalities on C12, C23, C34, C14."""
    pairs = ((1, 2), (2, 3), (3, 4), (1, 4))
    for key in pairs:
        if not m.is_fixed(key):
            raise ValidationError(f"four-time LG check needs correlator C{key[0]}{key[1]}")
    var = sum(m.variance(key) for key in pairs)
    entries = []
    idx = 1
    for negated in pairs:
        combo = sum((-1.0 if key == negated else 1.0) * m[key] for key in pairs)
        for sign in (-1.0, 1.0):
            entries.append(_result(f"LG4-{idx}", 2.0 + sign * combo, var))
            idx += 1
    return InequalityReport(tuple(entries))


def check_nonnegativity(c: CandidateProbability) -> InequalityReport:
    """One margin per sign tuple: the candidate entry itself."""
    entries = []
    for signs in sorted(c.values, reverse=True):
        entries.append(
            _result(f"NONNEG-({_sign_str(signs)})", c.values[signs], c.entry_variance)
        )
    return InequalityReport(tuple(entries))


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
    if marg.slots != reduced.slots:
        raise ValidationError(
            f"reduced table arity/labels {reduced.slots} do not match the marginalized full table {marg.slots}"
        )
    empirical = full.kind == "empirical" or reduced.kind == "empirical"
    defects: dict[tuple[int, ...], float] = {}
    stderrs: dict[tuple[int, ...], float] = {}
    for outcome in marg.probabilities:
        defects[outcome] = reduced.raw(outcome) - marg.raw(outcome)
        if empirical:
            var = reduced.entry_variance(outcome)
            var += sum(
                full.entry_variance(o)
                for o in full.probabilities
                if tuple(o[i - 1] for i in keep) == outcome
            )
            stderrs[outcome] = math.sqrt(var)
    max_abs = max(abs(w) for w in defects.values())
    if empirical:
        invasive = any(abs(w) > 3.0 * stderrs[o] for o, w in defects.items())
    else:
        invasive = max_abs > threshold
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
        stderrs=stderrs if empirical else None,
    )


def check_monotonicity(full: OutcomeTable, reduced: OutcomeTable) -> InequalityReport:
    """Margins reduced(tail) - full(head, tail) for every head extension.

    ``reduced`` must cover the trailing slots of ``full``; a macrorealist
    expects every sequential probability to be dominated by the later-times
    probability measured on its own.
    """
    k = full.arity - reduced.arity
    if k < 1:
        raise ValidationError("full table must have more slots than the reduced table")
    if full.slots[k:] != reduced.slots:
        raise ValidationError("reduced table must match the trailing slots of the full table")
    entries = []
    for outcome in sorted(full.probabilities, reverse=True):
        tail = outcome[k:]
        margin = reduced.raw(tail) - full.raw(outcome)
        variance = reduced.entry_variance(tail) + full.entry_variance(outcome)
        entries.append(_result(f"MONO-({_sign_str(outcome)})", margin, variance))
    return InequalityReport(tuple(entries))


# ---------------------------------------------------------------------------
# Quasi-probability, decoherence functional, two-time identities
# ---------------------------------------------------------------------------


def _heisenberg_projectors(
    q: Observable, h: Hamiltonian, t: float
) -> dict[int, np.ndarray]:
    u = unitary_for(h, t)
    return dict(zip(q.outcomes, u.conj().T @ q.projector_stack @ u))


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
        entries.append(_result(f"A-DECOMP-({_sign_str((s1, s2))})", -residual, 0.0))
    all_q_nonneg = all(v >= -VERDICT_TOL for v in quasi.values())
    for s2 in (1, -1):
        if all_q_nonneg and witness[s2] < 0.0:
            bound = 2.0 * min(p12[(1, s2)], p12[(-1, s2)]) - abs(witness[s2])
            entries.append(_result(f"A-WBOUND-({_sign_str((s2,))})", bound, 0.0))
    for s1, s2 in itertools.product((1, -1), repeat=2):
        entries.append(
            _result(f"A-MONO-({_sign_str((s1, s2))})", p2_alone[s2] - p12[(s1, s2)], 0.0)
        )
        residual = abs((p2_alone[s2] - p12[(s1, s2)]) - (p12[(-s1, s2)] + witness[s2]))
        entries.append(_result(f"A-MONO-EQUIV-({_sign_str((s1, s2))})", -residual, 0.0))
    return InequalityReport(tuple(entries))


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


def _elimination_order(m: MomentSet) -> list[tuple[int, ...]]:
    # E first, then third-order lexicographic, then pairs, then averages.
    def rank(key: tuple[int, ...]):
        return (-len(key), key)

    return sorted(m.unfixed_keys(), key=rank)


def _reduce(constraints):
    # Constraints sharing a coefficient signature are ordered by their
    # constants; the smallest constant implies all the others, so keep it.
    # Between equal constants the smaller ancestor set prunes more later.
    best: dict[tuple, tuple[dict, float, frozenset]] = {}
    for coeffs, const, anc in constraints:
        key = tuple(sorted((k, round(v, 12)) for k, v in coeffs.items()))
        kept = best.get(key)
        if kept is None or const < kept[1] or (const == kept[1] and len(anc) < len(kept[2])):
            best[key] = (coeffs, const, anc)
    return list(best.values())


def _minimal_ancestors(constraints):
    # Chernikov: a constraint whose ancestor set strictly contains another's
    # is a positive combination of others, hence redundant.
    kept: list[tuple[dict, float, frozenset]] = []
    for constraint in sorted(constraints, key=lambda c: len(c[2])):
        anc = constraint[2]
        if not any(k[2] < anc for k in kept):
            kept.append(constraint)
    return kept


def feasible_completion(m: MomentSet):
    """Decide whether the unfixed moments admit a non-negative candidate.

    Runs Fourier-Motzkin elimination of the unfixed moments from the 2^n
    constraints "candidate entry >= 0" (scaled by 2^n; every initial
    coefficient is +-1, so the elimination is exact up to float rounding,
    judged with a 1e-10 slack).  Each derived constraint carries the set of
    initial constraints it combines, and two Chernikov rules drop redundant
    ones without changing the projected set: after the t-th elimination a
    constraint with more than t + 1 ancestors is skipped before it is built
    (Kohler's criterion), and one whose ancestor set strictly contains
    another surviving constraint's is dropped.  Stages stay at a few hundred
    constraints, so any number of unfixed moments at n in {3, 4} is decided
    in milliseconds.

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

    constraints: list[tuple[dict[tuple[int, ...], float], float, frozenset[int]]] = []
    for index, signs in enumerate(itertools.product((1, -1), repeat=m.n)):
        const = 1.0
        coeffs: dict[tuple[int, ...], float] = {}
        for key in moment_keys(m.n):
            sign = 1
            for i in key:
                sign *= signs[i - 1]
            if m.is_fixed(key):
                const += sign * m[key]
            else:
                coeffs[key] = float(sign)
        constraints.append((coeffs, const, frozenset((index,))))

    eliminated: list[tuple[tuple[int, ...], list, list]] = []
    for t, var in enumerate(unfixed, start=1):
        lowers = []  # var >= expr: (coeffs, const, anc) meaning var >= const + sum coeffs*x
        uppers = []  # var <= expr
        rest = []
        for coeffs, const, anc in constraints:
            a = coeffs.get(var, 0.0)
            if a == 0.0:
                rest.append((coeffs, const, anc))
                continue
            others = {k: v / abs(a) for k, v in coeffs.items() if k != var}
            c = const / abs(a)
            if a > 0:
                # a*var + others + const >= 0  ->  var >= -(const + others)/a
                lowers.append(({k: -v for k, v in others.items()}, -c, anc))
            else:
                uppers.append((others, c, anc))
        # constant-only crossing bounds give an attributable certificate
        const_lowers = [c for coeffs, c, _ in lowers if not coeffs]
        const_uppers = [c for coeffs, c, _ in uppers if not coeffs]
        if const_lowers and const_uppers:
            lo, hi = max(const_lowers), min(const_uppers)
            if lo > hi + _FM_SLACK:
                return False, InfeasibilityCertificate(variable=var, lower=lo, upper=hi)
        new_constraints = list(rest)
        for lc, lconst, lanc in lowers:
            for uc, uconst, uanc in uppers:
                anc = lanc | uanc
                if len(anc) > t + 1:
                    continue  # Kohler: redundant after t eliminations
                coeffs = dict(uc)
                for k, v in lc.items():
                    coeffs[k] = coeffs.get(k, 0.0) - v
                coeffs = {k: v for k, v in coeffs.items() if v != 0.0}
                new_constraints.append((coeffs, uconst - lconst, anc))
        constraints = []
        for coeffs, const, anc in _reduce(new_constraints):
            if not coeffs:
                if const < -_FM_SLACK:
                    return False, InfeasibilityCertificate(
                        variable=None, lower=None, upper=None, violated_constant=const
                    )
                continue  # trivially satisfied
            constraints.append((coeffs, const, anc))
        constraints = _minimal_ancestors(constraints)
        eliminated.append((var, lowers, uppers))

    # all remaining constraints are variable-free and satisfied: back-substitute
    assignment: dict[tuple[int, ...], float] = {}

    def _eval(coeffs: dict[tuple[int, ...], float], const: float) -> float:
        return const + sum(v * assignment[k] for k, v in coeffs.items())

    for var, lowers, uppers in reversed(eliminated):
        lo = max((_eval(c, k) for c, k, _ in lowers), default=-1.0)
        hi = min((_eval(c, k) for c, k, _ in uppers), default=1.0)
        if lo > hi + _FM_SLACK:
            return False, InfeasibilityCertificate(variable=var, lower=lo, upper=hi)
        assignment[var] = 0.5 * (max(lo, -1.0) + min(hi, 1.0))
    return True, {k: assignment[k] for k in unfixed}