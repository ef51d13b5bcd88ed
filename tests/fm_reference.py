"""Fourier-Motzkin feasibility references, kept as test oracles.

``feasible_completion`` is the elimination ``lgcert.macrocert.feasible_completion``
ran before it pruned redundant constraints with Chernikov's rules, copied
verbatim (its ``_reduce`` renamed ``_unpruned_reduce``).  Its constraint count
grows doubly exponentially, so it is only usable inside the envelope where it
finishes: n=3 with up to 7 unfixed moments and n=4 with up to 5.  Inside that
envelope its decisions and witnesses are the reference the pruned elimination
must reproduce.

``pruned_completion`` is the pruned elimination as it ran on sparse
coefficient dicts and frozenset ancestor sets, copied verbatim with its
``_reduce`` and ``_minimal_ancestors``.  It keeps Kohler's and Chernikov's
rules, so it finishes everywhere the package does; the package's dense
coefficient lists and ancestor bitmasks must give the same decisions and
certificates, the same witnesses to 1e-12 and the same ``_reduce`` input
sizes at every stage.
"""

from __future__ import annotations

import itertools

from lgcert.macrocert import InfeasibilityCertificate, MomentSet, moment_keys
from lgcert.qcore import ValidationError

_FM_SLACK = 1e-10


def _elimination_order(m: MomentSet) -> list[tuple[int, ...]]:
    # E first, then third-order lexicographic, then pairs, then averages.
    def rank(key: tuple[int, ...]):
        return (-len(key), key)

    return sorted(m.unfixed_keys(), key=rank)


def _unpruned_reduce(constraints):
    # Constraints sharing a coefficient signature are ordered by their
    # constants; the smallest constant implies all the others, so keep it.
    best: dict[tuple, tuple[dict, float]] = {}
    for coeffs, const in constraints:
        key = tuple(sorted((k, round(v, 12)) for k, v in coeffs.items()))
        kept = best.get(key)
        if kept is None or const < kept[1]:
            best[key] = (coeffs, const)
    return list(best.values())


def feasible_completion(m: MomentSet):
    """Decide whether the unfixed moments admit a non-negative candidate.

    Runs Fourier-Motzkin elimination of the unfixed moments from the 2^n
    constraints "candidate entry >= 0" (scaled by 2^n; every initial
    coefficient is +-1, so the elimination is exact up to float rounding,
    judged with a 1e-10 slack).  Returns ``(True, assignment)`` where the
    assignment takes the midpoint of each back-substituted interval, or
    ``(False, certificate)`` with a pair of contradictory derived bounds.
    """
    if m.n not in (3, 4):
        raise ValidationError(f"feasibility completion supports n in {{3, 4}}, got n = {m.n}")
    unfixed = _elimination_order(m)
    if not unfixed:
        raise ValidationError("nothing to complete: every moment is fixed")

    constraints: list[tuple[dict[tuple[int, ...], float], float]] = []
    for signs in itertools.product((1, -1), repeat=m.n):
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
        constraints.append((coeffs, const))

    eliminated: list[tuple[tuple[int, ...], list, list]] = []
    for var in unfixed:
        lowers = []  # var >= expr: (coeffs, const) meaning var >= const + sum coeffs*x
        uppers = []  # var <= expr
        rest = []
        for coeffs, const in constraints:
            a = coeffs.get(var, 0.0)
            if a == 0.0:
                rest.append((coeffs, const))
                continue
            others = {k: v / abs(a) for k, v in coeffs.items() if k != var}
            c = const / abs(a)
            if a > 0:
                # a*var + others + const >= 0  ->  var >= -(const + others)/a
                lowers.append(({k: -v for k, v in others.items()}, -c))
            else:
                uppers.append((others, c))
        # constant-only crossing bounds give an attributable certificate
        const_lowers = [c for coeffs, c in lowers if not coeffs]
        const_uppers = [c for coeffs, c in uppers if not coeffs]
        if const_lowers and const_uppers:
            lo, hi = max(const_lowers), min(const_uppers)
            if lo > hi + _FM_SLACK:
                return False, InfeasibilityCertificate(variable=var, lower=lo, upper=hi)
        new_constraints = list(rest)
        for lc, lconst in lowers:
            for uc, uconst in uppers:
                coeffs = dict(uc)
                for k, v in lc.items():
                    coeffs[k] = coeffs.get(k, 0.0) - v
                coeffs = {k: v for k, v in coeffs.items() if v != 0.0}
                new_constraints.append((coeffs, uconst - lconst))
        constraints = []
        for coeffs, const in _unpruned_reduce(new_constraints):
            if not coeffs:
                if const < -_FM_SLACK:
                    return False, InfeasibilityCertificate(
                        variable=None, lower=None, upper=None, violated_constant=const
                    )
                continue  # trivially satisfied
            constraints.append((coeffs, const))
        eliminated.append((var, lowers, uppers))

    # all remaining constraints are variable-free and satisfied: back-substitute
    assignment: dict[tuple[int, ...], float] = {}

    def _eval(coeffs: dict[tuple[int, ...], float], const: float) -> float:
        return const + sum(v * assignment[k] for k, v in coeffs.items())

    for var, lowers, uppers in reversed(eliminated):
        lo = max((_eval(c, k) for c, k in lowers), default=-1.0)
        hi = min((_eval(c, k) for c, k in uppers), default=1.0)
        if lo > hi + _FM_SLACK:
            return False, InfeasibilityCertificate(variable=var, lower=lo, upper=hi)
        assignment[var] = 0.5 * (max(lo, -1.0) + min(hi, 1.0))
    return True, {k: assignment[k] for k in unfixed}


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


def pruned_completion(m: MomentSet):
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