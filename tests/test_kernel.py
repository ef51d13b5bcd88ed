"""The batched propagation kernel against independent oracles.

The kernel carries every branch of a run as one (B, d, d) stack and builds
each Hamiltonian's spectrum once; these tests pin its results to direct
projector-string algebra with scipy's expm, its INRM assembly to the
sequential projective table, its batched ancilla circuit to the per-matrix
public function bit for bit, and its eigendecomposition count.  A path of
1500 steps must run, whatever Python's recursion limit.  The
per-branch loops the kernel replaced are kept here as references its
results must equal bit for bit, because reports stay byte-identical.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from lgcert.cli import run_certification, scenario_from_dict
from lgcert.protocols import (
    MODES,
    InrmPartial,
    ProtocolConfig,
    Schedule,
    _blind_stack,
    _clean_probs,
    _kick,
    assemble_inrm,
    blind_measurement_via_ancilla,
    experiment_distribution,
    sequential_distribution,
)
from lgcert.qcore import (
    ClumsinessModel,
    DichotomicObservable,
    Hamiltonian,
    ManyValuedObservable,
    apply_clumsiness_matrix,
    dephase_matrix,
    matrix_to_json,
    unitary_for,
)

from conftest import (
    expm_oracle,
    oracle_sequential,
    random_density,
    random_density_matrix,
    random_dichotomic,
    random_hamiltonian,
    random_hermitian,
    random_times,
)

ALL_CHECKS = ["LG2", "LG3", "LG4", "NONNEG3", "NONNEG4", "NSIT", "NSIT3", "MONO", "APPENDIX"]
EPS = 0.05


def oracle_table(rho, h, q, times, measured, dephase_at, eps):
    """Sequential probabilities by direct algebra on raw arrays.

    Per time: evolve with scipy's expm, dephase if the mechanism acts there,
    depolarize with weight ``eps`` at the first read-out, then project.
    """
    d = rho.shape[0]
    projs = {s: (np.eye(d) + s * q) / 2.0 for s in (1, -1)}
    out = {}
    for signs in itertools.product((1, -1), repeat=len(measured)):
        mat = rho.copy()
        reads = iter(signs)
        t_prev = 0.0
        for k, t in enumerate(times, start=1):
            u = expm_oracle(h, t - t_prev)
            mat = u @ mat @ u.conj().T
            t_prev = t
            if k in dephase_at:
                mat = projs[1] @ mat @ projs[1] + projs[-1] @ mat @ projs[-1]
            if k == measured[0]:
                mat = (1.0 - eps) * mat + eps * np.trace(mat) / d * np.eye(d)
            if k in measured:
                p = projs[next(reads)]
                mat = p @ mat @ p
        out[signs] = float(np.real(np.trace(mat)))
    return out


def loop_sequential(rho, h, q, times, measured, dephase_at, clumsiness, via_ancilla):
    """Per-branch reference: a list of (outcomes, matrix) pairs, one 2-D product at a time."""
    diagonalize = blind_measurement_via_ancilla if via_ancilla else dephase_matrix
    clumsy_at = measured[0] if not clumsiness.is_trivial else None
    last = max([*measured, *dephase_at])
    branches = [((), rho.matrix)]
    t_prev = 0.0
    for k, t_k in enumerate(times[:last], start=1):
        u = unitary_for(h, t_k - t_prev)
        udag = u.conj().T
        branches = [(o, u @ m @ udag) for o, m in branches]
        if k in dephase_at:
            branches = [(o, diagonalize(m, q)) for o, m in branches]
        if k == clumsy_at:
            branches = [(o, apply_clumsiness_matrix(m, clumsiness)) for o, m in branches]
        if k in measured:
            branches = [
                (o + (s,), q.projector(s) @ m @ q.projector(s)) for o, m in branches for s in q.outcomes
            ]
        t_prev = t_k
    return _clean_probs({o: float(np.real(np.trace(m))) for o, m in branches})


def loop_inrm_partial(rho, h, q, times, couplings, dephase_at, clumsiness, via_ancilla):
    """Per-configuration reference: one INRM detector configuration on its own."""
    diagonalize = blind_measurement_via_ancilla if via_ancilla else dephase_matrix
    survivors = tuple(-c for c in couplings)
    mat = rho.matrix
    t_prev = 0.0
    for k, t_k in enumerate(times, start=1):
        u = unitary_for(h, t_k - t_prev)
        mat = u @ mat @ u.conj().T
        if k in dephase_at:
            mat = diagonalize(mat, q)
        if k == 1 and not clumsiness.is_trivial:
            mat = apply_clumsiness_matrix(mat, clumsiness)
        if k < len(times):
            p = q.projector(survivors[k - 1])
            mat = p @ mat @ p
        t_prev = t_k
    probs = _clean_probs(
        {survivors + (s,): float(np.real(np.trace(q.projector(s) @ mat))) for s in q.outcomes}
    )
    slots = tuple(tuple(q.outcomes) for _ in times)
    return InrmPartial(slots, couplings, probs, 1.0 - sum(probs.values()))


def bits(probabilities):
    return list(probabilities), np.array(list(probabilities.values())).tobytes()


@pytest.mark.parametrize("kick", [False, True], ids=["depolarizing", "unitary_kick"])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("d", [2, 4, 16])
def test_kernel_is_bitwise_the_per_branch_loop(d, mode, m, kick):
    rng = np.random.default_rng([d, m, MODES.index(mode), kick])
    rho = random_density(rng, d)
    h = random_hamiltonian(rng, d)
    q = random_dichotomic(rng, d)
    schedule = Schedule(random_times(rng, m))
    clumsiness = (
        ClumsinessModel.unitary_kick(0.3, random_hermitian(rng, d))
        if kick
        else ClumsinessModel.depolarizing(EPS)
    )
    config = ProtocolConfig(mode=mode, clumsiness=clumsiness)
    for measured in [tuple(range(1, m + 1))] + ([(1, m), (2, m)] if m >= 3 else []):
        dephase_at = config.resolved_dephase_times(measured, m)
        table = experiment_distribution(rho, h, q, schedule, measured, config)
        if mode in ("inrm", "inrm_dephased"):
            times = tuple(schedule[i - 1] for i in measured)
            sub_dephase = {measured.index(i) + 1 for i in dephase_at}
            expected = assemble_inrm([
                loop_inrm_partial(rho, h, q, times, c, sub_dephase, clumsiness, config.uses_ancilla)
                for c in itertools.product((1, -1), repeat=len(measured) - 1)
            ]).probabilities
        else:
            expected = loop_sequential(
                rho, h, q, schedule.times, measured, dephase_at, clumsiness, config.uses_ancilla
            )
        assert bits(table.probabilities) == bits(expected), measured


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("d", [2, 4])
def test_kernel_matches_expm_oracle(d, mode, m):
    rng = np.random.default_rng([d, m, MODES.index(mode)])
    rho = random_density(rng, d)
    h = random_hamiltonian(rng, d)
    q = random_dichotomic(rng, d)
    schedule = Schedule(random_times(rng, m))
    config = ProtocolConfig(mode=mode, clumsiness=ClumsinessModel.depolarizing(EPS))
    subsets = [tuple(range(1, m + 1))] + ([(1, m)] if m >= 3 else [])
    for measured in subsets:
        dephase_at = config.resolved_dephase_times(measured, m)
        table = experiment_distribution(rho, h, q, schedule, measured, config)
        expected = oracle_table(
            rho.matrix, h.matrix, q.matrix, schedule.times, measured, dephase_at, EPS
        )
        assert set(table.probabilities) == set(expected)
        for outcome, p in expected.items():
            assert table.raw(outcome) == pytest.approx(p, abs=1e-12), (measured, outcome)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("mode", ["projective", "inrm"])
def test_kernel_matches_closed_form_precession(mode, m, rng):
    rho = random_density(rng, 2)
    times = random_times(rng, m)
    table = experiment_distribution(
        rho, Hamiltonian.precession(1.0), DichotomicObservable.sigma_z(), Schedule(times), None,
        ProtocolConfig(mode=mode),
    )
    for outcome, p in oracle_sequential(rho.matrix, times).items():
        assert table.raw(outcome) == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("d", [2, 4])
def test_exact_inrm_assembly_equals_sequential_table(d, m):
    rng = np.random.default_rng([d, m])
    for _ in range(3):
        rho = random_density(rng, d)
        h = random_hamiltonian(rng, d)
        q = random_dichotomic(rng, d)
        schedule = Schedule(random_times(rng, m))
        for inrm, projective in (("inrm", "projective"), ("inrm_dephased", "projective_dephased")):
            assembled = experiment_distribution(rho, h, q, schedule, None, ProtocolConfig(mode=inrm))
            sequential = sequential_distribution(rho, h, q, schedule, ProtocolConfig(mode=projective))
            assert assembled.slots == sequential.slots
            assert set(assembled.probabilities) == set(sequential.probabilities)
            for outcome in sequential.outcomes():
                assert assembled.raw(outcome) == pytest.approx(sequential.raw(outcome), abs=1e-12)


def _branch_stack(rng, q, d, count):
    """Branch-like matrices: states, evolved states, projected ones with exact zeros."""
    mats = []
    for _ in range(count):
        rho = random_density_matrix(rng, d)
        u = expm_oracle(random_hermitian(rng, d), float(rng.uniform(0.1, 2.0)))
        mats.append(rho)
        mats.append(u @ rho @ u.conj().T)
        for p in q.projector_stack:
            mats.append(p @ rho @ p)
    mats.append(np.zeros((d, d), dtype=complex))
    return np.array(mats)


def kron_circuit(mat, q):
    """The blind ancilla measurement built with np.kron, one matrix at a time."""
    outcomes = tuple(q.outcomes)
    na = len(outcomes)
    d = mat.shape[0]
    u = np.zeros((d * na, d * na), dtype=complex)
    for k, outcome in enumerate(outcomes):
        shift = np.zeros((na, na), dtype=complex)
        for j in range(na):
            shift[(j + k) % na, j] = 1.0
        u += np.kron(q.projector(outcome), shift)
    ancilla0 = np.zeros((na, na), dtype=complex)
    ancilla0[0, 0] = 1.0
    joint = u @ np.kron(mat, ancilla0) @ u.conj().T
    return np.einsum("ajbj->ab", joint.reshape(d, na, d, na))


@pytest.mark.parametrize(
    "d, many_valued", [(2, False), (4, False), (16, False), (3, True), (4, True)]
)
def test_batched_ancilla_circuit_is_bitwise_the_kron_circuit(d, many_valued, rng):
    for _ in range(5):
        q = ManyValuedObservable.computational(d) if many_valued else random_dichotomic(rng, d)
        stack = _branch_stack(rng, q, d, 4)
        reference = np.array([kron_circuit(m, q) for m in stack])
        assert _blind_stack(stack, q).tobytes() == reference.tobytes()
        single = np.array([blind_measurement_via_ancilla(m, q) for m in stack])
        assert single.tobytes() == reference.tobytes()


@pytest.mark.parametrize("kick", [False, True], ids=["depolarizing", "unitary_kick"])
@pytest.mark.parametrize("mode", MODES)
def test_one_eigendecomposition_per_hamiltonian(mode, kick, monkeypatch):
    rng = np.random.default_rng([MODES.index(mode), kick])
    d = 4
    clumsiness = (
        {"kind": "unitary_kick", "strength": 0.3, "generator": matrix_to_json(random_hermitian(rng, d))}
        if kick
        else {"kind": "depolarizing", "strength": EPS}
    )
    data = {
        "dimension": d,
        "initial_state": matrix_to_json(random_density_matrix(rng, d)),
        "hamiltonian": matrix_to_json(random_hermitian(rng, d)),
        "observable": matrix_to_json(random_dichotomic(rng, d).matrix),
        "schedule": list(random_times(rng, 4)),
        "protocol": {"mode": mode, "clumsiness": clumsiness},
        "checks": ALL_CHECKS,
        "shots": 0,
        "seed": 3,
    }
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    report = run_certification(scenario_from_dict(data))
    assert len(report["experiments"]) > 10
    assert len(calls) == (2 if kick else 1)


@pytest.mark.parametrize("kick", [False, True], ids=["depolarizing", "unitary_kick"])
@pytest.mark.parametrize("d", [2, 4, 16])
def test_clumsiness_broadcast_is_bitwise_the_per_matrix_loop(d, kick):
    rng = np.random.default_rng([d, kick])
    generator = random_hermitian(rng, d)
    for rows, b in ((1, 1), (3, 4), (5, 2)):
        strengths = rng.uniform(0.0, 1.0, size=rows)
        models = [
            ClumsinessModel.unitary_kick(eps, generator) if kick else ClumsinessModel.depolarizing(eps)
            for eps in strengths
        ]
        stack = np.resize(_branch_stack(rng, random_dichotomic(rng, d), d, 1), (rows, b, d, d))
        loop = np.array(
            [apply_clumsiness_matrix(m, models[i // b]) for i, m in enumerate(stack.reshape(-1, d, d))]
        )
        assert _kick(models, d)(stack).tobytes() == loop.reshape(stack.shape).tobytes()


def test_a_mechanism_at_the_last_of_1500_times_certifies():
    # a path of 1500 steps, deeper than Python's default recursion limit of 1000
    data = {
        "dimension": 2,
        "initial_state": "maximally_mixed",
        "hamiltonian": {"preset": "precession", "frequency": 1.0},
        "observable": "sigma_z",
        "schedule": [0.01 * (k + 1) for k in range(1500)],
        "protocol": {"mode": "projective_dephased", "dephase_times": [1500]},
        "checks": ["NSIT", "LG3"],
        "shots": 0,
        "seed": 1,
    }
    report = run_certification(scenario_from_dict(data))
    assert report["verdict"] in ("all_satisfied", "violations")
    assert [c["id"] for c in report["conditions"]] == [f"LG3-{k}" for k in range(1, 5)]
    assert [w["id"] for w in report["witnesses"]] == ["NSIT-(2;12)"]
