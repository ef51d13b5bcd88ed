import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgcert.qcore import (
    ClumsinessModel,
    DensityOperator,
    DichotomicObservable,
    Hamiltonian,
    ManyValuedObservable,
    ValidationError,
    dephase,
    evolve,
)
from lgcert.protocols import (
    OutcomeTable,
    ProtocolConfig,
    Schedule,
    ancilla_blind_reduced_state,
    assemble_inrm,
    blind_measurement_via_ancilla,
    coarse_grained_observable,
    experiment_distribution,
    inrm_distribution,
    marginal_distribution,
    run_nsit_pair,
    sample_counts,
    sequential_distribution,
    single_time_distribution,
    table_from_csv,
    table_from_json,
    table_to_csv,
    table_to_json,
)
from lgcert.macrocert import check_nsit

from conftest import (
    oracle_sequential,
    random_density,
    random_dichotomic,
    random_hamiltonian,
    random_times,
)

QZ = DichotomicObservable.sigma_z()
H1 = Hamiltonian.precession(1.0)
GROUND = DensityOperator.ground(2)
MIXED = DensityOperator.maximally_mixed(2)


def correlator(table: OutcomeTable, i: int, j: int) -> float:
    total = 0.0
    for outcome, p in table.probabilities.items():
        total += outcome[i] * outcome[j] * p
    return total


class TestScheduleAndConfig:
    def test_schedule_must_increase(self):
        with pytest.raises(ValidationError, match="increasing"):
            Schedule((2.0, 1.0))

    def test_schedule_must_be_positive(self):
        with pytest.raises(ValidationError, match="> 0"):
            Schedule((0.0, 1.0))

    def test_schedule_rejects_duplicates(self):
        with pytest.raises(ValidationError, match="increasing"):
            Schedule((1.0, 1.0))

    def test_config_mode_checked(self):
        with pytest.raises(ValidationError, match="mode"):
            ProtocolConfig(mode="weak")

    def test_config_default_mechanism_placement(self):
        cfg = ProtocolConfig(mode="projective_dephased")
        assert cfg.resolved_dephase_times((1, 2, 3), 3) == frozenset({1, 2})
        assert ProtocolConfig().resolved_dephase_times((1, 2), 2) == frozenset()

    def test_config_explicit_mechanism_validated(self):
        cfg = ProtocolConfig(mode="projective_dephased", dephase_times=(5,))
        with pytest.raises(ValidationError, match="schedule length"):
            cfg.resolved_dephase_times((1, 2), 2)


class TestOutcomeTable:
    def test_requires_full_coverage(self):
        with pytest.raises(ValidationError, match="cover"):
            OutcomeTable(slots=((1, -1),), probabilities={(1,): 1.0})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="range"):
            OutcomeTable(slots=((1, -1),), probabilities={(1,): 1.2, (-1,): -0.2})

    def test_exact_tables_must_normalize(self):
        with pytest.raises(ValidationError, match="sum"):
            OutcomeTable(slots=((1, -1),), probabilities={(1,): 0.6, (-1,): 0.6})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(ValidationError, match="range"):
            OutcomeTable(slots=((1, -1),), probabilities={(1,): 1.0, (-1,): bad}, kind="empirical")

    def test_rejects_extra_outcome(self):
        with pytest.raises(ValidationError, match=r"extra \[\(2,\)\]"):
            OutcomeTable(slots=((1, -1),), probabilities={(1,): 0.5, (-1,): 0.5, (2,): 0.0})

    def test_empirical_shots_must_be_positive(self):
        with pytest.raises(ValidationError, match="shots"):
            OutcomeTable(
                slots=((1, -1),), probabilities={(1,): 0.5, (-1,): 0.5}, kind="empirical", shots=0
            )

    def test_sample_counts_shots_limit(self):
        table = OutcomeTable(slots=((1, -1),), probabilities={(1,): 0.5, (-1,): 0.5})
        with pytest.raises(ValidationError, match=r"shots must be at most 2\*\*63 - 1"):
            sample_counts(table, 2**63, seed=0)
        assert sample_counts(table, 2**63 - 1, seed=0).shots == 2**63 - 1

    def test_slot_times_length_must_match(self):
        with pytest.raises(ValidationError, match="slot_times"):
            OutcomeTable(slots=((1, -1),), probabilities={(1,): 0.5, (-1,): 0.5}, slot_times=(1, 2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="kind"):
            OutcomeTable(slots=((1, -1),), probabilities={(1,): 0.5, (-1,): 0.5}, kind="estimated")

    def test_prob_clamps_on_read(self):
        t = OutcomeTable(slots=((1, -1),), probabilities={(1,): 1.0 + 5e-13, (-1,): -5e-13})
        assert t.prob((1,)) == 1.0
        assert t.prob((-1,)) == 0.0

    def test_json_roundtrip_bit_exact(self):
        t = sample_counts(
            single_time_distribution(MIXED, H1, QZ, 0.7), shots=997, seed=5
        )
        back = table_from_json(table_to_json(t))
        assert back.probabilities == t.probabilities
        assert back.kind == "empirical" and back.shots == 997

    def test_json_labels_use_signed_strings(self):
        t = single_time_distribution(MIXED, H1, QZ, 0.7)
        data = table_to_json(t)
        assert data["slots"] == [["+1", "-1"]]
        assert set(data["probabilities"]) == {"+1", "-1"}

    def test_csv_roundtrip_bit_exact(self):
        pair = sequential_distribution(MIXED, H1, QZ, Schedule((0.5, 1.9)), ProtocolConfig())
        emp = sample_counts(pair, shots=12345, seed=11)
        text = table_to_csv(emp)
        assert text.startswith("s1,s2,probability\n")
        assert "\r" not in text
        back = table_from_csv(text, kind="empirical", shots=12345)
        assert back.probabilities == emp.probabilities


class TestSingleTime:
    def test_maximally_mixed_is_uniform(self):
        t = single_time_distribution(MIXED, H1, QZ, 2.1)
        assert t.prob((1,)) == pytest.approx(0.5, abs=1e-12)

    def test_eigenstate_with_frozen_dynamics(self):
        t = single_time_distribution(GROUND, Hamiltonian.zero(2), QZ, 3.0)
        assert t.prob((1,)) == pytest.approx(1.0, abs=1e-12)
        assert t.prob((-1,)) == pytest.approx(0.0, abs=1e-12)

    def test_half_period_flip(self):
        t = single_time_distribution(GROUND, H1, QZ, np.pi)
        assert t.prob((1,)) == pytest.approx(0.0, abs=1e-12)
        assert t.prob((-1,)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("omega_t", [0.1, np.pi / 3, 1.0, 2.5])
    def test_cosine_law(self, omega_t):
        t = single_time_distribution(GROUND, H1, QZ, omega_t)
        assert t.prob((1,)) == pytest.approx(0.5 * (1 + np.cos(omega_t)), abs=1e-12)


class TestSequential:
    def test_frozen_dynamics_deterministic(self):
        t = sequential_distribution(
            GROUND, Hamiltonian.zero(2), QZ, Schedule((1.0, 2.0)), ProtocolConfig()
        )
        assert t.prob((1, 1)) == pytest.approx(1.0, abs=1e-12)
        assert sum(t.prob(o) for o in t.outcomes() if o != (1, 1)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("gap", [1e-9, np.pi / 3, np.pi / 2, np.pi])
    def test_pair_closed_form(self, gap):
        t = sequential_distribution(MIXED, H1, QZ, Schedule((1.0, 1.0 + gap)), ProtocolConfig())
        for s1, s2 in itertools.product((1, -1), repeat=2):
            assert t.raw((s1, s2)) == pytest.approx(0.25 * (1 + s1 * s2 * np.cos(gap)), abs=1e-12)

    def test_matches_branch_oracle_on_random_scenarios(self, rng):
        for _ in range(15):
            rho = random_density(rng, 2)
            times = random_times(rng, 3)
            t = sequential_distribution(rho, H1, QZ, Schedule(times), ProtocolConfig())
            oracle = oracle_sequential(rho.matrix, times)
            for outcome, p in oracle.items():
                assert t.raw(outcome) == pytest.approx(p, abs=1e-12)

    def test_dephased_mode_equals_modified_initial_state(self, rng):
        for _ in range(10):
            rho = random_density(rng, 2)
            h = random_hamiltonian(rng, 2)
            q = random_dichotomic(rng, 2)
            times = random_times(rng, 2)
            dephased = sequential_distribution(
                rho, h, q, Schedule(times), ProtocolConfig(mode="projective_dephased", dephase_times=(1,))
            )
            # evolve to t1, dephase, evolve back, then run plain
            rho_mod = evolve(dephase(evolve(rho, h, times[0]), q), h, -times[0])
            plain = sequential_distribution(rho_mod, h, q, Schedule(times), ProtocolConfig())
            for outcome in dephased.outcomes():
                assert dephased.raw(outcome) == pytest.approx(plain.raw(outcome), abs=1e-12)

    def test_mode_restriction(self):
        with pytest.raises(ValidationError, match="mode"):
            sequential_distribution(MIXED, H1, QZ, Schedule((1.0, 2.0)), ProtocolConfig(mode="inrm"))

    def test_table_sums_to_one(self, rng):
        rho = random_density(rng, 3)
        h = random_hamiltonian(rng, 3)
        q = random_dichotomic(rng, 3)
        t = sequential_distribution(rho, h, q, Schedule((0.4, 0.9, 1.7)), ProtocolConfig())
        assert t.total() == pytest.approx(1.0, abs=1e-10)


class TestCorrelatorInvariance:
    def test_c12_invariant_under_first_time_dephasing(self, rng):
        for _ in range(20):
            rho = random_density(rng, 2)
            h = random_hamiltonian(rng, 2)
            q = random_dichotomic(rng, 2)
            sched = Schedule(random_times(rng, 2))
            plain = sequential_distribution(rho, h, q, sched, ProtocolConfig())
            dephased = sequential_distribution(
                rho, h, q, sched, ProtocolConfig(mode="projective_dephased", dephase_times=(1,))
            )
            assert correlator(plain, 0, 1) == pytest.approx(correlator(dephased, 0, 1), abs=1e-12)

    def test_triple_table_invariant_under_early_dephasing(self, rng):
        for _ in range(10):
            rho = random_density(rng, 2)
            h = random_hamiltonian(rng, 2)
            q = random_dichotomic(rng, 2)
            sched = Schedule(random_times(rng, 3))
            plain = sequential_distribution(rho, h, q, sched, ProtocolConfig())
            for mech in ((1,), (2,), (1, 2)):
                dephased = sequential_distribution(
                    rho, h, q, sched, ProtocolConfig(mode="projective_dephased", dephase_times=mech)
                )
                for outcome in plain.outcomes():
                    assert plain.raw(outcome) == pytest.approx(dephased.raw(outcome), abs=1e-12)


class TestInrm:
    def test_detector_always_triggers(self):
        # ground state is the Q=+1 eigenstate; coupling to +1 never survives
        part = inrm_distribution(
            GROUND, Hamiltonian.zero(2), QZ, Schedule((1.0, 2.0)), (1,), ProtocolConfig(mode="inrm")
        )
        assert part.survival_probability() == pytest.approx(0.0, abs=1e-12)
        assert part.discarded == pytest.approx(1.0, abs=1e-12)

    def test_quarter_period_survivors(self):
        part = inrm_distribution(
            MIXED, H1, QZ, Schedule((1.0, 1.0 + np.pi / 2)), (-1,), ProtocolConfig(mode="inrm")
        )
        for s2 in (1, -1):
            assert part.probabilities[(1, s2)] == pytest.approx(0.25, abs=1e-12)

    def test_survivors_match_sequential_entries(self, rng):
        rho = random_density(rng, 2)
        sched = Schedule(random_times(rng, 2))
        seq = sequential_distribution(rho, H1, QZ, sched, ProtocolConfig())
        for c in (1, -1):
            part = inrm_distribution(rho, H1, QZ, sched, (c,), ProtocolConfig(mode="inrm"))
            for s2 in (1, -1):
                assert part.probabilities[(-c, s2)] == pytest.approx(seq.raw((-c, s2)), abs=1e-12)

    def test_discard_accounting(self, rng):
        for _ in range(10):
            rho = random_density(rng, 2)
            sched = Schedule(random_times(rng, 3))
            for couplings in itertools.product((1, -1), repeat=2):
                part = inrm_distribution(rho, H1, QZ, sched, couplings, ProtocolConfig(mode="inrm"))
                assert part.survival_probability() + part.discarded == pytest.approx(1.0, abs=1e-10)

    def test_coupling_length_mismatch(self):
        with pytest.raises(ValidationError, match="coupling"):
            inrm_distribution(MIXED, H1, QZ, Schedule((1.0, 2.0, 3.0)), (1,), ProtocolConfig(mode="inrm"))

    def test_assembly_equals_sequential(self, rng):
        for _ in range(10):
            rho = random_density(rng, 2)
            h = random_hamiltonian(rng, 2)
            q = random_dichotomic(rng, 2)
            sched = Schedule(random_times(rng, 3))
            partials = [
                inrm_distribution(rho, h, q, sched, c, ProtocolConfig(mode="inrm"))
                for c in itertools.product((1, -1), repeat=2)
            ]
            table = assemble_inrm(partials)
            seq = sequential_distribution(rho, h, q, sched, ProtocolConfig())
            for outcome in seq.outcomes():
                assert table.raw(outcome) == pytest.approx(seq.raw(outcome), abs=1e-12)

    def test_assembly_missing_configuration(self):
        partials = [
            inrm_distribution(MIXED, H1, QZ, Schedule((1.0, 2.0)), (c,), ProtocolConfig(mode="inrm"))
            for c in (1,)
        ]
        with pytest.raises(ValidationError, match="missing"):
            assemble_inrm(partials)

    def test_assembly_duplicate_configuration(self):
        part = inrm_distribution(MIXED, H1, QZ, Schedule((1.0, 2.0)), (1,), ProtocolConfig(mode="inrm"))
        with pytest.raises(ValidationError, match="duplicate"):
            assemble_inrm([part, part])

    def test_empirical_partials_within_three_sigma(self):
        sched = Schedule((1.0, 1.0 + np.pi / 3))
        shots = 10**6
        exact = sequential_distribution(MIXED, H1, QZ, sched, ProtocolConfig())
        partials = []
        for i, c in enumerate((1, -1)):
            partials.append(
                inrm_distribution(
                    MIXED, H1, QZ, sched, (c,), ProtocolConfig(mode="inrm", shots=shots), seed=100 + i
                )
            )
        table = assemble_inrm(partials)
        assert table.kind == "empirical" and table.shots == shots
        for outcome in exact.outcomes():
            p = exact.prob(outcome)
            se = np.sqrt(p * (1 - p) / shots)
            assert abs(table.raw(outcome) - p) <= 3 * se

    def test_empirical_requires_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            inrm_distribution(
                MIXED, H1, QZ, Schedule((1.0, 2.0)), (1,), ProtocolConfig(mode="inrm", shots=100)
            )


class TestAncillaBlind:
    def test_diagonal_state_unchanged(self):
        rho = DensityOperator(np.diag([0.6, 0.4]))
        out = ancilla_blind_reduced_state(rho, Hamiltonian.zero(2), QZ, 2.2)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_quarter_period_gives_maximally_mixed(self):
        out = ancilla_blind_reduced_state(GROUND, H1, QZ, np.pi / 2)
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2.0, atol=1e-12)

    def test_equals_dephase_of_evolved_state(self, rng):
        for _ in range(10):
            rho = random_density(rng, 2)
            h = random_hamiltonian(rng, 2)
            q = random_dichotomic(rng, 2)
            t1 = float(rng.uniform(0.1, 2.0))
            via_ancilla = ancilla_blind_reduced_state(rho, h, q, t1)
            direct = dephase(evolve(rho, h, t1), q)
            np.testing.assert_allclose(via_ancilla.matrix, direct.matrix, atol=1e-12)

    def test_requires_dichotomic(self, rng):
        obs = ManyValuedObservable.computational(3)
        with pytest.raises(ValidationError, match="dichotomic"):
            ancilla_blind_reduced_state(random_density(rng, 3), random_hamiltonian(rng, 3), obs, 1.0)

    def test_many_valued_blind_channel_equals_dephase(self, rng):
        obs = ManyValuedObservable.computational(3)
        rho = random_density(rng, 3)
        out = blind_measurement_via_ancilla(rho.matrix, obs)
        np.testing.assert_allclose(out, np.diag(np.diag(rho.matrix)), atol=1e-12)

    def test_ancilla_mode_equals_dephased_mode(self, rng):
        for _ in range(10):
            rho = random_density(rng, 2)
            h = random_hamiltonian(rng, 2)
            q = random_dichotomic(rng, 2)
            sched = Schedule(random_times(rng, 3))
            blind = experiment_distribution(
                rho, h, q, sched, None, ProtocolConfig(mode="ancilla_blind")
            )
            dephased = experiment_distribution(
                rho, h, q, sched, None, ProtocolConfig(mode="projective_dephased")
            )
            for outcome in blind.outcomes():
                assert blind.raw(outcome) == pytest.approx(dephased.raw(outcome), abs=1e-12)


class TestMarginal:
    def test_keep_everything_is_identity(self, rng):
        t = sequential_distribution(random_density(rng, 2), H1, QZ, Schedule((0.5, 1.5)), ProtocolConfig())
        m = marginal_distribution(t, (1, 2))
        assert m.probabilities == t.probabilities

    def test_uniform_pair_marginal(self):
        t = OutcomeTable(
            slots=((1, -1), (1, -1)),
            probabilities={o: 0.25 for o in itertools.product((1, -1), repeat=2)},
        )
        m = marginal_distribution(t, (2,))
        assert m.prob((1,)) == pytest.approx(0.5, abs=1e-12)

    def test_markov_chain_tail_marginal(self):
        gap = 2 * np.pi / 3
        t = sequential_distribution(
            MIXED, H1, QZ, Schedule((1.0, 1.0 + gap, 1.0 + 2 * gap)), ProtocolConfig()
        )
        m = marginal_distribution(t, (2, 3))
        for s2, s3 in itertools.product((1, -1), repeat=2):
            assert m.raw((s2, s3)) == pytest.approx(0.25 * (1 + s2 * s3 * np.cos(gap)), abs=1e-12)

    def test_empty_keep_rejected(self):
        t = single_time_distribution(MIXED, H1, QZ, 1.0)
        with pytest.raises(ValidationError, match="non-empty"):
            marginal_distribution(t, ())

    def test_slot_times_follow_marginal(self):
        t = sequential_distribution(MIXED, H1, QZ, Schedule((0.5, 1.0, 1.5)), ProtocolConfig())
        assert t.slot_times == (1, 2, 3)
        assert marginal_distribution(t, (2, 3)).slot_times == (2, 3)


class TestSampling:
    def test_deterministic_table_stays_deterministic(self):
        t = OutcomeTable(slots=((1, -1),), probabilities={(1,): 1.0, (-1,): 0.0})
        s = sample_counts(t, shots=640, seed=9)
        assert s.raw((1,)) == 1.0 and s.raw((-1,)) == 0.0

    def test_uniform_table_entries_near_quarter(self):
        t = OutcomeTable(
            slots=((1, -1), (1, -1)),
            probabilities={o: 0.25 for o in itertools.product((1, -1), repeat=2)},
        )
        s = sample_counts(t, shots=10**6, seed=7)
        bound = 3 * np.sqrt(0.25 * 0.75 / 10**6)
        for o in s.outcomes():
            assert abs(s.raw(o) - 0.25) <= bound

    def test_seeded_reproducibility(self):
        t = single_time_distribution(MIXED, H1, QZ, 1.3)
        a = sample_counts(t, shots=5000, seed=123)
        b = sample_counts(t, shots=5000, seed=123)
        assert a.probabilities == b.probabilities

    def test_zero_shots_rejected(self):
        t = single_time_distribution(MIXED, H1, QZ, 1.3)
        with pytest.raises(ValidationError, match="shots"):
            sample_counts(t, 0, 1)

    def test_rate_of_convergence(self):
        # empirical error shrinks like shots^(-1/2): 100x shots ~ 10x error
        pair = sequential_distribution(MIXED, H1, QZ, Schedule((1.0, 2.2)), ProtocolConfig())
        errors = {shots: [] for shots in (10**3, 10**5)}
        for seed in range(12):
            for shots in errors:
                emp = sample_counts(pair, shots, seed=seed)
                errors[shots].append(
                    max(abs(emp.raw(o) - pair.raw(o)) for o in pair.outcomes())
                )
        ratio = np.mean(errors[10**3]) / np.mean(errors[10**5])
        assert 4.0 <= ratio <= 25.0


class TestNsitPair:
    def test_maximally_mixed_has_zero_defect(self, rng):
        h = random_hamiltonian(rng, 2)
        pair, alone = run_nsit_pair(MIXED, h, QZ, 0.7, 1.9, ProtocolConfig())
        marg = marginal_distribution(pair, (2,))
        for s2 in (1, -1):
            assert alone.raw((s2,)) == pytest.approx(marg.raw((s2,)), abs=1e-12)

    def test_projective_interference_defect(self):
        pair, alone = run_nsit_pair(GROUND, H1, QZ, np.pi / 2, np.pi, ProtocolConfig())
        assert alone.raw((1,)) == pytest.approx(0.0, abs=1e-12)
        marg = marginal_distribution(pair, (2,))
        assert marg.raw((1,)) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("mode", ["projective_dephased", "ancilla_blind"])
    def test_mechanism_restores_nsit(self, mode, rng):
        for _ in range(5):
            rho = random_density(rng, 2)
            h = random_hamiltonian(rng, 2)
            pair, alone = run_nsit_pair(rho, h, QZ, 0.8, 1.7, ProtocolConfig(mode=mode))
            marg = marginal_distribution(pair, (2,))
            for s2 in (1, -1):
                assert alone.raw((s2,)) == pytest.approx(marg.raw((s2,)), abs=1e-12)

    def test_time_ordering_enforced(self):
        with pytest.raises(ValidationError, match="t1 < t2"):
            run_nsit_pair(GROUND, H1, QZ, 2.0, 1.0, ProtocolConfig())

    def test_empirical_mode_samples_both(self):
        pair, alone = run_nsit_pair(
            GROUND, H1, QZ, 0.9, 1.8, ProtocolConfig(shots=2000), seed=31
        )
        assert pair.kind == "empirical" and alone.kind == "empirical"
        assert pair.total() == pytest.approx(1.0, abs=1e-12)


class TestManyValued:
    def _qutrit(self):
        rng = np.random.default_rng(5)
        from conftest import random_hermitian

        obs = ManyValuedObservable.computational(3)
        h = Hamiltonian(random_hermitian(rng, 3))
        rho = random_density(rng, 3)
        return rho, h, obs

    def test_sequential_many_valued_normalizes(self):
        rho, h, obs = self._qutrit()
        t = sequential_distribution(rho, h, obs, Schedule((0.5, 1.4)), ProtocolConfig())
        assert t.arity == 2 and len(t.probabilities) == 9
        assert t.total() == pytest.approx(1.0, abs=1e-10)

    def test_full_marginalization_nsit_with_mechanism(self):
        # first of the two many-valued NSIT forms: sum over n1 against p2
        rho, h, obs = self._qutrit()
        cfg = ProtocolConfig(mode="projective_dephased", dephase_times=(1,))
        pair, alone = run_nsit_pair(rho, h, obs, 0.5, 1.4, cfg)
        marg = marginal_distribution(pair, (2,))
        for n2 in obs.outcomes:
            assert alone.raw((n2,)) == pytest.approx(marg.raw((n2,)), abs=1e-12)

    def test_coarse_grained_nsit_with_mechanism(self):
        # second form: dichotomic coarse graining measured at the first time
        rho, h, obs = self._qutrit()
        coarse = coarse_grained_observable(obs, plus_labels=(1,))
        sched = Schedule((0.5, 1.4))
        cfg = ProtocolConfig(mode="projective_dephased", dephase_times=(1,))
        mixed_obs = [coarse, obs]
        pair = experiment_distribution(rho, h, mixed_obs, sched, (1, 2), cfg)
        alone = experiment_distribution(rho, h, mixed_obs, sched, (2,), cfg)
        marg = marginal_distribution(pair, (2,))
        for n2 in obs.outcomes:
            assert alone.raw((n2,)) == pytest.approx(marg.raw((n2,)), abs=1e-12)

    def test_coarse_grained_observable_validates(self):
        obs = ManyValuedObservable.computational(3)
        with pytest.raises(ValidationError, match="non-empty"):
            coarse_grained_observable(obs, plus_labels=())
        with pytest.raises(ValidationError, match="unknown"):
            coarse_grained_observable(obs, plus_labels=(9,))
        q = coarse_grained_observable(obs, plus_labels=(1, 3))
        np.testing.assert_allclose(q.matrix, np.diag([1.0, -1.0, 1.0]), atol=1e-12)


@st.composite
def outcome_tables(draw):
    """Dichotomic and many-valued tables, exact or empirical, labels in any order."""
    slot = st.one_of(
        st.just((1, -1)),
        st.lists(st.integers(-9, 9), min_size=2, max_size=4, unique=True).map(tuple),
    )
    slots = tuple(draw(st.lists(slot, min_size=1, max_size=3)))
    outcomes = list(itertools.product(*slots))
    counts = draw(
        st.lists(st.integers(0, 50), min_size=len(outcomes), max_size=len(outcomes)).filter(any)
    )
    shots = sum(counts)
    empirical = draw(st.booleans())
    slot_times = tuple(range(1, len(slots) + 1)) if draw(st.booleans()) else None
    return OutcomeTable(
        slots=slots,
        probabilities={o: c / shots for o, c in zip(outcomes, counts)},
        kind="empirical" if empirical else "exact",
        shots=shots if empirical else None,
        slot_times=slot_times,
    )


class TestSerializationRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(table=outcome_tables())
    def test_property_json_and_csv_round_trip(self, table):
        from_json = table_from_json(json.loads(json.dumps(table_to_json(table))))
        from_csv = table_from_csv(
            table_to_csv(table), kind=table.kind, shots=table.shots, slot_times=table.slot_times
        )
        for back in (from_json, from_csv):
            assert back.slots == table.slots
            assert back.probabilities == table.probabilities
            assert (back.kind, back.shots, back.slot_times) == (
                table.kind, table.shots, table.slot_times
            )

    def test_many_valued_csv_keeps_label_order_for_nsit(self):
        obs = ManyValuedObservable.computational(3)
        rng = np.random.default_rng(3)
        rho, h = random_density(rng, 3), random_hamiltonian(rng, 3)
        pair, alone = run_nsit_pair(rho, h, obs, 0.5, 1.4, ProtocolConfig())
        text = table_to_csv(pair)
        assert text.startswith("s1[+1;+2;+3],s2[+1;+2;+3],probability\n")
        back = table_from_csv(text)
        assert back.slots == ((1, 2, 3), (1, 2, 3))
        witness = check_nsit(back, alone, (1,))
        assert witness.max_abs == check_nsit(pair, alone, (1,)).max_abs

    def test_bare_csv_header_reads_labels_in_descending_order(self):
        text = "s1,probability\n+1,0.25\n+2,0.25\n+3,0.5\n"
        assert table_from_csv(text).slots == ((3, 2, 1),)
