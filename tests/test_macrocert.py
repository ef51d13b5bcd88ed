import itertools

import numpy as np
import pytest

from lgcert.qcore import (
    DensityOperator,
    DichotomicObservable,
    Hamiltonian,
    ValidationError,
)
from lgcert.protocols import (
    OutcomeTable,
    ProtocolConfig,
    Schedule,
    marginal_distribution,
    run_nsit_pair,
    sample_counts,
    sequential_distribution,
    single_time_distribution,
)
from lgcert.macrocert import (
    CandidateProbability,
    MomentSet,
    candidate_probability,
    check_appendix_identities,
    check_lg2,
    check_lg3,
    check_lg4,
    check_monotonicity,
    check_nonnegativity,
    check_nsit,
    decoherence_functional,
    fine_extension,
    moments_from_single_table,
    moments_from_tables,
    quasi_probability,
)

from conftest import (
    oracle_quasi,
    random_density,
    random_dichotomic,
    random_hamiltonian,
    random_times,
)

QZ = DichotomicObservable.sigma_z()
H1 = Hamiltonian.precession(1.0)
GROUND = DensityOperator.ground(2)
MIXED = DensityOperator.maximally_mixed(2)


def uniform_table(arity: int) -> OutcomeTable:
    outcomes = list(itertools.product((1, -1), repeat=arity))
    return OutcomeTable(
        slots=tuple(((1, -1),) * arity),
        probabilities={o: 1.0 / len(outcomes) for o in outcomes},
    )


def cosine_pair_table(c: float) -> OutcomeTable:
    return OutcomeTable(
        slots=((1, -1), (1, -1)),
        probabilities={
            (s1, s2): 0.25 * (1 + s1 * s2 * c) for s1, s2 in itertools.product((1, -1), repeat=2)
        },
    )


class TestMoments:
    def test_uniform_pair_has_zero_correlator(self):
        m = moments_from_tables({(1, 2): uniform_table(2)})
        assert m[(1, 2)] == pytest.approx(0.0, abs=1e-12)

    def test_cosine_pair_correlator(self):
        m = moments_from_tables({(1, 2): cosine_pair_table(np.cos(2 * np.pi / 3))})
        assert m[(1, 2)] == pytest.approx(-0.5, abs=1e-12)

    def test_markov_triple_has_zero_third_moment(self):
        gap = 2 * np.pi / 3
        table = sequential_distribution(
            MIXED, H1, QZ, Schedule((1.0, 1.0 + gap, 1.0 + 2 * gap)), ProtocolConfig()
        )
        m = moments_from_tables({(1, 2, 3): table})
        assert m[(1, 2, 3)] == pytest.approx(0.0, abs=1e-12)

    def test_unsupplied_moments_stay_unfixed(self):
        m = moments_from_tables({(1, 2): uniform_table(2)}, n=3)
        assert m.is_fixed((1, 2)) and not m.is_fixed((1, 3))
        assert (1,) in m.unfixed_keys()

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="slots"):
            moments_from_tables({(1, 2): uniform_table(3)})

    def test_duplicate_sources_rejected(self):
        pairs = [((1, 2), uniform_table(2)), ((1, 2), cosine_pair_table(0.3))]
        with pytest.raises(ValidationError, match="duplicate"):
            moments_from_tables(pairs)

    def test_non_dichotomic_tables_rejected(self):
        t = OutcomeTable(slots=((1, 2, 3),), probabilities={(1,): 0.2, (2,): 0.3, (3,): 0.5})
        with pytest.raises(ValidationError, match="dichotomic"):
            moments_from_tables({(1,): t})

    def test_empirical_tables_carry_variances(self):
        t = sample_counts(uniform_table(2), shots=4000, seed=2)
        m = moments_from_tables({(1, 2): t})
        assert m.is_empirical and m.variance((1, 2)) > 0.0


class TestCandidate:
    def test_zero_moments_give_uniform(self):
        m = MomentSet(3, {k: 0.0 for k in [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3)]})
        c = candidate_probability(m)
        for v in c.values.values():
            assert v == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_negative_entry_example(self):
        m = MomentSet(
            3,
            {
                (1,): 0.0, (2,): 0.0, (3,): 0.0,
                (1, 2): -0.5, (2, 3): -0.5, (1, 3): -0.5,
                (1, 2, 3): 0.0,
            },
        )
        c = candidate_probability(m)
        assert c[(1, 1, 1)] == pytest.approx(-1.0 / 16.0, abs=1e-12)

    def test_reconstructs_any_genuine_table(self, rng):
        for _ in range(10):
            rho = random_density(rng, 2)
            h = random_hamiltonian(rng, 2)
            q = random_dichotomic(rng, 2)
            table = sequential_distribution(rho, h, q, Schedule(random_times(rng, 3)), ProtocolConfig())
            c = candidate_probability(moments_from_single_table(table))
            for outcome in table.outcomes():
                assert c[outcome] == pytest.approx(table.raw(outcome), abs=1e-12)

    def test_requires_all_moments(self):
        m = MomentSet(3, {(1, 2): 0.5})
        with pytest.raises(ValidationError, match="missing"):
            candidate_probability(m)

    def test_candidate_type_requires_normalization(self):
        values = {o: 0.0 for o in itertools.product((1, -1), repeat=2)}
        with pytest.raises(ValidationError, match="sum"):
            CandidateProbability(2, values)


class TestLg3:
    def test_constant_q_boundary(self):
        m = MomentSet(3, {(1, 2): 1.0, (2, 3): 1.0, (1, 3): 1.0})
        report = check_lg3(m)
        assert [e.margin for e in report.entries] == pytest.approx([4.0, 0.0, 0.0, 0.0])
        assert report.all_satisfied

    def test_equal_gap_violation(self):
        m = MomentSet(3, {(1, 2): 0.5, (2, 3): 0.5, (1, 3): -0.5})
        report = check_lg3(m)
        assert report.margin("LG3-2") == pytest.approx(-0.5, abs=1e-12)
        assert [e.condition for e in report.violated()] == ["LG3-2"]

    def test_all_anticorrelated_violation(self):
        m = MomentSet(3, {(1, 2): -0.5, (2, 3): -0.5, (1, 3): -0.5})
        report = check_lg3(m)
        assert report.margin("LG3-1") == pytest.approx(-0.5, abs=1e-12)

    def test_missing_correlator(self):
        with pytest.raises(ValidationError, match="C23"):
            check_lg3(MomentSet(3, {(1, 2): 0.1, (1, 3): 0.2}))


class TestLg2:
    def test_all_zero_moments(self):
        m = MomentSet(3, {k: 0.0 for k in [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3)]})
        report = check_lg2(m)
        assert len(report.entries) == 12
        assert all(e.margin == pytest.approx(1.0) for e in report.entries)

    def test_ground_state_violation(self):
        # <Q1> = <Q2> = -1/2, C12 = -1/2 at omega t = 2pi/3, 4pi/3
        m = MomentSet(
            3,
            {
                (1,): -0.5, (2,): -0.5, (3,): 1.0,
                (1, 2): -0.5, (2, 3): -0.5, (1, 3): -0.5,
            },
        )
        report = check_lg2(m)
        assert report.margin("LG2-12-1") == pytest.approx(-0.5, abs=1e-12)

    def test_deterministic_pair_boundary(self):
        m = MomentSet(
            3,
            {
                (1,): 1.0, (2,): 1.0, (3,): 0.0,
                (1, 2): 1.0, (2, 3): 0.0, (1, 3): 0.0,
            },
        )
        report = check_lg2(m)
        pair12 = [e.margin for e in report.entries if e.condition.startswith("LG2-12")]
        assert pair12 == pytest.approx([4.0, 0.0, 0.0, 0.0])


class TestLg4:
    def test_zero_correlators(self):
        m = MomentSet(4, {(1, 2): 0.0, (2, 3): 0.0, (3, 4): 0.0, (1, 4): 0.0})
        report = check_lg4(m)
        assert len(report.entries) == 8
        assert all(e.margin == pytest.approx(2.0) for e in report.entries)

    def test_chsh_type_violation(self):
        c = np.cos(np.pi / 4)
        m = MomentSet(4, {(1, 2): c, (2, 3): c, (3, 4): c, (1, 4): -c})
        report = check_lg4(m)
        worst = min(e.margin for e in report.entries)
        assert worst == pytest.approx(2.0 - 2.0 * np.sqrt(2.0), abs=1e-12)

    def test_perfect_correlation_boundary(self):
        m = MomentSet(4, {(1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0, (1, 4): 1.0})
        report = check_lg4(m)
        margins = sorted(e.margin for e in report.entries)
        assert margins[0] == pytest.approx(0.0, abs=1e-12)
        assert report.all_satisfied


class TestNonnegativity:
    def test_uniform_satisfied(self):
        m = MomentSet(3, {k: 0.0 for k in [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3)]})
        report = check_nonnegativity(candidate_probability(m))
        assert report.all_satisfied and len(report.entries) == 8

    def test_negative_entry_flagged(self):
        m = MomentSet(
            3,
            {
                (1,): 0.0, (2,): 0.0, (3,): 0.0,
                (1, 2): -0.5, (2, 3): -0.5, (1, 3): -0.5,
                (1, 2, 3): 0.0,
            },
        )
        report = check_nonnegativity(candidate_probability(m))
        assert report.margin("NONNEG-(+1,+1,+1)") == pytest.approx(-1.0 / 16.0, abs=1e-12)
        assert "NONNEG-(+1,+1,+1)" in [e.condition for e in report.violated()]

    def test_genuine_tables_always_pass(self, rng):
        for _ in range(10):
            rho = random_density(rng, 2)
            table = sequential_distribution(rho, H1, QZ, Schedule(random_times(rng, 3)), ProtocolConfig())
            report = check_nonnegativity(candidate_probability(moments_from_single_table(table)))
            assert report.all_satisfied


class TestNsitWitness:
    def test_maximally_mixed_zero_defect(self, rng):
        h = random_hamiltonian(rng, 2)
        pair, alone = run_nsit_pair(MIXED, h, QZ, 0.6, 1.4, ProtocolConfig())
        report = check_nsit(pair, alone, (1,))
        assert report.max_abs <= 1e-12
        assert report.verdict == "non-invasive"

    def test_interference_defect_values(self):
        pair, alone = run_nsit_pair(GROUND, H1, QZ, np.pi / 2, np.pi, ProtocolConfig())
        report = check_nsit(pair, alone, (1,))
        assert report.defects[(1,)] == pytest.approx(-0.5, abs=1e-12)
        assert report.defects[(-1,)] == pytest.approx(0.5, abs=1e-12)
        assert report.verdict == "invasive"
        assert report.condition == "NSIT-(2;12)"

    @pytest.mark.parametrize("mode", ["projective_dephased", "ancilla_blind"])
    def test_mechanism_zeroes_defect(self, mode):
        pair, alone = run_nsit_pair(GROUND, H1, QZ, np.pi / 2, np.pi, ProtocolConfig(mode=mode))
        report = check_nsit(pair, alone, (1,))
        assert report.max_abs <= 1e-12
        assert report.verdict == "non-invasive"

    def test_witness_equals_offdiagonal_decoherence_sum(self, rng):
        # W(s2) = sum over s1 != s1' of Re D(s1,s2|s1',s2)
        for _ in range(10):
            rho = random_density(rng, 2)
            h = random_hamiltonian(rng, 2)
            t1, t2 = sorted(rng.uniform(0.2, 2.5, size=2))
            if t2 - t1 < 1e-3:
                t2 = t1 + 0.5
            pair, alone = run_nsit_pair(rho, h, QZ, t1, t2, ProtocolConfig())
            report = check_nsit(pair, alone, (1,))
            for s2 in (1, -1):
                interference = sum(
                    np.real(decoherence_functional(rho, h, QZ, t1, t2, s1, -s1, s2))
                    for s1 in (1, -1)
                )
                assert report.defects[(s2,)] == pytest.approx(interference, abs=1e-12)

    def test_arity_mismatch_rejected(self):
        pair, alone = run_nsit_pair(GROUND, H1, QZ, 0.5, 1.0, ProtocolConfig())
        with pytest.raises(ValidationError, match="match"):
            check_nsit(pair, pair, (1,))


class TestQuasiProbability:
    def test_maximally_mixed_pair_form(self):
        gap = 1.1
        q = quasi_probability(MIXED, H1, QZ, Schedule((1.0, 1.0 + gap)))
        for s1, s2 in itertools.product((1, -1), repeat=2):
            assert q[(s1, s2)] == pytest.approx(0.25 * (1 + s1 * s2 * np.cos(gap)), abs=1e-12)
            assert q[(s1, s2)] >= -1e-12

    def test_ground_state_negative_entry(self):
        q = quasi_probability(GROUND, H1, QZ, Schedule((2 * np.pi / 3, 4 * np.pi / 3)))
        assert q[(1, 1)] == pytest.approx(-0.125, abs=1e-12)

    def test_coincides_with_sequential_for_commuting_case(self):
        rho = DensityOperator(np.diag([0.7, 0.3]))
        sched = Schedule((0.5, 1.5))
        q = quasi_probability(rho, Hamiltonian.zero(2), QZ, sched)
        table = sequential_distribution(rho, Hamiltonian.zero(2), QZ, sched, ProtocolConfig())
        for outcome in table.outcomes():
            assert q[outcome] == pytest.approx(table.raw(outcome), abs=1e-12)

    def test_matches_direct_oracle(self, rng):
        for _ in range(10):
            rho = random_density(rng, 2)
            times = random_times(rng, 3)
            q = quasi_probability(rho, H1, QZ, Schedule(times))
            for signs in itertools.product((1, -1), repeat=3):
                assert q[signs] == pytest.approx(oracle_quasi(rho.matrix, times, signs), abs=1e-12)

    def test_formal_nsit_first_slot(self, rng):
        for _ in range(10):
            rho = random_density(rng, 2)
            h = random_hamiltonian(rng, 2)
            times = random_times(rng, 3)
            q3 = quasi_probability(rho, h, QZ, Schedule(times))
            q2 = quasi_probability(rho, h, QZ, Schedule(times[1:]))
            for s2, s3 in itertools.product((1, -1), repeat=2):
                summed = q3[(1, s2, s3)] + q3[(-1, s2, s3)]
                assert summed == pytest.approx(q2[(s2, s3)], abs=1e-12)

    def test_sums_to_one(self, rng):
        rho = random_density(rng, 3)
        h = random_hamiltonian(rng, 3)
        obs = random_dichotomic(rng, 3)
        q = quasi_probability(rho, h, obs, Schedule((0.3, 0.9, 1.8, 2.2)))
        assert sum(q.values()) == pytest.approx(1.0, abs=1e-10)

    def test_two_time_lg_margins_equal_four_q(self, rng):
        # each two-time LG margin equals 4 q(s1, s2) when the moments are
        # assembled the protocol way (averages from single-time runs, the
        # correlator from the pair run)
        for _ in range(10):
            rho = random_density(rng, 2)
            h = random_hamiltonian(rng, 2)
            t1, t2 = sorted(set(random_times(rng, 2)))
            q = quasi_probability(rho, h, QZ, Schedule((t1, t2)))
            q1 = moments_from_tables({(1,): single_time_distribution(rho, h, QZ, t1)})[(1,)]
            q2 = moments_from_tables({(1,): single_time_distribution(rho, h, QZ, t2)})[(1,)]
            pair = sequential_distribution(rho, h, QZ, Schedule((t1, t2)), ProtocolConfig())
            c12 = moments_from_tables({(1, 2): pair})[(1, 2)]
            for s1, s2 in itertools.product((1, -1), repeat=2):
                margin = 1 + s1 * q1 + s2 * q2 + s1 * s2 * c12
                assert margin == pytest.approx(4.0 * q[(s1, s2)], abs=1e-12)


class TestDecoherenceFunctional:
    def test_diagonal_equals_sequential_probability(self, rng):
        for _ in range(5):
            rho = random_density(rng, 2)
            h = random_hamiltonian(rng, 2)
            pair = sequential_distribution(rho, h, QZ, Schedule((0.7, 1.6)), ProtocolConfig())
            for s1, s2 in itertools.product((1, -1), repeat=2):
                d = decoherence_functional(rho, h, QZ, 0.7, 1.6, s1, s1, s2)
                assert abs(d.imag) <= 1e-12
                assert d.real == pytest.approx(pair.raw((s1, s2)), abs=1e-12)

    def test_orthogonal_branches_vanish_for_diagonal_state(self):
        rho = DensityOperator(np.diag([0.8, 0.2]))
        d = decoherence_functional(rho, Hamiltonian.zero(2), QZ, 0.5, 1.0, 1, -1, 1)
        assert abs(d) <= 1e-12

    def test_decomposition_identity(self, rng):
        # p12 = q - (1/2) sum_{s1 != s1'} Re D, checked entrywise
        for _ in range(10):
            rho = random_density(rng, 2)
            h = random_hamiltonian(rng, 2)
            t1, t2 = 0.6, 1.7
            pair = sequential_distribution(rho, h, QZ, Schedule((t1, t2)), ProtocolConfig())
            q = quasi_probability(rho, h, QZ, Schedule((t1, t2)))
            for s1, s2 in itertools.product((1, -1), repeat=2):
                off = sum(
                    np.real(decoherence_functional(rho, h, QZ, t1, t2, a, -a, s2)) for a in (1, -1)
                )
                assert pair.raw((s1, s2)) == pytest.approx(q[(s1, s2)] - 0.5 * off, abs=1e-12)

    def test_time_order_enforced(self):
        with pytest.raises(ValidationError, match="t1 < t2"):
            decoherence_functional(GROUND, H1, QZ, 2.0, 1.0, 1, 1, 1)


class TestAppendixIdentities:
    def test_maximally_mixed_all_identities_hold(self):
        report = check_appendix_identities(MIXED, H1, QZ, 0.8, 1.9)
        decomp = [e for e in report.entries if e.condition.startswith("A-DECOMP")]
        assert all(e.margin >= -1e-12 for e in decomp)
        assert report.all_satisfied

    def test_stronger_condition_scenario(self):
        # wave-function collapse violates the sequential-monotonicity margin
        # while every two-time LG margin stays non-negative
        report = check_appendix_identities(GROUND, H1, QZ, np.pi / 2, np.pi)
        assert report.margin("A-MONO-(+1,+1)") == pytest.approx(-0.25, abs=1e-12)
        q = quasi_probability(GROUND, H1, QZ, Schedule((np.pi / 2, np.pi)))
        assert all(v >= -1e-12 for v in q.values())
        equiv = [e for e in report.entries if e.condition.startswith("A-MONO-EQUIV")]
        assert all(e.margin >= -1e-12 for e in equiv)

    def test_identity_residuals_on_random_scenarios(self, rng):
        worst = 0.0
        for _ in range(100):
            rho = random_density(rng, 2)
            h = random_hamiltonian(rng, 2)
            t1, t2 = np.cumsum(rng.uniform(0.2, 1.2, size=2))
            report = check_appendix_identities(rho, h, QZ, float(t1), float(t2))
            for e in report.entries:
                if e.condition.startswith(("A-DECOMP", "A-MONO-EQUIV")):
                    worst = max(worst, -e.margin)
        assert worst <= 1e-12

    def test_wbound_entries_only_when_applicable(self):
        report = check_appendix_identities(GROUND, H1, QZ, np.pi / 2, np.pi)
        wbound = [e for e in report.entries if e.condition.startswith("A-WBOUND")]
        # q >= 0 everywhere here and W(+1) < 0, so exactly that entry appears
        assert [e.condition for e in wbound] == ["A-WBOUND-(+1)"]
        assert wbound[0].margin == pytest.approx(0.0, abs=1e-12)


class TestMonotonicity:
    def test_true_marginals_dominate(self, rng):
        table = sequential_distribution(
            random_density(rng, 2), H1, QZ, Schedule((0.5, 1.5)), ProtocolConfig()
        )
        reduced = marginal_distribution(table, (2,))
        assert check_monotonicity(table, reduced).all_satisfied

    def test_collapse_violation(self):
        pair, alone = run_nsit_pair(GROUND, H1, QZ, np.pi / 2, np.pi, ProtocolConfig())
        report = check_monotonicity(pair, alone)
        assert report.margin("MONO-(+1,+1)") == pytest.approx(-0.25, abs=1e-12)
        assert not report.all_satisfied

    def test_dephased_protocol_restores_dominance(self):
        pair, alone = run_nsit_pair(
            GROUND, H1, QZ, np.pi / 2, np.pi, ProtocolConfig(mode="projective_dephased")
        )
        assert check_monotonicity(pair, alone).all_satisfied

    def test_strength_ordering_on_random_scenarios(self, rng):
        # whenever monotonicity passes, a negative witness obeys
        # |W| <= min_s1 p12(s1, s2)
        for _ in range(50):
            rho = random_density(rng, 2)
            h = random_hamiltonian(rng, 2)
            t1, t2 = np.cumsum(rng.uniform(0.2, 1.2, size=2))
            pair, alone = run_nsit_pair(rho, h, QZ, float(t1), float(t2), ProtocolConfig())
            mono = check_monotonicity(pair, alone)
            witness = check_nsit(pair, alone, (1,))
            if mono.all_satisfied:
                for s2 in (1, -1):
                    w = witness.defects[(s2,)]
                    if w < 0:
                        assert abs(w) <= min(pair.raw((1, s2)), pair.raw((-1, s2))) + 1e-10

    def test_slot_mismatch_rejected(self):
        pair, alone = run_nsit_pair(GROUND, H1, QZ, 0.5, 1.0, ProtocolConfig())
        with pytest.raises(ValidationError, match="slots"):
            check_monotonicity(alone, pair)


class TestFineExtension:
    def test_uniform_inputs_give_uniform_output(self):
        out = fine_extension(uniform_table(3), uniform_table(3))
        for v in out.probabilities.values():
            assert v == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_deterministic_inputs(self):
        def point_table(target):
            outcomes = list(itertools.product((1, -1), repeat=3))
            return OutcomeTable(
                slots=((1, -1),) * 3,
                probabilities={o: 1.0 if o == target else 0.0 for o in outcomes},
            )

        out = fine_extension(point_table((1, 1, 1)), point_table((1, 1, -1)))
        assert out.raw((1, 1, 1, -1)) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_tables_marginalize_back(self):
        gap = np.pi / 2
        times = tuple(1.0 + gap * k for k in range(4))
        p123 = sequential_distribution(
            MIXED, H1, QZ, Schedule((times[0], times[1], times[2])), ProtocolConfig()
        )
        p124 = sequential_distribution(
            MIXED, H1, QZ, Schedule((times[0], times[1], times[3])), ProtocolConfig()
        )
        out = fine_extension(p123, p124)
        assert out.total() == pytest.approx(1.0, abs=1e-10)
        back123 = marginal_distribution(out, (1, 2, 3))
        back124 = marginal_distribution(out, (1, 2, 4))
        for o in p123.outcomes():
            assert back123.raw(o) == pytest.approx(p123.raw(o), abs=1e-12)
            assert back124.raw(o) == pytest.approx(p124.raw(o), abs=1e-12)
        assert all(v >= -1e-12 for v in out.probabilities.values())

    def test_marginal_mismatch_rejected(self):
        gap = np.pi / 2
        p123 = sequential_distribution(
            MIXED, H1, QZ, Schedule((1.0, 1.0 + gap, 1.0 + 2 * gap)), ProtocolConfig()
        )
        other = sequential_distribution(
            GROUND,
            Hamiltonian.precession(3.0),
            QZ,
            Schedule((1.0, 1.0 + gap, 1.0 + 2 * gap)),
            ProtocolConfig(),
        )
        with pytest.raises(ValidationError, match="marginal"):
            fine_extension(p123, other)

    def test_zero_marginal_convention(self):
        # p12(-1, s2) = 0 for a ground state with frozen dynamics
        h0 = Hamiltonian.zero(2)
        sched = Schedule((1.0, 2.0, 3.0))
        table = sequential_distribution(GROUND, h0, QZ, sched, ProtocolConfig())
        out = fine_extension(table, table)
        assert out.total() == pytest.approx(1.0, abs=1e-10)
        assert out.raw((-1, -1, -1, -1)) == 0.0


def test_the_gate_falls_back_to_verdict_tol_at_zero_variance():
    # One gate serves ``_result``, ``check_nsit`` and the column evaluators,
    # on floats and on arrays alike: three standard errors, or the exact
    # tolerance where the variance is 0.
    from lgcert.macrocert import VERDICT_TOL, _result, _tolerance

    assert _tolerance(0.0) == VERDICT_TOL and _tolerance(0.0, 0.0) == 0.0
    assert _tolerance(4.0) == 6.0 and _tolerance(4.0, 0.0) == 6.0
    assert _tolerance(np.array([0.0, 4.0, 0.0])).tolist() == [VERDICT_TOL, 6.0, VERDICT_TOL]
    assert _tolerance(np.array([0.0, 4.0]), 0.0).tolist() == [0.0, 6.0]
    exact = _result("c", -0.5 * VERDICT_TOL, 0.0)
    assert (exact.verdict, exact.stderr) == ("satisfied", None)
    sampled = _result("c", -0.5 * VERDICT_TOL, 1e-40)
    assert (sampled.verdict, sampled.stderr) == ("violated", 1e-20)
