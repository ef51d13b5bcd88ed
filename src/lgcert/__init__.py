"""Few-level quantum simulator and macrorealism certification toolkit.

``qcore`` holds the exact linear algebra (states, observables, evolution,
channels), ``protocols`` simulates the measurement protocols (sequential,
ideal negative measurement, the modified dephased/ancilla-blind variants,
finite-shot sampling) and runs every experiment on one orchestration path,
``macrocert`` evaluates every macrorealism condition (Leggett-Garg
inequalities, NSIT witnesses, higher-order candidates, feasibility) from one
check registry, and ``cli`` parses scenarios and sweeps and emits reports.
"""

from .qcore import (
    ClumsinessModel,
    DensityOperator,
    DichotomicObservable,
    DimensionMismatchError,
    Hamiltonian,
    ManyValuedObservable,
    Observable,
    ValidationError,
    apply_clumsiness,
    dephase,
    evolve,
    heisenberg_projector,
    random_phase_dephase,
)
from .protocols import (
    InrmPartial,
    OutcomeTable,
    ProtocolConfig,
    Schedule,
    ancilla_blind_reduced_state,
    assemble_inrm,
    coarse_grained_observable,
    experiment_distribution,
    inrm_distribution,
    marginal_distribution,
    run_nsit_pair,
    sample_counts,
    sequential_distribution,
    single_time_distribution,
)
from .macrocert import (
    CandidateProbability,
    InequalityReport,
    MomentSet,
    WitnessReport,
    candidate_probability,
    check_appendix_identities,
    check_lg2,
    check_lg3,
    check_lg4,
    check_monotonicity,
    check_nonnegativity,
    check_nsit,
    decoherence_functional,
    feasible_completion,
    fine_extension,
    moments_from_single_table,
    moments_from_tables,
    quasi_probability,
)

__version__ = "0.1.0"
