"""Numerical laboratory for message passing on thermal states of tree
Hamiltonians: exact and sliding-window propagation, spectral filter
conjugation, thermal-potential cumulant diagnostics, a single-step error
bound evaluator, and a suite of self-verifying operator inequalities."""

__version__ = "0.1.0"

from .operators import (
    DIM_CAP_DEFAULT,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DenseOperator,
    DimensionCapError,
    NonDensityError,
    NonHermitianError,
    OperatorError,
    SingularOperatorError,
    SiteLayout,
    SiteMismatchError,
    embed,
    matrix_exp_h,
    matrix_log_pd,
    op_norm,
    partial_trace,
    random_density,
    random_hermitian,
    trace_norm,
    union_layout,
)
from .models import (
    EdgeTerm,
    GraphModel,
    ModelError,
    RegionPartition,
    build_chain,
    build_tree,
    classical_ising,
    diameter,
    distance,
    edge_hamiltonian,
    exact_reduced_density,
    heisenberg,
    load_model,
    model_from_config,
    random_two_local,
    region_partition,
    stock_factory,
    thermal_state,
    transverse_ising,
)
from .markov import (
    TripartiteSplit,
    cmi,
    deficiency_rows,
    leaf_trace_preserves_markov,
    von_neumann_entropy,
)
from .propagation import (
    WindowMessage,
    WindowSweep,
    circle_product,
    message_update,
    run_exact_bp,
    run_sliding_window,
    window_error_sweep,
)
from .hastings import (
    conjugation_residual,
    filter_hat,
    filter_time,
    hastings_operator,
)
from .diagnostics import (
    BoundBreakdown,
    BoundConstants,
    CumulantSeries,
    ThermalBoundFit,
    cumulants,
    fit_thermal_bound,
    single_step_bound,
    single_step_experiment,
    thermal_potential,
)
from .inequalities import (
    CheckResult,
    check_circle_eig_lower_bound,
    check_circle_perturbation,
    check_commutator_power,
    check_exp_bound,
    check_golden_thompson,
    check_telescoping,
    check_trace_norm_monotone,
    check_weyl,
    run_suite,
)
