"""Every exported integer or positive argument follows the input rules of
``operators`` (``_as_integer``, ``_as_positive``): a non-integer, a bool or a
non-finite value raises ``OperatorError``, while an integral float is taken as
its integer.  Range violations raise a qbp error too: ``OperatorError`` for an
operator door's floor or operands, ``ModelError`` for a graph query; both are
``ValueError`` subclasses, and no door raises a bare ``ValueError``."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import qbp
from qbp import (
    BoundConstants,
    DenseOperator,
    EdgeTerm,
    GraphModel,
    ModelError,
    NonDensityError,
    OperatorError,
    SiteLayout,
    SiteMismatchError,
    TripartiteSplit,
    build_chain,
    check_commutator_power,
    check_telescoping,
    circle_product,
    cmi,
    conjugation_residual,
    cumulants,
    deficiency_rows,
    exact_reduced_density,
    filter_hat,
    filter_time,
    hastings_operator,
    heisenberg,
    random_density,
    random_hermitian,
    region_partition,
    run_exact_bp,
    run_sliding_window,
    single_step_bound,
    single_step_experiment,
    stock_factory,
    thermal_state,
    transverse_ising,
    union_layout,
    window_error_sweep,
)
from qbp.markov import _blanket_split
from qbp.operators import assert_density

Q1, Q12 = SiteLayout((1,), (2,)), SiteLayout((1, 2), (2, 2))
ONES = BoundConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
CHAIN = build_chain(4, 2, transverse_ising(), beta=1.0)
H, V = random_hermitian(1, Q12), random_hermitian(2, Q12)
IDENTITY = DenseOperator.identity(Q12)

#: Each door called with one integer argument x.
INTEGER_DOORS = {
    "single_step_experiment": lambda x: single_step_experiment(CHAIN, 1, x),
    "region_partition": lambda x: region_partition(CHAIN, {1}, x),
    "run_sliding_window": lambda x: run_sliding_window(CHAIN, 4, x),
    "window_error_sweep": lambda x: window_error_sweep(CHAIN, 4, [x]),
    "deficiency_rows": lambda x: deficiency_rows(CHAIN, x),
    "hastings_operator": lambda x: hastings_operator(H, V, 1.0, x),
    "check_commutator_power": lambda x: check_commutator_power(H, V, x),
    "check_telescoping": lambda x: check_telescoping(IDENTITY, IDENTITY, H, x),
    "single_step_bound": lambda x: single_step_bound(ONES, 1.0, 1.0, x),
}

#: Each door called with one positive argument x.
POSITIVE_DOORS = {
    "single_step_bound.beta": lambda x: single_step_bound(ONES, x, 1.0, 1),
    "single_step_bound.buffer_norm": lambda x: single_step_bound(ONES, 1.0, x, 1),
    "hastings_operator.beta": lambda x: hastings_operator(H, V, x, 2),
    "conjugation_residual.beta": lambda x: conjugation_residual(H, V, x, IDENTITY),
}


@pytest.mark.parametrize("door", sorted(INTEGER_DOORS))
@pytest.mark.parametrize("bad", [2.5, True, math.nan, math.inf, "2"], ids=["fraction", "bool", "nan", "inf", "string"])
def test_integer_door_refuses(door, bad):
    # 2.5 once acted as 2 or raised a bare TypeError; True acted as 1; NaN gave an empty ball.
    with pytest.raises(OperatorError, match="must be an integer"):
        INTEGER_DOORS[door](bad)


@pytest.mark.parametrize("door", sorted(INTEGER_DOORS))
def test_integer_door_takes_integral_numbers(door):
    want = repr(INTEGER_DOORS[door](2))
    assert repr(INTEGER_DOORS[door](2.0)) == want
    assert repr(INTEGER_DOORS[door](np.int64(2))) == want


def test_integral_window_is_one_integer_window():
    windows = [w for w, _ in window_error_sweep(CHAIN, 4, [2.0, 2]).entries]
    assert windows == [2] and type(windows[0]) is int


@pytest.mark.parametrize("door", sorted(POSITIVE_DOORS))
@pytest.mark.parametrize("bad", [True, math.nan, math.inf, -1.0, "1"], ids=["bool", "nan", "inf", "negative", "string"])
def test_positive_door_refuses(door, bad):
    # beta True was taken as 1; a NaN beta or buffer norm was reported as leaving the float range.
    with pytest.raises(OperatorError, match="must be a finite positive number"):
        POSITIVE_DOORS[door](bad)


@pytest.mark.parametrize("door", sorted(POSITIVE_DOORS))
def test_positive_door_takes_positive_numbers(door):
    assert repr(POSITIVE_DOORS[door](2.5)) == repr(POSITIVE_DOORS[door](np.float64(2.5)))


def test_range_violations_keep_their_error_types():
    with pytest.raises(ModelError):
        single_step_experiment(CHAIN, 1, 0)
    with pytest.raises(ModelError):
        region_partition(CHAIN, {1}, -1)
    with pytest.raises(ModelError):
        run_sliding_window(CHAIN, 4, 4)
    with pytest.raises(ModelError):
        deficiency_rows(CHAIN, 0)
    with pytest.raises(ValueError, match="s_steps must be >= 1"):
        hastings_operator(H, V, 1.0, 0)
    with pytest.raises(ValueError, match="power must be >= 1"):
        check_commutator_power(H, V, 0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        check_telescoping(IDENTITY, IDENTITY, H, 0)
    with pytest.raises(ValueError, match="radius must be >= 1"):
        single_step_bound(ONES, 1.0, 1.0, 0)
    assert math.isfinite(single_step_bound(ONES, 1.0, 0.0, 1).total)  # no buffer edges


#: A call past a floor or outside a door's domain: (call, its qbp error type,
#: the message it keeps, matched literally).  The first nine were once a bare
#: ValueError; the rest are refusals no other test reaches.
REFUSALS = {
    "s_steps_floor": (lambda: hastings_operator(H, V, 1.0, 0), OperatorError, "s_steps must be >= 1, got 0"),
    "power_floor": (lambda: check_commutator_power(H, V, 0), OperatorError, "power must be >= 1, got 0"),
    "k_floor": (lambda: check_telescoping(IDENTITY, IDENTITY, H, 0), OperatorError, "k must be >= 1, got 0"),
    "radius_floor": (lambda: single_step_bound(ONES, 1.0, 1.0, 0.0), OperatorError, "radius must be >= 1, got 0"),
    "not_unitary": (lambda: check_telescoping(H, IDENTITY, H, 1), OperatorError, "U is not unitary"),
    "no_operands": (lambda: circle_product(), OperatorError, "need at least one operand"),
    "overlapping_split": (lambda: TripartiteSplit({1}, {1, 2}, {3, 4}), ModelError, "pairwise disjoint"),
    "split_short_of_support": (lambda: cmi(thermal_state(CHAIN), TripartiteSplit({1}, {2}, {3})), ModelError,
                               "does not cover support"),
    "whole_blanket_subset": (lambda: _blanket_split(frozenset({1, 2}), {1: (2,), 2: (1,)}, frozenset({1, 2}), 1),
                             ModelError, "nonempty proper subset"),
    "self_loop": (lambda: EdgeTerm(1, 1, IDENTITY), ModelError, "self-loop at vertex 1"),
    "term_off_its_edge": (lambda: EdgeTerm(1, 2, DenseOperator.identity(SiteLayout((1, 3), (2, 2)))), ModelError,
                          "edge term must live on sites (1, 2), got (1, 3)"),
    "endpoint_not_a_vertex": (lambda: GraphModel(Q1, (EdgeTerm(1, 2, IDENTITY),), 1.0), ModelError,
                              "edge endpoint 2 is not a model vertex"),
    "term_dimension_mismatch": (lambda: GraphModel(SiteLayout((1, 2), (2, 3)), (EdgeTerm(1, 2, IDENTITY),), 1.0),
                                ModelError, "edge term dimension mismatch at site 2"),
    "duplicate_edge": (lambda: GraphModel(Q12, (EdgeTerm(1, 2, IDENTITY), EdgeTerm(2, 1, IDENTITY)), 1.0),
                       ModelError, "duplicate edge (1, 2)"),
    "reduced_density_off_the_model": (lambda: exact_reduced_density(CHAIN, {99}), ModelError, "unknown vertices [99]"),
    "qutrit_tfim": (lambda: build_chain(3, 3, transverse_ising()), ModelError,
                    "edge (1, 2): transverse_ising factory requires qubit sites"),
    "unknown_factory": (lambda: stock_factory("nope"), ModelError, "unknown factory 'nope'; have ['classical_ising',"),
    "one_site_chain": (lambda: build_chain(1), ModelError, "a chain needs at least 2 vertices, got 1"),
    "layout_lengths": (lambda: SiteLayout((1, 2), (2,)), SiteMismatchError, "sites and dims must have equal length"),
    "conflicting_union": (lambda: union_layout(Q1, SiteLayout((1,), (3,))), SiteMismatchError,
                          "site 1 has conflicting dimensions"),
    "matrix_off_its_layout": (lambda: DenseOperator(Q1, np.eye(3)), OperatorError,
                              "matrix shape (3, 3) does not match layout dimension 2"),
    "sum_across_layouts": (lambda: H + DenseOperator.identity(Q1), SiteMismatchError, "layouts differ: (1, 2) vs (1,)"),
    "negative_density": (lambda: assert_density(DenseOperator(Q1, np.diag([1.5, -0.5]))), NonDensityError,
                         "minimum eigenvalue -0.5 below -1e-10"),
    "cumulants_off_the_model": (lambda: cumulants(DenseOperator.identity(SiteLayout((9,), (2,))), CHAIN, {1}),
                                ModelError, "operator sites [9] are not model vertices"),
    "conjugation_off_layout": (lambda: conjugation_residual(H, V, 1.0, DenseOperator.identity(SiteLayout((1, 3), (2, 2)))),
                               SiteMismatchError, "conjugation operator layout does not match H, V"),
    "exact_bp_off_the_model": (lambda: run_exact_bp(CHAIN, 99), ModelError, "unknown vertex 99"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_raises_a_qbp_error(case):
    call, error, message = REFUSALS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=re.escape(message)):
            call()


def test_no_bare_value_or_type_error_in_the_package():
    """Every raise in ``qbp`` names a qbp error type; only ``_zheevd`` raises
    numpy's ``LinAlgError``, the type numpy's own eigensolver raises."""
    package = Path(qbp.__file__).resolve().parent
    offenders = [f"{path.name}:{n}" for path in sorted(package.glob("*.py"))
                 for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if "raise ValueError(" in line or "raise TypeError(" in line]
    assert offenders == []


@pytest.mark.parametrize("call", [
    # numpy's SeedSequence raised a bare TypeError for a NaN or a string seed.
    lambda: random_density(math.nan, Q12),
    lambda: random_hermitian("7", Q12),
    # n = 2.5 reached range() and raised a bare TypeError.
    lambda: build_chain(2.5, 2),
    # J = inf leaked numpy's "invalid value encountered in multiply" (0 * inf).
    lambda: build_chain(3, 2, transverse_ising(J=math.inf)),
    # a finite J whose term leaves the float range leaked numpy's overflow warning.
    lambda: build_chain(3, 2, heisenberg(J=1e308)),
    # the frequency profile returned NaN.
    lambda: filter_hat(math.nan, 1.0),
    # the time kernel raised a bare ValueError at t = 0 and at NaN.
    lambda: filter_time(0.0, 1.0),
    lambda: filter_time(math.nan, 1.0),
    # a string reached numpy's bare ValueError ("could not convert string to float").
    lambda: filter_time("x", 1.0),
    lambda: filter_hat("x", 1.0),
], ids=["nan_seed", "string_seed", "fractional_chain_length", "infinite_coupling", "overflowing_term", "nan_frequency",
        "zero_time", "nan_time", "string_time", "string_frequency"])
def test_contract_breach_raises_operator_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OperatorError):
            call()


def test_seeds_and_factory_parameters_by_the_rules():
    want = random_hermitian(3, Q12).mat
    assert np.array_equal(random_hermitian(3.0, Q12).mat, want)
    assert np.array_equal(random_hermitian(np.int64(3), Q12).mat, want)
    assert np.array_equal(random_hermitian(np.random.default_rng(3), Q12).mat, want)
    with pytest.raises(OperatorError, match="seed must be >= 0, got -1"):
        random_hermitian(-1, Q12)
    with pytest.raises(OperatorError, match="hx must be a finite number"):
        transverse_ising(hx=True)
    assert filter_hat(math.inf, 1.0) == 0.0 and filter_hat(-math.inf, 1.0) == 0.0
