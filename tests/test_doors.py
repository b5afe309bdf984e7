"""The Hermitian doors keep the contract of aim 3: finite operators in, finite
values or an ``OperatorError`` out, never a numpy error or a warning.

Each public routine that reads an operator as Hermitian, and the two norms,
gets operands that are Hermitian, not Hermitian, skewed by 1e-13 (inside
``HERMITIAN_RTOL``) or 1e-11 (outside) relative, or with entries near ±1e300,
near 1e-300, or spread from 1e-300 to 1e300.  A door handed a non-Hermitian
operand at unit scale raises ``NonHermitianError``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qbp import (
    CheckResult,
    DenseOperator,
    DynamicRangeError,
    NonHermitianError,
    SiteLayout,
    check_circle_eig_lower_bound,
    check_circle_perturbation,
    check_commutator_power,
    check_exp_bound,
    check_golden_thompson,
    check_telescoping,
    check_trace_norm_monotone,
    check_weyl,
    conjugation_residual,
    hastings_operator,
    matrix_exp_h,
    matrix_log_pd,
    op_norm,
    trace_norm,
    von_neumann_entropy,
)
from qbp.operators import PAULI_X, OperatorError, gibbs_state, hermitize

Q12 = SiteLayout((1, 2), (2, 2))

#: Operand kinds: (Hermitian within ``HERMITIAN_RTOL``, entry scale; None: spread over 1e-300..1e300).
KINDS = {
    "hermitian": (True, 1.0),
    "not hermitian": (False, 1.0),
    "skewed 1e-13": (True, 1.0),
    "skewed 1e-11": (False, 1.0),
    "hermitian 1e300": (True, 1e300),
    "hermitian 1e-300": (True, 1e-300),
    "not hermitian 1e300": (False, 1e300),
    "not hermitian 1e-300": (False, 1e-300),
    "hermitian 1e-300..1e300": (True, None),
}

#: Each door, called on operands a, b (read as Hermitian, the first ``reads``
#: of them), c (a general O) and u (a unitary).
DOORS = {
    "matrix_exp_h": (1, lambda a, b, c, u: matrix_exp_h(a)),
    "matrix_log_pd": (1, lambda a, b, c, u: matrix_log_pd(a)),
    "gibbs_state": (1, lambda a, b, c, u: gibbs_state(a, 1.0)),
    "von_neumann_entropy": (1, lambda a, b, c, u: von_neumann_entropy(a)),
    "trace_norm": (0, lambda a, b, c, u: trace_norm(a)),
    "op_norm": (0, lambda a, b, c, u: op_norm(a)),
    "hastings_operator": (2, lambda a, b, c, u: hastings_operator(a, b, 1.0, 4)),
    "conjugation_residual": (2, lambda a, b, c, u: conjugation_residual(a, b, 1.0, c)),
    "check_golden_thompson": (2, lambda a, b, c, u: check_golden_thompson(a, b)),
    "check_weyl": (2, lambda a, b, c, u: check_weyl(a, b)),
    "check_circle_eig_lower_bound": (2, lambda a, b, c, u: check_circle_eig_lower_bound(a, b)),
    "check_commutator_power": (2, lambda a, b, c, u: check_commutator_power(a, b, 5)),
    "check_telescoping": (1, lambda a, b, c, u: check_telescoping(u, u, a, 2)),
    "check_exp_bound": (2, lambda a, b, c, u: check_exp_bound(a, b)),
    "check_trace_norm_monotone": (1, lambda a, b, c, u: check_trace_norm_monotone(a, {2})),
    "check_circle_perturbation": (2, lambda a, b, c, u: check_circle_perturbation(a, b, 0.1, 0.1, 3)),
}


def operand(kind: str, rng: np.random.Generator, real: bool) -> DenseOperator:
    g = rng.standard_normal((4, 4)) + (0.0 if real else 1j * rng.standard_normal((4, 4)))
    h, skew = hermitize(g), (g - g.conj().T) / 2.0
    hermitian, scale = KINDS[kind]
    if kind.startswith("skewed"):  # ||M - M†||_F = rel ||h||_F
        rel = float(kind.split()[1])
        mat = h + skew * (rel * np.linalg.norm(h) / (2.0 * np.linalg.norm(skew)))
    elif scale is None:  # a symmetric spread of scales keeps h Hermitian
        e = rng.uniform(-300.0, 300.0, (4, 4))
        mat = h * 10.0 ** ((e + e.T) / 2.0)
    else:
        mat = (h if hermitian else g) * scale
    return DenseOperator(Q12, mat)


def finite(out) -> bool:
    if isinstance(out, DenseOperator):
        return bool(np.isfinite(out.mat).all())
    if isinstance(out, CheckResult):
        return bool(np.isfinite([out.lhs, out.rhs]).all())
    if isinstance(out, tuple):
        return all(finite(x) for x in out)
    return bool(np.isfinite(out))


@pytest.mark.parametrize("door", sorted(DOORS))
@seed(20240601)
@settings(max_examples=30, deadline=None, database=None)
@given(
    kinds=st.tuples(*[st.sampled_from(sorted(KINDS))] * 3),
    real=st.booleans(),
    draw=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_finite_or_typed_error(door, kinds, real, draw):
    reads, call = DOORS[door]
    rng = np.random.default_rng(draw)
    a, b, c = (operand(kind, rng, real) for kind in kinds)
    u = DenseOperator(Q12, np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0])
    refused = any(not KINDS[k][0] for k in kinds[:reads])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(a, b, c, u)
        except OperatorError as err:
            if refused and all(KINDS[k][1] == 1.0 for k in kinds[:reads]):
                assert isinstance(err, NonHermitianError)
            return
    assert not refused, "a non-Hermitian operand passed the door"
    assert finite(out)


Q1 = SiteLayout((1,), (2,))
JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("call, error", [
    # ||M - M†||_F² of entries near 1e-300 underflowed to 0 and passed as Hermitian.
    (lambda: matrix_exp_h(DenseOperator(Q1, 1e-300 * JORDAN)), NonHermitianError),
    # B^5 and O exp(-beta H) O† overflowed in matmul, with a warning.
    (lambda: check_commutator_power(DenseOperator(Q1, np.diag([1.0, -1.0])),
                                    DenseOperator(Q1, 1e300 * PAULI_X), 5), DynamicRangeError),
    (lambda: conjugation_residual(DenseOperator(Q1, np.eye(2)), DenseOperator(Q1, np.eye(2)), 1.0,
                                  DenseOperator(Q1, 1e300 * np.eye(2))), DynamicRangeError),
    # exp of every eigenvalue underflowed, and the normalisation took 0 / 0; shifted by
    # the largest eigenvalue, the normalized exponential is well defined (None: a finite margin).
    (lambda: check_circle_perturbation(DenseOperator(Q1, np.diag([-1e300, -1e300])),
                                       DenseOperator(Q1, np.zeros((2, 2))), 0.1, 0.1, 3), None),
], ids=["tiny_jordan", "commutator_power", "conjugation_residual", "circle_perturbation"])
def test_breaches_found_by_the_contract(call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            assert finite(call())
            return
        with pytest.raises(error):
            call()
