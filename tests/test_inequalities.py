import numpy as np
import pytest

from qbp import (
    DenseOperator,
    DynamicRangeError,
    NonHermitianError,
    SingularOperatorError,
    SiteLayout,
    check_circle_eig_lower_bound,
    check_circle_perturbation,
    check_commutator_power,
    check_exp_bound,
    check_golden_thompson,
    check_telescoping,
    check_trace_norm_monotone,
    check_weyl,
    random_density,
    random_hermitian,
    run_suite,
)
from qbp import inequalities, operators
from qbp.inequalities import (
    CHECK_NAMES,
    SUITE_BLOCK,
    _circle_eig_lower_bound,
    _circle_perturbation,
    _commutator_power,
    _exp_bound,
    _golden_thompson,
    _telescoping,
    _weyl,
)
from qbp.operators import PAULI_X, PAULI_Z, _density, hermitize

import oracles
from oracles import looped_suite, random_unitary

Q1 = SiteLayout((1,), (2,))
Q12 = SiteLayout((1, 2), (2, 2))


class TestGoldenThompson:
    def test_trace_from_eigenvalues_keeps_the_exp_range(self):
        # Tr exp(A + B) is a sum over eigenvalues, under matrix_exp_h's range rule.
        a = DenseOperator(Q1, np.diag([3.0, -1.0]))
        r = check_golden_thompson(a, DenseOperator(Q1, PAULI_X))
        assert r.lhs == pytest.approx(np.exp(1.0 + np.sqrt(5.0)) + np.exp(1.0 - np.sqrt(5.0)), rel=1e-14)
        half = DenseOperator(Q1, np.diag([400.0, 0.0]))  # exp(A) is finite, exp(A + A) is not
        with pytest.raises(DynamicRangeError, match=r"eigenvalue 800\.0 past 709\.0896"):
            check_golden_thompson(half, half)

    def test_commuting_equality(self):
        a = DenseOperator(Q1, np.diag([0.3, -0.7]))
        b = DenseOperator(Q1, np.diag([1.1, 0.2]))
        r = check_golden_thompson(a, b)
        assert r.passed and abs(r.margin) < 1e-12

    def test_pauli_pair(self):
        r = check_golden_thompson(
            DenseOperator(Q1, PAULI_X), DenseOperator(Q1, PAULI_Z)
        )
        assert r.lhs == pytest.approx(2 * np.cosh(np.sqrt(2)))
        assert r.margin > 0


class TestWeyl:
    def test_shift_by_identity_equality(self):
        n = random_hermitian(0, Q12)
        r = check_weyl(n, 0.7 * DenseOperator.identity(Q12))
        assert r.passed and abs(r.margin) < 1e-10

    def test_diagonal_case(self):
        n = DenseOperator(Q1, np.diag([1.0, 3.0]))
        shift = DenseOperator(Q1, np.diag([0.0, 1.0]))
        r = check_weyl(n, shift)
        assert r.passed


class TestCircleEigLowerBound:
    def test_maximally_mixed_equality(self):
        a = (1 / 4) * DenseOperator.identity(Q12)
        r = check_circle_eig_lower_bound(a, a)
        assert r.passed
        assert r.lhs == pytest.approx(0.25) and r.rhs == pytest.approx(0.25)

    def test_commuting_diagonal_scalar_verification(self):
        pa = np.array([0.5, 0.2, 0.2, 0.1])
        pb = np.array([0.4, 0.3, 0.2, 0.1])
        a = DenseOperator(Q12, np.diag(pa))
        b = DenseOperator(Q12, np.diag(pb))
        r = check_circle_eig_lower_bound(a, b)
        prod = pa * pb
        assert r.rhs == pytest.approx(prod.min() / prod.sum())
        assert r.lhs == pytest.approx(pa.min() * pb.min() / pa.max())
        assert r.passed


class TestCommutatorPower:
    def test_first_power_equality(self):
        a, b = random_hermitian(1, Q12), random_hermitian(2, Q12)
        r = check_commutator_power(a, b, 1)
        assert abs(r.margin) < 1e-12

    def test_commuting_lhs_zero(self):
        a = DenseOperator(Q1, np.diag([1.0, 2.0]))
        b = DenseOperator(Q1, np.diag([3.0, 4.0]))
        r = check_commutator_power(a, b, 3)
        assert r.lhs == pytest.approx(0.0, abs=1e-14)

    def test_bad_power(self):
        with pytest.raises(ValueError):
            check_commutator_power(random_hermitian(0, Q1), random_hermitian(1, Q1), 0)


class TestTelescoping:
    def test_identity_u_both_sides_zero(self):
        rng = np.random.default_rng(5)
        v = random_unitary(rng, Q12)
        o = random_hermitian(rng, Q12)
        r = check_telescoping(DenseOperator.identity(Q12), v, o, 3)
        assert r.lhs == pytest.approx(0.0, abs=1e-12)
        assert r.rhs == pytest.approx(0.0, abs=1e-12)

    def test_single_step_equality(self):
        rng = np.random.default_rng(6)
        u, v = random_unitary(rng, Q12), random_unitary(rng, Q12)
        o = random_hermitian(rng, Q12)
        r = check_telescoping(u, v, o, 1)
        assert abs(r.margin) < 1e-10

    def test_non_unitary_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            check_telescoping(
                random_hermitian(rng, Q12), random_unitary(rng, Q12),
                random_hermitian(rng, Q12), 2,
            )

    def test_unitarity_decomposes_only_a_large_frobenius_defect(self, monkeypatch):
        """||U†U - I||_F bounds the operator norm, so only a matrix whose
        Frobenius defect passes 1e-9 has its defect's eigenvalues taken."""
        rng = np.random.default_rng(8)
        u = np.stack([random_unitary(rng, Q12).mat for _ in range(3)])
        o = np.stack([random_hermitian(rng, Q12).mat for _ in range(3)])
        # c² - 1 = t: a defect t I, of operator norm t and Frobenius norm 2t on d = 4
        near = u * np.array([1.0, np.sqrt(1 + 0.8e-9), 1.0])[:, None, None]
        far = u * np.array([1.0, 1.0, np.sqrt(1 + 2e-9)])[:, None, None]
        solved = []
        op_norm = inequalities._op_norm
        monkeypatch.setattr(inequalities, "_op_norm",
                            lambda mat: solved.append(mat.shape) or op_norm(mat))
        _telescoping(u, u, o, 2)
        assert solved == [(3, 4, 4)] * 3  # the two sides alone
        solved.clear()
        _telescoping(near, u, o, 2)
        assert solved == [(1, 4, 4)] + [(3, 4, 4)] * 3
        with pytest.raises(ValueError, match="V is not unitary"):
            _telescoping(u, far, o, 2)
        with pytest.raises(ValueError, match="U is not unitary"):
            _telescoping(np.stack([random_hermitian(rng, Q12).mat] * 3), u, o, 2)


class TestExpBound:
    def test_equal_inputs(self):
        a = random_hermitian(0, Q12)
        r = check_exp_bound(a, a)
        assert r.lhs == pytest.approx(0.0, abs=1e-12)

    def test_scalar_case(self):
        a = DenseOperator(Q1, np.eye(2))
        b = DenseOperator(Q1, np.zeros((2, 2)))
        r = check_exp_bound(a, b)
        assert r.lhs == pytest.approx(np.e - 1.0)
        assert r.rhs == pytest.approx(np.e)

    def test_right_hand_side_past_the_float_range(self):
        # exp(800) overflowed with a RuntimeWarning; exp(-800) alone is fine.
        zero = DenseOperator(Q1, np.zeros((2, 2)))
        with pytest.raises(DynamicRangeError, match="float range"):
            check_exp_bound(DenseOperator(Q1, np.diag([-800.0, 0.0])), zero)
        assert check_exp_bound(DenseOperator(Q1, np.diag([-700.0, 0.0])), zero).passed


class TestTraceNormMonotone:
    def test_density_equality(self):
        r = check_trace_norm_monotone(random_density(0, Q12), {2})
        assert abs(r.margin) < 1e-10

    def test_traceless_correlation(self):
        zz = DenseOperator(Q12, np.kron(PAULI_Z, PAULI_Z))
        r = check_trace_norm_monotone(zz, {2})
        assert r.lhs == pytest.approx(0.0, abs=1e-12)
        assert r.rhs == pytest.approx(4.0)


class TestCirclePerturbation:
    def test_zero_perturbation(self):
        h_a, h_b = random_hermitian(1, Q12), random_hermitian(2, Q12)
        r = check_circle_perturbation(h_a, h_b, 0.0, 0.0, 3)
        assert r.lhs == pytest.approx(0.0, abs=1e-12)

    def test_commuting_scalar_verification(self):
        # diagonal exponents, known perturbation scale
        h_a = DenseOperator(Q1, np.diag([0.4, -0.4]))
        h_b = DenseOperator(Q1, np.diag([0.1, -0.1]))
        r = check_circle_perturbation(h_a, h_b, 0.05, 0.02, 11)
        assert r.passed and r.rhs == pytest.approx(0.14)


class TestSuite:
    def test_small_run_zero_failures(self):
        summaries = run_suite(master_seed=7, instances=40)
        assert set(summaries) == set(CHECK_NAMES)
        for s in summaries.values():
            assert s.count == 40
            assert s.failures == 0

    def test_bitwise_reproducible(self):
        a = run_suite(master_seed=123, instances=25)
        b = run_suite(master_seed=123, instances=25)
        for name in CHECK_NAMES:
            assert a[name].min_margin == b[name].min_margin

    def test_json_shape(self):
        s = run_suite(master_seed=1, instances=5)["weyl"].as_json()
        assert set(s) == {"count", "min_margin", "failures"}

    def test_kernels_test_no_hermiticity(self, monkeypatch):
        """The suite builds its operands Hermitian, so no kernel re-tests them."""
        calls = []
        hermitian = operators._hermitian
        monkeypatch.setattr(operators, "_hermitian", lambda mat: calls.append(mat.shape) or hermitian(mat))
        run_suite(3, 400)
        assert calls == []


@pytest.mark.parametrize("instances", [1, 7, 200])
@pytest.mark.parametrize("seed", [1, 3, 42, 123])
def test_stacked_suite_equals_looped(monkeypatch, seed, instances):
    """Stacked evaluation reproduces one-at-a-time evaluation bit for bit,
    with every instance in one block and spread over several."""
    expected = looped_suite(seed, instances)
    for block in (SUITE_BLOCK, 64):
        monkeypatch.setattr("qbp.inequalities.SUITE_BLOCK", block)
        got = run_suite(seed, instances)
        assert {name: (s.min_margin, s.failures) for name, s in got.items()} == expected


@pytest.mark.parametrize("kernel,check,params", [
    (_golden_thompson, check_golden_thompson, ()),
    (_weyl, check_weyl, ()),
    (_commutator_power, check_commutator_power, (5,)),
    (_exp_bound, check_exp_bound, ()),
], ids=["golden_thompson", "weyl", "commutator_power", "exp_bound"])
def test_kernel_on_stack_equals_each_instance(kernel, check, params):
    """Both sides of every instance, not only the smallest margin, match the
    one-instance check: numpy's vectorised power, for one, rounds some x ** 4
    differently from the C library's pow that a single instance uses."""
    rng = np.random.default_rng(11)
    a, b = hermitize(rng.standard_normal((2, 200, 4, 4)) + 1j * rng.standard_normal((2, 200, 4, 4)))
    lhs, rhs = kernel(a, b, *params)
    for i in range(len(a)):
        single = check(DenseOperator(Q12, a[i]), DenseOperator(Q12, b[i]), *params)
        assert (lhs[i], rhs[i]) == (single.lhs, single.rhs)


def _reference_operands(name, rng, d, count=40):
    """A stack of ``count`` instances at dimension d, drawn as the suite draws them."""
    def gaussian():
        return rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))

    if name == "circle_eig_lower_bound":
        return _density(gaussian()), _density(gaussian())
    if name == "commutator_power":
        return hermitize(gaussian()), hermitize(gaussian()), 5
    if name == "telescoping":  # U and V are exp(iH)
        w, v = np.linalg.eigh(hermitize(np.stack([gaussian(), gaussian()], axis=1)))
        u = (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        return u[:, 0], u[:, 1], hermitize(gaussian()), 4
    if name == "exp_bound":
        return hermitize(gaussian()), hermitize(gaussian())
    h_a, h_b = hermitize(gaussian()), hermitize(gaussian())
    scale = 1.0 / np.maximum(*(np.linalg.norm(h, 2, axis=(-2, -1)) for h in (h_a, h_b)))
    h_a, h_b = h_a * scale[:, None, None], h_b * scale[:, None, None]
    return h_a, h_b, 1e-1, 1e-3, hermitize(gaussian()), hermitize(gaussian())


@pytest.mark.parametrize("d", [4, 8, 16])
@pytest.mark.parametrize("kernel,reference", [
    (_circle_eig_lower_bound, oracles.circle_eig_lower_bound_reference),
    (_commutator_power, oracles.commutator_power_reference),
    (_telescoping, oracles.telescoping_reference),
    (_exp_bound, oracles.exp_bound_reference),
    (_circle_perturbation, oracles.circle_perturbation_reference),
], ids=["circle_eig_lower_bound", "commutator_power", "telescoping", "exp_bound", "circle_perturbation"])
def test_kernel_matches_first_route(kernel, reference, d):
    """Kernels that read spectra and eigenvalue norms agree with the circle
    product through log and exp and SVD norms, within 1e-12 max(1, |rhs|)."""
    rng = np.random.default_rng(d)
    operands = _reference_operands(kernel.__name__[1:], rng, d)
    got, want = kernel(*operands), reference(*operands)
    tol = 1e-12 * np.maximum(1.0, np.abs(want[1]))
    for side in (0, 1):
        assert np.all(np.abs(got[side] - want[side]) <= tol)


def _bad():
    return DenseOperator(Q12, np.triu(np.ones((4, 4))))


@pytest.mark.parametrize("check", [
    lambda h, rho, u: check_golden_thompson(_bad(), h),
    lambda h, rho, u: check_weyl(h, _bad()),
    lambda h, rho, u: check_circle_eig_lower_bound(rho, _bad()),
    lambda h, rho, u: check_commutator_power(_bad(), h, 2),
    lambda h, rho, u: check_telescoping(u, u, _bad(), 2),
    lambda h, rho, u: check_exp_bound(h, _bad()),
    lambda h, rho, u: check_trace_norm_monotone(_bad(), {2}),
    lambda h, rho, u: check_circle_perturbation(h, _bad(), 0.1, 0.1, 3),
], ids=CHECK_NAMES)
def test_checks_reject_non_hermitian_operands(check):
    h, rho = random_hermitian(0, Q12), random_density(1, Q12)
    with pytest.raises(NonHermitianError):
        check(h, rho, random_unitary(np.random.default_rng(2), Q12))


def test_circle_eig_lower_bound_rejects_singular_density():
    singular = DenseOperator(Q12, np.diag([1.0, 0.0, 0.0, 0.0]))
    for a, b in ((singular, random_density(0, Q12)), (random_density(0, Q12), singular)):
        with pytest.raises(SingularOperatorError):
            check_circle_eig_lower_bound(a, b)
