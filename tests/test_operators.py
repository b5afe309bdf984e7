import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbp import (
    DenseOperator,
    DimensionCapError,
    NonHermitianError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SingularOperatorError,
    SiteLayout,
    SiteMismatchError,
    conditional_expectation,
    embed,
    hermitian_eig,
    matrix_exp_h,
    matrix_log_pd,
    op_norm,
    partial_trace,
    random_density,
    random_hermitian,
    trace_norm,
)
from qbp.operators import _eigh_checked

from oracles import embed_by_indices, partial_trace_by_sum

Q1 = SiteLayout((1,), (2,))
Q12 = SiteLayout((1, 2), (2, 2))
Q123 = SiteLayout((1, 2, 3), (2, 2, 2))


class TestSiteLayout:
    def test_canonical_ascending_order(self):
        lay = SiteLayout((3, 1, 2), (4, 2, 3))
        assert lay.sites == (1, 2, 3)
        assert lay.dims == (2, 3, 4)
        assert lay.dim == 24

    def test_duplicate_sites_rejected(self):
        with pytest.raises(SiteMismatchError):
            SiteLayout((1, 1), (2, 2))

    def test_dim_cap(self):
        with pytest.raises(DimensionCapError):
            SiteLayout(tuple(range(13)), (2,) * 13)
        SiteLayout(tuple(range(13)), (2,) * 13, dim_cap=2**13)

    def test_subset_and_drop(self):
        lay = SiteLayout((1, 2, 3), (2, 3, 4))
        assert lay.subset({3, 1}).dims == (2, 4)
        assert lay.drop({2}).sites == (1, 3)
        with pytest.raises(SiteMismatchError):
            lay.subset({9})


class TestEmbed:
    def test_identity_case(self):
        one = DenseOperator.identity(Q1)
        assert np.allclose(embed(one, Q12).mat, np.eye(4))

    def test_pauli_on_second_site(self):
        z2 = DenseOperator(SiteLayout((2,), (2,)), PAULI_Z)
        assert np.allclose(embed(z2, Q12).mat, np.diag([1, -1, 1, -1]))

    def test_against_index_oracle(self):
        rng = np.random.default_rng(3)
        dims = {1: 2, 2: 3, 3: 2}
        lay_op = SiteLayout((3, 1), (2, 2))
        full = SiteLayout((1, 2, 3), (2, 3, 2))
        op = random_hermitian(rng, lay_op)
        got = embed(op, full).mat
        want = embed_by_indices(op.mat, lay_op.sites, full.sites, dims)
        assert np.allclose(got, want, atol=1e-13)

    def test_round_trip_with_partial_trace(self):
        rng = np.random.default_rng(5)
        op = random_hermitian(rng, Q1)
        back = partial_trace(embed(op, Q123), {2, 3})
        assert np.allclose(back.mat, 4 * op.mat, atol=1e-12)

    def test_unknown_site_and_dim_mismatch(self):
        op = DenseOperator.identity(SiteLayout((9,), (2,)))
        with pytest.raises(SiteMismatchError):
            embed(op, Q12)
        fat = DenseOperator.identity(SiteLayout((1,), (3,)))
        with pytest.raises(SiteMismatchError):
            embed(fat, Q12)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        ra = random_density(rng, Q1)
        rb = random_density(rng, SiteLayout((2,), (2,)))
        joint = DenseOperator(Q12, np.kron(ra.mat, rb.mat))
        assert np.allclose(partial_trace(joint, {2}).mat, ra.mat, atol=1e-13)

    def test_bell_state(self):
        psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = DenseOperator(Q12, np.outer(psi, psi))
        assert np.allclose(partial_trace(rho, {2}).mat, np.eye(2) / 2)

    def test_against_summation_oracle(self):
        rng = np.random.default_rng(8)
        lay = SiteLayout((1, 2, 3), (2, 3, 2))
        op = random_hermitian(rng, lay)
        got = partial_trace(op, {2}).mat
        want = partial_trace_by_sum(op.mat, [2, 3, 2], [1])
        assert np.allclose(got, want, atol=1e-12)
        got2 = partial_trace(op, {1, 3}).mat
        want2 = partial_trace_by_sum(op.mat, [2, 3, 2], [0, 2])
        assert np.allclose(got2, want2, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_trace_and_hermiticity_preserved(self, seed):
        op = random_hermitian(seed, Q123)
        red = partial_trace(op, {1, 3})
        assert abs(red.trace() - op.trace()) < 1e-10
        assert np.allclose(red.mat, red.mat.conj().T)


class TestConditionalExpectation:
    def test_identity_fixed(self):
        ident = DenseOperator.identity(Q123)
        assert np.allclose(conditional_expectation(ident, {2}).mat, ident.mat)

    def test_untouched_support_unchanged(self):
        rng = np.random.default_rng(1)
        op = embed(random_hermitian(rng, Q1), Q123)
        assert np.allclose(conditional_expectation(op, {3}).mat, op.mat, atol=1e-13)

    def test_projection(self):
        rng = np.random.default_rng(2)
        op = random_hermitian(rng, Q123)
        once = conditional_expectation(op, {2, 3})
        twice = conditional_expectation(once, {2, 3})
        assert op_norm(twice - once) < 1e-12

    def test_nested_regions_compose_to_larger(self):
        rng = np.random.default_rng(4)
        lay = SiteLayout((1, 2, 3, 4), (2, 2, 2, 2))
        op = random_hermitian(rng, lay)
        small, big = {4}, {3, 4}
        want = conditional_expectation(op, big)
        after = conditional_expectation(conditional_expectation(op, small), big)
        before = conditional_expectation(conditional_expectation(op, big), small)
        assert op_norm(after - want) < 1e-12
        assert op_norm(before - want) < 1e-12

    def test_norm_non_increasing(self):
        for seed in range(20):
            op = random_hermitian(seed, Q123)
            assert op_norm(conditional_expectation(op, {1})) <= op_norm(op) + 1e-12


class TestEig:
    def test_diagonal(self):
        op = DenseOperator(Q1, np.diag([3.0, 1.0]))
        w, u = hermitian_eig(op)
        assert np.allclose(w, [1.0, 3.0])
        assert np.allclose(np.abs(u.mat), [[0, 1], [1, 0]])

    def test_pauli_x(self):
        w, _ = hermitian_eig(DenseOperator(Q1, PAULI_X))
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction(self):
        lay = SiteLayout((1, 2, 3, 4), (2, 2, 2, 2))
        op = random_hermitian(42, lay)
        w, u = hermitian_eig(op)
        rebuilt = (u.mat * w) @ u.mat.conj().T
        assert np.linalg.norm(rebuilt - op.mat, 2) <= 1e-9 * op_norm(op)

    def test_non_hermitian_rejected(self):
        bad = DenseOperator(Q1, np.array([[0, 1], [0, 0]]))
        with pytest.raises(NonHermitianError):
            hermitian_eig(bad)


class TestExpLog:
    def test_exp_zero(self):
        zero = DenseOperator(Q1, np.zeros((2, 2)))
        assert np.allclose(matrix_exp_h(zero).mat, np.eye(2))

    def test_exp_pauli_z(self):
        got = matrix_exp_h(DenseOperator(Q1, PAULI_Z)).mat
        assert np.allclose(got, np.diag([np.e, 1 / np.e]))

    def test_exp_x_plus_z_spectrum(self):
        got = matrix_exp_h(DenseOperator(Q1, PAULI_X + PAULI_Z))
        w = np.linalg.eigvalsh(got.mat)
        assert np.allclose(w, [np.exp(-np.sqrt(2)), np.exp(np.sqrt(2))])

    def test_log_identity_and_diagonal(self):
        ident = DenseOperator.identity(Q1)
        assert np.allclose(matrix_log_pd(ident).mat, np.zeros((2, 2)))
        op = DenseOperator(Q1, np.diag([np.e, np.e**2]))
        assert np.allclose(matrix_log_pd(op).mat, np.diag([1.0, 2.0]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_round_trip_wide_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        lay = Q12
        w = rng.uniform(-6, 6, size=lay.dim)
        h = random_hermitian(rng, lay)
        _, u = hermitian_eig(h)
        op = DenseOperator(lay, (u.mat * 10.0**w) @ u.mat.conj().T)
        back = matrix_exp_h(matrix_log_pd(op))
        assert op_norm(back - op) <= 1e-8 * op_norm(op)

    def test_density_round_trip_with_floor(self):
        rho = random_density(7, Q12)
        back = matrix_exp_h(matrix_log_pd(rho, floor=1e-6))
        assert op_norm(back - rho) <= 1e-8 * op_norm(rho)

    def test_singularity_carries_eigenvalue(self):
        op = DenseOperator(Q1, np.diag([1.0, -0.25]))
        with pytest.raises(SingularOperatorError) as err:
            matrix_log_pd(op)
        assert err.value.eigenvalue == pytest.approx(-0.25)

    def test_singularity_error_pickles(self):
        err = SingularOperatorError("eigenvalue -0.25 at or below floor", -0.25)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is SingularOperatorError
        assert str(back) == str(err)
        assert back.eigenvalue == -0.25


class TestNorms:
    def test_density_trace_norm(self):
        assert trace_norm(random_density(0, Q12)) == pytest.approx(1.0)

    def test_pauli_z(self):
        op = DenseOperator(Q1, PAULI_Z)
        assert trace_norm(op) == pytest.approx(2.0)
        assert op_norm(op) == pytest.approx(1.0)

    def test_norm_sandwich(self):
        for seed in range(50):
            op = random_hermitian(seed, Q123)
            assert op_norm(op) <= trace_norm(op) + 1e-12
            assert trace_norm(op) <= op.dim * op_norm(op) + 1e-12

    def test_partial_trace_contracts_trace_norm(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            op = random_hermitian(rng, Q12)
            assert trace_norm(partial_trace(op, {2})) <= trace_norm(op) + 1e-9


class TestRandomGenerators:
    def test_seed_determinism(self):
        a = random_hermitian(99, Q12)
        b = random_hermitian(99, Q12)
        assert np.array_equal(a.mat, b.mat)
        c = random_density(99, Q12)
        d = random_density(99, Q12)
        assert np.array_equal(c.mat, d.mat)

    def test_density_properties(self):
        rho = random_density(5, Q123)
        assert abs(rho.trace() - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho.mat)[0] > 0

    def test_entry_mean_vanishes(self):
        rng = np.random.default_rng(2024)
        entries = np.concatenate(
            [random_hermitian(rng, Q1).mat.ravel() for _ in range(10_000)]
        )
        parts = np.concatenate([entries.real, entries.imag])
        bound = 5.0 * parts.std() / np.sqrt(parts.size)
        assert abs(parts.mean()) < bound


class TestRealFastPath:
    def test_real_valued_input_solved_in_real_arithmetic(self):
        g = np.random.default_rng(5).standard_normal((8, 8))
        op = DenseOperator(Q123, g + g.T)
        assert op.mat.dtype == np.float64
        w, v = _eigh_checked(op)
        assert v.dtype == np.float64
        wc, vc = np.linalg.eigh(op.mat.astype(np.complex128))
        assert np.abs(w - wc).max() < 1e-12
        # Compare a spectral function: eigenvectors are fixed only up to phase.
        got = (v * np.tanh(w)) @ v.T
        want = (vc * np.tanh(wc)) @ vc.conj().T
        assert np.abs(got - want).max() < 1e-12


class TestDtypeFollowsData:
    def test_integer_input_promoted_to_float64(self):
        op = DenseOperator(Q1, np.array([[1, 2], [2, 3]]))
        assert op.mat.dtype == np.float64
        assert np.array_equal(op.mat, [[1.0, 2.0], [2.0, 3.0]])

    def test_float_and_complex_kept(self):
        assert DenseOperator(Q1, PAULI_X).mat.dtype == np.float64
        assert DenseOperator(Q1, PAULI_Y).mat.dtype == np.complex128

    def test_real_plus_complex_is_complex(self):
        total = DenseOperator(Q1, PAULI_X) + DenseOperator(Q1, PAULI_Y)
        assert total.mat.dtype == np.complex128
        assert np.array_equal(total.mat, PAULI_X + PAULI_Y)

    def test_real_arithmetic_stays_real(self):
        x = DenseOperator(Q1, PAULI_X)
        for op in (
            embed(x, Q123),
            2.5 * x,
            x @ x,
            partial_trace(embed(x, Q12), {2}),
            matrix_exp_h(x),
            DenseOperator.identity(Q12),
        ):
            assert op.mat.dtype == np.float64

    @pytest.mark.parametrize("mat", [PAULI_Z, PAULI_Y], ids=["float", "complex"])
    def test_input_mutation_leaves_operator_unchanged(self, mat):
        src = mat.copy()
        op = DenseOperator(Q1, src)
        src[0, 0] = 7.0
        assert np.array_equal(op.mat, mat)
        assert not op.mat.flags.writeable


class TestNormsAgainstSvd:
    @pytest.mark.parametrize("kind", ["hermitian_real", "hermitian_complex", "general"])
    def test_trace_and_operator_norm(self, kind):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((8, 8))
        if kind != "hermitian_real":
            g = g + 1j * rng.standard_normal((8, 8))
        mat = g if kind == "general" else g + g.conj().T
        op = DenseOperator(Q123, mat)
        s = np.linalg.svd(mat, compute_uv=False)
        assert trace_norm(op) == pytest.approx(s.sum(), rel=1e-12)
        assert op_norm(op) == pytest.approx(s[0], rel=1e-12)
