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
    build_chain,
    edge_hamiltonian,
    embed,
    matrix_exp_h,
    matrix_log_pd,
    op_norm,
    partial_trace,
    random_density,
    random_hermitian,
    random_two_local,
    trace_norm,
    transverse_ising,
)
from qbp import operators
from qbp.operators import (
    _density,
    _exp_h,
    _apply,
    _log_pd,
    _op_norm,
    _partial_trace,
    _spectrum,
    _trace_norm,
    assert_density,
    gibbs_state,
    hermitize,
)

from oracles import embed_by_indices, kron_embed, partial_trace_by_sum

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

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_byte_equal_to_kron_reference(self, is_complex):
        rng = np.random.default_rng(11)
        dims = {1: 2, 2: 3, 4: 2, 7: 2, 9: 3}
        full = SiteLayout(tuple(dims), tuple(dims.values()))
        for sites in [(2,), (1, 7), (2, 9), (1, 4, 9), (4, 7, 9), (1, 2, 4, 7)]:
            lay = full.subset(sites)
            mat = rng.standard_normal((lay.dim, lay.dim))
            if is_complex:
                mat = mat + 1j * rng.standard_normal((lay.dim, lay.dim))
            got = embed(DenseOperator(lay, mat), full).mat
            want = kron_embed(mat, lay.sites, full.sites, dims)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

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


class TestEig:
    def test_diagonal(self):
        op = DenseOperator(Q1, np.diag([3.0, 1.0]))
        assert np.allclose(matrix_exp_h(op).mat, np.diag([np.exp(3.0), np.e]))
        assert np.allclose(matrix_log_pd(op).mat, np.diag([np.log(3.0), 0.0]))
        _, w = _apply(_spectrum(op.mat), np.exp)
        assert np.array_equal(w, [1.0, 3.0])

    def test_pauli_x(self):
        x = DenseOperator(Q1, PAULI_X)
        want = np.cosh(1.0) * np.eye(2) + np.sinh(1.0) * PAULI_X
        assert np.allclose(matrix_exp_h(x).mat, want)
        rho, log_z = gibbs_state(x, 1.0)
        assert log_z == pytest.approx(np.log(2.0 * np.cosh(1.0)))
        assert np.allclose(rho.mat, np.linalg.inv(want) / np.trace(np.linalg.inv(want)))

    def test_reconstruction(self):
        lay = SiteLayout((1, 2, 3, 4), (2, 2, 2, 2))
        op = random_hermitian(42, lay)
        # The full path, then the block path of a reversal-symmetric matrix:
        # f(w) = w rebuilds M.
        for mat in (op.mat, op.mat + op.mat[::-1, ::-1]):
            rebuilt, _ = _apply(_spectrum(mat), lambda w: w)
            assert np.linalg.norm(rebuilt - mat, 2) <= 1e-9 * np.linalg.norm(mat, 2)

    def test_non_hermitian_rejected(self):
        g = np.random.default_rng(1).standard_normal((4, 4))
        # Neither input is Hermitian; the second equals its index reversal,
        # as a block-path input does.
        for mat in (g, g + g[::-1, ::-1]):
            bad = DenseOperator(Q12, mat)
            for fn in (matrix_exp_h, matrix_log_pd, lambda op: gibbs_state(op, 1.0)):
                with pytest.raises(NonHermitianError):
                    fn(bad)


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
        _, u = np.linalg.eigh(h.mat)
        op = DenseOperator(lay, (u * 10.0**w) @ u.conj().T)
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
        got, w = _apply(_spectrum(op.mat), np.tanh)
        assert got.dtype == np.float64
        wc, vc = np.linalg.eigh(op.mat.astype(np.complex128))
        assert np.abs(w - wc).max() < 1e-12
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


class TestStacks:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_stacked_helpers_equal_per_matrix(self, dtype):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((6, 8, 8)).astype(dtype)
        if dtype == np.complex128:
            g += 1j * rng.standard_normal((6, 8, 8))
        herm, dens = hermitize(g), _density(g)
        helpers = [
            (_exp_h, herm),
            (_log_pd, dens),
            (lambda m: _partial_trace(m, Q123, frozenset({2}))[1], herm),
            (_trace_norm, herm),
            (_op_norm, g),
        ]
        for fn, stack in helpers:
            got = fn(stack)
            for i in range(len(stack)):
                assert np.array_equal(got[i], fn(stack[i]))

    def test_stacked_log_floor_names_lowest_eigenvalue(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1e-3]), np.diag([1.0, -2.0])])
        with pytest.raises(SingularOperatorError) as info:
            _log_pd(stack)
        assert info.value.eigenvalue == -2.0

    def test_stacked_hermiticity_guard_sees_every_matrix(self):
        stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(NonHermitianError):
            _exp_h(stack)


def _tfim_hamiltonian(n: int) -> DenseOperator:
    return edge_hamiltonian(build_chain(n, 2, transverse_ising(1.0, 0.7), beta=1.0))


def _complex_reversal_symmetric() -> DenseOperator:
    lay = SiteLayout(tuple(range(6)), (2,) * 6)
    m = random_hermitian(11, lay).mat
    return DenseOperator(lay, m + m[::-1, ::-1])


@pytest.fixture
def solved_shapes(monkeypatch):
    """Shapes of every matrix (or stack) handed to eigh and eigvalsh."""
    shapes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recorded(mat, *args, _original=original, **kwargs):
            shapes.append(mat.shape)
            return _original(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return shapes


def _full_path(monkeypatch, fn, *args):
    """``fn(*args)`` with the block path switched off."""
    with monkeypatch.context() as m:
        m.setattr(operators, "_reversal_blocks", lambda mat: None)
        return fn(*args)


def _rel(a, b) -> float:
    return float(np.linalg.norm(np.subtract(a, b)) / np.linalg.norm(b))


def _full_path_inputs() -> dict:
    tfim = _tfim_hamiltonian(6).mat
    rng = np.random.default_rng(4)
    r = rng.standard_normal(tfim.shape)
    anti = (r + r.T) - (r + r.T)[::-1, ::-1]  # Hermitian, J A J = -A
    anti *= 1e-9 * np.linalg.norm(tfim) / np.linalg.norm(anti)
    off_diagonal = anti - np.diag(np.diag(anti))  # passes the diagonal screen
    off_diagonal *= 1e-9 * np.linalg.norm(tfim) / np.linalg.norm(off_diagonal)
    qutrits = random_hermitian(5, SiteLayout((1, 2, 3, 4), (3,) * 4)).mat
    random2 = edge_hamiltonian(build_chain(6, 2, random_two_local(seed=2), beta=1.0))
    return {
        "random2": random2.mat,
        "antisymmetric_1e-9": tfim + anti,
        "off_diagonal_antisymmetric_1e-9": tfim + off_diagonal,
        "odd_dimension_81": qutrits + qutrits[::-1, ::-1],
        "stack": np.stack([tfim, tfim[::-1, ::-1]]),
    }


class TestReversalBlocks:
    """A single even-dimension matrix equal to its index reversal J M J is
    solved as the stack of its two half-size blocks.  Its exp, log and Gibbs
    state are assembled from the blocks' functions, equal their conjugate
    transpose and index reversal exactly, and agree with the full path within
    1e-12 relative; so do its eigenvalues and norms."""

    BLOCK = {f"tfim{n}": lambda n=n: _tfim_hamiltonian(n) for n in (6, 7, 8, 9)}
    BLOCK["complex"] = _complex_reversal_symmetric

    @pytest.mark.parametrize("name", BLOCK)
    def test_matrix_functions_agree_with_full_path(self, monkeypatch, solved_shapes, name):
        op = self.BLOCK[name]()
        beta = 3.0 / op_norm(op)  # a spectrum the log resolves well in both paths
        rho, log_z = gibbs_state(op, beta)
        _, log_z_full = _full_path(monkeypatch, gibbs_state, op, beta)
        assert abs(log_z - log_z_full) <= 1e-12 * abs(log_z_full)
        assert np.all(np.diff(operators._eigvalsh(op.mat)) >= 0)
        solved_shapes.clear()
        for fn in (
            lambda: matrix_exp_h(op).mat,
            lambda: matrix_log_pd(rho).mat,
            lambda: gibbs_state(op, beta)[0].mat,
            lambda: assert_density(rho),
            lambda: operators._eigvalsh(op.mat),
            lambda: trace_norm(op),
            lambda: op_norm(op),
        ):
            got = fn()
            assert solved_shapes == [(2, op.dim // 2, op.dim // 2)]
            assert _rel(got, _full_path(monkeypatch, fn)) <= 1e-12
            solved_shapes.clear()
            if np.ndim(got) == 2:
                assert np.array_equal(got, got.conj().T)
                assert np.array_equal(got, got[::-1, ::-1])

    @pytest.mark.parametrize("name", sorted(_full_path_inputs()))
    def test_full_path_kept(self, solved_shapes, name):
        """Off the block path, exp is the plain eigendecomposition's, bit for bit."""
        mat = _full_path_inputs()[name]
        assert operators._reversal_blocks(mat) is None
        got = _exp_h(mat)
        _trace_norm(mat)
        assert solved_shapes == [mat.shape, mat.shape]
        w, v = np.linalg.eigh(mat)
        want = hermitize((v * np.exp(w)[..., None, :]) @ v.conj().swapaxes(-1, -2))
        assert np.array_equal(got, want)
