import itertools
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbp import (
    DenseOperator,
    DimensionCapError,
    DynamicRangeError,
    NonHermitianError,
    OperatorError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SingularOperatorError,
    SiteLayout,
    SiteMismatchError,
    build_chain,
    edge_hamiltonian,
    embed,
    embed_sum,
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
    LOG_EIG_FLOOR,
    _density,
    _exp_h,
    _apply,
    _log_pd,
    _op_norm,
    _partial_trace,
    _reversal_blocks,
    _spectrum,
    _trace_norm,
    assert_density,
    gibbs_state,
    hermitize,
)

from oracles import (
    apply,
    embed_by_indices,
    kron_embed,
    kron_hamiltonian,
    letter_partial_trace,
    partial_trace_by_sum,
    zheevd,
)

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
        # 15000 sites once raised a plain ValueError formatting a 4516-digit product.
        for n in (13, 15000):
            with pytest.raises(DimensionCapError, match=f"cap 4096: the first 13 of {n} sites give 8192$"):
                SiteLayout(tuple(range(n)), (2,) * n)

    @pytest.mark.parametrize(
        "sites, dims",
        [((1, 2.7), (2.5, 2)), ((1, 2.7), (2, 2)), ((1, 2), (2, 2.5)), ((1, True), (2, 2)),
         ((1, 2), (2, "2"))],
        ids=["both", "fractional_site", "fractional_dim", "bool_site", "str_dim"],
    )
    def test_sites_and_dims_must_be_integers(self, sites, dims):
        # int() once truncated (1, 2.7), (2.5, 2) to sites (1, 2), dims (2, 2).
        with pytest.raises(OperatorError, match="must be an integer"):
            SiteLayout(sites, dims)

    def test_integral_floats_and_numpy_integers_are_integers(self):
        lay = SiteLayout((np.int64(2), 1.0), (2.0, np.int64(3)))
        assert (lay.sites, lay.dims) == ((1, 2), (3, 2))
        assert all(type(x) is int for x in lay.sites + lay.dims)

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


class TestEmbedSum:
    DIMS = {1: 2, 2: 3, 4: 2, 7: 2}
    FULL = SiteLayout(tuple(DIMS), tuple(DIMS.values()))

    def _operands(self):
        """Real and complex operands on overlapping, non-adjacent supports."""
        rng = np.random.default_rng(17)
        ops = []
        for sites, is_complex in [((2,), False), ((1, 7), True), ((2, 4), False), ((1, 4, 7), True)]:
            lay = self.FULL.subset(sites)
            mat = rng.standard_normal((lay.dim, lay.dim))
            if is_complex:
                mat = mat + 1j * rng.standard_normal((lay.dim, lay.dim))
            ops.append(DenseOperator(lay, mat))
        return ops

    @pytest.mark.parametrize("pick", [slice(None), slice(None, None, -1), slice(2, None, -2)],
                             ids=["mixed", "reversed", "real"])
    def test_bit_equal_to_added_embeds_and_kron_reference(self, pick):
        ops = self._operands()[pick]
        union = self.FULL.subset(set().union(*(op.sites for op in ops)))
        got = embed_sum(ops)
        assert got.layout == union
        added = np.zeros((union.dim, union.dim))
        for op in ops:
            added = added + embed(op, union).mat
        want = kron_hamiltonian([(op.mat, op.sites) for op in ops], union.sites, self.DIMS)
        assert got.mat.dtype == added.dtype == want.dtype
        assert got.mat.tobytes() == added.tobytes() == want.tobytes()

    def test_operand_order_is_the_summation_order(self):
        a, b, c = (DenseOperator(Q1, np.array([[x, 0.0], [0.0, 1.0]])) for x in (1.0, 1e-16, -1.0))
        assert embed_sum([a, b, c]).mat[0, 0] == (1.0 + 1e-16) - 1.0
        assert embed_sum([a, c, b]).mat[0, 0] == 1e-16

    def test_empty_sum_on_a_layout_is_hermitian_real_zero(self):
        got = embed_sum([], Q12)
        assert got.mat.dtype == np.float64 and got.hermitian
        assert got.mat.tobytes() == np.zeros((4, 4)).tobytes()

    def test_hermitian_flag_is_the_and_of_the_operands(self):
        h = random_hermitian(0, Q1)
        plain = DenseOperator(Q12, np.eye(4))
        assert h.hermitian and not plain.hermitian
        assert embed_sum([h, h]).hermitian
        assert not embed_sum([h, plain]).hermitian
        assert not embed_sum([plain]).hermitian

    def test_embed_is_the_one_operand_case(self):
        op = self._operands()[1]
        assert embed(op, self.FULL).mat.tobytes() == embed_sum([op], self.FULL).mat.tobytes()
        assert embed(op, op.layout) is op


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


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSiteMap:
    """Embedding adds into one strided view and the partial trace sums over
    it: byte-equal to the letter-einsum reference, and adjoint to embedding."""

    @staticmethod
    def assert_matches_reference(mat, layout, traced):
        want_layout, want = letter_partial_trace(mat, layout, set(traced))
        got_layout, got = _partial_trace(mat, layout, frozenset(traced))
        assert got_layout == want_layout
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        if mat.ndim == 2:
            op = DenseOperator(layout, mat)
            assert partial_trace(op, traced).mat.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 2, 3)],
                             ids=["qubits", "qutrits", "mixed"])
    def test_every_traced_subset_byte_equal(self, dims):
        layout = SiteLayout((2, 5, 7, 11), dims)  # ids with gaps: no site is its axis
        mat = complex_gaussian(np.random.default_rng(sum(dims)), (layout.dim, layout.dim))
        for r in range(len(dims) + 1):
            for traced in itertools.combinations(layout.sites, r):
                self.assert_matches_reference(mat, layout, traced)

    def test_real_input_and_non_adjacent_sites(self):
        layout = SiteLayout((1, 2, 3, 4, 5), (2, 3, 2, 2, 3))
        mat = np.random.default_rng(1).standard_normal((layout.dim, layout.dim))
        for traced in [(1, 3), (2, 5), (1, 3, 5), (2, 4)]:
            self.assert_matches_reference(mat, layout, traced)

    def test_stacks_byte_equal(self):
        layout = SiteLayout((1, 2, 3), (2, 3, 2))
        stack = complex_gaussian(np.random.default_rng(2), (4, layout.dim, layout.dim))
        for traced in [(1,), (2,), (1, 3), (1, 2, 3)]:
            self.assert_matches_reference(stack, layout, traced)
            _, got = _partial_trace(stack, layout, frozenset(traced))
            for k in range(len(stack)):  # each matrix as it is traced alone
                assert got[k].tobytes() == _partial_trace(stack[k], layout, frozenset(traced))[1].tobytes()

    def test_fortran_ordered_and_read_only_input(self):
        layout = SiteLayout((1, 2, 3), (2, 2, 3))
        op = DenseOperator(layout, complex_gaussian(np.random.default_rng(3), (layout.dim, layout.dim)))
        flipped = DenseOperator(layout, op.mat.conj().T)  # the adjoint, F-ordered
        assert flipped.mat.flags.f_contiguous and not flipped.mat.flags.c_contiguous
        assert not op.mat.flags.writeable and not flipped.mat.flags.writeable
        for mat in (op.mat, flipped.mat):
            for traced in [(1,), (3,), (1, 3), (2, 3)]:
                self.assert_matches_reference(mat, layout, traced)

    def test_adjoint_to_embedding(self):
        # Tr[(A ⊗ I) B] = Tr[A Tr_rest B]
        rng = np.random.default_rng(4)
        full = SiteLayout((2, 5, 7, 11), (2, 3, 2, 3))
        b = DenseOperator(full, complex_gaussian(rng, (full.dim, full.dim)))
        for r in (1, 2, 3):
            for sites in itertools.combinations(full.sites, r):
                lay = full.subset(sites)
                a = DenseOperator(lay, complex_gaussian(rng, (lay.dim, lay.dim)))
                lhs = np.trace(embed(a, full).mat @ b.mat)
                rhs = np.trace(a.mat @ partial_trace(b, set(full.sites) - set(sites)).mat)
                assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_unknown_sites_rejected(self):
        op = random_hermitian(5, Q123)
        with pytest.raises(SiteMismatchError, match=r"\[9\] not in layout"):
            partial_trace(op, {9})
        with pytest.raises(SiteMismatchError):
            partial_trace(op, {1, 9})
        with pytest.raises(SiteMismatchError, match=r"\[9\] not in layout"):
            Q123.drop({9})


class TestFloatRange:
    """Frobenius-norm tests on matrices whose squared norm is past the float
    range decide as they do on the same matrices scaled down, with no warning."""

    def test_hermiticity_and_norms_of_huge_operators(self):
        rng = np.random.default_rng(6)
        herm = hermitize(complex_gaussian(rng, (8, 8)))
        general = complex_gaussian(rng, (8, 8))
        layout = SiteLayout((1, 2, 3), (2, 2, 2))
        for scale in (1.0, 1e200, 2.0**1000):
            big = DenseOperator(layout, scale * herm)
            assert trace_norm(big) == pytest.approx(scale * trace_norm(DenseOperator(layout, herm)), rel=1e-12)
            assert op_norm(big) == pytest.approx(scale * op_norm(DenseOperator(layout, herm)), rel=1e-12)
            operators.assert_hermitian(big.mat)
            with pytest.raises(NonHermitianError):
                operators.assert_hermitian(scale * general)
            assert op_norm(DenseOperator(layout, scale * general)) == pytest.approx(
                scale * op_norm(DenseOperator(layout, general)), rel=1e-12)

    def test_reversal_blocks_of_a_huge_matrix(self):
        herm = random_hermitian(7, Q123).mat
        symmetric = herm + herm[::-1, ::-1]
        want = _reversal_blocks(symmetric)
        got = _reversal_blocks(1e200 * symmetric)
        assert want is not None and got is not None
        assert np.allclose(got, 1e200 * want, rtol=1e-14, atol=0)
        assert _reversal_blocks(1e200 * herm) is None

    def test_dynamic_range_error_is_an_operator_error(self):
        err = pickle.loads(pickle.dumps(DynamicRangeError("beta 300 needs exp(1550)")))
        assert isinstance(err, OperatorError)
        assert str(err) == "beta 300 needs exp(1550)"

    def test_exp_stays_inside_the_float_range(self):
        # exp(800) overflowed in np.exp; exp(709.5) is finite, but hermitize's M + M† was not.
        assert matrix_exp_h(DenseOperator(Q1, np.diag([709.0, 0.0]))).mat[0, 0] == np.exp(709.0)
        blocked = DenseOperator(Q12, np.diag([709.0, 1.0, 1.0, 709.0]))  # split by _reversal_blocks
        assert np.isfinite(matrix_exp_h(blocked).mat).all()
        for top in (709.5, 800.0):
            with pytest.raises(DynamicRangeError, match=rf"eigenvalue {top} past 709\.0896"):
                matrix_exp_h(DenseOperator(Q1, np.diag([top, 0.0])))


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


class TestGibbsBeta:
    """``gibbs_state`` and the reduced ``_gibbs`` take beta by the positive rule:
    NaN gave an all-NaN state, -1 gave exp(+H) / Z, and inf leaked a warning."""

    @pytest.mark.parametrize("beta", [float("nan"), -1.0, float("inf"), 0.0, True, "1"],
                             ids=["nan", "negative", "inf", "zero", "bool", "str"])
    def test_beta_follows_the_positive_rule(self, beta):
        ham = DenseOperator(Q12, np.diag([1.0, 0.0, 2.0, 3.0]))
        with pytest.raises(OperatorError, match="beta must be a finite positive number"):
            gibbs_state(ham, beta)
        with pytest.raises(OperatorError, match="beta must be a finite positive number"):
            operators._gibbs(Q12, _spectrum(ham.mat), beta, frozenset({1}))


class TestFiniteEntries:
    """A matrix the package did not build is copied, and its entries must be
    finite: a NaN sent ``trace_norm`` to an SVD that did not converge, an inf
    leaked a subtraction warning.  A Gibbs state whose beta times spread is
    past the float range raises ``DynamicRangeError``: diag(1e308, -1e308)
    leaked an overflow warning."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "-inf", "nanj"])
    def test_copying_door_refuses_non_finite_entries(self, bad):
        mat = np.eye(4, dtype=np.result_type(bad, float))
        mat[1, 2] = bad
        with pytest.raises(OperatorError, match="finite"):
            DenseOperator(Q12, mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_trace_norm_never_sees_non_finite_entries(self, bad):
        with pytest.raises(OperatorError, match="finite"):
            trace_norm(DenseOperator(Q1, np.array([[1.0, 0.0], [bad, 1.0]])))

    @pytest.mark.parametrize("w, beta", [([1e308, -1e308], 1.0), ([1e10, 0.0], 1e300)],
                             ids=["spread", "beta_times_spread"])
    def test_gibbs_state_past_the_float_range(self, w, beta):
        with pytest.raises(DynamicRangeError, match="past the float range"):
            gibbs_state(DenseOperator(Q1, np.diag(w)), beta)
        with pytest.raises(DynamicRangeError, match="past the float range"):
            operators._gibbs_weights(np.array(w), beta)


def _chain_hamiltonian(factory: str, n: int) -> DenseOperator:
    term = transverse_ising(1.0, 0.7) if factory == "tfim" else random_two_local(seed=n)
    return edge_hamiltonian(build_chain(n, 2, term, beta=1.0))


class TestReducedGibbs:
    """``operators._gibbs`` reduces a Gibbs state straight from the spectrum:
    a blocked spectrum (TFIM) through the whole state, an unblocked one
    (random2) as Y Y† with the traced axes folded into Y's columns.  Both equal
    the partial trace of ``gibbs_state``'s whole state within 1e-13."""

    @settings(max_examples=40, deadline=None)
    @given(
        factory=st.sampled_from(["tfim", "random2"]),
        n=st.integers(min_value=2, max_value=6),
        beta=st.floats(min_value=0.05, max_value=4.0),
        picks=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    @example(factory="random2", n=6, beta=1.0, picks=[False] * 6)  # nothing traced
    @example(factory="random2", n=6, beta=1.0, picks=[True] * 5 + [False])  # all but one
    @example(factory="random2", n=6, beta=1.0, picks=[True, False, True, False, False, True])
    @example(factory="tfim", n=6, beta=1.0, picks=[False, True, True, True, True, True])
    @example(factory="tfim", n=6, beta=1.0, picks=[True, False, True, False, False, True])
    def test_equals_partial_trace_of_the_whole_state(self, factory, n, beta, picks):
        traced = frozenset(s for s, pick in zip(range(1, n + 1), picks) if pick)
        if len(traced) == n:
            traced -= {n}
        ham = _chain_hamiltonian(factory, n)
        spectrum = _spectrum(ham.mat)
        assert spectrum[2] == (factory == "tfim")
        got, log_z = operators._gibbs(ham.layout, spectrum, beta, traced)
        whole, want_log_z = gibbs_state(ham, beta)
        want = partial_trace(whole, traced)
        assert got.layout == want.layout
        assert np.abs(got.mat - want.mat).max() <= 1e-13
        assert np.array_equal(got.mat, got.mat.conj().T)
        assert log_z == want_log_z

    def test_blocked_and_untraced_are_the_whole_state_bit_for_bit(self):
        for factory, traced in (("tfim", frozenset({2, 5})), ("random2", frozenset())):
            ham = _chain_hamiltonian(factory, 6)
            got, _ = operators._gibbs(ham.layout, _spectrum(ham.mat), 1.3, traced)
            assert got.mat.tobytes() == partial_trace(gibbs_state(ham, 1.3)[0], traced).mat.tobytes()

    def test_blocks_of_eigenvectors_sum_to_one_product(self, monkeypatch):
        ham = _chain_hamiltonian("random2", 6)
        spectrum = _spectrum(ham.mat)
        traced = frozenset({1, 4})
        whole, _ = operators._gibbs(ham.layout, spectrum, 0.8, traced)
        monkeypatch.setattr(operators, "GIBBS_BLOCK", 7)  # ten blocks, the last of one vector
        blocked, _ = operators._gibbs(ham.layout, spectrum, 0.8, traced)
        assert np.abs(blocked.mat - whole.mat).max() <= 1e-15


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
        """A density's log round-trips at the one floor every log applies."""
        rho = random_density(7, Q12)
        assert assert_density(rho)[0] > LOG_EIG_FLOOR
        back = matrix_exp_h(matrix_log_pd(rho))
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


    def test_infinite_hermiticity_defect_fails_without_a_warning(self):
        # M - M† overflowed: RuntimeWarning "overflow encountered in subtract".
        mat = np.array([[0.0, 1e308], [-1e308, 0.0]])
        assert not operators._hermitian(mat).any()
        assert operators._hermitian(np.array([[0.0, 1e308], [1e308, 0.0]])).all()

    @pytest.mark.parametrize("mat", [[[0.0, 1e308], [-1e308, 0.0]], [[1e308, 0.0], [0.0, -1e308]]],
                             ids=["non_hermitian", "hermitian"])
    def test_trace_norm_past_the_float_range(self, mat):
        # The singular values' sum overflowed: "overflow encountered in reduce".
        op = DenseOperator(Q1, mat)
        with pytest.raises(DynamicRangeError, match="past the float range"):
            trace_norm(op)
        assert op_norm(op) == 1e308


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
            x - x,
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
            (lambda m: _exp_h(m)[0], herm),
            (lambda m: _exp_h(m)[1], herm),
            (lambda m: _log_pd(m)[0], dens),
            (lambda m: _log_pd(m)[1], dens),
            (lambda m: _partial_trace(m, Q123, frozenset({2}))[1], herm),
            (_trace_norm, herm),
            (_op_norm, herm),
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
            operators.assert_hermitian(stack)


def _tfim_hamiltonian(n: int) -> DenseOperator:
    return edge_hamiltonian(build_chain(n, 2, transverse_ising(1.0, 0.7), beta=1.0))


def _complex_reversal_symmetric() -> DenseOperator:
    lay = SiteLayout(tuple(range(6)), (2,) * 6)
    m = random_hermitian(11, lay).mat
    return DenseOperator(lay, m + m[::-1, ::-1])


@pytest.fixture
def solved_shapes(monkeypatch):
    """Shapes of every matrix (or stack) handed to eigh and eigvalsh: numpy's,
    or ``operators._zheevd``, which solves one complex matrix as eigh."""
    shapes = []

    def recording(original):
        def recorded(mat, *args, **kwargs):
            shapes.append(mat.shape)
            return original(mat, *args, **kwargs)
        return recorded

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    monkeypatch.setattr(operators, "_zheevd", recording(operators._zheevd))
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
        solved_shapes.clear()  # random2's edge normalisations solve 4 x 4 terms
        assert operators._reversal_blocks(mat) is None
        got, got_w = _exp_h(mat)
        _trace_norm(mat)
        assert solved_shapes == [mat.shape, mat.shape]
        w, v = operators._eigh(mat)
        want = hermitize((v * np.exp(w)[..., None, :]) @ v.conj().swapaxes(-1, -2))
        assert np.array_equal(got, want) and np.array_equal(got_w, w)


def _complex_hermitian(d: int, stack: tuple = (), seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = stack + (d, d)
    return hermitize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _allocated(fn, *args):
    """fn(*args), and the peak bytes allocated while it ran beyond those live before."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def _staged_bound(d: int) -> float:
    """Bytes ``_zheevd`` may allocate beyond its input: d² complex and 5 %,
    plus O(d), the output buffer's 4d + 1 extra doubles, zunmtr's 65d + 4160
    entries, w, e, tau and iwork (1144d + 66592 bytes), and 16 kB of Python objects."""
    return 16 * d * d * 1.05 + 16 * (72 * d + 4160) + 2**14


def _repeated_eigenvalues(d: int = 256) -> np.ndarray:
    """A complex Hermitian matrix with four d/4-fold eigenvalues."""
    rng = np.random.default_rng(12)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    return hermitize((u * np.repeat([-1.0, 0.5, 2.0, 3.0], d // 4)) @ u.conj().T)


STAGED = pytest.mark.skipif(
    operators._lapack() is None or zheevd(np.eye(1, dtype=np.complex128)) is None,
    reason="numpy's BLAS lacks zheevd or one of its stages",
)

#: Inputs on which the staged solve must equal the monolithic zheevd.
ZHEEVD_CASES = {
    "lone64": lambda: _complex_hermitian(64),
    "lone100": lambda: _complex_hermitian(100),
    "lone512": lambda: _complex_hermitian(512),
    "stack3": lambda: _complex_hermitian(80, (3,)),
    "repeated": _repeated_eigenvalues,
    "scaled_1e-150": lambda: _complex_hermitian(100) * 1e-150,
    "scaled_1e150": lambda: _complex_hermitian(100) * 1e150,
}


class TestZheevd:
    """Complex matrices from ``ZHEEVD_MIN_DIM`` go to zheevd's stages with a
    blocked workspace: eigenvalues and vectors bit-equal to the monolithic
    zheevd (``oracles.zheevd``), eigenvalues bit-equal to numpy's, vectors
    orthonormal and functions equal to numpy's at roundoff.  Everything else,
    and every matrix when a stage is missing, is numpy's eigh bit for bit."""

    @pytest.mark.parametrize("stack", [(), (2,)], ids=["lone", "stack2"])
    @pytest.mark.parametrize("d", [64, 100, 512])
    def test_agrees_with_numpy(self, d, stack):
        mat = _complex_hermitian(d, stack)
        w, v = operators._eigh(mat)
        w_np, v_np = np.linalg.eigh(mat)
        assert w.shape == w_np.shape and v.shape == v_np.shape
        assert np.array_equal(w, w_np)
        assert np.abs(v.conj().swapaxes(-1, -2) @ v - np.eye(d)).max() <= 1e-13
        for k in np.ndindex(stack):
            f = (v[k] * np.exp(-w[k])) @ v[k].conj().T
            f_np = (v_np[k] * np.exp(-w_np[k])) @ v_np[k].conj().T
            assert _rel(f, f_np) <= 1e-13
            if stack:  # each matrix of a stack is solved as it is alone
                lone_w, lone_v = operators._eigh(mat[k])
                assert np.array_equal(w[k], lone_w) and np.array_equal(v[k], lone_v)

    @STAGED
    @pytest.mark.parametrize("name", ZHEEVD_CASES)
    def test_bit_equal_to_monolithic_zheevd(self, name):
        mat = ZHEEVD_CASES[name]()
        w, v = operators._eigh(mat)
        for k in np.ndindex(mat.shape[:-2]):
            w_want, v_want = zheevd(mat[k])
            assert np.array_equal(w[k], w_want) and np.array_equal(v[k], v_want)
            w_in, v_in = operators._eigh(mat[k].copy(), True)
            assert np.array_equal(w_in, w_want) and np.array_equal(v_in, v_want)

    @STAGED
    @pytest.mark.parametrize("d", [64, 300])
    def test_overwrite_is_bit_equal_in_the_input_buffer(self, d):
        mat = _complex_hermitian(d)
        kept = mat.copy()
        w_want, v_want = zheevd(kept.copy(), overwrite=True)
        w, v = operators._zheevd(mat)
        assert np.array_equal(mat, kept)  # the copying call leaves its input alone
        assert np.array_equal(w, w_want) and np.array_equal(v, v_want)
        (w_in, v_in), extra = _allocated(operators._zheevd, mat, True)
        assert np.array_equal(w_in, w) and np.array_equal(v_in, v) and v_in.flags.f_contiguous
        assert extra <= _staged_bound(d)  # the vectors' array and O(d): the input holds the reflectors
        read_only = kept.copy()
        read_only.setflags(write=False)  # not the caller's to give: copied
        w_ro, v_ro = operators._zheevd(read_only, overwrite=True)
        assert np.array_equal(read_only, kept) and np.array_equal(w_ro, w) and np.array_equal(v_ro, v)
        f_order = np.asfortranarray(kept)
        w_f, v_f = operators._zheevd(f_order, overwrite=True)
        assert np.array_equal(f_order, kept) and np.array_equal(w_f, w) and np.array_equal(v_f, v)

    @STAGED
    def test_overwrite_allocates_one_complex_square(self):
        """Beyond its input, d² complex entries and O(d); the monolithic
        zheevd's workspace alone is 2d² complex."""
        d = 512
        (w, v), extra = _allocated(operators._eigh, _complex_hermitian(d), True)
        assert extra <= _staged_bound(d)
        (w_want, v_want), extra_want = _allocated(zheevd, _complex_hermitian(d), True)
        assert extra_want > 2 * 16 * d * d
        assert np.array_equal(w, w_want) and np.array_equal(v, v_want)

    @pytest.mark.parametrize("mat", [
        _complex_hermitian(16, (3,)),
        _complex_hermitian(512).real.copy(),
    ], ids=["complex16_stack", "real512"])
    def test_small_complex_and_real_stay_numpy(self, mat):
        for got, want in zip(operators._eigh(mat), np.linalg.eigh(mat)):
            assert np.array_equal(got, want)

    def test_without_the_routine_is_numpy(self, monkeypatch):
        monkeypatch.setattr(operators, "_lapack", lambda: None)
        mat = _complex_hermitian(100, (2,))
        for got, want in zip(operators._eigh(mat), np.linalg.eigh(mat)):
            assert np.array_equal(got, want)

    def test_one_missing_stage_is_numpy(self, monkeypatch):
        library = operators._openblas()

        class WithoutDstedc:
            def __getattr__(self, name):
                if "dstedc" in name:
                    raise AttributeError(name)
                return getattr(library, name)
        monkeypatch.setattr(operators, "_openblas", WithoutDstedc)
        assert operators._lapack.__wrapped__() is None

    @STAGED
    def test_routes_by_dtype_and_dimension(self, monkeypatch):
        solved, original = [], operators._zheevd
        monkeypatch.setattr(operators, "_zheevd", lambda mat: solved.append(mat.shape) or original(mat))
        operators._eigh(_complex_hermitian(64, (2,)))
        operators._eigh(_complex_hermitian(48))
        operators._eigh(_complex_hermitian(64).real.copy())
        assert solved == [(64, 64), (64, 64)]

    @STAGED
    def test_failure_is_linalg_error(self, monkeypatch):
        for stage in ("zlascl", "zhetrd", "dstedc", "zunmtr"):
            stages = dict(operators._lapack(), **{stage: lambda *args: 3})
            with monkeypatch.context() as m:
                m.setattr(operators, "_lapack", lambda: stages)
                with pytest.raises(np.linalg.LinAlgError, match=f"{stage} failed with info 3"):
                    operators._eigh(_complex_hermitian(64) * 1e150)  # scaled, so zlascl runs
        with pytest.raises(np.linalg.LinAlgError, match="square"):
            operators._zheevd(np.zeros((64, 65), dtype=np.complex128))


def _apply_input(d: int, shape: str, dtype: str) -> np.ndarray:
    mat = _complex_hermitian(d, (2,) if shape == "stack2" else (), seed=d)
    mat = mat.real.copy() if dtype == "real" else mat
    return mat + mat[::-1, ::-1] if shape == "blocked" else mat


class TestApplyInOneBuffer:
    """``_apply`` holds its result and one scaled copy of the eigenvectors,
    symmetrizes in place and assembles a blocked result in place, and is
    bit-equal to the product-then-hermitize route (``oracles.apply``)."""

    @pytest.mark.parametrize("dtype", ["real", "complex"])
    @pytest.mark.parametrize("d, shape", [
        (d, shape) for d in (1, 2, 3, 64, 255, 256, 257, 300)
        for shape in ("lone", "stack2", "blocked") if shape != "blocked" or d % 2 == 0
    ])
    def test_bit_equal_to_hermitized_product(self, d, shape, dtype):
        spectrum = _spectrum(_apply_input(d, shape, dtype))
        assert spectrum[2] == (shape == "blocked")
        got, got_w = _apply(spectrum, np.exp)
        want, want_w = apply(spectrum, np.exp)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
        assert np.array_equal(got_w, want_w)

    def test_lone_allocates_result_and_one_copy(self):
        d = 512
        spectrum = _spectrum(_complex_hermitian(d))
        _, extra = _allocated(_apply, spectrum, np.exp)
        assert extra <= 2 * 16 * d * d * 1.05
        _, extra_want = _allocated(apply, spectrum, np.exp)
        assert extra_want > 3 * 16 * d * d

    def test_blocked_allocates_result_and_one_stack(self):
        d, h = 512, 256
        spectrum = _spectrum(_apply_input(d, "blocked", "complex"))
        assert spectrum[2]
        _, extra = _allocated(_apply, spectrum, np.exp)
        assert extra <= 16 * (d * d + 2 * h * h) * 1.05
        _, extra_want = _allocated(apply, spectrum, np.exp)
        assert extra_want > 2 * 16 * d * d

    def test_blocks_allocate_one_stack(self):
        """The reversal screen forms M - J M J by row blocks, not in a d/2 × d temporary."""
        d, h = 1024, 512
        blocks, extra = _allocated(_reversal_blocks, _apply_input(d, "blocked", "complex"))
        assert blocks.shape == (2, h, h)
        assert extra <= 16 * 2 * h * h * 1.05

    def test_hermiticity_test_conjugates_one_row_block_at_a_time(self):
        """M - M† is formed ``GIBBS_BLOCK`` rows at a time, with no conjugated copy of M."""
        d = 1024
        mat = _complex_hermitian(d)
        hermitian, extra = _allocated(operators._hermitian, mat)
        assert hermitian
        assert extra <= 3 * 16 * operators.GIBBS_BLOCK * d
