import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from qbp import operators, propagation
from qbp.models import adjacency
from qbp.operators import embed_sum, gibbs_state, matrix_log_pd, partial_trace
from qbp import (
    DenseOperator,
    ModelError,
    NonHermitianError,
    OperatorError,
    PAULI_X,
    PAULI_Z,
    SiteLayout,
    SiteMismatchError,
    build_chain,
    build_tree,
    circle_product,
    classical_ising,
    exact_reduced_density,
    heisenberg,
    matrix_exp_h,
    message_update,
    op_norm,
    random_density,
    random_hermitian,
    random_two_local,
    run_exact_bp,
    run_sliding_window,
    thermal_state,
    trace_norm,
    transverse_ising,
    window_error_sweep,
)

from oracles import (
    classical_chain_message,
    classical_marginal,
    nx_graph,
    round_based_exact_bp,
    sliding_window_oracle,
)

Q1 = SiteLayout((1,), (2,))

# Exact-diagonalization regression values for the transverse-field chain at
# J = hx = 1, beta = 1 (the standard non-Markov witness).
TFIM6_BP_ERROR = 0.0008872542686286788
TFIM8_WINDOW_ERRORS = {1: 0.0008871750552193469, 4: 5.880585518536715e-09}

FACTORIES = {
    "classical": classical_ising(1.0),
    "tfim": transverse_ising(1.0, 1.0),
    "heisenberg": heisenberg(1.0),
    "random": random_two_local(seed=11),
}


class TestCircleProduct:
    def test_identity_absorbs(self):
        a = random_density(0, Q1)
        got = circle_product(DenseOperator.identity(Q1), a)
        assert op_norm(got - a) < 1e-12

    def test_commuting_diagonals(self):
        a = DenseOperator(Q1, np.diag([1.0, np.exp(-1.0)]))
        b = DenseOperator(Q1, np.diag([1.0, np.exp(-2.0)]))
        got = circle_product(a, b)
        assert np.allclose(got.mat, np.diag([1.0, np.exp(-3.0)]), atol=1e-12)

    def test_combines_exponents(self):
        ex = matrix_exp_h(DenseOperator(Q1, PAULI_X))
        ez = matrix_exp_h(DenseOperator(Q1, PAULI_Z))
        got = circle_product(ex, ez)
        w = np.linalg.eigvalsh(got.mat)
        assert np.allclose(w, [np.exp(-np.sqrt(2)), np.exp(np.sqrt(2))], atol=1e-12)

    def test_auto_embedding_disjoint_supports(self):
        a = random_density(1, SiteLayout((1,), (2,)))
        b = random_density(2, SiteLayout((2,), (2,)))
        got = circle_product(a, b)
        assert got.sites == (1, 2)
        assert np.allclose(got.mat, np.kron(a.mat, b.mat), atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_commutative_and_associative(self, seed):
        rng = np.random.default_rng(seed)
        lay = SiteLayout((1, 2), (2, 2))
        ops = [matrix_exp_h(0.5 * random_hermitian(rng, lay)) for _ in range(3)]
        a, b, c = ops
        ab = circle_product(a, b)
        ba = circle_product(b, a)
        assert op_norm(ab - ba) <= 1e-9 * op_norm(ab)
        left = circle_product(ab, c)
        right = circle_product(a, circle_product(b, c))
        assert op_norm(left - right) <= 1e-9 * op_norm(left)


class TestMessageUpdate:
    def test_base_case(self):
        m = build_chain(3, 2, transverse_ising(), beta=1.0)
        msg = message_update(m, 1, 2)
        want = linalg.expm(-1.0 * m.edge((1, 2)).term.mat)
        want = want.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
        want /= np.trace(want)
        assert np.allclose(msg.mat, want, atol=1e-12)
        assert msg.sites == (2,)

    def test_leaf_message_matches_whole_state_construction(self):
        m = build_chain(3, 2, heisenberg(0.6), beta=0.9)
        msg = message_update(m, 1, 2)
        full = linalg.expm(-0.9 * m.edge((1, 2)).term.mat)
        hand = np.array(
            [[full[0, 0] + full[2, 2], full[0, 1] + full[2, 3]],
             [full[1, 0] + full[3, 2], full[1, 1] + full[3, 3]]]
        )
        hand /= np.trace(hand)
        assert np.allclose(msg.mat, hand, atol=1e-12)

    def test_diagonal_model_matches_sum_product(self):
        m = build_chain(4, 2, classical_ising(0.8), beta=1.2)
        m01 = message_update(m, 1, 2)
        want01 = classical_chain_message(m, 1, 2)
        assert np.allclose(np.diag(m01.mat).real, want01, atol=1e-12)
        m12 = message_update(m, 2, 3, [m01])
        want12 = classical_chain_message(m, 2, 3, [want01])
        assert np.allclose(np.diag(m12.mat).real, want12, atol=1e-12)

    def test_messages_stay_positive_unit_trace(self):
        m = build_chain(5, 2, transverse_ising(1.0, 1.0), beta=1.5)
        msg = message_update(m, 1, 2)
        for u, v in ((2, 3), (3, 4), (4, 5)):
            msg = message_update(m, u, v, [msg])
            assert abs(msg.trace() - 1.0) < 1e-10
            assert np.linalg.eigvalsh(msg.mat)[0] > 0

    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("name", ["tfim", "heisenberg", "random"])
    def test_incoming_messages_match_the_traced_whole_state(self, name, n):
        """A message with incoming messages is Tr_u of the whole Gibbs state of
        K = beta h - sum of log m, which ``edge_gibbs_state`` folds out of K's
        spectrum without forming it; on a tree with a degree-3 vertex."""
        specs = [(1, 2), (2, 3), (2, 4)] + [(k - 1, k) for k in range(5, n + 1)]
        m = build_tree({k: 2 for k in range(1, n + 1)}, [(u, v, FACTORIES[name]) for u, v in specs], 1.0)
        adj = adjacency(m)
        errors = []

        def toward(u, v):
            incoming = [toward(w, u) for w in adj[u] if w != v]
            got = message_update(m, u, v, incoming)
            if incoming:
                k = embed_sum([m.beta * m.edge((u, v)).term, *(-matrix_log_pd(x) for x in incoming)])
                errors.append(trace_norm(got - partial_trace(gibbs_state(k, 1.0)[0], {u})))
            return got

        for u in adj[n]:
            toward(u, n)
        assert len(errors) == n - 3  # every message but the three leaves'
        assert max(errors) <= 1e-14

    def test_destination_overlap_rejected(self):
        m = build_chain(3, 2, classical_ising(), beta=1.0)
        bad = random_density(0, SiteLayout((3,), (2,)))
        with pytest.raises(SiteMismatchError):
            message_update(m, 2, 3, [bad])

    def test_missing_edge_rejected(self):
        m = build_chain(3, 2, classical_ising(), beta=1.0)
        with pytest.raises(ModelError):
            message_update(m, 1, 3)


class TestExactPropagation:
    def test_single_edge_model(self):
        m = build_chain(2, 2, heisenberg(0.9), beta=1.1)
        belief = run_exact_bp(m, 2)
        assert op_norm(belief - exact_reduced_density(m, {2})) < 1e-12

    def test_one_vertex_belief_is_the_thermal_state(self):
        m = build_tree({5: 3}, [], beta=0.8)
        belief = run_exact_bp(m, 5)
        assert belief is thermal_state(m)
        assert np.allclose(belief.mat, np.eye(3) / 3)

    def test_classical_chain_exact(self):
        m = build_chain(8, 2, classical_ising(1.0), beta=1.0)
        for target in (1, 8):
            err = trace_norm(run_exact_bp(m, target) - exact_reduced_density(m, {target}))
            assert err <= 1e-9

    def test_classical_tree_interior_target(self):
        dims = {k: 2 for k in range(1, 7)}
        specs = [(1, 2, classical_ising()), (2, 3, classical_ising()),
                 (2, 4, classical_ising()), (4, 5, classical_ising()),
                 (4, 6, classical_ising())]
        m = build_tree(dims, specs, beta=0.7)
        for target in m.vertices:
            err = trace_norm(run_exact_bp(m, target) - exact_reduced_density(m, {target}))
            assert err <= 1e-9

    def test_diagonal_beliefs_match_classical_marginals(self):
        m = build_chain(6, 2, classical_ising(1.3), beta=0.8)
        for target in (1, 3, 6):
            belief = run_exact_bp(m, target)
            marg = classical_marginal(m, target)
            assert np.allclose(np.diag(belief.mat).real, marg, atol=1e-9)
            assert np.allclose(belief.mat, np.diag(np.diag(belief.mat)), atol=1e-12)

    @pytest.mark.parametrize(
        "model",
        [
            build_tree(
                {k: 2 for k in range(1, 7)},
                [(1, 2, FACTORIES["random"]), (2, 3, FACTORIES["random"]),
                 (2, 4, FACTORIES["random"]), (4, 5, FACTORIES["random"]),
                 (4, 6, FACTORIES["random"])],
                beta=0.7,
            ),
            build_chain(6, 2, transverse_ising(1.0, 1.0), beta=1.0),
        ],
        ids=["tree6-random", "chain6-tfim"],
    )
    def test_one_pass_matches_round_based_schedule(self, model, monkeypatch):
        calls = []
        original = propagation.message_update

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(propagation, "message_update", counted)
        for target in model.vertices:
            calls.clear()
            belief = run_exact_bp(model, target)
            assert len(calls) == len(model.vertices) - 1
            assert np.array_equal(belief.mat, round_based_exact_bp(model, target))

    def test_tfim_documents_inexactness(self):
        m = build_chain(6, 2, transverse_ising(1.0, 1.0), beta=1.0)
        err = trace_norm(run_exact_bp(m, 6) - exact_reduced_density(m, {6}))
        assert err > 1e-4
        assert err == pytest.approx(TFIM6_BP_ERROR, rel=1e-6)


class TestSlidingWindow:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_full_window_is_exact(self, name):
        m = build_chain(6, 2, FACTORIES[name], beta=1.0)
        belief = run_sliding_window(m, 6, 5)
        assert trace_norm(belief - exact_reduced_density(m, {6})) <= 1e-9

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_full_window_is_the_exact_state_at_both_endpoints(self, name):
        m = build_chain(6, 2, FACTORIES[name], beta=1.0)
        for target in (1, 6):
            belief = run_sliding_window(m, target, 5)
            assert belief.mat.tobytes() == exact_reduced_density(m, {target}).mat.tobytes()

    @pytest.mark.parametrize("name", ["tfim", "random"])
    @pytest.mark.parametrize("n", [6, 7])
    def test_matches_independent_oracle(self, name, n):
        """Every window at both endpoints, against an oracle that shares no
        qbp numerics; tfim runs on the block path, random2 on the full path.

        Each of the at most n - 1 steps takes one exp and one log of an
        exponent whose norm is at most beta * sum ||h_e|| + ln d, through a
        backward-stable eigensolve of dimension at most d = 2**n, so the two
        beliefs agree within (n - 1) d eps (beta * sum ||h_e|| + ln d) in trace
        norm (Higham, Functions of Matrices, 2008, ch. 10-11)."""
        m = build_chain(n, 2, FACTORIES[name], beta=1.0)
        d = 2**n
        exponent = m.beta * sum(op_norm(e.term) for e in m.edges) + np.log(d)
        tol = (n - 1) * d * np.finfo(float).eps * exponent
        for target in (1, n):
            for window in range(1, n):
                got = run_sliding_window(m, target, window).mat
                want = sliding_window_oracle(m, target, window)
                assert np.linalg.norm(got - want, "nuc") <= tol, (target, window)

    def test_window_one_classical_equals_exact_propagation(self):
        m = build_chain(6, 2, classical_ising(1.0), beta=1.0)
        sw = run_sliding_window(m, 6, 1)
        bp = run_exact_bp(m, 6)
        assert op_norm(sw - bp) < 1e-12

    def test_two_site_chain(self):
        m = build_chain(2, 2, transverse_ising(), beta=1.0)
        err = trace_norm(run_sliding_window(m, 2, 1) - exact_reduced_density(m, {2}))
        assert err <= 1e-9

    def test_target_can_be_either_endpoint(self):
        m = build_chain(5, 2, transverse_ising(1.0, 1.0), beta=1.0)
        err = trace_norm(run_sliding_window(m, 1, 4) - exact_reduced_density(m, {1}))
        assert err <= 1e-9

    def test_tfim_error_shrinks_with_window(self):
        m = build_chain(8, 2, transverse_ising(1.0, 1.0), beta=1.0)
        oracle = exact_reduced_density(m, {8})
        errs = {
            ell: trace_norm(run_sliding_window(m, 8, ell) - oracle) for ell in (1, 4)
        }
        assert errs[4] < errs[1]
        for ell, want in TFIM8_WINDOW_ERRORS.items():
            assert errs[ell] == pytest.approx(want, rel=1e-5)

    def test_non_chain_and_bad_target_rejected(self):
        dims = {k: 2 for k in range(1, 5)}
        specs = [(1, 2, classical_ising()), (1, 3, classical_ising()),
                 (1, 4, classical_ising())]
        star = build_tree(dims, specs, beta=1.0)
        with pytest.raises(ModelError):
            run_sliding_window(star, 2, 1)
        chain = build_chain(4, 2, classical_ising(), beta=1.0)
        with pytest.raises(ModelError):
            run_sliding_window(chain, 2, 1)
        with pytest.raises(ModelError):
            run_sliding_window(chain, 4, 0)

    def test_chain_ends(self):
        star = build_tree({k: 2 for k in range(1, 5)},
                          [(1, k, classical_ising()) for k in (2, 3, 4)], beta=1.0)
        with pytest.raises(ModelError, match="not a chain"):
            propagation.chain_ends(star)
        assert propagation.chain_ends(build_chain(4, 2, classical_ising(), beta=1.0)) == (1, 4)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_chain_order_is_the_path_from_the_far_end(self, n):
        # Gapped ids laid along the chain out of numeric order.
        ids = [int(k) for k in np.random.default_rng(n).permutation(np.arange(3, 3 + 5 * n, 5))]
        specs = [(ids[k], ids[k + 1], classical_ising()) for k in range(n - 1)]
        m = build_tree({v: 2 for v in ids}, specs, beta=1.0)
        g = nx_graph(m)
        for far, target in ((ids[0], ids[-1]), (ids[-1], ids[0])):
            assert propagation.chain_order(m, target) == nx.shortest_path(g, far, target)
        if n > 2:
            with pytest.raises(ModelError, match="not a chain endpoint"):
                propagation.chain_order(m, ids[1])


class TestEdgeTermsFlaggedOnce:
    """An edge term is tested for Hermiticity once, when the model is built;
    every sum built from it after that is known Hermitian."""

    @pytest.mark.parametrize("name", ["tfim", "random"])
    def test_propagation_makes_no_hermiticity_test(self, name, monkeypatch):
        m = build_chain(8, 2, FACTORIES[name], beta=1.0)
        assert all(e.term.hermitian for e in m.edges)
        tested = []
        hermitian = operators._hermitian
        monkeypatch.setattr(operators, "_hermitian", lambda mat: tested.append(mat.shape) or hermitian(mat))
        for window in range(1, 8):
            run_sliding_window(m, 8, window)
        run_exact_bp(m, 8)
        assert tested == []

    def test_non_hermitian_edge_term_rejected(self):
        skew = np.triu(np.ones((4, 4)))
        with pytest.raises(NonHermitianError):
            build_tree({1: 2, 2: 2}, [(1, 2, skew)], beta=1.0)


class TestLargeBeta:
    """The 8-site transverse-field chain at inverse temperatures where bare
    exponentials of its edge terms leave double precision.  The pytest
    configuration turns every RuntimeWarning into an error."""

    @pytest.mark.parametrize("beta", [5.0, 20.0, 60.0, 200.0])
    def test_exact_bp_belief_is_finite_unit_trace(self, beta):
        m = build_chain(8, 2, transverse_ising(1.0, 1.0), beta=beta)
        belief = run_exact_bp(m, 8)
        assert np.isfinite(belief.mat).all()
        assert belief.trace() == pytest.approx(1.0, abs=1e-12)

    def test_sliding_window_failure_is_typed(self):
        m = build_chain(8, 2, transverse_ising(1.0, 1.0), beta=200.0)
        with pytest.raises(OperatorError):
            run_sliding_window(m, 8, 3)


class TestWindowErrorSweep:
    def test_classical_all_noise_no_slope(self):
        m = build_chain(6, 2, classical_ising(1.0), beta=1.0)
        sweep = window_error_sweep(m, 6, [1, 2, 3, 4, 5])
        assert all(err <= 1e-9 for _, err in sweep.entries)
        assert sweep.slope is None

    def test_tfim_negative_slope(self):
        m = build_chain(8, 2, transverse_ising(1.0, 1.0), beta=1.0)
        sweep = window_error_sweep(m, 8, range(1, 7))
        assert sweep.slope is not None and sweep.slope < 0

    def test_single_point_chain(self):
        m = build_chain(2, 2, classical_ising(), beta=1.0)
        sweep = window_error_sweep(m, 2, [1])
        assert len(sweep.entries) == 1
        assert sweep.entries[0][1] <= 1e-9
        assert sweep.slope is None


class TestPerturbationStability:
    def test_normalized_products_move_linearly(self):
        # perturbing the exponents by eps moves the normalized circle
        # product by at most 2(eps_a + eps_b) in operator norm
        rng = np.random.default_rng(21)
        lay = SiteLayout((1, 2), (2, 2))
        for _ in range(40):
            h_a = random_hermitian(rng, lay)
            h_b = random_hermitian(rng, lay)
            h_a = (1.0 / op_norm(h_a)) * h_a
            h_b = (1.0 / op_norm(h_b)) * h_b
            eps_a, eps_b = rng.uniform(1e-3, 1e-1, size=2)
            d_a = random_hermitian(rng, lay)
            d_b = random_hermitian(rng, lay)
            d_a = (eps_a / op_norm(d_a)) * d_a
            d_b = (eps_b / op_norm(d_b)) * d_b

            def normalized(x, y):
                prod = circle_product(matrix_exp_h(x), matrix_exp_h(y))
                return prod.mat / np.trace(prod.mat).real

            drift = np.linalg.norm(
                normalized(h_a, h_b) - normalized(h_a + d_a, h_b + d_b), 2
            )
            assert drift <= 2.0 * (eps_a + eps_b) + 1e-9
