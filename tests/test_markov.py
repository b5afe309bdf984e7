import numpy as np
import pytest

from qbp import (
    DenseOperator,
    ModelError,
    NonDensityError,
    SiteLayout,
    TripartiteSplit,
    build_chain,
    build_tree,
    classical_ising,
    cmi,
    deficiency_rows,
    diameter,
    heisenberg,
    leaf_trace_preserves_markov,
    random_density,
    thermal_state,
    transverse_ising,
    von_neumann_entropy,
)

Q3 = SiteLayout((1, 2, 3), (2, 2, 2))

# Exact-diagonalization witness that the transverse-field chain fails the
# radius-1 conditional-independence test (N=6, J=hx=1, beta=1).
TFIM6_DEFICIENCY = 0.007694985896863238


def classical_markov_chain_density():
    """Diagonal embedding of p(x1) p(x2|x1) p(x3|x2) for random kernels."""
    rng = np.random.default_rng(12)
    p1 = rng.dirichlet([1.0, 1.0])
    k12 = np.vstack([rng.dirichlet([1.0, 1.0]) for _ in range(2)])
    k23 = np.vstack([rng.dirichlet([1.0, 1.0]) for _ in range(2)])
    joint = np.zeros(8)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                joint[4 * a + 2 * b + c] = p1[a] * k12[a, b] * k23[b, c]
    return DenseOperator(Q3, np.diag(joint))


class TestEntropy:
    def test_pure_state(self):
        psi = np.zeros(8)
        psi[3] = 1.0
        rho = DenseOperator(Q3, np.outer(psi, psi))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = (1 / 8) * DenseOperator.identity(Q3)
        assert von_neumann_entropy(rho) == pytest.approx(np.log(8))

    def test_hand_computed_spectrum(self):
        rho = DenseOperator(
            SiteLayout((1, 2), (2, 2)), np.diag([0.5, 0.25, 0.25, 0.0])
        )
        assert von_neumann_entropy(rho) == pytest.approx(1.5 * np.log(2))

    def test_non_density_rejected(self):
        with pytest.raises(NonDensityError):
            von_neumann_entropy(2.0 * DenseOperator.identity(Q3))


class TestCmi:
    def test_product_state_vanishes(self):
        rng = np.random.default_rng(0)
        mats = [random_density(rng, SiteLayout((k,), (2,))).mat for k in (1, 2, 3)]
        rho = DenseOperator(Q3, np.kron(np.kron(mats[0], mats[1]), mats[2]))
        val = cmi(rho, TripartiteSplit({1}, {2}, {3}))
        assert abs(val) < 1e-12

    def test_classical_markov_chain_vanishes(self):
        rho = classical_markov_chain_density()
        val = cmi(rho, TripartiteSplit({1}, {2}, {3}))
        assert abs(val) < 1e-9

    def test_strong_subadditivity_on_random_states(self):
        for seed in range(60):
            rho = random_density(seed, Q3)
            assert cmi(rho, TripartiteSplit({1}, {2}, {3})) >= -1e-8

    def test_overlapping_split_rejected(self):
        with pytest.raises(ValueError):
            TripartiteSplit({1}, {1, 2}, {3})

    def test_split_must_cover_support(self):
        rho = random_density(1, Q3)
        with pytest.raises(ValueError):
            cmi(rho, TripartiteSplit({1}, {2}, set()))


def leaf_deficiency(m, radius, state=None):
    """Deficiency of the first leaf, the ``(1,)`` row of ``deficiency_rows``."""
    (row,) = [r for r in deficiency_rows(m, radius, state=state) if r.subset == (1,)]
    return row.value


class TestDeficiency:
    def test_classical_chain_is_markov(self):
        m = build_chain(6, 2, classical_ising(1.0), beta=1.0)
        assert leaf_deficiency(m, 1) <= 1e-9

    def test_tfim_witness(self):
        m = build_chain(6, 2, transverse_ising(1.0, 1.0), beta=1.0)
        value = leaf_deficiency(m, 1)
        assert value > 1e-6
        assert value == pytest.approx(TFIM6_DEFICIENCY, rel=1e-6)

    def test_radius_beyond_diameter(self):
        m = build_chain(4, 2, transverse_ising(1.0, 1.0), beta=1.0)
        assert leaf_deficiency(m, diameter(m) + 1) == 0.0

    def test_monotone_in_radius_on_stock_chains(self):
        for factory in (transverse_ising(1.0, 1.0), heisenberg(1.0)):
            m = build_chain(6, 2, factory, beta=1.0)
            state = thermal_state(m)
            vals = [leaf_deficiency(m, r, state=state) for r in (1, 2, 3, 4)]
            for lo, hi in zip(vals[1:], vals[:-1]):
                assert lo <= hi + 1e-10

    def test_radius_below_one_rejected(self):
        m = build_chain(4, 2, transverse_ising(1.0, 1.0), beta=1.0)
        for radius in (0, -1):
            with pytest.raises(ModelError):
                deficiency_rows(m, radius)

    def test_rows_cover_connected_subsets(self):
        chain = build_chain(4, 2, classical_ising(), beta=1.0)
        # Vertex 2 has degree 3; edges are listed out of order on purpose.
        tree = build_tree(
            {v: 2 for v in range(1, 6)},
            [(4, 5, classical_ising()), (2, 1, classical_ising()),
             (2, 4, classical_ising()), (3, 2, classical_ising())],
            beta=1.0,
        )
        for m, want in (
            (chain, [(1,), (2,), (3,), (4,), (1, 2), (2, 3), (3, 4)]),
            (tree, [(1,), (2,), (3,), (4,), (5,), (1, 2), (2, 3), (2, 4), (4, 5)]),
        ):
            rows = deficiency_rows(m, 1)
            assert [r.subset for r in rows] == want
            assert all(r.value <= 1e-9 for r in rows)


class TestLeafTrace:
    def test_classical_chain_preserved(self):
        m = build_chain(5, 2, classical_ising(1.0), beta=1.0)
        report = leaf_trace_preserves_markov(m, 1)
        assert report.input_markov
        assert report.passed
        assert all(r.value <= 1e-8 for r in report.before)
        assert all(r.value <= 1e-8 for r in report.after)

    def test_two_site_model_trivial(self):
        m = build_chain(2, 2, classical_ising(1.0), beta=1.0)
        report = leaf_trace_preserves_markov(m, 2)
        assert report.passed
        assert report.after == ()

    def test_non_markov_input_reported_not_raised(self):
        m = build_chain(5, 2, transverse_ising(1.0, 1.0), beta=1.0)
        report = leaf_trace_preserves_markov(m, 1)
        assert not report.input_markov
        assert not report.passed

    def test_non_leaf_rejected(self):
        m = build_chain(4, 2, classical_ising(), beta=1.0)
        with pytest.raises(ModelError):
            leaf_trace_preserves_markov(m, 2)
