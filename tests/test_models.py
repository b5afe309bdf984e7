import dataclasses
import gc
import json
import math
import weakref

import networkx as nx
import numpy as np
import pytest
from scipy import linalg

from qbp import (
    DenseOperator,
    ModelError,
    OperatorError,
    PAULI_X,
    PAULI_Z,
    build_chain,
    build_tree,
    classical_ising,
    edge_hamiltonian,
    exact_reduced_density,
    heisenberg,
    load_model,
    model_from_config,
    op_norm,
    random_two_local,
    region_partition,
    run_exact_bp,
    run_sliding_window,
    thermal_potential,
    thermal_state,
    transverse_ising,
)

from qbp.models import distance_map, edge_gibbs_state, log_partition_function, matrix_from_json
from qbp import models, operators
from qbp.operators import gibbs_state

from oracles import kron_all, kron_hamiltonian, nx_distance, nx_graph, partial_trace_by_sum


def commutator_norm(a, b):
    return np.linalg.norm(a @ b - b @ a, 2)


class TestBuilders:
    def test_classical_chain_terms_diagonal(self):
        m = build_chain(3, 2, classical_ising(J=1.0), beta=1.0)
        assert len(m.edges) == 2
        for e in m.edges:
            assert np.allclose(e.term.mat, np.diag(np.diag(e.term.mat)))

    def test_tfim_zero_field_commutes(self):
        m = build_chain(4, 2, transverse_ising(J=1.0, hx=0.0), beta=1.0)
        full = [edge_hamiltonian(m, [e]).mat for e in m.edges]
        for a in full:
            for b in full:
                assert commutator_norm(a, b) < 1e-12

    def test_tree_edge_count(self):
        dims = {k: 2 for k in range(1, 8)}
        specs = [(1, 2, classical_ising()), (2, 3, classical_ising()),
                 (2, 4, classical_ising()), (4, 5, classical_ising()),
                 (1, 6, classical_ising()), (6, 7, classical_ising())]
        m = build_tree(dims, specs, beta=1.0)
        assert len(m.edges) == 6

    def test_cycle_rejected(self):
        dims = {1: 2, 2: 2, 3: 2}
        specs = [(1, 2, classical_ising()), (2, 3, classical_ising()),
                 (3, 1, classical_ising())]
        with pytest.raises(ModelError):
            build_tree(dims, specs, beta=1.0)

    def test_dangling_vertex_rejected(self):
        dims = {1: 2, 2: 2, 3: 2, 4: 2}
        specs = [(1, 2, classical_ising()), (3, 4, classical_ising())]
        with pytest.raises(ModelError):
            build_tree(dims, specs, beta=1.0)

    def test_empty_model_rejected(self):
        with pytest.raises(ModelError, match="^model has no vertices$"):
            build_tree({}, [], beta=1.0)

    def test_extra_edge_message(self):
        dims = {1: 2, 2: 2, 3: 2}
        specs = [(1, 2, classical_ising()), (2, 3, classical_ising()),
                 (3, 1, classical_ising())]
        with pytest.raises(ModelError) as info:
            build_tree(dims, specs, beta=1.0)
        assert str(info.value) == (
            "3 edges on 3 vertices cannot form a tree (cyclic or disconnected specification)"
        )

    def test_disconnected_message(self):
        # n - 1 edges, but a cycle leaves vertex 4 unreached.
        dims = {1: 2, 2: 2, 3: 2, 4: 2}
        specs = [(1, 2, classical_ising()), (2, 3, classical_ising()),
                 (3, 1, classical_ising())]
        with pytest.raises(ModelError) as info:
            build_tree(dims, specs, beta=1.0)
        assert str(info.value) == "dangling vertices [4]: graph is disconnected"

    def test_undeclared_endpoint_named_in_edge_order(self):
        dims = {1: 2, 2: 2, 3: 2}
        specs = [(1, 2, classical_ising()), (9, 3, classical_ising()),
                 (2, 7, classical_ising())]
        with pytest.raises(ModelError) as info:
            build_tree(dims, specs, beta=1.0)
        assert str(info.value) == "edge endpoint 9 has no declared dimension"

    def test_tfim_field_at_a_degree_3_vertex(self):
        # Each edge puts hx/2 on each endpoint: the centre sees 1.5 hx, each leaf hx/2,
        # and full_boundary_fields lifts only the degree-1 leaves to hx.
        specs = [(1, k, transverse_ising(J=0.0, hx=2.0)) for k in (2, 3, 4)]
        m = build_tree({k: 2 for k in (1, 2, 3, 4)}, specs, beta=1.0)
        x = [kron_all([PAULI_X if k == site else np.eye(2) for k in range(4)]) for site in range(4)]
        assert np.allclose(edge_hamiltonian(m).mat, -3.0 * x[0] - x[1] - x[2] - x[3])
        full = [(1, k, transverse_ising(J=0.0, hx=2.0, full_boundary_fields=True)) for k in (2, 3, 4)]
        m_full = build_tree({k: 2 for k in (1, 2, 3, 4)}, full, beta=1.0)
        assert np.allclose(edge_hamiltonian(m_full).mat, -3.0 * x[0] - 2.0 * (x[1] + x[2] + x[3]))

    def test_tfim_boundary_field_convention(self):
        # interior sites collect hx from both incident edges, boundaries half
        m = build_chain(3, 2, transverse_ising(J=0.0, hx=2.0), beta=1.0)
        h = edge_hamiltonian(m).mat
        x1 = kron_all([PAULI_X, np.eye(2), np.eye(2)])
        x2 = kron_all([np.eye(2), PAULI_X, np.eye(2)])
        x3 = kron_all([np.eye(2), np.eye(2), PAULI_X])
        assert np.allclose(h, -1.0 * x1 - 2.0 * x2 - 1.0 * x3)
        m_full = build_chain(
            3, 2, transverse_ising(J=0.0, hx=2.0, full_boundary_fields=True), beta=1.0
        )
        h_full = edge_hamiltonian(m_full).mat
        assert np.allclose(h_full, -2.0 * (x1 + x2 + x3))

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf], ids=str)
    def test_beta_must_be_positive_and_finite(self, beta):
        with pytest.raises(ModelError, match=f"got {beta}"):
            build_chain(4, 2, transverse_ising(), beta=beta)
        with pytest.raises(ModelError, match=f"got {beta}"):
            build_chain(4, 2, transverse_ising(), beta=1.0).at(beta)

    @pytest.mark.parametrize("beta", [True, "2", 10**400], ids=["bool", "str", "too_large"])
    def test_beta_must_be_a_number_a_float_holds(self, beta):
        # "2" once raised a bare TypeError, and True built a model at beta True.
        with pytest.raises(ModelError, match="beta must be a finite positive number"):
            build_chain(3, 2, transverse_ising(), beta=beta)
        with pytest.raises(ModelError, match="beta must be a finite positive number"):
            build_chain(3, 2, transverse_ising(), beta=1.0).at(beta)

    @pytest.mark.parametrize("beta", [2, np.int64(2), np.float64(2.0)], ids=["int", "int64", "float64"])
    def test_beta_is_stored_as_a_float(self, beta):
        m = build_chain(3, 2, transverse_ising(), beta=beta)
        assert type(m.beta) is float and m.beta == 2.0
        assert type(m.at(beta).beta) is float

    @pytest.mark.parametrize(
        "dims, u, v", [({1: 2, 2.7: 2}, 1, 2.7), ({1: 2, 2: 2.5}, 1, 2)], ids=["site", "dim"]
    )
    def test_tree_sites_and_dims_must_be_integers(self, dims, u, v):
        # Once truncated by int(): site 2.7 then failed as unknown, dim 2.5 built qubits.
        with pytest.raises(OperatorError, match="must be an integer"):
            build_tree(dims, [(u, v, transverse_ising())], beta=1.0)

    def test_random_factory_deterministic_and_order_free(self):
        f = random_two_local(seed=5, scale=0.7)
        a = build_chain(4, 2, f, beta=1.0)
        b = build_chain(4, 2, f, beta=1.0)
        for ea, eb in zip(a.edges, b.edges):
            assert np.array_equal(ea.term.mat, eb.term.mat)
            assert op_norm(ea.term) == pytest.approx(0.7)


class TestEdgeHamiltonian:
    # Edges (1, 3) and (2, 4) join sites that are not neighbours in the
    # ascending layout; the second model mixes real and complex terms and
    # a qutrit.
    MODELS = {
        "real": ({1: 2, 2: 2, 3: 2, 4: 2, 5: 2}, [transverse_ising(1.0, 0.7)] * 4),
        "mixed": (
            {1: 2, 2: 3, 3: 2, 4: 2, 5: 2},
            [transverse_ising(1.0, 0.7), random_two_local(seed=5),
             random_two_local(seed=6), heisenberg(0.5)],
        ),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_byte_equal_to_kron_reference(self, name):
        dims, factories = self.MODELS[name]
        pairs = [(1, 3), (3, 2), (2, 4), (4, 5)]
        m = build_tree(dims, [(u, v, f) for (u, v), f in zip(pairs, factories)], beta=1.0)
        cases = [
            (m.edges, m.layout),
            (m.edges[1:3], m.layout.subset({2, 3, 4})),
            (m.edges[::-1], m.layout.subset({1, 2, 3, 4, 5})),
            (m.edges[:1], m.layout.subset({1, 3, 4})),
        ]
        for edges, layout in cases:
            got = edge_hamiltonian(m, edges, layout).mat
            want = kron_hamiltonian(
                [(e.term.mat, e.term.sites) for e in edges], layout.sites, dims
            )
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestThermalState:
    def test_infinite_temperature_limit(self):
        m = build_chain(3, 2, transverse_ising(), beta=1e-8)
        rho = thermal_state(m)
        assert op_norm(rho - (1 / 8) * DenseOperator.identity(rho.layout)) < 1e-6

    def test_single_edge_direct(self):
        m = build_chain(2, 2, heisenberg(J=0.8), beta=1.3)
        want = linalg.expm(-1.3 * edge_hamiltonian(m).mat)
        want /= np.trace(want).real
        assert np.allclose(thermal_state(m).mat, want, atol=1e-12)

    def test_gibbs_energy_matches_eigenbasis_average(self):
        m = build_chain(4, 2, transverse_ising(1.0, 1.0), beta=1.0)
        h = edge_hamiltonian(m)
        rho = thermal_state(m)
        energy = np.trace(rho.mat @ h.mat).real
        w = np.linalg.eigvalsh(h.mat)
        boltz = np.exp(-m.beta * (w - w[0]))
        want = float((w * boltz).sum() / boltz.sum())
        assert energy == pytest.approx(want, abs=1e-10)

    def test_one_state_per_model_freed_with_it(self):
        m = build_chain(4, 2, transverse_ising(), beta=1.0)
        rho = thermal_state(m)
        assert thermal_state(m) is rho
        w = np.linalg.eigvalsh(edge_hamiltonian(m).mat)
        z = math.exp(log_partition_function(m))
        assert z == pytest.approx(np.exp(-w).sum(), rel=1e-12)
        alive = weakref.ref(rho)
        del rho, m
        gc.collect()
        assert alive() is None

    def test_edge_sum_freed_before_a_blocked_solve(self, monkeypatch):
        """``_edge_spectrum`` keeps no reference to the sum it builds, and
        ``_spectrum`` lets it go once the blocks are copied out."""
        sums, solves = [], []
        embed_sum, eigh = models._embed_sum, operators._eigh

        def recorded_sum(*args):
            out = embed_sum(*args)
            sums.append(weakref.ref(out))
            return out

        def recorded_solve(mat, *args):
            solves.append((mat.shape, sums[-1]() is None))
            return eigh(mat, *args)

        monkeypatch.setattr(models, "_embed_sum", recorded_sum)
        monkeypatch.setattr(operators, "_eigh", recorded_solve)
        log_partition_function(build_chain(8, 2, transverse_ising(1.0, 0.7), beta=1.0))
        assert solves == [((2, 128, 128), True)]

    def test_store_of_spectra_keyed_by_terms_not_sites(self):
        # Keyed by site labels, the store gave the Heisenberg terms the TFIM spectrum.
        a = dataclasses.replace(build_chain(4, 2, transverse_ising(), beta=1.0), spectra={})
        thermal_state(a)
        heis = build_chain(4, 2, heisenberg(), beta=1.0)
        got = thermal_state(dataclasses.replace(a, edges=heis.edges))
        assert np.abs(got.mat - thermal_state(heis).mat).max() < 1e-12

    def test_edge_gibbs_state(self):
        m = build_chain(5, 2, random_two_local(7), beta=1.5)
        for edges in (m.edges, m.edges[::-1]):
            rho, log_z = edge_gibbs_state(m, edges)
            assert rho is thermal_state(m)
            assert log_z is log_partition_function(m)
        for edges in (m.edges[1:], m.edges[:0:-1]):
            rho, log_z = edge_gibbs_state(m, edges)
            want, want_log_z = gibbs_state(
                edge_hamiltonian(m, edges, m.layout.subset({2, 3, 4, 5})), m.beta
            )
            assert rho.sites == (2, 3, 4, 5)
            assert rho.mat.tobytes() == want.mat.tobytes()
            assert log_z == want_log_z

    def test_log_partition_function_beyond_float_range(self):
        # beta |E0| is about 1800 on the 8-site chain at beta = 200.
        m = build_chain(8, 2, transverse_ising(), beta=200.0)
        w = np.linalg.eigvalsh(edge_hamiltonian(m).mat)
        assert log_partition_function(m) == pytest.approx(-200.0 * w[0], rel=1e-12)

    def test_unit_trace_and_positivity(self):
        for factory in (classical_ising(), transverse_ising(), heisenberg(),
                        random_two_local(3)):
            m = build_chain(5, 2, factory, beta=2.0)
            rho = thermal_state(m)
            assert abs(rho.trace() - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-12


class TestExactReducedDensity:
    def test_keep_all(self):
        m = build_chain(3, 2, transverse_ising(), beta=1.0)
        assert np.allclose(
            exact_reduced_density(m, {1, 2, 3}).mat, thermal_state(m).mat
        )

    def test_zero_coupling_cut_factorizes(self):
        zero = np.zeros((4, 4))
        dims = {1: 2, 2: 2, 3: 2, 4: 2}
        specs = [(1, 2, transverse_ising()), (2, 3, zero), (3, 4, transverse_ising())]
        m = build_tree(dims, specs, beta=1.0)
        red = exact_reduced_density(m, {1, 2})
        block = build_chain(2, 2, transverse_ising(), beta=1.0)
        want = thermal_state(block)
        assert op_norm(red - DenseOperator(red.layout, want.mat)) < 1e-10

    def test_six_chain_against_direct_construction(self):
        m = build_chain(6, 2, transverse_ising(1.0, 1.0), beta=1.0)
        got = exact_reduced_density(m, {6})
        full = linalg.expm(-1.0 * edge_hamiltonian(m).mat)
        full /= np.trace(full).real
        want = partial_trace_by_sum(full, [2] * 6, [0, 1, 2, 3, 4])
        assert np.allclose(got.mat, want, atol=1e-10)

    def test_empty_keep_rejected(self):
        m = build_chain(2, 2, classical_ising(), beta=1.0)
        with pytest.raises(ModelError):
            exact_reduced_density(m, set())


class TestDistance:
    def test_member_is_zero(self):
        m = build_chain(5, 2, classical_ising(), beta=1.0)
        assert distance_map(m, {3, 1}) == {1: 0, 2: 1, 3: 0, 4: 1, 5: 2}

    def test_chain_span(self):
        m = build_chain(5, 2, classical_ising(), beta=1.0)
        assert distance_map(m, {1}) == {v: v - 1 for v in range(1, 6)}

    def test_against_networkx_on_tree(self):
        dims = {k: 2 for k in range(1, 9)}
        specs = [(1, 2, classical_ising()), (2, 3, classical_ising()),
                 (2, 4, classical_ising()), (4, 5, classical_ising()),
                 (4, 6, classical_ising()), (1, 7, classical_ising()),
                 (7, 8, classical_ising())]
        m = build_tree(dims, specs, beta=1.0)
        for targets in ({3}, {5, 8}, {1, 6}):
            assert distance_map(m, targets) == {v: nx_distance(m, v, targets) for v in m.vertices}

    @pytest.mark.parametrize("seed", range(8))
    def test_against_networkx_on_random_trees(self, seed):
        # Each new vertex hangs off a random earlier one; ids are gapped and unordered.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        ids = [int(k) for k in rng.choice(100, n, replace=False)]
        specs = [(ids[int(rng.integers(k))], ids[k], classical_ising()) for k in range(1, n)]
        m = build_tree({v: 2 for v in ids}, specs, beta=1.0)
        targets = {int(v) for v in rng.choice(ids, int(rng.integers(1, n + 1)), replace=False)}
        assert distance_map(m, targets) == {v: nx_distance(m, v, targets) for v in ids}

    def test_empty_targets_rejected(self):
        m = build_chain(3, 2, classical_ising(), beta=1.0)
        with pytest.raises(ModelError, match="empty vertex set"):
            distance_map(m, set())

    def test_unknown_targets_rejected(self):
        m = build_chain(3, 2, classical_ising(), beta=1.0)
        with pytest.raises(ModelError, match=r"unknown vertices \[7, 9\]"):
            distance_map(m, {1, 9, 7})


class TestRegionPartition:
    def test_hand_enumerated_chain(self):
        m = build_chain(6, 2, classical_ising(), beta=1.0)
        parts = region_partition(m, {1}, 2)
        assert {e.key for e in parts.inner} == {(1, 2), (2, 3)}
        assert {e.key for e in parts.buffer} == {(3, 4)}
        assert {e.key for e in parts.outer} == {(4, 5), (5, 6)}

    def test_degenerate_window(self):
        m = build_chain(4, 2, classical_ising(), beta=1.0)
        parts = region_partition(m, {1}, 0)
        assert {e.key for e in parts.buffer} == {(1, 2)}
        assert parts.inner == ()

    def test_radius_beyond_diameter(self):
        m = build_chain(4, 2, classical_ising(), beta=1.0)
        parts = region_partition(m, {1}, nx.diameter(nx_graph(m)) + 1)
        assert parts.outer == () and parts.buffer == ()
        assert len(parts.inner) == len(m.edges)

    def test_partition_exhaustive_disjoint_and_sums(self):
        dims = {k: 2 for k in range(1, 8)}
        specs = [(1, 2, transverse_ising()), (2, 3, transverse_ising()),
                 (3, 4, transverse_ising()), (2, 5, transverse_ising()),
                 (5, 6, transverse_ising()), (5, 7, transverse_ising())]
        m = build_tree(dims, specs, beta=1.0)
        h = edge_hamiltonian(m)
        for anchor in ({1}, {4}, {1, 7}):
            for radius in range(0, 5):
                parts = region_partition(m, anchor, radius)
                keys = [e.key for e in parts.inner + parts.buffer + parts.outer]
                assert sorted(keys) == sorted(e.key for e in m.edges)
                recombined = (
                    edge_hamiltonian(m, parts.inner)
                    + edge_hamiltonian(m, parts.buffer)
                    + edge_hamiltonian(m, parts.outer)
                )
                assert op_norm(recombined - h) < 1e-12


class TestModelConfig:
    def test_round_trip_with_factory_and_matrix(self, tmp_path):
        explicit = (0.25 * np.kron(PAULI_Z, PAULI_Z)).real.tolist()
        cfg = {
            "vertices": [{"id": 1, "dim": 2}, {"id": 2, "dim": 2}, {"id": 3, "dim": 2}],
            "edges": [
                {"u": 1, "v": 2, "term": {"factory": "tfim", "params": {"J": 1.0, "hx": 0.5}}},
                {"u": 2, "v": 3, "term": {"matrix": [[[v, 0.0] for v in row] for row in explicit]}},
            ],
            "beta": 0.7,
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        m = load_model(path)
        assert m.beta == 0.7
        assert len(m.edges) == 2
        assert np.allclose(m.edge((2, 3)).term.mat, 0.25 * np.kron(PAULI_Z, PAULI_Z))

    def test_matrix_from_json_dtype_follows_imaginary_parts(self):
        real = matrix_from_json([[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [3.0, 0.0]]])
        assert real.dtype == np.float64
        assert np.array_equal(real, [[1.0, 2.0], [2.0, 3.0]])
        cplx = matrix_from_json([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [3.0, 0.0]]])
        assert cplx.dtype == np.complex128

    def test_malformed_config(self):
        with pytest.raises(ModelError):
            model_from_config({"vertices": [], "beta": 1.0})

    @staticmethod
    def _two_sites(**edge):
        return {
            "vertices": [{"id": 1, "dim": 2}, {"id": 2, "dim": 2}],
            "edges": [{"u": 1, "v": 2, "term": {"factory": "tfim"}} | edge],
            "beta": 1.0,
        }

    @pytest.mark.parametrize(
        "where, key, value",
        [("vertices", "id", 2.9), ("vertices", "dim", 2.5), ("edges", "u", 1.2),
         ("edges", "v", "2"), ("vertices", "dim", True)],
        ids=lambda x: repr(x) if not isinstance(x, str) else x,
    )
    def test_ids_and_dimensions_must_be_integers(self, where, key, value):
        cfg = self._two_sites()
        cfg[where][0][key] = value
        with pytest.raises(ModelError, match=f"{key} must be an integer, got {value!r}"):
            model_from_config(cfg)

    def test_integral_numbers_count_as_integers(self):
        cfg = self._two_sites(u=1.0, v=2.0)
        cfg["vertices"] = [{"id": 1.0, "dim": 2.0}, {"id": 2, "dim": 2}]
        m = model_from_config(cfg)
        assert m.layout.sites == (1, 2) and m.layout.dims == (2, 2)
        assert m.edges[0].key == (1, 2)

    @pytest.mark.parametrize("beta", [True, "2", 10**400, 0, None], ids=["bool", "str", "too_large", "zero", "null"])
    def test_beta_must_be_a_finite_positive_number(self, beta, tmp_path):
        # true once loaded at beta = 1.0, "2" at 2.0, and 10**400 raised OverflowError.
        cfg = self._two_sites() | {"beta": beta}
        with pytest.raises(ModelError, match="beta must be a finite positive number"):
            model_from_config(cfg)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ModelError, match="beta must be a finite positive number"):
            load_model(path)

    def test_unknown_file_key(self):
        with pytest.raises(ModelError, match="unknown model keys"):
            model_from_config(self._two_sites() | {"betta": 2.0})

    def test_unknown_vertex_key(self):
        cfg = self._two_sites()
        cfg["vertices"][0]["dims"] = 4
        with pytest.raises(ModelError, match="unknown vertex keys"):
            model_from_config(cfg)

    def test_unknown_edge_key(self):
        with pytest.raises(ModelError, match="unknown edge keys"):
            model_from_config(self._two_sites(weight=2.0))

    def test_unknown_term_key(self):
        # "param" for "params": the term would silently build J = 1.
        term = {"factory": "tfim", "param": {"J": 5.0}}
        with pytest.raises(ModelError, match="unknown factory term keys"):
            model_from_config(self._two_sites(term=term))

    def test_term_with_matrix_and_factory(self):
        matrix = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)]
        term = {"matrix": matrix, "factory": "tfim"}
        with pytest.raises(ModelError, match="unknown matrix term keys"):
            model_from_config(self._two_sites(term=term))
        assert len(model_from_config(self._two_sites(term={"matrix": matrix})).edges) == 1


class TestDtypeFollowsData:
    @pytest.mark.parametrize(
        "factory", [transverse_ising(), classical_ising()], ids=["tfim", "ising"]
    )
    def test_real_model_stays_real(self, factory):
        m = build_chain(6, factory=factory, beta=0.8)
        assert all(e.term.mat.dtype == np.float64 for e in m.edges)
        for op in (
            edge_hamiltonian(m),
            thermal_state(m),
            run_sliding_window(m, 6, 2),
            run_exact_bp(m, 6),
            thermal_potential(m, {1}),
        ):
            assert op.mat.dtype == np.float64

    def test_heisenberg_real_and_random_complex(self):
        assert all(
            e.term.mat.dtype == np.float64
            for e in build_chain(3, factory=heisenberg()).edges
        )
        assert all(
            e.term.mat.dtype == np.complex128
            for e in build_chain(3, factory=random_two_local(seed=1)).edges
        )
