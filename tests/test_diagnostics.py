import dataclasses
import math

import networkx as nx
import numpy as np
import pytest
from scipy import linalg

from qbp import (
    BoundConstants,
    DenseOperator,
    DynamicRangeError,
    ModelError,
    OperatorError,
    SiteLayout,
    build_chain,
    build_tree,
    classical_ising,
    cumulants,
    circle_product,
    edge_hamiltonian,
    embed,
    fit_thermal_bound,
    matrix_exp_h,
    op_norm,
    partial_trace,
    random_hermitian,
    random_two_local,
    region_partition,
    single_step_bound,
    single_step_experiment,
    thermal_potential,
    thermal_state,
    trace_norm,
    transverse_ising,
    window_error_sweep,
)
from qbp import diagnostics
from qbp.diagnostics import CumulantEntry, CumulantSeries
from qbp.models import log_partition_function

from oracles import (
    cumulant_norms_oracle,
    nx_graph,
    partial_trace_by_sum,
    single_step_oracle,
    thermal_potential_oracle,
)

# Envelope fit of the full-Hamiltonian thermal potential at the first leaf of
# the 6-site transverse-field chain, J = hx = beta = 1.
TFIM6_FIT = {"amplitude": 55.510779482913655, "decay": 3.0694429106284256}

# One-step error (unit-trace normalization) on the 8-site transverse-field
# chain, J = hx = beta = 1, traced leaf 1, radii 1..5.
TFIM8_STEP_ERRORS = [
    0.05920553713172752,
    0.0029378938024368366,
    0.00022396624040416367,
    1.7835706168355607e-05,
    1.4278087462813042e-06,
]

# Independent high-precision evaluation (30-digit arithmetic) of the error
# budget at all-ones constants, beta = 1, buffer norm 1, radius 1.
UNIT_BOUND1 = 52.0234289350552873654175837201
UNIT_BOUND2 = 94.1764682836359861958048337077

ONES = BoundConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

EPS = np.finfo(float).eps
#: tfim runs on the reversal-block path, random2 on the full path.
FACTORIES = {"tfim": transverse_ising(1.0, 1.0), "random": random_two_local(seed=11)}


def _warm_shared_spectra(model, run):
    """``model`` with a store of spectra that ``run`` filled on a view at
    another beta first, so that the model reads every spectrum that view
    decomposed, as a command's second beta does."""
    shared = dataclasses.replace(model, spectra={})
    run(shared.at(model.beta / 2))
    assert shared.spectra  # the model reads what the first view stored
    return shared


class TestThermalPotential:
    def test_single_edge_one_site_result(self):
        m = build_chain(2, 2, transverse_ising(1.0, 0.7), beta=1.3)
        pot = thermal_potential(m, {1})
        assert pot.sites == (2,)
        full = linalg.expm(-m.beta * edge_hamiltonian(m).mat)
        full /= np.trace(full).real
        reduced = partial_trace_by_sum(full, [2, 2], [0])
        want = -(1.0 / m.beta) * linalg.logm(reduced)
        assert np.allclose(pot.mat, want, atol=1e-10)

    def test_defining_identity(self):
        m = build_chain(6, 2, transverse_ising(1.0, 1.0), beta=1.0)
        pot = thermal_potential(m, {1})
        outside = [e for e in m.edges if 1 not in e.endpoints()]
        h_out = edge_hamiltonian(m, outside, pot.layout)
        rebuilt = matrix_exp_h(-m.beta * (h_out + pot))
        full = linalg.expm(-m.beta * edge_hamiltonian(m).mat)
        full /= np.trace(full).real
        reduced = partial_trace_by_sum(full, [2] * 6, [0])
        assert np.abs(rebuilt.mat - reduced).max() < 1e-9

    def test_traced_set_validation(self):
        m = build_chain(3, 2, transverse_ising(), beta=1.0)
        with pytest.raises(ModelError):
            thermal_potential(m, {9})
        with pytest.raises(ModelError):
            thermal_potential(m, {1, 2, 3})


class TestCumulants:
    def test_operator_within_first_shell(self):
        m = build_chain(4, 2, classical_ising(), beta=1.0)
        op = embed(random_hermitian(0, SiteLayout((2,), (2,))), m.layout)
        series = cumulants(op, m, {1})
        assert series.entries[0].norm == pytest.approx(op_norm(op))
        assert op_norm(embed(series.entries[0].op, op.layout) - op) < 1e-12
        assert all(e.norm < 1e-12 for e in series.entries[1:])

    def test_identity_lands_in_first_shell(self):
        m = build_chain(4, 2, classical_ising(), beta=1.0)
        ident = DenseOperator.identity(m.layout)
        series = cumulants(ident, m, {1})
        assert op_norm(embed(series.entries[0].op, m.layout) - ident) < 1e-12
        assert all(e.norm < 1e-12 for e in series.entries[1:])

    def test_reconstruction_and_support_certificates(self):
        m = build_chain(5, 2, transverse_ising(), beta=1.0)
        dm = {v: v - 1 for v in m.vertices}
        for seed in range(15):
            op = random_hermitian(seed, m.layout)
            series = cumulants(op, m, {1})
            assert series.reconstruction_residual <= 1e-10
            for entry in series.entries:
                assert all(dm[s] <= entry.j for s in entry.op.sites)

    def test_shell_norms_match_the_embedded_shells(self):
        m = build_chain(6, 2, transverse_ising(), beta=1.0)
        for op in (thermal_potential(m, {1}), random_hermitian(4, m.layout)):
            for entry in cumulants(op, m, {1}).entries:
                shell = embed(entry.op, op.layout)
                assert entry.norm == pytest.approx(op_norm(shell), rel=1e-12)

    def test_classical_potential_dies_after_first_shell(self):
        m = build_chain(5, 2, classical_ising(1.0), beta=1.0)
        series = cumulants(thermal_potential(m, {1}), m, {1})
        assert all(e.norm <= 1e-10 for e in series.entries if e.j >= 2)

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @pytest.mark.parametrize("n", [6, 7])
    def test_matches_independent_oracle(self, name, n):
        """Shell norms of the thermal potential at either leaf, against an
        oracle that shares no qbp numerics, twice.

        On the same input matrix, each shell is a difference of normalized
        partial traces, whose entries are sums of at most d entries of the
        operator, so the shells agree within d eps ||op||_F per shell and the
        norms within (n - 1) d eps ||op||_F over the n - 1 shells.  Against
        the oracle's own potential, the two traced states differ by at most
        d eps in norm, the log's Frechet derivative at a state with smallest
        eigenvalue lam is bounded by 1 / lam, and each shell is a difference
        of two contractions, so the norms agree within 2 d eps / (beta lam).
        """
        m = build_chain(n, 2, FACTORIES[name], beta=1.0)
        m = _warm_shared_spectra(m, lambda view: [thermal_potential(view, {1})])
        d = 2 ** (n - 1)
        for leaf in (1, n):
            potential = thermal_potential(m, {leaf})
            got = cumulants(potential, m, {leaf}).norms()
            same = cumulant_norms_oracle(potential.mat, list(potential.sites), m, {leaf})
            tol = (n - 1) * d * EPS * np.linalg.norm(potential.mat)
            assert [j for j, _ in got] == [j for j, _ in same] == list(range(1, n))
            for (j, a), (_, b) in zip(got, same):
                assert abs(a - b) <= tol, (leaf, j)
            oracle, lam = thermal_potential_oracle(m, leaf)
            own = cumulant_norms_oracle(oracle, list(potential.sites), m, {leaf})
            for (j, a), (_, b) in zip(got, own):
                assert abs(a - b) <= 2 * d * EPS / (m.beta * lam), (leaf, j)

    def test_reduced_layout_inherits_model_distances(self):
        m = build_chain(5, 2, transverse_ising(), beta=1.0)
        pot = thermal_potential(m, {1})
        series = cumulants(pot, m, {1})
        assert pot.sites == (2, 3, 4, 5)
        assert [e.j for e in series.entries] == [1, 2, 3, 4]

    def test_no_array_at_full_dimension_before_the_last_shell(self, monkeypatch):
        """Each shell is a difference of two conditional averages of ``op``, so
        only the last is formed at ``op``'s dimension: every earlier average
        is embedded on the next one's support, never on ``op``'s layout."""
        targets = []

        def recording(op, full):
            targets.append(full)
            return embed(op, full)

        monkeypatch.setattr(diagnostics, "embed", recording)
        m = build_chain(7, 2, transverse_ising(), beta=1.0)
        for op in (thermal_potential(m, {1}), random_hermitian(5, m.layout)):
            targets.clear()
            series = cumulants(op, m, {1})
            assert len(series.entries) == 6 and len(targets) == 5  # shell 1 is an average itself
            assert targets[-1] == op.layout
            assert all(layout.dim < op.dim for layout in targets[:-1])
            assert all(e.op.dim < op.dim for e in series.entries[:-1])

    @pytest.mark.parametrize("sites, count, zero", [
        ((1,), 1, []),  # only the anchor: its one shell is op
        ((1, 2, 5), 4, [2, 3]),  # no site at distances 2 and 3: exactly-zero shells
        ((1, 4), 3, [2]),
        ((), 1, []),  # on no sites
    ], ids=["anchor_only", "two_gaps", "gap", "no_sites"])
    def test_shell_count_and_empty_distances(self, sites, count, zero):
        m = build_chain(5, 2, transverse_ising(), beta=1.0)
        layout = m.layout.subset(sites)
        op = random_hermitian(7, layout)
        series = cumulants(op, m, {1})
        assert [e.j for e in series.entries] == list(range(1, count + 1))
        assert [e.j for e in series.entries if not e.op.mat.any()] == zero
        assert series.entries[-1].op.layout == layout
        assert series.reconstruction_residual <= 1e-12


class TestEnvelopeFit:
    def test_recovers_exact_log_linear_data(self):
        amp, decay = 3.5, 0.8
        entries = tuple(
            CumulantEntry(j, None, amp * math.exp(-decay * j)) for j in range(1, 7)
        )
        fit = fit_thermal_bound(CumulantSeries(frozenset({1}), entries, None))  # the fit reads only norms
        assert fit.defined
        assert fit.amplitude == pytest.approx(amp, abs=1e-9)
        assert fit.decay == pytest.approx(decay, abs=1e-9)
        assert fit.residual < 1e-12

    def test_undefined_when_single_usable_point(self):
        m = build_chain(4, 2, classical_ising(1.0), beta=1.0)
        series = cumulants(thermal_potential(m, {1}), m, {1})
        fit = fit_thermal_bound(series)
        assert not fit.defined
        assert fit.floored >= 2

    def test_tfim_chain_decays(self):
        m = build_chain(6, 2, transverse_ising(1.0, 1.0), beta=1.0)
        fit = fit_thermal_bound(cumulants(thermal_potential(m, {1}), m, {1}))
        assert fit.defined and fit.decay > 0
        assert fit.amplitude == pytest.approx(TFIM6_FIT["amplitude"], rel=1e-6)
        assert fit.decay == pytest.approx(TFIM6_FIT["decay"], rel=1e-6)


class TestErrorBudget:
    def test_matches_independent_composition(self):
        got = single_step_bound(ONES, 1.0, 1.0, 1)
        # same algebra, restructured: work in logs where possible
        pi = np.pi
        shifted_rate = 1.0 / (1.0 + 1.0 / pi)
        log_b1 = (
            np.log(2.0) + 2.0 * shifted_rate + np.log(1.0) + 2.5 - shifted_rate
        )
        assert got.bound1 == pytest.approx(float(np.exp(log_b1)), rel=1e-12)
        geom = 2.0 / (-np.expm1(-1.0))
        envelope_const = (
            9.0 * geom + (8.0 / pi) * np.exp(2.0 / pi) + 2.0 / np.sqrt(pi)
            + 4.0 * geom / pi**2
        )
        envelope_linear = 2.0 * geom
        b2 = 0.5 * np.exp(2.0) * (envelope_linear + envelope_const) * np.exp(-0.5)
        assert got.bound2 == pytest.approx(float(b2), rel=1e-12)
        assert got.bound1 == pytest.approx(UNIT_BOUND1, rel=1e-14)
        assert got.bound2 == pytest.approx(UNIT_BOUND2, rel=1e-14)
        assert got.total == pytest.approx(UNIT_BOUND1 + UNIT_BOUND2, rel=1e-14)

    def test_every_constant_moves_the_bound(self):
        # At radius 2 the truncation shift cancels and trunc_beta_scale drops out.
        base = single_step_bound(ONES, 1.0, 1.0, 3).total
        for field in dataclasses.fields(BoundConstants):
            moved = dataclasses.replace(ONES, **{field.name: 2.0})
            assert single_step_bound(moved, 1.0, 1.0, 3).total != base, field.name

    def test_positive_and_eventually_decreasing(self):
        consts = BoundConstants(2.0, 1.5, 1.2, 2.0, 5.0, 0.4)
        vals = [single_step_bound(consts, 1.0, 2.0, r).total for r in range(1, 60)]
        assert all(v > 0 for v in vals)
        b = single_step_bound(consts, 1.0, 2.0, 1)
        turning = max(0.0, 1.0 / b.rate - b.const_coeff / b.linear_coeff)
        start = int(turning) + 1
        assert all(b < a for a, b in zip(vals[start:], vals[start + 1 :]))

    def test_tiny_amplitude_limit(self):
        consts = BoundConstants(1.0, 1.0, 1.0, 1.0, 1e-14, 1.0)
        got = single_step_bound(consts, 1.0, 1.0, 2)
        pi = np.pi
        survivor = (8.0 / pi) * np.exp(2.0 / pi) + 2.0 / np.sqrt(pi)
        want = 0.5 * np.exp(2.0) * survivor * np.exp(-0.5 * 2)
        assert got.bound2 == pytest.approx(want, rel=1e-10)

    def test_decay_rate(self):
        consts = BoundConstants(1.0, 1.0, 2.0, 3.0, 1.0, 0.5)
        derived = single_step_bound(consts, 2.0, 1.0, 1)
        a_eff = 0.5
        assert derived.rate == pytest.approx(
            min(a_eff / 2, np.pi * a_eff / (2 * 2 * 3 * 2.0))
        )

    @pytest.mark.parametrize("bad", [math.inf, math.nan, True, "2"], ids=["inf", "nan", "bool", "str"])
    def test_constants_follow_the_positive_rule(self, bad):
        # inf and True were accepted, and "2" raised a bare TypeError.
        for field in dataclasses.fields(BoundConstants):
            with pytest.raises(OperatorError, match=f"^{field.name} must be a finite positive number"):
                dataclasses.replace(ONES, **{field.name: bad})

    def test_constants_are_stored_as_floats(self):
        consts = BoundConstants(1, np.int64(2), 1.0, 1.0, np.float64(3.0), 1.0)
        assert all(type(getattr(consts, f.name)) is float for f in dataclasses.fields(consts))
        assert (consts.trunc_rate, consts.trunc_beta_scale, consts.cumulant_amp) == (1.0, 2.0, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundConstants(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            single_step_bound(ONES, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            single_step_bound(ONES, -1.0, 1.0, 1)

    def test_past_the_float_range(self):
        # exp((4 + c) beta |h_buffer| / 2) = exp(2000) raised a bare OverflowError.
        with pytest.raises(DynamicRangeError, match="float range"):
            single_step_bound(ONES, 400.0, 2.0, 3)
        # Every exponent is finite here, but their product is not.
        with pytest.raises(DynamicRangeError, match="float range"):
            single_step_bound(dataclasses.replace(ONES, cumulant_amp=1e300), 100.0, 2.0, 3)
        assert math.isfinite(single_step_bound(ONES, 100.0, 2.0, 3).total)


class TestSingleStepExperiment:
    def test_window_covering_everything_is_exact(self):
        m = build_chain(5, 2, transverse_ising(1.0, 1.0), beta=1.0)
        rec = single_step_experiment(m, 1, nx.diameter(nx_graph(m)))
        assert rec.lhs_literal <= 1e-9
        assert rec.lhs_normalized <= 1e-9
        assert rec.buffer_norm == 0.0

    def test_classical_chain_exact_at_all_radii(self):
        m = build_chain(6, 2, classical_ising(1.0), beta=1.0)
        for radius in range(1, 6):
            rec = single_step_experiment(m, 1, radius)
            assert rec.lhs_literal <= 1e-9
            assert rec.lhs_normalized <= 1e-9

    def test_tfim_decay_with_recorded_values(self):
        m = build_chain(8, 2, transverse_ising(1.0, 1.0), beta=1.0)
        errs = [
            single_step_experiment(m, 1, r).lhs_normalized for r in range(1, 6)
        ]
        slope = np.polyfit(range(1, 6), np.log10(errs), 1)[0]
        assert slope < 0
        for got, want in zip(errs, TFIM8_STEP_ERRORS):
            assert got == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @pytest.mark.parametrize("n", [6, 7])
    def test_matches_independent_oracle(self, name, n):
        """Every radius at both leaves, against an oracle that shares no qbp
        numerics.

        Each side takes three matrix functions (the thermal exponential, the
        ball's exponential and log, the surrogate's exponential), each of an
        exponent of norm at most beta * sum ||h_e|| + ln d, through a
        backward-stable solve of dimension at most d = 2**n, so each operator
        compared is off by at most 3 d eps (beta * sum ||h_e|| + ln d) in trace
        norm (Higham, Functions of Matrices, 2008, ch. 10-11); one more such
        term covers the normalizations."""
        m = build_chain(n, 2, FACTORIES[name], beta=1.0)
        m = _warm_shared_spectra(m, lambda view: [
            single_step_experiment(view, leaf, r) for leaf in (1, n) for r in range(1, n)])
        d = 2**n
        tol = 4 * d * EPS * (m.beta * sum(op_norm(e.term) for e in m.edges) + np.log(d))
        for leaf in (1, n):
            want = single_step_oracle(m, leaf)
            assert sorted(want) == list(range(1, n))
            for radius, (literal, normalized) in want.items():
                rec = single_step_experiment(m, leaf, radius)
                assert abs(rec.lhs_literal - literal) <= tol, (leaf, radius)
                assert abs(rec.lhs_normalized - normalized) <= tol, (leaf, radius)

    def test_ball_layout_matches_full_layout_formula(self):
        # Reference: the inner factor exponentiated on the full layout.
        m = build_chain(6, 2, transverse_ising(1.0, 1.0), beta=1.0)
        term1 = partial_trace(thermal_state(m), {1})
        reduced = m.layout.drop({1})
        for radius in range(1, 6):
            parts = region_partition(m, {1}, radius)
            away = edge_hamiltonian(m, parts.outer + parts.buffer, reduced)
            near = partial_trace(matrix_exp_h(-edge_hamiltonian(m, parts.inner)), {1})
            surrogate = circle_product(matrix_exp_h(-away), near)
            rec = single_step_experiment(m, 1, radius)
            z = math.exp(log_partition_function(m))
            literal = trace_norm(term1 - (1.0 / z) * surrogate)
            normalized = trace_norm(term1 - (1.0 / surrogate.trace().real) * surrogate)
            assert abs(rec.lhs_literal - literal) < 1e-12
            assert abs(rec.lhs_normalized - normalized) < 1e-12

    @pytest.mark.parametrize("radius", range(1, 8))
    def test_large_beta_finite_or_typed(self, radius):
        # At beta = 200 the 8-site chain's Boltzmann weights leave the float range.
        m = build_chain(8, 2, transverse_ising(1.0, 1.0), beta=200.0)
        try:
            rec = single_step_experiment(m, 8, radius)
        except OperatorError:
            return
        assert math.isfinite(rec.lhs_literal) and math.isfinite(rec.lhs_normalized)

    def test_bound_attached_when_constants_given(self):
        m = build_chain(6, 2, transverse_ising(1.0, 1.0), beta=1.0)
        rec = single_step_experiment(m, 1, 2, ONES)
        assert rec.bound is not None and rec.bound.total > 0

    def test_non_leaf_and_zero_radius_rejected(self):
        m = build_chain(4, 2, transverse_ising(), beta=1.0)
        with pytest.raises(ModelError):
            single_step_experiment(m, 2, 1)
        with pytest.raises(ModelError):
            single_step_experiment(m, 1, 0)


def _shifted(model, c):
    """``model`` with c I added to every edge term: the same thermal states."""
    dims = dict(zip(model.layout.sites, model.layout.dims))
    specs = [(e.u, e.v, e.term.mat + c * np.eye(e.term.dim)) for e in model.edges]
    return build_tree(dims, specs, model.beta)


class TestEnergyZero:
    """exp(-beta H) / Z does not depend on the zero of energy, and neither may
    any measured error.  The log of the ball's state once had a floor scaled by
    its partition function, so c = 50 raised SingularOperatorError (floor 8.8e9)
    and c = 1000 a bare OverflowError."""

    @pytest.fixture(scope="class", params=["tfim", "random2"])
    def unshifted(self, request):
        factory = {"tfim": transverse_ising(), "random2": random_two_local()}[request.param]
        m = build_chain(6, 2, factory, beta=1.0)
        steps = [single_step_experiment(m, 1, r) for r in range(1, 6)]
        return m, steps, window_error_sweep(m, 6, range(1, 6)).entries

    @pytest.mark.parametrize("c", [-1000.0, 50.0, 400.0, 1000.0])
    def test_constant_shift_moves_no_error(self, unshifted, c):
        m, steps, sweep = unshifted
        shifted = _shifted(m, c)
        for r, want in zip(range(1, 6), steps):
            got = single_step_experiment(shifted, 1, r)
            assert abs(got.lhs_literal - want.lhs_literal) <= 1e-12
            assert abs(got.lhs_normalized - want.lhs_normalized) <= 1e-12
        got_sweep = window_error_sweep(shifted, 6, range(1, 6)).entries
        assert [w for w, _ in got_sweep] == [w for w, _ in sweep]
        assert all(abs(a - b) <= 1e-12 for (_, a), (_, b) in zip(got_sweep, sweep))
