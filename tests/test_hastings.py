import re

import numpy as np
import pytest
from scipy import integrate, linalg, special

from qbp import hastings, operators
from qbp import (
    DenseOperator,
    DynamicRangeError,
    NonHermitianError,
    SiteLayout,
    build_chain,
    conjugation_residual,
    edge_hamiltonian,
    embed,
    filter_hat,
    filter_time,
    hastings_operator,
    matrix_exp_h,
    op_norm,
    random_hermitian,
    transverse_ising,
)
from qbp.hastings import SMALL_FREQ, STACK_ENTRIES, _filtered
from qbp.models import distance_map

Q12 = SiteLayout((1, 2), (2, 2))

# Regression values for truncating around the middle edge of the 6-site
# transverse-field chain at beta = 1, s_steps = 32.
TRUNCATION_DISTANCES = {0: 0.30842871194464205, 1: 0.08040131762255244}


def freq_profile_derivative(omega, beta):
    """d/d omega of tanh(beta w/2)/(beta w/2), series-guarded near zero."""
    u = beta * omega / 2.0
    if abs(u) < 1e-3:
        d = -2.0 * u / 3.0 + 4.0 * u**3 / 15.0
    elif u > 300.0:
        d = -1.0 / u**2
    else:
        d = (u / np.cosh(u) ** 2 - np.tanh(u)) / u**2
    return (beta / 2.0) * d


def time_kernel_by_quadrature(t, beta):
    """Independent Fourier evaluation of the time kernel.

    One integration by parts turns the conditionally convergent cosine
    transform of the frequency profile into an absolutely convergent sine
    transform of its derivative.
    """
    val, _ = integrate.quad(
        lambda w: freq_profile_derivative(w, beta),
        0,
        np.inf,
        weight="sin",
        wvar=t,
        limlst=200,
    )
    return -val / (np.pi * t)


class TestFrequencyProfile:
    def test_zero_frequency(self):
        assert filter_hat(0.0, 1.0) == 1.0
        assert filter_hat(1e-12, 3.0) == pytest.approx(1.0, abs=1e-15)

    def test_even(self):
        for omega in (0.3, 1.7, 42.0):
            assert filter_hat(omega, 2.0) == filter_hat(-omega, 2.0)

    def test_large_argument_asymptote(self):
        got = filter_hat(100.0, 1.0)
        assert got == pytest.approx(2.0 / 100.0, rel=1e-2)

    def test_vectorized_and_bounded(self):
        omegas = np.linspace(-50, 50, 1001)
        vals = filter_hat(omegas, 1.5)
        assert vals.shape == omegas.shape
        assert np.all(vals > 0) and np.all(vals <= 1.0)

    def test_past_the_float_range(self):
        # The series overflowed on large entries, and so did beta w past float max.
        assert filter_hat(1e160, 1.0) == 1.0 / 5e159
        assert filter_hat(1e200, 1e200) == 0.0 and filter_hat(-1e200, 1e200) == 0.0
        got = filter_hat(np.array([0.0, 1e160, 1e200]), 1e200)
        assert np.array_equal(got, [1.0, 0.0, 0.0])

    def test_bit_equal_to_the_unmasked_series_where_it_is_finite(self):
        omegas = np.concatenate([[0.0], np.geomspace(1e-14, 1e150, 400)])
        omegas = np.concatenate([-omegas, omegas])
        for beta in (0.5, 3.0):
            bw = beta * omegas
            small = np.abs(bw) < SMALL_FREQ
            safe = np.where(small, 1.0, bw / 2.0)
            want = np.where(small, 1.0 - bw * bw / 12.0, np.tanh(safe) / safe)
            assert np.array_equal(filter_hat(omegas, beta), want)


class TestTimeKernel:
    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            filter_time(0.0, 1.0)

    def test_positive(self):
        ts = np.array([1e-6, 0.1, 1.0, 10.0])
        assert np.all(filter_time(ts, 1.0) > 0)

    def test_total_mass_is_one(self):
        # (8/pi^2) * integral of log coth over (0, inf); the tail beyond 40
        # is below 1e-34
        head, _ = integrate.quad(lambda u: np.log(1 / np.tanh(u)), 0, 1, limit=200)
        tail, _ = integrate.quad(lambda u: np.log(1 / np.tanh(u)), 1, 40, limit=200)
        assert (8 / np.pi**2) * (head + tail) == pytest.approx(1.0, abs=1e-6)

    def test_first_moment_value_and_cap(self):
        head, _ = integrate.quad(lambda u: u * np.log(1 / np.tanh(u)), 0, 1, limit=200)
        tail, _ = integrate.quad(lambda u: u * np.log(1 / np.tanh(u)), 1, 40, limit=200)
        moment = head + tail
        assert moment == pytest.approx(7 * special.zeta(3) / 16, abs=1e-6)
        assert moment < 9 / 16

    def test_bit_equal_to_the_closed_form_where_it_is_finite(self):
        ts = np.geomspace(1e-300, 1e3, 400)
        for beta in (0.5, 3.0):
            x = np.pi * ts / (2.0 * beta)
            with np.errstate(over="ignore"):
                want = (2.0 / (beta * np.pi)) * np.log1p(2.0 / np.expm1(2.0 * x))
            assert np.array_equal(filter_time(ts, beta), want)
            assert np.array_equal(filter_time(-ts, beta), want)

    def test_past_the_float_range(self):
        # Each leaked a RuntimeWarning: x or the prefactor overflowed, or x
        # underflowed to 0 and 2 / expm1(0) divided by zero.
        assert filter_time(1.0, 1e-320) == 0.0
        assert filter_time(1e300, 1e-10) == 0.0
        assert filter_time(np.inf, 1.0) == 0.0
        # -ln x with x = pi t / 2 beta, the kernel's limit at small x.
        got = filter_time(1e-300, 1e300)
        want = 2.0 / (1e300 * np.pi) * (np.log(2.0 / np.pi) + np.log(1e300) - np.log(1e-300))
        assert got == pytest.approx(want, rel=1e-14) and np.isfinite(got)
        for t in (1e-310, 5e-324):  # x is subnormal
            assert filter_time(t, 1.0) == pytest.approx(-2.0 / np.pi * (np.log(np.pi / 2.0) + np.log(t)), rel=1e-14)
        with pytest.raises(DynamicRangeError, match="past the float range"):
            filter_time(1e-320, 1e-320)
        with pytest.raises(ValueError, match="nan"):
            filter_time(np.nan, 1.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0, np.inf, np.nan, True, "1"])
    def test_beta_must_be_finite_positive(self, beta):
        for fn, arg in ((filter_time, 1.0), (filter_hat, 0.0)):
            with pytest.raises(operators.OperatorError, match="beta must be a finite positive number"):
                fn(arg, beta)

    def test_closed_form_matches_fourier_quadrature(self):
        for beta in (0.5, 1.0, 2.0):
            for t in (0.1, 1.0, 5.0):
                closed = filter_time(t, beta)
                oracle = time_kernel_by_quadrature(t, beta)
                assert abs(closed - oracle) < 1e-4


def spectral_norm(mat):
    return np.linalg.norm(mat, 2)


class TestFilteredPerturbation:
    def test_commuting_is_identity_map(self):
        rng = np.random.default_rng(0)
        h = random_hermitian(rng, Q12).mat
        got = _filtered(h, 0.5 * h, 1.0)
        assert spectral_norm(got - 0.5 * h) < 1e-12

    def test_reversal_symmetric_h_takes_the_full_solve(self):
        # A TFIM edge term equals its index reversal, so the block screen accepts
        # it; the filter needs H's full eigenvectors, exactly as for a stack.
        h = build_chain(2, 2, transverse_ising(hx=0.7), beta=1.0).edges[0].term.mat
        v = random_hermitian(np.random.default_rng(4), Q12).mat
        assert operators._reversal_blocks(h) is not None
        assert np.array_equal(_filtered(h, v, 0.8), _filtered(h[None], v, 0.8)[0])

    def test_high_temperature_limit(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(rng, Q12).mat
        v = random_hermitian(rng, Q12).mat
        got = _filtered(h, v, 1e-9)
        assert spectral_norm(got - v) < 1e-12

    def test_matches_time_domain_quadrature(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, Q12).mat
        v = random_hermitian(rng, Q12).mat
        beta, t_max = 1.0, 15.0
        got = _filtered(h, v, beta)
        dim = h.shape[0]
        oracle = np.zeros((dim, dim), dtype=complex)

        def entry(t, j, k, part):
            u = linalg.expm(-1j * h * t)
            fwd = u @ v @ u.conj().T
            bwd = u.conj().T @ v @ u
            z = filter_time(t, beta) * (fwd[j, k] + bwd[j, k])
            return z.real if part == "re" else z.imag

        for j in range(dim):
            for k in range(dim):
                re, _ = integrate.quad(entry, 0, t_max, args=(j, k, "re"), limit=200)
                im, _ = integrate.quad(entry, 0, t_max, args=(j, k, "im"), limit=200)
                oracle[j, k] = re + 1j * im
        assert np.abs(got - oracle).max() < 1e-3

    def test_hermitian_and_contractive(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            h = random_hermitian(rng, Q12).mat
            v = random_hermitian(rng, Q12).mat
            phi = _filtered(h, v, 2.0)
            assert np.allclose(phi, phi.conj().T)
            assert spectral_norm(phi) <= spectral_norm(v) + 1e-12


class TestOrderedExponential:
    def test_zero_perturbation_is_identity(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, Q12)
        zero = DenseOperator(Q12, np.zeros((4, 4)))
        o = hastings_operator(h, zero, 1.0, 16)
        assert op_norm(o - DenseOperator.identity(Q12)) < 1e-12

    def test_norm_bound_random_ensemble(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            h = random_hermitian(rng, Q12)
            v = random_hermitian(rng, Q12)
            for s_steps in (1, 8, 64):
                o = hastings_operator(h, v, 1.0, s_steps)
                assert op_norm(o) <= np.exp(op_norm(v) / 2.0) + 1e-9

    def test_residual_monotone_in_resolution(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, Q12)
        v = random_hermitian(rng, Q12)
        residuals = [
            conjugation_residual(h, v, 1.0, hastings_operator(h, v, 1.0, s))
            for s in (16, 32, 64, 128)
        ]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_resolution_doubling_at_least_halves_residual(self):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            h = random_hermitian(rng, Q12)
            v = random_hermitian(rng, Q12)
            r64 = conjugation_residual(h, v, 1.0, hastings_operator(h, v, 1.0, 64))
            r128 = conjugation_residual(h, v, 1.0, hastings_operator(h, v, 1.0, 128))
            assert r128 <= 0.5 * r64


class TestStackedSteps:
    @staticmethod
    def step_by_step(h, v, beta, s_steps):
        result = np.eye(h.dim)
        for k in range(1, s_steps + 1):
            s = (k - 0.5) / s_steps
            phi = _filtered(h.mat + s * v.mat, v.mat, beta)
            w, u = np.linalg.eigh(phi)
            result = ((u * np.exp(-beta / (2.0 * s_steps) * w)) @ u.conj().T) @ result
        return result

    @pytest.mark.parametrize("stack_entries", [STACK_ENTRIES, 3 * 16, 1])
    def test_bit_equal_to_one_step_at_a_time(self, stack_entries, monkeypatch):
        monkeypatch.setattr(hastings, "STACK_ENTRIES", stack_entries)
        h = random_hermitian(7, Q12)
        v = random_hermitian(8, Q12)
        for s_steps in (1, 7, 64):
            got = hastings_operator(h, v, 1.5, s_steps).mat
            assert got.tobytes() == self.step_by_step(h, v, 1.5, s_steps).tobytes()


class TestConjugationResidual:
    def test_commuting_closed_form(self):
        h = DenseOperator(Q12, np.diag([1.0, 2.0, -0.5, 0.3]))
        v = DenseOperator(Q12, np.diag([0.2, -0.1, 0.4, 0.0]))
        o = matrix_exp_h(-0.5 * v)
        assert conjugation_residual(h, v, 1.0, o) <= 1e-9

    def test_identity_operator_misses(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(rng, Q12)
        v = random_hermitian(rng, Q12)
        assert conjugation_residual(h, v, 1.0, DenseOperator.identity(Q12)) > 0


Q1 = SiteLayout((1,), (2,))


class TestHermitianInputs:
    """H and V are tested for Hermiticity at the door unless flagged; the
    Hermitian part of an unflagged [[0, 1], [0, 0]] once gave an O of norm 1.23."""

    @pytest.mark.parametrize("which", ["h", "v"])
    def test_unflagged_non_hermitian_input_refused(self, which):
        ops = {"h": random_hermitian(1, Q1), "v": random_hermitian(2, Q1)}
        ops[which] = DenseOperator(Q1, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonHermitianError):
            hastings_operator(ops["h"], ops["v"], 1.0)
        with pytest.raises(NonHermitianError):
            conjugation_residual(ops["h"], ops["v"], 1.0, DenseOperator.identity(Q1))

    def test_flagged_inputs_skip_the_test(self, monkeypatch):
        tested = []
        monkeypatch.setattr(hastings, "assert_hermitian", lambda *mats: tested.extend(mats))
        h, v = random_hermitian(1, Q12), random_hermitian(2, Q12)
        flagged = hastings_operator(h, v, 1.0, 8)
        assert tested == []
        copied = hastings_operator(DenseOperator(Q12, h.mat), v, 1.0, 8)
        assert len(tested) == 1 and np.array_equal(tested[0], h.mat)
        assert np.array_equal(copied.mat, flagged.mat)


class TestFloatRange:
    def test_exponent_checked_before_exponentiating(self):
        # beta (||H||_F + ||V||_F) + ln 2d against ln(float max) ≈ 709.78: the
        # residual once overflowed in exp at beta = 300 and the SVD failed.
        h = DenseOperator(Q12, np.diag([1.0, 2.0, -0.5, 0.3]))
        v = DenseOperator(Q12, np.diag([0.2, -0.1, 0.4, 0.0]))
        o = matrix_exp_h(-0.5 * v)
        edge = (operators.LOG_FLOAT_MAX - np.log(8.0)) / (np.linalg.norm(h.mat) + np.linalg.norm(v.mat))
        assert np.isfinite(conjugation_residual(h, v, 0.999 * edge, o))
        assert np.all(np.isfinite(hastings_operator(h, v, 0.999 * edge, 4).mat))
        for beta in (1.001 * edge, 1e6, 1e308):
            limit = re.escape(f"beta {beta:g} needs exp(") + r".*ln\(float max\) = 709\.783"
            with pytest.raises(DynamicRangeError, match=limit):
                hastings_operator(h, v, beta, 4)
            with pytest.raises(DynamicRangeError):
                conjugation_residual(h, v, beta, DenseOperator.identity(Q12))


@pytest.fixture(scope="module")
def chain():
    return build_chain(6, 2, transverse_ising(1.0, 1.0), beta=1.0)


def truncated(model, radius, s_steps):
    """Conjugation operator of the middle edge (3, 4) over the base terms
    inside its radius-``radius`` ball, embedded on the full layout."""
    ball = {v for v, d in distance_map(model, {3, 4}).items() if d <= radius}
    ball_layout = model.layout.subset(ball)
    base = [e for e in model.edges if e.key != (3, 4) and e.endpoints() <= ball]
    h = edge_hamiltonian(model, base, ball_layout)
    v = edge_hamiltonian(model, [model.edge((3, 4))], ball_layout)
    return embed(hastings_operator(h, v, model.beta, s_steps), model.layout)


class TestTruncation:
    def test_vacuous_beyond_diameter(self, chain):
        h = edge_hamiltonian(chain, [e for e in chain.edges if e.key != (3, 4)])
        v = edge_hamiltonian(chain, [chain.edge((3, 4))])
        o_full = hastings_operator(h, v, chain.beta, 16)
        o_trunc = truncated(chain, 7, 16)
        assert op_norm(o_full - o_trunc) < 1e-12

    def test_radius_zero_uses_only_perturbation_edges(self, chain):
        o0 = truncated(chain, 0, 16)
        ball = SiteLayout((3, 4), (2, 2))
        zero_base = DenseOperator(ball, np.zeros((4, 4)))
        v = edge_hamiltonian(chain, [chain.edge((3, 4))], ball)
        want = embed(hastings_operator(zero_base, v, chain.beta, 16), chain.layout)
        assert op_norm(o0 - want) < 1e-12

    def test_distance_shrinks_with_radius(self, chain):
        h = edge_hamiltonian(chain, [e for e in chain.edges if e.key != (3, 4)])
        v = edge_hamiltonian(chain, [chain.edge((3, 4))])
        o_full = hastings_operator(h, v, chain.beta, 32)
        dist = {ell: op_norm(o_full - truncated(chain, ell, 32)) for ell in (0, 1, 2, 3)}
        assert dist[0] > dist[1] > dist[2]
        assert dist[2] <= 1e-12 and dist[3] <= 1e-12
        for ell, want in TRUNCATION_DISTANCES.items():
            assert dist[ell] == pytest.approx(want, rel=1e-6)
