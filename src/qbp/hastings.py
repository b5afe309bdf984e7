"""Hastings-style conjugation of thermal states by filtered perturbations.

Adding a Hermitian perturbation V to a Hamiltonian H deforms its thermal
state *inside* the exponential; Hastings' construction expresses the
deformation as an ordinary conjugation exp(-beta(H+V)) = O exp(-beta H) O†,
where O is an ordered exponential of frequency-filtered copies of V.

The filter has frequency profile tanh(beta w / 2) / (beta w / 2) and a
closed-form time kernel (2 / beta pi) log coth(pi |t| / 2 beta), which is
positive, integrates to exactly 1, and decays exponentially.  The filter is
applied spectrally (an eigenvalue-gap filter in the eigenbasis of H): the
frequency profile is the Fourier transform of the time kernel, so the
spectral route is exact up to the eigensolver, with time-domain quadrature
kept only as a test oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import (
    LOG_FLOAT_MAX,
    DenseOperator,
    DynamicRangeError,
    SiteMismatchError,
    _as_integer,
    _as_positive,
    _dagger,
    _eigh,
    _hermitian_mats,
    embed_on_union,
    hermitize,
    matrix_exp_h,
    trace_norm,
)

#: Below this value of |beta * omega| the frequency profile switches to its
#: two-term Taylor series to dodge the 0/0 cancellation.
SMALL_FREQ = 1e-8

#: Matrix entries per stack of midpoint steps in ``hastings_operator``.  A
#: matrix at d >= 256 fills it alone, so large layouts still go one step at a
#: time and need no more memory than a step-by-step loop.
STACK_ENTRIES = 2**16


def filter_hat(omega, beta: float):
    """Frequency profile tanh(beta w / 2) / (beta w / 2); takes scalars or arrays.

    The removable singularity at w = 0 is filled with the series
    1 - (beta w)^2 / 12, giving exactly 1 at zero frequency; the series is
    formed from the small entries alone.  A product beta w past the float
    range is inf, where tanh(x) / x gives 0, the profile's limit.  beta must
    be a finite positive number (OperatorError otherwise).
    """
    beta = _as_positive("beta", beta)
    with np.errstate(over="ignore"):
        bw = beta * np.asarray(omega, dtype=float)
    small = np.abs(bw) < SMALL_FREQ
    series = np.where(small, bw, 0.0)
    safe = np.where(small, 1.0, bw / 2.0)
    out = np.where(small, 1.0 - series * series / 12.0, np.tanh(safe) / safe)
    return float(out) if np.isscalar(omega) else out


def filter_time(t, beta: float):
    """Closed-form time kernel (2 / beta pi) log coth(pi |t| / 2 beta).

    Positive with an integrable log singularity at t = 0, where it is
    undefined; exactly zero total-variation mass 1.  beta must be a finite
    positive number (OperatorError otherwise); DynamicRangeError where the
    kernel's value is past the float range, which takes t and beta below 1e-300.
    """
    beta = _as_positive("beta", beta)
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.abs(t_arr) > 0.0):
        raise ValueError("the time kernel is singular at t = 0 and undefined at nan")
    # log(coth x) = log1p(2 / (e^{2x} - 1)).  Overflow of x or of e^{2x}
    # harmlessly drives the argument to zero.  Where 2 / (e^{2x} - 1) overflows
    # (x below about 1e-308), log coth x = -ln x within x², and ln x is taken
    # as a sum of logs, since x itself may be 0 or subnormal.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.pi * np.abs(t_arr) / (2.0 * beta)
        log_coth = np.log1p(2.0 / np.expm1(2.0 * x))
        minus_ln_x = np.log(2.0 / np.pi) + np.log(beta) - np.log(np.abs(t_arr))
        log_coth = np.where(np.isinf(log_coth), minus_ln_x, log_coth)
        val = np.where(log_coth == 0.0, 0.0, (2.0 / (beta * np.pi)) * log_coth)
    if not np.isfinite(val).all():
        raise DynamicRangeError(f"the time kernel at beta {beta:g} is past the float range")
    return float(val) if np.isscalar(t) else val


def _filtered(h_mat: np.ndarray, v_mat: np.ndarray, beta: float) -> np.ndarray:
    """V filtered in the eigenbasis of H, for one H or a stack of them.

    Entry (j, k) in that basis is V_jk damped by the profile at the gap
    E_j - E_k, so the result is Hermitian and never exceeds V in norm.
    """
    w, u = _eigh(hermitize(h_mat))
    v_tilde = _dagger(u) @ v_mat @ u
    gaps = w[..., :, None] - w[..., None, :]
    return hermitize(u @ (filter_hat(gaps, beta) * v_tilde) @ _dagger(u))


def _operands(h: DenseOperator, v: DenseOperator, beta) -> tuple[float, DenseOperator, DenseOperator]:
    """beta by the rule of ``operators._as_positive``, and H and V, tested
    Hermitian unless flagged, flagged and embedded on their union.  Raises DynamicRangeError,
    before any exponential is taken, unless every entry, product and sum that
    ``hastings_operator`` and ``conjugation_residual`` form stays a float: each
    is at most 2d exp(beta (||H|| + ||V||)).  The Frobenius norms bound the
    spectral ones and cost no eigensolve; ``hypot`` keeps them from overflowing."""
    beta = _as_positive("beta", beta)
    h, v = (DenseOperator(x.layout, mat, True) for x, mat in zip((h, v), _hermitian_mats(h, v)))
    h, v = embed_on_union(h, v)
    norms = sum(float(np.hypot.reduce(np.abs(x.mat).ravel())) for x in (h, v))
    exponent = beta * norms + math.log(2 * h.dim)
    if exponent > LOG_FLOAT_MAX:
        raise DynamicRangeError(
            f"beta {beta:g} needs exp({exponent:.6g}) = 2d exp(beta (||H||_F + ||V||_F)), "
            f"past ln(float max) = {LOG_FLOAT_MAX:.6g}"
        )
    return beta, h, v


def hastings_operator(
    h: DenseOperator, v: DenseOperator, beta: float, s_steps: int = 64
) -> DenseOperator:
    """Midpoint-rule ordered exponential of the filtered perturbation.

    Discretizes the interpolation H(s) = H + sV at midpoints s_k = (k - 1/2)/n
    and left-multiplies the factors exp(-(beta / 2n) * filtered(H(s_k), V)),
    largest s outermost.  Satisfies ||O|| <= exp(beta ||V|| / 2) for every
    resolution, since each factor's exponent is bounded by ||V|| / 2n.  The
    factors do not depend on the running product, so the steps are
    decomposed in stacks of at most ``STACK_ENTRIES`` matrix entries.
    H and V must be Hermitian (tested unless flagged), beta positive and
    ``s_steps`` an integer by the rules of ``operators._as_positive`` and
    ``_as_integer``.  Raises DynamicRangeError where a float cannot hold the
    product.
    """
    s_steps = _as_integer("s_steps", s_steps)
    if s_steps < 1:
        raise ValueError(f"s_steps must be >= 1, got {s_steps}")
    beta, h, v = _operands(h, v, beta)
    result = np.eye(h.dim)
    step = -beta / (2.0 * s_steps)
    chunk = max(1, STACK_ENTRIES // h.dim**2)
    for first in range(1, s_steps + 1, chunk):
        k = np.arange(first, min(first + chunk, s_steps + 1))
        s = (k - 0.5) / s_steps
        phi = _filtered(h.mat + s[:, None, None] * v.mat, v.mat, beta)
        w, u = _eigh(phi)
        for factor in (u * np.exp(step * w)[..., None, :]) @ _dagger(u):
            result = factor @ result
    return DenseOperator(h.layout, result)


def conjugation_residual(
    h: DenseOperator, v: DenseOperator, beta: float, o: DenseOperator
) -> float:
    """Relative trace-norm defect of the conjugation identity:
    ||O exp(-beta H) O† - exp(-beta (H+V))||_1 / ||exp(-beta (H+V))||_1,
    for O within the cap ``hastings_operator`` meets, ||O|| <= exp(beta ||V|| / 2).
    H and V must be Hermitian (tested unless flagged), beta positive by the rule
    of ``operators._as_positive``.  Raises DynamicRangeError where a float
    cannot hold the exponentials or O exp(-beta H) O†."""
    beta, h, v = _operands(h, v, beta)
    if o.layout != h.layout:
        raise SiteMismatchError("conjugation operator layout does not match H, V")
    target = matrix_exp_h(-beta * (h + v))
    base = matrix_exp_h(-beta * h).mat
    with np.errstate(over="ignore", invalid="ignore"):  # an O far past its cap
        approx = hermitize(o.mat @ base @ _dagger(o.mat))  # Hermitian by construction
    if not np.isfinite(approx).all():
        raise DynamicRangeError("O exp(-beta H) O† is past the float range")
    return trace_norm(DenseOperator(h.layout, approx, True) - target) / trace_norm(target)
