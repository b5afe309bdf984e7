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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import EdgeTerm, GraphModel, ModelError, distance_map, edge_hamiltonian
from .operators import (
    DenseOperator,
    SiteMismatchError,
    embed,
    hermitize,
    matrix_exp_h,
    trace_norm,
    union_layout,
)

#: Below this value of |beta * omega| the frequency profile switches to its
#: two-term Taylor series to dodge the 0/0 cancellation.
SMALL_FREQ = 1e-8


@dataclass(frozen=True)
class FilterSpec:
    """Filter configuration: inverse temperature, ordered-product resolution,
    and the time-domain grid used by quadrature cross-checks."""

    beta: float
    s_steps: int = 64
    t_max: float = 15.0
    n_points: int = 400

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.s_steps < 1:
            raise ValueError(f"s_steps must be >= 1, got {self.s_steps}")
        if self.t_max <= 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")


def filter_hat(omega, beta: float):
    """Frequency profile tanh(beta w / 2) / (beta w / 2); takes scalars or arrays.

    The removable singularity at w = 0 is filled with the series
    1 - (beta w)^2 / 12, giving exactly 1 at zero frequency.
    """
    bw = beta * np.asarray(omega, dtype=float)
    x = bw / 2.0
    small = np.abs(bw) < SMALL_FREQ
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 - bw * bw / 12.0, np.tanh(safe) / safe)
    return float(out) if np.isscalar(omega) else out


def filter_time(t, beta: float):
    """Closed-form time kernel (2 / beta pi) log coth(pi |t| / 2 beta).

    Positive with an integrable log singularity at t = 0, where it is
    undefined; exactly zero total-variation mass 1.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr == 0.0):
        raise ValueError("the time kernel is singular at t = 0")
    x = np.pi * np.abs(t_arr) / (2.0 * beta)
    # log(coth x) = log1p(2 / (e^{2x} - 1)); overflow of e^{2x} harmlessly
    # drives the argument to zero.
    with np.errstate(over="ignore"):
        val = (2.0 / (beta * np.pi)) * np.log1p(2.0 / np.expm1(2.0 * x))
    return float(val) if np.isscalar(t) else val


def _filtered(h_mat: np.ndarray, v_mat: np.ndarray, beta: float) -> np.ndarray:
    w, u = np.linalg.eigh(hermitize(h_mat))
    v_tilde = u.conj().T @ v_mat @ u
    gaps = w[:, None] - w[None, :]
    return hermitize(u @ (filter_hat(gaps, beta) * v_tilde) @ u.conj().T)


def _embedded_pair(
    h: DenseOperator, v: DenseOperator
) -> tuple[DenseOperator, DenseOperator]:
    layout = union_layout(h.layout, v.layout)
    return embed(h, layout), embed(v, layout)


def filtered_perturbation(
    h: DenseOperator, v: DenseOperator, beta: float
) -> DenseOperator:
    """Apply the thermal frequency filter to V in the eigenbasis of H.

    Entry (j, k) of the result, in that basis, is V_jk damped by the profile
    evaluated at the eigenvalue gap E_j - E_k.  The output is Hermitian and
    never exceeds V in operator norm (the profile lies in (0, 1]).
    """
    h, v = _embedded_pair(h, v)
    return DenseOperator(h.layout, _filtered(h.mat, v.mat, beta))


def hastings_operator(
    h: DenseOperator, v: DenseOperator, beta: float, s_steps: int = 64
) -> DenseOperator:
    """Midpoint-rule ordered exponential of the filtered perturbation.

    Discretizes the interpolation H(s) = H + sV at midpoints s_k = (k - 1/2)/n
    and left-multiplies the factors exp(-(beta / 2n) * filtered(H(s_k), V)),
    largest s outermost.  Satisfies ||O|| <= exp(beta ||V|| / 2) for every
    resolution, since each factor's exponent is bounded by ||V|| / 2n.
    """
    if s_steps < 1:
        raise ValueError(f"s_steps must be >= 1, got {s_steps}")
    h, v = _embedded_pair(h, v)
    result = np.eye(h.dim)
    step = -beta / (2.0 * s_steps)
    for k in range(1, s_steps + 1):
        s = (k - 0.5) / s_steps
        phi = _filtered(h.mat + s * v.mat, v.mat, beta)
        w, u = np.linalg.eigh(phi)
        factor = (u * np.exp(step * w)) @ u.conj().T
        result = factor @ result
    return DenseOperator(h.layout, result)


def truncated_hastings(
    model: GraphModel,
    perturbation: Sequence[EdgeTerm] | Sequence[tuple[int, int]],
    radius: int,
    s_steps: int = 64,
) -> DenseOperator:
    """Locally truncated conjugation operator.

    The base Hamiltonian is restricted to edge terms lying entirely inside
    the radius-``radius`` ball around the perturbation's support, so the
    result is supported in that ball by construction; it is returned embedded
    on the full model layout.  At radius 0 only the perturbation's own edges
    can survive, and beyond the graph diameter the truncation is vacuous.
    """
    if radius < 0:
        raise ModelError(f"radius must be non-negative, got {radius}")
    pert = tuple(
        e if isinstance(e, EdgeTerm) else model.edge(e) for e in perturbation
    )
    if not pert:
        raise ModelError("perturbation needs at least one edge")
    support = frozenset().union(*(e.endpoints() for e in pert))
    dm = distance_map(model, support)
    ball = {s for s, d in dm.items() if d <= radius}
    pert_keys = {e.key for e in pert}
    base = [
        e
        for e in model.edges
        if e.key not in pert_keys and e.u in ball and e.v in ball
    ]
    ball_layout = model.layout.subset(ball)
    h = edge_hamiltonian(model, base, ball_layout)
    v = edge_hamiltonian(model, pert, ball_layout)
    return embed(hastings_operator(h, v, model.beta, s_steps), model.layout)


def conjugation_residual(
    h: DenseOperator, v: DenseOperator, beta: float, o: DenseOperator
) -> float:
    """Relative trace-norm defect of the conjugation identity:
    ||O exp(-beta H) O† - exp(-beta (H+V))||_1 / ||exp(-beta (H+V))||_1."""
    h, v = _embedded_pair(h, v)
    if o.layout != h.layout:
        raise SiteMismatchError("conjugation operator layout does not match H, V")
    target = matrix_exp_h(-beta * (h + v))
    base = matrix_exp_h(-beta * h)
    approx = o @ base @ o.dagger()
    return trace_norm(approx - target) / trace_norm(target)
