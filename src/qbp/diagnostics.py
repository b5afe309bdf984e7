"""Thermal potential, cumulant decay, and the single-step error budget.

Tracing a region out of a thermal state changes the effective Hamiltonian of
what remains; the change is the *thermal potential* of the traced region.
Decomposing that potential into distance shells around the traced region
(its *cumulants*) and fitting an exponential envelope to the shell norms
yields the two constants (amplitude, decay rate) that, combined with
locality constants, price the error of a single windowed propagation step.

This module computes all three layers: the potential, its cumulants and
their fitted envelope, and the evaluator for the predicted error bound,
plus the experiment that puts the measured error and the prediction side
by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .models import (
    GraphModel,
    ModelError,
    degrees,
    distance_map,
    edge_gibbs_state,
    edge_hamiltonian,
    exact_reduced_density,
    region_partition,
)
from .operators import (
    DenseOperator,
    DynamicRangeError,
    LOG_EIG_FLOOR,
    LOG_FLOAT_MAX,
    _as_positive,
    embed,
    embed_sum,
    gibbs_state,
    matrix_log_pd,
    op_norm,
    partial_trace,
    trace_norm,
)
from .propagation import log_linear_fit

#: Cumulant norms at or below this floor are excluded from envelope fits.
FIT_FLOOR = 1e-12


def thermal_potential(model: GraphModel, traced: Iterable[int]) -> DenseOperator:
    """Change in effective Hamiltonian from tracing ``traced`` out of the
    model's thermal state.

    Returned on the reduced layout (all sites except ``traced``), where it
    satisfies exp(-beta (H_out + V_th)) = Tr_traced[exp(-beta H) / Z] with
    H_out the terms having no endpoint in ``traced``.  Only those outside
    terms are subtracted: terms touching the traced sites have no home on
    the reduced space, and the discrepancy is confined to the distance-1
    shell.
    """
    traced = frozenset(traced)
    if not traced or not traced < set(model.vertices):
        raise ModelError(
            f"traced set {sorted(traced)} must be a nonempty proper subset of the vertices"
        )
    reduced = exact_reduced_density(model, set(model.vertices) - traced)
    outside = [e for e in model.edges if not (e.endpoints() & traced)]
    h_out = edge_hamiltonian(model, outside, reduced.layout)
    return (-1.0 / model.beta) * matrix_log_pd(reduced) - h_out


@dataclass(frozen=True)
class CumulantEntry:
    """Distance shell index, the shell operator on its own support (the
    sites within distance j), and its operator norm."""

    j: int
    op: DenseOperator | None
    norm: float


@dataclass(frozen=True)
class CumulantSeries:
    anchor: frozenset[int]
    entries: tuple[CumulantEntry, ...]
    reconstruction_residual: float

    def norms(self) -> list[tuple[int, float]]:
        return [(e.j, e.norm) for e in self.entries]


def cumulants(
    op: DenseOperator, model: GraphModel, anchor: Iterable[int]
) -> CumulantSeries:
    """Telescoping decomposition of ``op`` into distance shells around
    ``anchor``.

    Shell j is obtained by conditionally averaging the running remainder
    over all sites farther than j from the anchor, so it is supported within
    distance j; because the conditional average is the identity once no site
    remains beyond j, the shells sum back to ``op`` exactly.  Distances are
    measured in the model graph, so ``op`` may live on a reduced layout.

    Each shell is held, and its norm taken, on its own support, since
    ||A (x) I|| = ||A||; it is embedded at ``op``'s full dimension only to
    update the remainder, and the telescoping residual adds every shell into
    one tensor, so only the last shell and the residual are solved at that
    dimension.
    """
    anchor = frozenset(anchor)
    dm = distance_map(model, anchor)
    sites = op.layout.sites
    unknown = set(sites) - set(dm)
    if unknown:
        raise ModelError(f"operator sites {sorted(unknown)} are not model vertices")
    entries = []
    remainder = op
    j = 1
    while True:
        far = [s for s in sites if dm[s] > j]
        shell = remainder
        if far:
            reduced = partial_trace(remainder, far)
            shell = (1.0 / (op.dim // reduced.dim)) * reduced
        entries.append(CumulantEntry(j, shell, op_norm(shell)))
        if not far:
            break
        remainder = remainder - embed(shell, op.layout)
        j += 1
    residual = trace_norm(embed_sum((e.op for e in entries), op.layout) - op)
    return CumulantSeries(anchor, tuple(entries), residual)


@dataclass(frozen=True)
class ThermalBoundFit:
    """Least-squares envelope amplitude * exp(-decay * j) over shell norms."""

    defined: bool
    amplitude: float
    decay: float
    residual: float
    floored: int
    points: tuple[tuple[int, float], ...]


def fit_thermal_bound(series: CumulantSeries) -> ThermalBoundFit:
    """Fit log-norm against shell index over entries above ``FIT_FLOOR``.

    With fewer than two usable points the fit is reported as undefined
    rather than raised: a state whose potential dies inside the first shell
    has nothing to fit, which is itself the interesting outcome.
    """
    usable, fit = log_linear_fit(series.norms(), FIT_FLOOR)
    floored = len(series.entries) - len(usable)
    if fit is None:
        return ThermalBoundFit(False, math.nan, math.nan, math.nan, floored, usable)
    slope, intercept, residual = fit
    return ThermalBoundFit(True, float(np.exp(intercept)), -slope, residual, floored, usable)


@dataclass(frozen=True)
class BoundConstants:
    """Free constants entering the single-step error bound.

    ``trunc_rate`` and ``trunc_beta_scale`` govern how fast the conjugation
    operator can be truncated to a local ball; ``lr_decay`` and
    ``lr_velocity`` are the locality (light-cone) constants of the
    Hamiltonian; ``cumulant_amp`` and ``cumulant_decay`` are the
    fitted envelope of the thermal-potential cumulants.  Each is stored as
    a float by the rule of ``operators._as_positive``, whose ``OperatorError``
    names the field.
    """

    trunc_rate: float
    trunc_beta_scale: float
    lr_decay: float
    lr_velocity: float
    cumulant_amp: float
    cumulant_decay: float

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, _as_positive(field.name, getattr(self, field.name)))


@dataclass(frozen=True)
class BoundBreakdown:
    """Evaluated error budget: truncation piece, drift piece, and the
    (linear coefficient, constant coefficient, decay rate) of the envelope
    (radius * linear + const) * exp(-rate * radius)."""

    total: float
    bound1: float
    bound2: float
    linear_coeff: float
    const_coeff: float
    rate: float


def single_step_bound(
    consts: BoundConstants,
    beta: float,
    buffer_norm: float,
    radius: int,
) -> BoundBreakdown:
    """Evaluate the predicted error envelope for one windowed step.

    ``buffer_norm`` is the operator norm of the Hamiltonian on the buffer
    (boundary) edges.  The first piece prices replacing the conjugation
    operator by its radius-local truncation; the second prices the drift
    between conjugating the true and the effective thermal backgrounds.
    Raises ``DynamicRangeError`` where an exponent or the envelope leaves the
    float range.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if buffer_norm < 0:
        raise ValueError(f"buffer_norm must be non-negative, got {buffer_norm}")

    def exp(x: float) -> float:
        if x > LOG_FLOAT_MAX:
            raise DynamicRangeError(f"exponent {x} past {LOG_FLOAT_MAX:.4f}: the bound leaves the float range")
        return math.exp(x)

    c = consts.trunc_rate
    alpha = consts.trunc_beta_scale
    a = consts.lr_decay
    v = consts.lr_velocity
    big_k = consts.cumulant_amp
    k = consts.cumulant_decay
    pi = math.pi

    denom = 1.0 + c * alpha * beta / pi
    c_shifted = c * exp(2.0 * c / denom)
    bound1 = (
        2.0
        * c_shifted
        * beta
        * buffer_norm
        * exp((4.0 + c) * beta * buffer_norm / 2.0)
        * exp(-c * radius / denom)
    )

    big_l = 2.0 * big_k / (1.0 - exp(-k))
    a_eff = min(k, a)
    m_tilde = (
        9.0 * big_l * beta**2
        + (8.0 * beta / pi) * exp(2.0 * beta * a * v / pi)
        + 2.0 * math.sqrt(beta / (pi * a * v))
    )
    linear_coeff = 2.0 * big_l * beta * a_eff / (a * v)
    const_coeff = m_tilde + 4.0 * big_l * beta**2 / pi**2
    rate = min(a_eff / 2.0, pi * a_eff / (2.0 * a * v * beta))
    bound2 = (
        (beta / 2.0)
        * exp(2.0 * beta * buffer_norm)
        * (radius * linear_coeff + const_coeff)
        * exp(-rate * radius)
    )
    if not math.isfinite(bound1 + bound2):
        raise DynamicRangeError(f"the bound leaves the float range at beta {beta}, buffer norm {buffer_norm}")
    return BoundBreakdown(
        bound1 + bound2, bound1, bound2, linear_coeff, const_coeff, rate
    )


@dataclass(frozen=True)
class SingleStepRecord:
    """Measured one-step error (both normalizations) next to the prediction."""

    radius: int
    lhs_literal: float
    lhs_normalized: float
    buffer_norm: float
    bound: BoundBreakdown | None


def single_step_experiment(
    model: GraphModel,
    leaf: int,
    radius: int,
    consts: BoundConstants | None = None,
) -> SingleStepRecord:
    """Measure the error of one windowed propagation step at a leaf.

    Compares the exact once-traced thermal state against the windowed
    surrogate exp(-beta H_away + log near), where H_away sums the outer and
    buffer terms and near is the traced exponential of the inner
    Hamiltonian.  Both a shared-normalization (literal, the surrogate over
    the model's Z) and a unit-trace variant are reported, since either
    reading of the normalizations is defensible; the normalized one is the
    operationally meaningful density-to-density distance.
    """
    if degrees(model).get(leaf) != 1:
        raise ModelError(f"vertex {leaf} is not a leaf")
    if radius < 1:
        raise ModelError(f"radius must be >= 1, got {radius}")
    beta = model.beta
    parts = region_partition(model, {leaf}, radius)
    term1, log_z = edge_gibbs_state(model, model.edges, {leaf})
    reduced_layout = model.layout.drop({leaf})

    away = edge_hamiltonian(model, parts.outer + parts.buffer, reduced_layout)
    # The inner terms touch exactly the radius ball, so exp(-beta H_inner) on
    # the full layout is the ball's exponential tensored with identity.
    # near = Tr_leaf exp(-beta H_inner) is t times the unit-trace operator
    # given here, so the floor scales by 1/t and the same eigenvalues fall below it.
    near, log_t = edge_gibbs_state(model, parts.inner, {leaf})
    log_near = matrix_log_pd(near, floor=LOG_EIG_FLOOR * math.exp(-log_t))
    surrogate, log_s = gibbs_state(embed_sum([beta * away, -log_near]), 1.0)

    # The surrogate exp(-beta H_away + log near) has trace t * exp(log_s).
    scale = math.exp(log_t + log_s - log_z)
    lhs_normalized = trace_norm(term1 - surrogate)
    lhs_literal = trace_norm(term1 - scale * surrogate)
    ends = frozenset().union(*(e.endpoints() for e in parts.buffer))
    buffer_norm = (
        op_norm(edge_hamiltonian(model, parts.buffer, model.layout.subset(ends)))
        if parts.buffer
        else 0.0
    )
    bound = (
        single_step_bound(consts, beta, buffer_norm, radius)
        if consts is not None
        else None
    )
    return SingleStepRecord(radius, lhs_literal, lhs_normalized, buffer_norm, bound)
