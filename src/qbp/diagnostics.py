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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .models import (
    EdgeTerm,
    GraphModel,
    ModelError,
    degrees,
    distance_map,
    edge_hamiltonian,
    log_partition_function,
    neighborhood,
    region_partition,
    thermal_state,
)
from .operators import (
    DenseOperator,
    LOG_EIG_FLOOR,
    PAULI_Z,
    conditional_expectation,
    embed,
    gibbs_state,
    matrix_log_pd,
    op_norm,
    partial_trace,
    time_evolve,
    trace_norm,
)
from .propagation import _sum_on_union

#: Cumulant norms at or below this floor are excluded from envelope fits.
FIT_FLOOR = 1e-12


def thermal_potential(
    model: GraphModel,
    traced: Iterable[int],
    edges: Sequence[EdgeTerm] | None = None,
) -> DenseOperator:
    """Change in effective Hamiltonian from tracing ``traced`` out of the
    thermal state of the given edge subset (default: the whole model).

    Returned on the reduced layout (all sites except ``traced``), where it
    satisfies exp(-beta (H_out + V_th)) = Tr_traced[exp(-beta H') / Z'] with
    H_out the subset terms having no endpoint in ``traced``.  Only those
    outside terms are subtracted: terms touching the traced sites have no
    home on the reduced space, and the discrepancy is confined to the
    distance-1 shell.
    """
    traced = frozenset(traced)
    edges = model.edges if edges is None else tuple(edges)
    if not edges:
        raise ModelError("thermal potential needs at least one edge term")
    endpoints = frozenset().union(*(e.endpoints() for e in edges))
    if not traced or not traced <= endpoints:
        raise ModelError(
            f"traced set {sorted(traced)} must lie on the subset's endpoints"
        )
    if traced >= set(model.vertices):
        raise ModelError("cannot trace out every vertex")
    beta = model.beta
    if set(edges) == set(model.edges):
        state = thermal_state(model)
    else:
        state, _ = gibbs_state(edge_hamiltonian(model, edges), beta)
    reduced = partial_trace(state, traced)
    outside = [e for e in edges if not (e.endpoints() & traced)]
    h_out = edge_hamiltonian(model, outside, reduced.layout)
    return (-1.0 / beta) * matrix_log_pd(reduced) - h_out


@dataclass(frozen=True)
class CumulantEntry:
    """Distance shell index, the shell operator, and its operator norm."""

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
    """
    anchor = frozenset(anchor)
    dm = distance_map(model, anchor)
    sites = op.layout.sites
    unknown = set(sites) - set(dm)
    if unknown:
        raise ModelError(f"operator sites {sorted(unknown)} are not model vertices")
    entries = []
    remainder = op
    total = DenseOperator(op.layout, np.zeros_like(op.mat))
    j = 1
    while True:
        far = [s for s in sites if dm[s] > j]
        if not far:
            shell = remainder
        else:
            shell = conditional_expectation(remainder, far)
        entries.append(CumulantEntry(j, shell, op_norm(shell)))
        total = total + shell
        if not far:
            break
        remainder = remainder - shell
        j += 1
    residual = trace_norm(total - op)
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


def fit_thermal_bound(series: CumulantSeries, floor: float = FIT_FLOOR) -> ThermalBoundFit:
    """Fit log-norm against shell index over entries above the noise floor.

    With fewer than two usable points the fit is reported as undefined
    rather than raised: a state whose potential dies inside the first shell
    has nothing to fit, which is itself the interesting outcome.
    """
    usable = [(e.j, e.norm) for e in series.entries if e.norm > floor]
    floored = len(series.entries) - len(usable)
    if len(usable) < 2:
        return ThermalBoundFit(False, math.nan, math.nan, math.nan, floored, tuple(usable))
    xs = np.array([j for j, _ in usable], dtype=float)
    ys = np.log(np.array([n for _, n in usable]))
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return ThermalBoundFit(
        True, float(np.exp(intercept)), float(-slope), residual, floored, tuple(usable)
    )


@dataclass(frozen=True)
class BoundConstants:
    """Free constants entering the single-step error bound.

    ``trunc_rate`` and ``trunc_beta_scale`` govern how fast the conjugation
    operator can be truncated to a local ball; ``lr_amplitude``,
    ``lr_decay`` and ``lr_velocity`` are the locality (light-cone) constants
    of the Hamiltonian; ``cumulant_amp`` and ``cumulant_decay`` are the
    fitted envelope of the thermal-potential cumulants.
    """

    trunc_rate: float
    trunc_beta_scale: float
    lr_amplitude: float
    lr_decay: float
    lr_velocity: float
    cumulant_amp: float
    cumulant_decay: float

    def __post_init__(self):
        for name in (
            "trunc_rate",
            "trunc_beta_scale",
            "lr_amplitude",
            "lr_decay",
            "lr_velocity",
            "cumulant_amp",
            "cumulant_decay",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")


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
    literal_rate: bool = False,
) -> BoundBreakdown:
    """Evaluate the predicted error envelope for one windowed step.

    ``buffer_norm`` is the operator norm of the Hamiltonian on the buffer
    (boundary) edges.  The first piece prices replacing the conjugation
    operator by its radius-local truncation; the second prices the drift
    between conjugating the true and the effective thermal backgrounds.
    ``literal_rate`` drops the min(cumulant_decay, lr_decay) factor from
    the decay rate and uses the looser min(1/2, pi / (2 beta a v)).
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if buffer_norm < 0:
        raise ValueError(f"buffer_norm must be non-negative, got {buffer_norm}")
    c = consts.trunc_rate
    alpha = consts.trunc_beta_scale
    a = consts.lr_decay
    v = consts.lr_velocity
    big_k = consts.cumulant_amp
    k = consts.cumulant_decay
    pi = math.pi

    denom = 1.0 + c * alpha * beta / pi
    c_shifted = c * math.exp(2.0 * c / denom)
    bound1 = (
        2.0
        * c_shifted
        * beta
        * buffer_norm
        * math.exp((4.0 + c) * beta * buffer_norm / 2.0)
        * math.exp(-c * radius / denom)
    )

    big_l = 2.0 * big_k / (1.0 - math.exp(-k))
    a_eff = min(k, a)
    m_tilde = (
        9.0 * big_l * beta**2
        + (8.0 * beta / pi) * math.exp(2.0 * beta * a * v / pi)
        + 2.0 * math.sqrt(beta / (pi * a * v))
    )
    linear_coeff = 2.0 * big_l * beta * a_eff / (a * v)
    const_coeff = m_tilde + 4.0 * big_l * beta**2 / pi**2
    if literal_rate:
        rate = min(0.5, pi / (2.0 * beta * a * v))
    else:
        rate = min(a_eff / 2.0, pi * a_eff / (2.0 * a * v * beta))
    bound2 = (
        (beta / 2.0)
        * math.exp(2.0 * beta * buffer_norm)
        * (radius * linear_coeff + const_coeff)
        * math.exp(-rate * radius)
    )
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
    term1 = partial_trace(thermal_state(model), {leaf})
    reduced_layout = model.layout.drop({leaf})

    away = edge_hamiltonian(model, parts.outer + parts.buffer, reduced_layout)
    # The inner terms live in the radius ball, so exp(-beta H_inner) on the
    # full layout is the ball's exponential tensored with identity.
    ball_layout = model.layout.subset(neighborhood(model, {leaf}, radius))
    h_inner = edge_hamiltonian(model, parts.inner, ball_layout)
    near_ball, log_t = gibbs_state(h_inner, beta)
    # near = Tr_leaf exp(-beta H_inner) is t times this unit-trace operator,
    # so the floor scales by 1/t and the same eigenvalues fall below it.
    near = partial_trace(near_ball, {leaf})
    log_near = matrix_log_pd(near, floor=LOG_EIG_FLOOR * math.exp(-log_t))
    surrogate, log_s = gibbs_state(_sum_on_union(beta * away, -log_near), 1.0)

    # The surrogate exp(-beta H_away + log near) has trace t * exp(log_s).
    log_scale = log_t + log_s - log_partition_function(model)
    lhs_literal = trace_norm(term1 - math.exp(log_scale) * surrogate)
    lhs_normalized = trace_norm(term1 - surrogate)
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


@dataclass(frozen=True)
class LocalizationRecord:
    """Measured drift of a time-evolved observable under a decaying
    perturbation, with the constant cap and (optionally) the predicted
    envelope, which is reported rather than asserted."""

    radius: int
    time: float
    measured: float
    cap: float
    predicted: float | None


def localization_records(
    model: GraphModel,
    anchor: int,
    radii: Sequence[int],
    times: Sequence[float],
    consts: BoundConstants | None = None,
) -> list[LocalizationRecord]:
    """Probe how little a traced region's thermal potential disturbs the
    dynamics of observables at increasing distance.

    The base Hamiltonian collects the edges not touching ``anchor`` (on the
    reduced layout); the perturbed one adds the anchor's thermal potential.
    The observable is a unit-norm Pauli Z at distance ``radius`` from the
    anchor.  The drift can never exceed twice the observable norm.
    """
    dm = distance_map(model, [anchor])
    base_edges = [e for e in model.edges if anchor not in e.endpoints()]
    reduced_layout = model.layout.drop({anchor})
    h_base = edge_hamiltonian(model, base_edges, reduced_layout)
    h_pert = h_base + thermal_potential(model, {anchor})
    records = []
    for radius in radii:
        at_radius = sorted(s for s in reduced_layout.sites if dm[s] == radius)
        if not at_radius:
            raise ModelError(f"no site at distance {radius} from {anchor}")
        site = at_radius[0]
        obs = embed(
            DenseOperator(model.layout.subset({site}), PAULI_Z), reduced_layout
        )
        for t in times:
            drift = op_norm(
                time_evolve(obs, h_pert, t) - time_evolve(obs, h_base, t)
            )
            predicted = None
            if consts is not None:
                big_l = 2.0 * consts.cumulant_amp / (
                    1.0 - math.exp(-consts.cumulant_decay)
                )
                a_eff = min(consts.cumulant_decay, consts.lr_decay)
                av = consts.lr_decay * consts.lr_velocity
                envelope = (
                    abs(t) * big_l
                    + consts.lr_amplitude
                    * consts.cumulant_amp
                    * math.exp(av * abs(t))
                    / av
                ) * math.exp(-a_eff * radius)
                predicted = min(envelope, abs(t) * big_l)
            records.append(LocalizationRecord(radius, t, drift, 2.0, predicted))
    return records
