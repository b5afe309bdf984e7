"""Message passing: the circle product, exact tree propagation, and
sliding-window propagation on chains.

The circle product ``A, B -> exp(log A + log B)`` combines the effective
Hamiltonians of two positive operators; it reduces to the plain matrix
product when the operands commute.  Exact propagation is correct whenever
the thermal state is conditionally independent across edge cuts; the
sliding-window variant trades window width for accuracy when it is not.

Every belief is one shifted exponential exp(-K) / Tr exp(-K) of a summed
effective Hamiltonian K: beta times the edge terms minus the log of each
incoming message, taken on its own support.  No exponential is logged back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .models import (
    GraphModel,
    ModelError,
    adjacency,
    degrees,
    edge_gibbs_state,
    exact_reduced_density,
    thermal_state,
)
from .operators import (
    DenseOperator,
    SiteMismatchError,
    embed_on_union,
    gibbs_state,
    matrix_exp_h,
    matrix_log_pd,
    partial_trace,
    trace_norm,
)

#: Errors at or below this floor are treated as numerical noise when fitting
#: decay slopes.
ERROR_FLOOR = 1e-10


def log_linear_fit(points: Iterable[tuple[float, float]], floor: float) -> tuple:
    """The points with y above ``floor``, and the least-squares line through
    their (x, log y) as (slope, intercept, RMS residual), or None when fewer
    than two rise above the floor."""
    usable = tuple((x, y) for x, y in points if y > floor)
    if len(usable) < 2:
        return usable, None
    xs, ys = np.array(usable, dtype=float).T
    ys = np.log(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return usable, (float(slope), float(intercept), residual)


def _sum_on_union(*ops: DenseOperator) -> DenseOperator:
    """Sum of the operators, each embedded on the union of their supports."""
    embedded = embed_on_union(*ops)
    mats, hermitian = (op.mat for op in embedded), all(op.hermitian for op in embedded)
    return DenseOperator(embedded[0].layout, reduce(np.add, mats), hermitian)


def circle_product(*ops: DenseOperator) -> DenseOperator:
    """exp(log A + log B + ...) on the union of the supports, in one
    exponentiation.

    Each logarithm is taken on its operand's own support and then embedded
    on the union layout; all operands must be Hermitian positive definite.
    """
    if not ops:
        raise ValueError("need at least one operand")
    return matrix_exp_h(_sum_on_union(*(matrix_log_pd(op) for op in ops)))


@dataclass(frozen=True, eq=False)
class WindowMessage:
    """A unit-trace positive operator supported on a window of sites."""

    op: DenseOperator
    window: tuple[int, ...]

    def __post_init__(self):
        if self.op.layout.sites != tuple(sorted(self.window)):
            raise SiteMismatchError(
                f"message support {self.op.layout.sites} != window {self.window}"
            )
        tr = self.op.trace()
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"message trace {tr} is not 1")


def message_update(
    model: GraphModel, u: int, v: int, incoming: Sequence[WindowMessage] = ()
) -> WindowMessage:
    """One directed message u -> v.

    The belief exp(-beta h_(u,v) + sum of log m) / Z over all messages m
    flowing into ``u``, with ``u`` traced out.  With no incoming messages
    this is the propagation base case.
    """
    edge = model.edge((u, v))
    for m in incoming:
        if v in m.window:
            raise SiteMismatchError(
                f"incoming message on {m.window} already covers destination {v}"
            )
    k = _sum_on_union(model.beta * edge.term, *(-matrix_log_pd(m.op) for m in incoming))
    op = partial_trace(gibbs_state(k, 1.0)[0], {u})
    return WindowMessage(op, op.layout.sites)


def run_exact_bp(model: GraphModel, target: int) -> DenseOperator:
    """One pass of messages from the leaves toward the target, then the
    belief combining everything flowing into the target.

    Each of the n - 1 edges carries exactly one message, computed once its
    subtree's messages are in; incoming messages are combined in ascending
    vertex order.  The belief matches the exact reduced state only when the
    thermal state is conditionally independent across edge cuts.
    """
    if target not in model.vertices:
        raise ModelError(f"unknown vertex {target}")
    if len(model.vertices) == 1:
        return thermal_state(model)
    adj = adjacency(model)

    def toward(u: int, v: int) -> WindowMessage:
        return message_update(model, u, v, [toward(w, u) for w in adj[u] if w != v])

    belief = circle_product(*(toward(u, target).op for u in adj[target]))
    return DenseOperator(belief.layout, belief.mat / belief.trace().real, True)


def chain_order(model: GraphModel, target: int) -> list[int]:
    """Vertices of a chain model ordered from the far endpoint to ``target``."""
    degs = degrees(model)
    if any(d > 2 for d in degs.values()):
        raise ModelError("model is not a chain")
    endpoints = [v for v, d in degs.items() if d == 1]
    if target not in endpoints:
        raise ModelError(f"target {target} is not a chain endpoint")
    adj = adjacency(model)
    start = next(e for e in endpoints if e != target)
    order = [start]
    while order[-1] != target:
        prev = order[-2] if len(order) > 1 else None
        order.append(next(w for w in adj[order[-1]] if w != prev))
    return order


def run_sliding_window(model: GraphModel, target: int, window: int) -> DenseOperator:
    """Windowed propagation along a chain toward an endpoint target.

    Starts from the Gibbs state of the summed Hamiltonian of the first
    ``window`` edges, then alternates tracing the lowest site with absorbing
    the next edge term, exp(-beta h_j + log window) / Z, keeping at most
    ``window + 1`` sites alive.  ``window = n_sites - 1`` spans the whole
    chain, so it is the exact reduced state of the model's own thermal state.
    """
    order = chain_order(model, target)
    n = len(order)
    if not 1 <= window <= n - 1:
        raise ModelError(f"window must be in [1, {n - 1}], got {window}")
    seq_edges = [model.edge((order[i], order[i + 1])) for i in range(n - 1)]
    current, _ = edge_gibbs_state(model, seq_edges[:window])
    for j in range(window, n - 1):
        traced = partial_trace(current, {order[j - window]})
        k = _sum_on_union(model.beta * seq_edges[j].term, -matrix_log_pd(traced))
        current, _ = gibbs_state(k, 1.0)
    return partial_trace(current, set(current.sites) - {target})


@dataclass(frozen=True)
class WindowSweep:
    """Trace-norm error against the exact oracle per window size, plus the
    fitted slope of log-error (None when too few points rise above noise)."""

    entries: tuple[tuple[int, float], ...]
    slope: float | None


def window_error_sweep(
    model: GraphModel, target: int, windows: Iterable[int]
) -> WindowSweep:
    oracle = exact_reduced_density(model, {target})
    entries = []
    for w in sorted(set(windows)):
        belief = run_sliding_window(model, target, w)
        entries.append((w, trace_norm(belief - oracle)))
    _, fit = log_linear_fit(entries, ERROR_FLOOR)
    return WindowSweep(tuple(entries), None if fit is None else fit[0])
