"""Message passing: the circle product, exact tree propagation, and
sliding-window propagation on chains.

The circle product ``A, B -> exp(log A + log B)`` combines the effective
Hamiltonians of two positive operators; it reduces to the plain matrix
product when the operands commute.  Exact propagation is correct whenever
the thermal state is conditionally independent across edge cuts; the
sliding-window variant trades window width for accuracy when it is not.

Messages are renormalized to unit trace at every step; without this, bare
exponentials underflow already around ten sites at moderate inverse
temperature.
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
    edge_hamiltonian,
    exact_reduced_density,
    thermal_state,
)
from .operators import (
    DenseOperator,
    SiteMismatchError,
    embed,
    matrix_exp_h,
    matrix_log_pd,
    partial_trace,
    trace_norm,
    union_layout,
)

#: Errors at or below this floor are treated as numerical noise when fitting
#: decay slopes.
ERROR_FLOOR = 1e-10


def circle_product(*ops: DenseOperator) -> DenseOperator:
    """exp(log A + log B + ...) on the union of the supports, in one
    exponentiation.

    Operands are auto-embedded to their union layout first; all must be
    Hermitian positive definite.
    """
    if not ops:
        raise ValueError("need at least one operand")
    layout = reduce(union_layout, (op.layout for op in ops))
    total = reduce(np.add, (matrix_log_pd(embed(op, layout)).mat for op in ops))
    return matrix_exp_h(DenseOperator(layout, total))


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


def _normalized(op: DenseOperator) -> DenseOperator:
    z = op.trace().real
    if z <= 0:
        raise ValueError(f"cannot normalize operator with trace {z}")
    return DenseOperator(op.layout, op.mat / z)


def message_update(
    model: GraphModel, u: int, v: int, incoming: Sequence[WindowMessage] = ()
) -> WindowMessage:
    """One directed message u -> v.

    Combines the edge factor exp(-beta h_(u,v)) with all messages flowing
    into ``u``, traces out ``u``, and renormalizes.  With no incoming
    messages this is the propagation base case.
    """
    edge = model.edge((u, v))
    for m in incoming:
        if v in m.window:
            raise SiteMismatchError(
                f"incoming message on {m.window} already covers destination {v}"
            )
    combined = circle_product(
        matrix_exp_h(-model.beta * edge.term), *(m.op for m in incoming)
    )
    op = _normalized(partial_trace(combined, {u}))
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

    return _normalized(circle_product(*(toward(u, target).op for u in adj[target])))


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

    Starts from the exponential of the summed Hamiltonian of the first
    ``window`` edges (one eigendecomposition instead of ``window`` circle
    products; the two are analytically identical), then alternates tracing
    the lowest site with absorbing the next edge factor, keeping at most
    ``window + 1`` sites alive.  ``window = n_sites - 1`` reproduces the
    exact reduced state.
    """
    order = chain_order(model, target)
    n = len(order)
    if not 1 <= window <= n - 1:
        raise ModelError(f"window must be in [1, {n - 1}], got {window}")
    seq_edges = [model.edge((order[i], order[i + 1])) for i in range(n - 1)]
    w = min(window, n - 1)
    init_layout = model.layout.subset(order[: w + 1])
    block = edge_hamiltonian(model, seq_edges[:w], init_layout)
    current = _normalized(matrix_exp_h(-model.beta * block))
    for j in range(w, n - 1):
        current = _normalized(partial_trace(current, {order[j - w]}))
        factor = matrix_exp_h(-model.beta * seq_edges[j].term)
        current = _normalized(circle_product(current, factor))
    return _normalized(partial_trace(current, set(current.sites) - {target}))


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
    usable = [(w, e) for w, e in entries if e > ERROR_FLOOR]
    slope = None
    if len(usable) >= 2:
        xs = np.array([w for w, _ in usable], dtype=float)
        ys = np.log(np.array([e for _, e in usable]))
        slope = float(np.polyfit(xs, ys, 1)[0])
    return WindowSweep(tuple(entries), slope)
