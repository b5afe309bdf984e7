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
from typing import Iterable, Sequence

import numpy as np

from .models import (
    GraphModel,
    ModelError,
    adjacency,
    degrees,
    distance_map,
    edge_gibbs_state,
    exact_reduced_density,
    thermal_state,
)
from .operators import (
    DenseOperator,
    SiteMismatchError,
    embed_sum,
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


def circle_product(*ops: DenseOperator) -> DenseOperator:
    """exp(log A + log B + ...) on the union of the supports, in one
    exponentiation.

    Each logarithm is taken on its operand's own support and then embedded
    on the union layout; all operands must be Hermitian positive definite.
    """
    if not ops:
        raise ValueError("need at least one operand")
    return matrix_exp_h(embed_sum(matrix_log_pd(op) for op in ops))


def message_update(
    model: GraphModel, u: int, v: int, incoming: Sequence[DenseOperator] = ()
) -> DenseOperator:
    """One directed message u -> v, a unit-trace density operator on ``v``.

    The belief exp(-beta h_(u,v) + sum of log m) / Z over all messages m
    flowing into ``u``, with ``u`` traced out.  With no incoming messages
    this is the propagation base case.
    """
    edge = model.edge((u, v))
    for m in incoming:
        if v in m.sites:
            raise SiteMismatchError(f"incoming message on {m.sites} already covers destination {v}")
    k = embed_sum([model.beta * edge.term, *(-matrix_log_pd(m) for m in incoming)])
    return partial_trace(gibbs_state(k, 1.0)[0], {u})


def run_exact_bp(model: GraphModel, target: int) -> DenseOperator:
    """One pass of messages from the leaves toward the target, then the
    belief exp(sum of log m) / Z over the messages m into the target.

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

    def toward(u: int, v: int) -> DenseOperator:
        return message_update(model, u, v, [toward(w, u) for w in adj[u] if w != v])

    incoming = (-matrix_log_pd(toward(u, target)) for u in adj[target])
    return gibbs_state(embed_sum(incoming), 1.0)[0]


def chain_ends(model: GraphModel) -> tuple[int, int]:
    """The two endpoints of a chain model, in ascending order."""
    ends = sorted(v for v, d in degrees(model).items() if d == 1)
    if len(ends) != 2:  # a tree with two leaves is a chain
        raise ModelError("model is not a chain")
    return ends[0], ends[1]


def chain_order(model: GraphModel, target: int) -> list[int]:
    """Vertices of a chain model ordered from the far endpoint to ``target``."""
    first, last = chain_ends(model)
    if target not in (first, last):
        raise ModelError(f"target {target} is not a chain endpoint")
    dist = distance_map(model, {last if target == first else first})
    return sorted(model.vertices, key=dist.__getitem__)


def run_sliding_window(model: GraphModel, target: int, window: int) -> DenseOperator:
    """Windowed propagation along a chain toward an endpoint target.

    Starts from the Gibbs state of the summed Hamiltonian of the first
    ``window`` edges, then alternates tracing the lowest site with absorbing
    the next edge term, exp(-beta h_j + log window) / Z, keeping at most
    ``window + 1`` sites alive.  ``window = n_sites - 1`` spans the whole
    chain, so it is the exact reduced state of the model's own thermal state,
    reduced to the target without forming the whole.
    """
    order = chain_order(model, target)
    n = len(order)
    if not 1 <= window <= n - 1:
        raise ModelError(f"window must be in [1, {n - 1}], got {window}")
    seq_edges = [model.edge((order[i], order[i + 1])) for i in range(n - 1)]
    current, _ = edge_gibbs_state(model, seq_edges[:window], order[:-1] if window == n - 1 else ())
    for j in range(window, n - 1):
        traced = partial_trace(current, {order[j - window]})
        k = embed_sum([model.beta * seq_edges[j].term, -matrix_log_pd(traced)])
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
