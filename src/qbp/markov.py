"""Entropic diagnostics: entropy, conditional mutual information, and
conditional-independence deficiencies of a model's thermal state.

The deficiency of a vertex subset U at blanket radius ``ell`` is the
conditional mutual information between U and everything beyond its
radius-``ell`` neighborhood, conditioned on the neighborhood shell.  A state
whose deficiencies all vanish at radius 1 is exactly the kind of state on
which message passing is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .models import (
    GraphModel,
    ModelError,
    adjacency,
    bfs_distances,
    degrees,
    exact_reduced_density,
    gibbs_weights,
    thermal_state,
)
from .operators import DenseOperator, assert_density, partial_trace

#: Tiny negative CMI values above this floor are reported as zero.
CMI_CLAMP = -1e-8

#: Deficiencies at or below this count as conditional independence.
MARKOV_TOL = 1e-8


@dataclass(frozen=True)
class TripartiteSplit:
    """Disjoint vertex sets (a, b, c) covering a state's support."""

    a: frozenset[int]
    b: frozenset[int]
    c: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "a", frozenset(self.a))
        object.__setattr__(self, "b", frozenset(self.b))
        object.__setattr__(self, "c", frozenset(self.c))
        if self.a & self.b or self.a & self.c or self.b & self.c:
            raise ValueError("tripartite split must be pairwise disjoint")


def von_neumann_entropy(rho: DenseOperator) -> float:
    """-sum(p log p) over the spectrum, natural log, with 0 log 0 = 0."""
    return _entropy(assert_density(rho))


def _entropy(p: np.ndarray) -> float:
    """-sum(p log p) over the eigenvalues p of a density operator, with 0 log 0 = 0."""
    p = p[p > 0.0]
    return max(0.0, float(-(p * np.log(p)).sum()))


def cmi(rho: DenseOperator, split: TripartiteSplit) -> float:
    """Conditional mutual information S(A:C|B) of a density operator.

    Returns the raw four-entropy combination S(AB) + S(BC) - S(ABC) - S(B);
    callers that want tidy reporting clamp tiny negatives themselves.
    """
    support = split.a | split.b | split.c
    if support != set(rho.layout.sites):
        raise ValueError(
            f"split {sorted(support)} does not cover support {rho.layout.sites}"
        )
    return _cmi(rho, split, {})


def _cmi(rho: DenseOperator, split: TripartiteSplit, entropies: dict) -> float:
    """``cmi`` of a split known to cover ``rho``.

    ``entropies`` memoizes the entropy of ``rho`` with each traced-site set
    removed, keyed by that set; calls on the same state may share it.
    """

    def entropy(traced: frozenset[int]) -> float:
        if traced not in entropies:
            entropies[traced] = von_neumann_entropy(partial_trace(rho, traced))
        return entropies[traced]

    s_b = entropy(split.a | split.c) if split.b else 0.0
    return entropy(split.c) + entropy(split.a) - entropy(frozenset()) - s_b


def _clamp(value: float) -> float:
    return 0.0 if CMI_CLAMP <= value < 0.0 else value


def _blanket_split(
    vertices: frozenset[int],
    adj: Mapping[int, Iterable[int]],
    subset: frozenset[int],
    radius: int,
) -> TripartiteSplit | None:
    """(subset, blanket, rest) for the deficiency of ``subset`` over an
    arbitrary graph, or None when the split is degenerate (nothing lies
    beyond the blanket), whose deficiency is reported as zero."""
    if not subset or not subset < vertices:
        raise ValueError(f"subset {sorted(subset)} must be a nonempty proper subset")
    dist = bfs_distances(adj, subset)
    blanket = frozenset(v for v in vertices if 0 < dist.get(v, radius + 1) <= radius)
    rest = vertices - subset - blanket
    return TripartiteSplit(subset, blanket, rest) if rest else None


@dataclass(frozen=True)
class DeficiencyRow:
    subset: tuple[int, ...]
    radius: int
    value: float
    degenerate: bool

    def as_json(self) -> dict:
        return {
            "U": list(self.subset),
            "ell": self.radius,
            "deficiency": self.value,
            "degenerate": self.degenerate,
        }


def connected_subsets(adj: Mapping[int, Iterable[int]]) -> list[tuple[int, ...]]:
    """Every vertex, then every edge (u, v) with u < v, in ascending order."""
    vertices = sorted(adj)
    return [(v,) for v in vertices] + [(v, w) for v in vertices for w in sorted(adj[v]) if v < w]


def deficiency_rows(
    model: GraphModel, radius: int = 1, entropies: dict | None = None
) -> list[DeficiencyRow]:
    """Deficiencies of every vertex and every edge of the model's thermal
    state, the only subsets that message passing conditions on.
    ``entropies`` memoizes the state's reduced entropies by traced-site set:
    pass one dict to every call on the same model, and each entropy is
    computed once.  The whole state's comes from its Gibbs weights, with no
    eigensolve at the model's dimension.
    """
    entropies = {} if entropies is None else entropies
    if frozenset() not in entropies:
        entropies[frozenset()] = _entropy(gibbs_weights(model))
    return _deficiency_rows(thermal_state(model), adjacency(model), radius, entropies)


def _deficiency_rows(
    state: DenseOperator,
    adj: Mapping[int, Iterable[int]],
    radius: int,
    entropies: dict,
) -> list[DeficiencyRow]:
    """Deficiencies of ``state`` over the graph ``adj`` for every vertex and
    edge that is a proper subset, memoizing entropies in ``entropies``."""
    if radius < 1:
        raise ModelError(f"radius must be >= 1, got {radius}")
    vertices = frozenset(state.layout.sites)
    rows = []
    for subset in connected_subsets(adj):
        if len(subset) >= len(adj):
            continue
        split = _blanket_split(vertices, adj, frozenset(subset), radius)
        value = 0.0 if split is None else _clamp(_cmi(state, split, entropies))
        rows.append(DeficiencyRow(subset, radius, value, split is None))
    return rows


@dataclass(frozen=True)
class LeafTraceReport:
    """Outcome of checking that tracing out a leaf preserves conditional
    independence at radius 1."""

    leaf: int
    input_markov: bool
    before: tuple[DeficiencyRow, ...]
    after: tuple[DeficiencyRow, ...]

    @property
    def passed(self) -> bool:
        return self.input_markov and all(r.value <= MARKOV_TOL for r in self.after)


def leaf_trace_preserves_markov(model: GraphModel, leaf: int) -> LeafTraceReport:
    """Trace out a degree-1 vertex and re-audit all deficiencies.

    If the input state is not itself conditionally independent at radius 1
    (a deficiency above ``MARKOV_TOL``), the report says so rather than
    raising: the preservation statement has nothing to say about such inputs.
    """
    if degrees(model).get(leaf) != 1:
        raise ModelError(f"vertex {leaf} is not a leaf")
    before = tuple(deficiency_rows(model, 1))
    input_markov = all(r.value <= MARKOV_TOL for r in before)
    after: tuple[DeficiencyRow, ...] = ()
    if input_markov:
        adj = {
            v: tuple(w for w in ws if w != leaf)
            for v, ws in adjacency(model).items()
            if v != leaf
        }
        reduced = exact_reduced_density(model, set(model.vertices) - {leaf})
        after = tuple(_deficiency_rows(reduced, adj, 1, {}))
    return LeafTraceReport(leaf, input_markov, before, after)
