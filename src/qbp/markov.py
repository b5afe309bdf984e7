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

from .models import GraphModel, ModelError, adjacency, bfs_distances, degrees, thermal_state
from .operators import DenseOperator, assert_density, partial_trace

#: Tiny negative CMI values above this floor are reported as zero.
CMI_CLAMP = -1e-8


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
    w = assert_density(rho)
    w = w[w > 0.0]
    return max(0.0, float(-(w * np.log(w)).sum()))


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
    return _cmi(rho, split, von_neumann_entropy(rho))


def _cmi(rho: DenseOperator, split: TripartiteSplit, s_abc: float) -> float:
    """``cmi`` of a split known to cover ``rho``, given S(ABC) = S(rho)."""
    s_ab = von_neumann_entropy(partial_trace(rho, split.c))
    s_bc = von_neumann_entropy(partial_trace(rho, split.a))
    if split.b:
        s_b = von_neumann_entropy(partial_trace(rho, split.a | split.c))
    else:
        s_b = 0.0
    return s_ab + s_bc - s_abc - s_b


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


def markov_deficiency(
    model: GraphModel,
    subset: Iterable[int],
    radius: int = 1,
    state: DenseOperator | None = None,
) -> float:
    """Conditional-independence deficiency of ``subset`` on the thermal state.

    Radius 1 tests the plain conditional-independence structure across the
    subset's neighbor shell; larger radii inflate the shell.  Pass ``state``
    to avoid recomputing the thermal state across sweeps.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    state = state if state is not None else thermal_state(model)
    vertices = frozenset(state.layout.sites)
    split = _blanket_split(vertices, adjacency(model), frozenset(subset), radius)
    return 0.0 if split is None else _clamp(cmi(state, split))


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


def connected_subsets(
    adj: Mapping[int, Iterable[int]], max_size: int = 2
) -> list[tuple[int, ...]]:
    """Connected vertex subsets up to ``max_size``, sorted for determinism."""
    vertices = sorted(adj)
    found = {(v,) for v in vertices}
    frontier = set(found)
    for _ in range(max_size - 1):
        grown = set()
        for subset in frontier:
            for v in subset:
                for w in adj[v]:
                    if w not in subset:
                        grown.add(tuple(sorted(subset + (w,))))
        found |= grown
        frontier = grown
    return sorted(found, key=lambda s: (len(s), s))


def deficiency_rows(
    model: GraphModel,
    radius: int = 1,
    max_subset_size: int = 2,
    state: DenseOperator | None = None,
) -> list[DeficiencyRow]:
    """Deficiencies of every connected subset up to the size cap.

    The cap (default 2) keeps the enumeration polynomial; message-passing
    analysis only ever conditions on small subsets.
    """
    state = state if state is not None else thermal_state(model)
    return _deficiency_rows(state, adjacency(model), radius, max_subset_size)


def _deficiency_rows(
    state: DenseOperator,
    adj: Mapping[int, Iterable[int]],
    radius: int,
    max_size: int,
) -> list[DeficiencyRow]:
    """Deficiencies of ``state`` over the graph ``adj`` for every connected
    proper subset up to ``max_size``; the whole state's entropy, shared by
    every subset, is computed once."""
    if radius < 1:
        raise ModelError(f"radius must be >= 1, got {radius}")
    vertices = frozenset(state.layout.sites)
    s_abc = von_neumann_entropy(state)
    rows = []
    for subset in connected_subsets(adj, max_size):
        if len(subset) >= len(adj):
            continue
        split = _blanket_split(vertices, adj, frozenset(subset), radius)
        value = 0.0 if split is None else _clamp(_cmi(state, split, s_abc))
        rows.append(DeficiencyRow(subset, radius, value, split is None))
    return rows


@dataclass(frozen=True)
class LeafTraceReport:
    """Outcome of checking that tracing out a leaf preserves conditional
    independence at radius 1."""

    leaf: int
    tol: float
    subset_cap: int
    input_markov: bool
    before: tuple[DeficiencyRow, ...]
    after: tuple[DeficiencyRow, ...]

    @property
    def passed(self) -> bool:
        return self.input_markov and all(r.value <= self.tol for r in self.after)


def leaf_trace_preserves_markov(
    model: GraphModel, leaf: int, tol: float = 1e-8, max_subset_size: int = 2
) -> LeafTraceReport:
    """Trace out a degree-1 vertex and re-audit all deficiencies.

    If the input state is not itself conditionally independent at radius 1
    (some deficiency above ``tol``), the report says so rather than raising:
    the preservation statement simply has nothing to say about such inputs.
    """
    if degrees(model).get(leaf) != 1:
        raise ModelError(f"vertex {leaf} is not a leaf")
    state = thermal_state(model)
    before = tuple(deficiency_rows(model, 1, max_subset_size, state=state))
    input_markov = all(r.value <= tol for r in before)
    after: tuple[DeficiencyRow, ...] = ()
    if input_markov:
        adj = {
            v: tuple(w for w in ws if w != leaf)
            for v, ws in adjacency(model).items()
            if v != leaf
        }
        after = tuple(_deficiency_rows(partial_trace(state, {leaf}), adj, 1, max_subset_size))
    return LeafTraceReport(leaf, tol, max_subset_size, input_markov, before, after)
