"""Tree-structured pairwise Hamiltonian models and their thermal-state oracles.

A model is a tree graph whose edges carry two-site Hermitian terms, together
with an inverse temperature.  The inverse temperature is a model property
rather than a per-call argument, so every object derived from a model records
the temperature it was built at.  Edge terms are stored unembedded (4x4 for a
qubit pair) and embedded lazily.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .operators import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DenseOperator,
    OperatorError,
    SiteLayout,
    _as_integer,
    _as_positive,
    _embed_sum,
    _gibbs,
    _gibbs_weights,
    _hermitian_mats,
    _log_partition,
    _op_norm,
    _require_known,
    _spectrum,
    embed_sum,
    hermitize,
    partial_trace,
)


class ModelError(ValueError):
    """Invalid graph-model construction or query."""


@dataclass(frozen=True)
class EdgeContext:
    """What a term factory gets to see about the edge it is building."""

    u: int
    v: int
    dim_u: int
    dim_v: int
    degree_u: int
    degree_v: int


TermFactory = Callable[[EdgeContext], np.ndarray]


@dataclass(frozen=True, eq=False)
class EdgeTerm:
    """An unordered edge (u, v) with its Hermitian interaction term.

    The term lives on the two-site layout of {u, v} in ascending site order;
    it is tested for Hermiticity once, here, and stored flagged Hermitian.
    """

    u: int
    v: int
    term: DenseOperator

    def __post_init__(self):
        if self.u == self.v:
            raise ModelError(f"self-loop at vertex {self.u}")
        u, v = sorted((self.u, self.v))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if self.term.layout.sites != (u, v):
            raise ModelError(
                f"edge term must live on sites {(u, v)}, got {self.term.layout.sites}"
            )
        object.__setattr__(self, "term", DenseOperator(self.term.layout, *_hermitian_mats(self.term), True))

    @property
    def key(self) -> tuple[int, int]:
        return (self.u, self.v)

    def endpoints(self) -> frozenset[int]:
        return frozenset((self.u, self.v))


@dataclass(frozen=True, eq=False)
class GraphModel:
    """A tree of sites, one Hermitian term per edge, at fixed temperature.

    ``spectra`` is either None, and every spectrum is decomposed where it is
    used and then let go, or a dict of the spectra of edge sums by ordered
    edge keys, shared by every view ``at`` makes and kept until the model is
    dropped.  The CLI gives a model one when its command evaluates more than
    one beta."""

    layout: SiteLayout
    edges: tuple[EdgeTerm, ...]
    beta: float
    spectra: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "beta", _as_positive("beta", self.beta))
        except OperatorError as exc:
            raise ModelError(str(exc)) from None
        object.__setattr__(self, "edges", tuple(self.edges))
        seen = set()
        for e in self.edges:
            for s in (e.u, e.v):
                if s not in self.layout.sites:
                    raise ModelError(f"edge endpoint {s} is not a model vertex")
                if e.term.layout.dim_of(s) != self.layout.dim_of(s):
                    raise ModelError(f"edge term dimension mismatch at site {s}")
            if e.key in seen:
                raise ModelError(f"duplicate edge {e.key}")
            seen.add(e.key)
        n = len(self.vertices)
        if n == 0:
            raise ModelError("model has no vertices")
        if len(self.edges) != n - 1:
            raise ModelError(
                f"{len(self.edges)} edges on {n} vertices cannot form a tree "
                "(cyclic or disconnected specification)"
            )
        reached = bfs_distances(adjacency(self), self.vertices[:1])
        dangling = [v for v in self.vertices if v not in reached]
        if dangling:
            raise ModelError(f"dangling vertices {dangling}: graph is disconnected")

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.layout.sites

    def at(self, beta: float) -> "GraphModel":
        """This model at inverse temperature ``beta``, sharing its spectra."""
        return replace(self, beta=beta)

    def edge(self, key: tuple[int, int]) -> EdgeTerm:
        try:
            return self._edges_by_key[tuple(sorted(key))]
        except KeyError:
            raise ModelError(f"no edge {key} in model") from None

    @cached_property
    def _edges_by_key(self) -> dict[tuple[int, int], EdgeTerm]:
        return {e.key: e for e in self.edges}

    @cached_property
    def _thermal(self) -> tuple[DenseOperator | tuple, np.ndarray, float]:
        """(source, w, log Z), once per view, from the spectrum of H: the source
        of every state ``_reduced`` forms, H's ascending eigenvalues, and log Z
        read from them alone.  An unblocked spectrum is kept as the source in
        place of the d × d state, and each reduced state is formed from it
        without the whole (``operators._gibbs``).  A reversal-blocked one gives
        way to the whole state, which its reductions partial-trace, since the
        blocks' function is assembled whole anyway; without a store it goes
        when this returns (at the dimension cap its eigenvectors hold 64 MB)."""
        spectrum = self._edge_spectrum(self.edges, self.layout)
        w = np.sort(spectrum[0], axis=None)
        source = _gibbs(self.layout, spectrum, self.beta)[0] if spectrum[2] else spectrum
        return source, w, _log_partition(w, self.beta)

    @cached_property
    def _reductions(self) -> dict[frozenset, DenseOperator]:
        return {}

    def _reduced(self, traced: frozenset) -> DenseOperator:
        """Tr_traced of the thermal state (the whole state when ``traced`` is
        empty), once per view and traced set."""
        if traced not in self._reductions:
            source = self._thermal[0]
            self._reductions[traced] = (
                partial_trace(source, traced)
                if isinstance(source, DenseOperator)
                else _gibbs(self.layout, source, self.beta, traced)[0]
            )
        return self._reductions[traced]

    def _edge_spectrum(self, edges: Sequence[EdgeTerm], layout: SiteLayout) -> tuple:
        """The spectrum of the edges' sum, in the given order, on ``layout``:
        the store's, else decomposed and stored there.  The sum is built in a
        buffer nothing else holds, not even a name here: the eigensolve may
        overwrite it, and a blocked solve frees it first."""
        spectra = self.spectra if self.spectra is not None else {}
        key = tuple(e.key for e in edges)
        if key not in spectra:
            terms = tuple(e.term for e in edges)
            spectra[key] = _spectrum(_embed_sum(terms, layout), overwrite=True)
        return spectra[key]


def bfs_distances(
    adj: Mapping[int, Iterable[int]], sources: Iterable[int]
) -> dict[int, int]:
    """Breadth-first distances from a set of source vertices."""
    dist = {s: 0 for s in sources}
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def adjacency(model: GraphModel) -> dict[int, tuple[int, ...]]:
    adj: dict[int, list[int]] = {v: [] for v in model.vertices}
    for e in model.edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    return {v: tuple(sorted(ws)) for v, ws in adj.items()}


def degrees(model: GraphModel) -> dict[int, int]:
    return {v: len(ws) for v, ws in adjacency(model).items()}


def distance_map(model: GraphModel, targets: Iterable[int]) -> dict[int, int]:
    """Edges from every vertex to the nearest of ``targets``: one breadth-first walk."""
    targets = set(targets)
    if not targets:
        raise ModelError("distance to an empty vertex set is undefined")
    unknown = targets - set(model.vertices)
    if unknown:
        raise ModelError(f"unknown vertices {sorted(unknown)}")
    return bfs_distances(adjacency(model), targets)


# -- region partition ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RegionPartition:
    """Edges split by position relative to the radius-``radius`` ball.

    ``inner`` edges have both endpoints within distance ``radius`` of the
    anchor, ``buffer`` edges straddle the boundary of the ball, and ``outer``
    edges lie entirely beyond it.  The three sets are disjoint and exhaust
    the model's edges.
    """

    anchor: frozenset[int]
    radius: int
    inner: tuple[EdgeTerm, ...]
    buffer: tuple[EdgeTerm, ...]
    outer: tuple[EdgeTerm, ...]


def region_partition(
    model: GraphModel, anchor: Iterable[int], radius: int
) -> RegionPartition:
    """The model's edges split around ``anchor``; ``radius`` is an integer by
    the rule of ``operators._as_integer``."""
    radius = _as_integer("radius", radius)
    if radius < 0:
        raise ModelError(f"radius must be non-negative, got {radius}")
    anchor = frozenset(anchor)
    dm = distance_map(model, anchor)
    inner, buf, outer = [], [], []
    for e in model.edges:
        lo, hi = sorted((dm[e.u], dm[e.v]))
        if hi <= radius:
            inner.append(e)
        elif lo > radius:
            outer.append(e)
        else:
            buf.append(e)
    return RegionPartition(anchor, radius, tuple(inner), tuple(buf), tuple(outer))


# -- Hamiltonians and thermal states ------------------------------------------

def edge_hamiltonian(
    model: GraphModel,
    edges: Iterable[EdgeTerm] | None = None,
    layout: SiteLayout | None = None,
) -> DenseOperator:
    """Sum of the given edge terms, in order, embedded on ``layout`` (default: full)."""
    edges = model.edges if edges is None else edges
    return embed_sum((e.term for e in edges), layout if layout is not None else model.layout)


def thermal_state(model: GraphModel) -> DenseOperator:
    """exp(-beta H) / Z, computed with a spectral shift for stability.

    The whole d × d state, for consumers that read all of it; a reduced state
    comes from ``exact_reduced_density`` or ``edge_gibbs_state`` without it.
    The same object is returned on every call for a given model.
    """
    return model._reduced(frozenset())


def log_partition_function(model: GraphModel) -> float:
    return model._thermal[2]


def gibbs_weights(model: GraphModel) -> np.ndarray:
    """The thermal state's eigenvalues exp(-beta w) / Z over H's ascending
    eigenvalues w, shifted by the smallest so none overflows."""
    return _gibbs_weights(model._thermal[1], model.beta)


def edge_gibbs_state(
    model: GraphModel, edges: Sequence[EdgeTerm], traced: Iterable[int] = ()
) -> tuple[DenseOperator, float]:
    """Tr_traced exp(-beta H) / Z and log Z of the edge terms, summed in the
    given order, on the sites they touch, from the shared spectra; all of the
    model's edges, in any order, give its own cached reduction and
    log_partition_function."""
    traced = frozenset(traced)
    if len(edges) == len(model.edges) and set(edges) == set(model.edges):
        return model._reduced(traced), log_partition_function(model)
    layout = model.layout.subset(set().union(*(e.endpoints() for e in edges)))
    return _gibbs(layout, model._edge_spectrum(edges, layout), model.beta, traced)


def exact_reduced_density(model: GraphModel, keep: Iterable[int]) -> DenseOperator:
    """Brute-force reduced thermal state: the oracle all beliefs are judged by."""
    keep = set(keep)
    if not keep:
        raise ModelError("must keep at least one vertex")
    unknown = keep - set(model.vertices)
    if unknown:
        raise ModelError(f"unknown vertices {sorted(unknown)}")
    return model._reduced(frozenset(model.vertices) - keep)


# -- stock term factories ------------------------------------------------------

def _require_qubits(ctx: EdgeContext, name: str):
    if ctx.dim_u != 2 or ctx.dim_v != 2:
        raise ModelError(f"{name} factory requires qubit sites")


def classical_ising(J: float = 1.0) -> TermFactory:
    """Diagonal Ising coupling -J Z(x)Z; every term commutes with every other."""

    def make(ctx: EdgeContext) -> np.ndarray:
        _require_qubits(ctx, "classical_ising")
        return -J * np.kron(PAULI_Z, PAULI_Z)

    return make


def transverse_ising(
    J: float = 1.0, hx: float = 1.0, full_boundary_fields: bool = False
) -> TermFactory:
    """Transverse-field Ising edge term -J Z(x)Z - (hx/2)(X(x)I + I(x)X).

    Each edge term puts ``hx/2`` on each of its endpoints, so a site of degree
    k sees k hx/2: ``hx`` inside a chain, ``hx/2`` at its ends and ``1.5 hx``
    at a degree-3 vertex of a tree.  With ``full_boundary_fields`` the missing
    half is added back on degree-1 endpoints.
    """

    def make(ctx: EdgeContext) -> np.ndarray:
        _require_qubits(ctx, "transverse_ising")
        eye = np.eye(2)
        term = -J * np.kron(PAULI_Z, PAULI_Z)
        term = term - (hx / 2.0) * (np.kron(PAULI_X, eye) + np.kron(eye, PAULI_X))
        if full_boundary_fields:
            if ctx.degree_u == 1:
                term = term - (hx / 2.0) * np.kron(PAULI_X, eye)
            if ctx.degree_v == 1:
                term = term - (hx / 2.0) * np.kron(eye, PAULI_X)
        return term

    return make


def heisenberg(J: float = 1.0) -> TermFactory:
    """Isotropic exchange J (XX + YY + ZZ); Y(x)Y is real, so the term is too."""

    def make(ctx: EdgeContext) -> np.ndarray:
        _require_qubits(ctx, "heisenberg")
        return J * (
            np.kron(PAULI_X, PAULI_X)
            + np.kron(PAULI_Y, PAULI_Y).real
            + np.kron(PAULI_Z, PAULI_Z)
        )

    return make


def random_two_local(seed: int = 0, scale: float = 1.0) -> TermFactory:
    """Seeded random Hermitian term, normalized to operator norm ``scale``
    (its largest |eigenvalue|).

    Each edge draws from an independent stream keyed by (seed, u, v), so
    the model is reproducible and insensitive to edge construction order.
    """

    def make(ctx: EdgeContext) -> np.ndarray:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(ctx.u, ctx.v))
        rng = np.random.default_rng(ss)
        d = ctx.dim_u * ctx.dim_v
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = hermitize(g)
        return scale * h / _op_norm(h)

    return make


STOCK_FACTORIES: dict[str, Callable[..., TermFactory]] = {
    "classical_ising": classical_ising,
    "tfim": transverse_ising,
    "heisenberg": heisenberg,
    "random2": random_two_local,
}


def stock_factory(name: str, **params) -> TermFactory:
    if name not in STOCK_FACTORIES:
        raise ModelError(f"unknown factory {name!r}; have {sorted(STOCK_FACTORIES)}")
    try:
        return STOCK_FACTORIES[name](**params)
    except TypeError as exc:  # a parameter the factory does not take
        raise ModelError(f"factory {name!r}: {exc}") from None


# -- builders ------------------------------------------------------------------

def build_tree(
    dims: Mapping[int, int],
    edge_specs: Sequence[tuple[int, int, TermFactory | np.ndarray]],
    beta: float,
) -> GraphModel:
    """Build a model from vertex dimensions and per-edge factories/matrices."""
    vertices = tuple(sorted(dims))
    layout = SiteLayout(vertices, tuple(dims[v] for v in vertices))
    degree = Counter(s for u, v, _ in edge_specs for s in (u, v))
    for s in degree:
        if s not in dims:
            raise ModelError(f"edge endpoint {s} has no declared dimension")
    edges = []
    for u, v, spec in edge_specs:
        u, v = sorted((u, v))
        ctx = EdgeContext(u, v, dims[u], dims[v], degree[u], degree[v])
        try:
            mat = spec(ctx) if callable(spec) else spec
        except (TypeError, ValueError) as exc:  # such as a parameter of the wrong type
            raise ModelError(f"edge {(u, v)}: {exc}") from None
        term = DenseOperator(layout.subset((u, v)), mat)
        edges.append(EdgeTerm(u, v, term))
    return GraphModel(layout, tuple(edges), beta)


def build_chain(
    n: int, local_dim: int = 2, factory: TermFactory | None = None, beta: float = 1.0
) -> GraphModel:
    """Chain on vertices 1..n with edges (k, k+1)."""
    if n < 2:
        raise ModelError(f"a chain needs at least 2 vertices, got {n}")
    factory = factory if factory is not None else classical_ising()
    dims = {k: local_dim for k in range(1, n + 1)}
    specs = [(k, k + 1, factory) for k in range(1, n)]
    return build_tree(dims, specs, beta)


# -- JSON model files ----------------------------------------------------------

def matrix_from_json(rows) -> np.ndarray:
    """Nested [re, im] pairs, row-major, to a matrix; real if every im is 0."""
    mat = np.array(
        [[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128
    )
    return mat if mat.imag.any() else mat.real


def model_from_config(cfg: Mapping) -> GraphModel:
    """Build a model from the JSON config structure.

    Expected shape, where any other key raises ModelError; ``GraphModel`` judges ``beta``::

        {"vertices": [{"id": 1, "dim": 2}, ...],
         "edges": [{"u": 1, "v": 2, "term": {"factory": "tfim", "params": {...}}},
                   {"u": 2, "v": 3, "term": {"matrix": [[[re, im], ...], ...]}}],
         "beta": 1.0}
    """
    try:
        _require_known("model", cfg, ("vertices", "edges", "beta"))
        for v in cfg["vertices"]:
            _require_known("vertex", v, ("id", "dim"))
        dims = {_as_integer("id", v["id"]): _as_integer("dim", v["dim"]) for v in cfg["vertices"]}
        beta = cfg["beta"]
        specs = []
        for e in cfg["edges"]:
            _require_known("edge", e, ("u", "v", "term"))
            term = e["term"]
            if "matrix" in term:
                _require_known("matrix term", term, ("matrix",))
                spec: TermFactory | np.ndarray = matrix_from_json(term["matrix"])
            else:
                _require_known("factory term", term, ("factory", "params"))
                spec = stock_factory(term["factory"], **term.get("params", {}))
            specs.append((_as_integer("u", e["u"]), _as_integer("v", e["v"]), spec))
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed model config: {exc}") from exc
    except OperatorError as exc:
        raise ModelError(str(exc)) from None
    return build_tree(dims, specs, beta)


def load_model(path: str | Path) -> GraphModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_config(json.load(fh))
