"""Independent brute-force oracles the tests judge the package against.

Everything here deliberately avoids the package's own tensor plumbing:
embeddings are built index by index, partial traces by explicit index
summation, thermal marginals by enumerating classical configurations, and
graph distances via networkx.
"""

from __future__ import annotations

import itertools
from functools import reduce

import networkx as nx
import numpy as np

from qbp import circle_product, message_update


def kron_all(mats):
    return reduce(np.kron, mats)


def embed_by_indices(op_mat, op_sites, full_sites, dims):
    """Index-by-index Kronecker embedding oracle.

    ``dims`` maps site id to local dimension; ``full_sites`` must be in the
    order the embedded operator is expected to use.
    """
    full_dims = [dims[s] for s in full_sites]
    total = int(np.prod(full_dims))
    out = np.zeros((total, total), dtype=complex)
    op_pos = [list(full_sites).index(s) for s in op_sites]

    def digits(flat):
        ds = []
        for d in reversed(full_dims):
            ds.append(flat % d)
            flat //= d
        return list(reversed(ds))

    def op_index(ds):
        idx = 0
        for s, p in zip(op_sites, op_pos):
            idx = idx * dims[s] + ds[p]
        return idx

    for i in range(total):
        di = digits(i)
        for j in range(total):
            dj = digits(j)
            if all(
                di[p] == dj[p]
                for p in range(len(full_sites))
                if p not in op_pos
            ):
                out[i, j] = op_mat[op_index(di), op_index(dj)]
    return out


def partial_trace_by_sum(mat, dims, traced_axes):
    """Explicit double-index-summation partial trace oracle."""
    n = len(dims)
    keep_axes = [a for a in range(n) if a not in traced_axes]
    keep_dims = [dims[a] for a in keep_axes]
    traced_dims = [dims[a] for a in traced_axes]
    out_dim = int(np.prod(keep_dims)) if keep_dims else 1
    out = np.zeros((out_dim, out_dim), dtype=complex)
    tensor = mat.reshape(tuple(dims) + tuple(dims))
    for kr in itertools.product(*[range(d) for d in keep_dims]):
        for kc in itertools.product(*[range(d) for d in keep_dims]):
            acc = 0.0 + 0.0j
            for t in itertools.product(*[range(d) for d in traced_dims]):
                row = [0] * n
                col = [0] * n
                for a, x in zip(keep_axes, kr):
                    row[a] = x
                for a, x in zip(keep_axes, kc):
                    col[a] = x
                for a, x in zip(traced_axes, t):
                    row[a] = x
                    col[a] = x
                acc += tensor[tuple(row) + tuple(col)]
            ri = 0
            for d, x in zip(keep_dims, kr):
                ri = ri * d + x
            ci = 0
            for d, x in zip(keep_dims, kc):
                ci = ci * d + x
            out[ri, ci] = acc
    return out


def classical_energies(model):
    """Per-configuration energy of a model whose edge terms are all diagonal."""
    sites = model.vertices
    dims = [model.layout.dim_of(s) for s in sites]
    pos = {s: i for i, s in enumerate(sites)}
    energies = {}
    for config in itertools.product(*[range(d) for d in dims]):
        e_total = 0.0
        for e in model.edges:
            du, dv = model.layout.dim_of(e.u), model.layout.dim_of(e.v)
            idx = config[pos[e.u]] * dv + config[pos[e.v]]
            e_total += e.term.mat[idx, idx].real
        energies[config] = e_total
    return energies


def classical_marginal(model, target):
    """Brute-force thermal marginal of a diagonal model by enumeration."""
    sites = model.vertices
    pos = {s: i for i, s in enumerate(sites)}
    energies = classical_energies(model)
    e_min = min(energies.values())
    weights = {c: np.exp(-model.beta * (e - e_min)) for c, e in energies.items()}
    z = sum(weights.values())
    marg = np.zeros(model.layout.dim_of(target))
    for config, w in weights.items():
        marg[config[pos[target]]] += w / z
    return marg


def classical_chain_message(model, u, v, incoming=()):
    """Sum-product message u -> v on the classical chain induced by a
    diagonal model, normalized to total weight 1."""
    du, dv = model.layout.dim_of(u), model.layout.dim_of(v)
    term = model.edge((u, v)).term.mat
    weights = np.exp(-model.beta * np.diag(term).real)
    if u < v:
        psi = weights.reshape(du, dv)
    else:
        psi = weights.reshape(dv, du).T
    m_in = np.ones(du)
    for vec in incoming:
        m_in = m_in * vec
    out = psi.T @ m_in
    return out / out.sum()


def nx_graph(model):
    g = nx.Graph()
    g.add_nodes_from(model.vertices)
    g.add_edges_from(e.key for e in model.edges)
    return g


def nx_distance(model, v, targets):
    g = nx_graph(model)
    return min(nx.shortest_path_length(g, v, t) for t in targets)


def round_based_exact_bp(model, target):
    """Reference schedule for exact propagation: every directed message is
    recomputed from the previous round's messages, for ecc(target) rounds
    after the base case, then the messages into the target are combined
    and normalized.  Returns the belief matrix.

    Unlike the rest of this module it uses the package's own
    ``message_update`` and ``circle_product``: it checks the schedule, not
    the message arithmetic, so the two must agree bit for bit.
    """
    g = nx_graph(model)
    adj = {u: sorted(g.neighbors(u)) for u in model.vertices}
    directed = [(u, v) for u in model.vertices for v in adj[u]]
    msgs = {(u, v): message_update(model, u, v) for u, v in directed}
    for _ in range(nx.eccentricity(g, target)):
        msgs = {
            (u, v): message_update(
                model, u, v, [msgs[(w, u)] for w in adj[u] if w != v]
            )
            for u, v in directed
        }
    belief = circle_product(*(msgs[(u, target)].op for u in adj[target]))
    return belief.mat / belief.trace().real
