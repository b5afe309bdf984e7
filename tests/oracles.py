"""Independent brute-force oracles the tests judge the package against.

Everything here deliberately avoids the package's own tensor plumbing:
embeddings are built index by index, partial traces by explicit index
summation, thermal marginals by enumerating classical configurations,
matrix exponentials by scipy, and graph distances via networkx.
"""

from __future__ import annotations

import itertools
from functools import reduce
from string import ascii_letters

import networkx as nx
import numpy as np
from scipy.linalg import expm

from qbp import (
    DenseOperator,
    SiteLayout,
    check_circle_eig_lower_bound,
    check_circle_perturbation,
    check_commutator_power,
    check_exp_bound,
    check_golden_thompson,
    check_telescoping,
    check_trace_norm_monotone,
    check_weyl,
    matrix_log_pd,
    message_update,
    op_norm,
    random_density,
    random_hermitian,
)
from qbp.inequalities import CHECK_NAMES
from qbp.operators import embed_sum, gibbs_state


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


def kron_embed(op_mat, op_sites, full_sites, dims):
    """Kronecker embedding oracle: ``op (x) I`` on the remaining sites, legs
    transposed into ``full_sites`` order, added onto zeros.

    ``full_sites`` must be ascending.  The addition onto zeros makes every
    zero entry +0.0 (the Kronecker product gives -0.0 where a negative entry
    meets an identity zero), so results can be compared byte for byte.
    """
    rest = [s for s in full_sites if s not in op_sites]
    cur = list(op_sites) + rest
    cur_dims = [dims[s] for s in cur]
    big = np.kron(op_mat, np.eye(int(np.prod([dims[s] for s in rest]))))
    perm = [cur.index(s) for s in full_sites]
    n = len(cur)
    tensor = big.reshape(cur_dims * 2).transpose(perm + [n + p for p in perm])
    total = big.shape[0]
    return np.zeros((total, total), dtype=big.dtype) + tensor.reshape(total, total)


def kron_hamiltonian(terms, full_sites, dims):
    """Sum of ``(op_mat, op_sites)`` terms, each Kronecker-embedded, added
    in the given order onto zeros of the promoted dtype."""
    total = int(np.prod([dims[s] for s in full_sites]))
    dtype = np.result_type(np.float64, *(mat.dtype for mat, _ in terms))
    out = np.zeros((total, total), dtype=dtype)
    for mat, sites in terms:
        out += kron_embed(mat, sites, full_sites, dims)
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


def letter_partial_trace(mat, layout, traced):
    """Layout and matrix (or stack) left after tracing out ``traced``, by one
    ``np.einsum`` whose subscripts give each site a row letter and each kept
    site a column letter; a traced site's column reuses its row letter.  The
    package's partial trace before it summed over one strided site map, kept
    as the byte-equality reference for it."""
    sites, dims = layout.sites, layout.dims
    n = len(sites)
    row = ascii_letters[:n]
    col = []
    free = n
    for i, s in enumerate(sites):
        if s in traced:
            col.append(row[i])
        else:
            col.append(ascii_letters[free])
            free += 1
    keep = [i for i, s in enumerate(sites) if s not in traced]
    out_sub = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    stack = mat.shape[:-2]
    tensor = mat.reshape(stack + dims + dims)
    reduced = np.einsum(f"...{row}{''.join(col)}->...{out_sub}", tensor)
    keep_layout = layout.subset([sites[i] for i in keep])
    return keep_layout, reduced.reshape(stack + (keep_layout.dim, keep_layout.dim))


def sliding_window_oracle(model, target, window):
    """Sliding-window belief at the chain endpoint ``target``, from the edge
    terms' raw matrices alone.

    The chain is ordered from the far endpoint by networkx.  The first
    ``window`` edges give exp(-beta H) / Z on their ``window + 1`` sites; each
    later step traces out the oldest site, then absorbs the next edge term as
    exp(-beta h + log rho) / Z; the last state is traced down to ``target``.
    Hamiltonians come from ``kron_hamiltonian``, exponentials from
    ``scipy.linalg.expm``, logs from ``numpy.linalg.eigh`` and partial traces
    from ``partial_trace_by_sum``.
    """
    g = nx_graph(model)
    far = next(v for v, deg in g.degree if deg == 1 and v != target)
    order = nx.shortest_path(g, far, target)
    dims = {s: model.layout.dim_of(s) for s in model.vertices}
    terms = {e.key: e.term.mat for e in model.edges}

    def term(i):  # the edge (order[i], order[i + 1]), on its ascending sites
        key = tuple(sorted(order[i : i + 2]))
        return model.beta * terms[key], key

    def gibbs(h):
        rho = expm(-h)
        return rho / np.trace(rho)

    def trace_out(rho, sites, gone):
        axes = [sites.index(s) for s in gone]
        return partial_trace_by_sum(rho, [dims[s] for s in sites], axes)

    sites = sorted(order[: window + 1])
    rho = gibbs(kron_hamiltonian([term(i) for i in range(window)], sites, dims))
    for j in range(window, len(order) - 1):
        oldest = order[j - window]
        rho = trace_out(rho, sites, [oldest])
        sites.remove(oldest)
        w, v = np.linalg.eigh(rho)
        log_rho = (v * np.log(w)) @ v.conj().T
        new_sites = sorted(sites + [order[j + 1]])
        rho = gibbs(kron_hamiltonian([term(j), (-log_rho, tuple(sites))], new_sites, dims))
        sites = new_sites
    return trace_out(rho, sites, [s for s in sites if s != target])


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
    into one shifted exponential.  Returns the belief matrix.

    Unlike the rest of this module it uses the package's own
    ``message_update`` and belief arithmetic: it checks the schedule, not
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
    incoming = (-matrix_log_pd(msgs[(u, target)]) for u in adj[target])
    return gibbs_state(embed_sum(incoming), 1.0)[0].mat


def _random_layout(rng):
    n_sites = int(rng.integers(2, 5))  # qubit dims 4..16
    return SiteLayout(tuple(range(1, n_sites + 1)), (2,) * n_sites)


def random_unitary(rng, layout):
    """exp(iH) of a random Hermitian H, drawn like the suite draws it."""
    h = random_hermitian(rng, layout)
    w, u = np.linalg.eigh(h.mat)
    return DenseOperator(layout, (u * np.exp(1j * w)) @ u.conj().T)


def _looped_check(name, rng):
    layout = _random_layout(rng)
    if name == "golden_thompson":
        return check_golden_thompson(
            random_hermitian(rng, layout), random_hermitian(rng, layout)
        )
    if name == "weyl":
        return check_weyl(random_hermitian(rng, layout), random_hermitian(rng, layout))
    if name == "circle_eig_lower_bound":
        return check_circle_eig_lower_bound(
            random_density(rng, layout), random_density(rng, layout)
        )
    if name == "commutator_power":
        n = int(rng.choice([1, 2, 3, 5]))
        return check_commutator_power(
            random_hermitian(rng, layout), random_hermitian(rng, layout), n
        )
    if name == "telescoping":
        k = int(rng.choice([1, 2, 4]))
        return check_telescoping(
            random_unitary(rng, layout),
            random_unitary(rng, layout),
            random_hermitian(rng, layout),
            k,
        )
    if name == "exp_bound":
        return check_exp_bound(
            random_hermitian(rng, layout), random_hermitian(rng, layout)
        )
    if name == "trace_norm_monotone":
        sites = list(layout.sites)
        size = int(rng.integers(1, len(sites)))
        out = [sites[i] for i in rng.choice(len(sites), size=size, replace=False)]
        return check_trace_norm_monotone(random_hermitian(rng, layout), out)
    if name == "circle_perturbation":
        eps_a = float(rng.choice([1e-3, 1e-1]))
        eps_b = float(rng.choice([1e-3, 1e-1]))
        h_a = random_hermitian(rng, layout)
        h_b = random_hermitian(rng, layout)
        scale = max(op_norm(h_a), op_norm(h_b))
        return check_circle_perturbation(
            (1.0 / scale) * h_a, (1.0 / scale) * h_b, eps_a, eps_b, rng
        )
    raise ValueError(f"unknown check {name!r}")


def looped_suite(master_seed, instances):
    """Reference for ``run_suite``: every instance drawn and checked on its
    own through the public ``check_*`` functions, one at a time, as the suite
    ran before it evaluated stacks.  Returns ``{name: (min_margin, failures)}``.

    Like ``round_based_exact_bp`` it uses the package's own check arithmetic:
    it checks the draw order and the stacking, not the inequalities, so the
    two must agree bit for bit.
    """
    children = np.random.SeedSequence(master_seed).spawn(len(CHECK_NAMES))
    out = {}
    for name, child in zip(CHECK_NAMES, children):
        rng = np.random.default_rng(child)
        min_margin, failures = np.inf, 0
        for _ in range(instances):
            result = _looped_check(name, rng)
            min_margin = min(min_margin, result.margin)
            failures += 0 if result.passed else 1
        out[name] = (float(min_margin), failures)
    return out


# -- lemma kernels by their first routes ---------------------------------------
#
# Each takes stacks like the package's kernel of the same name and returns
# (lhs, rhs).  The circle product is formed as written, exp(log A + log B), and
# every norm is the largest singular value by SVD, on numpy alone.


def _hermitian_function(mat, f):
    w, v = np.linalg.eigh(mat)
    return (v * f(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _norm2(mat):
    return np.linalg.norm(mat, 2, axis=(-2, -1))


def _normalized_circle(a, b):
    prod = _hermitian_function(
        _hermitian_function(a, np.log) + _hermitian_function(b, np.log), np.exp
    )
    return prod / np.trace(prod, axis1=-2, axis2=-1).real[..., None, None]


def circle_eig_lower_bound_reference(a, b):
    wa, wb = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
    lhs = wa[..., 0] * wb[..., 0] / wa[..., -1]
    return lhs, np.linalg.eigvalsh(_normalized_circle(a, b))[..., 0]


def commutator_power_reference(a, b, n):
    bn = np.linalg.matrix_power(b, n)
    return _norm2(a @ bn - bn @ a), n * _norm2(b) ** (n - 1) * _norm2(a @ b - b @ a)


def telescoping_reference(u, v, o, k):
    def conj(x, y):  # x y x†
        return x @ y @ x.conj().swapaxes(-1, -2)

    vk, uvk = np.linalg.matrix_power(v, k), np.linalg.matrix_power(u @ v, k)
    lhs = _norm2(conj(vk, o) - conj(uvk, o))
    inners = [conj(np.linalg.matrix_power(v, j), o) for j in range(1, k + 1)]
    return lhs, sum(_norm2(inner - conj(u, inner)) for inner in inners)


def exp_bound_reference(a, b):
    lhs = _norm2(_hermitian_function(a, np.exp) - _hermitian_function(b, np.exp))
    return lhs, np.exp(np.maximum(_norm2(a), _norm2(b))) * _norm2(a - b)


def circle_perturbation_reference(h_a, h_b, eps_a, eps_b, delta_a, delta_b):
    def circle(x, y):
        return _normalized_circle(_hermitian_function(x, np.exp), _hermitian_function(y, np.exp))

    def moved(h, eps, delta):
        return h + delta * (eps / _norm2(delta))[..., None, None]

    bumped = circle(moved(h_a, eps_a, delta_a), moved(h_b, eps_b, delta_b))
    return _norm2(circle(h_a, h_b) - bumped), 2.0 * (eps_a + eps_b)


def _chain_parts(model, leaf, radius):
    """(inner, away) edge keys in model order, from networkx distances to
    ``leaf``: inner edges have both endpoints within ``radius``."""
    dist = nx.single_source_shortest_path_length(nx_graph(model), leaf)
    inner = [e.key for e in model.edges if max(dist[e.u], dist[e.v]) <= radius]
    return inner, [e.key for e in model.edges if e.key not in inner]


def _kron_terms(model, keys, scale=1.0):
    terms = {e.key: e.term.mat for e in model.edges}
    return [(scale * terms[k], k) for k in keys]


def _trace_out(mat, sites, dims, gone):
    """Partial trace over the sites ``gone`` as a sum of diagonal blocks: the
    traced row and column legs are moved to the front and the blocks at equal
    traced indices are added up (``partial_trace_by_sum``, vectorized)."""
    n, shape = len(sites), [dims[s] for s in sites]
    axes = [sites.index(s) for s in gone]
    tensor = np.moveaxis(mat.reshape(shape + shape), axes + [n + a for a in axes],
                         list(range(2 * len(axes))))
    keep = int(np.prod([d for i, d in enumerate(shape) if i not in axes]))
    blocks = tensor.reshape(int(np.prod([shape[a] for a in axes])), -1, keep, keep)
    return sum(blocks[t, t] for t in range(blocks.shape[0]))


def single_step_oracle(model, leaf):
    """{radius: (lhs_literal, lhs_normalized)} of one windowed step at
    ``leaf``, for every radius from 1 to the leaf's eccentricity, from the
    edge terms' raw matrices alone.

    The exact once-traced state Tr_leaf exp(-beta H) / Z is compared with the
    surrogate S = exp(-beta H_away + log Tr_leaf exp(-beta H_inner)), where
    H_inner sums the edges with both endpoints within the radius of the leaf
    and H_away every other edge: literally, as S / Z, and normalized, as
    S / Tr S.  Hamiltonians come from ``kron_hamiltonian``, exponentials from
    ``scipy.linalg.expm``, the log from ``numpy.linalg.eigh``, partial traces
    from ``partial_trace_by_sum`` and trace norms from the nuclear norm.
    """
    dims = {s: model.layout.dim_of(s) for s in model.vertices}
    sites = list(model.vertices)
    reduced = [s for s in sites if s != leaf]
    full = expm(kron_hamiltonian(_kron_terms(model, [e.key for e in model.edges], -model.beta), sites, dims))
    z = np.trace(full).real
    term1 = _trace_out(full, sites, dims, [leaf]) / z
    out = {}
    for radius in range(1, nx.eccentricity(nx_graph(model), leaf) + 1):
        inner, away = _chain_parts(model, leaf, radius)
        ball = sorted({s for key in inner for s in key})
        near = expm(kron_hamiltonian(_kron_terms(model, inner, -model.beta), ball, dims))
        log_near = _hermitian_function(_trace_out(near, ball, dims, [leaf]), np.log)
        terms = _kron_terms(model, away, -model.beta) + [(log_near, tuple(s for s in ball if s != leaf))]
        surrogate = expm(kron_hamiltonian(terms, reduced, dims))
        out[radius] = (np.linalg.norm(term1 - surrogate / z, "nuc"),
                       np.linalg.norm(term1 - surrogate / np.trace(surrogate).real, "nuc"))
    return out


def thermal_potential_oracle(model, leaf):
    """-(1/beta) log Tr_leaf exp(-beta H) / Z minus the edge terms away from
    ``leaf``, on the other sites in ascending order; and the smallest
    eigenvalue of the traced state, which sets how far roundoff in it
    reaches the log."""
    dims = {s: model.layout.dim_of(s) for s in model.vertices}
    sites = list(model.vertices)
    full = expm(kron_hamiltonian(_kron_terms(model, [e.key for e in model.edges], -model.beta), sites, dims))
    reduced = _trace_out(full / np.trace(full).real, sites, dims, [leaf])
    rest = [s for s in sites if s != leaf]
    outside = [e.key for e in model.edges if leaf not in e.key]
    h_out = kron_hamiltonian(_kron_terms(model, outside), rest, dims)
    return -_hermitian_function(reduced, np.log) / model.beta - h_out, np.linalg.eigvalsh(reduced)[0]


def cumulant_norms_oracle(mat, sites, model, anchor):
    """[(j, ||shell_j||)] of ``mat`` on ``sites`` (ascending) around ``anchor``.

    With E_j the normalized partial trace onto the sites within distance j
    (networkx), shell j is E_j(mat) - E_{j-1}(mat), E_0 = 0, taken on the
    sites within distance j, up to the first j that keeps every site; its
    norm is the largest singular value.
    """
    dims = {s: model.layout.dim_of(s) for s in sites}
    dist = nx.multi_source_dijkstra_path_length(nx_graph(model), set(anchor))

    def average(j):  # E_j(mat) on the sites within distance j
        far = [s for s in sites if dist[s] > j]
        near = [s for s in sites if dist[s] <= j]
        if not far:
            return mat, near
        return _trace_out(mat, sites, dims, far) / np.prod([dims[s] for s in far]), near

    out, previous, j = [], None, 1
    while True:
        avg, near = average(j)
        shell = avg if previous is None else avg - kron_embed(previous[0], previous[1], near, dims)
        out.append((j, np.linalg.norm(shell, 2)))
        if len(near) == len(sites):
            return out
        previous, j = (avg, near), j + 1
