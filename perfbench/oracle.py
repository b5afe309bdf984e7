"""Brute-force reference for ``qbp markov-audit`` on a ``random2`` chain.

Everything is rebuilt here with plain numpy, independently of qbp: the edge
terms, the full thermal state, the reduced states and their entropies.  The
benchmark compares the CLI's deficiencies against these values.

    python3 perfbench/oracle.py N SEED BETA,... RADIUS,...

prints the rows ``[beta, radius, "u+v", deficiency, degenerate]`` as JSON.
The benchmark runs it as a child process so that its memory never counts
towards the peak RSS of the qbp commands it spawns afterwards.
"""

from __future__ import annotations

import json
import sys

import numpy as np


def random2_chain_hamiltonian(n: int, seed: int) -> np.ndarray:
    """H = sum of the seeded random two-site terms on the chain 1..n.

    Edge (u, u+1) draws a complex Gaussian matrix from the stream keyed by
    (seed, u, u+1), symmetrises it and scales it to unit spectral norm, as
    the ``random2`` stock factory does.  Site 1 is the leading tensor factor.
    """
    dim = 2**n
    ham = np.zeros((dim, dim), dtype=np.complex128)
    for u in range(1, n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(u, u + 1)))
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        term = (g + g.conj().T) / 2.0
        term = term / np.linalg.norm(term, 2)
        ham += np.kron(np.kron(np.eye(2 ** (u - 1)), term), np.eye(2 ** (n - u - 1)))
    return ham


def thermal_density(ham: np.ndarray, beta: float) -> np.ndarray:
    w, u = np.linalg.eigh(ham)
    p = np.exp(-beta * (w - w[0]))
    return (u * (p / p.sum())) @ u.conj().T


def reduced(rho: np.ndarray, n: int, keep: frozenset[int]) -> np.ndarray:
    """Partial trace of an n-qubit state onto the sites in ``keep``."""
    tensor = rho.reshape((2,) * (2 * n))
    sites = list(range(1, n + 1))
    for site in reversed(sites):
        if site not in keep:
            i = sites.index(site)
            tensor = np.trace(tensor, axis1=i, axis2=i + len(sites))
            sites.pop(i)
    d = 2 ** len(sites)
    return tensor.reshape(d, d)


def entropy(rho: np.ndarray) -> float:
    w = np.linalg.eigvalsh(rho)
    w = w[w > 0.0]
    return max(0.0, float(-(w * np.log(w)).sum()))


def chain_subsets(n: int) -> list[tuple[int, ...]]:
    """Connected subsets of at most two sites, excluding the whole chain."""
    subsets = [(v,) for v in range(1, n + 1)] + [(v, v + 1) for v in range(1, n)]
    return [s for s in subsets if len(s) < n]


def markov_deficiencies(
    n: int, seed: int, betas: list[float], radii: list[int]
) -> dict[tuple[float, int, str], tuple[float, bool]]:
    """(beta, radius, "u+v") -> (deficiency, degenerate) for every audit row.

    The deficiency of a subset A with blanket B (sites within ``radius``)
    and rest C is the conditional mutual information
    S(AB) + S(BC) - S(ABC) - S(B); it is zero and degenerate when C is empty.
    """
    ham = random2_chain_hamiltonian(n, seed)
    everything = frozenset(range(1, n + 1))
    out = {}
    for beta in betas:
        rho = thermal_density(ham, beta)
        cache: dict[frozenset[int], float] = {frozenset(): 0.0}

        def s(keep: frozenset[int]) -> float:
            if keep not in cache:
                cache[keep] = entropy(reduced(rho, n, keep))
            return cache[keep]

        for radius in radii:
            for subset in chain_subsets(n):
                a = frozenset(subset)
                b = frozenset(v for v in everything - a
                              if min(abs(v - x) for x in a) <= radius)
                c = everything - a - b
                key = (beta, radius, "+".join(map(str, subset)))
                if not c:
                    out[key] = (0.0, True)
                    continue
                value = s(a | b) + s(b | c) - s(everything) - s(b)
                out[key] = (0.0 if -1e-8 <= value < 0.0 else value, False)
    return out


if __name__ == "__main__":
    n, seed, betas, radii = sys.argv[1:]
    table = markov_deficiencies(int(n), int(seed), [float(b) for b in betas.split(",")],
                                [int(r) for r in radii.split(",")])
    print(json.dumps([[*key, *value] for key, value in table.items()]))
