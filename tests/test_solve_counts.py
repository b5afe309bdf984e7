"""Guard against repeated full-dimension eigensolves.

Every matrix that ``numpy.linalg`` or ``operators._zheevd`` decomposes, each
matrix of a stack included, is counted by dimension, and by routine and dimension.  When the window sweep and the single-step experiment
run on one model, the full dimension is solved once, for the thermal state:
the widest window and the radius ball that holds every edge reuse it.  The
cumulants of an operator take each shell's norm on the shell's own support,
so only the last shell is solved at the operator's dimension, and the
telescoping residual once more, on its first read.  A deficiency table computes each reduced entropy once,
however many subsets and radii share it, and the whole state's from its Gibbs
weights, with no solve; a bad radius among several is refused before any solve.  A belief is one shifted exponential
of summed effective Hamiltonians, so a sliding-window step solves once at the
window dimension and a single-step surrogate once at the reduced dimension.
The lemma suite decomposes each stack of like instances in one call, so its
solve count does not grow with the number of instances; each of its kernels
decomposes an operand once and takes no SVD.  The ordered
exponential decomposes all its midpoint steps in two stacked calls.
Across the beta values of one command, the model's edge sums are decomposed
once each: the views of the model at each beta share their spectra.  A
command with one beta keeps no spectra and solves the full dimension once.
Operators of a model that commutes with the global spin flip (TFIM) are
solved as two half-size blocks, so each pin is taken at half the dimension
for TFIM and, in a ``random2`` twin, at the full dimension.
"""

import hashlib
import json
from collections import Counter, defaultdict

import numpy as np
import pytest

from qbp import cli, inequalities, markov, models, operators
from qbp import (
    ModelError,
    OperatorError,
    SiteLayout,
    build_chain,
    cumulants,
    deficiency_rows,
    hastings_operator,
    random_hermitian,
    random_two_local,
    run_sliding_window,
    run_suite,
    single_step_experiment,
    thermal_potential,
    thermal_state,
    transverse_ising,
    window_error_sweep,
)
from qbp.inequalities import SUITE_BLOCK

FULL_DIM_SOLVES = 1
#: TFIM commutes with the global spin flip, so its operators are solved as two
#: half-size blocks; ``random2`` does not, so its solves keep the full size.
TFIM = transverse_ising(1.0, 1.0)
RANDOM2 = random_two_local(seed=3)


@pytest.fixture
def solves(monkeypatch):
    """Counts every decomposed matrix by dimension, and by routine and
    dimension; a stack counts each of its matrices.  ``np.linalg.norm(x, 2)``
    calls the module-level ``svd`` of ``numpy.linalg._linalg``, so that is
    patched too, and ``operators._zheevd``, which solves one complex matrix
    outside numpy, counts as ``eigh``.  ``counts["calls"]`` counts calls to
    these routines, a stack as one."""
    counts: Counter = Counter()

    def counting(name, original):
        def counted(mat, *args, **kwargs):
            d, k = mat.shape[-1], int(np.prod(mat.shape[:-2]))
            counts[d] += k
            counts[name, d] += k
            counts["calls"] += 1
            return original(mat, *args, **kwargs)
        return counted

    for module in (np.linalg, np.linalg._linalg):
        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(operators, "_zheevd", counting("eigh", operators._zheevd))
    return counts


def test_stacks_and_spectral_norms_are_counted(solves):
    np.linalg.norm(np.eye(3), 2)
    np.linalg.eigvalsh(np.stack([np.eye(4)] * 5))
    assert solves["svd", 3] == 1
    assert solves["eigvalsh", 4] == 5
    assert solves["calls"] == 2


def _sweep_and_single_steps(factory):
    m = build_chain(6, 2, factory, beta=1.0)
    window_error_sweep(m, 6, range(1, 6))
    for radius in range(1, 6):
        single_step_experiment(m, 1, radius)
    return m.layout.dim


def test_full_dimension_solved_once_per_consumer(solves):
    dim = _sweep_and_single_steps(TFIM)
    assert solves[dim] == 0
    assert solves[dim // 2] == 2 * FULL_DIM_SOLVES  # as two half-size blocks


def test_full_dimension_solved_once_per_consumer_random2(solves):
    assert solves[_sweep_and_single_steps(RANDOM2)] == FULL_DIM_SOLVES


def test_deficiency_table_solves_whole_state_entropy_once(solves):
    m = build_chain(6, 2, random_two_local(seed=3), beta=1.0)
    deficiency_rows(m)
    assert solves["eigvalsh", m.layout.dim] == 0  # from the Gibbs weights


def test_deficiency_radius_rejected_before_any_solve(solves):
    m = build_chain(6, 2, random_two_local(seed=3), beta=1.0)
    solves.clear()  # building the model screens its edge terms
    with pytest.raises(ModelError, match="radius must be >= 1, got 0"):
        deficiency_rows(m, 1, 0)
    with pytest.raises(OperatorError, match="radius must be an integer"):
        deficiency_rows(m, 1, 2.5)
    assert sum(solves.values()) == 0


def test_deficiency_table_solves_each_reduced_entropy_once(solves, monkeypatch):
    n = 6
    m = build_chain(n, 2, random_two_local(seed=3), beta=1.0)
    thermal_state(m)
    solves.clear()
    seen = []

    def recording(rho, traced, *args, **kwargs):
        seen.append(frozenset(traced))
        return original(rho, traced, *args, **kwargs)

    original = markov.partial_trace
    monkeypatch.setattr(markov, "partial_trace", recording)
    deficiency_rows(m, 1, 2)
    # Each nondegenerate split (U, blanket, rest) of the chain needs the
    # entropies with rest, U and U + rest traced out, and the whole state's,
    # which comes from its Gibbs weights and traces nothing.
    traced = {frozenset()}
    sites = range(1, n + 1)
    subsets = [{v} for v in sites] + [{v, v + 1} for v in range(1, n)]
    for radius in (1, 2):
        for u in subsets:
            rest = {s for s in sites if min(abs(s - x) for x in u) > radius}
            if rest:
                traced |= {frozenset(rest), frozenset(u), frozenset(u | rest)}
    assert Counter(seen) == Counter(traced - {frozenset()})  # each once, no other
    # Every entropy but the whole state's, which comes from its Gibbs weights.
    assert sum(solves[key] for key in solves if isinstance(key, tuple)) == len(traced) - 1
    assert solves["eigvalsh", m.layout.dim] == 0


def _sizes(counts: Counter) -> Counter:
    """The decomposed matrices by dimension alone."""
    return Counter({key: n for key, n in counts.items() if isinstance(key, int) and n})


def _cumulant_solves(solves, factory) -> tuple[int, Counter, Counter, Counter]:
    """The potential's dimension; the solves of each shell's norm, taken once
    on the shell's own support, whole or as its two reversal blocks as the
    screen finds it; the solves before the residual is read; and those of
    reading it twice."""
    m = build_chain(6, 2, factory, beta=1.0)
    potential = thermal_potential(m, {1})
    solves.clear()
    series = cumulants(potential, m, {1})
    assert len(series.entries) == 5 and series.entries[-1].op.dim == potential.dim
    unread = Counter(solves)
    assert series.reconstruction_residual == series.reconstruction_residual <= 1e-10
    read = Counter(solves)
    read.subtract(unread)
    shells = Counter()
    for entry in series.entries:
        blocked = operators._reversal_blocks(entry.op.mat) is not None
        shells[entry.op.dim // 2 if blocked else entry.op.dim] += 2 if blocked else 1
    return potential.dim, shells, unread, read


def _solved_once_at(counts: Counter, dim: int) -> bool:
    """One call decomposed one matrix at ``dim``, whole or as its two reversal
    blocks, and nothing else: the telescoping residual sums to roundoff, which
    may or may not pass the reversal screen."""
    return counts["calls"] == 1 and _sizes(counts) in ({dim: 1}, {dim // 2: 2})


def test_cumulants_solve_only_last_shell_and_residual_at_full_dimension(solves):
    dim, shells, unread, read = _cumulant_solves(solves, TFIM)
    assert _sizes(unread) == shells and unread["calls"] == 5  # each shell once
    assert unread[dim] == 0  # the last shell as two half-size blocks
    assert _solved_once_at(read, dim)  # and the residual, once


def test_cumulants_solve_only_last_shell_and_residual_at_full_dimension_random2(solves):
    dim, shells, unread, read = _cumulant_solves(solves, RANDOM2)
    assert _sizes(unread) == shells and unread["calls"] == 5
    assert unread[dim] == 1
    assert _solved_once_at(read, dim)


def test_hastings_operator_decomposes_all_steps_in_two_calls(solves):
    layout = SiteLayout((1, 2), (2, 2))
    h, v = random_hermitian(1, layout), random_hermitian(2, layout)
    for beta in (0.5, 2.0):
        for s_steps in (1, 64, 1024):
            solves.clear()
            hastings_operator(h, v, beta, s_steps)
            assert solves["calls"] == 2
            assert solves["eigh", layout.dim] == 2 * s_steps


def test_sliding_window_solves_once_per_step(solves):
    m = build_chain(6, 2, TFIM, beta=1.0)
    run_sliding_window(m, 6, 2)
    assert solves["eigh", 8] == 0
    assert solves["eigh", 4] == 8  # each window solve as two half-size blocks


def test_sliding_window_solves_once_per_step_random2(solves):
    m = build_chain(6, 2, RANDOM2, beta=1.0)
    run_sliding_window(m, 6, 2)
    assert solves["eigh", 8] == 4  # the first window, then one per step


@pytest.mark.parametrize("factory", [TFIM, RANDOM2], ids=["tfim", "random2"])
def test_sliding_window_forms_no_window_state_whole(monkeypatch, factory):
    """Each window state comes with its oldest site, or at the last edge every
    site but the target, folded out of its spectrum: no matrix function is
    assembled at a window's dimension 2^(window + 1), at either end."""
    dims: Counter = Counter()
    apply = operators._apply

    def recorded(spectrum, f):
        out = apply(spectrum, f)
        dims[out[0].shape[-1]] += 1
        return out

    monkeypatch.setattr(operators, "_apply", recorded)
    m = build_chain(7, 2, factory, beta=1.0)
    for end in (1, 7):
        for window in range(1, 7):
            dims.clear()
            run_sliding_window(m, end, window)
            assert dims[2 ** (window + 1)] == 0, (end, window)


def _single_steps(factory) -> int:
    m = build_chain(6, 2, factory, beta=1.0)
    for radius in range(1, 5):
        single_step_experiment(m, 1, radius)
    return m.layout.dim // 2


def test_single_step_solves_once_per_radius_at_reduced_dimension(solves):
    reduced = _single_steps(TFIM)
    # Every solve is two half-size blocks: the model's thermal state at the
    # reduced dimension, one surrogate per radius and one ball, and two trace
    # norms per radius, at half of it.
    assert solves["eigh", reduced] == 2
    assert solves["eigvalsh", reduced] == 0
    assert solves["eigh", reduced // 2] == 10
    assert solves["eigvalsh", reduced // 2] == 16


def test_single_step_solves_once_per_radius_at_reduced_dimension_random2(solves):
    reduced = _single_steps(RANDOM2)
    assert solves["eigh", reduced] == 5  # one surrogate per radius, one ball
    assert solves["eigvalsh", reduced] == 8  # two trace norms per radius


def test_lemma_suite_solves_once_per_bucket(solves):
    # At seed 3 the first 100 instances of every check already populate each
    # (dimension, parameter) bucket that 400 instances do, so equal counts
    # mean no solve is made per instance.
    assert SUITE_BLOCK >= 400
    run_suite(3, 100)
    small = solves["calls"]
    solves.clear()
    run_suite(3, 400)
    assert solves["calls"] == small


#: Calls per bucket of the lemma suite, by routine, each on the bucket's whole
#: stack.  The circle products are exp(h_a + h_b) / Tr; Tr exp(A + B) and the
#: lower bound's right-hand side come from the eigenvalues of A + B and of
#: log A + log B; extreme eigenvalues come from the spectra already taken, and
#: norms from eigenvalues.
LEMMA_CALLS_PER_BUCKET = {
    "golden_thompson": {"eigh": 2, "eigvalsh": 1},
    "circle_perturbation": {"eigh": 2, "eigvalsh": 5},
    "circle_eig_lower_bound": {"eigh": 2, "eigvalsh": 1},
    "exp_bound": {"eigh": 2, "eigvalsh": 2},
}


def test_lemma_suite_calls_per_bucket(solves, monkeypatch):
    evaluate = inequalities._evaluate
    seen = defaultdict(set)

    def counted(name, layout, param, z):
        before = solves.copy()
        result = evaluate(name, layout, param, z)
        made = Counter()
        for key in solves:
            if isinstance(key, tuple):
                made[key[0]] += (solves[key] - before[key]) / len(z)
        seen[name].add((solves["calls"] - before["calls"], frozenset((+made).items())))
        return result

    monkeypatch.setattr(inequalities, "_evaluate", counted)
    run_suite(3, 400)
    for name, calls in LEMMA_CALLS_PER_BUCKET.items():
        assert seen[name] == {(sum(calls.values()), frozenset(calls.items()))}, name
    assert not any(key[0] == "svd" for key in solves if isinstance(key, tuple))


def _two_beta_window_sweep(monkeypatch, tmp_path, factory, params):
    """Digests of the edge sums a model decomposed, with their counts, in
    one ``window-sweep`` over two beta values of a 6-site chain, every window
    and radius; and the model's dimension."""
    decomposed: Counter = Counter()
    spectrum = models._spectrum

    def counted(mat, *args, **kwargs):
        decomposed[hashlib.sha256(mat.tobytes()).hexdigest()] += 1
        return spectrum(mat, *args, **kwargs)

    monkeypatch.setattr(models, "_spectrum", counted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"stock": {"n": 6, "factory": factory, "params": params}},
        "beta_values": [0.5, 1.0], "ell_values": [1, 2, 3, 4, 5], "seed": 1,
    }))
    argv = ["window-sweep", "--config", str(cfg), "--out", str(tmp_path), "--jobs", "1"]
    assert cli.main(argv) == 0
    return decomposed, 2**6


# The window sweep toward site 6 starts each window w from the first w edges,
# and the single step at leaf 1 and radius r sums the same first r edges; both
# reach all five at the widest window and radius: five distinct edge lists.
DISTINCT_EDGE_LISTS = 5


def test_each_edge_list_decomposed_once_across_betas(solves, monkeypatch, tmp_path):
    decomposed, dim = _two_beta_window_sweep(monkeypatch, tmp_path, "tfim", {})
    assert len(decomposed) == DISTINCT_EDGE_LISTS
    assert set(decomposed.values()) == {1}
    assert solves[dim] == 0
    assert solves["eigh", dim // 2] == 2  # the full Hamiltonian, as two blocks


def test_each_edge_list_decomposed_once_across_betas_random2(solves, monkeypatch, tmp_path):
    decomposed, dim = _two_beta_window_sweep(monkeypatch, tmp_path, "random2", {"seed": 3})
    assert len(decomposed) == DISTINCT_EDGE_LISTS
    assert set(decomposed.values()) == {1}
    assert solves[dim] == FULL_DIM_SOLVES


def _one_beta_command(tmp_path, command, factory, params):
    """Run ``command`` at one beta on a 6-site chain; the model's dimension."""
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps({
        "model": {"stock": {"n": 6, "factory": factory, "params": params}},
        "beta_values": [1.0], "ell_values": [1, 2, 3, 4, 5], "seed": 1,
    }))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / command), "--jobs", "1"]
    assert cli.main(argv) == 0
    return 2**6


@pytest.mark.parametrize("command", ["window-sweep", "cumulant-decay"])
def test_one_beta_command_solves_full_dimension_once(solves, tmp_path, command):
    dim = _one_beta_command(tmp_path, command, "tfim", {})
    assert solves[dim] == 0
    assert solves[dim // 2] == 2 * FULL_DIM_SOLVES  # as two half-size blocks


@pytest.mark.parametrize("command", ["window-sweep", "cumulant-decay"])
def test_one_beta_command_solves_full_dimension_once_random2(solves, tmp_path, command):
    dim = _one_beta_command(tmp_path, command, "random2", {"seed": 3})
    assert solves[dim] == FULL_DIM_SOLVES


@pytest.mark.parametrize("command", ["window-sweep", "cumulant-decay"])
def test_reduced_states_never_form_the_whole_state_random2(monkeypatch, tmp_path, command):
    """An unblocked model's reductions come from its spectrum: no Gibbs state,
    exponential or log is assembled at the model's dimension."""
    shapes = []
    apply = operators._apply

    def recorded(spectrum, f):
        out = apply(spectrum, f)
        shapes.append(out[0].shape)
        return out

    monkeypatch.setattr(operators, "_apply", recorded)
    dim = _one_beta_command(tmp_path, command, "random2", {"seed": 3})
    assert shapes  # the reduced states' logs, at least
    assert max(shape[-1] for shape in shapes) < dim
