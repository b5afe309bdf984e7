"""Guard against repeated full-dimension eigensolves.

Every ``numpy.linalg`` decomposition is counted by matrix dimension, and by
routine and dimension.  When the window sweep and the single-step experiment
run on one model, the full dimension is solved once, for the thermal state:
the widest window and the radius ball that holds every edge reuse it.  The
cumulants of an operator take each shell's norm on the shell's own support,
so only the last shell and the telescoping residual are solved at the
operator's dimension.  A deficiency table computes each reduced entropy once,
however many subsets and radii share it.  A belief is one shifted exponential
of summed effective Hamiltonians, so a sliding-window step solves once at the
window dimension and a single-step surrogate once at the reduced dimension.
The lemma suite decomposes each stack of like instances in one call, so its
solve count does not grow with the number of instances, and the ordered
exponential decomposes all its midpoint steps in two stacked calls.
"""

from collections import Counter

import numpy as np
import pytest

from qbp import (
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


@pytest.fixture
def solves(monkeypatch):
    counts: Counter = Counter()
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def counted(mat, *args, _original=original, _name=name, **kwargs):
            counts[mat.shape[-1]] += 1
            counts[_name, mat.shape[-1]] += 1
            return _original(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_full_dimension_solved_once_per_consumer(solves):
    m = build_chain(6, 2, transverse_ising(1.0, 1.0), beta=1.0)
    window_error_sweep(m, 6, range(1, 6))
    for radius in range(1, 6):
        single_step_experiment(m, 1, radius)
    assert solves[m.layout.dim] <= FULL_DIM_SOLVES


def test_deficiency_table_solves_whole_state_entropy_once(solves):
    m = build_chain(6, 2, random_two_local(seed=3), beta=1.0)
    deficiency_rows(m)
    assert solves["eigvalsh", m.layout.dim] == 1


def test_deficiency_table_solves_each_reduced_entropy_once(solves):
    n = 6
    m = build_chain(n, 2, random_two_local(seed=3), beta=1.0)
    state = thermal_state(m)
    solves.clear()
    entropies: dict = {}
    for radius in (1, 2):
        deficiency_rows(m, radius, state=state, entropies=entropies)
    # Each nondegenerate split (U, blanket, rest) of the chain needs the
    # entropies with rest, U and U + rest traced out, and the whole state's.
    traced = {frozenset()}
    sites = range(1, n + 1)
    subsets = [{v} for v in sites] + [{v, v + 1} for v in range(1, n)]
    for radius in (1, 2):
        for u in subsets:
            rest = {s for s in sites if min(abs(s - x) for x in u) > radius}
            if rest:
                traced |= {frozenset(rest), frozenset(u), frozenset(u | rest)}
    assert set(entropies) == traced
    assert sum(solves[key] for key in solves if isinstance(key, tuple)) == len(traced)
    assert solves["eigvalsh", m.layout.dim] == 1


def test_cumulants_solve_only_last_shell_and_residual_at_full_dimension(solves):
    m = build_chain(6, 2, transverse_ising(1.0, 1.0), beta=1.0)
    potential = thermal_potential(m, {1})
    solves.clear()
    series = cumulants(potential, m, {1})
    assert len(series.entries) == 5
    assert solves[potential.dim] == 2


def test_hastings_operator_decomposes_all_steps_in_two_calls(solves):
    layout = SiteLayout((1, 2), (2, 2))
    h, v = random_hermitian(1, layout), random_hermitian(2, layout)
    for beta in (0.5, 2.0):
        for s_steps in (1, 64, 1024):
            solves.clear()
            hastings_operator(h, v, beta, s_steps)
            assert solves["eigh", layout.dim] == 2


def test_sliding_window_solves_once_per_step(solves):
    m = build_chain(6, 2, transverse_ising(1.0, 1.0), beta=1.0)
    run_sliding_window(m, 6, 2)
    assert solves["eigh", 8] == 4  # the first window, then one per step


def test_single_step_solves_once_per_radius_at_reduced_dimension(solves):
    m = build_chain(6, 2, transverse_ising(1.0, 1.0), beta=1.0)
    for radius in range(1, 5):
        single_step_experiment(m, 1, radius)
    reduced = m.layout.dim // 2
    assert solves["eigh", reduced] <= 5  # one surrogate per radius, one ball
    assert solves["eigvalsh", reduced] == 8  # two trace norms per radius


def test_lemma_suite_solves_once_per_bucket(solves):
    # At seed 3 the first 100 instances of every check already populate each
    # (dimension, parameter) bucket that 400 instances do, so equal counts
    # mean no solve is made per instance.
    assert SUITE_BLOCK >= 400
    run_suite(3, 100)
    small = sum(n for key, n in solves.items() if isinstance(key, tuple))
    solves.clear()
    run_suite(3, 400)
    assert sum(n for key, n in solves.items() if isinstance(key, tuple)) == small
