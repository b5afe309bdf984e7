"""Guard against repeated full-dimension eigensolves.

Every ``numpy.linalg`` decomposition is counted by matrix dimension, and by
routine and dimension.  When the window sweep and the single-step experiment
run on one model, the full dimension needs one solve for the thermal state,
one for the widest window and one for the widest radius ball; anything more
is a repeat.  A deficiency table needs the entropy of the whole state once,
however many subsets it lists.
"""

from collections import Counter

import numpy as np
import pytest

from qbp import (
    build_chain,
    deficiency_rows,
    random_two_local,
    single_step_experiment,
    transverse_ising,
    window_error_sweep,
)

FULL_DIM_SOLVES = 3


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
