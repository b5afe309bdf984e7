"""Guard against repeated full-dimension eigensolves.

Every ``numpy.linalg`` decomposition is counted by matrix dimension while
the window sweep and the single-step experiment run on one model.  The full
dimension needs one solve for the thermal state, one for the widest window
and one for the widest radius ball; anything more is a repeat.
"""

from collections import Counter

import numpy as np
import pytest

from qbp import build_chain, single_step_experiment, transverse_ising, window_error_sweep

FULL_DIM_SOLVES = 3


@pytest.fixture
def solves(monkeypatch):
    counts: Counter = Counter()
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def counted(mat, *args, _original=original, **kwargs):
            counts[mat.shape[-1]] += 1
            return _original(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_full_dimension_solved_once_per_consumer(solves):
    m = build_chain(6, 2, transverse_ising(1.0, 1.0), beta=1.0)
    window_error_sweep(m, 6, range(1, 6))
    for radius in range(1, 6):
        single_step_experiment(m, 1, radius)
    assert solves[m.layout.dim] <= FULL_DIM_SOLVES
