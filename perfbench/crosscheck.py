"""Cross-check of the tracer's eigensolve counts against cProfile.

    python3 perfbench/crosscheck.py

Runs each workload component at seed 42 and full scale in-process
(``--jobs 1``) once under cProfile and once under the tracer, and requires
both to count the same calls to ``numpy.linalg`` ``eigh``, ``eigvalsh`` and
``svd``.  cProfile also sees numpy's own internal calls
(``numpy.linalg.norm(ord=2)`` calls ``svd``); those do not go through
``numpy.linalg`` and are left out of its count.  The counts and the share of
real-valued eigensolve inputs must also equal the values recorded at the
seed commit.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import shutil
import sys
import tempfile
from pathlib import Path

import harness  # first: pins the BLAS thread count before numpy loads
import numpy as np

import tracer as tracing
import workloads

SEED = 42
#: (eigh, eigvalsh, svd, real_input_frac) at ``SEED``, measured at the seed commit.
EXPECTED_AT_42 = {
    "sweep-tfim9": (342, 34, 80, 1.0),
    "audit-random": (8, 548, 20, 0.0),
    "small-ops": (50776, 12000, 18048, 0.0),
}


def profiled_counts(stats: pstats.Stats) -> tuple[int, ...]:
    numpy_dir = os.path.dirname(np.__file__)
    counts = dict.fromkeys(tracing.LINALG, 0)
    for (path, _, func), (*_, callers) in stats.stats.items():
        if func in counts and path.startswith(os.path.join(numpy_dir, "linalg")):
            counts[func] += sum(c[0] for (caller, _, _), c in callers.items()
                                if not caller.startswith(numpy_dir))
    return tuple(counts[f] for f in tracing.LINALG)


def main() -> int:
    harness.WORK.mkdir(exist_ok=True)
    ok = True
    for workload in workloads.COMPONENTS:
        commands = workloads.component(workload, SEED)
        run_dir = Path(tempfile.mkdtemp(prefix=f"crosscheck-{workload}-", dir=harness.WORK))
        try:
            configs = harness.write_configs(commands, run_dir)
            profile = cProfile.Profile()
            profile.enable()
            harness.run_in_process(commands, configs, SEED, run_dir / "profiled")
            profile.disable()
            profiled = profiled_counts(pstats.Stats(profile))

            tracer = tracing.Tracer()
            uninstall = tracer.install()
            try:
                harness.run_in_process(commands, configs, SEED, run_dir / "traced", tracer)
            finally:
                uninstall()
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        summary = tracer.summarize()
        traced = tuple(int(summary[f"operators.linalg.{f}.calls"]) for f in tracing.LINALG)
        real = summary["operators.linalg.real_input_frac"]
        expected = EXPECTED_AT_42[workload]
        verdict = traced == profiled and traced + (real,) == expected
        line = (f"{workload}: traced {traced} cProfile {profiled} real_input_frac {real:g}"
                f" seed-commit {expected}")
        print(("OK   " if verdict else "FAIL ") + line, flush=True)
        ok = ok and verdict
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
