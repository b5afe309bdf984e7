"""Running qbp commands for the benchmark: as fresh child processes with
their resource usage, or in-process through ``qbp.cli.main``.

Importing this module pins the BLAS thread count in this process's
environment, so it must be imported before anything imports numpy.  CSV
bytes depend on the BLAS thread count, and the pin keeps every run at one
thread per process, never more threads than cores.  It also puts the
checkout's ``src`` first on ``sys.path``, so in-process runs use that qbp.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
sys.path.insert(0, str(SRC))


#: glibc's malloc thresholds, fixed at the ceiling its dynamic mmap threshold
#: can rise to (32 MiB) and the trim threshold that implies.  Left dynamic,
#: the threshold moves with the first large free, and the same
#: ``cumulant-decay`` command peaks at 131 or 147 MB depending only on the
#: lengths of the checkout path and argument strings.  Fixed, peak RSS repeats
#: to 0.3 % whatever the path, and large arrays still come from the heap.
PINNED_MALLOC = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


def child_env() -> dict:
    """Environment of every child: only the checkout's qbp, pinned BLAS and
    malloc thresholds."""
    return dict(os.environ, PYTHONPATH=str(SRC), **PINNED_THREADS, **PINNED_MALLOC)


@dataclass(frozen=True)
class Usage:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(argv: list[str], cwd: Path, log: Path, timeout: float) -> Usage:
    """Run ``argv`` to completion, killing its process group after
    ``timeout`` seconds.

    CPU time and peak RSS come from ``wait4``, which on Linux covers the
    child and every descendant it waited for, such as pool workers.  Linux
    also carries the spawning process's own high-water RSS into the child
    across ``exec``, so the caller must stay small: it never loads numpy.
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)

        def kill_group():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        killer = threading.Timer(max(timeout, 0.0), kill_group)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        kill_group()  # any descendant the child left behind
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def write_configs(commands, directory: Path) -> list[Path]:
    paths = []
    for i, command in enumerate(commands):
        path = directory / f"{i}-{command.name}.json"
        path.write_text(json.dumps(command.config, indent=1), encoding="utf-8")
        paths.append(path)
    return paths


def cli_args(command, config: Path, seed: int, out: Path, jobs: int) -> list[str]:
    return [command.name, "--config", str(config), "--seed", str(seed),
            "--out", str(out), "--jobs", str(jobs)]


def run_in_process(commands, configs, seed: int, out_root: Path, tracer=None) -> tuple[float, list[int]]:
    """Run ``commands`` through ``qbp.cli.main`` with ``--jobs 1``.

    Returns the wall time of all commands and their exit codes.
    """
    from qbp import cli

    codes = []
    wall = 0.0
    for i, (command, config) in enumerate(zip(commands, configs)):
        if tracer is not None:
            tracer.full_dim = command.full_dim
        argv = cli_args(command, config, seed, out_root / f"{i}-{command.name}", 1)
        t0 = time.perf_counter()
        codes.append(cli.main(argv))
        wall += time.perf_counter() - t0
    return wall, codes
