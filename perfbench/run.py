"""Benchmark of the qbp command-line interface.

    python3 perfbench/run.py --workload sweep-tfim9 --seed 1 --seconds 55 --trace 0

Load shape: a closed loop from one process.  Each CLI command of the
workload runs as a fresh child with one BLAS thread, and the next starts
only after it exits.  The loop repeats the workload's commands (a pass)
for about ``--seconds`` and reports medians over passes.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` of a pass, and ``setup_s``, the median time of a fresh
interpreter that imports ``qbp.cli``, parses the configs and builds each
model.  Children run with glibc's malloc thresholds fixed
(``harness.PINNED_MALLOC``), so peak RSS does not depend on the checkout
path.  ``--trace 1`` runs one pass in-process through ``qbp.cli.main`` with
``--jobs 1``, untraced and then traced, and reports the per-layer metrics of
``tracer.PER_LAYER`` plus the tracing overhead.

Every command's outputs are checked (see ``workloads``); a command that
exits with an unexpected code or fails a check counts as failed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits with code 2, printing
no result, when the checkout has no qbp sources to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness  # first: pins the BLAS thread count before numpy loads
import workloads

HERE = Path(__file__).resolve().parent
#: Every run must end well inside the three minutes it is allowed.
DEADLINE_S = 165.0
#: Set-up probes before each pass, and at least this many in a run.
SETUP_PER_PASS = 3
SETUP_MIN = 9
#: The end-to-end metrics and their units.
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
#: Tracing-overhead metrics reported next to the per-layer ones.
TRACE_METRICS = [("trace.spans", "count"), ("trace.untraced_wall_s", "s"),
                 ("trace.wall_s", "s"), ("trace.overhead_s", "s")]


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed command)."""


def failed_check(command, out: Path, code: int) -> bool:
    """Whether the command exited with an unexpected code or failed a check
    on its outputs; prints the first problems found."""
    problems = [] if code == 0 else [f"exited with code {code}"]
    try:
        problems += command.check(out)
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"outputs unreadable: {exc!r}")
    for problem in problems[:5]:
        print(f"FAILED {command.name} in {out.name}: {problem}")
    return bool(problems)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def setup_probe(commands, configs, seed: int, run_dir: Path, deadline: float):
    """A function timing one fresh set-up probe: import, parse, build models."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(seed)]
    for command, config in zip(commands, configs):
        argv += ["--build" if command.name in workloads.BUILDS_MODEL else "--parse", str(config)]

    def probe() -> float:
        usage = harness.run_child(argv, run_dir, run_dir / "setup.log",
                                  deadline - time.perf_counter())
        if usage.code != 0:
            log = (run_dir / "setup.log").read_text(encoding="utf-8", errors="replace")
            raise BenchmarkError(f"set-up probe exited with {usage.code}:\n{log}")
        return usage.wall_s

    return probe


def end_to_end(commands, configs, seed: int, seconds: int, run_dir: Path, deadline: float):
    probe = setup_probe(commands, configs, seed, run_dir, deadline)
    probe()  # discarded: the first probe may compile bytecode
    setup, passes, attempted, failed = [], [], 0, 0
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        # Set-up samples are spread over the run, next to the passes they precede.
        setup += [probe() for _ in range(SETUP_PER_PASS)]
        wall = cpu = rss = 0.0
        for i, (command, config) in enumerate(zip(commands, configs)):
            out = run_dir / f"pass{len(passes)}-{i}-{command.name}"
            argv = [sys.executable, "-m", "qbp.cli",
                    *harness.cli_args(command, config, seed, out, command.jobs)]
            usage = harness.run_child(argv, run_dir, run_dir / f"{out.name}.log",
                                      deadline - time.perf_counter())
            attempted += 1
            failed += failed_check(command, out, usage.code)
            wall += usage.wall_s
            cpu += usage.cpu_s
            rss = max(rss, usage.peak_rss_mb)
            shutil.rmtree(out, ignore_errors=True)
        passes.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss})
        print(f"pass {len(passes)}: " + " ".join(f"{k}={v:.4f}" for k, v in passes[-1].items()))
        # Stop where the run ends closest to ``seconds``: another pass is
        # started only if at least half of it fits.
        now = time.perf_counter()
        last = now - pass_start
        if now - started + last / 2 > seconds or now + last > deadline:
            break
    while len(setup) < SETUP_MIN:
        setup.append(probe())

    samples = {k: [p[k] for p in passes] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setup
    metrics = {}
    for name, unit in END_TO_END:
        q1, median, q3 = quartiles(samples[name])
        metrics[name] = {"value": median, "unit": unit}
        print(f"{name} {median:.6g} {unit} (median of {len(samples[name])}; "
              f"quartiles {q1:.6g} .. {q3:.6g})")
    return metrics, attempted, failed


def traced(workload: str, commands, configs, seed: int, run_dir: Path):
    import tracer as tracing

    tracer = tracing.Tracer()
    failed = 0
    walls = []
    for label in ("untraced", "traced"):
        out_root = run_dir / label
        out_root.mkdir()
        uninstall = tracer.install() if label == "traced" else lambda: None
        try:
            wall, codes = harness.run_in_process(commands, configs, seed, out_root,
                                                 tracer if label == "traced" else None)
        finally:
            uninstall()
        walls.append(wall)
        failed += sum(failed_check(command, out_root / f"{i}-{command.name}", code)
                      for i, (command, code) in enumerate(zip(commands, codes)))
        print(f"{label} in-process pass (--jobs 1): {wall:.4f} s")
    attempted = 2 * len(commands)

    spans = harness.WORK / f"spans-{workload}.npz"
    tracer.save(spans)
    values = tracer.summarize()
    values.update({
        "trace.spans": float(len(tracer.name)),
        "trace.untraced_wall_s": walls[0],
        "trace.wall_s": walls[1],
        "trace.overhead_s": walls[1] - walls[0],
    })
    units = dict(tracing.PER_LAYER + TRACE_METRICS)
    print(f"{len(tracer.name)} spans written to {spans.relative_to(harness.ROOT)}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, attempted, failed


def git_commit() -> str | None:
    if not (harness.ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() or None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((harness.SRC / "qbp").rglob("*.py")):
        digest.update(path.relative_to(harness.SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


#: Numpy and BLAS versions, read in a child: this process must not load
#: numpy, whose memory would count towards every child's peak RSS.
NUMPY_PROBE = (
    "import json, numpy\n"
    "blas = numpy.show_config(mode='dicts').get('Build Dependencies', {}).get('blas', {})\n"
    "print(json.dumps({'numpy': numpy.__version__, 'blas': {k: blas.get(k) for k in "
    "('name', 'version', 'openblas configuration')}}))\n"
)


def environment(workload: str, commands, seed: int, trace: bool) -> dict:
    versions = subprocess.run([sys.executable, "-c", NUMPY_PROBE], env=harness.child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        **json.loads(versions.stdout),
        "thread_env": {k: os.environ.get(k) for k in harness.PINNED_THREADS},
        "malloc_env": harness.PINNED_MALLOC,
        "jobs": {c.name: 1 if trace else c.jobs for c in commands},
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="workload size; 'smoke' is for testing the benchmark")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (harness.SRC / "qbp" / "cli.py").is_file():
        print(f"no qbp sources under {harness.SRC}", file=sys.stderr)
        return 2
    harness.WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=harness.WORK))
    try:
        commands = workloads.commands(args.workload, args.seed, args.scale)
        configs = harness.write_configs(commands, run_dir)
        print("environment " + json.dumps(environment(args.workload, commands, args.seed,
                                                      bool(args.trace)), sort_keys=True))
        if args.trace:
            metrics, attempted, failed = traced(args.workload, commands, configs,
                                                args.seed, run_dir)
        else:
            metrics, attempted, failed = end_to_end(commands, configs, args.seed,
                                                    args.seconds, run_dir, deadline)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"failed_frac {failed / attempted:.6g} fraction ({failed} of {attempted} commands)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
