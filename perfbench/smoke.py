"""Smoke self-test of the benchmark.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` at the reduced ``smoke`` scale
(5- and 6-site chains, 50 lemma instances), with tracing off and on, through
the same code path as a full run.  Each run must exit 0, print every metric
``BENCHMARK.json`` names with its unit, and fail no command
(``failed_frac`` = 0).  Finally the benchmark must refuse to run, with a
non-zero exit and no result, in a directory without the qbp sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int, scale: str = "smoke") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--scale", scale],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_problems(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0
            and result.get("attempted", 0) >= 1):
        problems.append(f"failed_frac is not 0: {proc.stdout.strip()[-2000:]}")
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            problems.append(f"metric {name} missing")
        elif metric.get("unit") != unit or not math.isfinite(metric.get("value", math.nan)):
            problems.append(f"metric {name} = {metric}, expected unit {unit}")
    problems += [f"metric {name} not in BENCHMARK.json" for name in set(metrics) - set(expected)]
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = result_problems(run(ROOT, workload, trace), expected[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")

    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
        failures += not refused
        print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the qbp sources")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
