"""Write ``reference.json``: seed-commit values and roundoff spreads.

    python3 perfbench/reference.py

Runs ``window-sweep`` on the 9- and 5-site TFIM chains and ``markov-audit``
on the 9-site ``random2`` chain (seed 42), each with one and with two BLAS
threads.  The one-thread values become the references for ``sweep-tfim9``;
the difference between the two thread counts is the roundoff spread the
checks scale their tolerance from.  Regenerate only at a commit whose
outputs are trusted: the file exists to catch later changes.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import harness
import workloads

#: Only values this far above roundoff give a meaningful relative spread.
REL_SPREAD_MIN = 1e-3


def run(command: workloads.Command, threads: int, work: Path) -> Path:
    cfg = work / f"{command.name}-{threads}.json"
    cfg.write_text(json.dumps(command.config), encoding="utf-8")
    out = work / f"{command.name}-{threads}"
    env = dict(harness.child_env(), **{v: str(threads) for v in harness.PINNED_THREADS})
    subprocess.run(
        [sys.executable, "-m", "qbp.cli", command.name, "--config", str(cfg),
         "--out", str(out), "--jobs", "1"],
        env=env, cwd=work, check=True,
    )
    return out


def values(out: Path, name: str, columns: list[str]) -> list[list]:
    with open(out / name, newline="", encoding="utf-8") as fh:
        return [
            [float(r["beta"]), int(r["ell"])] + [float(r[c]) for c in columns]
            for r in csv.DictReader(fh)
        ]


def spread(one: list[list], two: list[list]) -> dict:
    pairs = [(a, b) for ra, rb in zip(one, two) for a, b in zip(ra[2:], rb[2:])]
    return {
        "abs": max(abs(a - b) for a, b in pairs),
        "rel": max(
            (abs(a - b) / abs(a) for a, b in pairs if abs(a) > REL_SPREAD_MIN), default=0.0
        ),
    }


def main() -> None:
    ref: dict = {"window-sweep": {}, "spread": {}}
    harness.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.WORK) as tmp:
        work = Path(tmp)
        for scale in ("full", "smoke"):
            (cmd,) = workloads.component("sweep-tfim9", 42, scale)
            n = cmd.config["model"]["stock"]["n"]
            outs = [run(cmd, t, work) for t in (1, 2)]
            errors = [values(o, "window_sweep.csv", ["trace_error"]) for o in outs]
            lhs = [values(o, "single_step.csv", ["lhs_literal", "lhs_normalized"]) for o in outs]
            ref["window-sweep"][f"n{n}"] = {"trace_error": errors[0], "lhs": lhs[0]}
            if scale == "full":
                ref["spread"]["window-sweep"] = spread(errors[0] + lhs[0], errors[1] + lhs[1])
        audit = workloads.component("audit-random", 42)[0]
        outs = [run(audit, t, work) for t in (1, 2)]
        with_subset = []
        for out in outs:
            with open(out / "markov_audit.csv", newline="", encoding="utf-8") as fh:
                with_subset.append([[0, 0, float(r["deficiency"])] for r in csv.DictReader(fh)])
        ref["spread"]["markov-audit"] = spread(*with_subset)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
