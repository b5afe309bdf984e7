"""Check that two checkouts of qbp write byte-identical outputs.

Runs the five CLI commands on the full-scale configs of
``perfbench/workloads.py`` (imported from this checkout, never written), and
``markov-audit`` on a star-shaped model file with a degree-3 vertex, once
from each tree's ``src`` for every seed and ``--jobs`` value, with one BLAS
thread.  Every CSV and JSON a run writes is compared byte for byte, except
that ``run_manifest.json`` is compared without its ``wall_time_s``, a timing.
Prints each file that differs, with the largest absolute and relative
difference over the numeric fields the two files share, and each command that
fails, and exits 1 if there is any::

    python tools/same_outputs.py OLD NEW [--seeds 42 7919] [--jobs 1 2]
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def star_model(seed: int) -> dict:
    """Centre 2 with transverse-field Ising arms to 1, 3 and 4, and a random arm 4-5."""
    tfim = {"factory": "tfim", "params": {"J": 1.0, "hx": 1.0}}
    edges = [{"u": 2, "v": k, "term": tfim} for k in (1, 3, 4)]
    edges.append({"u": 4, "v": 5, "term": {"factory": "random2", "params": {"seed": seed}}})
    return {"vertices": [{"id": k, "dim": 2} for k in range(1, 6)], "edges": edges, "beta": 1.0}


def commands(seed: int, work: Path) -> list[tuple[str, Path]]:
    """(command, config file) for every run at ``seed``, the configs written to ``work``."""
    runs = [(c.name, c.config) for name in workloads.COMPONENTS for c in workloads.component(name, seed)]
    star = work / f"star-{seed}.json"
    star.write_text(json.dumps(star_model(seed)), encoding="utf-8")
    runs.append(("markov-audit", {"model": {"path": str(star)}, "beta_values": [0.5, 1.0],
                                  "ell_values": [1, 2], "seed": seed}))
    paths = []
    for i, (name, config) in enumerate(runs):
        path = work / f"{seed}-{i}-{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        paths.append((name, path))
    return paths


def run(tree: Path, name: str, config: Path, seed: int, jobs: int, out: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "qbp.cli", name, "--config", str(config), "--seed", str(seed),
            "--out", str(out), "--jobs", str(jobs)]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=900)


def load_json(path: Path):
    data = json.loads(path.read_text(encoding="utf-8"))
    if path.name == "run_manifest.json":
        data.pop("wall_time_s")
    return data


def same(a: Path, b: Path) -> bool:
    if a.name != "run_manifest.json":
        return filecmp.cmp(a, b, shallow=False)
    return load_json(a) == load_json(b)


def numeric_fields(path: Path) -> dict:
    """Every number in a CSV (keyed by row and column) or JSON file (by key path)."""
    if path.suffix == ".csv":
        found = {}
        with path.open(newline="", encoding="utf-8") as f:
            for i, row in enumerate(csv.reader(f)):
                for j, cell in enumerate(row):
                    try:
                        found[i, j] = float(cell)
                    except ValueError:
                        pass
        return found
    found, todo = {}, [((), load_json(path))]
    while todo:
        key, x = todo.pop()
        if isinstance(x, dict):
            todo += [(key + (k,), v) for k, v in x.items()]
        elif isinstance(x, list):
            todo += [(key + (k,), v) for k, v in enumerate(x)]
        elif isinstance(x, (int, float)) and not isinstance(x, bool):
            found[key] = float(x)
    return found


def largest_difference(a: Path, b: Path) -> str:
    """The largest absolute and relative difference between the numbers of two
    files, over the fields both have; relative to the larger magnitude."""
    old, new = numeric_fields(a), numeric_fields(b)
    worst_abs = worst_rel = 0.0
    for key in old.keys() & new.keys():
        x, y = old[key], new[key]
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        diff = abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / max(abs(x), abs(y)))
    unshared = len(old.keys() ^ new.keys())
    tail = f", {unshared} numeric field(s) in only one" if unshared else ""
    return f"largest difference {worst_abs:.3g} absolute, {worst_rel:.3g} relative{tail}"


def compare(old: Path, new: Path) -> list[str]:
    """The output files of two runs that differ or exist in only one."""
    names = {p.name for d in (old, new) for p in d.iterdir() if p.suffix in (".csv", ".json")}
    return [n for n in sorted(names)
            if not ((old / n).exists() and (new / n).exists() and same(old / n, new / n))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[42, 7919])
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    problems = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp)
        for seed in args.seeds:
            for name, config in commands(seed, work):
                for jobs in args.jobs:
                    label = f"{config.stem} --jobs {jobs}"
                    outs = {side: work / side / f"{config.stem}-j{jobs}" for side in trees}
                    failed = False
                    for side, tree in trees.items():
                        result = run(tree, name, config, seed, jobs, outs[side])
                        if result.returncode:
                            print(f"{label}: {side} exited {result.returncode}: {result.stderr.strip()}")
                            failed = True
                    differ = [] if failed else compare(outs["old"], outs["new"])
                    for n in differ:
                        both = (outs["old"] / n).exists() and (outs["new"] / n).exists()
                        size = f" ({largest_difference(outs['old'] / n, outs['new'] / n)})" if both else ""
                        print(f"{label}: {n} differs{size}")
                    problems += failed + len(differ)
                    if not failed and not differ:
                        print(f"{label}: same")
    print(f"{problems} difference(s)" if problems else "all outputs identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
