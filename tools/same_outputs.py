"""Check that two checkouts of qbp write byte-identical outputs.

Runs the five CLI commands on the full-scale configs of
``perfbench/workloads.py`` (imported from this checkout, never written), and
``markov-audit`` on a star-shaped model file with a degree-3 vertex, once
from each tree's ``src`` for every seed and ``--jobs`` value, with one BLAS
thread.  Every CSV and JSON a run writes is compared byte for byte, except
that ``run_manifest.json`` is compared without its ``wall_time_s`` and
``peak_rss_mb``, a timing and a memory reading.
Prints each file that differs and each command that fails, and exits 1 if
there is any.  For a file that differs it prints, for each CSV column or JSON
key path (list indices dropped) whose numbers moved, the largest absolute and
the largest relative move with their old and new values, and the name of every
other field that differs (a JSON key path, or a CSV line and column)::

    python tools/same_outputs.py OLD NEW [--seeds 42 7919] [--jobs 1 2]
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))


def star_model(seed: int) -> dict:
    """Centre 2 with transverse-field Ising arms to 1, 3 and 4, and a random arm 4-5."""
    tfim = {"factory": "tfim", "params": {"J": 1.0, "hx": 1.0}}
    edges = [{"u": 2, "v": k, "term": tfim} for k in (1, 3, 4)]
    edges.append({"u": 4, "v": 5, "term": {"factory": "random2", "params": {"seed": seed}}})
    return {"vertices": [{"id": k, "dim": 2} for k in range(1, 6)], "edges": edges, "beta": 1.0}


def commands(seed: int, work: Path) -> list[tuple[str, Path]]:
    """(command, config file) for every run at ``seed``, the configs written to ``work``.
    ``workloads`` is imported here, not with this module, since importing it pins
    the BLAS thread count in this process's environment."""
    import workloads
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
        data.pop("peak_rss_mb", None)  # absent from manifests written before the field
    return data


def same(a: Path, b: Path) -> bool:
    if a.name != "run_manifest.json":
        return filecmp.cmp(a, b, shallow=False)
    return load_json(a) == load_json(b)


#: Stands for a field that one of two files lacks.
MISSING = object()


def fields(path: Path) -> dict:
    """Every field of a CSV or JSON file, keyed by (column, name): a CSV field
    by its column and its line and column, a JSON field by its key path without
    and with list indices.  A number as a float, anything else as it is."""
    if path.suffix == ".csv":
        with path.open(newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        names = rows[0] if rows else []
        columns = [names[j] if j < len(names) else str(j + 1) for j in range(max(map(len, rows), default=0))]
        return {(columns[j], f"line {i + 1} column {columns[j]}"): number(cell)
                for i, row in enumerate(rows) for j, cell in enumerate(row)}
    found, todo = {}, [("", load_json(path))]
    while todo:
        key, x = todo.pop()
        if isinstance(x, dict):
            todo += [(f"{key}.{k}" if key else str(k), v) for k, v in x.items()]
        elif isinstance(x, list):
            todo += [(f"{key}[{k}]", v) for k, v in enumerate(x)]
        else:
            value = float(x) if isinstance(x, (int, float)) and not isinstance(x, bool) else x
            found[(re.sub(r"\[\d+\]", "", key), key)] = value
    return found


def number(cell: str):
    """A CSV cell as a float, or as it is if it is not a number."""
    try:
        return float(cell)
    except ValueError:
        return cell


def largest_difference(a: Path, b: Path) -> str:
    """For each column whose numbers moved, over the fields both files have,
    its largest absolute and its largest relative move (relative to the larger
    magnitude), each with its old and new value.  Every other field that
    differs, or that only one file has, is named."""
    old, new = fields(a), fields(b)
    moves, unshared, named = {}, 0, []
    for key in [*old, *(k for k in new if k not in old)]:
        x, y = old.get(key, MISSING), new.get(key, MISSING)
        if isinstance(x, float) and isinstance(y, float):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            diff = abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
            relative = diff / max(abs(x), abs(y)) if math.isfinite(diff) else math.inf
            moves.setdefault(key[0], []).append((diff, relative, x, y))
        elif MISSING in (x, y) and isinstance(y if x is MISSING else x, float):
            unshared += 1
        elif x != y:
            named.append(key[1])
    parts = []
    for column, moved in moves.items():
        (d, _, dx, dy), (_, r, rx, ry) = max(moved, key=lambda m: m[0]), max(moved, key=lambda m: m[1])
        parts.append(f"{column} {d:.3g} absolute ({dx!r} -> {dy!r}), {r:.3g} relative ({rx!r} -> {ry!r})")
    report = f"largest moves: {'; '.join(parts)}" if parts else "no number moved"
    if unshared:
        report += f", {unshared} numeric field(s) in only one"
    if named:
        more = f" and {len(named) - 5} more" if len(named) > 5 else ""
        report += f"; other fields differ: {', '.join(named[:5])}{more}"
    return report


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
