"""Benchmark workloads: the qbp CLI commands each one runs, the configs they
read, and the checks applied to their outputs.

Commands come in three components, ``sweep-tfim9``, ``audit-random`` and
``small-ops``; a workload runs one or more of them in turn (``WORKLOADS``).
Configs depend only on the workload seed, which feeds the CLI ``--seed`` and
the ``random2`` model's ``params.seed``.  The ``smoke`` scale runs the same
commands on smaller chains so the harness itself can be tested quickly.

Checks compare against oracle invariants rather than frozen bytes.  Values
well above roundoff (``> ROUNDOFF``) must match a reference within a
tolerance derived from the spread between one and two BLAS threads at the
seed commit (see ``reference.json``): the window-sweep errors match values
recorded at the seed commit, and the markov-audit deficiencies match the
brute-force recomputation in ``oracle.py``, which reproduces the seed
commit's values to 3.3e-15 at seed 42.  The fitted constants ``K_fit``,
``k_fit``, ``K``, ``k`` and the ``rhs_*`` columns move with roundoff and are
not compared.
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import harness

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: Values at or below this are roundoff-dominated and only bounded, not matched.
ROUNDOFF = 1e-8
#: The full window reproduces the exact state; the seed commit gives <= 4e-15.
FULL_WINDOW_MAX = 1e-12
#: ``qbp.markov.CMI_CLAMP`` at the seed commit: smaller deficiencies are errors.
CMI_CLAMP = -1e-8
#: Reference tolerance = this factor times the measured 1-vs-2 thread spread.
SPREAD_FACTOR = 1000.0

SCALES = {
    "full": {"sweep_n": 9, "markov_n": 9, "cumulant_n": 10, "instances": 2000,
             "s_steps": [64, 256, 1024]},
    "smoke": {"sweep_n": 5, "markov_n": 5, "cumulant_n": 6, "instances": 50,
              "s_steps": [16, 64]},
}

#: Commands that build a model for each beta before any sweep point runs.
BUILDS_MODEL = frozenset({"window-sweep", "cumulant-decay", "markov-audit"})


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``qbp <name> --config <config> --jobs <jobs>``."""

    name: str
    config: dict
    jobs: int
    #: Hilbert-space dimension of the command's model, if it builds one.
    full_dim: int | None
    #: Returns the problems found in the output directory (empty if fine).
    check: Callable[[Path], list[str]]


def _chain(n: int, factory: str, params: dict) -> dict:
    return {"stock": {"kind": "chain", "n": n, "local_dim": 2,
                      "factory": factory, "params": params}}


def _markov_oracle(n: int, seed: int, betas: list, ells: list) -> dict:
    """(beta, radius, "u+v") -> (deficiency, degenerate), from ``oracle.py``."""
    argv = [sys.executable, str(HERE / "oracle.py"), str(n), str(seed),
            ",".join(map(str, betas)), ",".join(map(str, ells))]
    result = subprocess.run(argv, env=harness.child_env(), capture_output=True,
                            text=True, timeout=120, check=True)
    return {(b, r, u): (value, degenerate) for b, r, u, value, degenerate in json.loads(result.stdout)}


def _reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _tolerance(spread: dict, ref: float) -> float:
    return SPREAD_FACTOR * (spread["abs"] + spread["rel"] * abs(ref))


def _match(label: str, value: float, ref: float, spread: dict) -> list[str]:
    if ref > ROUNDOFF:
        if not abs(value - ref) <= _tolerance(spread, ref):
            return [f"{label}: {value!r} differs from reference {ref!r}"]
    elif not abs(value) <= ROUNDOFF:
        return [f"{label}: {value!r} left roundoff (reference {ref!r})"]
    return []


def _count(name: str, rows: list, expected: int) -> list[str]:
    if len(rows) != expected:
        return [f"{name}: {len(rows)} rows, expected {expected}"]
    return []


def _check_window_sweep(n: int, betas: list, ells: list) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        reference = _reference()
        spread = reference["spread"]["window-sweep"]
        ref = reference["window-sweep"][f"n{n}"]
        errors_ref = {(b, e): v for b, e, v in ref["trace_error"]}
        lhs_ref = {(b, e): (lit, nrm) for b, e, lit, nrm in ref["lhs"]}
        sweep = _rows(out / "window_sweep.csv")
        steps = _rows(out / "single_step.csv")
        problems = _count("window_sweep.csv", sweep, len(betas) * len(ells))
        problems += _count("single_step.csv", steps, len(betas) * len(ells))
        for row in sweep:
            key = (float(row["beta"]), int(row["ell"]))
            err = float(row["trace_error"])
            if key[1] == n - 1 and not err <= FULL_WINDOW_MAX:
                problems.append(f"full-window trace_error {err!r} at beta={key[0]}")
            problems += _match(f"trace_error{key}", err, errors_ref[key], spread)
        for row in steps:
            key = (float(row["beta"]), int(row["ell"]))
            for col, ref_value in zip(("lhs_literal", "lhs_normalized"), lhs_ref[key]):
                problems += _match(f"{col}{key}", float(row[col]), ref_value, spread)
        return problems

    return check


def _check_markov_audit(n: int, seed: int, betas: list, ells: list) -> Callable[[Path], list[str]]:
    expected: dict = {}

    def check(out: Path) -> list[str]:
        if not expected:  # computed on first use, outside any timed region
            expected.update(_markov_oracle(n, seed, betas, ells))
        spread = _reference()["spread"]["markov-audit"]
        rows = _rows(out / "markov_audit.csv")
        problems = _count("markov_audit.csv", rows, len(expected))
        for row in rows:
            key = (float(row["beta"]), int(row["ell"]), row["U"])
            value = float(row["deficiency"])
            if not value >= CMI_CLAMP:
                problems.append(f"deficiency{key} = {value!r} below {CMI_CLAMP}")
            if key not in expected:
                problems.append(f"unexpected subset row {key}")
                continue
            ref, degenerate = expected[key]
            if int(row["degenerate"]) != int(degenerate):
                problems.append(f"degenerate flag of {key} differs from the oracle")
            if not abs(value - ref) <= _tolerance(spread, ref):
                problems.append(f"deficiency{key} = {value!r}, oracle {ref!r}")
        return problems

    return check


def _check_cumulant_decay(n: int, betas: list) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        rows = _rows(out / "cumulant_decay.csv")
        problems = _count("cumulant_decay.csv", rows, len(betas) * (n - 1))
        for row in rows:
            norm = float(row["norm"])
            if not (math.isfinite(norm) and norm >= 0.0):
                problems.append(f"cumulant norm {norm!r} at beta={row['beta']} j={row['j']}")
        return problems

    return check


def _check_lemma_suite(instances: int) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        rows = _rows(out / "lemma_suite.csv")
        problems = _count("lemma_suite.csv", rows, 8)
        for row in rows:
            if int(row["count"]) != instances or int(row["failures"]) != 0:
                problems.append(f"lemma {row['check']}: {row['failures']} failures "
                                f"in {row['count']} instances")
            if not math.isfinite(float(row["min_margin"])):
                problems.append(f"lemma {row['check']}: min_margin {row['min_margin']}")
        return problems

    return check


def _check_hastings_verify(betas: list, s_steps: list) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        rows = _rows(out / "hastings_verify.csv")
        problems = _count("hastings_verify.csv", rows, len(betas) * len(s_steps))
        by_beta: dict[float, list] = {}
        for row in rows:
            residual, o_norm, cap = (float(row[c]) for c in ("residual", "o_norm", "o_norm_cap"))
            if not all(map(math.isfinite, (residual, o_norm, cap))) or not o_norm <= cap:
                problems.append(f"hastings row {row}: o_norm above cap or not finite")
            by_beta.setdefault(float(row["beta"]), []).append((int(row["s_steps"]), residual))
        for beta, points in by_beta.items():
            residuals = [r for _, r in sorted(points)]
            if any(b >= a for a, b in zip(residuals, residuals[1:])):
                problems.append(f"hastings residual does not fall with s_steps at beta={beta}")
        return problems

    return check


def component(name: str, seed: int, scale: str = "full") -> list[Command]:
    """The CLI commands of one of ``COMPONENTS``, in the order they run."""
    size = SCALES[scale]
    if name == "sweep-tfim9":
        n, betas = size["sweep_n"], [0.5, 1.0]
        ells = list(range(1, n))
        cfg = {"model": _chain(n, "tfim", {"J": 1.0, "hx": 1.0}),
               "beta_values": betas, "ell_values": ells, "seed": seed}
        return [Command("window-sweep", cfg, 1, 2**n, _check_window_sweep(n, betas, ells))]
    if name == "audit-random":
        n, m, betas, ells = size["markov_n"], size["cumulant_n"], [0.5, 1.0], [1, 2]
        audit = {"model": _chain(n, "random2", {"seed": seed}),
                 "beta_values": betas, "ell_values": ells, "seed": seed}
        decay = {"model": _chain(m, "random2", {"seed": seed}),
                 "beta_values": betas, "seed": seed}
        return [
            Command("markov-audit", audit, 2, 2**n, _check_markov_audit(n, seed, betas, ells)),
            Command("cumulant-decay", decay, 2, 2**m, _check_cumulant_decay(m, betas)),
        ]
    if name == "small-ops":
        # lemma-suite and hastings-verify ignore the model; parse_config needs one.
        unused = _chain(2, "tfim", {"J": 1.0, "hx": 1.0})
        betas, s_steps = [0.5, 1.0, 2.0, 4.0], size["s_steps"]
        lemma = {"model": unused, "instances": size["instances"], "seed": seed}
        hastings = {"model": unused, "beta_values": betas, "s_steps": s_steps, "seed": seed}
        return [
            Command("lemma-suite", lemma, 1, None, _check_lemma_suite(size["instances"])),
            Command("hastings-verify", hastings, 1, None, _check_hastings_verify(betas, s_steps)),
        ]
    raise KeyError(f"unknown component {name!r}")


COMPONENTS = ("sweep-tfim9", "audit-random", "small-ops")

#: The benchmark's workloads and the components each runs in turn.  Two
#: workloads leave each run a minute of measuring; the Python-bound
#: small-ops commands vary too much from run to run on a shared host to be
#: measured alone in the 36 s that three workloads would leave.
WORKLOADS = {
    "sweep-tfim9": ("sweep-tfim9",),
    "audit-random.small-ops": ("audit-random", "small-ops"),
}


def commands(workload: str, seed: int, scale: str = "full") -> list[Command]:
    """The CLI commands of ``workload``, in the order they run."""
    return [c for name in WORKLOADS[workload] for c in component(name, seed, scale)]
