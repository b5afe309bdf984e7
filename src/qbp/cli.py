"""Command-line front door: model ingestion, experiment orchestration,
deterministic seeding, and CSV/JSON emission.

Commands::

    qbp window-sweep    --config cfg.json [--seed N] [--out DIR] [--jobs N]
    qbp cumulant-decay  --config cfg.json ...
    qbp hastings-verify --config cfg.json ...
    qbp lemma-suite     --config cfg.json ...
    qbp markov-audit    --config cfg.json ...

Exit codes: 0 success, 2 config error, 3 dimension cap exceeded, 4 lemma
failure.  Re-running a command with the same config and seed reproduces
byte-identical CSV output; floats are serialized with 17 significant digits.
No plotting happens in-process: the CSVs are the interface.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (
    BoundConstants,
    CumulantSeries,
    ThermalBoundFit,
    cumulants,
    fit_thermal_bound,
    single_step_experiment,
    thermal_potential,
)
from .hastings import conjugation_residual, hastings_operator
from .inequalities import run_suite
from .markov import deficiency_rows
from .models import (
    GraphModel,
    ModelError,
    build_chain,
    degrees,
    model_from_config,
    stock_factory,
)
from .operators import (
    DimensionCapError,
    OperatorError,
    SiteLayout,
    op_norm,
    random_hermitian,
)
from .propagation import window_error_sweep


class ConfigError(ValueError):
    """Malformed or incomplete experiment configuration."""


DEFAULT_CONSTANTS = {
    "trunc_rate": 1.0,
    "trunc_beta_scale": 1.0,
    "lr_amplitude": 1.0,
    "lr_decay": 1.0,
    "lr_velocity": 1.0,
}


@dataclass(frozen=True)
class ExperimentConfig:
    model: dict
    beta_values: tuple[float, ...]
    ell_values: tuple[int, ...]
    bound_constants: dict
    s_steps: tuple[int, ...]
    instances: int
    seed: int
    out_dir: str
    jobs: int
    target: int | None
    leaf: int | None

    @property
    def model_id(self) -> str:
        if "path" in self.model:
            return Path(self.model["path"]).stem
        stock = self.model["stock"]
        return f"{stock.get('kind', 'chain')}-{stock.get('factory', 'classical_ising')}-n{stock.get('n')}"


def parse_config(raw: dict, seed_override=None, out_override=None, jobs_override=None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    model = raw.get("model")
    if not isinstance(model, dict) or not ({"path", "stock"} & set(model)):
        raise ConfigError("config needs a 'model' with either 'path' or 'stock'")
    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None:
        raise ConfigError("a master seed is required (config 'seed' or --seed)")
    s_steps = raw.get("s_steps", 64)
    if isinstance(s_steps, int):
        s_steps = [s_steps]
    constants = dict(DEFAULT_CONSTANTS)
    constants.update(raw.get("bound_constants", {}))
    jobs = jobs_override if jobs_override is not None else raw.get("jobs", 0)
    try:
        cfg = ExperimentConfig(
            model=model,
            beta_values=tuple(float(b) for b in raw.get("beta_values", [])),
            ell_values=tuple(int(x) for x in raw.get("ell_values", [])),
            bound_constants=constants,
            s_steps=tuple(int(s) for s in s_steps),
            instances=int(raw.get("instances", 500)),
            seed=int(seed),
            out_dir=str(out_override if out_override is not None else raw.get("out_dir", ".")),
            jobs=int(jobs),
            target=raw.get("target"),
            leaf=raw.get("leaf"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    for field in ("beta_values", "ell_values", "s_steps"):
        values = getattr(cfg, field)
        if not all(x > 0 for x in values):
            raise ConfigError(f"{field} must be positive, got {list(values)}")
    return cfg


def build_model(cfg: ExperimentConfig, beta: float) -> GraphModel:
    if "path" in cfg.model:
        with open(cfg.model["path"], "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        raw = dict(raw)
        raw["beta"] = beta
        return model_from_config(raw)
    stock = cfg.model["stock"]
    kind = stock.get("kind", "chain")
    if kind != "chain":
        raise ConfigError(f"unknown stock model kind {kind!r}")
    factory = stock_factory(stock.get("factory", "classical_ising"), **stock.get("params", {}))
    return build_chain(
        int(stock["n"]), int(stock.get("local_dim", 2)), factory, beta
    )


def chain_endpoints(model: GraphModel) -> tuple[int, int]:
    ends = sorted(v for v, d in degrees(model).items() if d == 1)
    if len(ends) != 2:
        raise ConfigError("this experiment needs a chain model")
    return ends[0], ends[-1]


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_manifest(out_dir: Path, command: str, cfg_raw: dict, cfg: ExperimentConfig, outputs: list[str], t0: float) -> None:
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg_raw, sort_keys=True).encode()
        ).hexdigest(),
        "seed": cfg.seed,
        "versions": {
            "qbp": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": time.time() - t0,
        "outputs": outputs,
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _cumulant_fit(model: GraphModel, leaf: int) -> tuple[CumulantSeries, ThermalBoundFit]:
    """Cumulant shells of the thermal potential at ``leaf`` and their
    fitted envelope."""
    series = cumulants(thermal_potential(model, {leaf}), model, {leaf})
    return series, fit_thermal_bound(series)


def fitted_constants(model: GraphModel, leaf: int, base: dict) -> tuple[BoundConstants | None, float, float]:
    """Bound constants with the cumulant envelope fitted from the full
    Hamiltonian's thermal potential at the traced leaf (one fit per beta,
    used uniformly across radii)."""
    _, fit = _cumulant_fit(model, leaf)
    amp = float(base.get("cumulant_amp", fit.amplitude))
    decay = float(base.get("cumulant_decay", fit.decay))
    if math.isnan(amp) or math.isnan(decay) or amp <= 0 or decay <= 0:
        return None, amp, decay
    consts = BoundConstants(
        trunc_rate=base["trunc_rate"],
        trunc_beta_scale=base["trunc_beta_scale"],
        lr_amplitude=base["lr_amplitude"],
        lr_decay=base["lr_decay"],
        lr_velocity=base["lr_velocity"],
        cumulant_amp=amp,
        cumulant_decay=decay,
    )
    return consts, amp, decay


# -- workers (top level so they pickle) -----------------------------------------
#
# Each takes (cfg, index, beta) and returns the rows of every output of its
# command, in the order ``COMMANDS`` lists the outputs.

def _window_sweep_point(args) -> tuple[list[list], list[list]]:
    cfg, _, beta = args
    model = build_model(cfg, beta)
    first, last = chain_endpoints(model)
    target = cfg.target if cfg.target is not None else last
    leaf = cfg.leaf if cfg.leaf is not None else (first if target != first else last)
    n = len(model.vertices)
    ells = [e for e in cfg.ell_values if 1 <= e <= n - 1]
    sweep = window_error_sweep(model, target, ells)
    slope = math.nan if sweep.slope is None else sweep.slope
    sweep_rows = [
        [cfg.model_id, n, beta, ell, err, slope] for ell, err in sweep.entries
    ]
    consts, amp, decay = fitted_constants(model, leaf, cfg.bound_constants)
    step_rows = []
    for ell in ells:
        rec = single_step_experiment(model, leaf, ell, consts)
        bound = rec.bound
        step_rows.append(
            [
                cfg.model_id,
                beta,
                ell,
                rec.lhs_literal,
                rec.lhs_normalized,
                bound.total if bound else math.nan,
                bound.bound1 if bound else math.nan,
                bound.bound2 if bound else math.nan,
                amp,
                decay,
            ]
        )
    return sweep_rows, step_rows


def _cumulant_point(args) -> tuple[list[list]]:
    cfg, _, beta = args
    model = build_model(cfg, beta)
    first, _ = chain_endpoints(model)
    leaf = cfg.leaf if cfg.leaf is not None else first
    series, fit = _cumulant_fit(model, leaf)
    rows = [
        [cfg.model_id, beta, j, norm, fit.amplitude, fit.decay]
        for j, norm in series.norms()
    ]
    return (rows,)


def _hastings_point(args) -> tuple[list[list]]:
    cfg, index, beta = args
    layout = SiteLayout((1, 2), (2, 2))
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index,))
    rng = np.random.default_rng(ss)
    h = random_hermitian(rng, layout)
    v = random_hermitian(rng, layout)
    rows = []
    for s_steps in cfg.s_steps:
        o = hastings_operator(h, v, beta, s_steps)
        rows.append(
            [
                "random2q",
                beta,
                s_steps,
                conjugation_residual(h, v, beta, o),
                op_norm(o),
                math.exp(beta * op_norm(v) / 2.0),
            ]
        )
    return (rows,)


def _markov_point(args) -> tuple[list[list], list[dict]]:
    cfg, _, beta = args
    model = build_model(cfg, beta)
    csv_rows, json_rows = [], []
    for ell in cfg.ell_values:
        for row in deficiency_rows(model, ell):
            csv_rows.append(
                [
                    cfg.model_id,
                    beta,
                    ell,
                    "+".join(str(s) for s in row.subset),
                    row.value,
                    int(row.degenerate),
                ]
            )
            json_rows.append({"beta": beta, **row.as_json()})
    return csv_rows, json_rows


def _lemma_suite(args) -> tuple[list[list], list[tuple[str, dict]]]:
    cfg, _, _ = args
    summaries = run_suite(cfg.seed, cfg.instances)
    rows = [
        [name, s.count, s.min_margin, s.failures] for name, s in summaries.items()
    ]
    # The JSON report lists checks, and each check's fields, by sorted key.
    by_check = [
        (name, dict(sorted(summaries[name].as_json().items())))
        for name in sorted(summaries)
    ]
    return rows, by_check


# -- commands --------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    """One CLI command.

    ``worker`` names the worker in this module; it runs once per beta, or
    once in all when ``per_beta`` is false.  It is looked up when the
    command runs, so a wrapper or patch applied to the module attribute
    sees every call.  ``required`` lists the config fields that must be
    non-empty.  Each output pairs a file name with either its CSV header
    line or the JSON document type (``list`` or ``dict``) its rows form.
    """

    worker: str
    required: tuple[str, ...]
    outputs: tuple[tuple[str, str | type], ...]
    per_beta: bool = True


COMMANDS = {
    "window-sweep": Command("_window_sweep_point", ("beta_values", "ell_values"), (
        ("window_sweep.csv", "model_id,N,beta,ell,trace_error,slope"),
        ("single_step.csv", "model_id,beta,ell,lhs_literal,lhs_normalized,"
                            "rhs_total,rhs_bound1,rhs_bound2,K_fit,k_fit"),
    )),
    "cumulant-decay": Command("_cumulant_point", ("beta_values",), (
        ("cumulant_decay.csv", "model_id,beta,j,norm,K,k"),
    )),
    "hastings-verify": Command("_hastings_point", ("beta_values", "s_steps"), (
        ("hastings_verify.csv", "model_id,beta,s_steps,residual,o_norm,o_norm_cap"),
    )),
    "lemma-suite": Command("_lemma_suite", (), (
        ("lemma_suite.csv", "check,count,min_margin,failures"),
        ("lemma_suite.json", dict),
    ), per_beta=False),
    "markov-audit": Command("_markov_point", ("beta_values", "ell_values"), (
        ("markov_audit.csv", "model_id,beta,ell,U,deficiency,degenerate"),
        ("markov_audit.json", list),
    )),
}


def run_command(name: str, cfg: ExperimentConfig, out_dir: Path, jobs: int) -> int:
    """Validate, run the worker over its points, and write every output.

    Returns the exit code: 4 when the lemma suite records a failure, else 0.
    """
    command = COMMANDS[name]
    empty = [f for f in command.required if not getattr(cfg, f)]
    if empty:
        raise ConfigError(f"{name} needs non-empty {' and '.join(empty)}")
    worker = globals()[command.worker]
    betas = cfg.beta_values if command.per_beta else (None,)
    points = [(cfg, i, b) for i, b in enumerate(betas)]
    if jobs <= 1 or len(points) <= 1:
        results = [worker(p) for p in points]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
            results = list(pool.map(worker, points))
    tables = [[row for part in parts for row in part] for parts in zip(*results)]
    for (filename, form), rows in zip(command.outputs, tables):
        if isinstance(form, str):
            write_csv(out_dir / filename, form.split(","), rows)
        else:
            (out_dir / filename).write_text(
                json.dumps(form(rows), indent=2) + "\n", encoding="utf-8"
            )
    if name == "lemma-suite" and any(failures for *_, failures in tables[0]):
        return 4
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbp",
        description="Experiment harness for message passing on tree thermal states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--jobs", type=int, default=None, help="worker pool size")
    args = parser.parse_args(argv)

    t0 = time.time()
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        cfg = parse_config(raw, args.seed, args.out, args.jobs)
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        jobs = cfg.jobs if cfg.jobs > 0 else (os.cpu_count() or 1)
        code = run_command(args.command, cfg, out_dir, jobs)
    except DimensionCapError as exc:
        print(f"dimension cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, ConfigError, ModelError, OperatorError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outputs = [filename for filename, _ in COMMANDS[args.command].outputs]
    write_manifest(out_dir, args.command, raw, cfg, outputs, t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
