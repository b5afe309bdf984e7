"""Command-line front door: model ingestion, experiment orchestration,
deterministic seeding, and CSV/JSON emission.

Commands::

    qbp window-sweep    --config cfg.json [--seed N] [--out DIR] [--jobs N]
    qbp cumulant-decay  --config cfg.json ...
    qbp hastings-verify --config cfg.json ...
    qbp lemma-suite     --config cfg.json ...
    qbp markov-audit    --config cfg.json ...

Exit codes: 0 success, 2 config error, 3 dimension cap exceeded, 4 lemma
failure, 5 numerical limit (a computed operator too singular for its log, or
no longer a density).  Re-running a command with the same config and seed
reproduces byte-identical CSV output; floats are serialized with 17
significant digits.  No plotting happens in-process: the CSVs are the
interface.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
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
    NonDensityError,
    OperatorError,
    SingularOperatorError,
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
        return f"{stock['kind']}-{stock['factory']}-n{stock['n']}"


def _integer(name: str, x) -> int:
    """``x`` as an int: a JSON integer or integral number, not a bool or a fraction."""
    if isinstance(x, bool) or not (isinstance(x, int) or isinstance(x, float) and x.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _positive(name: str, x) -> float:
    """``x`` as a float: a finite JSON number above zero, not a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not 0 < x < math.inf:
        raise ConfigError(f"{name} must be a finite positive number, got {x!r}")
    return float(x)


def _reject_unknown(name: str, obj: dict, known) -> None:
    """Raise ConfigError, naming the known keys, if ``obj`` holds any other."""
    unknown = set(obj) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} keys {sorted(unknown)}; known: {sorted(known)}")


def _check_stock(stock) -> dict:
    """``stock`` with its defaults filled in, the spec that ``build_model`` and
    ``model_id`` read.  Raises ConfigError, or ModelError for the factory and
    its parameters, unless ``build_model`` builds it as written."""
    if not isinstance(stock, dict):
        raise ConfigError(f"model stock must be an object, got {stock!r}")
    _reject_unknown("model stock", stock, ["kind", "n", "local_dim", "factory", "params"])
    spec = {"kind": "chain", "local_dim": 2, "factory": "classical_ising", "params": {}} | stock
    if spec["kind"] != "chain":
        raise ConfigError(f"unknown stock model kind {spec['kind']!r}")
    if "n" not in spec:
        raise ConfigError("model stock needs 'n'")
    spec["n"] = _integer("n", spec["n"])
    spec["local_dim"] = _integer("local_dim", spec["local_dim"])
    if not isinstance(spec["params"], dict):
        raise ConfigError(f"model stock params must be an object, got {spec['params']!r}")
    stock_factory(spec["factory"], **spec["params"])
    return spec


def parse_config(raw: dict, seed_override=None, out_override=None, jobs_override=None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown("config", raw, [f.name for f in fields(ExperimentConfig)])
    model = raw.get("model")
    if not isinstance(model, dict) or set(model) not in ({"path"}, {"stock"}):
        raise ConfigError("config needs a 'model' with exactly one of 'path' or 'stock'")
    if not isinstance(model.get("path", ""), str):
        raise ConfigError(f"model path must be a string, got {model['path']!r}")
    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None:
        raise ConfigError("a master seed is required (config 'seed' or --seed)")
    s_steps = raw.get("s_steps", 64)
    if isinstance(s_steps, int):
        s_steps = [s_steps]
    constants = raw.get("bound_constants", {})
    if not isinstance(constants, dict):
        raise ConfigError(f"bound_constants must be an object, got {constants!r}")
    _reject_unknown("bound_constants", constants, [f.name for f in fields(BoundConstants)])
    jobs = jobs_override if jobs_override is not None else raw.get("jobs", 0)
    try:
        if "stock" in model:
            model = {"stock": _check_stock(model["stock"])}
        cfg = ExperimentConfig(
            model=model,
            beta_values=tuple(_positive("beta_values", b) for b in raw.get("beta_values", [])),
            ell_values=tuple(_integer("ell_values", x) for x in raw.get("ell_values", [])),
            bound_constants=DEFAULT_CONSTANTS | {k: _positive(k, v) for k, v in constants.items()},
            s_steps=tuple(_integer("s_steps", s) for s in s_steps),
            instances=_integer("instances", raw.get("instances", 500)),
            seed=_integer("seed", seed),
            out_dir=str(out_override if out_override is not None else raw.get("out_dir", ".")),
            jobs=_integer("jobs", jobs),
            target=None if raw.get("target") is None else _integer("target", raw["target"]),
            leaf=None if raw.get("leaf") is None else _integer("leaf", raw["leaf"]),
        )
    except (TypeError, OverflowError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    for field in ("beta_values", "ell_values", "s_steps"):
        values = getattr(cfg, field)
        if not all(x > 0 for x in values):
            raise ConfigError(f"{field} must be positive, got {list(values)}")
        if len(set(values)) < len(values):
            raise ConfigError(f"{field} must not repeat a value, got {list(values)}")
    if cfg.instances < 1:
        raise ConfigError(f"instances must be at least 1, got {cfg.instances}")
    if cfg.jobs < 0:
        raise ConfigError(f"jobs must be non-negative (0: one per core), got {cfg.jobs}")
    return cfg


def build_model(cfg: ExperimentConfig, beta: float) -> GraphModel:
    if "path" in cfg.model:
        with open(cfg.model["path"], "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        raw = dict(raw)
        raw["beta"] = beta
        return model_from_config(raw)
    stock = cfg.model["stock"]
    factory = stock_factory(stock["factory"], **stock["params"])
    return build_chain(stock["n"], stock["local_dim"], factory, beta)


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


def _blas_info() -> dict:
    """Name, version and thread count (None when not exposed) of numpy's BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        get = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            threads = get()
    return {"name": blas["name"], "version": blas["version"], "threads": threads}


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
        "blas": _blas_info(),
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
    return BoundConstants(**(base | {"cumulant_amp": amp, "cumulant_decay": decay})), amp, decay


# -- workers (top level so they pickle) -----------------------------------------
#
# Each takes (cfg, index, beta) and returns the rows of every output of its
# command, in the order ``COMMANDS`` lists the outputs.

#: The running command's model: set here for in-process points, else by the pool's initializer.
_command_model: GraphModel | None = None


def _share(model: GraphModel | None) -> None:
    global _command_model
    _command_model = model


def _window_sweep_point(args) -> tuple[list[list], list[list]]:
    cfg, _, beta = args
    model = _command_model.at(beta)
    first, last = chain_endpoints(model)
    target = cfg.target if cfg.target is not None else last
    leaf = cfg.leaf if cfg.leaf is not None else (first if target != first else last)
    n = len(model.vertices)
    sweep = window_error_sweep(model, target, cfg.ell_values)
    slope = math.nan if sweep.slope is None else sweep.slope
    sweep_rows = [
        [cfg.model_id, n, beta, ell, err, slope] for ell, err in sweep.entries
    ]
    consts, amp, decay = fitted_constants(model, leaf, cfg.bound_constants)
    step_rows = []
    for ell in cfg.ell_values:
        rec = single_step_experiment(model, leaf, ell, consts)
        b = rec.bound
        rhs = (b.total, b.bound1, b.bound2) if b else (math.nan,) * 3
        step_rows.append([cfg.model_id, beta, ell, rec.lhs_literal, rec.lhs_normalized, *rhs, amp, decay])
    return sweep_rows, step_rows


def _cumulant_point(args) -> tuple[list[list]]:
    cfg, _, beta = args
    model = _command_model.at(beta)
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
    model = _command_model.at(beta)
    csv_rows, json_rows = [], []
    entropies: dict = {}
    for ell in cfg.ell_values:
        for row in deficiency_rows(model, ell, entropies=entropies):
            subset = "+".join(str(s) for s in row.subset)
            csv_rows.append([cfg.model_id, beta, ell, subset, row.value, int(row.degenerate)])
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
    ``model`` says whether the worker reads the config's model.
    """

    worker: str
    required: tuple[str, ...]
    outputs: tuple[tuple[str, str | type], ...]
    per_beta: bool = True
    model: bool = True


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
    ), model=False),
    "lemma-suite": Command("_lemma_suite", (), (
        ("lemma_suite.csv", "check,count,min_margin,failures"),
        ("lemma_suite.json", dict),
    ), per_beta=False, model=False),
    "markov-audit": Command("_markov_point", ("beta_values", "ell_values"), (
        ("markov_audit.csv", "model_id,beta,ell,U,deficiency,degenerate"),
        ("markov_audit.json", list),
    )),
}


def run_command(name: str, cfg: ExperimentConfig, out_dir: Path, jobs: int) -> int:
    """Validate, run the worker over its points, and write every output.

    A model is built once before any worker starts; with several beta values its
    views share one store of spectra, filled with H's first for pool workers to inherit.
    Returns the exit code: 4 when the lemma suite records a failure, else 0.
    """
    command = COMMANDS[name]
    empty = [f for f in command.required if not getattr(cfg, f)]
    if empty:
        raise ConfigError(f"{name} needs non-empty {' and '.join(empty)}")
    worker = globals()[command.worker]
    betas = cfg.beta_values if command.per_beta else (None,)
    points = [(cfg, i, b) for i, b in enumerate(betas)]
    model = None
    if command.model:
        model = build_model(cfg, betas[0])
        if len(points) > 1:
            model = replace(model, spectra={})
            model._edge_spectrum(model.edges, model.layout)
    _share(model)
    try:
        if jobs <= 1 or len(points) <= 1:
            results = [worker(p) for p in points]
        else:
            with ProcessPoolExecutor(max_workers=min(jobs, len(points)),
                                     initializer=_share, initargs=(model,)) as pool:
                results = list(pool.map(worker, points))
    finally:
        _share(None)
    tables = [[row for part in parts for row in part] for parts in zip(*results)]
    for (filename, form), rows in zip(command.outputs, tables):
        if isinstance(form, str):
            write_csv(out_dir / filename, form.split(","), rows)
        else:
            (out_dir / filename).write_text(json.dumps(form(rows), indent=2) + "\n", encoding="utf-8")
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
    except (SingularOperatorError, NonDensityError) as exc:  # raised on computed operators only
        print(f"numerical limit: {exc}", file=sys.stderr)
        return 5
    except (OSError, json.JSONDecodeError, ConfigError, ModelError, OperatorError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outputs = [filename for filename, _ in COMMANDS[args.command].outputs]
    write_manifest(out_dir, args.command, raw, cfg, outputs, t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
