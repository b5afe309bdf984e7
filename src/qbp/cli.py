"""Command-line front door: model ingestion, experiment orchestration,
deterministic seeding, and CSV emission.

Commands::

    qbp window-sweep    --config cfg.json [--seed N] [--out DIR] [--jobs N]
    qbp cumulant-decay  --config cfg.json ...
    qbp hastings-verify --config cfg.json ...
    qbp lemma-suite     --config cfg.json ...
    qbp markov-audit    --config cfg.json ...

Exit codes: 0 success, 2 config error, 3 dimension cap exceeded, 4 lemma
failure, 5 numerical limit (a computed operator too singular for its log or
no longer a density, or an exponential beyond the float range).  Re-running a
command with the same config and seed reproduces byte-identical CSV output;
floats are serialized with 17 significant digits.  No plotting happens
in-process: the CSVs are the interface.  A config's values follow the input
rules of ``operators``, as ConfigError; each list field reads a lone value as
a list of one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
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
from .models import GraphModel, ModelError, build_chain, degrees, load_model, log_partition_function, stock_factory
from .operators import (
    DimensionCapError,
    DynamicRangeError,
    NonDensityError,
    OperatorError,
    SingularOperatorError,
    SiteLayout,
    _as_integer,
    _as_positive,
    _blas_threads,
    _lapack,
    _require_known,
    op_norm,
    random_hermitian,
)
from .propagation import chain_ends, window_error_sweep

# hashlib maps OpenSSL's libcrypto (3.5 MB resident) for one digest of the
# config; CPython's own SHA-256 module gives the same digest.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


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
    model: dict  # {} when the config gives none
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


def _check_stock(stock) -> dict:
    """``stock`` with its defaults filled in, the spec that ``build_model`` and
    ``model_id`` read.  Raises ConfigError or OperatorError, or ModelError for
    the factory and its parameters, unless ``build_model`` builds it as written."""
    if not isinstance(stock, dict):
        raise ConfigError(f"model stock must be an object, got {stock!r}")
    _require_known("model stock", stock, ["kind", "n", "local_dim", "factory", "params"])
    spec = {"kind": "chain", "local_dim": 2, "factory": "classical_ising", "params": {}} | stock
    if spec["kind"] != "chain":
        raise ConfigError(f"unknown stock model kind {spec['kind']!r}")
    if "n" not in spec:
        raise ConfigError("model stock needs 'n'")
    spec["n"] = _as_integer("n", spec["n"])
    spec["local_dim"] = _as_integer("local_dim", spec["local_dim"])
    if not isinstance(spec["params"], dict):
        raise ConfigError(f"model stock params must be an object, got {spec['params']!r}")
    stock_factory(spec["factory"], **spec["params"])
    return spec


def parse_config(raw: dict, seed_override=None, out_override=None, jobs_override=None) -> ExperimentConfig:
    def listed(field, rule, *least, default=()):  # a lone value is a list of one; a tuple is a list
        values = raw.get(field, default)
        found = tuple(rule(field, x, *least) for x in (values if isinstance(values, (list, tuple)) else [values]))
        if len(set(found)) < len(found):
            raise ConfigError(f"{field} must not repeat a value, got {list(found)}")
        return found

    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    try:
        _require_known("config", raw, [f.name for f in fields(ExperimentConfig)])
        model = raw.get("model", {})
        if "model" in raw and (not isinstance(model, dict) or set(model) not in ({"path"}, {"stock"})):
            raise ConfigError("config needs a 'model' with exactly one of 'path' or 'stock'")
        for name, value in (("model path", model.get("path", "")), ("out_dir", raw.get("out_dir", ""))):
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        seed = seed_override if seed_override is not None else raw.get("seed")
        if seed is None:
            raise ConfigError("a master seed is required (config 'seed' or --seed)")
        constants = raw.get("bound_constants", {})
        if not isinstance(constants, dict):
            raise ConfigError(f"bound_constants must be an object, got {constants!r}")
        _require_known("bound_constants", constants, [f.name for f in fields(BoundConstants)])
        jobs = jobs_override if jobs_override is not None else raw.get("jobs", 1)
        if "stock" in model:
            model = {"stock": _check_stock(model["stock"])}
        cfg = ExperimentConfig(
            model=model,
            beta_values=listed("beta_values", _as_positive),
            ell_values=listed("ell_values", _as_integer, 1),
            bound_constants=DEFAULT_CONSTANTS | {k: _as_positive(k, v) for k, v in constants.items()},
            s_steps=listed("s_steps", _as_integer, 1, default=(64,)),
            instances=_as_integer("instances", raw.get("instances", 500), 1),
            seed=_as_integer("seed", seed, 0),
            out_dir=str(out_override if out_override is not None else raw.get("out_dir", ".")),
            jobs=_as_integer("jobs", jobs, 0),  # 0: one per core
            target=None if raw.get("target") is None else _as_integer("target", raw["target"]),
            leaf=None if raw.get("leaf") is None else _as_integer("leaf", raw["leaf"]),
        )
    except OperatorError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def build_model(cfg: ExperimentConfig, beta: float) -> GraphModel:
    if "path" in cfg.model:
        return load_model(cfg.model["path"]).at(beta)
    stock = cfg.model["stock"]
    factory = stock_factory(stock["factory"], **stock["params"])
    return build_chain(stock["n"], stock["local_dim"], factory, beta)


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _blas_info() -> dict:
    """Name, version and thread count (None when not exposed) of numpy's BLAS,
    and the routine behind complex eigendecompositions from ``ZHEEVD_MIN_DIM``."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "name": blas["name"],
        "version": blas["version"],
        "threads": _blas_threads(),
        "complex_eigh": "numpy" if _lapack() is None else "zheevd-staged",
    }


def _peak_rss_mb() -> float:
    """The larger peak resident set of this process and of its reaped children
    (the pool workers), in MiB; ``ru_maxrss`` counts KiB on Linux, bytes on macOS."""
    peak = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak / (2.0**20 if sys.platform == "darwin" else 2.0**10)


def write_manifest(out_dir: Path, command: str, cfg_raw: dict, cfg: ExperimentConfig, outputs: list[str],
                   jobs: int, t0: float) -> None:
    manifest = {
        "command": command,
        "config_sha256": sha256(json.dumps(cfg_raw, sort_keys=True).encode()).hexdigest(),
        "seed": cfg.seed,
        "versions": {
            "qbp": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "blas": _blas_info(),
        "jobs": jobs,
        "wall_time_s": time.perf_counter() - t0,
        "peak_rss_mb": _peak_rss_mb(),
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
    used uniformly across radii); None in their place when ``BoundConstants``
    rejects the fitted pair, so that run writes no bound."""
    _, fit = _cumulant_fit(model, leaf)
    amp = float(base.get("cumulant_amp", fit.amplitude))
    decay = float(base.get("cumulant_decay", fit.decay))
    try:
        return BoundConstants(**(base | {"cumulant_amp": amp, "cumulant_decay": decay})), amp, decay
    except OperatorError:
        return None, amp, decay


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
    first, last = chain_ends(model)
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
    # The smallest leaf, a chain's first end (a lone vertex, of degree 0, is refused by thermal_potential).
    leaf = cfg.leaf if cfg.leaf is not None else min(v for v, d in degrees(model).items() if d <= 1)
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


def _markov_point(args) -> tuple[list[list]]:
    cfg, _, beta = args
    rows = deficiency_rows(_command_model.at(beta), *cfg.ell_values)
    return ([[cfg.model_id, beta, row.radius, "+".join(map(str, row.subset)), row.value, int(row.degenerate)]
             for row in rows],)


def _lemma_suite(args) -> tuple[list[list]]:
    cfg, _, _ = args
    summaries = run_suite(cfg.seed, cfg.instances)
    return ([[name, s.count, s.min_margin, s.failures] for name, s in summaries.items()],)


# -- commands --------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    """One CLI command.

    ``worker`` names the worker in this module; it runs once per beta when
    ``required``, the config fields that must be non-empty, lists
    ``beta_values``, else once in all, and reads a model built for it when
    ``required`` lists ``model``.  It is looked up when the command runs, so
    a wrapper or patch applied to the module attribute sees every call.
    Each output pairs a CSV file name with its header line.
    """

    worker: str
    required: tuple[str, ...]
    outputs: tuple[tuple[str, str], ...]


COMMANDS = {
    "window-sweep": Command("_window_sweep_point", ("model", "beta_values", "ell_values"), (
        ("window_sweep.csv", "model_id,N,beta,ell,trace_error,slope"),
        ("single_step.csv", "model_id,beta,ell,lhs_literal,lhs_normalized,"
                            "rhs_total,rhs_bound1,rhs_bound2,K_fit,k_fit"),
    )),
    "cumulant-decay": Command("_cumulant_point", ("model", "beta_values"), (
        ("cumulant_decay.csv", "model_id,beta,j,norm,K,k"),
    )),
    "hastings-verify": Command("_hastings_point", ("beta_values", "s_steps"), (
        ("hastings_verify.csv", "model_id,beta,s_steps,residual,o_norm,o_norm_cap"),
    )),
    "lemma-suite": Command("_lemma_suite", (), (
        ("lemma_suite.csv", "check,count,min_margin,failures"),
    )),
    "markov-audit": Command("_markov_point", ("model", "beta_values", "ell_values"), (
        ("markov_audit.csv", "model_id,beta,ell,U,deficiency,degenerate"),
    )),
}


def run_command(name: str, cfg: ExperimentConfig, out_dir: Path) -> tuple[int, int]:
    """Validate, run the worker over its points, and write every output.

    A required model is built once before any worker starts; with several beta values its
    views share one store of spectra, filled with H's first for pool workers to inherit.
    The points run in ``cfg.jobs`` worker processes (0: one per core), at most one per
    point, or in this process when that is one; the pool's modules load only then, and
    before the model is built, so they do not land on top of its solve's heap high-water
    mark.  Returns the exit code (4 when the lemma suite records a failure, else 0) and
    the number of processes the points ran in.
    """
    command = COMMANDS[name]
    empty = [f for f in command.required if not getattr(cfg, f)]
    if empty:
        raise ConfigError(f"{name} needs non-empty {' and '.join(empty)}")
    worker = globals()[command.worker]
    betas = cfg.beta_values if "beta_values" in command.required else (None,)
    points = [(cfg, i, b) for i, b in enumerate(betas)]
    jobs = min(cfg.jobs or os.cpu_count() or 1, len(points))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
    model = build_model(cfg, betas[0]) if "model" in command.required else None
    if model is not None and len(points) > 1:
        model = replace(model, spectra={})
        log_partition_function(model)
    _share(model)
    try:
        if jobs == 1:
            results = [worker(p) for p in points]
        else:
            with ProcessPoolExecutor(max_workers=jobs, initializer=_share, initargs=(model,)) as pool:
                results = list(pool.map(worker, points))
    finally:
        _share(None)
    tables = [[row for part in parts for row in part] for parts in zip(*results)]
    for (filename, header), rows in zip(command.outputs, tables):
        write_csv(out_dir / filename, header.split(","), rows)
    return (4 if name == "lemma-suite" and any(failures for *_, failures in tables[0]) else 0), jobs


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
        p.add_argument("--jobs", type=int, default=None, help="worker pool size (default 1; 0: one per core)")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        cfg = parse_config(raw, args.seed, args.out, args.jobs)
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        code, jobs = run_command(args.command, cfg, out_dir)
    except DimensionCapError as exc:
        print(f"dimension cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (SingularOperatorError, NonDensityError, DynamicRangeError) as exc:  # on computed operators only
        print(f"numerical limit: {exc}", file=sys.stderr)
        return 5
    except (OSError, json.JSONDecodeError, ConfigError, ModelError, OperatorError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outputs = [filename for filename, _ in COMMANDS[args.command].outputs]
    write_manifest(out_dir, args.command, raw, cfg, outputs, jobs, t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
