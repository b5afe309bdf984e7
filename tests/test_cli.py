import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from qbp import cli, cumulants, fit_thermal_bound, load_model, operators, thermal_potential
from qbp.operators import PAULI_X, PAULI_Z


def write_config(tmp_path, **overrides):
    cfg = {
        "model": {
            "stock": {
                "kind": "chain",
                "n": 5,
                "local_dim": 2,
                "factory": "tfim",
                "params": {"J": 1.0, "hx": 1.0},
            }
        },
        "beta_values": [1.0],
        "ell_values": [1, 2, 3],
        "s_steps": [8, 16],
        "instances": 25,
        "seed": 42,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run(command, cfg_path, out_dir, extra=()):
    return cli.main(
        [command, "--config", str(cfg_path), "--out", str(out_dir), "--jobs", "1", *extra]
    )


class TestWindowSweep:
    def test_outputs_and_headers(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("window-sweep", cfg, tmp_path / "out") == 0
        sweep = (tmp_path / "out" / "window_sweep.csv").read_text().splitlines()
        assert sweep[0] == "model_id,N,beta,ell,trace_error,slope"
        assert len(sweep) == 4
        step = (tmp_path / "out" / "single_step.csv").read_text().splitlines()
        assert step[0] == (
            "model_id,beta,ell,lhs_literal,lhs_normalized,"
            "rhs_total,rhs_bound1,rhs_bound2,K_fit,k_fit"
        )
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["command"] == "window-sweep"
        raw = json.loads(cfg.read_text())
        assert manifest["config_sha256"] == hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()
        blas = manifest["blas"]
        assert set(blas) == {"name", "version", "threads", "complex_eigh"}
        assert blas["name"] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        assert blas["threads"] is None or blas["threads"] >= 1
        assert blas["complex_eigh"] == ("numpy" if operators._lapack() is None else "zheevd-staged")

    def test_classical_errors_at_noise_floor(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"stock": {"kind": "chain", "n": 6, "factory": "classical_ising"}},
        )
        assert run("window-sweep", cfg, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "window_sweep.csv").read_text().splitlines()[1:]
        for row in rows:
            assert float(row.split(",")[4]) <= 1e-9

    def test_stock_defaults_filled_in_and_model_id_prints_checked_n(self, tmp_path):
        cfg = write_config(tmp_path, model={"stock": {"n": 4.0, "factory": "tfim"}})
        parsed = cli.parse_config(json.loads(cfg.read_text()))
        assert parsed.model == {"stock": {
            "kind": "chain", "n": 4, "local_dim": 2, "factory": "tfim", "params": {}}}
        assert run("window-sweep", cfg, tmp_path / "out") == 0
        for name in ("window_sweep.csv", "single_step.csv"):
            rows = (tmp_path / "out" / name).read_text().splitlines()[1:]
            assert rows and all(r.startswith("chain-tfim-n4,") for r in rows)

    def test_model_file_ingestion(self, tmp_path):
        explicit = (-1.0 * np.kron(PAULI_Z, PAULI_Z)).real.tolist()
        model = {
            "vertices": [{"id": k, "dim": 2} for k in (1, 2, 3)],
            "edges": [
                {"u": 1, "v": 2, "term": {"factory": "tfim"}},
                {
                    "u": 2,
                    "v": 3,
                    "term": {"matrix": [[[v, 0.0] for v in row] for row in explicit]},
                },
            ],
            "beta": 1.0,
        }
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        cfg = write_config(tmp_path, model={"path": str(model_path)}, ell_values=[1, 2])
        assert run("window-sweep", cfg, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "window_sweep.csv").read_text().splitlines()[1:]
        assert all(row.startswith("model,") for row in rows)


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        run("window-sweep", cfg, tmp_path / "a")
        run("window-sweep", cfg, tmp_path / "b")
        for name in ("window_sweep.csv", "single_step.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_lemma_suite_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        run("lemma-suite", cfg, tmp_path / "a")
        run("lemma-suite", cfg, tmp_path / "b")
        assert (tmp_path / "a" / "lemma_suite.csv").read_bytes() == (
            tmp_path / "b" / "lemma_suite.csv"
        ).read_bytes()

    def test_seventeen_digit_floats(self, tmp_path):
        cfg = write_config(tmp_path)
        run("window-sweep", cfg, tmp_path / "out")
        row = (tmp_path / "out" / "single_step.csv").read_text().splitlines()[1]
        lhs_literal = row.split(",")[3]
        assert len(lhs_literal.replace(".", "").replace("-", "").lstrip("0")) >= 16


class TestOtherCommands:
    def test_cumulant_decay(self, tmp_path):
        cfg = write_config(tmp_path, beta_values=[0.5, 1.0])
        assert run("cumulant-decay", cfg, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "cumulant_decay.csv").read_text().splitlines()
        assert rows[0] == "model_id,beta,j,norm,K,k"
        ks = {float(r.split(",")[5]) for r in rows[1:]}
        assert all(k > 0 for k in ks)

    def test_cumulant_decay_single_edge_fit_undefined(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"stock": {"kind": "chain", "n": 2, "factory": "classical_ising"}},
        )
        assert run("cumulant-decay", cfg, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "cumulant_decay.csv").read_text().splitlines()[1:]
        assert all(r.split(",")[4] == "nan" for r in rows)

    @pytest.mark.parametrize("amp", [math.inf, math.nan, 0.0, -1.0, 2.0])
    def test_fitted_constants_none_exactly_when_rejected(self, monkeypatch, amp):
        # An infinite amplitude once passed the removed NaN-or-nonpositive test.
        fit = types.SimpleNamespace(amplitude=amp, decay=0.5)
        monkeypatch.setattr(cli, "_cumulant_fit", lambda model, leaf: (None, fit))
        consts, got_amp, decay = cli.fitted_constants(None, 1, cli.DEFAULT_CONSTANTS)
        assert decay == 0.5 and (got_amp == amp or math.isnan(got_amp))
        if amp == 2.0:
            assert consts.cumulant_amp == 2.0 and consts.cumulant_decay == 0.5
        else:
            assert consts is None

    def test_hastings_verify_monotone_residuals(self, tmp_path):
        cfg = write_config(tmp_path, s_steps=[8, 16, 32])
        assert run("hastings-verify", cfg, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "hastings_verify.csv").read_text().splitlines()
        assert rows[0] == "model_id,beta,s_steps,residual,o_norm,o_norm_cap"
        residuals = [float(r.split(",")[3]) for r in rows[1:]]
        assert residuals == sorted(residuals, reverse=True)
        for r in rows[1:]:
            assert float(r.split(",")[4]) <= float(r.split(",")[5]) + 1e-9

    def test_lemma_suite_passes_and_reports(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("lemma-suite", cfg, tmp_path / "out") == 0
        summary = read_csv(tmp_path / "out" / "lemma_suite.csv")
        assert all(int(v["failures"]) == 0 for v in summary)
        assert all(int(v["count"]) == 25 for v in summary)

    def test_lemma_suite_failure_exit_code(self, tmp_path, monkeypatch):
        from qbp.inequalities import SuiteSummary

        def broken(seed, instances):
            return {"weyl": SuiteSummary("weyl", instances, -1.0, 3)}

        monkeypatch.setattr(cli, "run_suite", broken)
        cfg = write_config(tmp_path)
        assert run("lemma-suite", cfg, tmp_path / "out") == 4

    @pytest.mark.parametrize("leaf", [None, 5], ids=["smallest_leaf", "leaf_5"])
    def test_cumulant_decay_on_a_tree(self, tmp_path, leaf):
        """A tree model runs, at its smallest leaf or the one the config names,
        and each row is the library's shell norm and fit; ``cumulant-decay``
        once required a chain."""
        model_path = tmp_path / "star.json"
        tfim = {"factory": "tfim", "params": {"J": 1.0, "hx": 1.0}}
        model_path.write_text(json.dumps({
            "vertices": [{"id": k, "dim": 2} for k in range(1, 6)],
            "edges": [{"u": 2, "v": k, "term": tfim} for k in (1, 3, 4)] + [{"u": 4, "v": 5, "term": tfim}],
            "beta": 1.0,
        }))
        extra = {} if leaf is None else {"leaf": leaf}
        cfg = write_config(tmp_path, model={"path": str(model_path)}, beta_values=[1.0], **extra)
        assert run("cumulant-decay", cfg, tmp_path / "out") == 0
        m = load_model(model_path)
        at = 1 if leaf is None else leaf
        series = cumulants(thermal_potential(m, {at}), m, {at})
        fit = fit_thermal_bound(series)
        rows = [r.split(",") for r in (tmp_path / "out" / "cumulant_decay.csv").read_text().splitlines()[1:]]
        assert [(int(r[2]), float(r[3])) for r in rows] == series.norms() and len(rows) == 3
        assert {(float(r[4]), float(r[5])) for r in rows} == {(fit.amplitude, fit.decay)}

    def test_markov_audit(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"stock": {"kind": "chain", "n": 4, "factory": "classical_ising"}},
            ell_values=[1],
        )
        assert run("markov-audit", cfg, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "markov_audit.csv").read_text().splitlines()
        assert rows[0] == "model_id,beta,ell,U,deficiency,degenerate"
        assert all(float(r.split(",")[4]) <= 1e-8 for r in rows[1:])
        audit = read_csv(tmp_path / "out" / "markov_audit.csv")
        assert {"U", "ell", "deficiency", "degenerate", "beta"} <= set(audit[0])


#: The commands that read a model, and so need one.
MODEL_COMMANDS = ["window-sweep", "cumulant-decay", "markov-audit"]
#: The 2-site chain the benchmark's lemma-suite and hastings-verify configs carry unread.
UNUSED_CHAIN = {"stock": {"kind": "chain", "n": 2, "local_dim": 2, "factory": "tfim",
                          "params": {"J": 1.0, "hx": 1.0}}}


class TestModelOnlyWhereRead:
    """A config names a model only for a command that reads one."""

    @pytest.mark.parametrize("command,config", [
        ("lemma-suite", {"instances": 25, "seed": 42}),
        ("hastings-verify", {"beta_values": [0.5, 1.0], "s_steps": [8, 16], "seed": 42}),
    ])
    def test_model_free_command_runs_without_model(self, tmp_path, monkeypatch, command, config):
        # Both once exited 2 on a config without a model, which they never read.
        built = []
        monkeypatch.setattr(cli, "build_model", lambda *args: built.append(args))
        for name, extra in [("bare", {}), ("unused", {"model": UNUSED_CHAIN})]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config | extra))
            assert run(command, path, tmp_path / name) == 0
        for filename, _ in cli.COMMANDS[command].outputs:
            assert (tmp_path / "bare" / filename).read_bytes() == (tmp_path / "unused" / filename).read_bytes()
        assert built == []

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_model_command_without_model_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw["model"]
        cfg.write_text(json.dumps(raw))
        assert run(command, cfg, tmp_path / "out") == 2
        assert capsys.readouterr().err == f"config error: {command} needs non-empty model\n"
        assert not any((tmp_path / "out").glob("*"))


def test_manifest_wall_time_is_monotonic(tmp_path, monkeypatch):
    """A wall-clock step during a run (NTP, a suspend) is not run time."""
    clock = itertools.count(time.time(), 1e6)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    cfg = write_config(tmp_path, instances=5)
    assert run("lemma-suite", cfg, tmp_path / "out") == 0
    assert json.loads((tmp_path / "out" / "run_manifest.json").read_text())["wall_time_s"] < 60


def test_manifest_without_numpys_openblas(tmp_path, monkeypatch):
    """Where numpy bundles no OpenBLAS, the manifest records no thread count and
    numpy's complex eigensolver, and the lookup itself finds none."""
    with monkeypatch.context() as patch:
        patch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))  # no numpy.libs beside it
        assert operators._openblas.__wrapped__() is None
    for module in (operators, cli):
        monkeypatch.setattr(module, "_lapack", lambda: None)
    monkeypatch.setattr(operators, "_openblas", lambda: None)
    cfg = write_config(tmp_path, model={"stock": RANDOM2_CHAIN["stock"] | {"n": 7}})  # d = 128: complex solves
    assert run("cumulant-decay", cfg, tmp_path / "out") == 0
    blas = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["blas"]
    assert blas["threads"] is None and blas["complex_eigh"] == "numpy"


#: Every result file of each command: its CSVs are the only copy of its numbers.
RESULT_FILES = {
    "window-sweep": ["window_sweep.csv", "single_step.csv"],
    "cumulant-decay": ["cumulant_decay.csv"],
    "hastings-verify": ["hastings_verify.csv"],
    "lemma-suite": ["lemma_suite.csv"],
    "markov-audit": ["markov_audit.csv"],
}


@pytest.mark.parametrize("command", sorted(RESULT_FILES))
def test_one_file_per_result(tmp_path, command):
    """A command writes its CSVs and ``run_manifest.json``, nothing else, and
    the manifest lists exactly those CSVs."""
    cfg = write_config(tmp_path, ell_values=[1, 2], s_steps=[8], instances=5)
    out = tmp_path / "out"
    assert run(command, cfg, out) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(RESULT_FILES[command] + ["run_manifest.json"])
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["outputs"] == RESULT_FILES[command]


# a malformed stock model, by what is wrong with it
BAD_STOCKS = {
    "missing_n": {"kind": "chain", "factory": "tfim"},
    "n_fraction": {"n": 4.7, "factory": "tfim"},
    "n_str": {"n": "5", "factory": "tfim"},
    "params_list": {"n": 5, "factory": "tfim", "params": [1]},
    "params_unknown": {"n": 5, "factory": "tfim", "params": {"Jx": 1}},
    "not_an_object": "chain",
    "unknown_key": {"n": 5, "factroy": "tfim"},
    "param_value_str": {"n": 4, "factory": "tfim", "params": {"J": "x"}},
    "kind_tree": {"kind": "tree", "n": 4, "factory": "tfim"},
}

BAD_VALUES = [
    # every (command, required field) pair, emptied
    ("window-sweep", "beta_values", []),
    ("window-sweep", "ell_values", []),
    ("cumulant-decay", "beta_values", []),
    ("hastings-verify", "beta_values", []),
    ("hastings-verify", "s_steps", []),
    ("markov-audit", "beta_values", []),
    ("markov-audit", "ell_values", []),
    # out of range: ell and s_steps below 1, beta not positive
    ("window-sweep", "ell_values", [0]),
    ("markov-audit", "ell_values", [0, -1]),
    ("hastings-verify", "s_steps", [0]),
    ("window-sweep", "beta_values", [0.0]),
    ("cumulant-decay", "beta_values", [0.0]),
    ("hastings-verify", "beta_values", [-1.0]),
    ("lemma-suite", "instances", 0),
    # a window wider than the 5-site chain allows
    ("window-sweep", "ell_values", [1, 50]),
    # a value given twice
    ("window-sweep", "beta_values", [1.0, 1]),
    ("window-sweep", "ell_values", [1, 1, 2]),
    ("hastings-verify", "s_steps", [8, 8]),
    # a bound constant that is not a finite positive number, or not an object
    ("window-sweep", "bound_constants", {"trunc_rate": 0}),
    ("window-sweep", "bound_constants", {"lr_decay": -1}),
    ("window-sweep", "bound_constants", {"trunc_rate": "x"}),
    ("window-sweep", "bound_constants", {"cumulant_amp": "x"}),
    ("window-sweep", "bound_constants", [1]),
    # a bound constant that does not exist, misspelt or deleted
    ("window-sweep", "bound_constants", {"trunc_rat": 2.0}),
    ("window-sweep", "bound_constants", {"lr_amplitude": 1.0}),
    # a non-finite beta
    ("window-sweep", "beta_values", [float("inf")]),
    ("cumulant-decay", "beta_values", [float("inf")]),
    ("hastings-verify", "beta_values", [float("inf")]),
    # a beta too large for a float
    ("window-sweep", "beta_values", [10**400]),
    # an integer field holding a fraction, a bool or a list
    ("window-sweep", "ell_values", [2.7]),
    ("window-sweep", "ell_values", [True]),
    ("window-sweep", "target", [4]),
    # a negative seed, which numpy's SeedSequence refuses
    ("lemma-suite", "seed", -1),
    ("hastings-verify", "seed", -1),
    *(("cumulant-decay", "model", {"stock": stock}) for stock in BAD_STOCKS.values()),
]


def bad_value_id(command, field, value):
    if field == "model":
        return f"{command}-model-" + next(k for k, s in BAD_STOCKS.items() if value == {"stock": s})
    if isinstance(value, dict):  # one bound constant
        ((key, value),) = value.items()
        field = f"{field}.{key}"
        if key not in {f.name for f in dataclasses.fields(cli.BoundConstants)}:
            return f"{command}-{field}-unknown"
    elif field in ("bound_constants", "target"):  # a list where none belongs
        return f"{command}-{field}-list"
    values = value if isinstance(value, list) else [value]
    if any(isinstance(v, (bool, str)) for v in values):
        return f"{command}-{field}-{type(values[0]).__name__}"
    if len(set(values)) < len(values):
        return f"{command}-{field}-repeated"
    if not values:
        kind = "empty"
    elif math.inf in values:
        kind = "nonfinite"
    elif min(values) <= 0:
        kind = "nonpositive"
    else:
        kind = "fraction" if any(v % 1 for v in values) else "above_range"
    return f"{command}-{field}-{kind}"


def shifted_tfim_file(tmp_path, c: float) -> Path:
    """A 6-site TFIM chain model file whose edge terms carry c I."""
    eye = np.eye(2)
    term = -np.kron(PAULI_Z, PAULI_Z) - 0.5 * (np.kron(PAULI_X, eye) + np.kron(eye, PAULI_X)) + c * np.eye(4)
    matrix = [[[x, 0.0] for x in row] for row in term.tolist()]
    path = tmp_path / f"tfim-shift-{c:g}.json"
    path.write_text(json.dumps({
        "vertices": [{"id": k, "dim": 2} for k in range(1, 7)],
        "edges": [{"u": k, "v": k + 1, "term": {"matrix": matrix}} for k in range(1, 6)],
        "beta": 1.0,
    }))
    return path


class TestEnergyZero:
    """A constant added to every edge term gives the same thermal states.  The
    +30 I file once exited 5 ("eigenvalue 0.0017 at or below floor 9722744"),
    and +1000 I exited 1 on a bare OverflowError."""

    def test_shift_keeps_every_measured_error(self, tmp_path):
        tables = {}
        for c in (0.0, 30.0):
            cfg = write_config(tmp_path, model={"path": str(shifted_tfim_file(tmp_path, c))}, ell_values=[1, 2, 3, 4])
            assert run("window-sweep", cfg, tmp_path / f"out{c:g}") == 0
            sweep = (tmp_path / f"out{c:g}" / "window_sweep.csv").read_text().splitlines()[1:]
            step = (tmp_path / f"out{c:g}" / "single_step.csv").read_text().splitlines()[1:]
            tables[c] = [
                [float(row.split(",")[4]) for row in sweep],
                [float(x) for row in step for x in row.split(",")[3:5]],
            ]
        for got, want in zip(tables[30.0], tables[0.0]):
            assert len(got) == len(want) >= 4
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12

    def test_large_shift_is_a_numerical_limit(self, tmp_path, capsys):
        # buffer_norm carries the constant, so the predicted envelope leaves the float range.
        cfg = write_config(tmp_path, model={"path": str(shifted_tfim_file(tmp_path, 1000.0))}, ell_values=[1, 2])
        assert run("window-sweep", cfg, tmp_path / "out") == 5
        assert capsys.readouterr().err.startswith("numerical limit: ")


class TestExitCodes:
    @pytest.mark.parametrize(
        "command,field,value",
        BAD_VALUES,
        ids=[bad_value_id(*bad) for bad in BAD_VALUES],
    )
    def test_empty_ell_list(self, tmp_path, command, field, value):
        cfg = write_config(tmp_path, **{field: value})
        assert run(command, cfg, tmp_path / "out") == 2
        assert not any((tmp_path / "out").glob("*.csv"))

    def test_required_fields_match_command_table(self):
        table = {(c, f) for c, cmd in cli.COMMANDS.items() for f in cmd.required}
        assert table == {(c, f) for c, f, v in BAD_VALUES if v == []} | {(c, "model") for c in MODEL_COMMANDS}

    def test_negative_jobs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("window-sweep", cfg, tmp_path / "out", extra=["--jobs", "-3"]) == 2
        with pytest.raises(cli.ConfigError):
            cli.parse_config(json.loads(cfg.read_text()) | {"jobs": -3})

    def test_worker_singular_error_exits_5_in_pool(self, tmp_path):
        # At beta = 60 the traced window has eigenvalues below double precision.
        cfg = write_config(tmp_path, beta_values=[60, 61], ell_values=[1])
        for jobs in ("1", "2"):
            assert run("window-sweep", cfg, tmp_path / "out", extra=["--jobs", jobs]) == 5

    @pytest.mark.parametrize("code,label", [
        (0, None),
        (2, "config error: "),
        (3, "dimension cap exceeded: "),
        (4, None),
        (5, "numerical limit: "),
    ])
    def test_exit_code_table(self, tmp_path, monkeypatch, capsys, code, label):
        command, overrides = "window-sweep", {}
        if code == 2:
            overrides = {"beta_values": []}
        elif code == 3:
            overrides = {"model": {"stock": {"kind": "chain", "n": 14, "factory": "tfim"}}}
        elif code == 4:
            from qbp.inequalities import SuiteSummary

            command = "lemma-suite"
            monkeypatch.setattr(
                cli, "run_suite", lambda seed, n: {"weyl": SuiteSummary("weyl", n, -1.0, 1)}
            )
        elif code == 5:
            overrides = {"beta_values": [60], "ell_values": [1]}
        cfg = write_config(tmp_path, **overrides)
        assert run(command, cfg, tmp_path / "out") == code
        err = capsys.readouterr().err
        assert err.startswith(label) if label else err == ""

    @pytest.mark.parametrize("key", ["s_step", "betas", "model_path"])
    def test_unknown_config_key(self, tmp_path, capsys, key):
        # "s_step", a typo for "s_steps", once ran with the default 64 steps.
        cfg = write_config(tmp_path, **{key: [8]})
        assert run("hastings-verify", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"unknown config keys ['{key}']" in err
        assert "known: ['beta_values', 'bound_constants', 'ell_values', 'instances'," in err

    @pytest.mark.parametrize("kind", ["path_and_stock", "extra_key", "empty", "path_list", "path_number"])
    def test_model_needs_exactly_a_path_string_or_a_stock(self, tmp_path, kind):
        stock = {"n": 4, "factory": "tfim"}
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "vertices": [{"id": 1, "dim": 2}, {"id": 2, "dim": 2}],
            "edges": [{"u": 1, "v": 2, "term": {"factory": "tfim"}}],
            "beta": 1.0,
        }))
        model = {
            "path_and_stock": {"path": str(model_path), "stock": stock},
            "extra_key": {"stock": stock, "kind": "chain"},
            "empty": {},
            "path_list": {"path": [str(model_path)]},
            "path_number": {"path": 1.5},
        }[kind]
        cfg = write_config(tmp_path, model=model)
        assert run("cumulant-decay", cfg, tmp_path / "out") == 2
        assert not any((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("out_dir", [None, [1, 2], 7, True, {"a": 1}],
                             ids=["null", "list", "int", "bool", "object"])
    def test_out_dir_must_be_a_string(self, tmp_path, monkeypatch, capsys, out_dir):
        # Each once ran into a directory named by its str(): "None", "[1, 2]", "7", ...
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, instances=5, out_dir=out_dir)
        for extra in ([], ["--out", str(tmp_path / "out")]):  # checked even when --out overrides it
            assert cli.main(["lemma-suite", "--config", str(cfg), *extra]) == 2
            assert capsys.readouterr().err == f"config error: out_dir must be a string, got {out_dir!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", ["window-sweep"])  # cumulant-decay takes any tree
    def test_star_tree_model_file(self, tmp_path, capsys, command):
        model_path = tmp_path / "star.json"
        model_path.write_text(json.dumps({
            "vertices": [{"id": k, "dim": 2} for k in (1, 2, 3, 4)],
            "edges": [{"u": 1, "v": k, "term": {"factory": "tfim"}} for k in (2, 3, 4)],
            "beta": 1.0,
        }))
        cfg = write_config(tmp_path, model={"path": str(model_path)}, ell_values=[1])
        assert run(command, cfg, tmp_path / "out") == 2
        assert "model is not a chain" in capsys.readouterr().err
        assert not any((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("beta", [True, "2", None], ids=["bool", "string", "missing"])
    def test_model_file_beta_is_checked(self, tmp_path, capsys, beta):
        # The file's beta was once replaced by each of beta_values unchecked.
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "vertices": [{"id": 1, "dim": 2}, {"id": 2, "dim": 2}],
            "edges": [{"u": 1, "v": 2, "term": {"factory": "tfim"}}],
        } | ({} if beta is None else {"beta": beta})))
        cfg = write_config(tmp_path, model={"path": str(model_path)})
        assert run("cumulant-decay", cfg, tmp_path / "out") == 2
        assert "beta" in capsys.readouterr().err
        assert not any((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize(
        "vertex_id, dim, edge", [(2.9, 2, (1, 2.9)), (2, 2.5, (1, 2)), (2, 2, (1, "2"))],
        ids=["fractional_id", "fractional_dim", "string_endpoint"],
    )
    def test_model_file_ids_and_dims_must_be_integers(self, tmp_path, capsys, vertex_id, dim, edge):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "vertices": [{"id": 1, "dim": 2}, {"id": vertex_id, "dim": dim}, {"id": 3, "dim": 2}],
            "edges": [{"u": edge[0], "v": edge[1], "term": {"factory": "tfim"}},
                      {"u": vertex_id, "v": 3.0, "term": {"factory": "tfim"}}],
            "beta": 1.0,
        }))
        cfg = write_config(tmp_path, model={"path": str(model_path)}, ell_values=[1])
        assert run("markov-audit", cfg, tmp_path / "out") == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not any((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("s_steps, parsed", [(64, (64,)), (64.0, (64,)), ([16.0, 32], (16, 32))])
    def test_scalar_s_steps_may_be_any_integral_number(self, tmp_path, s_steps, parsed):
        raw = json.loads(write_config(tmp_path).read_text()) | {"s_steps": s_steps}
        assert cli.parse_config(raw).s_steps == parsed

    @pytest.mark.parametrize("s_steps", [64.5, "64", True, {"n": 64}])
    def test_scalar_s_steps_must_be_an_integer(self, tmp_path, s_steps):
        cfg = write_config(tmp_path, s_steps=s_steps)
        assert run("hastings-verify", cfg, tmp_path / "out") == 2
        with pytest.raises(cli.ConfigError, match="s_steps must be an integer"):
            cli.parse_config(json.loads(cfg.read_text()))

    @pytest.mark.parametrize(
        "field, value, parsed",
        [("beta_values", 1.0, (1.0,)), ("beta_values", 2, (2.0,)), ("ell_values", 3, (3,)),
         ("ell_values", 3.0, (3,))],
    )
    def test_lone_value_is_a_list_of_one(self, tmp_path, field, value, parsed):
        # A lone beta or ell once exited 2 with "'float' object is not iterable".
        raw = json.loads(write_config(tmp_path).read_text()) | {field: value}
        assert getattr(cli.parse_config(raw), field) == parsed

    def test_omitted_lists_are_empty_and_s_steps_defaults(self, tmp_path):
        raw = json.loads(write_config(tmp_path).read_text())
        for field in ("beta_values", "ell_values", "s_steps"):
            del raw[field]
        cfg = cli.parse_config(raw)
        assert (cfg.beta_values, cfg.ell_values, cfg.s_steps) == ((), (), (64,))

    @pytest.mark.parametrize("field, value", [("ell_values", "12"), ("beta_values", "1.5")])
    def test_lone_string_is_named_whole(self, tmp_path, field, value):
        # "12" was once read character by character and reported as '1'.
        raw = json.loads(write_config(tmp_path).read_text()) | {field: value}
        with pytest.raises(cli.ConfigError, match=f"{field} must be .*, got '{value}'$"):
            cli.parse_config(raw)

    def test_lone_beta_and_ell_run(self, tmp_path):
        cfg = write_config(tmp_path, beta_values=1.0, ell_values=2)
        assert run("window-sweep", cfg, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "window_sweep.csv").read_text().splitlines()[1:]
        assert [r.split(",")[2:4] for r in rows] == [["1", "2"]]

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_negative_seed_flag(self, tmp_path, capsys, command):
        # lemma-suite and hastings-verify once exited 1 with a traceback.
        cfg = write_config(tmp_path)
        assert run(command, cfg, tmp_path / "out", extra=["--seed", "-1"]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not any((tmp_path / "out").glob("*"))

    def test_missing_seed(self, tmp_path):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw["seed"]
        cfg.write_text(json.dumps(raw))
        assert run("window-sweep", cfg, tmp_path / "out") == 2

    def test_seed_flag_fills_in(self, tmp_path):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw["seed"]
        cfg.write_text(json.dumps(raw))
        assert run("window-sweep", cfg, tmp_path / "out", extra=["--seed", "7"]) == 0

    def test_dimension_cap(self, tmp_path, capsys):
        # 15000 sites once exited 1: the message held a product of 4516 digits.
        for n in (14, 15000):
            cfg = write_config(
                tmp_path, model={"stock": {"kind": "chain", "n": n, "factory": "tfim"}}
            )
            assert run("window-sweep", cfg, tmp_path / "out") == 3
            assert capsys.readouterr().err.startswith("dimension cap exceeded: ")

    def test_missing_config_file(self, tmp_path):
        assert run("window-sweep", tmp_path / "nope.json", tmp_path / "out") == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("window-sweep", bad, tmp_path / "out") == 2

    @pytest.mark.parametrize("root", ["[1, 2]", "7", '"cfg"', "null"])
    def test_config_root_must_be_an_object(self, tmp_path, capsys, root):
        bad = tmp_path / "bad.json"
        bad.write_text(root)
        assert run("lemma-suite", bad, tmp_path / "out") == 2
        assert capsys.readouterr().err == "config error: config root must be a JSON object\n"


    @pytest.mark.parametrize("beta", [100.0, 300.0, 1e6])
    def test_hastings_verify_beyond_float_range(self, tmp_path, capsys, beta):
        # beta = 100 once leaked an overflow warning from a Frobenius norm, and
        # beta >= 300 exited 1 when exp overflowed and the SVD then failed.
        cfg = write_config(tmp_path, beta_values=[beta])
        code = run("hastings-verify", cfg, tmp_path / "out")
        if code == 0:
            rows = (tmp_path / "out" / "hastings_verify.csv").read_text().splitlines()[1:]
            assert len(rows) == 2
            assert all(math.isfinite(float(x)) for row in rows for x in row.split(",")[1:])
        else:
            assert code == 5
            err = capsys.readouterr().err
            assert err.startswith(f"numerical limit: beta {beta:g} needs exp(")
            assert "ln(float max) = 709.783" in err
            assert not any((tmp_path / "out").glob("*.csv"))


RANDOM2_CHAIN = {"stock": {"kind": "chain", "n": 5, "factory": "random2", "params": {"seed": 3}}}


class TestParallelism:
    def test_jobs_flag_does_not_change_output(self, tmp_path):
        """Pool workers, with the model's shared spectrum from the pool's
        initializer where the command reads a model, write every output byte
        for byte as one process does."""
        for command, model in [
            ("window-sweep", None),
            ("hastings-verify", None),
            ("cumulant-decay", RANDOM2_CHAIN),
            ("markov-audit", RANDOM2_CHAIN),
        ]:
            overrides = {"model": model} if model else {}
            cfg = write_config(tmp_path, beta_values=[0.5, 1.0], ell_values=[1, 2], **overrides)
            p, s = tmp_path / command / "p", tmp_path / command / "s"
            assert run(command, cfg, p, extra=["--jobs", "2"]) == 0
            assert run(command, cfg, s) == 0
            for filename, _ in cli.COMMANDS[command].outputs:
                assert (p / filename).read_bytes() == (s / filename).read_bytes(), filename

    def test_default_jobs_is_one_and_manifest_records_pool_size(self, tmp_path):
        two_beta = write_config(tmp_path, model=RANDOM2_CHAIN, beta_values=[0.5, 1.0])
        assert cli.parse_config(json.loads(two_beta.read_text())).jobs == 1
        (tmp_path / "one").mkdir()
        one_beta = write_config(tmp_path / "one", model=RANDOM2_CHAIN)
        cases = [
            (two_beta, [], 1),
            (two_beta, ["--jobs", "2"], 2),
            (two_beta, ["--jobs", "0"], min(os.cpu_count() or 1, 2)),
            (one_beta, ["--jobs", "2"], 1),  # one point runs in this process
        ]
        for i, (cfg, flags, pool) in enumerate(cases):
            out = tmp_path / f"out{i}"
            assert cli.main(["cumulant-decay", "--config", str(cfg), "--out", str(out), *flags]) == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["jobs"] == pool and manifest["peak_rss_mb"] > 0


#: Runs ``qbp.cli.main`` on its arguments, if any, in a fresh interpreter, then
#: prints which of four modules it loaded, whether the pool's module was loaded
#: when ``GraphModel._edge_spectrum`` first ran, and every top-level module it
#: loaded from outside the standard library, numpy and qbp.
FOOTPRINT = """
import json, sys
from qbp import cli
from qbp.models import GraphModel

solve, pool_at_first_solve = GraphModel._edge_spectrum, []

def spy(self, *args, **kwargs):
    if not pool_at_first_solve:
        pool_at_first_solve.append("concurrent.futures.process" in sys.modules)
    return solve(self, *args, **kwargs)

GraphModel._edge_spectrum = spy
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
loaded = [m for m in ("_hashlib", "concurrent.futures", "concurrent.futures.process", "numpy.random") if m in sys.modules]
# imported modules only: numpy.random's Cython extensions register cython_runtime and _cython_* unimported
imported = {name.split(".")[0] for name, module in list(sys.modules.items()) if getattr(module, "__spec__", None)}
foreign = sorted(imported - set(sys.stdlib_module_names) - {"numpy", "qbp"})
print(json.dumps({"code": code, "loaded": loaded, "pool_at_first_solve": pool_at_first_solve, "foreign": foreign}))
"""


def _child(*argv) -> str:
    """The last line a fresh interpreter prints, with qbp importable and one BLAS thread."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def footprint(tmp_path, command=None, cfg=None, jobs=1) -> dict:
    """``FOOTPRINT``'s report on ``command`` (None: on importing ``qbp.cli`` alone),
    and under ``bare`` what a bare interpreter loads, its site hooks among them."""
    argv = [] if command is None else [command, "--config", str(cfg), "--out", str(tmp_path / command),
                                       "--jobs", str(jobs)]
    run = json.loads(_child("-c", FOOTPRINT, *argv))
    return run | {"bare": _child("-c", "import sys; print(*sys.modules)").split()}


class TestFootprint:
    """A command loads only the modules it runs: hashlib maps OpenSSL's
    libcrypto and the pool module multiprocessing, about 5 MB resident
    between them, so a top-level import of either would show in every run's
    peak RSS; a package from outside the standard library and numpy would
    show in every run's start-up time."""

    def test_one_process_sweep_loads_no_openssl_pool_or_random(self, tmp_path):
        cfg = write_config(tmp_path, ell_values=[1, 2])
        run = footprint(tmp_path, "window-sweep", cfg, jobs=1)
        assert run["code"] == 0 and run["loaded"] == []

    def test_pool_modules_load_before_the_first_solve(self, tmp_path):
        # Imported where the pool starts, they landed on top of the solve's
        # heap high-water mark: a d = 1024 cumulant-decay peaked 4.7 % higher.
        cfg = write_config(tmp_path, model=RANDOM2_CHAIN, beta_values=[0.5, 1.0])
        run = footprint(tmp_path, "cumulant-decay", cfg, jobs=2)
        assert run["code"] == 0 and run["pool_at_first_solve"] == [True]

    @pytest.mark.parametrize("command", [None, "markov-audit"], ids=["import", "markov-audit"])
    def test_start_up_loads_only_stdlib_numpy_and_qbp(self, tmp_path, command):
        # The small-ops workload's set-up imports qbp.cli and builds random2 chains;
        # a test extra such as scipy, or mpmath, loaded there would show in its setup_s.
        cfg = write_config(tmp_path, model=RANDOM2_CHAIN, ell_values=[1])
        run = footprint(tmp_path, command, cfg, jobs=1)
        assert run["code"] == 0 and set(run["foreign"]) <= set(run["bare"])
        assert not {"scipy", "networkx", "hypothesis", "mpmath"} & set(run["foreign"])


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, ell_values=[1])
    proc = subprocess.run(
        [sys.executable, "-m", "qbp.cli", "window-sweep", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--jobs", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    # The manifest reports the BLAS thread count the library itself sees.
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["blas"]["threads"] in (1, None)
    assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0


def test_readme_example_config_parses():
    """README's example config is a valid config for the current contract."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("Example config:\n\n```json\n", 1)[1].split("```", 1)[0]
    cfg = cli.parse_config(json.loads(block))
    assert cfg.model_id == "chain-tfim-n8"
    assert len(cli.build_model(cfg, cfg.beta_values[0]).vertices) == 8


def test_readme_minimal_lemma_suite_config_runs(tmp_path):
    """README's minimal lemma-suite config, which names no model, runs."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("a minimal `lemma-suite` config is\n\n```json\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "lemma.json"
    cfg.write_text(json.dumps(json.loads(block) | {"instances": 5}))
    assert run("lemma-suite", cfg, tmp_path / "out") == 0


def test_readme_lists_every_output():
    """README's output table names each command's CSVs with their header rows."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Command | File | Header row |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    listed = [tuple(cell.strip(" `") for cell in line.split("|")[1:4]) for line in table.splitlines()]
    want = [(cmd, name, header) for cmd, command in cli.COMMANDS.items() for name, header in command.outputs]
    assert listed[:-1] == want and listed[-1][:2] == ("every command", "run_manifest.json")


def test_readme_library_quick_start_runs(capsys):
    """README's library quick start runs and prints one falling error per window."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [int(window) for window, _ in rows] == list(range(1, 8))
    errors = [float(err) for _, err in rows]
    assert errors[3] < errors[0]
