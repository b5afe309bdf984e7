import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qbp import cli
from qbp.operators import PAULI_Z


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
        assert "config_sha256" in manifest
        blas = manifest["blas"]
        assert set(blas) == {"name", "version", "threads"}
        assert blas["name"] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        assert blas["threads"] is None or blas["threads"] >= 1

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
        summary = json.loads((tmp_path / "out" / "lemma_suite.json").read_text())
        assert all(v["failures"] == 0 for v in summary.values())
        assert all(v["count"] == 25 for v in summary.values())

    def test_lemma_suite_failure_exit_code(self, tmp_path, monkeypatch):
        from qbp.inequalities import SuiteSummary

        def broken(seed, instances):
            return {"weyl": SuiteSummary("weyl", instances, -1.0, 3)}

        monkeypatch.setattr(cli, "run_suite", broken)
        cfg = write_config(tmp_path)
        assert run("lemma-suite", cfg, tmp_path / "out") == 4

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
        audit = json.loads((tmp_path / "out" / "markov_audit.json").read_text())
        assert {"U", "ell", "deficiency", "degenerate", "beta"} <= set(audit[0])


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
        assert table == {(c, f) for c, f, v in BAD_VALUES if v == []}

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

    def test_dimension_cap(self, tmp_path):
        cfg = write_config(
            tmp_path, model={"stock": {"kind": "chain", "n": 14, "factory": "tfim"}}
        )
        assert run("window-sweep", cfg, tmp_path / "out") == 3

    def test_missing_config_file(self, tmp_path):
        assert run("window-sweep", tmp_path / "nope.json", tmp_path / "out") == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("window-sweep", bad, tmp_path / "out") == 2


RANDOM2_CHAIN = {"stock": {"kind": "chain", "n": 5, "factory": "random2", "params": {"seed": 3}}}


class TestParallelism:
    def test_jobs_flag_does_not_change_output(self, tmp_path):
        """Workers that receive the model's shared spectrum from the pool's
        initializer write every output byte for byte as one process does."""
        for command, model in [
            ("window-sweep", None),
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


def test_readme_example_config_parses():
    """README's example config is a valid config for the current contract."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("Example config:\n\n```json\n", 1)[1].split("```", 1)[0]
    cfg = cli.parse_config(json.loads(block))
    assert cfg.model_id == "chain-tfim-n8"
    assert len(cli.build_model(cfg, cfg.beta_values[0]).vertices) == 8
