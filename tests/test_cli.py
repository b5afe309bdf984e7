import json
import subprocess
import sys

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

    def test_classical_errors_at_noise_floor(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"stock": {"kind": "chain", "n": 6, "factory": "classical_ising"}},
        )
        assert run("window-sweep", cfg, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "window_sweep.csv").read_text().splitlines()[1:]
        for row in rows:
            assert float(row.split(",")[4]) <= 1e-9

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
]


def bad_value_id(command, field, value):
    values = value if isinstance(value, list) else [value]
    kind = "empty" if not values else "nonpositive" if min(values) <= 0 else "above_range"
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

    def test_required_fields_match_command_table(self):
        table = {(c, f) for c, cmd in cli.COMMANDS.items() for f in cmd.required}
        assert table == {(c, f) for c, f, v in BAD_VALUES if v == []}

    def test_negative_jobs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("window-sweep", cfg, tmp_path / "out", extra=["--jobs", "-3"]) == 2
        with pytest.raises(cli.ConfigError):
            cli.parse_config(json.loads(cfg.read_text()) | {"jobs": -3})

    def test_worker_singular_error_exits_2_in_pool(self, tmp_path):
        # At beta = 60 the traced window has eigenvalues below double precision.
        cfg = write_config(tmp_path, beta_values=[60, 61], ell_values=[1])
        assert run("window-sweep", cfg, tmp_path / "out", extra=["--jobs", "2"]) == 2

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


class TestParallelism:
    def test_jobs_flag_does_not_change_output(self, tmp_path):
        cfg = write_config(tmp_path, beta_values=[0.5, 1.0], ell_values=[1, 2])
        assert (
            cli.main(
                ["window-sweep", "--config", str(cfg), "--out", str(tmp_path / "p"),
                 "--jobs", "2"]
            )
            == 0
        )
        run("window-sweep", cfg, tmp_path / "s")
        assert (tmp_path / "p" / "window_sweep.csv").read_bytes() == (
            tmp_path / "s" / "window_sweep.csv"
        ).read_bytes()


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, ell_values=[1])
    proc = subprocess.run(
        [sys.executable, "-m", "qbp.cli", "window-sweep", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--jobs", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
