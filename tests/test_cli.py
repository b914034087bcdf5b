"""Command-line surface: subcommands, formats, determinism, exit codes."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from peps_forge import cli, dynamics
from peps_forge.harness import fixture_path


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


CHAIN2 = str(fixture_path("chain2"))
CHAIN3 = str(fixture_path("chain3"))


class TestRunCommand:
    def test_reports_byte_identical(self, capsys):
        code1, out1 = run_cli(capsys, "run", "--config", CHAIN3, "--seed", "7")
        code2, out2 = run_cli(capsys, "run", "--config", CHAIN3, "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["seed"] == 7
        assert doc["success"] is True

    def test_seed_changes_report(self, capsys):
        _, out1 = run_cli(capsys, "run", "--config", CHAIN3, "--seed", "1")
        _, out2 = run_cli(capsys, "run", "--config", CHAIN3, "--seed", "2")
        assert json.loads(out1) != json.loads(out2)

    def test_until_success_mode(self, capsys):
        code, out = run_cli(
            capsys, "run", "--config", CHAIN3, "--seed", "5", "--mode", "until_success"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["alternation_cap"] is None
        assert doc["fidelity"] >= 1.0 - 1e-8

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(
            capsys, "run", "--config", CHAIN2, "--seed", "3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["seed"] == 3


class TestSweepCommand:
    def test_summary_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code, out = run_cli(
            capsys,
            "sweep",
            "--config",
            CHAIN2,
            "--trials",
            "5",
            "--seed",
            "50",
            "--out",
            str(csv_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["trials"] == 5
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("instance,seed,success")

    def test_csv_to_stdout(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep",
            "--config",
            CHAIN2,
            "--trials",
            "3",
            "--format",
            "csv",
        )
        assert code == 0
        assert out.startswith("instance,seed,")

    def test_jobs_flag_deterministic(self, capsys):
        _, a = run_cli(
            capsys, "sweep", "--config", CHAIN2, "--trials", "4", "--format", "csv"
        )
        _, b = run_cli(
            capsys,
            "sweep",
            "--config",
            CHAIN2,
            "--trials",
            "4",
            "--format",
            "csv",
            "--jobs",
            "2",
        )
        assert a == b

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_invalid(self, capsys, jobs):
        code, _ = run_cli(
            capsys, "sweep", "--config", CHAIN2, "--trials", "2", "--jobs", jobs
        )
        assert code == 2


class TestVerifyCommands:
    def test_lemma1_fixture_passes(self, capsys):
        code, out = run_cli(capsys, "verify-lemma1", "--config", CHAIN3)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["min_overlap_margin"] >= -1e-10

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_lemma1_trials_below_one_invalid(self, capsys, tmp_path, trials):
        config = {
            "graph": {"topology": "chain", "length": 3},
            "bond_dim": 2,
            "tensors": {"source": "random", "kappa_max": 5.0, "seed": 3},
            "seed": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out = run_cli(
            capsys, "verify-lemma1", "--config", str(path), "--trials", trials
        )
        assert code == 2
        assert out == ""

    def test_lemma1_random_instances(self, capsys, tmp_path):
        config = {
            "graph": {"topology": "chain", "length": 3},
            "bond_dim": 2,
            "tensors": {
                "source": "random",
                "kappa_max": 5.0,
                "physical_dims": None,
                "seed": 3,
            },
            "seed": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out = run_cli(
            capsys, "verify-lemma1", "--config", str(path), "--trials", "5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["instances"] == 5
        assert doc["steps_checked"] == 15

    def test_lemma2_passes(self, capsys):
        code, out = run_cli(
            capsys, "verify-lemma2", "--p", "0.5", "--m", "1", "--trials", "20000"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert abs(doc["empirical_frequency"] - 0.75) <= doc["four_sigma"]
        assert doc["grid_checks"]["min_s_bound_margin"] >= -1e-12

    def test_lemma2_counts_every_s_pair(self, capsys):
        # the s-bound grid is 20 values of p by 100 values of s
        code, out = run_cli(capsys, "verify-lemma2", "--p", "0.5", "--m", "1")
        assert code == 0
        grid = json.loads(out)["grid_checks"]
        assert grid["pairs_checked"] == 9 * 50
        assert grid["s_pairs_checked"] == 20 * 100

    def test_lemma2_failure_exit_code(self, capsys, monkeypatch):
        def broken(p, m, trials, rng):
            return np.zeros(trials, dtype=bool), np.ones(trials, dtype=np.int64)

        monkeypatch.setattr(dynamics, "markov_trials", broken)
        code, out = run_cli(
            capsys, "verify-lemma2", "--p", "0.5", "--m", "1", "--trials", "1000"
        )
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestGapScan:
    def test_json_table(self, capsys):
        code, out = run_cli(capsys, "gap-scan", "--config", CHAIN3)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["steps"]) == 4
        assert all(row["gap"] > 0 for row in doc["steps"])
        assert all(abs(row["lambda0"]) <= 1e-9 for row in doc["steps"])

    def test_csv_table(self, capsys):
        code, out = run_cli(capsys, "gap-scan", "--config", CHAIN3, "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "step,lambda0,lambda1,gap,ground_degeneracy"
        assert len(lines) == 5

    def test_dump_terms(self, capsys, tmp_path):
        dump = tmp_path / "terms.json"
        code, _ = run_cli(
            capsys, "gap-scan", "--config", CHAIN2, "--dump-terms", str(dump)
        )
        assert code == 0
        doc = json.loads(dump.read_text())
        assert set(doc) == {"0", "1", "2"}
        term = doc["1"][0]
        assert set(term) == {"support", "kind", "matrix"}


class TestCostModel:
    def test_flag_arithmetic(self, capsys):
        code, out = run_cli(
            capsys, "cost-model", "--V", "4", "--kappa", "1", "--eps", "0.1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["measurement_bound"] == pytest.approx(
            16.0 / (0.1 * math.e) + 4.0, rel=1e-12
        )
        assert doc["s"] == 8 and doc["m"] == 8

    def test_config_derived(self, capsys):
        code, out = run_cli(capsys, "cost-model", "--config", CHAIN3)
        assert code == 0
        doc = json.loads(out)
        assert doc["num_vertices"] == 3
        assert doc["num_edges"] == 2
        assert doc["kappa"] > 1.0
        assert doc["gap"] > 0.0

    def test_missing_flags_invalid(self, capsys):
        code, _ = run_cli(capsys, "cost-model", "--V", "4")
        assert code == 2

    def test_full_failure_budget_rejected(self, capsys):
        # like run, cost-model takes a failure budget in (0, 1) only
        for eps in ("1", "1.5", "0", "-0.1", "nan"):
            code, _ = run_cli(
                capsys, "cost-model", "--V", "2", "--kappa", "1", "--eps", eps
            )
            assert code == 2, eps
        code, _ = run_cli(capsys, "cost-model", "--config", CHAIN3, "--eps", "1.5")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--kappa", "--delta"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_flags_invalid(self, capsys, flag, value):
        argv = {"--V": "4", "--kappa": "2", "--eps": "0.1", flag: value}
        code, _ = run_cli(capsys, "cost-model", *[x for kv in argv.items() for x in kv])
        assert code == 2


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "run", "--config", "/nonexistent.json")
        assert code == 2

    def test_malformed_config(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"graph": {"topology": "chain", "length": 3}}))
        code, _ = run_cli(capsys, "run", "--config", str(path))
        assert code == 2

    def test_capacity_exceeded(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PEPS_FORGE_DIM_CAP", "8")
        code, _ = run_cli(capsys, "run", "--config", CHAIN3, "--seed", "1")
        assert code == 3

    def test_non_finite_config_number_invalid(self, capsys, tmp_path):
        config = {
            "graph": {"topology": "chain", "length": 3},
            "bond_dim": 2,
            "tensors": {"source": "random", "kappa_max": 2.0, "seed": 3},
            "seed": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config).replace("2.0", "Infinity"))
        code, _ = run_cli(capsys, "run", "--config", str(path))
        assert code == 2

    def test_argparse_rejects_unknown_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", CHAIN3, "--mode", "warp"])
        assert exc.value.code == 2
